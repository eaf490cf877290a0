"""The private prediction engine: threshold selection, capped votes, charges.

One query is answered in five steps:

1. Filter: only examples whose remaining budget covers one more count release
   (z_i >= 1 / (2 sigma_count^2)) stay eligible; public reused entries always
   do.
2. Select: eligible examples whose kernel weight against the query reaches the
   weight threshold.
3. Release a noisy, floor-clamped count K of the selected set.  Every selected
   private example is charged 1 / (2 sigma_count^2) for it.
4. Each selected private example contributes a one-hot vote of magnitude
   min(weight, sigma_vote * sqrt(2 K z_i)) and is charged
   magnitude^2 / (2 sigma_vote^2 K) — the cap makes that charge never exceed
   what the example has left, so a saturated example lands on exactly zero.
   Public reused entries vote with their full weight, uncapped and uncharged.
5. Release the argmax of the summed votes plus N(0, sigma_vote^2 * K) per
   class.  Optionally the (query, answer) pair re-enters the store as a new
   public example.

The per-example work at steps 2-4 depends only on that example's own state
and the public quantities (query, K), never on other examples — removing a
point leaves everyone else's selection decisions untouched, which is what
makes the per-example accounting sound and unlearning cheap.

State layout: stores are append-only with an alive mask, so example indices
are stable across removals; charge trails and LSH buckets can refer to them
without remapping.  All mutation of budgets goes through the ledger, queries
are answered strictly one at a time, and a fresh engine replay with the same
seed reproduces outcomes bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accounting import (
    ChargeRecord,
    DpParams,
    IndividualLedger,
    budget_for_dp,
    with_room,
)
from .kernels import IngestionError, KernelSpec, kernel_weights, normalize_rows
from .mechanisms import NoiseSource, noisy_argmax, noisy_count

DEFAULT_COUNT_FLOOR = 30


@dataclass(frozen=True)
class EngineConfig:
    """Everything fixed before the first query.

    Exactly one of ``dp`` (an (epsilon, delta) target, converted to a
    per-example budget) or ``budget`` (the budget itself) must be given.
    ``sigma_count`` defaults to sqrt(T / (6 B)), which prices the count
    releases so a point selected at every one of the T planned queries spends
    a bounded share of its budget on counts alone.
    """

    kernel: KernelSpec
    weight_threshold: float
    sigma_vote: float
    planned_queries: int
    dp: DpParams | None = None
    budget: float | None = None
    sigma_count: float | None = None
    reuse_predictions: bool = False
    count_floor: float = DEFAULT_COUNT_FLOOR

    def __post_init__(self):
        if not 0.0 <= self.weight_threshold <= 1.0:
            raise ValueError(f"weight threshold must lie in [0, 1], got {self.weight_threshold}")
        if not self.sigma_vote > 0.0:
            raise ValueError(f"sigma_vote must be positive, got {self.sigma_vote}")
        if self.planned_queries < 0:
            raise ValueError(f"planned_queries must be nonnegative, got {self.planned_queries}")
        if self.count_floor < 1.0:
            raise ValueError(f"count_floor must be >= 1, got {self.count_floor}")
        if (self.dp is None) == (self.budget is None):
            raise ValueError("exactly one of dp or budget must be set")
        if self.budget is not None and not self.budget > 0.0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        object.__setattr__(self, "_budget", self.budget if self.budget is not None else budget_for_dp(self.dp))
        if self.sigma_count is None:
            sc = math.sqrt(max(self.planned_queries, 1) / (6.0 * self._budget))
            object.__setattr__(self, "sigma_count", sc)
        if not self.sigma_count > 0.0:
            raise ValueError(f"sigma_count must be positive, got {self.sigma_count}")

    @property
    def per_example_budget(self) -> float:
        """The budget B each private example starts with."""
        return self._budget

    @property
    def count_charge(self) -> float:
        """Spend per count release, 1 / (2 sigma_count^2); also the filter threshold."""
        return 1.0 / (2.0 * self.sigma_count * self.sigma_count)


@dataclass(frozen=True)
class QueryOutcome:
    """Everything released by one query; ``charges`` builds ChargeRecords only when read."""

    query_index: int
    answer: int
    released_count: float
    selected: np.ndarray
    charged: np.ndarray  # the charged private examples, in selection order
    label_charges: np.ndarray  # one per charged example
    count_charge: float  # paid by every charged example

    @property
    def charges(self) -> list[ChargeRecord]:
        return [ChargeRecord(self.query_index, i, self.count_charge, c)
                for i, c in zip(self.charged.tolist(), self.label_charges.tolist())]


class ExampleStore:
    """Labeled unit-norm feature vectors with one budget entry per example.

    Arrays are append-only; removal flips the alive flag, so an example's
    index is stable for its whole life and afterwards.  ``public`` marks
    reused predictions, which carry no budget.  ``features``, ``labels`` and
    ``alive`` are views of the live prefix of capacity-doubling buffers: an
    insert writes one row, and the arrays passed in are never written (the
    first insert copies them).
    """

    def __init__(self, features, labels, num_classes: int, config: EngineConfig):
        feats = normalize_rows(features)
        labs = np.asarray(labels, dtype=np.int64)
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise IngestionError(
                f"labels shape {labs.shape} does not match {feats.shape[0]} feature rows"
            )
        if num_classes < 1:
            raise IngestionError(f"num_classes must be >= 1, got {num_classes}")
        bad = np.flatnonzero((labs < 0) | (labs >= num_classes))
        if bad.size:
            raise IngestionError(
                f"label {int(labs[bad[0]])} at row {int(bad[0])} outside [0, {num_classes})"
            )
        self.config = config
        self.num_classes = int(num_classes)
        self.features = self._features = feats
        self.labels = self._labels = labs
        self.alive = self._alive = np.ones(feats.shape[0], dtype=bool)
        self.ledger = IndividualLedger(feats.shape[0], config.per_example_budget)
        self.released: list[QueryOutcome] = []
        self.queries_answered = 0

    # -- shape ---------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def public(self) -> np.ndarray:
        """Reused-prediction markers; the ledger's ``unlimited`` flags, not a copy."""
        return self.ledger.unlimited

    @property
    def size(self) -> int:
        """Number of live examples, public entries included."""
        return int(self.alive.sum())

    def private_indices(self) -> np.ndarray:
        return np.flatnonzero(self.alive & ~self.public)

    def private_remaining(self) -> np.ndarray:
        """Remaining budgets of live private examples (the logical ledger)."""
        return self.ledger.z[self.alive & ~self.public]

    # -- mutation ------------------------------------------------------------

    def add_example(self, feature, label: int, *, public: bool = False) -> int:
        """Insert one example with a fresh budget; returns its (stable) index."""
        feat = normalize_rows(np.asarray(feature, dtype=np.float64)[None, :])[0]
        if feat.shape[0] != self.dimension:
            raise IngestionError(
                f"feature dimension {feat.shape[0]} does not match store dimension {self.dimension}"
            )
        if not 0 <= int(label) < self.num_classes:
            raise IngestionError(f"label {label} outside [0, {self.num_classes})")
        n = self.features.shape[0]
        self._features = with_room(self._features, n)
        self._labels = with_room(self._labels, n)
        self._alive = with_room(self._alive, n)
        self._features[n] = feat
        self._labels[n] = int(label)
        self._alive[n] = True
        self.features, self.labels = self._features[: n + 1], self._labels[: n + 1]
        self.alive = self._alive[: n + 1]
        self.ledger.append(unlimited=public)
        return n

    def remove_example(self, index: int) -> None:
        """Retire one example immediately; its ledger entry goes with it."""
        if not 0 <= index < self.features.shape[0] or not self.alive[index]:
            raise IndexError(f"no live example at index {index}")
        self.alive[index] = False


# -- per-example vote arithmetic ----------------------------------------------


def capped_votes(weights: np.ndarray, remaining: np.ndarray, released_count: float,
                 sigma_vote: float) -> tuple[np.ndarray, np.ndarray]:
    """Capped vote magnitudes and label charges of private examples.

    An example with weight w and remaining budget z (after its count charge)
    votes min(w, sigma_vote * sqrt(2 K z)) and pays magnitude^2 /
    (2 sigma_vote^2 K).  The cap is exactly the magnitude whose charge
    consumes all of z, so a saturated example is charged z itself and lands
    on exactly zero.
    """
    denom = 2.0 * sigma_vote * sigma_vote * released_count
    saturated = weights * weights >= denom * remaining
    cap = sigma_vote * np.sqrt(2.0 * released_count * remaining)
    magnitudes = np.where(saturated, cap, weights)
    label_charges = np.where(saturated, remaining, weights * weights / denom)
    return magnitudes, label_charges


def _accumulate_votes(labels: np.ndarray, magnitudes: np.ndarray, num_classes: int) -> np.ndarray:
    """Index-ordered per-class sums."""
    # bincount returns int64 for empty input even with float weights
    counts = np.bincount(labels, weights=magnitudes, minlength=num_classes)
    return counts.astype(np.float64, copy=False)


# -- the query path ------------------------------------------------------------


def select_neighbors(store: ExampleStore, query: np.ndarray,
                     candidates: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Indices and weights of eligible examples at or above the weight threshold.

    Eligible = alive, and either public or budgeted for one more count
    release.  ``candidates`` (from an index) restricts the scan, and the
    filter then reads only their entries.  The decision for an example
    depends only on its own feature, budget, and the query.
    """
    cfg = store.config
    if candidates is None:
        active = np.flatnonzero(store.alive & store.ledger.active_mask(cfg.count_charge))
    else:
        # Sorted and deduplicated, as a mask over the store would give them.
        active = np.unique(candidates)
        active = active[store.alive[active] & store.ledger.active_mask(cfg.count_charge, active)]
    weights = kernel_weights(cfg.kernel, store.features[active], query)
    keep = weights >= cfg.weight_threshold
    return active[keep], weights[keep]


def answer_query(store: ExampleStore, query, src: NoiseSource,
                 candidates: np.ndarray | None = None) -> QueryOutcome:
    """Answer one query, charging every selected private example.

    Draws exactly 1 + num_classes standard normals from ``src`` regardless of
    how many examples are selected, so noise tapes line up across replays.
    """
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != store.dimension:
        raise ValueError(f"query shape {q.shape} does not match store dimension {store.dimension}")
    if not abs(float(np.linalg.norm(q)) - 1.0) <= 1e-6:  # also rejects NaN and inf
        raise IngestionError("query must be finite and unit-normalized")
    cfg = store.config
    t = store.queries_answered

    selected, weights = select_neighbors(store, q, candidates)
    released = noisy_count(selected.shape[0], cfg.sigma_count, cfg.count_floor, src)

    is_public = store.public[selected]
    priv = selected[~is_public]
    priv_w = weights[~is_public]

    # Caps and label charges see the post-count budget; both charges land in one checked step.
    magnitudes, label_charges = capped_votes(
        priv_w, store.ledger.z[priv] - cfg.count_charge, released, cfg.sigma_vote
    )
    store.ledger.spend(priv, cfg.count_charge, label_charges)

    votes = _accumulate_votes(store.labels[priv], magnitudes, store.num_classes)
    votes += _accumulate_votes(
        store.labels[selected[is_public]], weights[is_public], store.num_classes
    )

    answer = noisy_argmax(votes, cfg.sigma_vote * cfg.sigma_vote * released, src)

    outcome = QueryOutcome(t, answer, released, selected, priv, label_charges, cfg.count_charge)
    store.released.append(outcome)
    store.queries_answered += 1
    if cfg.reuse_predictions:
        store.add_example(q, answer, public=True)
    return outcome


def answer_stream(store: ExampleStore, queries, src: NoiseSource) -> list[QueryOutcome]:
    """Answer queries strictly in order; budgets carry over between them."""
    return [answer_query(store, q, src) for q in np.asarray(queries, dtype=np.float64)]
