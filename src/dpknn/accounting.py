"""Per-example Renyi-DP budgets and (epsilon, delta) conversions.

Every private example i carries a remaining budget z_i, initialized to a
common value B.  Releasing a Gaussian linear query in which example i's
contribution has L2 norm s costs alpha * s^2 / (2 sigma^2) Renyi divergence at
order alpha — linear in alpha — so the ledger only needs to track the
coefficient s^2 / (2 sigma^2).  An example whose coefficient spend reaches B
is retired by the filter and never touched again; the whole interaction then
satisfies (alpha, B * alpha)-RDP for every alpha >= 1 simultaneously.

Conversion of a linear RDP curve to (epsilon, delta)-DP minimizes

    epsilon(alpha) = B * alpha + log(1 / (alpha * delta)) / (alpha - 1)
                     + log(1 - 1 / alpha)

over a fixed dense grid of orders, and is additionally clamped by the
classical closed form B + 2 * sqrt(B * log(1 / delta)), which is itself a
valid (looser) conversion.  The optimizer for linear curves sits near
alpha* = 1 + sqrt(log(1 / delta) / B), which the grid covers for every
practical (B, delta) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

# 1.01 .. 10.00 in steps of 0.01, then even orders 10 .. 512.
ALPHA_GRID = np.unique(
    np.concatenate([1.0 + np.arange(1, 901) / 100.0, np.arange(10.0, 513.0, 2.0)])
)


class LedgerInvariantError(RuntimeError):
    """A budget went materially negative or a charge was malformed.

    Raised instead of silently continuing: a run that violates the ledger
    invariant has no privacy guarantee to report.
    """


@dataclass(frozen=True)
class DpParams:
    """An (epsilon, delta) differential-privacy target."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class ChargeRecord:
    """One example's spend at one query: the count charge and the label charge."""

    query_index: int
    example: int
    count_charge: float
    label_charge: float


def classical_dp_bound(budget: float, delta: float) -> float:
    """The closed-form conversion B + 2 * sqrt(B * log(1 / delta))."""
    return budget + 2.0 * math.sqrt(budget * math.log(1.0 / delta))


def rdp_to_dp(budget: float, delta: float) -> float:
    """Convert a linear RDP curve alpha -> budget * alpha to an epsilon at delta."""
    if budget < 0.0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if budget == 0.0:
        return 0.0
    a = ALPHA_GRID
    eps = budget * a + np.log(1.0 / (a * delta)) / (a - 1.0) + np.log1p(-1.0 / a)
    return float(min(eps.min(), classical_dp_bound(budget, delta)))


def budget_for_dp(target: DpParams) -> float:
    """Largest per-example budget whose conversion stays within the target.

    Bisection on B: rdp_to_dp is continuous and strictly increasing in B, and
    rdp_to_dp(eps) > eps, so [0, eps] brackets the answer.
    """
    lo, hi = 0.0, target.epsilon
    if rdp_to_dp(hi, target.delta) <= target.epsilon:  # pragma: no cover - defensive
        return hi
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if rdp_to_dp(mid, target.delta) <= target.epsilon:
            lo = mid
        else:
            hi = mid
    return lo


def with_room(buffer: np.ndarray, used: int) -> np.ndarray:
    """``buffer`` if it has a free row after its first ``used``, else a copy with double the rows.

    The copy comes from ``np.empty`` and only the used prefix is written, so
    capacity not yet filled costs no resident memory.  ``buffer`` itself is
    never written.
    """
    if used < buffer.shape[0]:
        return buffer
    bigger = np.empty((max(2 * used, 1), *buffer.shape[1:]), dtype=buffer.dtype)
    bigger[:used] = buffer[:used]
    return bigger


class IndividualLedger:
    """Remaining per-example budgets, with unlimited markers for public entries.

    Entries are append-only and aligned with their store's example positions.
    ``z`` and ``unlimited`` are views of the live prefix of capacity-doubling
    buffers, so an append costs O(1) amortized.  ``z`` is meaningful only
    where ``unlimited`` is False.  Mutation happens exclusively through
    :meth:`spend`, which never lets a budget go below -1e-9 (accumulated float
    error) without aborting the run.
    """

    SLACK = 1e-9

    def __init__(self, size: int, budget: float):
        if budget < 0.0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        self.budget = float(budget)
        self.z = self._z = np.full(size, self.budget, dtype=np.float64)
        self.unlimited = self._unlimited = np.zeros(size, dtype=bool)

    def __len__(self) -> int:
        return self.z.shape[0]

    def append(self, *, unlimited: bool = False) -> int:
        """Add one entry (fresh budget, or an unlimited public marker)."""
        n = len(self)
        self._z = with_room(self._z, n)
        self._unlimited = with_room(self._unlimited, n)
        self._z[n] = self.budget
        self._unlimited[n] = unlimited
        self.z, self.unlimited = self._z[: n + 1], self._unlimited[: n + 1]
        return n

    def active_mask(self, threshold: float, indices: np.ndarray | None = None) -> np.ndarray:
        """Entries allowed to participate: unlimited, or z >= threshold.

        With ``indices``, the mask covers those entries only, in their order.
        """
        if indices is None:
            return self.unlimited | (self.z >= threshold)
        return self.unlimited[indices] | (self.z[indices] >= threshold)

    def spend(self, indices: np.ndarray, *amounts) -> None:
        """Deduct nonnegative charges, as (z - a) - b, from private entries; all or nothing."""
        if any(np.any(np.asarray(a) < 0.0) for a in amounts):
            raise LedgerInvariantError("negative charge")
        if np.any(self.unlimited[indices]):
            raise LedgerInvariantError("attempted to charge a public (unlimited) entry")
        z = reduce(np.subtract, amounts, self.z[indices])
        if np.any(z < -self.SLACK):
            raise LedgerInvariantError("an example's budget went negative")
        self.z[indices] = z

    def remaining(self, index: int) -> float:
        if self.unlimited[index]:
            return math.inf
        return float(self.z[index])


def oracle_compose(records: list[ChargeRecord]) -> dict[int, float]:
    """Independent audit: total spend per example, recomputed from scratch.

    Deliberately naive (one full pass over the records per example) and
    accumulated with math.fsum so it shares no code path — and no float
    rounding schedule — with the engine's incremental ledger updates.
    """
    examples = sorted({r.example for r in records})
    return {
        i: math.fsum(
            r.count_charge + r.label_charge for r in records if r.example == i
        )
        for i in examples
    }
