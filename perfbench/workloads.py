"""Workloads, the benchmark's own input generator, and the closed-loop query stream.

A workload is a stream of *units*.  Unit k is a fresh store built from
dataset k mod ``datasets``, with its own noise seed; it answers its
STREAM_LENGTH queries strictly in order, one caller waiting for each answer,
and then the next unit starts.  Every input is derived from the
benchmark seed through Philox streams owned here, never through
``dpknn.generate_synthetic``, so an edit to the package's data module cannot
move a workload.

Every unit is checked after its last query, outside the timed region:

* no private ledger entry is below -1e-9;
* each private entry equals B minus its spend, recomputed here from the
  released charge trail with one vectorized sum;
* no charge names a public (reused) example;
* every query drew exactly 1 + C standard normals.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from dpknn import engine, lsh
from dpknn.accounting import DpParams
from dpknn.engine import EngineConfig, ExampleStore
from dpknn.kernels import KernelSpec
from dpknn.mechanisms import NoiseSource

EPSILON, DELTA = 1.0, 1e-5
TABLES, BITS = 30, 8
LEDGER_FLOOR = -1e-9
LEDGER_TOLERANCE = 1e-9
GENERATION_CHUNK = 8192  # rows drawn at a time, so generation never dominates peak memory
# Queries one store answers before a fresh one is built; also the planned T.
# At epsilon=1 most paper-setting examples retire within 300 queries, and a
# run that restarts stores times the same positions in a store's life however
# fast the machine is at the moment.
STREAM_LENGTH = 300

# spawn_key tags that keep the benchmark's random streams apart
_DATA, _NOISE, _INDEX = 0, 1, 2


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    dim: int
    classes: int
    clusters_per_class: int
    spread: float  # norm of the Gaussian scatter added to a unit cluster center
    threshold: float
    sigma_vote: float
    datasets: int  # distinct datasets a run cycles through
    min_queries: int  # prefix every timed run answers: accuracy and digests cover it
    block_queries: int  # qps is the median over consecutive blocks of this many queries
    warmup_queries: int  # untimed replay of the stream's start, compared with the timed run
    hashed: bool = False
    reuse: bool = False


_LARGE = dict(size=100_000, dim=64, classes=20, clusters_per_class=5, spread=0.72,
              threshold=0.7, sigma_vote=0.5, datasets=1, block_queries=50, warmup_queries=60)

WORKLOADS = {
    w.name: w
    for w in (
        # The paper setting; its 0.77 MB feature matrix fits in L2.
        Workload("paper-exact", size=6000, dim=16, classes=3, clusters_per_class=1, spread=0.48,
                 threshold=0.85, sigma_vote=0.9, datasets=4, min_queries=1200, block_queries=300,
                 warmup_queries=300),
        # Exhaustive scan of a 51 MB feature matrix, far beyond L2.
        Workload("large-exact", min_queries=300, **_LARGE),
        # The same data through a 30-table x 8-bit sign-random-projection index.
        Workload("large-hashed", min_queries=600, hashed=True, **_LARGE),
        # The write path: every answer re-enters the store, ledger and index.
        Workload("hashed-reuse", min_queries=300, hashed=True, reuse=True, **_LARGE),
    )
}


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    queries: np.ndarray
    query_labels: np.ndarray


def _sample(gen: np.random.Generator, centers: np.ndarray, wl: Workload, n: int):
    cluster = gen.integers(0, centers.shape[0], n)
    points = np.empty((n, wl.dim))
    scale = wl.spread / np.sqrt(wl.dim)
    for lo in range(0, n, GENERATION_CHUNK):
        hi = min(n, lo + GENERATION_CHUNK)
        x = centers[cluster[lo:hi]] + scale * gen.standard_normal((hi - lo, wl.dim))
        points[lo:hi] = x / np.linalg.norm(x, axis=1, keepdims=True)
    return points, cluster // wl.clusters_per_class


def make_dataset(wl: Workload, seed: int, j: int) -> Dataset:
    """Clustered unit-sphere points: each class owns ``clusters_per_class`` random centers."""
    gen = _rng(seed, _DATA, j)
    centers = gen.standard_normal((wl.classes * wl.clusters_per_class, wl.dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    features, labels = _sample(gen, centers, wl, wl.size)
    queries, query_labels = _sample(gen, centers, wl, STREAM_LENGTH)
    return Dataset(features, labels, queries, query_labels)


@dataclass
class Unit:
    k: int
    data: Dataset
    store: ExampleStore
    index: lsh.LshIndex | None
    src: NoiseSource

    def answer(self, q):
        # Module attributes are looked up per call, so the traced run's wrappers apply.
        if self.index is None:
            return engine.answer_query(self.store, q, self.src)
        return lsh.answer_query_hashed(self.store, self.index, q, self.src)


class Stream:
    """Builds the units of one workload at one seed and times each build."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.config = EngineConfig(
            kernel=KernelSpec("cosine"), weight_threshold=wl.threshold, sigma_vote=wl.sigma_vote,
            planned_queries=STREAM_LENGTH, dp=DpParams(EPSILON, DELTA),
            reuse_predictions=wl.reuse,
        )
        self.index_seed = int(np.random.SeedSequence(seed, spawn_key=(_INDEX,)).generate_state(1)[0])
        self.datasets = [make_dataset(wl, seed, j) for j in range(wl.datasets)]
        self.setup_s: list[float] = []  # store construction plus index build, per unit
        self.build_s: list[float] = []  # index build alone, per unit

    def open(self, k: int) -> Unit:
        data = self.datasets[k % len(self.datasets)]
        t0 = time.perf_counter()
        store = ExampleStore(data.features, data.labels, self.wl.classes, self.config)
        t1 = time.perf_counter()
        index = lsh.build_index(store, TABLES, BITS, self.index_seed) if self.wl.hashed else None
        t2 = time.perf_counter()
        self.setup_s.append(t2 - t0)
        if index is not None:
            self.build_s.append(t2 - t1)
        src = NoiseSource(np.random.SeedSequence(self.seed, spawn_key=(_NOISE, k)))
        return Unit(k, data, store, index, src)


@dataclass
class RunResult:
    answers: list = field(default_factory=list)  # (answer, released count) per answered query
    correct: list = field(default_factory=list)  # answer == true label, per answered query
    latency_ns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    _ledgers: object = field(default_factory=hashlib.sha256)
    _sealed: bool = False

    def answers_digest(self, prefix: int | None = None) -> str:
        pairs = self.answers[:prefix]
        h = hashlib.sha256(np.array([a for a, _ in pairs], dtype=np.int64).tobytes())
        h.update(np.array([c for _, c in pairs], dtype=np.float64).tobytes())
        return h.hexdigest()

    def ledger_digest(self) -> str:
        return self._ledgers.hexdigest()

    def accuracy(self, prefix: int | None = None) -> float:
        return float(np.mean(self.correct[:prefix]))


def check_unit(unit: Unit, outcomes: list) -> list[str]:
    """Ledger checks for one finished unit; returns what failed."""
    store = unit.store
    problems = []
    examples = np.fromiter((r.example for o in outcomes for r in o.charges), dtype=np.int64)
    amounts = np.fromiter((r.count_charge + r.label_charge for o in outcomes for r in o.charges),
                          dtype=np.float64, count=examples.shape[0])
    spent = np.bincount(examples, weights=amounts, minlength=len(store.ledger))
    private = store.private_indices()
    remaining = store.private_remaining()
    if remaining.size and remaining.min() < LEDGER_FLOOR:
        problems.append(f"unit {unit.k}: ledger entry {remaining.min()!r} below {LEDGER_FLOOR}")
    expected = store.config.per_example_budget - spent[private]
    worst = float(np.max(np.abs(remaining - expected), initial=0.0))
    if worst > LEDGER_TOLERANCE:
        problems.append(f"unit {unit.k}: ledger differs from B minus the charge trail by {worst!r}")
    if np.any(spent[store.public] != 0.0):
        problems.append(f"unit {unit.k}: a public (reused) example was charged")
    return problems


def run(stream: Stream, *, stop, prefix: int | None = None, observer=None,
        first: Unit | None = None) -> RunResult:
    """Answer the stream from its start, strictly in order, until ``stop(result)``.

    The ledger digest covers every unit that ends within the first ``prefix``
    queries plus the ledger of the unit open when the prefix ends (all units
    when ``prefix`` is None).  ``observer`` (the traced run) is called around
    each query, outside the timed call.  ``first``, when given, is the stream's
    unit 0, built earlier.
    """
    res = RunResult()
    k = 0
    while not stop(res):
        unit = first if k == 0 and first is not None else stream.open(k)
        first = None
        draws_per_query = 1 + unit.store.num_classes
        outcomes = []
        for q, label in zip(unit.data.queries, unit.data.query_labels):
            if stop(res):
                break
            if observer is not None:
                observer.before(unit, q)
            draws = unit.src.draws
            res.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                out = unit.answer(q)
            except Exception as exc:  # a failed query is counted, and the run goes on
                res.failed += 1
                res.problems.append(f"unit {unit.k} query {len(outcomes)}: {exc!r}")
                continue
            finally:
                t1 = time.perf_counter_ns()
            res.latency_ns.append(t1 - t0)
            if observer is not None:
                observer.after(unit, out)
            outcomes.append(out)
            res.answers.append((out.answer, out.released_count))
            res.correct.append(out.answer == label)
            if unit.src.draws - draws != draws_per_query:
                res.problems.append(
                    f"unit {unit.k}: a query drew {unit.src.draws - draws} normals, not {draws_per_query}")
            if res.attempted == prefix:
                res._ledgers.update(unit.store.private_remaining().tobytes())
                res._sealed = True
        res.problems.extend(check_unit(unit, outcomes))
        if not res._sealed:
            res._ledgers.update(unit.store.private_remaining().tobytes())
        del unit, outcomes  # the next store is built only after this one is freed
        k += 1
    return res


def timed_until(seconds: float, min_queries: int):
    """Stop once ``seconds`` have passed and at least ``min_queries`` were attempted."""
    deadline = time.perf_counter() + seconds
    return lambda res: res.attempted >= min_queries and time.perf_counter() >= deadline


def count_of(n: int):
    return lambda res: res.attempted >= n
