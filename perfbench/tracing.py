"""Spans around the calls into each query-path layer, recorded from outside the package.

The traced run replaces each function below, at the name its caller
resolves, with a wrapper that records a span: name, start, end, parent span
and query id.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the durations of its direct
children.  Nothing here runs in the timed (untraced) run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from dpknn import engine, lsh
from dpknn.accounting import IndividualLedger
from dpknn.engine import ExampleStore
from dpknn.kernels import kernel_weights
from dpknn.lsh import LshIndex

# (span name, owner, attribute).  answer_query is wrapped in both modules
# because lsh imports the name.
TARGETS = (
    ("engine.answer_query", engine, "answer_query"),
    ("engine.answer_query", lsh, "answer_query"),
    ("engine.select_neighbors", engine, "select_neighbors"),
    ("engine.add_example", ExampleStore, "add_example"),
    ("kernels.kernel_weights", engine, "kernel_weights"),
    ("accounting.spend", IndividualLedger, "spend"),
    ("accounting.active_mask", IndividualLedger, "active_mask"),
    ("accounting.append", IndividualLedger, "append"),
    ("mechanisms.noisy_count", engine, "noisy_count"),
    ("mechanisms.noisy_argmax", engine, "noisy_argmax"),
    ("lsh.retrieve", LshIndex, "retrieve"),
    ("lsh.add", LshIndex, "add"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


class TraceError(RuntimeError):
    """A name the traced run wraps does not exist."""


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (query id, span id, parent id, name, start ns, end ns)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.query_id = -1
        self.enabled = True
        self.rows = 0  # kernel rows scanned
        self.dim = 0
        self.candidates = 0  # rows returned by lsh.retrieve
        self.last_candidates = None
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0

    def _observe(self, name, args, result):
        if name == "kernels.kernel_weights":
            features = args[1]
            self.rows += features.shape[0]
            self.dim = features.shape[1]
        elif name == "lsh.retrieve":
            self.candidates += result.shape[0]
            self.last_candidates = result

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0]
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                duration = end - start
                tracer.self_ns[name] += duration - frame[1]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append(
                    (tracer.query_id, span_id, -1 if parent is None else parent[0], name, start, end))
            tracer._observe(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block; restore them after."""
        originals = []
        for name, owner, attr in TARGETS:
            fn = vars(owner).get(attr)
            if not callable(fn):
                raise TraceError(f"cannot trace {name}: {owner.__name__}.{attr} does not exist")
            originals.append((owner, attr, fn))
        try:
            for (name, _, _), (owner, attr, fn) in zip(TARGETS, originals):
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    @contextmanager
    def paused(self):
        """Calls made by the benchmark itself between queries record no span."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("query_id,span_id,parent_id,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


class LayerCounts:
    """Per-query counts taken between queries, outside the timed call."""

    def __init__(self, tracer, hashed):
        self.tracer = tracer
        self.hashed = hashed
        self.eligible = 0
        self.retired = 0
        self.selected = 0
        self.charges = 0
        self.draws = 0
        self.above = 0  # above-threshold eligible rows an exhaustive scan finds
        self.found = 0  # ... of which the index returned as candidates
        self._before = None

    def _eligible(self, store):
        cfg = store.config
        with self.tracer.paused():
            mask = store.alive & store.ledger.active_mask(cfg.count_charge)
        return mask, int((mask & ~store.public).sum())

    def before(self, unit, q):
        store = unit.store
        mask, private = self._eligible(store)
        self.eligible += int(mask.sum())
        self._before = (private, unit.src.draws)
        self.tracer.query_id += 1
        if self.hashed:
            self.tracer.last_candidates = None
            weights = kernel_weights(store.config.kernel, store.features, q)
            self._above = np.flatnonzero(mask & (weights >= store.config.weight_threshold))

    def after(self, unit, out):
        private, draws = self._before
        self.retired += private - self._eligible(unit.store)[1]
        self.draws += unit.src.draws - draws
        self.selected += out.selected.shape[0]
        self.charges += len(out.charges)
        if self.hashed:
            self.above += self._above.shape[0]
            candidates = self.tracer.last_candidates
            if candidates is not None:
                self.found += int(np.isin(self._above, candidates).sum())
