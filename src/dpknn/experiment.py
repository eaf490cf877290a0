"""Experiment orchestration: spec parsing, runs, sweeps, and reports.

A spec is a versioned JSON document (``dpknn-experiment/1``) naming the data
source (synthetic parameters or dataset files), the engine settings, the mode
(exact / hashed / baseline), how many runs to aggregate, and optional scripted
mid-stream mutations.  Reports echo the spec and seed verbatim so any run can
be replayed exactly; everything in the report is a deterministic function of
(spec, seed).  Wall-clock latency statistics are therefore written to a
separate ``<out>.timing.json`` sidecar, never into the report itself.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .accounting import DpParams, rdp_to_dp
from .baseline import NaiveKnnConfig, naive_knn_accounting, naive_knn_predict
from .data import (
    DEFAULT_SEPARATION,
    DEFAULT_SPREAD,
    generate_synthetic,
    load_features,
    load_labels,
    _sample_points,
)
from .engine import (
    DEFAULT_COUNT_FLOOR,
    EngineConfig,
    ExampleStore,
    answer_query,
)
from .kernels import KernelSpec, normalize_rows
from .lsh import LshIndex, answer_query_hashed, build_index
from .mechanisms import NoiseSource

SPEC_SCHEMA = "dpknn-experiment/1"
REPORT_SCHEMA = "dpknn-report/1"

MODES = ("exact", "hashed", "baseline")

SWEEP_THRESHOLD_GRID = [round(0.05 * k, 2) for k in range(1, 20)]  # 0.05 .. 0.95
SWEEP_SIGMA_GRID = [round(0.1 * k, 1) for k in range(1, 10)]  # 0.1 .. 0.9


class SpecError(ValueError):
    """An experiment spec is malformed or internally inconsistent."""


@dataclass
class ExperimentSpec:
    """Validated form of one experiment config document."""

    raw: dict
    mode: str
    seed: int
    runs: int
    queries: int
    reuse: bool
    kernel: KernelSpec
    weight_threshold: float
    sigma_vote: float
    sigma_count: float | None
    count_floor: float
    dp: DpParams | None
    budget: float | None
    data: dict
    index: dict | None = None
    baseline: NaiveKnnConfig | None = None
    mutations: list[dict] = field(default_factory=list)
    sweep: dict | None = None

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            kernel=self.kernel,
            weight_threshold=self.weight_threshold,
            sigma_vote=self.sigma_vote,
            planned_queries=self.queries,
            dp=self.dp,
            budget=self.budget,
            sigma_count=self.sigma_count,
            reuse_predictions=self.reuse,
            count_floor=self.count_floor,
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _section(document: dict, key: str, where: str = "spec"):
    """``document[key]``, which must be a JSON object when present; None when absent."""
    if key not in document:
        return None
    value = document[key]
    if not isinstance(value, dict):
        raise SpecError(
            f"{where} section '{key}' must be a JSON object, got {type(value).__name__}")
    return value


def parse_spec(document: dict) -> ExperimentSpec:
    if not isinstance(document, dict):
        raise SpecError(f"spec must be a JSON object, got {type(document).__name__}")
    schema = document.get("schema")
    if schema != SPEC_SCHEMA:
        raise SpecError(f"unsupported spec schema {schema!r}, expected {SPEC_SCHEMA!r}")
    mode = document.get("mode", "exact")
    if mode not in MODES:
        raise SpecError(f"mode must be one of {MODES}, got {mode!r}")
    engine = document.get("engine")
    if not isinstance(engine, dict):
        raise SpecError("spec is missing its 'engine' section")
    kernel_doc = _section(engine, "kernel", "engine") or {}
    data = _section(document, "data") or {}
    _section(data, "synthetic", "data")
    baseline = _section(document, "baseline")
    try:
        kernel = KernelSpec(kernel_doc.get("kind", "cosine"), kernel_doc.get("bandwidth"))
        dp = None
        if "epsilon" in engine or "delta" in engine:
            dp = DpParams(engine["epsilon"], engine["delta"])
        spec = ExperimentSpec(
            raw=copy.deepcopy(document),
            mode=mode,
            seed=int(document.get("seed", 0)),
            runs=int(document.get("runs", 1)),
            queries=int(document.get("queries", 0)),
            reuse=bool(document.get("reuse", False)),
            kernel=kernel,
            weight_threshold=float(engine["weight_threshold"]),
            sigma_vote=float(engine["sigma_vote"]),
            sigma_count=(None if engine.get("sigma_count") is None else float(engine["sigma_count"])),
            count_floor=float(engine.get("count_floor", DEFAULT_COUNT_FLOOR)),
            dp=dp,
            budget=(None if engine.get("budget") is None else float(engine["budget"])),
            data=data,
            index=_section(document, "index"),
            baseline=(
                NaiveKnnConfig(int(baseline["k"]), float(baseline["sigma"]))
                if baseline is not None
                else None
            ),
            mutations=list(document.get("mutations", [])),
            sweep=_section(document, "sweep"),
        )
        spec.engine_config()  # validate the engine settings eagerly
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"invalid spec: {exc}") from exc
    if spec.runs < 1:
        raise SpecError(f"runs must be >= 1, got {spec.runs}")
    if spec.mode == "baseline" and spec.baseline is None:
        raise SpecError("baseline mode needs a 'baseline' section with k and sigma")
    if spec.mode == "baseline" and spec.dp is None:
        raise SpecError("baseline mode needs an (epsilon, delta) target for its accountant")
    if spec.mode == "hashed" and not (
        isinstance(spec.index, dict) and all(_is_int(spec.index.get(k)) for k in ("tables", "bits"))
    ):
        raise SpecError("hashed mode needs an 'index' section with integer tables and bits")
    for event in spec.mutations:
        if not isinstance(event, dict) or event.get("op") not in ("add", "remove"):
            raise SpecError(f"mutation op must be 'add' or 'remove', got {event!r}")
        if not _is_int(event.get("at")) or event["at"] < 0:
            raise SpecError(f"mutation event needs a nonnegative 'at' query index (an integer): {event}")
        if event["op"] == "remove" and not _is_int(event.get("index")):
            raise SpecError(f"a 'remove' event needs an integer 'index': {event}")
        if event["op"] == "add" and "features" in event and not _is_int(event.get("label")):
            raise SpecError(f"an 'add' event with 'features' needs an integer 'label': {event}")
    return spec


@dataclass
class LoadedData:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    query_features: np.ndarray
    query_labels: np.ndarray | None
    means: np.ndarray | None = None
    spread: float = DEFAULT_SPREAD


def load_spec_data(spec: ExperimentSpec) -> LoadedData:
    data = spec.data
    if "synthetic" in data:
        syn = data["synthetic"]
        generated = generate_synthetic(
            num_classes=int(syn.get("classes", 3)),
            size=int(syn.get("size", 6000)),
            dim=int(syn.get("dim", 16)),
            separation=float(syn.get("separation", DEFAULT_SEPARATION)),
            spread=float(syn.get("spread", DEFAULT_SPREAD)),
            num_queries=int(syn.get("queries", 2400)),
            seed=[spec.seed, 7],
        )
        return LoadedData(
            generated.features,
            generated.labels,
            generated.means.shape[0],
            generated.query_features,
            generated.query_labels,
            means=generated.means,
            spread=float(syn.get("spread", DEFAULT_SPREAD)),
        )
    if "features" in data and "labels" in data:
        feats = load_features(data["features"])
        labels, num_classes = load_labels(data["labels"], data.get("num_classes"))
        if "queries" not in data:
            raise SpecError("file-backed data needs a 'queries' feature file")
        queries = normalize_rows(load_features(data["queries"]))
        qlabels = None
        if "query_labels" in data:
            qlabels, _ = load_labels(data["query_labels"], num_classes)
        return LoadedData(feats, labels, num_classes, queries, qlabels)
    raise SpecError("data section must hold either 'synthetic' parameters or feature/label files")


# -- one run -----------------------------------------------------------------------


def _spare_pool(loaded: LoadedData, spec: ExperimentSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh labeled points for scripted 'add' events (synthetic data only)."""
    if loaded.means is None:
        raise SpecError("scripted 'add' events without inline features need synthetic data")
    labels = np.arange(count, dtype=np.int64) % loaded.num_classes
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([spec.seed, 11])))
    return _sample_points(loaded.means, labels, loaded.spread, gen), labels


def _run_stream(spec: ExperimentSpec, loaded: LoadedData, store: ExampleStore,
                queries: np.ndarray, run_seed, index: LshIndex | None):
    """Answer one run's queries in order, applying scripted mutations."""
    src = NoiseSource(np.random.SeedSequence([spec.seed, 23, run_seed]))
    events_at: dict[int, list[dict]] = {}
    inline_adds = sum(1 for e in spec.mutations if e["op"] == "add" and "features" not in e)
    spares = _spare_pool(loaded, spec, inline_adds) if inline_adds else None
    spare_next = 0
    for event in spec.mutations:
        events_at.setdefault(int(event["at"]), []).append(event)
    answers = []
    durations = []
    for t in range(queries.shape[0]):
        for event in events_at.get(t, ()):
            if event["op"] == "remove":
                try:
                    store.remove_example(int(event["index"]))
                except IndexError:
                    raise SpecError(f"mutation event {event} hits no live example") from None
            else:
                if "features" in event:
                    new = store.add_example(event["features"], int(event["label"]))
                else:
                    new = store.add_example(spares[0][spare_next], int(spares[1][spare_next]))
                    spare_next += 1
                if index is not None:
                    index.add(new)
        started = time.perf_counter()
        if index is not None:
            outcome = answer_query_hashed(store, index, queries[t], src)
        else:
            outcome = answer_query(store, queries[t], src)
        durations.append(time.perf_counter() - started)
        answers.append(outcome.answer)
    return np.asarray(answers, dtype=np.int64), durations


def _sample_queries(pool_size: int, count: int, seed_parts: list[int]) -> np.ndarray:
    if count > pool_size:
        raise SpecError(f"asked for {count} queries but the pool holds {pool_size}")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_parts)))
    return gen.choice(pool_size, size=count, replace=False)


def _latency_summary(durations: list[float]) -> dict:
    if not durations:
        return {"queries": 0}
    arr = np.asarray(durations)
    return {
        "queries": int(arr.shape[0]),
        "mean_s": float(arr.mean()),
        "median_s": float(np.median(arr)),
        "p95_s": float(np.quantile(arr, 0.95)),
        "max_s": float(arr.max()),
    }


@dataclass
class MetricsReport:
    """Deterministic summary of an experiment, plus out-of-band timing."""

    document: dict
    timing: dict

    def to_json(self) -> str:
        return json.dumps(self.document, indent=2, sort_keys=True) + "\n"

    def write(self, out) -> None:
        out = Path(out)
        out.write_text(self.to_json())
        out.with_name(out.name + ".timing.json").write_text(
            json.dumps(self.timing, indent=2, sort_keys=True) + "\n"
        )


def run_experiment(document: dict | ExperimentSpec, out=None) -> MetricsReport:
    """Execute a spec: R runs over freshly sampled queries, aggregated."""
    spec = document if isinstance(document, ExperimentSpec) else parse_spec(document)
    loaded = load_spec_data(spec)
    pool = loaded.query_features.shape[0]

    per_run_accuracy: list[float | None] = []
    per_run_retired: list[float] = []
    answer_digest = hashlib.sha256()
    spends: list[np.ndarray] = []
    timing_runs = []
    budget = spec.engine_config().per_example_budget

    baseline_doc = None
    for run in range(spec.runs):
        chosen = _sample_queries(pool, spec.queries, [spec.seed, 31, run])
        queries = loaded.query_features[chosen]
        truth = None if loaded.query_labels is None else loaded.query_labels[chosen]

        if spec.mode == "baseline":
            store = ExampleStore(loaded.features, loaded.labels, loaded.num_classes, spec.engine_config())
            src = NoiseSource(np.random.SeedSequence([spec.seed, 23, run]))
            started = time.perf_counter()
            answers = np.asarray(
                [naive_knn_predict(store, q, spec.baseline, src) for q in queries],
                dtype=np.int64,
            )
            durations = [(time.perf_counter() - started) / max(len(queries), 1)]
            retired = 0.0
            final_spend = np.zeros(0)
        else:
            config = spec.engine_config()
            store = ExampleStore(loaded.features, loaded.labels, loaded.num_classes, config)
            index = None
            if spec.mode == "hashed":
                index = build_index(
                    store, int(spec.index["tables"]), int(spec.index["bits"]),
                    int(spec.index.get("seed", spec.seed)),
                )
            answers, durations = _run_stream(spec, loaded, store, queries, run, index)
            remaining = store.private_remaining()
            final_spend = budget - remaining
            retired = float(np.mean(remaining < config.count_charge)) if remaining.size else 0.0

        answer_digest.update(answers.tobytes())
        spends.append(final_spend)
        per_run_retired.append(retired)
        timing_runs.append(_latency_summary(durations))
        if truth is None or spec.queries == 0:
            per_run_accuracy.append(None)
        else:
            per_run_accuracy.append(float(np.mean(answers == truth)))

    if spec.mode == "baseline":
        target = spec.dp.epsilon
        horizon = max(spec.queries, 1)
        crossover = None
        for t in range(1, horizon + 1):
            if naive_knn_accounting(t, spec.baseline.sigma, spec.dp.delta) > target:
                crossover = t
                break
        baseline_doc = {
            "k": spec.baseline.k,
            "sigma": spec.baseline.sigma,
            "epsilon_at_horizon": naive_knn_accounting(horizon, spec.baseline.sigma, spec.dp.delta),
            "crossover_queries": crossover,
        }

    accuracies = [a for a in per_run_accuracy if a is not None]
    pooled = np.concatenate(spends) if spends else np.zeros(0)
    if pooled.size:
        edges = np.linspace(0.0, budget, 11)
        counts, _ = np.histogram(pooled, bins=edges)
        spend_doc = {
            "median": float(np.median(pooled)),
            "max": float(pooled.max()),
            "median_remaining": float(budget - np.median(pooled)),
            "histogram": {"edges": edges.tolist(), "counts": counts.tolist()},
        }
    else:
        spend_doc = {"median": 0.0, "max": 0.0, "median_remaining": budget, "histogram": None}

    converted = None if spec.dp is None else rdp_to_dp(budget, spec.dp.delta)
    if converted is not None and converted > spec.dp.epsilon + 1e-9:
        raise RuntimeError(
            f"converted epsilon {converted} exceeds the configured target {spec.dp.epsilon}"
        )
    report_doc = {
        "schema": REPORT_SCHEMA,
        "spec": spec.raw,
        "seed": spec.seed,
        "mode": spec.mode,
        "runs": spec.runs,
        "queries": spec.queries,
        "per_run_accuracy": per_run_accuracy,
        "median_accuracy": (float(np.median(accuracies)) if accuracies else None),
        "per_run_retired_fraction": per_run_retired,
        "per_example_budget": budget,
        "epsilon_target": (None if spec.dp is None else spec.dp.epsilon),
        "delta": (None if spec.dp is None else spec.dp.delta),
        "epsilon_converted": converted,
        "spend": spend_doc,
        "baseline": baseline_doc,
        "answers_sha256": answer_digest.hexdigest(),
    }
    report = MetricsReport(report_doc, {"per_run": timing_runs})
    if out is not None:
        report.write(out)
    return report


# -- hyper-parameter sweep -----------------------------------------------------------


def _stage_one(spec: ExperimentSpec, loaded: LoadedData, val_queries, val_truth,
               grid: list[float]):
    """Noiseless threshold-vote accuracy for each candidate threshold."""
    config = spec.engine_config()
    store = ExampleStore(loaded.features, loaded.labels, loaded.num_classes, config)
    from .kernels import kernel_weights  # local import keeps module top tidy

    scan = []
    weights = np.stack([kernel_weights(config.kernel, store.features, q) for q in val_queries])
    labels = store.labels
    for tau in grid:
        votes = np.stack(
            [
                np.bincount(labels, weights=np.where(w >= tau, w, 0.0), minlength=store.num_classes)
                for w in weights
            ]
        )
        predictions = np.argmax(votes, axis=1)
        scan.append({"weight_threshold": tau, "accuracy": float(np.mean(predictions == val_truth))})
    best = max(scan, key=lambda cell: (cell["accuracy"], cell["weight_threshold"]))
    return best["weight_threshold"], scan


def sweep(document: dict | ExperimentSpec, epsilons: list[float] | None = None) -> dict:
    """Two-stage (sigma_vote, weight_threshold) search on validation queries.

    Stage one scans thresholds non-privately over the collected kernel
    weights; stage two runs the private engine over a joint grid of vote-noise
    scales and the three thresholds around the stage-one winner, picking the
    best validation accuracy with ties to the larger noise scale.
    """
    spec = document if isinstance(document, ExperimentSpec) else parse_spec(document)
    if spec.mode == "baseline":
        raise SpecError("sweep applies to the private engine, not baseline mode")
    loaded = load_spec_data(spec)
    if loaded.query_labels is None:
        raise SpecError("sweep needs labeled queries for validation accuracy")
    sweep_doc = spec.sweep or {}
    sigma_grid = [float(s) for s in sweep_doc.get("sigma_grid", SWEEP_SIGMA_GRID)]
    threshold_grid = [float(t) for t in sweep_doc.get("threshold_grid", SWEEP_THRESHOLD_GRID)]
    if not sigma_grid or not threshold_grid:
        raise SpecError("sweep grids must be nonempty")
    val_count = int(sweep_doc.get("validation_queries", spec.queries or 100))
    chosen = _sample_queries(loaded.query_features.shape[0], val_count, [spec.seed, 41])
    val_queries = loaded.query_features[chosen]
    val_truth = loaded.query_labels[chosen]

    if epsilons is None:
        epsilons = [spec.dp.epsilon] if spec.dp is not None else [None]

    results = {}
    tau_star, scan = _stage_one(spec, loaded, val_queries, val_truth, threshold_grid)
    for eps in epsilons:
        cells = []
        neighborhood = sorted(
            {min(max(round(tau_star + off, 10), 0.0), 1.0) for off in (-0.05, 0.0, 0.05)}
        )
        for i, sigma in enumerate(sigma_grid):
            for j, tau in enumerate(neighborhood):
                cell_spec = copy.deepcopy(spec.raw)
                if eps is not None:
                    cell_spec["engine"]["epsilon"] = eps
                cell_spec["engine"]["sigma_vote"] = sigma
                cell_spec["engine"]["weight_threshold"] = tau
                cell_spec["queries"] = val_count
                parsed = parse_spec(cell_spec)
                store = ExampleStore(
                    loaded.features, loaded.labels, loaded.num_classes, parsed.engine_config()
                )
                # Seeded by grid position: grid values closer than any rounding step still differ.
                src = NoiseSource(np.random.SeedSequence([spec.seed, 53, i, j]))
                answers = np.asarray(
                    [answer_query(store, q, src).answer for q in val_queries], dtype=np.int64
                )
                cells.append(
                    {
                        "sigma_vote": sigma,
                        "weight_threshold": tau,
                        "accuracy": float(np.mean(answers == val_truth)),
                    }
                )
        best = max(cells, key=lambda c: (c["accuracy"], c["sigma_vote"], c["weight_threshold"]))
        results[str(eps)] = {"best": best, "cells": cells}
    return {
        "schema": "dpknn-sweep/1",
        "stage_one": {"best_threshold": tau_star, "scan": scan},
        "validation_queries": val_count,
        "results": results,
    }
