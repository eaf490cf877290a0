"""Spec parsing, experiment runs, reports, and the two-stage sweep."""

import hashlib
import json

import numpy as np
import pytest

from dpknn import (
    MetricsReport,
    NoiseSource,
    SpecError,
    parse_spec,
    run_experiment,
    sweep,
    write_features,
    write_labels,
)
from dpknn import experiment

EMPTY_SHA = hashlib.sha256().hexdigest()


def spec_doc(**overrides):
    doc = {
        "schema": "dpknn-experiment/1",
        "mode": "exact",
        "seed": 3,
        "runs": 1,
        "queries": 10,
        "engine": {"weight_threshold": 0.5, "sigma_vote": 0.3, "budget": 8.0},
        "data": {"synthetic": {"classes": 3, "size": 90, "dim": 8,
                               "separation": 1.5, "spread": 0.05, "queries": 45}},
    }
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


# -- parsing ---------------------------------------------------------------------


def test_parse_accepts_minimal_spec():
    spec = parse_spec(spec_doc())
    assert spec.mode == "exact"
    assert spec.seed == 3
    assert spec.kernel.kind == "cosine"
    assert spec.count_floor == 30.0
    assert spec.reuse is False


@pytest.mark.parametrize("doc,match", [
    ({"schema": "bogus/9"}, "unsupported spec schema"),
    (spec_doc(schema=None), "unsupported spec schema"),
    (spec_doc(mode="fast"), "mode must be one of"),
    (spec_doc(engine=None), "missing its 'engine'"),
    (spec_doc(runs=0), "runs must be"),
    (spec_doc(mode="baseline"), "baseline mode needs a 'baseline'"),
    (spec_doc(mode="hashed"), "hashed mode needs an 'index'"),
    (spec_doc(mutations=[{"op": "rename", "at": 1}]), "mutation op"),
    (spec_doc(mutations=[{"op": "remove", "index": 0}]), "nonnegative 'at'"),
    (spec_doc(mutations=[{"op": "remove", "index": 0, "at": None}]), "nonnegative 'at'"),
    (spec_doc(mutations=["remove"]), "mutation op"),
    (spec_doc(data={"synthetic": [3, 60]}), "data section 'synthetic' must be a JSON object"),
    (spec_doc(mode="baseline", baseline=[5, 2.0]), "section 'baseline' must be a JSON object"),
    (spec_doc(sweep="fine"), "section 'sweep' must be a JSON object"),
])
def test_parse_rejects_malformed_specs(doc, match):
    with pytest.raises(SpecError, match=match):
        parse_spec(doc)


def test_parse_rejects_engine_contradictions():
    doc = spec_doc()
    doc["engine"]["epsilon"] = 1.0
    doc["engine"]["delta"] = 1e-5
    # both a budget and a dp target
    with pytest.raises(SpecError, match="invalid spec"):
        parse_spec(doc)
    doc = spec_doc()
    del doc["engine"]["budget"]
    with pytest.raises(SpecError, match="invalid spec"):
        parse_spec(doc)


def test_baseline_mode_needs_dp_target():
    doc = spec_doc(mode="baseline", baseline={"k": 5, "sigma": 2.0})
    with pytest.raises(SpecError, match="epsilon, delta"):
        parse_spec(doc)


def test_spec_with_dp_target_resolves_budget():
    doc = spec_doc()
    doc["engine"] = {"weight_threshold": 0.5, "sigma_vote": 0.3,
                     "epsilon": 1.0, "delta": 1e-5}
    spec = parse_spec(doc)
    assert spec.dp is not None
    assert spec.engine_config().per_example_budget < 0.1


# -- runs and reports ----------------------------------------------------------------


def test_zero_query_run_is_null():
    report = run_experiment(spec_doc(queries=0))
    doc = report.document
    assert doc["median_accuracy"] is None
    assert doc["per_run_accuracy"] == [None]
    assert doc["spend"]["median"] == 0.0
    assert doc["spend"]["median_remaining"] == 8.0
    assert doc["answers_sha256"] == EMPTY_SHA
    assert doc["epsilon_target"] is None  # budget-specified spec has no dp target


def test_report_embeds_spec_and_seed_verbatim():
    doc = spec_doc(queries=5)
    report = run_experiment(doc)
    assert report.document["spec"] == doc
    assert report.document["seed"] == 3
    assert report.document["schema"] == "dpknn-report/1"


def test_report_bytes_are_deterministic(tmp_path):
    doc = spec_doc(queries=8, runs=2)
    first = run_experiment(doc, out=tmp_path / "a.json")
    second = run_experiment(doc, out=tmp_path / "b.json")
    assert first.to_json() == second.to_json()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    # timing lives out of band and may differ between the two runs
    assert (tmp_path / "a.json.timing.json").exists()
    timing = json.loads((tmp_path / "a.json.timing.json").read_text())
    assert len(timing["per_run"]) == 2
    assert "timing" not in json.dumps(first.document)


def test_different_seed_changes_answers():
    a = run_experiment(spec_doc(queries=12))
    b = run_experiment(spec_doc(queries=12, seed=4))
    assert a.document["answers_sha256"] != b.document["answers_sha256"]


def test_accuracy_and_spend_bookkeeping():
    report = run_experiment(spec_doc(queries=20, runs=3))
    doc = report.document
    assert len(doc["per_run_accuracy"]) == 3
    assert doc["median_accuracy"] >= 0.8
    assert doc["spend"]["median"] >= 0.0
    assert doc["spend"]["median_remaining"] == pytest.approx(
        8.0 - doc["spend"]["median"])
    hist = doc["spend"]["histogram"]
    assert sum(hist["counts"]) == 3 * 90  # every private example, every run
    assert all(0.0 <= f <= 1.0 for f in doc["per_run_retired_fraction"])


def test_epsilon_round_trip_in_report():
    doc = spec_doc()
    doc["engine"] = {"weight_threshold": 0.5, "sigma_vote": 0.3,
                     "epsilon": 1.0, "delta": 1e-5}
    report = run_experiment(doc)
    got = report.document
    assert got["epsilon_target"] == 1.0
    assert got["epsilon_converted"] <= 1.0 + 1e-9
    assert got["epsilon_converted"] == pytest.approx(1.0, abs=1e-6)


def test_query_pool_exhaustion_is_an_error():
    with pytest.raises(SpecError, match="pool holds"):
        run_experiment(spec_doc(queries=46))


def test_hashed_mode_runs_and_is_deterministic():
    doc = spec_doc(mode="hashed", queries=10, index={"tables": 6, "bits": 3})
    a = run_experiment(doc)
    b = run_experiment(doc)
    assert a.document["mode"] == "hashed"
    assert a.document["answers_sha256"] == b.document["answers_sha256"]


def test_baseline_mode_reports_crossover():
    doc = spec_doc(mode="baseline", queries=15,
                   baseline={"k": 7, "sigma": 2.0})
    doc["engine"] = {"weight_threshold": 0.5, "sigma_vote": 0.3,
                     "epsilon": 1.0, "delta": 1e-5}
    report = run_experiment(doc)
    got = report.document["baseline"]
    assert got["k"] == 7
    assert got["epsilon_at_horizon"] > 1.0
    assert 1 <= got["crossover_queries"] <= 15
    assert report.document["median_accuracy"] is not None


def test_file_backed_data(tmp_path):
    gen = np.random.default_rng(9)
    feats = gen.standard_normal((40, 6))
    write_features(tmp_path / "x.ikn", feats)
    write_labels(tmp_path / "y.ikl", np.arange(40) % 3, num_classes=3)
    write_features(tmp_path / "q.ikn", gen.standard_normal((10, 6)))
    doc = spec_doc(queries=6)
    doc["data"] = {"features": str(tmp_path / "x.ikn"),
                   "labels": str(tmp_path / "y.ikl"),
                   "queries": str(tmp_path / "q.ikn")}
    report = run_experiment(doc)
    assert report.document["median_accuracy"] is None  # no query labels given
    assert report.document["spend"]["max"] > 0.0


def test_file_backed_data_requires_queries(tmp_path):
    write_features(tmp_path / "x.ikn", np.eye(4))
    write_labels(tmp_path / "y.ikl", [0, 1, 0, 1], num_classes=2)
    doc = spec_doc()
    doc["data"] = {"features": str(tmp_path / "x.ikn"), "labels": str(tmp_path / "y.ikl")}
    with pytest.raises(SpecError, match="queries"):
        run_experiment(doc)


# -- scripted mutations ----------------------------------------------------------------


def test_scripted_mutations_run_deterministically():
    doc = spec_doc(queries=8, mutations=[
        {"op": "remove", "index": 0, "at": 2},
        {"op": "remove", "index": 5, "at": 2},
        {"op": "add", "at": 4},
        {"op": "add", "at": 6, "features": [1.0] + [0.0] * 7, "label": 1},
    ])
    a = run_experiment(doc)
    b = run_experiment(doc)
    assert a.document["answers_sha256"] == b.document["answers_sha256"]
    # two rows left the ledger, two fresh ones joined
    assert sum(a.document["spend"]["histogram"]["counts"]) == 90


def test_mutation_remove_of_dead_row_fails_loudly():
    doc = spec_doc(queries=5, mutations=[
        {"op": "remove", "index": 2, "at": 0},
        {"op": "remove", "index": 2, "at": 1},
    ])
    with pytest.raises(SpecError, match="no live example"):
        run_experiment(doc)


# -- sweep -------------------------------------------------------------------------------


def sweep_doc(**overrides):
    doc = spec_doc(queries=24, **overrides)
    doc["sweep"] = {"sigma_grid": [0.2, 0.4], "threshold_grid": [0.05, 0.1],
                    "validation_queries": 24}
    return doc


def test_sweep_reports_stage_one_and_cells():
    result = sweep(sweep_doc())
    assert result["schema"] == "dpknn-sweep/1"
    scan = result["stage_one"]["scan"]
    assert [cell["weight_threshold"] for cell in scan] == [0.05, 0.1]
    # well-separated data: both thresholds are perfect, ties go to the larger
    assert scan[0]["accuracy"] == scan[1]["accuracy"] == 1.0
    assert result["stage_one"]["best_threshold"] == 0.1
    cells = result["results"]["None"]["cells"]
    assert len(cells) == 2 * len({0.05, 0.1, 0.15})
    best = result["results"]["None"]["best"]
    top = max(cell["accuracy"] for cell in cells)
    assert best["accuracy"] == top
    # ties prefer the larger noise scale
    contenders = [c for c in cells if c["accuracy"] == top]
    assert best["sigma_vote"] == max(c["sigma_vote"] for c in contenders)


def test_sweep_cells_closer_than_a_thousandth_draw_different_noise(monkeypatch):
    tapes = []

    class Recording(NoiseSource):
        def __init__(self, seed):
            super().__init__(seed)
            tapes.append(NoiseSource(seed).standard_normal(16).tolist())

    monkeypatch.setattr(experiment, "NoiseSource", Recording)
    doc = sweep_doc()
    doc["sweep"]["sigma_grid"] = [0.569, 0.5695]  # int(1000 * sigma) is 569 for both
    result = sweep(doc)
    assert len(tapes) == len(result["results"]["None"]["cells"]) == 6
    assert len({tuple(tape) for tape in tapes}) == len(tapes)


def test_sweep_over_multiple_epsilons():
    doc = sweep_doc()
    doc["engine"] = {"weight_threshold": 0.5, "sigma_vote": 0.3,
                     "epsilon": 1.0, "delta": 1e-5}
    result = sweep(doc, epsilons=[0.5, 1.0])
    assert set(result["results"]) == {"0.5", "1.0"}
    for eps in ("0.5", "1.0"):
        assert 0.0 <= result["results"][eps]["best"]["accuracy"] <= 1.0


def test_sweep_rejects_baseline_mode():
    doc = sweep_doc(mode="baseline", baseline={"k": 3, "sigma": 1.0})
    doc["engine"] = {"weight_threshold": 0.5, "sigma_vote": 0.3,
                     "epsilon": 1.0, "delta": 1e-5}
    with pytest.raises(SpecError, match="baseline"):
        sweep(doc)


def test_sweep_needs_labeled_queries(tmp_path):
    gen = np.random.default_rng(1)
    write_features(tmp_path / "x.ikn", gen.standard_normal((20, 6)))
    write_labels(tmp_path / "y.ikl", np.arange(20) % 3, num_classes=3)
    write_features(tmp_path / "q.ikn", gen.standard_normal((8, 6)))
    doc = sweep_doc()
    doc["data"] = {"features": str(tmp_path / "x.ikn"),
                   "labels": str(tmp_path / "y.ikl"),
                   "queries": str(tmp_path / "q.ikn")}
    with pytest.raises(SpecError, match="labeled queries"):
        sweep(doc)


def test_metrics_report_write_creates_sidecar(tmp_path):
    report = MetricsReport({"schema": "dpknn-report/1", "x": 1}, {"per_run": []})
    report.write(tmp_path / "r.json")
    assert json.loads((tmp_path / "r.json").read_text())["x"] == 1
    assert json.loads((tmp_path / "r.json.timing.json").read_text()) == {"per_run": []}
