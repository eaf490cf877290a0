"""End-to-end CLI checks through main(argv), using tiny datasets."""

import json

import pytest

from dpknn import budget_for_dp, DpParams, read_features, read_labels
from dpknn.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, **overrides):
    doc = {
        "schema": "dpknn-experiment/1",
        "seed": 1,
        "runs": 1,
        "queries": 8,
        "engine": {"weight_threshold": 0.5, "sigma_vote": 0.3, "budget": 6.0},
        "data": {"synthetic": {"classes": 3, "size": 60, "dim": 8,
                               "separation": 1.5, "spread": 0.05, "queries": 30}},
    }
    doc.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def test_synth_writes_all_four_files(tmp_path, capsys):
    prefix = tmp_path / "toy"
    code, out, _ = run_cli(capsys, "synth", "--classes", "3", "--size", "30",
                           "--dim", "8", "--queries", "12", "--seed", "5",
                           "--out", str(prefix))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["written"]) == 4
    feats = read_features(f"{prefix}.features.ikn")
    labels, c = read_labels(f"{prefix}.labels.ikl")
    assert feats.shape == (30, 8)
    assert labels.shape == (30,)
    assert c == 3
    queries = read_features(f"{prefix}.queries.ikn")
    qlabels, _ = read_labels(f"{prefix}.query_labels.ikl")
    assert queries.shape == (12, 8)
    assert qlabels.shape == (12,)


def test_run_prints_and_writes_report(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", "--config", str(spec), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "dpknn-report/1"
    assert json.loads(out_path.read_text()) == doc
    assert (tmp_path / "report.json.timing.json").exists()


def test_run_seed_override_changes_report(tmp_path, capsys):
    spec = write_spec(tmp_path)
    _, out_a, _ = run_cli(capsys, "run", "--config", str(spec))
    _, out_b, _ = run_cli(capsys, "run", "--config", str(spec), "--seed", "9")
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["seed"] == 1
    assert b["seed"] == 9
    assert a["answers_sha256"] != b["answers_sha256"]


def test_run_mode_and_reuse_overrides(tmp_path, capsys):
    spec = write_spec(tmp_path, index={"tables": 4, "bits": 3})
    code, out, _ = run_cli(capsys, "run", "--config", str(spec),
                           "--mode", "hashed", "--reuse", "on")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "hashed"
    assert doc["spec"]["reuse"] is True


def test_baseline_subcommand_forces_mode(tmp_path, capsys):
    spec = write_spec(tmp_path, baseline={"k": 5, "sigma": 2.0},
                      engine={"weight_threshold": 0.5, "sigma_vote": 0.3,
                              "epsilon": 1.0, "delta": 1e-5})
    code, out, _ = run_cli(capsys, "baseline", "--config", str(spec))
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "baseline"
    assert doc["baseline"]["crossover_queries"] is not None


def test_sweep_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path, sweep={"sigma_grid": [0.3], "threshold_grid": [0.1],
                                       "validation_queries": 10})
    out_path = tmp_path / "sweep.json"
    code, out, _ = run_cli(capsys, "sweep", "--config", str(spec),
                           "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "dpknn-sweep/1"
    assert json.loads(out_path.read_text()) == doc


def test_account_both_directions(capsys):
    code, out, _ = run_cli(capsys, "account", "--epsilon", "1.0", "--delta", "1e-5")
    assert code == 0
    doc = json.loads(out)
    assert doc["budget"] == pytest.approx(budget_for_dp(DpParams(1.0, 1e-5)))
    assert doc["epsilon_converted"] == pytest.approx(1.0, abs=1e-6)
    code, out, _ = run_cli(capsys, "account", "--budget", str(doc["budget"]),
                           "--delta", "1e-5")
    assert code == 0
    assert json.loads(out)["epsilon"] == pytest.approx(1.0, abs=1e-6)


def test_account_requires_one_input(capsys):
    with pytest.raises(SystemExit):
        main(["account", "--delta", "1e-5"])


def test_index_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path, index={"tables": 5, "bits": 4})
    code, out, _ = run_cli(capsys, "index", "--config", str(spec))
    assert code == 0
    doc = json.loads(out)
    assert doc["examples"] == 60
    assert doc["tables"] == 5
    assert doc["bits"] == 4
    assert len(doc["per_table"]) == 5
    code, out, _ = run_cli(capsys, "index", "--config", str(spec),
                           "--tables", "2", "--bits", "3")
    assert json.loads(out)["tables"] == 2


def test_errors_are_json_on_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "run", "--config", str(bad))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "SpecError"

    spec = write_spec(tmp_path, queries=999)  # more than the pool holds
    code, _, err = run_cli(capsys, "run", "--config", str(spec))
    assert code == 2
    assert "pool" in json.loads(err)["error"]["message"]

    code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "missing.json"))
    assert code == 2
    assert json.loads(err)["error"]["type"] in ("FileNotFoundError", "OSError")


def assert_spec_error(capsys, spec, match):
    code, out, err = run_cli(capsys, "run", "--config", str(spec))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "SpecError"
    assert match in payload["error"]["message"]


def test_remove_without_index_is_a_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, mutations=[{"op": "remove", "at": 1}])
    assert_spec_error(capsys, spec, "integer 'index'")


def test_hashed_index_without_tables_is_a_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, mode="hashed", index={"bits": 4})
    assert_spec_error(capsys, spec, "integer tables and bits")


def test_remove_of_no_live_example_is_a_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, mutations=[{"op": "remove", "index": 100000, "at": 1}])
    assert_spec_error(capsys, spec, "no live example")


def test_add_with_features_but_no_label_is_a_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, mutations=[{"op": "add", "at": 1, "features": [1.0] * 8}])
    assert_spec_error(capsys, spec, "integer 'label'")


def test_null_data_section_is_a_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, data=None)
    assert_spec_error(capsys, spec, "section 'data' must be a JSON object")


def test_kernel_given_as_a_string_is_a_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, engine={"kernel": "rbf", "weight_threshold": 0.5,
                                        "sigma_vote": 0.3, "budget": 6.0})
    assert_spec_error(capsys, spec, "engine section 'kernel' must be a JSON object")


def test_index_command_on_a_non_object_index_is_a_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, index="x")
    code, out, err = run_cli(capsys, "index", "--config", str(spec))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "SpecError"
    assert "section 'index' must be a JSON object" in payload["error"]["message"]


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
