import json
import pathlib
import re

import jsonschema
import pytest

from hygraph.cli import main
from hygraph.io import load
from hygraph.io import save
from hygraph.nn.models import ModelSpec
from hygraph.nn.train import TrainConfig, run_experiment
from hygraph import suite
from hygraph.suite import RUN_SEED_STRIDE, format_metric, run_experiment_suite
from hygraph.synthetic import make_classification_graph, make_regression_graph

SCHEMA_PATH = pathlib.Path(__file__).resolve().parents[1] / "docs" / "report_schema.json"


@pytest.fixture
def data_dir(tmp_path, monkeypatch):
    save(make_classification_graph(num_nodes=30, num_hyperedges=8, seed=1),
         str(tmp_path / "class.json"), name="class")
    save(make_regression_graph(num_nodes=30, seed=2),
         str(tmp_path / "reg.json"), name="reg")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def make_manifest(**kwargs):
    base = {
        "master_seed": 7,
        "defaults": {"epochs": 2, "trials": 2, "hidden": 4},
        "runs": [
            {"dataset": "class.json", "model": "gcn"},
            {"dataset": "reg.json", "model": "sage"},
        ],
    }
    base.update(kwargs)
    return base


class TestFormatMetric:
    def test_three_decimals(self):
        assert format_metric(0.6891, 0.0061) == "0.689 ± 0.006"

    def test_exact_values(self):
        assert format_metric(1.0, 0.0) == "1.000 ± 0.000"


class TestSuite:
    def test_statuses_and_base_seeds(self, data_dir):
        report = run_experiment_suite(make_manifest())
        assert report["num_runs"] == 2
        assert report["num_incomplete"] == 0
        assert [r["status"] for r in report["runs"]] == ["ok", "ok"]
        assert [r["base_seed"] for r in report["runs"]] == [7, 7 + RUN_SEED_STRIDE]
        assert report["runs"][1]["report"]["metric"] == "mse"

    def test_byte_identical_reports(self, data_dir):
        a = run_experiment_suite(make_manifest())
        b = run_experiment_suite(make_manifest())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_run_reproducible_in_isolation(self, data_dir):
        report = run_experiment_suite(make_manifest())
        row = report["runs"][1]
        alone = run_experiment(
            load("reg.json"),
            ModelSpec("sage", hidden=4, dropout=0.5),
            TrainConfig(epochs=2, lr=0.01, trials=2),
            base_seed=7 + RUN_SEED_STRIDE,
        )
        assert alone["per_seed"] == row["report"]["per_seed"]
        assert alone["mean"] == row["report"]["mean"]

    def test_missing_dataset_is_skipped(self, data_dir):
        manifest = make_manifest()
        manifest["runs"].insert(1, {"dataset": "ghost.json", "model": "gcn"})
        report = run_experiment_suite(manifest)
        statuses = [r["status"] for r in report["runs"]]
        assert statuses == ["ok", "skipped", "ok"]
        assert report["num_incomplete"] == 1
        assert "ghost.json" in report["runs"][1]["reason"]
        assert "report" not in report["runs"][1]
        assert [r["base_seed"] for r in report["runs"]] == [7, 107, 207]

    def test_unknown_manifest_key_raises(self, data_dir):
        manifest = make_manifest(defaults={"optimizer": "sgd"})
        with pytest.raises(ValueError, match="unknown manifest key"):
            run_experiment_suite(manifest)

    def test_run_without_model_raises(self, data_dir):
        manifest = make_manifest(runs=[{"dataset": "class.json"}])
        with pytest.raises(ValueError, match="'dataset' and 'model'"):
            run_experiment_suite(manifest)

    def test_empty_runs_raises(self):
        with pytest.raises(ValueError, match="non-empty 'runs'"):
            run_experiment_suite({"runs": []})

    @pytest.mark.parametrize("manifest, named", [
        ({"runs": ["gcn"]}, "run 0: each run must be a JSON object"),
        (make_manifest(defaults=[1]), "'defaults' must be a JSON object"),
        (make_manifest(master_seed="5"), "'master_seed' must be an integer, got '5'"),
        (make_manifest(master_seed=1.7), "'master_seed' must be an integer, got 1.7"),
        (make_manifest(master_seed=True), "'master_seed' must be an integer, got True"),
    ], ids=["run", "defaults", "seed-string", "seed-float", "seed-bool"])
    def test_malformed_manifest_is_named(self, manifest, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            run_experiment_suite(manifest)

    @pytest.mark.parametrize("key, value, kind", [
        *[(key, bad, "an integer") for key in ("epochs", "trials", "batches_per_epoch",
                                                "hidden", "budget", "roots", "walk_length")
          for bad in ("5", 5.0, True)],
        *[(key, bad, "a number") for key in ("lr", "dropout") for bad in ("0.1", False, None)],
        *[(key, 5, "a string") for key in ("dataset", "model")],
        ("saint", ["node"], "a string or null"),
    ])
    def test_bad_value_type_is_named_before_any_run_trains(self, data_dir, monkeypatch,
                                                           key, value, kind):
        # The bad value sits in the last run: no earlier run may train.
        trained = []
        monkeypatch.setattr(suite, "run_experiment", lambda *args: trained.append(args))
        manifest = make_manifest()
        manifest["runs"][1][key] = value
        with pytest.raises(ValueError, match=re.escape(
                f"run 1: manifest key {key!r} must be {kind}, got {value!r}")):
            run_experiment_suite(manifest)
        assert not trained


class TestSchema:
    def test_report_matches_schema(self, data_dir):
        schema = json.loads(SCHEMA_PATH.read_text())
        manifest = make_manifest()
        manifest["runs"].append({"dataset": "ghost.json", "model": "gcn"})
        manifest["runs"].append({"dataset": "class.json", "model": "gat",
                                 "saint": "node", "budget": 10})
        report = run_experiment_suite(manifest)
        jsonschema.validate(report, schema)

    def test_schema_rejects_bad_status(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        bad = {
            "toolkit_version": "0.1.0",
            "master_seed": 0,
            "num_runs": 1,
            "num_incomplete": 0,
            "runs": [{"index": 0, "dataset": "d", "model": "gcn",
                      "base_seed": 0, "status": "done"}],
        }
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)


class TestSuiteCli:
    def test_exit_zero_and_output_file(self, data_dir, capsys):
        manifest_path = data_dir / "manifest.json"
        manifest_path.write_text(json.dumps(make_manifest()))
        out_path = data_dir / "suite_report.json"
        code = main(["suite", str(manifest_path), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["num_incomplete"] == 0

    def test_exit_one_when_incomplete(self, data_dir, capsys):
        manifest = make_manifest()
        manifest["runs"].append({"dataset": "ghost.json", "model": "gcn"})
        manifest_path = data_dir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        code = main(["suite", str(manifest_path)])
        capsys.readouterr()
        assert code == 1
