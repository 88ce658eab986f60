import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hygraph.cli import main
from hygraph.graph import GraphKind, HybridGraph, classify
from hygraph.io import load, save
from hygraph.nn import train
from hygraph.nn.models import ModelSpec
from hygraph.synthetic import make_classification_graph

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
SCHEMA = ROOT / "docs" / "report_schema.json"


@pytest.fixture
def class_dataset(tmp_path):
    g = make_classification_graph(num_nodes=40, num_hyperedges=12, seed=5)
    path = tmp_path / "toy.json"
    save(g, str(path), name="toy")
    return str(path)


@pytest.fixture
def geo_dataset(tmp_path):
    obj = {
        "name": "geo",
        "num_nodes": 4,
        "node_features": [[0.0], [1.0], [2.0], [3.0]],
        "edges": [[0, 1], [1, 2], [2, 0], [2, 3]],
        "hyperedges": [],
        "labels": [0.0, 0.0, 0.0, 0.0],
        "task": "regression",
        "positions": [["chr1", 0], ["chr1", 150000], ["chr1", 400000],
                      ["chr2", 0]],
        "embeddings": [[0.0], [1.0], [10.0], [11.0]],
    }
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_table(self, capsys, class_dataset):
        code, out, err = run(capsys, "stats", class_dataset)
        assert code == 0
        assert "num_nodes" in out and "40" in out
        assert '"command": "stats"' in err

    def test_json(self, capsys, class_dataset):
        code, out, _ = run(capsys, "stats", class_dataset, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["num_nodes"] == 40
        assert payload["dataset_checksum"]
        assert payload["toolkit_version"]

    def test_malformed_field_is_a_schema_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "num_nodes": 3, "node_features": [[0.0], [1.0], [2.0]], "edges": [],
            "hyperedges": [[0, 1.5]], "labels": [0, 1, 0], "task": "classification",
            "num_classes": 2,
        }))
        code, _, err = run(capsys, "stats", str(path))
        assert code == 1
        assert "'hyperedges'" in err and "Traceback" not in err

    def test_missing_dataset(self, capsys):
        code, _, err = run(capsys, "stats", "no-such-file.json")
        assert code == 1
        assert "error:" in err


class TestConvert:
    def test_to_simple(self, capsys, class_dataset, tmp_path):
        out_path = str(tmp_path / "simple.json")
        code, _, _ = run(capsys, "convert", "--in", class_dataset,
                         "--out", out_path, "--to", "simple")
        assert code == 0
        assert classify(load(out_path)) is GraphKind.SIMPLE

    def test_to_two_level(self, capsys, class_dataset, tmp_path):
        out_path = str(tmp_path / "levels.json")
        code, _, _ = run(capsys, "convert", "--in", class_dataset,
                         "--out", out_path, "--to", "two-level")
        assert code == 0
        g = load(out_path)
        assert classify(g) is GraphKind.HIERARCHICAL
        assert g.num_hyperedges == 0

    def test_requires_target(self, capsys, class_dataset, tmp_path):
        code, _, err = run(capsys, "convert", "--in", class_dataset,
                           "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "simple|hypergraph|two-level" in err


class TestSplit:
    def test_sizes_and_determinism(self, capsys, class_dataset, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run(capsys, "split", class_dataset, "--seed", "3", "--out", a)[0] == 0
        assert run(capsys, "split", class_dataset, "--seed", "3", "--out", b)[0] == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()
        payload = json.loads(Path(a).read_text())
        assert len(payload["train"]) == 24
        assert len(payload["val"]) == 8
        assert len(payload["test"]) == 8


class TestBuildHyperedges:
    def test_clique(self, capsys, geo_dataset, tmp_path):
        out_path = str(tmp_path / "cl.json")
        code, _, _ = run(capsys, "build-hyperedges", "--in", geo_dataset,
                         "--out", out_path, "--method", "clique")
        assert code == 0
        assert load(out_path).hyperedges == ((0, 1, 2),)

    def test_interval(self, capsys, geo_dataset, tmp_path):
        out_path = str(tmp_path / "iv.json")
        code, _, _ = run(capsys, "build-hyperedges", "--in", geo_dataset,
                         "--out", out_path, "--method", "interval")
        assert code == 0
        assert load(out_path).hyperedges == ((0, 1), (2,), (3,))

    def test_ball(self, capsys, geo_dataset, tmp_path):
        out_path = str(tmp_path / "ball.json")
        code, _, _ = run(capsys, "build-hyperedges", "--in", geo_dataset,
                         "--out", out_path, "--method", "ball",
                         "--threshold", "2.0")
        assert code == 0
        assert load(out_path).hyperedges == ((0, 1), (0, 1), (2, 3), (2, 3))

    def test_ball_requires_threshold(self, capsys, geo_dataset, tmp_path):
        code, _, err = run(capsys, "build-hyperedges", "--in", geo_dataset,
                           "--out", str(tmp_path / "x.json"), "--method", "ball")
        assert code == 1
        assert "threshold" in err

    @pytest.mark.parametrize("window", [2**63 - 1, 2**64])
    def test_interval_window_beyond_int64(self, capsys, geo_dataset, tmp_path, window):
        out_path = tmp_path / "x.json"
        code, _, err = run(capsys, "build-hyperedges", "--in", geo_dataset,
                           "--out", str(out_path), "--method", "interval",
                           "--window", str(window))
        assert code == 1
        assert "error: --window:" in err and "int64" in err
        assert not out_path.exists()

    def test_interval_requires_positions(self, capsys, class_dataset, tmp_path):
        code, _, err = run(capsys, "build-hyperedges", "--in", class_dataset,
                           "--out", str(tmp_path / "x.json"),
                           "--method", "interval")
        assert code == 1
        assert "positions" in err


class TestSample:
    def test_sample_to_file(self, capsys, class_dataset, tmp_path):
        out_path = str(tmp_path / "sub.json")
        code, _, err = run(capsys, "sample", class_dataset, "--method", "node",
                           "--budget", "10", "--seed", "4", "--out", out_path)
        assert code == 0
        sub = load(out_path)
        assert sub.num_nodes == 10
        mapping = json.loads(err.splitlines()[-1])
        assert len(mapping["node_ids"]) == 10

    def test_sample_without_hyperedges_loads(self, capsys, tmp_path):
        # The one edge lies outside the one hyperedge, so the sample keeps
        # no hyperedge and saves its hyperedge features as [].
        g = HybridGraph(node_features=np.zeros((4, 1)), simple_edges=[[2, 3]],
                        hyperedges=[(0, 1)], hyperedge_features=np.ones((1, 2)))
        path, out_path = str(tmp_path / "g.json"), str(tmp_path / "sub.json")
        save(g, path)
        code, _, _ = run(capsys, "sample", path, "--method", "edge", "--budget", "1",
                         "--seed", "0", "--out", out_path)
        assert code == 0
        sub = load(out_path)
        assert sub.num_nodes == 2 and sub.hyperedge_features.shape == (0, 0)
        code, out, _ = run(capsys, "stats", out_path)
        assert code == 0 and "num_nodes" in out

    def test_sample_stdout_payload(self, capsys, class_dataset):
        code, out, _ = run(capsys, "sample", class_dataset, "--method",
                           "rand-node", "--budget", "5", "--seed", "1")
        assert code == 0
        assert len(json.loads(out)["node_ids"]) == 5

    def test_bad_method(self, capsys, class_dataset):
        with pytest.raises(SystemExit) as err:
            run(capsys, "sample", class_dataset, "--method", "bogus")
        assert err.value.code == 2


class TestSamplerReport:
    def test_report(self, capsys, class_dataset):
        code, out, _ = run(capsys, "sampler-report", class_dataset,
                           "--method", "rw", "--roots", "3",
                           "--walk-length", "2", "--trials", "4", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 4
        assert len(payload["per_trial"]) == 4
        assert "avg_node_degree" in payload["mean"]


class TestTrainEval:
    def test_epoch_without_a_trained_batch_reports_null(self, capsys):
        # One node per batch: a batch holds no training node now and then,
        # and this seed's only batch holds none.
        code, out, _ = run(capsys, "train", str(DATA / "synthetic_classification.json"),
                           "--model", "gcn", "--saint", "rand-node", "--budget", "1",
                           "--batches", "1", "--epochs", "1", "--trials", "1", "--seed", "1")
        assert code == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        report = json.loads(out, parse_constant=reject)
        assert report["per_seed"][0]["final_train_loss"] is None
        # The schema holds train reports as the runs of a suite report.
        suite = {"toolkit_version": report.pop("toolkit_version"), "master_seed": 1,
                 "num_runs": 1, "num_incomplete": 0,
                 "runs": [{"index": 0, "dataset": report["dataset"], "model": "gcn",
                           "base_seed": 1, "status": "ok", "report": report}]}
        jsonschema.validate(suite, json.loads(SCHEMA.read_text()))

    def test_train_report_and_eval_round_trip(self, capsys, class_dataset,
                                              tmp_path):
        report_path = str(tmp_path / "report.json")
        model_path = str(tmp_path / "model.npz")
        code, _, _ = run(capsys, "train", class_dataset, "--model", "gcn",
                         "--epochs", "4", "--hidden", "6", "--trials", "2",
                         "--seed", "11", "--save-model", model_path,
                         "--out", report_path)
        assert code == 0
        report = json.loads(Path(report_path).read_text())
        assert report["metric"] == "accuracy"
        assert len(report["per_seed"]) == 2
        assert [r["seed"] for r in report["per_seed"]] == [11, 12]
        mean, std = report["mean"], report["std"]
        assert report["formatted"] == f"{mean:.3f} ± {std:.3f}"
        assert report["random_guess"] == 0.5

        code, out, _ = run(capsys, "eval", class_dataset,
                           "--model-file", model_path, "--split", "test",
                           "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == report["per_seed"][0]["test"]

    def test_save_model_keeps_the_trained_base_seed_model(
            self, capsys, class_dataset, tmp_path, monkeypatch):
        calls = []
        original = train.train_single

        def counting(g, spec, cfg, seed):
            calls.append(seed)
            return original(g, spec, cfg, seed)

        monkeypatch.setattr(train, "train_single", counting)
        model_path = str(tmp_path / "model.npz")
        code, _, _ = run(capsys, "train", class_dataset, "--model", "sage",
                         "--epochs", "3", "--hidden", "5", "--trials", "2",
                         "--seed", "4", "--save-model", model_path)
        assert code == 0
        assert calls == [4, 5]  # each trial trains once; nothing retrains
        monkeypatch.undo()

        spec = ModelSpec("sage", hidden=5, dropout=0.5)
        cfg = train.TrainConfig(epochs=3, trials=2)
        expected, _, _ = train.train_single(load(class_dataset), spec, cfg, 4)
        saved, saved_spec, _ = train.load_model(model_path)
        assert saved_spec == spec
        for got, want in zip(saved.params(), expected.params(), strict=True):
            assert np.array_equal(got.value, want.value)

    def test_train_is_byte_deterministic(self, capsys, class_dataset, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ["train", class_dataset, "--model", "sage", "--epochs", "3",
                "--hidden", "4", "--trials", "2", "--seed", "0"]
        assert run(capsys, *args, "--out", a)[0] == 0
        assert run(capsys, *args, "--out", b)[0] == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_saint_flag(self, capsys, class_dataset):
        code, out, _ = run(capsys, "train", class_dataset, "--model", "gcn",
                           "--epochs", "2", "--hidden", "4", "--trials", "1",
                           "--saint", "node", "--budget", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["sampler"]["method"] == "node"

    def test_config_file_fills_defaults(self, capsys, class_dataset, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"epochs": 2, "trials": 1,
                                           "hidden": 4, "model": "gcn"}))
        code, out, _ = run(capsys, "train", class_dataset,
                           "--config", str(config_path))
        assert code == 0
        assert json.loads(out)["epochs"] == 2

    def test_flags_override_config(self, capsys, class_dataset, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"epochs": 9, "trials": 1,
                                           "hidden": 4, "model": "gcn"}))
        code, out, _ = run(capsys, "train", class_dataset,
                           "--config", str(config_path), "--epochs", "1")
        assert code == 0
        assert json.loads(out)["epochs"] == 1

    def test_eval_task_mismatch(self, capsys, class_dataset, tmp_path):
        model_path = str(tmp_path / "m.npz")
        run(capsys, "train", class_dataset, "--model", "gcn", "--epochs", "1",
            "--hidden", "4", "--trials", "1", "--save-model", model_path)
        other = tmp_path / "regression.json"
        obj = json.loads(Path(class_dataset).read_text())
        obj["task"] = "regression"
        obj.pop("num_classes")
        obj["labels"] = [float(v) for v in obj["labels"]]
        other.write_text(json.dumps(obj))
        code, _, err = run(capsys, "eval", str(other),
                           "--model-file", model_path)
        assert code == 1
        assert "task" in err

    def test_eval_feature_width_mismatch(self, capsys, class_dataset, tmp_path):
        model_path = str(tmp_path / "m.npz")
        run(capsys, "train", class_dataset, "--model", "gcn", "--epochs", "1",
            "--hidden", "4", "--trials", "1", "--save-model", model_path)
        narrow = tmp_path / "narrow.json"
        obj = json.loads(Path(class_dataset).read_text())
        width = len(obj["node_features"][0])
        obj["node_features"] = [row[:5] for row in obj["node_features"]]
        narrow.write_text(json.dumps(obj))
        code, _, err = run(capsys, "eval", str(narrow), "--model-file", model_path)
        assert code == 1
        assert (f"error: node_features: {model_path} was trained on {width} features; "
                f"{narrow} has 5") in err


def announced_config(err):
    line = next(ln for ln in err.splitlines() if ln.startswith('{"command":'))
    return json.loads(line)["config"]


# Inputs and outputs the announce line carries beside the options.
PATH_KEYS = {"dataset", "in", "out", "model_file"}


class TestConfigFile:
    @pytest.mark.parametrize("argv, flags, options", [
        (["train", "{data}"],
         ["--model", "gcn", "--epochs", "2", "--hidden", "4", "--trials", "1",
          "--saint", "rw", "--roots", "10", "--walk-length", "2", "--batches", "2"],
         {"model", "epochs", "lr", "hidden", "dropout", "trials", "seed", "saint",
          "budget", "roots", "walk-length", "batches"}),
        (["sample", "{data}"],
         ["--method", "rw", "--roots", "3", "--walk-length", "3", "--seed", "2"],
         {"method", "budget", "roots", "walk-length", "seed"}),
        (["build-hyperedges", "--in", "{geo}", "--out", "{out}"],
         ["--method", "ball", "--threshold", "2.0"],
         {"method", "min-size", "window", "threshold", "metric"}),
        (["build-hyperedges", "--in", "{geo}", "--out", "{out}"],
         ["--method", "clique", "--min-size", "4"],
         {"method", "min-size", "window", "threshold", "metric"}),
    ], ids=["train-saint", "sample-rw", "build-ball", "build-clique"])
    def test_announced_config_replays_the_run(self, capsys, class_dataset,
                                              geo_dataset, tmp_path, argv,
                                              flags, options):
        def fill(out):
            return [a.format(data=class_dataset, geo=geo_dataset, out=out) for a in argv]

        first_out = str(tmp_path / "first.json")
        code, first, err = run(capsys, *fill(first_out), *flags)
        assert code == 0
        config = announced_config(err)
        assert set(config) - PATH_KEYS == options
        config_path = tmp_path / "announced.json"
        config_path.write_text(json.dumps(config))

        again_out = str(tmp_path / "again.json")
        code, again, _ = run(capsys, *fill(again_out), "--config", str(config_path))
        assert code == 0
        assert again == first
        if "{out}" in argv:
            assert Path(again_out).read_bytes() == Path(first_out).read_bytes()

    @pytest.mark.parametrize("argv, config, named", [
        (["train", "{data}", "--model", "gcn"], {"epochs": "2"}, "config key 'epochs'"),
        (["split", "{data}"], {"seed": None}, "config key 'seed'"),
        (["train", "{data}", "--model", "gcn"], {"lr": True}, "config key 'lr'"),
        (["sample", "{data}"], {"method": "bogus"}, "config key 'method'"),
        (["split", "{data}"], '{"seed": 1', "{config}: line 1"),
        (["sample", "{data}", "--method", "rw"], {"walk_length": 5},
         "config key 'walk_length'"),
    ], ids=["epochs-string", "seed-null", "lr-bool", "method-choice", "truncated-file",
            "undeclared-key"])
    def test_bad_config_value_is_named(self, capsys, class_dataset, tmp_path,
                                       argv, config, named):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(config if isinstance(config, str) else json.dumps(config))
        code, _, err = run(capsys, *[a.format(data=class_dataset) for a in argv],
                           "--config", str(config_path))
        assert code == 1
        assert named.format(config=config_path) in err
        assert "Traceback" not in err

    def test_null_saint_and_integer_lr_are_accepted(self, capsys, class_dataset,
                                                    tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"model": "gcn", "epochs": 1, "hidden": 4,
                                           "trials": 1, "saint": None, "lr": 1}))
        code, out, _ = run(capsys, "train", class_dataset, "--config", str(config_path))
        assert code == 0
        assert '"lr": 1,' in out
        assert "sampler" not in json.loads(out)


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fit"])
        assert err.value.code == 2

    def test_suite_has_no_config_flag(self, capsys, class_dataset, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "defaults": {"epochs": 1, "trials": 1, "hidden": 4},
            "runs": [{"dataset": class_dataset, "model": "gcn"}],
        }))
        with pytest.raises(SystemExit) as err:
            main(["suite", str(manifest), "--config", str(tmp_path / "x.json")])
        assert err.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    def test_data_dir_resolution(self, capsys, class_dataset, tmp_path,
                                 monkeypatch):
        import shutil
        store = tmp_path / "store"
        store.mkdir()
        shutil.copy(class_dataset, store / "inside.json")
        monkeypatch.setenv("HYGRAPH_DATA", str(store))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "stats", "inside.json", "--format", "json")
        assert code == 0
        assert json.loads(out)["stats"]["num_nodes"] == 40
