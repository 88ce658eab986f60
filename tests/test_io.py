import io
import json
from pathlib import Path

import numpy as np
import pytest

from hygraph import HybridGraph, Task, structurally_equal
from hygraph import io as hygraph_io
from hygraph.io import (
    DatasetFile,
    ParseError,
    SchemaError,
    load,
    load_file,
    resolve_dataset,
    save,
    save_file,
    split,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def minimal(n=3, **overrides):
    obj = {
        "name": "toy",
        "num_nodes": n,
        "node_features": [[float(i)] for i in range(n)],
        "edges": [[0, 1]],
        "hyperedges": [[0, 1, 2]],
        "labels": [0] * n,
        "task": "classification",
        "num_classes": 2,
    }
    obj.update(overrides)
    return obj


class TestLoad:
    def test_minimal_roundtrip_fields(self, tmp_path):
        ds = load_file(write_json(tmp_path / "a.json", minimal()))
        assert ds.name == "toy"
        assert ds.num_nodes == 3
        assert ds.hyperedges == ((0, 1, 2),)
        assert ds.task == Task("classification", num_classes=2)
        g = ds.to_graph()
        assert g.num_edges == 1

    def test_defaults_applied(self, tmp_path):
        obj = minimal()
        ds = load_file(write_json(tmp_path / "a.json", obj))
        g = ds.to_graph()
        np.testing.assert_array_equal(g.hyperedge_weights, [1.0])
        np.testing.assert_array_equal(g.parent, [0, 1, 2])

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"num_nodes": 3,\n  "edges": }')
        with pytest.raises(ParseError, match="line 2"):
            load_file(str(path))

    def test_missing_field_named(self, tmp_path):
        obj = minimal()
        del obj["node_features"]
        with pytest.raises(SchemaError, match="node_features"):
            load_file(write_json(tmp_path / "a.json", obj))

    def test_edge_out_of_range_named(self, tmp_path):
        obj = minimal(edges=[[0, 9]])
        with pytest.raises(SchemaError, match="edges"):
            load_file(write_json(tmp_path / "a.json", obj))

    def test_hyperedge_out_of_range_named(self, tmp_path):
        obj = minimal(hyperedges=[[0, 1], [2, 9]])
        with pytest.raises(SchemaError, match=r"hyperedges.*\[1\]"):
            load_file(write_json(tmp_path / "a.json", obj))

    def test_weight_length_mismatch(self, tmp_path):
        obj = minimal(hyperedge_weights=[1.0, 2.0])
        with pytest.raises(SchemaError, match="hyperedge_weights"):
            load_file(write_json(tmp_path / "a.json", obj))

    def test_bad_task(self, tmp_path):
        obj = minimal(task="ranking")
        with pytest.raises(SchemaError, match="task"):
            load_file(write_json(tmp_path / "a.json", obj))

    def test_label_out_of_class_range(self, tmp_path):
        obj = minimal(labels=[0, 1, 5])
        with pytest.raises(SchemaError, match="labels"):
            load_file(write_json(tmp_path / "a.json", obj))

    def test_fractional_class_label(self, tmp_path):
        obj = minimal(labels=[0, 1, 0.5])
        with pytest.raises(SchemaError, match="labels"):
            load_file(write_json(tmp_path / "a.json", obj))

    def test_invalid_graph_reported(self, tmp_path):
        obj = minimal(edges=[[1, 1]])
        with pytest.raises(SchemaError, match="validation"):
            load(write_json(tmp_path / "a.json", obj))

    def test_positions_and_embeddings(self, tmp_path):
        obj = minimal(
            positions=[["chr1", 0], ["chr1", 150000], ["chr2", 7]],
            embeddings=[[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
        )
        ds = load_file(write_json(tmp_path / "a.json", obj))
        assert ds.positions[1] == ("chr1", 150000)
        assert ds.embeddings.shape == (3, 2)

    def test_positions_length_checked(self, tmp_path):
        obj = minimal(positions=[["chr1", 0]])
        with pytest.raises(SchemaError, match="positions"):
            load_file(write_json(tmp_path / "a.json", obj))

    @pytest.mark.parametrize("offset", [2**63, 2**64 - 1, 2.0**63, -(2.0**64)])
    def test_position_offset_outside_int64_named(self, tmp_path, offset):
        # numpy reads 2**63 as uint64, whose cast to int64 wrapped to -2**63
        obj = minimal(positions=[["chr1", 0], ["chr1", offset], ["chr2", 7]])
        with pytest.raises(SchemaError, match="'positions': offset outside int64"):
            load_file(write_json(tmp_path / "a.json", obj))

    def test_position_offsets_at_int64_limits(self, tmp_path):
        obj = minimal(positions=[["chr1", -2**63], ["chr1", 2**63 - 1], ["chr2", 7]])
        ds = load_file(write_json(tmp_path / "a.json", obj))
        assert [o for _, o in ds.positions] == [-2**63, 2**63 - 1, 7]

    @pytest.mark.parametrize("field, value", [
        ("hyperedges", 5),
        ("hyperedges", [[0, 1], 2]),
        ("hyperedges", [[0, 1.5, 2]]),
        ("hyperedges", [[0, "1"]]),
        ("edges", [[0, 1.5]]),
        ("edges", [[0, 1, 2]]),
        ("parent", 0),
        ("parent", [0, 0.5, 2]),
        ("labels", 0),
        ("labels", ["a", "b", "c"]),
        ("hyperedge_weights", 1.0),
        ("num_classes", "2"),
        ("positions", [["chr1"], ["chr1", 5], ["chr2", 7]]),
        ("positions", [["chr1", 0], ["chr1", 2.5], ["chr2", 7]]),
        ("hyperedges", [[[0, 1]]]),
        ("node_features", [[0.0], [float("nan")], [2.0]]),
        ("node_features", [[0.0], [float("inf")], [2.0]]),
        ("hyperedge_weights", [float("nan")]),
        ("hyperedge_weights", [float("inf")]),
        ("hyperedge_features", [[1.0, float("nan")]]),
        ("embeddings", [[0.0], [float("-inf")], [1.0]]),
    ])
    def test_malformed_field_named(self, tmp_path, field, value):
        obj = minimal(**{field: value})
        with pytest.raises(SchemaError, match=f"'{field}'"):
            load_file(write_json(tmp_path / "a.json", obj))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_regression_label_named(self, tmp_path, bad):
        obj = minimal(task="regression", labels=[0.5, bad, 1.0])
        del obj["num_classes"]
        with pytest.raises(SchemaError, match="'labels': non-finite"):
            load_file(write_json(tmp_path / "a.json", obj))


class TestSaveRoundTrip:
    def test_graph_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        g = HybridGraph(
            node_features=rng.standard_normal((6, 3)),
            simple_edges=np.array([[0, 1], [2, 3], [4, 5]]),
            hyperedges=((0, 1, 2), (3, 4)),
            hyperedge_weights=np.array([2.0, 0.5]),
            hyperedge_features=rng.standard_normal((2, 2)),
            parent=np.array([0, 0, 0, 2, 2, 2]),
            labels=rng.standard_normal(6),
        )
        path = str(tmp_path / "g.json")
        save(g, path, name="round")
        assert structurally_equal(g, load(path))

    def test_graph_with_no_nodes_loads(self, tmp_path):
        # A matrix with no rows is saved as [], which loads with shape (0, 0).
        path = str(tmp_path / "empty.json")
        save(HybridGraph(node_features=np.zeros((0, 3)), simple_edges=[]), path)
        g = load(path)
        assert g.num_nodes == 0 and g.node_features.shape == (0, 0)
        assert structurally_equal(g, HybridGraph(node_features=np.zeros((0, 0)),
                                                 simple_edges=[]))

    def test_save_is_deterministic(self, tmp_path):
        g = HybridGraph(
            node_features=np.arange(8.0).reshape(4, 2),
            simple_edges=np.array([[0, 1]]),
            hyperedges=((1, 2, 3),),
            labels=np.array([0, 1, 1, 0]),
            task=Task("classification", num_classes=2),
        )
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save(g, a)
        save(g, b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("rows", [1, 2, 1000])
    def test_saved_bytes_match_json_dump(self, tmp_path, monkeypatch, rows):
        # The writer encodes a few list items per json.dumps call; the bytes
        # are those of one json.dump over the per-pair edge lists it built.
        monkeypatch.setattr(hygraph_io, "_ROWS", rows)
        rng = np.random.default_rng(6)
        g = HybridGraph(
            node_features=np.array([[0.1, -0.0], [1e-300, 2.5e17], [np.pi, -7.0]]),
            simple_edges=np.array([[0, 2], [1, 2]]),
            hyperedges=((2, 0, 1), (1,)),
            hyperedge_weights=np.array([0.3, 3.0]),
            hyperedge_features=rng.standard_normal((2, 2)),
            parent=np.array([0, 0, 1]),
            labels=rng.standard_normal(3),
        )
        ds = DatasetFile(name="ümlaut \"q\"", num_nodes=3, node_features=g.node_features,
                         edges=g.simple_edges, hyperedges=g.hyperedges,
                         hyperedge_weights=g.hyperedge_weights,
                         hyperedge_features=g.hyperedge_features, parent=g.parent,
                         labels=g.labels, task=g.task, positions=[("chr1", 5), (2, 7), ("x", 0)],
                         embeddings=rng.standard_normal((3, 2)))
        bare = DatasetFile(name="", num_nodes=2, node_features=np.zeros((2, 1)),
                           edges=np.zeros((0, 2), dtype=np.int64), hyperedges=((0, 1), (1,)),
                           labels=np.array([0, 1]), task=Task("classification", num_classes=2))
        files = [(ds, str(tmp_path / "ds.json")), (bare, str(tmp_path / "bare.json"))]
        for name in ("synthetic_classification", "synthetic_regression"):
            loaded = load_file(str(Path(__file__).parent.parent / "data" / f"{name}.json"))
            files.append((loaded, str(tmp_path / f"{name}.json")))
        for dataset, path in files:
            save_file(dataset, path)
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
            assert obj["edges"] == [[int(u), int(v)] for u, v in dataset.edges]
            assert obj["hyperedges"] == [list(e) for e in dataset.hyperedges]
            expected = io.StringIO()
            json.dump(obj, expected, sort_keys=True, separators=(",", ":"))
            expected.write("\n")
            assert Path(path).read_bytes() == expected.getvalue().encode("utf-8")

    def test_classification_roundtrip(self, tmp_path):
        g = HybridGraph(
            node_features=np.zeros((4, 1)),
            simple_edges=np.array([[0, 1], [2, 3]]),
            labels=np.array([0, 1, 2, 1]),
            task=Task("classification", num_classes=3),
        )
        path = str(tmp_path / "g.json")
        save(g, path)
        loaded = load(path)
        assert loaded.task == g.task
        assert structurally_equal(g, loaded)


class TestResolve:
    def test_cwd_then_data_dir(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "store"
        data_dir.mkdir()
        target = data_dir / "d.json"
        write_json(target, minimal())
        monkeypatch.setenv("HYGRAPH_DATA", str(data_dir))
        assert resolve_dataset("d.json") == str(target)
        with pytest.raises(FileNotFoundError):
            resolve_dataset("missing.json")


class TestSplit:
    def graph_of(self, n):
        return HybridGraph(node_features=np.zeros((n, 1)),
                           simple_edges=np.zeros((0, 2), dtype=np.int64))

    def test_sizes_7(self):
        masks = split(self.graph_of(7), seed=0)
        assert (len(masks.train), len(masks.val), len(masks.test)) == (4, 1, 2)

    def test_sizes_proportions(self):
        rng = np.random.default_rng(0)
        for n in [5, 10, 33, 100, 1912]:
            masks = split(self.graph_of(n), seed=1)
            assert len(masks.train) == 6 * n // 10
            assert len(masks.val) == 2 * n // 10
            assert len(masks.test) == n - len(masks.train) - len(masks.val)

    def test_partition(self):
        masks = split(self.graph_of(50), seed=3)
        union = np.concatenate([masks.train, masks.val, masks.test])
        np.testing.assert_array_equal(np.sort(union), np.arange(50))

    def test_deterministic_per_seed(self):
        g = self.graph_of(40)
        a, b = split(g, seed=9), split(g, seed=9)
        np.testing.assert_array_equal(a.train, b.train)
        c = split(g, seed=10)
        assert not np.array_equal(a.train, c.train)

    def test_too_small(self):
        with pytest.raises(ValueError):
            split(self.graph_of(4), seed=0)
