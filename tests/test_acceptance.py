"""Release acceptance gate.

Each test below is one numbered release criterion and yields exactly one
pass/fail/skip line under ``pytest -v``.  Criteria 1 and 2 (and the
reference half of criterion 8) need the published Twitch-PT hybrid-graph
file, which is not bundled and cannot be downloaded from this environment;
they skip with instructions when the file is absent, and criterion 8 falls
back to its documented synthetic substitute.  Everything else runs
self-contained with fixed seeds.
"""

import itertools
import pathlib
import time

import numpy as np
import pytest

from test_autodiff import gradcheck

from hygraph.cli import main
from hygraph.construct import cliques_to_hyperedges
from hygraph.graph import HybridGraph, Task, structurally_equal
from hygraph.io import load, load_file, resolve_dataset, save
from hygraph.nn import autodiff as ad
from hygraph.nn.layers import LAYER_TYPES, build_graph_tensors
from hygraph.nn.losses import bce_with_logits, mse, one_hot
from hygraph.nn.models import ModelSpec, build_model
from hygraph.nn.train import TrainConfig, run_experiment
from hygraph.sampling import induce, sample_edges, sample_nodes_by_degree
from hygraph.stats import compute_stats
from hygraph.synthetic import make_classification_graph

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE_DATASET = "twitch_pt.json"
SKIP_REASON = (
    "published twitch_pt.json not available (no network access); place it "
    "in ./data or $HYGRAPH_DATA to enable this criterion"
)


def reference_path():
    for candidate in (REFERENCE_DATASET, str(ROOT / "data" / REFERENCE_DATASET)):
        try:
            return resolve_dataset(candidate)
        except FileNotFoundError:
            continue
    return None


def separable_graph():
    return make_classification_graph(
        num_nodes=300, num_classes=2, feature_dim=8, noise=0.1,
        homophily=0.95, num_hyperedges=60, purity=0.95, seed=0,
    )


def test_criterion_01_reference_statistics():
    """stats on the published file: exact counts, degrees within tolerance."""
    path = reference_path()
    if path is None:
        pytest.skip(SKIP_REASON)
    start = time.perf_counter()
    stats = compute_stats(load(path))
    elapsed = time.perf_counter() - start
    assert stats.num_nodes == 1912
    assert stats.num_edges == 62598
    assert stats.num_hyperedges == 74830
    assert abs(stats.avg_node_degree - 65.48) <= 0.01
    assert abs(stats.avg_hyperedge_degree - 7.933) <= 0.005
    assert elapsed < 10.0


def test_criterion_02_reference_clique_construction():
    """Maximal cliques (size >= 3) of the published edges: exact count."""
    path = reference_path()
    if path is None:
        pytest.skip(SKIP_REASON)
    ds = load_file(path)
    start = time.perf_counter()
    built = cliques_to_hyperedges(ds.num_nodes, ds.edges, min_size=3)
    elapsed = time.perf_counter() - start
    assert len(built) == 74830
    assert elapsed < 300.0


def exhaustive_maximal_cliques(n, edges, min_size):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(int(v))
        adj[v].add(int(u))
    cliques = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
                cliques.append(frozenset(combo))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal if len(c) >= min_size)


def test_criterion_03_clique_oracle():
    """200 random graphs, n <= 12, all densities, vs the all-subsets oracle."""
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    for i in range(200):
        n = int(rng.integers(1, 13))
        p = i / 199
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < p
        edges = np.array(
            [pair for pair, k in zip(pairs, keep) if k], dtype=np.int64
        ).reshape(-1, 2)
        got = cliques_to_hyperedges(n, edges, min_size=3)
        assert list(got) == exhaustive_maximal_cliques(n, edges, 3)
    assert time.perf_counter() - start < 60.0


def loop_hyperconv(x, theta, hyperedges, weights):
    n, d_out = x.shape[0], theta.shape[1]
    y = x @ theta
    out = np.zeros((n, d_out))
    mass = np.zeros(n)
    for members, w in zip(hyperedges, weights):
        z = np.zeros(d_out)
        for v in members:
            z = z + y[v]
        z = w * z / len(members)
        for v in members:
            out[v] += z
            mass[v] += w
    for v in range(n):
        if mass[v] > 0:
            out[v] /= mass[v]
    return out


def test_criterion_04_hyperconv_matrix_equals_loop():
    """Incidence matrix form vs explicit loop form, 1e-10 max abs diff."""
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 7))
        hyperedges = tuple(
            tuple(int(v) for v in np.sort(rng.choice(
                n, size=int(rng.integers(1, n + 1)), replace=False)))
            for _ in range(m)
        )
        weights = rng.uniform(0.5, 2.0, size=m)
        g = HybridGraph(
            node_features=rng.normal(size=(n, 3)),
            simple_edges=np.zeros((0, 2), dtype=np.int64),
            hyperedges=hyperedges,
            hyperedge_weights=weights,
        )
        gt = build_graph_tensors(g)
        layer = LAYER_TYPES["hyperconv"](3, 2, rng)
        x = rng.normal(size=(n, 3))
        fast = layer.forward(gt, ad.Tensor(x)).value
        slow = loop_hyperconv(x, layer.theta.value, hyperedges, weights)
        assert np.max(np.abs(fast - slow)) <= 1e-10
    assert time.perf_counter() - start < 10.0


def small_layer_graph(rng):
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 2]], dtype=np.int64)
    hyperedges = ((0, 1, 3), (2, 4))
    return HybridGraph(
        node_features=rng.normal(size=(5, 3)),
        simple_edges=edges,
        hyperedges=hyperedges,
        hyperedge_weights=rng.uniform(0.5, 2.0, size=2),
    )


def test_criterion_05_gradient_suite():
    """Finite differences (step 1e-5, rel 1e-4): all layers, both losses."""
    start = time.perf_counter()
    for offset, cls in enumerate(LAYER_TYPES.values()):
        for i in range(20):
            rng = np.random.default_rng(500 + 97 * offset + i)
            g = small_layer_graph(rng)
            gt = build_graph_tensors(g)
            layer = cls(3, 2, rng)
            x = ad.Tensor(rng.normal(size=(5, 3)))
            gradcheck(lambda: ad.mean(layer.forward(gt, x)),
                      [x] + layer.params())
    for i in range(20):
        rng = np.random.default_rng(900 + i)
        logits = ad.Tensor(rng.normal(size=(6, 3)))
        targets = one_hot(rng.integers(0, 3, size=6), 3)
        gradcheck(lambda: bce_with_logits(logits, targets), [logits])
        pred = ad.Tensor(rng.normal(size=(6, 2)))
        target = rng.normal(size=(6, 2))
        gradcheck(lambda: mse(pred, target), [pred])
    assert time.perf_counter() - start < 60.0


def test_criterion_06_sampler_first_draw_distributions():
    """Node and edge sampler first-draw frequencies within 3 sigma of exact."""
    draws = 100_000
    start = time.perf_counter()

    star = HybridGraph(
        node_features=np.zeros((4, 1)),
        simple_edges=np.array([[0, 1], [0, 2], [0, 3]], dtype=np.int64),
    )
    rng = np.random.default_rng(6)
    hits = 0
    for _ in range(draws):
        if int(sample_nodes_by_degree(star, 1, rng).node_ids[0]) == 0:
            hits += 1
    p_center = 16.0 / 28.0
    sigma = np.sqrt(p_center * (1 - p_center) / draws)
    assert abs(hits / draws - p_center) <= 3 * sigma

    tri = HybridGraph(
        node_features=np.zeros((4, 1)),
        simple_edges=np.array([[0, 1], [1, 2], [0, 2], [2, 3]], dtype=np.int64),
    )
    expected = {
        frozenset((0, 1)): 1.0 / 4.0,
        frozenset((1, 2)): 5.0 / 24.0,
        frozenset((0, 2)): 5.0 / 24.0,
        frozenset((2, 3)): 1.0 / 3.0,
    }
    counts = {key: 0 for key in expected}
    for _ in range(draws):
        sub = sample_edges(tri, 1, rng)
        counts[frozenset(int(v) for v in sub.node_ids)] += 1
    for key, p in expected.items():
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(counts[key] / draws - p) <= 3 * sigma
    assert time.perf_counter() - start < 30.0


def random_hybrid(rng):
    n = int(rng.integers(1, 16))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        k = int(rng.integers(0, min(len(pairs), 2 * n) + 1))
        chosen = rng.choice(len(pairs), size=k, replace=False)
        edges = np.array([pairs[j] for j in chosen], dtype=np.int64).reshape(-1, 2)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    hyperedges = []
    for _ in range(int(rng.integers(0, 6))):
        size = int(rng.integers(1, min(n, 4) + 1))
        members = np.sort(rng.choice(n, size=size, replace=False))
        hyperedges.append(tuple(int(v) for v in members))
    parent = np.array([int(rng.integers(0, i + 1)) for i in range(n)],
                      dtype=np.int64)
    return HybridGraph(
        node_features=rng.normal(size=(n, 2)),
        simple_edges=edges,
        hyperedges=tuple(hyperedges),
        hyperedge_weights=rng.uniform(0.5, 2.0, size=len(hyperedges)),
        parent=parent,
        labels=rng.integers(0, 3, size=n).astype(np.int64),
        task=Task("classification", 3),
    )


def test_criterion_07_masking_invariants():
    """1,000 random hybrid graphs: masking rule and full-budget identity."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(1000):
        g = random_hybrid(rng)
        n = g.num_nodes
        ids = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        sample = {int(v) for v in ids}
        sub = induce(g, ids)
        retained = set()
        for j, members in enumerate(sub.hyperedges):
            orig_id = int(sub.hyperedge_ids[j])
            retained.add(orig_id)
            back = {int(sub.node_ids[v]) for v in members}
            assert back
            assert back <= sample
            assert back == set(g.hyperedges[orig_id]) & sample
        for orig_id, members in enumerate(g.hyperedges):
            if orig_id not in retained:
                assert not set(members) & sample
        full = induce(g, np.arange(n))
        assert structurally_equal(full.to_graph(g.task), g)
    assert time.perf_counter() - start < 30.0


def test_criterion_08_end_to_end_accuracy():
    """GCN/HyperConv on the published file, or the synthetic substitute."""
    path = reference_path()
    cfg = TrainConfig(epochs=50, lr=0.01, trials=5)
    start = time.perf_counter()
    if path is not None:
        g = load(path)
        gcn = run_experiment(g, ModelSpec("gcn", 32, 0.5), cfg, 0)
        hyper = run_experiment(g, ModelSpec("hyperconv", 32, 0.5), cfg, 0)
        assert abs(gcn["mean"] - 0.689) <= 0.05
        assert abs(hyper["mean"] - 0.701) <= 0.05
    else:
        report = run_experiment(separable_graph(), ModelSpec("gcn", 32, 0.5),
                                cfg, 0)
        assert report["random_guess"] == 0.5
        assert report["mean"] >= 0.95
    assert time.perf_counter() - start < 300.0


def test_criterion_09_linear_probe_sanity():
    """Identity-theta probe is bit-exact; trained probe >= worse inner model."""
    rng = np.random.default_rng(9)
    g = HybridGraph(
        node_features=rng.normal(size=(30, 4)),
        simple_edges=np.array([[i, i + 1] for i in range(29)], dtype=np.int64),
        hyperedges=tuple((i, i + 1, i + 2) for i in range(0, 27, 3)),
    )
    gt = build_graph_tensors(g)
    spec = ModelSpec("lp:gcn+hyperconv", hidden=8, dropout=0.5)
    model = build_model(spec, 4, 3, rng, classification=False)
    model.theta.value[:] = np.vstack([np.eye(3), np.zeros((3, 3))])
    model.bias.value[:] = 0.0
    probe = model.forward(gt).value
    inner = model.inner1.forward(gt).value
    assert np.array_equal(probe, inner)

    start = time.perf_counter()
    data = separable_graph()
    cfg = TrainConfig(epochs=50, lr=0.01, trials=5)
    means = {
        name: run_experiment(data, ModelSpec(name, 32, 0.5), cfg, 0)["mean"]
        for name in ("gcn", "hyperconv", "lp:gcn+hyperconv")
    }
    assert means["lp:gcn+hyperconv"] >= min(means["gcn"], means["hyperconv"])
    assert time.perf_counter() - start < 120.0


def test_criterion_10_byte_identical_reports(tmp_path, capsys):
    """Repeated train and sample invocations produce byte-identical JSON."""
    data = tmp_path / "toy.json"
    save(make_classification_graph(num_nodes=40, num_hyperedges=12, seed=3),
         str(data), name="toy")
    train_args = ["train", str(data), "--model", "gcn", "--epochs", "3",
                  "--hidden", "4", "--trials", "2", "--seed", "5"]
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert main(train_args + ["--out", str(t1)]) == 0
    assert main(train_args + ["--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    sample_args = ["sample", str(data), "--method", "rw", "--roots", "4",
                   "--walk-length", "2", "--seed", "9"]
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(sample_args + ["--out", str(s1)]) == 0
    assert main(sample_args + ["--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    capsys.readouterr()
