import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._compressed import _cs_matrix

from hygraph import HybridGraph
from hygraph.io import load, split
from hygraph.nn import autodiff as ad
from hygraph.nn.layers import (
    LAYER_TYPES,
    GATLayer,
    GATv2Layer,
    GCNLayer,
    HyperAttenLayer,
    HyperConvLayer,
    SAGELayer,
    build_graph_tensors,
)
from hygraph.nn.models import ModelSpec, build_model
from hygraph.nn.train import Adam, TrainConfig, _loss_on, run_experiment
from hygraph.sampling import SamplerSpec, run_sampler
from hygraph.synthetic import make_classification_graph
from tests.test_array_oracles import DATA, SELECTIONS, STORED_NAMES
from tests.test_autodiff import gradcheck


def graph(n, edges=(), hyperedges=(), weights=None, x=None):
    return HybridGraph(
        node_features=x if x is not None else np.zeros((n, 2)),
        simple_edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        hyperedges=tuple(tuple(e) for e in hyperedges),
        hyperedge_weights=weights,
    )


def leaky(v, slope=0.2):
    return np.where(v > 0, v, slope * v)


def neighbor_sets(n, edges):
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[int(u)].add(int(v))
        nbrs[int(v)].add(int(u))
    return nbrs


def dense_gcn(n, edges, x, theta):
    a = np.eye(n)
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    d = a.sum(axis=1)
    norm = a / np.sqrt(np.outer(d, d))
    return norm @ x @ theta


def dense_sage(n, edges, x, theta_self, theta_nbr):
    nbrs = neighbor_sets(n, edges)
    agg = np.zeros_like(x)
    for v, s in enumerate(nbrs):
        if s:
            agg[v] = x[sorted(s)].mean(axis=0)
    return x @ theta_self + agg @ theta_nbr


def dense_gat(n, edges, x, theta, a_src, a_dst):
    h = x @ theta
    nbrs = neighbor_sets(n, edges)
    out = np.zeros_like(h)
    for v in range(n):
        cand = sorted(nbrs[v] | {v})
        scores = np.array([
            leaky((h[u] @ a_src + h[v] @ a_dst).item()) for u in cand
        ])
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        out[v] = sum(a * h[u] for a, u in zip(alpha, cand))
    return out


def dense_gatv2(n, edges, x, theta_l, theta_r, a):
    h_l = x @ theta_l
    h_r = x @ theta_r
    nbrs = neighbor_sets(n, edges)
    out = np.zeros_like(h_l)
    for v in range(n):
        cand = sorted(nbrs[v] | {v})
        scores = np.array([(leaky(h_l[u] + h_r[v]) @ a).item() for u in cand])
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        out[v] = sum(c * h_l[u] for c, u in zip(alpha, cand))
    return out


def dense_hyperconv(n, hyperedges, weights, x, theta):
    m = len(hyperedges)
    h = np.zeros((n, m))
    for k, e in enumerate(hyperedges):
        for v in e:
            h[v, k] = 1.0
    d_e = np.array([len(e) for e in hyperedges], dtype=float)
    d_v = h @ weights
    prop = h @ np.diag(weights / d_e) @ h.T
    scale = np.where(d_v > 0, 1.0 / np.where(d_v > 0, d_v, 1.0), 0.0)
    return np.diag(scale) @ prop @ x @ theta


def dense_hyperatten(n, hyperedges, weights, x, theta, a_node, a_edge):
    h = x @ theta
    z = np.array([h[list(e)].sum(axis=0) for e in hyperedges])
    out = np.zeros_like(h)
    for v in range(n):
        incident = [k for k, e in enumerate(hyperedges) if v in e]
        if not incident:
            continue
        scores = np.array([
            leaky((h[v] @ a_node + z[k] @ a_edge).item()) + np.log(weights[k])
            for k in incident
        ])
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        out[v] = sum(c * z[k] for c, k in zip(alpha, incident))
    return out


def forward(layer, g, x):
    gt = build_graph_tensors(g)
    return layer.forward(gt, ad.Tensor(x)).value


class TestGraphTensors:
    def test_a_hat_symmetric_unit_rows_on_regular_graph(self):
        g = graph(3, [[0, 1], [1, 2], [2, 0]])
        gt = build_graph_tensors(g)
        a = gt.a_hat.toarray()
        np.testing.assert_allclose(a, a.T)
        np.testing.assert_allclose(a.sum(axis=1), np.ones(3))

    def test_mean_adj_rows(self):
        g = graph(3, [[0, 1]])
        rows = build_graph_tensors(g).mean_adj.toarray().sum(axis=1)
        np.testing.assert_allclose(rows, [1.0, 1.0, 0.0])

    def test_attention_pairs_cover_both_directions_and_loops(self):
        g = graph(3, [[0, 1]])
        gt = build_graph_tensors(g)
        pairs = set(zip(gt.a_hat.indices.tolist(), gt.att_dst.tolist()))
        assert pairs == {(0, 1), (1, 0), (0, 0), (1, 1), (2, 2)}

    def test_incidence_pairs(self):
        g = graph(4, hyperedges=[(0, 1, 2), (2, 3)])
        gt = build_graph_tensors(g)
        pairs = list(zip(gt.inc_node.tolist(), gt.incidence.indices.tolist()))
        assert pairs == [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)]

    def test_no_stored_matrix_grows_with_squared_hyperedge_sizes(self):
        # One hyperedge of 300 members: its clique expansion has 90,000 entries.
        n = 300
        edges = [[v, v + 1] for v in range(n - 1)]
        hyperedges = [tuple(range(n))]
        gt = build_graph_tensors(graph(n, edges, hyperedges))
        bound = n + 2 * len(edges) + 2 * sum(len(e) for e in hyperedges)
        stored = {name: getattr(gt, name) for name in STORED_NAMES}
        sizes = {name: v.nnz for name, v in stored.items() if sp.issparse(v)}
        assert set(sizes) == set(STORED_NAMES) - {"att_dst", "inc_node", "log_weights"}
        assert {name: k for name, k in sizes.items() if k > bound} == {}

    def test_every_stored_name_is_listed(self):
        # The tests read the stored structures by name; reading all of them
        # leaves nothing else in the instance beside the graph.
        gt = build_graph_tensors(graph(4, [[0, 1], [1, 2]], [(0, 3), (1, 2, 3)]))
        assert set(vars(gt)) == {"graph"}
        for name in STORED_NAMES:
            getattr(gt, name)
        assert set(vars(gt)) == {"graph", *STORED_NAMES}

    def test_no_pair_array_is_stored_twice(self):
        # One end of each pair list is a pattern's indices; no array field
        # repeats them, and hyper_gather reuses incidence_t's.  Attention
        # reads a_hat's structure, so no 0/1 copy of it is stored.  Each
        # operator and adjoint stores new index arrays only where no other of
        # them holds them: every index array equal to another is shared.
        # The selections hold their own.
        gt = build_graph_tensors(graph(
            6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]], [(4, 0, 2), (1, 5), (3,)]
        ))
        stored = [getattr(gt, name) for name in STORED_NAMES]
        arrays = [v for v in stored if isinstance(v, np.ndarray)]
        matrices = [v for v in stored if sp.issparse(v)]
        indices = [v.indices for v in matrices]
        assert arrays and indices
        assert {v.format for v in matrices} == {"csr"}
        assert not [a for a in arrays for i in indices if np.array_equal(a, i)]
        assert np.shares_memory(gt.hyper_gather.indices, gt.incidence_t.indices)
        assert np.shares_memory(gt.hyper_gather.indptr, gt.incidence_t.indptr)
        # incidence_t is a 0/1 pattern on a read-only array of ones.
        assert not gt.incidence_t.data.flags.writeable
        for adjoint in (gt.hyper_scatter, gt.hyper_gather_t):
            assert np.shares_memory(adjoint.indices, gt.incidence.indices)
            assert np.shares_memory(adjoint.indptr, gt.incidence.indptr)
        assert np.shares_memory(gt.incidence.data, gt.incidence_t.data)
        assert np.shares_memory(gt.hyper_scatter_t.indices, gt.incidence_t.indices)
        assert np.shares_memory(gt.hyper_scatter_t.indptr, gt.incidence_t.indptr)
        shared = [m for name, m in zip(STORED_NAMES, stored)
                  if sp.issparse(m) and name not in SELECTIONS]
        index_arrays = [a for v in shared for a in (v.indices, v.indptr)]
        for a in index_arrays:
            for b in index_arrays:
                if a.dtype == b.dtype and a.tobytes() == b.tobytes():
                    assert np.shares_memory(a, b)


# The structure groups ``GraphTensors`` builds on first read.
ATTENTION = {"a_hat", "att_dst"}
INCIDENCE = {"incidence_t", "incidence", "inc_node", "log_weights"}
HYPERCONV = {"hyper_gather", "hyper_scatter", "hyper_gather_t", "hyper_scatter_t"}
# The names each layer's forward reads, and its training step builds.
BUILT = {"gcn": ATTENTION, "sage": {"mean_adj", "mean_adj_t"}, "gat": ATTENTION,
         "gatv2": ATTENTION | {"src_selection", "dst_selection"},
         "hyperconv": INCIDENCE | HYPERCONV, "hyperatten": INCIDENCE}


def saint_batch():
    g = load(str(DATA / "synthetic_classification.json"))
    rw = SamplerSpec("rw", roots=30, walk_length=3)
    return run_sampler(g, rw, np.random.default_rng(3)).to_graph(g.task)


class TestLazyGroups:
    @pytest.mark.parametrize("name, built", [
        (name, BUILT[name]) for name in ("gcn", "hyperconv", "sage", "gatv2", "hyperatten", "gat")
    ])
    def test_a_layer_builds_only_what_it_reads(self, name, built):
        # A gcn batch builds a_hat and nothing of the incidence group, and
        # a hyperconv batch nothing of the attention group.
        sub = saint_batch()
        gt = build_graph_tensors(sub)
        assert set(vars(gt)) == {"graph"}
        layer = LAYER_TYPES[name](sub.node_features.shape[1], 4, np.random.default_rng(0))
        ad.mean(layer.forward(gt, ad.Tensor(sub.node_features))).backward()
        assert set(vars(gt)) == {"graph"} | built

    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_a_forward_without_a_tape_builds_what_a_training_step_does(self, name):
        # Each adjoint is built with its operator, so a forward that will
        # never run a backward builds the same names, adjoints included.
        sub = saint_batch()
        gt = build_graph_tensors(sub)
        layer = LAYER_TYPES[name](sub.node_features.shape[1], 4, np.random.default_rng(0))
        with ad.no_grad():
            layer.forward(gt, ad.Tensor(sub.node_features))
        assert set(vars(gt)) == {"graph"} | BUILT[name]

    def test_groups_are_kept_on_the_graph_read_only(self):
        # A second GraphTensors of the graph reads the same stored arrays,
        # which no reader can write.
        sub = saint_batch()
        layer = LAYER_TYPES["gatv2"](sub.node_features.shape[1], 4, np.random.default_rng(0))
        ad.mean(layer.forward(build_graph_tensors(sub), ad.Tensor(sub.node_features))).backward()
        gt = build_graph_tensors(sub)
        for name in ATTENTION | {"src_selection", "dst_selection"}:
            value = getattr(gt, name)
            assert value is getattr(build_graph_tensors(sub), name)
            arrays = (value.data, value.indices, value.indptr) if sp.issparse(value) else (value,)
            assert not any(a.flags.writeable for a in arrays), name

    @pytest.mark.parametrize("name", ["sage", "hyperconv"])
    def test_a_graph_holding_groups_pickles_without_them(self, name):
        # The groups are a cache: a pickled graph carries none and builds
        # its own.
        sub = saint_batch()
        layer = LAYER_TYPES[name](sub.node_features.shape[1], 4, np.random.default_rng(0))
        x = ad.Tensor(sub.node_features)
        ad.mean(layer.forward(build_graph_tensors(sub), x)).backward()
        copy = pickle.loads(pickle.dumps(sub))
        assert not vars(copy)["graph_tensor_groups"]
        np.testing.assert_array_equal(layer.forward(build_graph_tensors(copy), x).value,
                                      layer.forward(build_graph_tensors(sub), x).value)

    def test_hyper_prop_leaves_no_group_on_the_graph(self):
        sub = saint_batch()
        gt = build_graph_tensors(sub)
        prop = gt.hyper_prop
        assert "graph_tensor_groups" not in vars(sub) and set(vars(gt)) == {"graph"}
        assert (prop != (gt.hyper_scatter @ gt.hyper_gather).tocsr()).nnz == 0

    def test_build_checks_the_graph_at_once(self):
        g = graph(3, [[1, 1]])
        with pytest.raises(ValueError, match="self-loop"):
            build_graph_tensors(g)


def count_constructors(monkeypatch) -> list:
    """The formats of the scipy sparse matrices constructed from now on."""
    calls = []
    init = _cs_matrix.__init__
    monkeypatch.setattr(_cs_matrix, "__init__",
                        lambda self, *args, **kwargs: (calls.append(self.format),
                                                       init(self, *args, **kwargs))[1])
    return calls


def record_tensors(monkeypatch) -> list:
    """The autodiff tensors constructed from now on."""
    made = []
    init = ad.Tensor.__init__
    monkeypatch.setattr(ad.Tensor, "__init__",
                        lambda self, *args: (init(self, *args), made.append(self))[0])
    return made


STEP_MODELS = sorted(LAYER_TYPES) + ["lp:gcn+hyperconv"]


def training_step(g, name):
    """``train_single``'s full-batch step on ``g``, as a closure returning (out, loss)."""
    rng = np.random.default_rng(0)
    model = build_model(ModelSpec(name), g.node_features.shape[1], 2, rng, True)
    gt, rows = build_graph_tensors(g), split(g, 0).train
    optimizer = Adam(model.params())

    def step(backward=True):
        optimizer.zero_grad()
        out = model.forward(gt, rng=rng, training=True)
        loss = _loss_on(out, g, rows)
        if backward:
            loss.backward()
            optimizer.step(0.01)
        return out, loss

    return model, step


class TestConstructorCount:
    # scipy constructor calls in one full-batch training step after the
    # first: every operator and adjoint is built by then.  Only edge_mix
    # still builds a mixing matrix per forward and takes its transpose per
    # backward, two per attention layer.
    @pytest.mark.parametrize("name, per_step", [
        ("gcn", 0), ("sage", 0), ("hyperconv", 0), ("lp:gcn+hyperconv", 0),
        ("gat", 4), ("gatv2", 4), ("hyperatten", 4),
    ])
    def test_constructors_per_training_step(self, name, per_step, monkeypatch):
        _, step = training_step(load(str(DATA / "synthetic_classification.json")), name)
        step()
        calls = count_constructors(monkeypatch)
        step()
        assert len(calls) == per_step, calls

    @pytest.mark.parametrize("name", ["gcn", "sage", "hyperconv", "lp:gcn+hyperconv"])
    def test_a_second_experiment_on_the_graph_builds_nothing(self, name, monkeypatch):
        # Operators and adjoints are kept on the graph object, so later
        # trials and calls reuse them, evaluation included.
        g = load(str(DATA / "synthetic_classification.json"))
        cfg = TrainConfig(epochs=2, trials=2)
        run_experiment(g, ModelSpec(name), cfg, 0)
        calls = count_constructors(monkeypatch)
        run_experiment(g, ModelSpec(name), cfg, 0)
        assert calls == []


def full_graph_model(name):
    g = load(str(DATA / "synthetic_classification.json"))
    model = build_model(ModelSpec(name, dropout=0.3), g.node_features.shape[1], 2,
                        np.random.default_rng(4), True)
    return g, model


class TestNoGrad:
    @pytest.mark.parametrize("name", sorted(LAYER_TYPES))
    def test_same_values_and_no_tape(self, name, monkeypatch):
        g, model = full_graph_model(name)
        gt = build_graph_tensors(g)
        taped = model.forward(gt, training=False)
        assert taped.parents
        made = record_tensors(monkeypatch)
        with ad.no_grad():
            out = model.forward(gt, training=False)
        assert out.value.tobytes() == taped.value.tobytes()
        assert len(made) > 4 and out in made
        assert all(t.parents == () and t._backward is None for t in made)

    def test_state_restored_on_exit_and_on_error(self):
        x = ad.Tensor(np.ones((2, 2)))
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.relu(x).parents == ()  # the inner block restores "off"
        assert ad.relu(x).parents == (x,)
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("inside")
        taped = ad.relu(x)
        assert taped.parents == (x,) and taped._backward is not None


class TestTapeRelease:
    @pytest.mark.parametrize("name", STEP_MODELS)
    def test_backward_consumes_the_tape(self, name):
        g = load(str(DATA / "synthetic_classification.json"))
        model, step = training_step(g, name)
        _, loss = step(backward=False)
        tape = ad._topological(loss)  # every tensor the forward made, kept alive
        inner = [t for t in tape if t._backward is not None]
        leaves = [t for t in tape if t._backward is None]
        assert len(inner) > 4
        loss.backward()
        assert all(t.grad is None and t.parents == () and t._backward is None for t in inner)
        params = model.params()
        assert sorted(map(id, leaves)) == sorted(map(id, params))  # the features are no leaf
        assert all(p.grad is not None for p in params)
        grads = [p.grad.tobytes() for p in params]
        loss.backward()  # the walked root has no tape left
        assert [p.grad.tobytes() for p in params] == grads


class TestFeaturesTakeNoGradient:
    @pytest.mark.parametrize("name", STEP_MODELS)
    def test_no_tensor_holds_the_features(self, name, monkeypatch):
        # The features enter as a constant: no step wraps them in a Tensor,
        # so none takes a gradient.  d_in = 8 is neither the hidden width
        # (32) nor the class count (2), so no other tensor has their shape.
        g = load(str(DATA / "synthetic_classification.json"))
        assert g.node_features.shape[1] not in (ModelSpec(name).hidden, 2)
        _, step = training_step(g, name)
        made = record_tensors(monkeypatch)
        step()
        assert len(made) > 4
        assert all(t.shape != g.node_features.shape for t in made)


class TestStepMemory:
    # Traced peak of one full-batch step on 5k nodes, d=32, with the previous
    # step's out and loss still bound (as train_single binds them), in units
    # of one (n, 32) float64 array.  Measured: gcn 7.5, sage 10.6, gat 8.6,
    # gatv2 13.8, hyperconv 7.7, hyperatten 7.9 and lp 13.3.  A tape that
    # outlives its backward, or gradients kept until backward returns, read
    # 27-55 units.
    BOUNDS = {"gcn": 9, "sage": 12, "gat": 10, "gatv2": 16, "hyperconv": 9,
              "hyperatten": 9, "lp:gcn+hyperconv": 15}
    N = 5000

    @pytest.fixture(scope="class")
    def large(self):
        return make_classification_graph(num_nodes=self.N, feature_dim=32,
                                         num_hyperedges=self.N // 5, seed=0)

    @pytest.mark.parametrize("name", STEP_MODELS)
    def test_step_peak_is_bounded(self, large, name):
        model, step = training_step(large, name)
        with ad.no_grad():  # builds the graph's operators
            model.forward(build_graph_tensors(large))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, loss = step()
            tracemalloc.reset_peak()
            out, loss = step()
            units = (tracemalloc.get_traced_memory()[1] - base) / (self.N * 32 * 8)
        finally:
            tracemalloc.stop()
        assert units < self.BOUNDS[name]


class TestGCN:
    def test_single_edge_fixture(self):
        g = graph(2, [[0, 1]], x=np.array([[1.0], [0.0]]))
        layer = GCNLayer(1, 1, np.random.default_rng(0))
        layer.theta.value = np.array([[1.0]])
        np.testing.assert_allclose(forward(layer, g, g.node_features),
                                   [[0.5], [0.5]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(8):
            n = int(rng.integers(3, 10))
            edges = sorted({(int(min(u, v)), int(max(u, v)))
                            for u, v in rng.integers(0, n, size=(n, 2)) if u != v})
            x = rng.standard_normal((n, 3))
            g = graph(n, edges, x=x)
            layer = GCNLayer(3, 2, rng)
            got = forward(layer, g, x)
            want = dense_gcn(n, edges, x, layer.theta.value)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        g = graph(4, [[0, 1], [1, 2], [2, 3]])
        gt = build_graph_tensors(g)
        layer = GCNLayer(3, 2, rng)
        x = ad.Tensor(rng.standard_normal((4, 3)))
        mix = rng.standard_normal((2, 1))
        gradcheck(lambda: ad.mean(ad.matmul(layer.forward(gt, x), mix)),
                  [x, layer.theta])


class TestSAGE:
    def test_path_fixture(self):
        g = graph(3, [[0, 1], [1, 2]], x=np.array([[0.0], [1.0], [2.0]]))
        layer = SAGELayer(1, 1, np.random.default_rng(0))
        layer.theta_self.value = np.array([[1.0]])
        layer.theta_nbr.value = np.array([[1.0]])
        np.testing.assert_allclose(forward(layer, g, g.node_features),
                                   [[1.0], [2.0], [3.0]])

    def test_isolated_node_keeps_self_term_only(self):
        x = np.array([[2.0], [5.0], [7.0]])
        g = graph(3, [[0, 1]], x=x)
        layer = SAGELayer(1, 1, np.random.default_rng(0))
        layer.theta_self.value = np.array([[1.0]])
        layer.theta_nbr.value = np.array([[10.0]])
        out = forward(layer, g, x)
        np.testing.assert_allclose(out[2], [7.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            n = int(rng.integers(3, 10))
            edges = sorted({(int(min(u, v)), int(max(u, v)))
                            for u, v in rng.integers(0, n, size=(n, 2)) if u != v})
            x = rng.standard_normal((n, 3))
            g = graph(n, edges, x=x)
            layer = SAGELayer(3, 2, rng)
            want = dense_sage(n, edges, x,
                              layer.theta_self.value, layer.theta_nbr.value)
            np.testing.assert_allclose(forward(layer, g, x), want,
                                       rtol=1e-10, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        g = graph(4, [[0, 1], [1, 2]])
        gt = build_graph_tensors(g)
        layer = SAGELayer(2, 2, rng)
        x = ad.Tensor(rng.standard_normal((4, 2)))
        mix = rng.standard_normal((2, 1))
        gradcheck(lambda: ad.mean(ad.matmul(layer.forward(gt, x), mix)),
                  [x] + layer.params())


class TestGAT:
    def test_attention_rows_mix_to_one_with_identity_messages(self):
        # with h all ones every output row is the attention row sum
        g = graph(4, [[0, 1], [1, 2], [2, 3]], x=np.ones((4, 1)))
        layer = GATLayer(1, 1, np.random.default_rng(5))
        layer.theta.value = np.array([[1.0]])
        out = forward(layer, g, g.node_features)
        np.testing.assert_allclose(out, np.ones((4, 1)), rtol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(8):
            n = int(rng.integers(3, 9))
            edges = sorted({(int(min(u, v)), int(max(u, v)))
                            for u, v in rng.integers(0, n, size=(n, 2)) if u != v})
            x = rng.standard_normal((n, 3))
            g = graph(n, edges, x=x)
            layer = GATLayer(3, 2, rng)
            want = dense_gat(n, edges, x, layer.theta.value,
                             layer.a_src.value, layer.a_dst.value)
            np.testing.assert_allclose(forward(layer, g, x), want,
                                       rtol=1e-9, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        g = graph(4, [[0, 1], [1, 2], [0, 2]])
        gt = build_graph_tensors(g)
        layer = GATLayer(2, 2, rng)
        x = ad.Tensor(rng.standard_normal((4, 2)))
        mix = rng.standard_normal((2, 1))
        gradcheck(lambda: ad.mean(ad.matmul(layer.forward(gt, x), mix)),
                  [x] + layer.params(), step=1e-6, rtol=5e-4)


class TestGATv2:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(8):
            n = int(rng.integers(3, 9))
            edges = sorted({(int(min(u, v)), int(max(u, v)))
                            for u, v in rng.integers(0, n, size=(n, 2)) if u != v})
            x = rng.standard_normal((n, 3))
            g = graph(n, edges, x=x)
            layer = GATv2Layer(3, 2, rng)
            want = dense_gatv2(n, edges, x, layer.theta_l.value,
                               layer.theta_r.value, layer.a.value)
            np.testing.assert_allclose(forward(layer, g, x), want,
                                       rtol=1e-9, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        g = graph(4, [[0, 1], [1, 2], [2, 3]])
        gt = build_graph_tensors(g)
        layer = GATv2Layer(2, 2, rng)
        x = ad.Tensor(rng.standard_normal((4, 2)))
        mix = rng.standard_normal((2, 1))
        gradcheck(lambda: ad.mean(ad.matmul(layer.forward(gt, x), mix)),
                  [x] + layer.params(), step=1e-6, rtol=5e-4)

    def test_passes_hold_at_most_one_pair_array(self):
        # Each (pairs, d) float64 array is 8 MB here: k = 32k attention pairs.
        rng = np.random.default_rng(10)
        n, d = 1000, 32
        pairs = np.unique(np.sort(rng.integers(n, size=(16_000, 2)), axis=1), axis=0)
        g = graph(n, pairs[pairs[:, 0] != pairs[:, 1]])
        gt = build_graph_tensors(g)
        k = gt.att_dst.size
        pair_array = k * d * 8
        layer = GATv2Layer(d, d, rng)
        x = ad.Tensor(rng.standard_normal((n, d)))
        mix = rng.standard_normal((d, 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = layer.forward(gt, x)
            forward_peak = tracemalloc.get_traced_memory()[1] - before
            root = ad.mean(ad.matmul(out, mix))
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            root.backward()
            backward_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert k > 30_000
        assert forward_peak < pair_array
        assert backward_peak < 2 * pair_array


class TestHyperConv:
    def test_pair_fixture(self):
        g = graph(2, hyperedges=[(0, 1)], x=np.array([[1.0], [3.0]]))
        layer = HyperConvLayer(1, 1, np.random.default_rng(0))
        layer.theta.value = np.array([[1.0]])
        np.testing.assert_allclose(forward(layer, g, g.node_features),
                                   [[2.0], [2.0]])

    def test_node_outside_all_hyperedges_gets_zero(self):
        x = np.array([[1.0], [1.0], [5.0]])
        g = graph(3, hyperedges=[(0, 1)], x=x)
        layer = HyperConvLayer(1, 1, np.random.default_rng(0))
        layer.theta.value = np.array([[1.0]])
        out = forward(layer, g, x)
        np.testing.assert_allclose(out[2], [0.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(10)

        def check(n, hyperedges, weights):
            x = rng.standard_normal((n, 3))
            g = graph(n, hyperedges=hyperedges, weights=weights, x=x)
            layer = HyperConvLayer(3, 2, rng)
            want = dense_hyperconv(n, hyperedges, weights, x, layer.theta.value)
            np.testing.assert_allclose(forward(layer, g, x), want,
                                       rtol=1e-10, atol=1e-12)
            # The derived clique-expanded matrix is the same operator.
            prop = dense_hyperconv(n, hyperedges, weights, np.eye(n), np.eye(n))
            np.testing.assert_allclose(build_graph_tensors(g).hyper_prop.toarray(),
                                       prop, rtol=1e-10, atol=1e-12)

        for trial in range(8):
            n = int(rng.integers(4, 10))
            hyperedges = tuple(
                tuple(sorted(rng.choice(
                    n, size=int(rng.integers(2, 4)), replace=False).tolist()))
                for _ in range(int(rng.integers(1, 4)))
            )
            check(n, hyperedges, rng.uniform(0.5, 2.0, size=len(hyperedges)))
        # Overlapping hyperedges of 1 to n members, then a duplicate of the
        # first (weight 3) and one holding every node; no weight is 1.
        for trial in range(8):
            n = int(rng.integers(2, 12))
            hyperedges = [
                tuple(sorted(rng.choice(
                    n, size=int(rng.integers(1, n + 1)), replace=False).tolist()))
                for _ in range(int(rng.integers(1, 5)))
            ]
            hyperedges += [hyperedges[0], tuple(range(n))]
            weights = rng.uniform(0.5, 2.0, size=len(hyperedges))
            weights[-2] = 3.0
            check(n, tuple(hyperedges), weights)

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        g = graph(4, hyperedges=[(0, 1, 2), (2, 3)])
        gt = build_graph_tensors(g)
        layer = HyperConvLayer(2, 2, rng)
        x = ad.Tensor(rng.standard_normal((4, 2)))
        mix = rng.standard_normal((2, 1))
        gradcheck(lambda: ad.mean(ad.matmul(layer.forward(gt, x), mix)),
                  [x, layer.theta])


class TestHyperAtten:
    def test_single_incidence_passes_edge_message_through(self):
        x = np.array([[1.0], [2.0]])
        g = graph(2, hyperedges=[(0, 1)], weights=np.array([7.0]), x=x)
        layer = HyperAttenLayer(1, 1, np.random.default_rng(12))
        layer.theta.value = np.array([[1.0]])
        out = forward(layer, g, x)
        # the only incident hyperedge gets attention 1 whatever its weight
        np.testing.assert_allclose(out, [[3.0], [3.0]])

    def test_node_outside_all_hyperedges_gets_zero(self):
        x = np.array([[1.0], [1.0], [4.0]])
        g = graph(3, hyperedges=[(0, 1)], x=x)
        layer = HyperAttenLayer(1, 1, np.random.default_rng(13))
        out = forward(layer, g, x)
        np.testing.assert_allclose(out[2], [0.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(14)
        for trial in range(8):
            n = int(rng.integers(4, 10))
            hyperedges = tuple(
                tuple(sorted(rng.choice(
                    n, size=int(rng.integers(2, 4)), replace=False).tolist()))
                for _ in range(int(rng.integers(1, 4)))
            )
            weights = rng.uniform(0.5, 2.0, size=len(hyperedges))
            x = rng.standard_normal((n, 3))
            g = graph(n, hyperedges=hyperedges, weights=weights, x=x)
            layer = HyperAttenLayer(3, 2, rng)
            want = dense_hyperatten(n, hyperedges, weights, x, layer.theta.value,
                                    layer.a_node.value, layer.a_edge.value)
            np.testing.assert_allclose(forward(layer, g, x), want,
                                       rtol=1e-9, atol=1e-12)

    def test_weight_doubles_the_odds(self):
        # two identical hyperedges, one with twice the weight: attention 2:1
        x = np.array([[1.0], [1.0]])
        g = graph(2, hyperedges=[(0, 1), (0, 1)],
                  weights=np.array([2.0, 1.0]), x=x)
        layer = HyperAttenLayer(1, 1, np.random.default_rng(15))
        layer.theta.value = np.array([[1.0]])
        layer.a_node.value = np.zeros((1, 1))
        layer.a_edge.value = np.zeros((1, 1))
        out = forward(layer, g, x)
        # both messages are 2; mixing weights must still sum to 1
        np.testing.assert_allclose(out, [[2.0], [2.0]])

    def test_gradcheck(self):
        rng = np.random.default_rng(16)
        g = graph(4, hyperedges=[(0, 1, 2), (2, 3), (1, 3)],
                  weights=np.array([1.0, 2.0, 0.5]))
        gt = build_graph_tensors(g)
        layer = HyperAttenLayer(2, 2, rng)
        x = ad.Tensor(rng.standard_normal((4, 2)))
        mix = rng.standard_normal((2, 1))
        gradcheck(lambda: ad.mean(ad.matmul(layer.forward(gt, x), mix)),
                  [x] + layer.params(), step=1e-6, rtol=5e-4)


class TestPermutationEquivariance:
    def permuted(self, g, perm, x):
        xp = np.empty_like(x)
        xp[perm] = x
        edges = (perm[g.simple_edges] if g.simple_edges.size
                 else g.simple_edges)
        return HybridGraph(
            node_features=xp,
            simple_edges=edges,
            hyperedges=tuple(tuple(int(perm[v]) for v in e)
                             for e in g.hyperedges),
            hyperedge_weights=g.hyperedge_weights,
        ), xp

    @pytest.mark.parametrize("layer_type", [
        GCNLayer, SAGELayer, GATLayer, GATv2Layer,
        HyperConvLayer, HyperAttenLayer,
    ])
    def test_outputs_permute_with_nodes(self, layer_type):
        rng = np.random.default_rng(17)
        n = 7
        x = rng.standard_normal((n, 3))
        g = graph(
            n,
            edges=[[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [0, 3]],
            hyperedges=[(0, 1, 2), (3, 4), (5, 6)],
            weights=np.array([1.0, 2.0, 0.7]),
            x=x,
        )
        layer = layer_type(3, 2, np.random.default_rng(99))
        base = forward(layer, g, x)
        perm = rng.permutation(n)
        gp, xp = self.permuted(g, perm, x)
        same_params = layer_type(3, 2, np.random.default_rng(99))
        out = forward(same_params, gp, xp)
        np.testing.assert_allclose(out[perm], base, rtol=1e-9, atol=1e-12)


class TestMemberOrder:
    @staticmethod
    def random_graph(rng):
        n = int(rng.integers(12, 60))
        edges = rng.integers(n, size=(2 * n, 2))
        edges = np.unique(np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1), axis=0)
        hyperedges = [rng.choice(n, size=int(rng.integers(1, 11)), replace=False).tolist()
                      for _ in range(int(rng.integers(3, 25)))]
        return graph(n, edges, hyperedges, weights=rng.uniform(0.5, 2.0, len(hyperedges)),
                     x=rng.standard_normal((n, 3)))

    @staticmethod
    def outputs_and_grads(layer, g, upstream):
        for p in layer.params():
            p.grad = None
        x = ad.Tensor(g.node_features)
        out = layer.forward(build_graph_tensors(g), x)
        ad.mean(ad.dropout(out, upstream, 1.0)).backward()
        return [out.value, x.grad] + [p.grad for p in layer.params()]

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("layer_type", [
        GCNLayer, SAGELayer, GATLayer, GATv2Layer, HyperConvLayer, HyperAttenLayer,
    ])
    def test_member_order_changes_no_bit(self, layer_type, seed):
        rng = np.random.default_rng(880 + seed)
        g = self.random_graph(rng)
        shuffled = dataclasses.replace(g, hyperedges=tuple(
            tuple(rng.permutation(e).tolist()) for e in g.hyperedges))
        assert shuffled.hyperedges != g.hyperedges
        layer = layer_type(3, 4, np.random.default_rng(seed))
        upstream = rng.standard_normal((g.num_nodes, 4))
        got = self.outputs_and_grads(layer, shuffled, upstream)
        want = self.outputs_and_grads(layer, g, upstream)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
