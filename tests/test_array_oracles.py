"""The array code of the graph core, the samplers and the autodiff
scatters against plain loops.

Each reference below is the straightforward Python loop (or ``np.add.at``
scatter) that the array version replaced; the tests compare the two on
random and on crafted inputs, field for field, message for message and,
for floats, bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from hygraph import HybridGraph, validate
from hygraph.nn import autodiff as ad
from hygraph.nn.autodiff import _accumulate
from hygraph.nn.layers import LAYER_TYPES, LEAKY_SLOPE, build_graph_tensors
from hygraph.sampling import induce, weighted_sample_without_replacement

# -- reference loops -------------------------------------------------------


def induce_loop(g, node_ids):
    ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    local = np.full(g.num_nodes, -1, dtype=np.int64)
    local[ids] = np.arange(ids.size)
    kept_he, kept_idx = [], []
    for k, e in enumerate(g.hyperedges):
        members = [int(local[v]) for v in e if local[v] >= 0]
        if members:
            kept_he.append(tuple(sorted(members)))
            kept_idx.append(k)
    return tuple(kept_he), np.asarray(kept_idx, dtype=np.int64)


def parent_cycle_loop(parent):
    n = parent.shape[0]
    state = np.zeros(n, dtype=np.int8)  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
        if state[start]:
            continue
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            if parent[v] == v:
                break
            v = int(parent[v])
        if state[v] == 1 and parent[v] != v:
            return ["parent cycle"]
        for u in path:
            state[u] = 2
    return []


def validate_loop(g):
    out = []
    n = g.num_nodes
    if g.labels.shape[0] != n:
        out.append(f"labels length {g.labels.shape[0]} != num_nodes {n}")
    if g.parent.shape[0] != n:
        out.append(f"parent length {g.parent.shape[0]} != num_nodes {n}")
    if g.hyperedge_weights.shape[0] != g.num_hyperedges:
        out.append(
            f"hyperedge_weights length {g.hyperedge_weights.shape[0]} != "
            f"num_hyperedges {g.num_hyperedges}"
        )
    if g.hyperedge_features is not None and g.hyperedge_features.shape[0] != g.num_hyperedges:
        out.append(
            f"hyperedge_features rows {g.hyperedge_features.shape[0]} != "
            f"num_hyperedges {g.num_hyperedges}"
        )
    edges = g.simple_edges
    if edges.size:
        bad = (edges < 0) | (edges >= n)
        for i in np.nonzero(bad.any(axis=1))[0]:
            out.append(f"edge index out of range at edge {i}")
        for i in np.nonzero(edges[:, 0] == edges[:, 1])[0]:
            out.append(f"self-loop at edge {i}")
        seen = set()
        for i, (u, v) in enumerate(edges):
            key = (int(min(u, v)), int(max(u, v)))
            if key in seen:
                out.append(f"duplicate edge at index {i}")
            seen.add(key)
    for k, e in enumerate(g.hyperedges):
        if len(e) == 0:
            out.append(f"empty hyperedge at index {k}")
            continue
        if len(set(e)) != len(e):
            out.append(f"duplicate members in hyperedge {k}")
        if any(v < 0 or v >= n for v in e):
            out.append(f"hyperedge member out of range at index {k}")
    if (g.hyperedge_weights <= 0).any():
        idx = int(np.nonzero(g.hyperedge_weights <= 0)[0][0])
        out.append(f"non-positive hyperedge weight at index {idx}")
    if (~np.isfinite(g.hyperedge_weights)).any():
        idx = int(np.nonzero(~np.isfinite(g.hyperedge_weights))[0][0])
        out.append(f"non-finite hyperedge weight at index {idx}")
    if g.parent.shape[0] == n and n:
        if ((g.parent < 0) | (g.parent >= n)).any():
            out.append("parent index out of range")
        else:
            out.extend(parent_cycle_loop(g.parent))
    return out


def neighbour_loop(g):
    nbrs = [set() for _ in range(g.num_nodes)]
    for u, v in g.simple_edges:
        nbrs[u].add(int(v))
        nbrs[v].add(int(u))
    return [sorted(s) for s in nbrs]


def adjacency_tensors_from_edges(g):
    """``a_hat``, ``mean_adj`` and the attention pairs built from the edge
    pairs: the matrices as a COO sum, the pairs by one lexsort."""
    n = g.num_nodes
    edges = g.simple_edges
    if edges.size:
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        data = np.ones(rows.size, dtype=np.float64)
        adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    else:
        adj = sp.csr_matrix((n, n), dtype=np.float64)
    with_loops = (adj + sp.eye(n, format="csr")).tocsr()
    inv_sqrt = 1.0 / np.sqrt(np.asarray(with_loops.sum(axis=1)).ravel())
    a_hat = sp.diags(inv_sqrt) @ with_loops @ sp.diags(inv_sqrt)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_deg = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    mean_adj = sp.diags(inv_deg) @ adj
    loops = np.arange(n, dtype=np.int64)
    att_src = np.concatenate([edges[:, 0], edges[:, 1], loops])
    att_dst = np.concatenate([edges[:, 1], edges[:, 0], loops])
    order = np.lexsort((att_src, att_dst))
    return a_hat.tocsr(), mean_adj.tocsr(), att_src[order], att_dst[order]


# -- graphs ----------------------------------------------------------------


def random_graph(rng, n, num_hyperedges, edge_features=False, hierarchy=False):
    """Unsorted hyperedges of mixed size; some nodes in nothing at all."""
    reach = max(1, n - 3)  # the last nodes stay isolated
    edges = rng.integers(reach, size=(2 * n, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    hyperedges = tuple(
        tuple(int(v) for v in rng.choice(reach, size=rng.integers(1, min(6, reach + 1)),
                                         replace=False))
        for _ in range(num_hyperedges)
    )
    parent = None
    if hierarchy:  # each node points at itself or an earlier node: acyclic
        parent = np.where(rng.random(n) < 0.4, np.arange(n),
                          (rng.random(n) * np.arange(n)).astype(np.int64))
    return HybridGraph(
        node_features=rng.standard_normal((n, 3)),
        simple_edges=edges,
        hyperedges=hyperedges,
        hyperedge_weights=rng.uniform(0.5, 2.0, size=num_hyperedges),
        hyperedge_features=rng.standard_normal((num_hyperedges, 2)) if edge_features else None,
        parent=parent,
    )


def bare(n, edges=(), hyperedges=(), **kwargs):
    return HybridGraph(
        node_features=np.zeros((n, 1)),
        simple_edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        hyperedges=tuple(tuple(e) for e in hyperedges),
        **kwargs,
    )


# -- induce ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_induce_matches_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    g = random_graph(rng, n, int(rng.integers(0, 15)),
                     edge_features=seed % 2 == 0, hierarchy=seed % 3 == 0)
    assert g.violations == ()
    for size in (0, 1, n // 3, n):
        ids = rng.choice(n, size=size, replace=True)
        sub = induce(g, ids)
        hyperedges, kept = induce_loop(g, ids)
        assert sub.hyperedges == hyperedges
        assert all(type(v) is int for e in sub.hyperedges for v in e)
        np.testing.assert_array_equal(sub.hyperedge_ids, kept)
        assert sub.hyperedge_ids.dtype == np.int64
        np.testing.assert_array_equal(sub.hyperedge_weights, g.hyperedge_weights[kept])
        if g.hyperedge_features is None:
            assert sub.hyperedge_features is None
        else:
            np.testing.assert_array_equal(sub.hyperedge_features, g.hyperedge_features[kept])
        assert sub.to_graph().violations == ()


def test_induce_without_hyperedges():
    g = bare(4, edges=[[0, 1], [2, 3]])
    sub = induce(g, [1, 2, 3])
    assert sub.hyperedges == ()
    assert sub.hyperedge_ids.dtype == np.int64 and sub.hyperedge_ids.size == 0
    assert sub.hyperedge_weights.size == 0


def test_induce_keeps_duplicate_members_sorted():
    # Invalid input still masks like the loop: duplicates kept, order sorted.
    g = bare(5, hyperedges=[(4, 1, 4, 0), (3,), (2, 0)])
    for ids in ([0, 1, 4], [3], [2, 4]):
        assert induce(g, ids).hyperedges == induce_loop(g, ids)[0]


# -- validate --------------------------------------------------------------


CRAFTED = {
    "valid": bare(4, edges=[[0, 1], [2, 3]], hyperedges=[(0, 1, 2)]),
    "edge out of range": bare(3, edges=[[0, 1], [0, 3], [-1, 2], [1, 2]]),
    "self-loops": bare(3, edges=[[1, 1], [0, 2], [2, 2]]),
    "duplicates both ways": bare(
        4, edges=[[0, 1], [1, 0], [2, 3], [0, 1], [3, 2], [1, 2]]),
    "loops, range and duplicates": bare(
        3, edges=[[2, 2], [0, 5], [5, 0], [2, 2], [1, 0], [0, 1]]),
    "empty hyperedges": bare(3, hyperedges=[(), (0, 1), ()]),
    "duplicate members": bare(3, hyperedges=[(0, 0), (1, 2), (2, 1, 2)]),
    "members out of range": bare(3, hyperedges=[(0, 3), (-1, 1), (1, 2)]),
    "mixed hyperedges": bare(3, hyperedges=[(5, 5), (), (0, 1), (1, -2, 1)]),
    "non-positive weights": bare(3, hyperedges=[(0, 1), (1, 2), (0, 2)],
                                 hyperedge_weights=np.array([1.0, 0.0, -2.0])),
    "non-finite weights": bare(3, hyperedges=[(0, 1), (1, 2), (0, 2), (2, 1)],
                               hyperedge_weights=np.array([1.0, np.inf, np.nan, -np.inf])),
    "nan weight": bare(3, hyperedges=[(0, 1), (1, 2)],
                       hyperedge_weights=np.array([2.0, np.nan])),
    "parent cycle": bare(5, parent=np.array([1, 2, 0, 3, 3])),
    "long parent cycle": bare(6, parent=np.array([0, 2, 3, 4, 5, 1])),
    "self parent chain": bare(5, parent=np.array([0, 0, 1, 2, 3])),
    "parent out of range": bare(3, parent=np.array([0, 5, 1])),
    "wrong lengths": bare(3, hyperedges=[(0, 1)], labels=np.zeros(2),
                          hyperedge_weights=np.ones(2),
                          hyperedge_features=np.ones((3, 2))),
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_validate_matches_loop_on_crafted_graphs(name):
    g = CRAFTED[name]
    expected = validate_loop(g)
    assert validate(g) == expected
    assert (expected == []) == (name in ("valid", "self parent chain"))


@pytest.mark.parametrize("seed", range(30))
def test_validate_matches_loop_on_random_invalid_graphs(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 12))
    edges = rng.integers(-1, n + 1, size=(int(rng.integers(0, 15)), 2))
    hyperedges = [tuple(rng.integers(-1, n + 1, size=rng.integers(0, 5)).tolist())
                  for _ in range(int(rng.integers(0, 6)))]
    g = bare(n, edges=edges, hyperedges=hyperedges,
             hyperedge_weights=rng.choice([-1.0, 0.0, 1.0, 2.0], size=len(hyperedges)),
             parent=rng.integers(n, size=n))
    assert validate(g) == validate_loop(g)


@pytest.mark.parametrize("seed", range(20))
def test_parent_cycle_matches_loop_on_random_parents(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(1, 60))
    # Mostly roots and downward links, sometimes a cycle of any length.
    parent = np.where(rng.random(n) < 0.3, np.arange(n),
                      (rng.random(n) * np.arange(n)).astype(np.int64))
    if seed % 2:
        cycle = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        parent[cycle] = np.roll(cycle, 1)
    g = bare(n, parent=parent)
    assert validate(g) == validate_loop(g)


# -- neighbours --------------------------------------------------------------


def test_csr_rows_match_sorted_neighbour_sets():
    # Duplicates in both orientations and a self-loop: invalid, yet the
    # neighbour rows stay the de-duplicated sorted sets.
    g = bare(6, edges=[[0, 3], [3, 0], [2, 2], [1, 4], [0, 3], [4, 0], [2, 1]])
    indptr, indices = g.adjacency_csr
    reference = neighbour_loop(g)
    assert indptr.shape == (7,) and indptr[0] == 0 and indptr[-1] == indices.size
    for v in range(g.num_nodes):
        row = indices[indptr[v]:indptr[v + 1]].tolist()
        assert row == reference[v] == sorted(g.adjacency_sets[v])
    assert g.adjacency_sets[5] == frozenset()


@pytest.mark.parametrize("seed", range(5))
def test_csr_rows_match_loop_on_random_graphs(seed):
    rng = np.random.default_rng(300 + seed)
    g = random_graph(rng, int(rng.integers(1, 50)), 0)
    indptr, indices = g.adjacency_csr
    rows = [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
    assert rows == neighbour_loop(g)


def test_csr_rejects_out_of_range_edges():
    with pytest.raises(ValueError, match="out of range"):
        bare(3, edges=[[0, 3]]).adjacency_csr


@pytest.mark.parametrize("seed", range(8))
def test_adjacency_tensors_match_edge_list_construction(seed):
    # Seeds 0 and 1 have no edges at all; random graphs leave their last
    # nodes isolated.
    rng = np.random.default_rng(500 + seed)
    if seed == 0:
        g = bare(4)
    elif seed == 1:
        g = bare(1)
    else:
        g = random_graph(rng, int(rng.integers(2, 60)), 3)
    gt = build_graph_tensors(g)
    a_hat, mean_adj, att_src, att_dst = adjacency_tensors_from_edges(g)
    for got, want in ((gt.a_hat, a_hat), (gt.mean_adj, mean_adj)):
        for field in ("data", "indices", "indptr"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
    pairs = gt.att_pattern.tocoo()
    for got, want in ((pairs.col, att_src), (pairs.row, att_dst), (gt.att_dst, att_dst)):
        np.testing.assert_array_equal(got, want)
    assert gt.att_dst.dtype == att_dst.dtype


# -- weighted draws ------------------------------------------------------------


class FixedKeys:
    """An rng stand-in whose exponential draws are given, so keys can tie."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def exponential(self, size):
        assert size == self.draws.size
        return self.draws.copy()


def argsort_reference(weights, k, draws):
    alive = np.flatnonzero(weights > 0)
    keys = draws / weights[alive]
    return alive[np.argsort(keys, kind="stable")[:k]]


@pytest.mark.parametrize("seed", range(10))
def test_weighted_draw_matches_stable_argsort_with_ties(seed):
    rng = np.random.default_rng(400 + seed)
    w = rng.choice([0.0, 1.0, 2.0, 4.0], size=int(rng.integers(1, 30)))
    w[0] = 1.0
    alive = int((w > 0).sum())
    for k in range(alive + 1):
        # Integer draws over tied weights give many equal keys.
        draws = rng.integers(1, 4, size=alive).astype(np.float64)
        got = weighted_sample_without_replacement(w, k, FixedKeys(draws))
        np.testing.assert_array_equal(got, argsort_reference(w, k, draws))


def test_weighted_draw_matches_stable_argsort_on_a_real_stream():
    w = np.repeat([1.0, 3.0], 50)
    for k in (1, 7, 50, 100):
        got = weighted_sample_without_replacement(w, k, np.random.default_rng(k))
        draws = np.random.default_rng(k).exponential(size=w.size)
        np.testing.assert_array_equal(got, argsort_reference(w, k, draws))


# -- degrees -------------------------------------------------------------------


def degrees_loop(g):
    deg = np.zeros(g.num_nodes, dtype=np.int64)
    np.add.at(deg, g.simple_edges[:, 0], 1)
    np.add.at(deg, g.simple_edges[:, 1], 1)
    return deg


@pytest.mark.parametrize("edges", [
    [], [[0, 1], [1, 2]], [[0, 1], [1, 0], [0, 1]], [[2, 2], [0, 2], [3, 3], [3, 3]],
], ids=["none", "path", "duplicates", "self-loops"])
def test_degrees_match_loop(edges):
    g = bare(5, edges=edges)
    assert g.degrees.dtype == np.int64
    np.testing.assert_array_equal(g.degrees, degrees_loop(g))


@pytest.mark.parametrize("edge", [[0, 3], [-1, 2]])
def test_degrees_reject_out_of_range_edges(edge):
    with pytest.raises(ValueError, match="out of range"):
        bare(3, edges=[edge]).degrees


# -- autodiff scatters -------------------------------------------------------
#
# The ops as they were before the sparse products: gathers materialized, and
# every scatter an ``np.add.at`` over the pairs in list order.


def take_rows_loop(a, idx):
    rows = np.asarray(idx, dtype=np.int64)

    def backward(g):
        ga = np.zeros_like(a.value)
        np.add.at(ga, rows, g)
        _accumulate(a, ga)

    return ad.Tensor(a.value[rows], (a,), backward)


def edge_mix_loop(alpha, h, targets, num_rows):
    tgt = np.asarray(targets, dtype=np.int64)
    av = alpha.value.reshape(-1)
    out_value = np.zeros((num_rows, h.value.shape[1]))
    np.add.at(out_value, tgt, av[:, None] * h.value)

    def backward(g):
        g_rows = g[tgt]
        _accumulate(h, av[:, None] * g_rows)
        _accumulate(alpha, (g_rows * h.value).sum(axis=1).reshape(alpha.value.shape))

    return ad.Tensor(out_value, (alpha, h), backward)


def segment_softmax_loop(scores, segments, num_segments):
    seg = np.asarray(segments, dtype=np.int64)
    s = scores.value.reshape(-1)
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, seg, s)
    e = np.exp(s - seg_max[seg])
    denom = np.zeros(num_segments)
    np.add.at(denom, seg, e)
    flat = e / denom[seg]

    def backward(g):
        gv = g.reshape(-1)
        seg_dot = np.zeros(num_segments)
        np.add.at(seg_dot, seg, gv * flat)
        _accumulate(scores, (flat * (gv - seg_dot[seg])).reshape(scores.value.shape))

    return ad.Tensor(flat.reshape(scores.value.shape), (scores,), backward)


# The loop layers read their pairs from the patterns' COO form, in storage
# order, not from the arrays the layers use.


def gat_loop(layer, gt, x):
    pairs = gt.att_pattern.tocoo()
    src, dst, n = pairs.col, pairs.row, pairs.shape[0]
    h = ad.matmul(x, layer.theta)
    s_src = ad.matmul(h, layer.a_src)
    s_dst = ad.matmul(h, layer.a_dst)
    scores = ad.leaky_relu(
        ad.add(take_rows_loop(s_src, src), take_rows_loop(s_dst, dst)), LEAKY_SLOPE
    )
    alpha = segment_softmax_loop(scores, dst, n)
    return edge_mix_loop(alpha, take_rows_loop(h, src), dst, n)


def gatv2_loop(layer, gt, x):
    pairs = gt.att_pattern.tocoo()
    src, dst, n = pairs.col, pairs.row, pairs.shape[0]
    h_l = ad.matmul(x, layer.theta_l)
    h_r = ad.matmul(x, layer.theta_r)
    pair = ad.add(take_rows_loop(h_l, src), take_rows_loop(h_r, dst))
    scores = ad.matmul(ad.leaky_relu(pair, LEAKY_SLOPE), layer.a)
    alpha = segment_softmax_loop(scores, dst, n)
    return edge_mix_loop(alpha, take_rows_loop(h_l, src), dst, n)


def hyperatten_loop(layer, gt, x):
    pairs = gt.inc_pattern.tocoo()
    node, edge, n = pairs.row, pairs.col, pairs.shape[0]
    h = ad.matmul(x, layer.theta)
    z = ad.matmul(gt.incidence_t, h)
    s_node = ad.matmul(h, layer.a_node)
    s_edge = ad.matmul(z, layer.a_edge)
    raw = ad.leaky_relu(
        ad.add(take_rows_loop(s_node, node), take_rows_loop(s_edge, edge)), LEAKY_SLOPE
    )
    scores = ad.add(raw, gt.log_weights[edge].reshape(-1, 1))
    alpha = segment_softmax_loop(scores, node, n)
    return edge_mix_loop(alpha, take_rows_loop(z, edge), node, n)


LOOP_LAYERS = {"gat": gat_loop, "gatv2": gatv2_loop, "hyperatten": hyperatten_loop}


def backprop(out, upstream):
    """Run the backward walk from ``out`` with ``upstream`` as its gradient.

    Dropout with keep 1 multiplies by a fixed array; the mean makes a root.
    """
    ad.mean(ad.dropout(out, upstream, 1.0)).backward()


def random_pairs(rng, num_out, num_in, k):
    """Pair lists sorted by output row, with the last output row and the last
    input row in no pair; inputs repeat."""
    rows = np.sort(rng.integers(max(1, num_out - 1), size=k))
    cols = rng.integers(max(1, num_in - 1), size=k)
    return rows, cols


def compressed(pattern_type, major, minor, shape):
    """A 0/1 pattern storing the pairs in their given order (``major``
    sorted): CSR when ``major`` are rows, CSC when it is columns."""
    num_major = shape[0] if pattern_type is sp.csr_matrix else shape[1]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(major, minlength=num_major))])
    return pattern_type((np.ones(major.size), minor, indptr), shape=shape)


@pytest.mark.parametrize("k, d", [(0, 3), (1, 2), (60, 3), (5000, 9)])
@pytest.mark.parametrize("layout", ["csr", "csc"])
def test_edge_mix_matches_scatter_loop(k, d, layout):
    rng = np.random.default_rng(700 + k + d)
    num_out, num_in = 40, 30
    rows, cols = random_pairs(rng, num_out, num_in, k)
    if layout == "csr":
        pattern = compressed(sp.csr_matrix, rows, cols, (num_out, num_in))
    else:  # pairs grouped by input row, output rows in any order
        cols, rows = random_pairs(rng, num_in, num_out, k)
        pattern = compressed(sp.csc_matrix, cols, rows, (num_out, num_in))
    alpha_value = rng.standard_normal((k, 1))
    h_value = rng.standard_normal((num_in, d))
    upstream = rng.standard_normal((num_out, d))
    results = []
    for mix in (lambda a, h: ad.edge_mix(a, h, pattern),
                lambda a, h: edge_mix_loop(a, take_rows_loop(h, cols), rows, num_out)):
        alpha, h = ad.Tensor(alpha_value), ad.Tensor(h_value)
        out = mix(alpha, h)
        backprop(out, upstream)
        results.append((out.value, alpha.grad, h.grad))
    for got, want in zip(*results):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    assert not results[0][0][-1].any()  # the empty output row
    assert not results[0][2][-1].any()  # the input row no pair reads


@pytest.mark.parametrize("shape", [(50,), (50, 1), (50, 4)])
def test_take_rows_matches_scatter_loop(shape):
    rng = np.random.default_rng(710 + len(shape))
    idx = rng.integers(shape[0] - 5, size=200)  # repeats; the last rows unused
    value = rng.standard_normal(shape)
    upstream = rng.standard_normal((200,) + shape[1:])
    grads = []
    for take in (ad.take_rows, take_rows_loop):
        a = ad.Tensor(value)
        out = take(a, idx)
        np.testing.assert_array_equal(out.value, value[idx])
        backprop(out, upstream)
        grads.append(a.grad)
    np.testing.assert_array_equal(grads[0], grads[1])


@pytest.mark.parametrize("seed", range(4))
def test_segment_softmax_matches_scatter_loop(seed):
    rng = np.random.default_rng(720 + seed)
    k, num_segments = int(rng.integers(1, 300)), 25
    segments = rng.integers(num_segments - 3, size=k)  # unsorted, 3 empty
    shape = (k, 1) if seed % 2 else (k,)
    value = 5 * rng.standard_normal(shape)
    upstream = rng.standard_normal(shape)
    results = []
    for softmax in (ad.segment_softmax, segment_softmax_loop):
        scores = ad.Tensor(value)
        out = softmax(scores, segments, num_segments)
        backprop(out, upstream)
        results.append((out.value, scores.grad))
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(LOOP_LAYERS))
def test_attention_layer_matches_scatter_loop_layer(name, seed):
    # Unsorted hyperedge members and nodes in no edge or hyperedge; the
    # input, every parameter and every output must agree to the bit, so the
    # order in which each gradient's terms are summed must be the loop's.
    rng = np.random.default_rng(730 + seed)
    g = random_graph(rng, int(rng.integers(8, 80)), int(rng.integers(1, 30)))
    gt = build_graph_tensors(g)
    layer = LAYER_TYPES[name](3, 5, np.random.default_rng(seed))
    upstream = rng.standard_normal((g.num_nodes, 5))
    results = []
    for forward in (layer.forward, lambda gt, x: LOOP_LAYERS[name](layer, gt, x)):
        for p in layer.params():
            p.grad = None
        x = ad.Tensor(g.node_features)
        out = forward(gt, x)
        backprop(out, upstream)
        results.append([out.value, x.grad] + [p.grad for p in layer.params()])
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)
