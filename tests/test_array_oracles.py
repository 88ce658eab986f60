"""The array code of the graph core, the samplers and the autodiff
scatters against plain loops.

Each reference below is the straightforward Python loop (or ``np.add.at``
scatter) that the array version replaced; the tests compare the two on
random and on crafted inputs, field for field, message for message and,
for floats, bit for bit.
"""

from collections import Counter
from pathlib import Path
from dataclasses import replace
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from hygraph import (GraphKind, HybridGraph, InvalidGraphError, Task, classify,
                     structurally_equal, to_simple, to_two_level_hierarchy, validate)
from hygraph import stats
from hygraph.graph import Hyperedges, _ancestry, _group_by_node, sort_unique
from hygraph.io import load
from hygraph.nn import autodiff as ad
from hygraph.nn.autodiff import _accumulate
from hygraph.nn.layers import LAYER_TYPES, LEAKY_SLOPE, build_graph_tensors
from hygraph.sampling import (SamplerSpec, _mask_hyperedges, induce, run_sampler,
                             sample_random_walk, sample_uniform_hyperedges,
                             weighted_sample_without_replacement)
from hygraph.synthetic import make_classification_graph

# -- reference loops -------------------------------------------------------


def induce_loop(g, node_ids):
    """Every field of the induced subgraph, one edge, member and node at a time."""
    ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    local = {int(v): i for i, v in enumerate(ids)}
    edges = [[local[u], local[v]] for u, v in g.simple_edges.tolist()
             if u in local and v in local]
    kept_he, kept_idx = [], []
    for k, e in enumerate(g.hyperedges):
        members = [local[v] for v in e if v in local]
        if members:
            kept_he.append(tuple(sorted(members)))
            kept_idx.append(k)
    kept_idx = np.asarray(kept_idx, dtype=np.int64)
    return SimpleNamespace(
        node_ids=ids,
        simple_edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        hyperedges=tuple(kept_he),
        hyperedge_ids=kept_idx,
        hyperedge_weights=g.hyperedge_weights[kept_idx],
        hyperedge_features=None if g.hyperedge_features is None
        else g.hyperedge_features[kept_idx],
        parent=np.asarray([local.get(int(g.parent[v]), i) for i, v in enumerate(ids)],
                          dtype=np.int64),
        labels=g.labels[ids],
        node_features=g.node_features[ids],
    )


def walk_loop(g, roots, walk_length, rng):
    """The walks round by round, one RNG call per root and then per step of
    each walk still moving, in root order."""
    indptr, indices = g.adjacency_csr
    walks = [int(rng.integers(g.num_nodes)) for _ in range(roots)]
    visited = list(walks)
    for _ in range(walk_length):
        for w, v in enumerate(walks):
            if v is None:
                continue
            start = int(indptr[v])
            degree = int(indptr[v + 1]) - start
            if degree == 0:  # halted for good: a node with no neighbours
                walks[w] = None
                continue
            walks[w] = int(indices[start + rng.integers(degree)])
            visited.append(walks[w])
    return visited


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
    if g.task.is_classification:
        for v, c in enumerate(g.labels):
            if not 0 <= c < g.task.num_classes:
                out.append(f"class label out of range at node {v}")
                break
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


INDUCED_FIELDS = ("node_ids", "simple_edges", "hyperedge_ids", "hyperedge_weights",
                  "hyperedge_features", "parent", "labels", "node_features")


def assert_same_induced(sub, want):
    assert sub.hyperedges == want.hyperedges
    assert all(type(v) is int for e in sub.hyperedges for v in e)
    for name in INDUCED_FIELDS:
        got, expected = getattr(sub, name), getattr(want, name)
        if expected is None:
            assert got is None, name
        else:
            assert got.dtype == expected.dtype, name
            assert got.shape == expected.shape, name
            np.testing.assert_array_equal(got, expected, err_msg=name)


def scrambled(g, rng):
    """``g`` with its edges shuffled and about half of them flipped to u > v."""
    edges = g.simple_edges[rng.permutation(g.num_edges)]
    flip = rng.random(g.num_edges) < 0.5
    edges[flip] = edges[flip, ::-1]
    return replace(g, simple_edges=edges)


@pytest.mark.parametrize("seed", range(12))
def test_induce_matches_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    g = random_graph(rng, n, int(rng.integers(0, 15)),
                     edge_features=seed % 2 == 0, hierarchy=seed % 3 == 0)
    assert g.violations == ()
    for graph in (g, scrambled(g, rng)):
        for size in (0, 1, n // 3, n):
            ids = rng.choice(n, size=size, replace=True)
            sub = induce(graph, ids)
            assert_same_induced(sub, induce_loop(graph, ids))
            assert sub.to_graph().violations == ()


@pytest.mark.parametrize("seed", range(6))
def test_induce_keeps_duplicate_edges_and_self_loops(seed):
    # Invalid input masks like the loop: every copy of an edge and every
    # self-loop between sampled nodes is kept, in the parent's order.
    rng = np.random.default_rng(40 + seed)
    g = scrambled(random_graph(rng, 20, 5), rng)
    extra = np.concatenate([g.simple_edges[rng.integers(g.num_edges, size=8)],
                            np.repeat(rng.integers(20, size=(4, 1)), 2, axis=1)])
    edges = np.insert(g.simple_edges, rng.integers(g.num_edges, size=extra.shape[0]),
                      extra, axis=0)
    bad = replace(g, simple_edges=edges)
    assert any("duplicate edge" in v for v in bad.violations)
    assert any("self-loop" in v for v in bad.violations)
    for size in (1, 7, 20):
        ids = rng.choice(20, size=size, replace=False)
        assert_same_induced(induce(bad, ids), induce_loop(bad, ids))


def test_edges_by_first_endpoint_match_loop():
    rng = np.random.default_rng(9)
    generated = make_classification_graph(num_nodes=60, seed=3)
    assert (np.diff(generated.simple_edges[:, 0]) >= 0).all()  # the generator's edges come sorted
    for g in (scrambled(random_graph(rng, 30, 0), rng), generated, bare(3)):
        indptr, order = g.edges_by_first_endpoint
        for v in range(g.num_nodes):
            expected = [i for i, (u, _) in enumerate(g.simple_edges.tolist()) if u == v]
            assert order[indptr[v]:indptr[v + 1]].tolist() == expected
        assert not indptr.flags.writeable and not order.flags.writeable
    assert bare(3).edges_by_first_endpoint[0].tolist() == [0, 0, 0, 0]
    for edge in ([0, 3], [-1, 0]):
        with pytest.raises(InvalidGraphError, match="edge index out of range"):
            bare(3, edges=[[0, 1], edge]).edges_by_first_endpoint


def test_induce_without_hyperedges():
    g = bare(4, edges=[[0, 1], [2, 3]])
    sub = induce(g, [1, 2, 3])
    assert sub.hyperedges == ()
    assert sub.hyperedge_ids.dtype == np.int64 and sub.hyperedge_ids.size == 0
    assert sub.hyperedge_weights.size == 0
    assert_same_induced(sub, induce_loop(g, [1, 2, 3]))


def test_induce_keeps_duplicate_members_sorted():
    # Invalid input still masks like the loop: duplicates kept, order sorted.
    g = bare(5, hyperedges=[(4, 1, 4, 0), (3,), (2, 0)])
    for ids in ([0, 1, 4], [3], [2, 4]):
        assert_same_induced(induce(g, ids), induce_loop(g, ids))


# -- the hyperedge mask ----------------------------------------------------


def mask_loop(g, local):
    """The mask as it was: every member mapped through ``local`` on every draw."""
    if g.num_hyperedges == 0:
        return g.hyperedges, np.zeros(0, dtype=np.int64)
    mapped = local[g.hyperedges.members]
    inside = mapped >= 0
    counts = np.bincount(g.hyperedges.edge_of()[inside], minlength=g.num_hyperedges)
    kept = np.flatnonzero(counts)
    return Hyperedges(mapped[inside], np.concatenate([[0], np.cumsum(counts[kept])])), kept


def mask_graph(rng, n, num_hyperedges):
    """Hyperedges of 0-6 unsorted members, duplicates allowed; the last
    nodes are in no hyperedge."""
    sizes = rng.integers(0, 7, size=num_hyperedges)
    members = rng.integers(max(1, n - 3), size=sizes.sum())
    return bare(n, hyperedges=Hyperedges(members, np.concatenate([[0], np.cumsum(sizes)])))


def assert_same_mask(g, ids):
    local = np.full(g.num_nodes, -1, dtype=np.int64)
    local[ids] = np.arange(ids.size)
    (got, got_kept), (want, want_kept) = _mask_hyperedges(g, ids, local), mask_loop(g, local)
    for a, b in ((got.members, want.members), (got.offsets, want.offsets), (got_kept, want_kept)):
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)


def sample_members(g, ids):
    """How many members the sample ``ids`` holds, against all members."""
    indptr, positions = g.member_positions
    return int((indptr[ids + 1] - indptr[ids]).sum()), positions.size


@pytest.mark.parametrize("seed", range(16))
def test_mask_matches_whole_member_mask(seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(1, 60))
    g = mask_graph(rng, n, int(rng.integers(0, 25)) if seed else 0)
    for size in (0, 1, 2, n // 4, n // 2, n):
        assert_same_mask(g, np.sort(rng.choice(n, size=size, replace=False)))


def test_mask_takes_both_paths():
    # A sample holding under an eighth of the members sorts its positions;
    # a larger one tests every member.  Both must give the same arrays.
    rng = np.random.default_rng(77)
    g = mask_graph(rng, 200, 300)
    few, all_ids = np.array([5, 90]), np.arange(200)
    held, total = sample_members(g, few)
    assert 0 < 8 * held < total
    held, total = sample_members(g, all_ids)
    assert 8 * held >= total
    for ids in (few, all_ids, np.arange(0, 200, 3)):
        assert_same_mask(g, ids)


@pytest.mark.parametrize("nodes", [
    np.sort(np.random.default_rng(5).integers(0, 40, size=300)),
    np.random.default_rng(6).integers(0, 40, size=300),
    np.array([3, 3, 7, 7, 7, 39]), np.array([7, 3, 3]),
    np.zeros(0, dtype=np.int64), np.array([12]),
], ids=["sorted", "unsorted", "sorted-repeats", "unsorted-repeats", "empty", "one"])
def test_group_by_node_matches_stable_argsort(nodes):
    # Sorted keys skip the sort; either way the positions are a stable argsort.
    indptr, order = _group_by_node(nodes, 40, "node")
    np.testing.assert_array_equal(order, np.argsort(nodes, kind="stable"))
    np.testing.assert_array_equal(indptr, np.concatenate(
        [[0], np.cumsum(np.bincount(nodes, minlength=40))]))
    assert order.dtype == indptr.dtype == np.int64
    assert not indptr.flags.writeable and not order.flags.writeable


def test_member_positions_match_loop():
    rng = np.random.default_rng(31)
    g = mask_graph(rng, 30, 20)
    indptr, positions = g.member_positions
    members = g.hyperedges.members.tolist()
    for v in range(g.num_nodes):
        expected = [p for p, u in enumerate(members) if u == v]
        assert positions[indptr[v]:indptr[v + 1]].tolist() == expected
    assert not indptr.flags.writeable and not positions.flags.writeable
    assert g.member_positions[1] is positions
    assert bare(2).member_positions[0].tolist() == [0, 0, 0]
    for member in (2, -1):
        with pytest.raises(InvalidGraphError, match="member out of range"):
            bare(2, hyperedges=[(0, 1), (member,)]).member_positions


def hyperedge_nodes_loop(g, picked):
    """The rand-hyperedge sampler's nodes as they were: every member tested."""
    members, _ = g.incidence_arrays
    chosen = np.zeros(g.num_hyperedges, dtype=bool)
    chosen[picked] = True
    return members[chosen[g.hyperedges.edge_of()]]


@pytest.mark.parametrize("seed", range(8))
def test_rand_hyperedge_nodes_match_whole_member_gather(seed):
    rng = np.random.default_rng(600 + seed)
    m = int(rng.integers(1, 20))
    g = random_graph(rng, int(rng.integers(5, 40)), m)
    for budget in sorted({1, m // 2 or 1, m}):
        sub = sample_uniform_hyperedges(g, budget, np.random.default_rng(seed))
        picked = np.random.default_rng(seed).choice(m, size=budget, replace=False)
        assert_same_induced(sub, induce_loop(g, hyperedge_nodes_loop(g, picked)))


# -- the walk sampler ------------------------------------------------------


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def advanced(bit_generator, seed):
    """A generator that has read one odd word, so PCG64 and SFC64 hold a
    buffered half of their 32-bit stream."""
    rng = np.random.Generator(bit_generator(seed))
    rng.integers(7)
    return rng


def walk_graphs():
    rng = np.random.default_rng(77)
    sparse = bare(40, edges=[[0, v] for v in range(1, 9)]  # a star: leaves of degree 1
                  + [[v, v + 1] for v in range(10, 20, 2)]  # disjoint pairs
                  + [[v, v + 1] for v in range(20, 30)])  # a path; 30-39 isolated
    return {
        "random": random_graph(rng, 60, 10),
        "scrambled": scrambled(random_graph(rng, 300, 20), rng),
        "sparse": sparse,
        "one node": bare(1),
        "one node with a self-loop": bare(1, edges=[[0, 0]]),
        "no edges": bare(5),
    }


WALK_GRAPHS = walk_graphs()


def assert_walks_match_loop(g, roots, walk_length, make_rng):
    a, b = make_rng(), make_rng()
    sub = sample_random_walk(g, roots, walk_length, a)
    np.testing.assert_array_equal(sub.node_ids, np.unique(walk_loop(g, roots, walk_length, b)))
    assert a.random() == b.random()  # the stream is left where the loop leaves it


@pytest.mark.parametrize("roots,walk_length", [(1, 0), (1, 50), (5000, 0), (5000, 3), (40, 50)])
@pytest.mark.parametrize("name", sorted(WALK_GRAPHS))
def test_lockstep_walk_matches_loop(name, roots, walk_length):
    g = WALK_GRAPHS[name]
    for seed in range(3):
        assert_walks_match_loop(g, roots, walk_length, lambda: np.random.default_rng(seed))


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS[1:], ids=lambda b: b.__name__)
def test_lockstep_walk_matches_loop_on_other_bit_generators(bit_generator):
    for name in ("scrambled", "sparse"):
        assert_walks_match_loop(WALK_GRAPHS[name], 300, 6, lambda: advanced(bit_generator, 2))


# -- validate --------------------------------------------------------------


TWO_CLASSES = Task("classification", num_classes=2)
CRAFTED = {
    "valid": bare(4, edges=[[0, 1], [2, 3]], hyperedges=[(0, 1, 2)]),
    "edge out of range": bare(3, edges=[[0, 1], [0, 3], [-1, 2], [1, 2]]),
    "self-loops": bare(3, edges=[[1, 1], [0, 2], [2, 2]]),
    "duplicates both ways": bare(
        4, edges=[[0, 1], [1, 0], [2, 3], [0, 1], [3, 2], [1, 2]]),
    "loops, range and duplicates": bare(
        3, edges=[[2, 2], [0, 5], [5, 0], [2, 2], [1, 0], [0, 1]]),
    "sorted with adjacent duplicates": bare(
        5, edges=[[0, 1], [1, 0], [0, 2], [1, 3], [3, 1], [1, 3], [2, 2], [2, 4]]),
    "unsorted with duplicates": bare(
        5, edges=[[3, 4], [0, 1], [4, 3], [2, 1], [0, 1], [1, 2], [3, 4]]),
    "unsorted within a row": bare(3, edges=[[0, 2], [1, 0], [2, 0]]),
    "sorted out-of-range pairs": bare(
        3, edges=[[-1, 0], [0, -1], [0, 1], [1, 3], [2, 3], [3, 2], [5, 5]]),
    "unsorted out-of-range pairs": bare(
        3, edges=[[5, 1], [0, 1], [1, 5], [-2, 0], [0, -2], [1, 2]]),
    "empty hyperedges": bare(3, hyperedges=[(), (0, 1), ()]),
    "duplicate members": bare(3, hyperedges=[(0, 0), (1, 2), (2, 1, 2)]),
    "members out of range": bare(3, hyperedges=[(0, 3), (-1, 1), (1, 2)]),
    # Members ascending within each hyperedge: validate skips its member sort.
    "sorted duplicate members": bare(4, hyperedges=[(0, 1, 1, 3), (2, 2), (0, 3), (3, 3, 3)]),
    "sorted members out of range": bare(4, hyperedges=[(-1, 0, 2), (1, 2, 4), (3,), (4, 4)]),
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
    "class labels out of range": bare(3, labels=np.array([5, 5, -1]), task=TWO_CLASSES),
    "class label -1": bare(3, labels=np.array([0, 1, -1]), task=TWO_CLASSES),
    "class label at the bound": bare(4, labels=np.array([1, 0, 2, 3]), task=TWO_CLASSES),
    "short labels out of range": bare(3, labels=np.array([0, -1]), task=TWO_CLASSES),
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
    pairs = gt.a_hat.tocoo()
    for got, want in ((pairs.col, att_src), (pairs.row, att_dst), (gt.att_dst, att_dst)):
        np.testing.assert_array_equal(got, want)
    assert gt.att_dst.dtype == att_dst.dtype


def build_graph_tensors_algebra(g):
    """``build_graph_tensors`` as scipy sparse algebra: a loop matrix added,
    a diagonal product, a transpose, and a row index per pattern."""
    def row_index(pattern):
        counts = np.diff(pattern.indptr)
        return np.repeat(np.arange(counts.size, dtype=np.int64), counts)

    def with_data(pattern, data):
        return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)

    g.require_valid()
    n, m = g.num_nodes, g.num_hyperedges
    indptr, indices = g.adjacency_csr
    adj = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    deg = np.diff(indptr)
    att_pattern = adj + sp.eye(n, format="csr")
    att_dst = row_index(att_pattern)
    inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
    members, offsets = g.incidence_arrays
    incidence = sp.csc_matrix((np.ones(members.size), members, offsets), shape=(n, m)).tocsr()
    incidence_t = incidence.T.tocsr()
    w = g.hyperedge_weights
    node_mass = incidence @ w
    node_scale = np.divide(1.0, node_mass, out=np.zeros(n), where=node_mass > 0)
    return SimpleNamespace(
        a_hat=with_data(att_pattern, inv_sqrt[att_dst] * inv_sqrt[att_pattern.indices]),
        mean_adj=sp.diags(np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)) @ adj,
        att_dst=att_dst,
        incidence_t=incidence_t,
        hyper_gather=with_data(incidence_t, (w / np.diff(offsets))[row_index(incidence_t)]),
        hyper_scatter=with_data(incidence, node_scale[row_index(incidence)]),
        inc_node=row_index(incidence),
        log_weights=np.log(w),
    )


# The eight structures ``GraphTensors`` builds for the layers' forwards,
# then the adjoint of each sparse operator and GATv2's selection matrices.
TENSOR_NAMES = ("a_hat", "mean_adj", "att_dst", "incidence_t", "hyper_gather",
                "hyper_scatter", "inc_node", "log_weights")
ADJOINTS = {"a_hat": "a_hat", "mean_adj": "mean_adj_t", "incidence_t": "incidence",
            "hyper_gather": "hyper_gather_t", "hyper_scatter": "hyper_scatter_t"}
SELECTIONS = ("src_selection", "dst_selection")
STORED_NAMES = TENSOR_NAMES + tuple(sorted(set(ADJOINTS.values()) - {"a_hat"})) + SELECTIONS


def assert_same_tensors(got, want):
    for name in TENSOR_NAMES:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), name
        if sp.issparse(b):
            assert (a.format, a.shape, a.has_sorted_indices) == \
                (b.format, b.shape, b.has_sorted_indices), name
            pairs = ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data))
        else:
            pairs = ((a, b),)
        for x, y in pairs:
            assert (x.dtype, x.shape) == (y.dtype, y.shape), name
            assert x.tobytes() == y.tobytes(), name


DATA = Path(__file__).parent.parent / "data"
BUILD_CASES = {
    "isolated nodes": lambda: bare(6, edges=[[0, 1], [1, 2]], hyperedges=[(0, 2)]),
    "no edges": lambda: bare(4, hyperedges=[(3, 1), (0, 1, 2)]),
    "no hyperedges": lambda: bare(5, edges=[[4, 0], [0, 2], [3, 1]]),
    "no nodes": lambda: bare(0),
    "unsorted and duplicate hyperedges": lambda: bare(
        6, edges=[[0, 5]], hyperedges=[(4, 0, 2), (2, 0, 4), (5, 1), (4, 0, 2), (1, 5)]),
    "singleton hyperedges": lambda: bare(4, edges=[[1, 2]], hyperedges=[(3,), (0, 1), (1,)]),
    "weighted hyperedges": lambda: bare(
        5, edges=[[0, 1], [3, 4]], hyperedges=[(1, 0), (2, 3, 1), (4, 2)],
        hyperedge_weights=np.array([0.3, 2.5, 1e-3])),
    "nodes in no hyperedge": lambda: bare(
        7, edges=[[0, 6], [2, 3], [6, 5]], hyperedges=[(2, 1), (1, 2, 3)]),
    "classification data": lambda: load(str(DATA / "synthetic_classification.json")),
    "regression data": lambda: load(str(DATA / "synthetic_regression.json")),
}


@pytest.mark.parametrize("name", sorted(BUILD_CASES))
def test_graph_tensors_match_sparse_algebra(name):
    g = BUILD_CASES[name]()
    assert_same_tensors(build_graph_tensors(g), build_graph_tensors_algebra(g))


@pytest.mark.parametrize("seed", range(6))
def test_graph_tensors_match_sparse_algebra_on_random_graphs(seed):
    g = random_graph(np.random.default_rng(540 + seed), 5 + 15 * seed, 2 + 4 * seed)
    assert_same_tensors(build_graph_tensors(g), build_graph_tensors_algebra(g))


SAINT_SPECS = {"node": SamplerSpec("node", budget=100), "edge": SamplerSpec("edge", budget=150),
               "rw": SamplerSpec("rw", roots=30, walk_length=3)}


def saint_batches(method):
    """20 batches of one sampler, as SAINT draws them from the suite's graph."""
    g, rng = load(str(DATA / "synthetic_classification.json")), np.random.default_rng(560)
    return [run_sampler(g, SAINT_SPECS[method], rng).to_graph(g.task) for _ in range(20)]


@pytest.mark.parametrize("method", sorted(SAINT_SPECS))
def test_graph_tensors_match_sparse_algebra_on_saint_batches(method):
    for sub in saint_batches(method):
        assert_same_tensors(build_graph_tensors(sub), build_graph_tensors_algebra(sub))


def specials(rng, shape):
    """Normal floats with signed zeros, infinities and NaN at one entry in ten."""
    flat = rng.standard_normal(int(np.prod(shape)))
    special = rng.random(flat.size) < 0.1
    flat[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=special.sum())
    return flat.reshape(shape)


def assert_same_matrix(got, want):
    assert (got.format, got.shape) == (want.format, want.shape)
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


ADJOINT_CASES = {
    **{name: lambda build=build: [build()] for name, build in BUILD_CASES.items()},
    **{f"random {seed}": lambda seed=seed: [random_graph(
        np.random.default_rng(540 + seed), 5 + 15 * seed, 2 + 4 * seed)] for seed in range(6)},
    **{f"saint {method}": lambda method=method: saint_batches(method) for method in SAINT_SPECS},
}


@pytest.mark.parametrize("name", sorted(ADJOINT_CASES))
def test_stored_adjoints_match_transposes(name):
    # Each stored adjoint is a sorted CSR of the operator's transpose, and
    # its product adds each output row in the order the CSC product of
    # ``M.T`` does, so the two agree to the bit, signed zeros and infinities
    # included.  Where two different NaNs meet, the CSR and CSC kernels may
    # keep either one (IEEE 754 leaves it open), so NaNs compare as NaNs.
    rng = np.random.default_rng(580 + len(name))
    for g in ADJOINT_CASES[name]():
        gt = build_graph_tensors(g)
        for op_name, adjoint_name in ADJOINTS.items():
            op, adjoint = getattr(gt, op_name), getattr(gt, adjoint_name)
            assert adjoint.format == "csr" and adjoint.has_sorted_indices, adjoint_name
            assert adjoint.shape == op.T.shape, adjoint_name
            np.testing.assert_array_equal(adjoint.toarray(), op.T.toarray())
            for width in (1, 3):
                upstream = specials(rng, (op.shape[0], width))
                assert_same_bits(*(np.where(np.isnan(p), np.nan, p)
                                   for p in (adjoint @ upstream, op.T @ upstream)))
        num_nodes = gt.a_hat.shape[0]
        for selection, rows in ((gt.src_selection, gt.a_hat.indices),
                                (gt.dst_selection, gt.att_dst)):
            assert_same_matrix(selection, selection_matrix(rows, num_nodes))


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


def test_edge_sampling_weights_match_expression():
    g = scrambled(random_graph(np.random.default_rng(12), 25, 0), np.random.default_rng(13))
    deg = g.degrees.astype(np.float64)
    got = g.edge_sampling_weights
    assert_same_bits(got, 1.0 / deg[g.simple_edges[:, 0]] + 1.0 / deg[g.simple_edges[:, 1]])
    assert not got.flags.writeable and g.edge_sampling_weights is got


# -- triangles -----------------------------------------------------------------


def triangles_product(g):
    """Triangles through each node as the clustering counted them before:
    the row sums of ``(a @ a) * a``, halved."""
    n = g.num_nodes
    indptr, indices = g.adjacency_csr
    a = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    return np.asarray((a @ a).multiply(a).sum(axis=1)).ravel() / 2.0


def clustering_product(g):
    deg = g.degrees.astype(np.float64)
    denom = deg * (deg - 1.0)
    coef = np.where(denom > 0, 2.0 * triangles_product(g) / np.where(denom > 0, denom, 1.0),
                    0.0)
    return float(coef.mean())


def banded(n, width):
    return nx.Graph((i, j) for i in range(n) for j in range(i + 1, min(n, i + width + 1)))


def triangle_graphs():
    disconnected = nx.disjoint_union_all([nx.complete_graph(6), nx.cycle_graph(5),
                                          nx.empty_graph(3), nx.path_graph(4),
                                          nx.barabasi_albert_graph(40, 3, seed=4)])
    return {
        "power-law": nx.barabasi_albert_graph(300, 4, seed=1),
        "power-law clustered": nx.powerlaw_cluster_graph(200, 6, 0.6, seed=2),
        "banded": banded(120, 5),
        "complete": nx.complete_graph(25),
        "empty": nx.empty_graph(10),
        "disconnected": disconnected,
        "random": nx.gnm_random_graph(150, 900, seed=3),
    }


@pytest.mark.parametrize("block", [1, 13, 1 << 20])
@pytest.mark.parametrize("name", sorted(triangle_graphs()))
def test_triangles_match_networkx_and_product(name, block, monkeypatch):
    monkeypatch.setattr(stats, "_WEDGE_BLOCK", block)  # 1: one forward edge per block
    ref = triangle_graphs()[name]
    n = ref.number_of_nodes()
    g = bare(n, edges=list(ref.edges()))
    got = stats._triangles(g)
    assert got.dtype == np.int64
    want = nx.triangles(ref)
    np.testing.assert_array_equal(got, [want[v] for v in range(n)])
    np.testing.assert_array_equal(got.astype(np.float64), triangles_product(g))
    if g.num_edges:
        assert stats._clustering_mean(g).hex() == clustering_product(g).hex()


# -- autodiff scatters -------------------------------------------------------
#
# The ops as they were before the sparse products: gathers materialized, and
# every scatter an ``np.add.at`` over the pairs in list order.


def take_rows_loop(a, idx):
    """A gather of any rows, repeats and any order included.  Its backward's
    ``np.add.at`` adds in pair order from zero, as ``selection_matrix(idx,
    rows of a) @ g`` does, bit for bit."""
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


# The activations before ``np.maximum``, and GATv2's scores before ``gatv2_scores``.


def relu_where(a):
    mask = a.value > 0
    return ad.Tensor(np.where(mask, a.value, 0.0), (a,), lambda g: _accumulate(a, g * mask))


def leaky_relu_where(a, slope):
    pos = a.value > 0
    return ad.Tensor(np.where(pos, a.value, slope * a.value), (a,),
                     lambda g: _accumulate(a, g * np.where(pos, 1.0, slope)))


def gatv2_scores_chain(h_l, h_r, a, src, dst, slope):
    """GATv2's scores as the layer composed them before ``gatv2_scores``."""
    pair = ad.add(take_rows_loop(h_l, src), take_rows_loop(h_r, dst))
    return ad.matmul(leaky_relu_where(pair, slope), a)


def additive_scores_chain(s_a, a, s_b, b, slope, bias=None):
    """GAT's and hyperatten's scores as the layers composed them before
    ``additive_scores``."""
    raw = ad.leaky_relu(ad.add(take_rows_loop(s_a, a), take_rows_loop(s_b, b)), slope)
    return raw if bias is None else ad.add(raw, bias)


def gat_chain(layer, gt, x):
    h = ad.matmul(x, layer.theta)
    s_src = ad.matmul(h, layer.a_src)
    s_dst = ad.matmul(h, layer.a_dst)
    src, dst = gt.a_hat.indices, gt.att_dst
    scores = additive_scores_chain(s_src, src, s_dst, dst, LEAKY_SLOPE)
    alpha = ad.segment_softmax(scores, dst, gt.a_hat.shape[0])
    return ad.edge_mix(alpha, h, gt.a_hat, dst)


def hyperatten_chain(layer, gt, x):
    h = ad.matmul(x, layer.theta)
    z = ad.matmul(gt.incidence_t, h, gt.incidence)
    s_node = ad.matmul(h, layer.a_node)
    s_edge = ad.matmul(z, layer.a_edge)
    node, edge = gt.inc_node, gt.incidence.indices
    scores = additive_scores_chain(s_node, node, s_edge, edge, LEAKY_SLOPE,
                                   gt.log_weights[edge].reshape(-1, 1))
    alpha = ad.segment_softmax(scores, node, gt.incidence.shape[0])
    return ad.edge_mix(alpha, z, gt.incidence, node)


CHAIN_LAYERS = {"gat": gat_chain, "hyperatten": hyperatten_chain}


# The loop layers read their pairs from the patterns' COO form, in storage
# order, not from the arrays the layers use.


def gat_loop(layer, gt, x):
    pairs = gt.a_hat.tocoo()
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
    pairs = gt.a_hat.tocoo()
    src, dst, n = pairs.col, pairs.row, pairs.shape[0]
    h_l = ad.matmul(x, layer.theta_l)
    h_r = ad.matmul(x, layer.theta_r)
    pair = ad.add(take_rows_loop(h_l, src), take_rows_loop(h_r, dst))
    scores = ad.matmul(ad.leaky_relu(pair, LEAKY_SLOPE), layer.a)
    alpha = segment_softmax_loop(scores, dst, n)
    return edge_mix_loop(alpha, take_rows_loop(h_l, src), dst, n)


def hyperatten_loop(layer, gt, x):
    pairs = gt.hyper_scatter.tocoo()
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


def row_pattern(rows, cols, shape):
    """A 0/1 CSR pattern storing the pairs in their given order (``rows`` sorted)."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    return sp.csr_matrix((np.ones(rows.size), cols, indptr), shape=shape)


@pytest.mark.parametrize("k, d", [(0, 3), (1, 2), (60, 3), (5000, 9)])
@pytest.mark.parametrize("layout", ["csr"])  # the one pattern format edge_mix takes
def test_edge_mix_matches_scatter_loop(k, d, layout):
    rng = np.random.default_rng(700 + k + d)
    num_out, num_in = 40, 30
    rows, cols = random_pairs(rng, num_out, num_in, k)
    pattern = row_pattern(rows, cols, (num_out, num_in))
    alpha_value = rng.standard_normal((k, 1))
    h_value = rng.standard_normal((num_in, d))
    upstream = rng.standard_normal((num_out, d))
    results = []
    for mix in (lambda a, h: ad.edge_mix(a, h, pattern, rows),
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


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 9, 32])
@pytest.mark.parametrize("k", [1, 2047, 2048, 2049, 5000])
def test_gatv2_scores_match_composed_ops(k, d):
    # Blocks of 2048 pairs: one short, one full, one pair over, several.
    rng = np.random.default_rng(740 + k + d)
    n = 60
    src = rng.integers(n - 1, size=k).astype(np.int32)  # repeats; node 59 no source
    dst = np.sort(rng.integers(n, size=k))
    values = (rng.standard_normal((n, d)), rng.standard_normal((n, d)),
              rng.standard_normal((d, 1)))
    upstream = rng.standard_normal((k, 1))
    selections = (selection_matrix(src, n), selection_matrix(dst, n))
    results = []
    for scores in (lambda *args: ad.gatv2_scores(*args, selections), gatv2_scores_chain):
        tensors = [ad.Tensor(v) for v in values]
        out = scores(*tensors, src, dst, LEAKY_SLOPE)
        backprop(out, upstream)
        results.append([out.value] + [t.grad for t in tensors])
    for got, want in zip(*results):
        assert_same_bits(got, want)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("k", [0, 1, 16, 500])
def test_additive_scores_match_composed_ops(k, with_bias, index_dtype):
    # Indices repeat and are unsorted, and row 39 of s_a is no pair's.  The
    # first pairs run (i, i) over rows 0-7 twice, whose sums are exactly
    # 0.0 (five ways), -0.0, a negative denormal and 2.0, each repeated:
    # ties at the kink and away from it.  The bias holds exact zeros (log 1).
    rng = np.random.default_rng(790 + k + 2 * with_bias)
    n = 40
    s_a_value, s_b_value = rng.standard_normal((n, 1)), rng.standard_normal((n, 1))
    s_a_value[:8, 0] = [0.0, -0.0, -0.0, 5e-324, -5e-324, 2.5, -2.5, 1.0]
    s_b_value[:8, 0] = [-0.0, -0.0, 0.0, -5e-324, -5e-324, -2.5, 2.5, 1.0]
    a, b = rng.integers(n - 1, size=k), rng.integers(n, size=k)
    crafted = np.tile(np.arange(8), 2)[:k]
    a[:crafted.size] = b[:crafted.size] = crafted
    a, b = a.astype(index_dtype), b.astype(index_dtype)
    bias = np.log(rng.choice([1.0, 0.5, 2.0], size=(k, 1))) if with_bias else None
    upstream = rng.standard_normal((k, 1))
    upstream[::7] = -0.0
    results = []
    for scores in (ad.additive_scores, additive_scores_chain):
        s_a, s_b = ad.Tensor(s_a_value), ad.Tensor(s_b_value)
        out = scores(s_a, a, s_b, b, LEAKY_SLOPE, bias)
        # A product with the upstream makes a scalar root on no pairs too.
        ad.matmul(upstream.T, out).backward()
        results.append((out.value, s_a.grad, s_b.grad))
    for got, want in zip(*results):
        assert_same_bits(got, want)
    pre = (s_a_value + s_b_value)[:8, 0]
    assert (pre == 0).sum() == 6 and np.signbit(pre[1]) and pre[4] < 0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(CHAIN_LAYERS))
def test_attention_layer_matches_composed_score_chain(name, seed):
    # The whole layer against the one whose scores are the op chain: every
    # gradient's terms must be added in the chain's order.  Seed 0 has no
    # hyperedges, so hyperatten scores an empty pair list.
    rng = np.random.default_rng(800 + seed)
    g = random_graph(rng, int(rng.integers(8, 80)), 0 if seed == 0 else int(rng.integers(1, 30)))
    gt = build_graph_tensors(g)
    layer = LAYER_TYPES[name](3, 5, np.random.default_rng(seed))
    upstream = rng.standard_normal((g.num_nodes, 5))
    results = []
    for forward in (layer.forward, lambda gt, x: CHAIN_LAYERS[name](layer, gt, x)):
        for p in layer.params():
            p.grad = None
        out = forward(gt, ad.Tensor(g.node_features))
        backprop(out, upstream)
        results.append([out.value] + [p.grad for p in layer.params()])
    for got, want in zip(*results):
        assert_same_bits(got, want)


SIGNED_SPECIALS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5, -2.5]


@pytest.mark.parametrize("name", ["relu", "leaky_relu"])
def test_activation_matches_where_form(name):
    # Specials at many offsets, so vector lanes and loop tails both see them.
    rng = np.random.default_rng(750)
    flat = np.concatenate([np.tile(SIGNED_SPECIALS, 9), rng.standard_normal(69)])
    value = rng.permutation(flat).reshape(-1, 3)
    upstream = rng.standard_normal(value.shape)
    if name == "relu":
        pair = (ad.relu, relu_where)
    else:
        pair = (lambda a: ad.leaky_relu(a, LEAKY_SLOPE),
                lambda a: leaky_relu_where(a, LEAKY_SLOPE))
    results = []
    for act in pair:
        a = ad.Tensor(value)
        out = act(a)
        out._backward(upstream)  # a mean over the infinities would be NaN
        results.append((out.value, a.grad))
    for got, want in zip(*results):
        assert_same_bits(got, want)


@pytest.mark.parametrize("shape", [(50,), (50, 1), (50, 4)])
def test_take_rows_matches_scatter_loop(shape):
    # take_rows gathers unique ascending rows (the loss rows) and refuses
    # any others, which the loop would scatter-add.
    rng = np.random.default_rng(710 + len(shape))
    with pytest.raises(ValueError, match="unique ascending"):
        ad.take_rows(ad.Tensor(np.zeros(shape)), rng.integers(shape[0] - 5, size=200))
    idx = np.sort(rng.choice(shape[0] - 5, size=30, replace=False))  # the last rows unused
    value = rng.standard_normal(shape)
    upstream = rng.standard_normal((idx.size,) + shape[1:])
    grads = []
    for take in (ad.take_rows, take_rows_loop):
        a = ad.Tensor(value)
        out = take(a, idx)
        np.testing.assert_array_equal(out.value, value[idx])
        backprop(out, upstream)
        grads.append(a.grad)
    np.testing.assert_array_equal(grads[0], grads[1])


def selection_matrix(rows, num_rows):
    """The COO-built (num_rows, k) 0/1 matrix whose column j selects row ``rows[j]``."""
    k = rows.size
    return sp.csr_matrix((np.ones(k), (rows, np.arange(k))), shape=(num_rows, k))


SCATTER_ROWS = {
    "sorted": lambda rng: np.sort(rng.integers(37, size=300)),
    "unsorted": lambda rng: rng.integers(37, size=300),
    "unique sorted": lambda rng: np.sort(rng.choice(40, size=25, replace=False)),
    "unique unsorted": lambda rng: rng.choice(40, size=25, replace=False),
    "every row": lambda rng: np.arange(40),
    "loss rows": lambda rng: np.sort(rng.permutation(40)[:24]),  # a 6:2:2 split's train rows
    "first and last": lambda rng: np.array([0, 39]),
    "one row repeated": lambda rng: np.full(50, 7),
    "single": lambda rng: np.array([39]),
    "empty": lambda rng: np.zeros(0, dtype=np.int64),
}


# The row sets take_rows refuses: repeated or out of order.
REFUSED_ROWS = {"sorted", "unsorted", "unique unsorted", "one row repeated"}


@pytest.mark.parametrize("width", [None, 1, 2, 32])
@pytest.mark.parametrize("name", sorted(SCATTER_ROWS))
def test_take_rows_backward_matches_selection_product(name, width):
    # Specials (signed zeros, infinities, NaN) at many offsets, so sums hit
    # -0.0 + -0.0, inf - inf and NaN propagation in both orders.  Unique
    # ascending rows (the loss rows) are placed, which equals the product
    # bit for bit; any other rows are refused.
    rng = np.random.default_rng(760 + len(name) + (width or 0))
    rows = SCATTER_ROWS[name](rng)
    shape = (rows.size,) if width is None else (rows.size, width)
    upstream = specials(rng, shape)
    a = ad.Tensor(np.zeros((40,) + shape[1:]))
    for idx in (rows, rows.astype(np.int32)):
        if name in REFUSED_ROWS:
            with pytest.raises(ValueError, match="unique ascending"):
                ad.take_rows(a, idx)
            continue
        a.grad = None
        ad.take_rows(a, idx)._backward(upstream)
        assert_same_bits(a.grad, selection_matrix(rows, 40) @ upstream)


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


# -- sort-and-mask unique ------------------------------------------------------


def unique_cases():
    rng = np.random.default_rng(700)
    n = 50_000  # the directed pair keys of a 50k-node graph span n**2
    pairs = rng.integers(n, size=(3000, 2))
    return {
        "wide-range pair keys": np.concatenate([pairs[:, 0] * n + pairs[:, 1]] * 2),
        "wide-range with negatives": rng.integers(-2**62, 2**62, size=500),
        "small-range": rng.integers(20, size=1000),
        "walk ids": rng.integers(5000, size=2500),
        "empty": np.zeros(0, dtype=np.int64),
        "one": np.array([7]),
        "all duplicates": np.full(64, 3),
        "sorted distinct": np.arange(10),
        "int32": rng.integers(100, size=300).astype(np.int32),
    }


@pytest.mark.parametrize("name", sorted(unique_cases()))
def test_sort_unique_matches_numpy(name):
    keys = unique_cases()[name]
    got, want = sort_unique(keys), np.unique(keys)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    (got, got_first), (want, want_first) = (sort_unique(keys, return_index=True),
                                            np.unique(keys, return_index=True))
    assert got.dtype == want.dtype and got_first.dtype == want_first.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_first, want_first)


def random_members(rng, ascending, empty_ends):
    """Members and offsets of 40 hyperedges of 0-6 members drawn from -3..12,
    duplicates allowed, so empty hyperedges and out-of-range members occur
    too; ``empty_ends`` empties the first two and the last two."""
    sizes = rng.integers(0, 7, size=40)
    if empty_ends:
        sizes[[0, 1, -2, -1]] = 0
    members = rng.integers(-3, 13, size=sizes.sum())
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if ascending:
        members = np.concatenate([np.sort(members[a:b]) for a, b in zip(offsets, offsets[1:])])
    return members.astype(np.int64), offsets


@pytest.mark.parametrize("seed", range(20))
def test_sorted_members_match_lexsort(seed):
    # Construction stores each hyperedge's members as a lexsort by
    # (hyperedge, member) orders them; ascending input is kept, not copied.
    rng = np.random.default_rng(seed)
    for ascending in (False, True):
        members, offsets = random_members(rng, ascending, empty_ends=seed % 2 == 1)
        given = members.copy()
        want = members[np.lexsort((members, np.repeat(np.arange(40), np.diff(offsets))))]
        h = Hyperedges(members, offsets)
        np.testing.assert_array_equal(h.members, want)
        np.testing.assert_array_equal(members, given)  # the input is not sorted in place
        assert h.offsets is offsets and not h.members.flags.writeable
        kept = np.array_equal(given, want)
        assert kept or not ascending
        assert (h.members is members) == kept
        # Only a sort needs each member's hyperedge: a kept array computes none.
        assert (h._edge_of is None) == kept


# -- graph transforms ----------------------------------------------------------
#
# ``classify``, ``to_simple`` and ``to_two_level_hierarchy`` as they were
# when they walked the hyperedge tuples and per-node Python sets.


def levels_loop(parent):
    n = parent.shape[0]
    depth = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        chain = []
        u = v
        while depth[u] < 0 and parent[u] != u:
            chain.append(u)
            u = int(parent[u])
        base = depth[u] if depth[u] >= 0 else 0
        if depth[u] < 0:
            depth[u] = 0
        for node in reversed(chain):
            base += 1
            depth[node] = base
    return depth


def roots_loop(parent):
    top = np.arange(parent.shape[0])
    for v in range(parent.shape[0]):
        while parent[top[v]] != top[v]:
            top[v] = parent[top[v]]
    return top


def classify_loop(g):
    g.require_valid()
    if (g.parent == np.arange(g.num_nodes)).all():
        if all(len(e) == 2 for e in g.hyperedges):
            return GraphKind.SIMPLE
        if any(len(e) >= 3 for e in g.hyperedges):
            return GraphKind.HYPERGRAPH
        return GraphKind.GENERAL_HYBRID
    if not all(len(e) == 2 for e in g.hyperedges):
        return GraphKind.GENERAL_HYBRID
    depth = levels_loop(g.parent)
    pair_nbrs = [set(s) for s in g.adjacency_sets]
    for u, v in g.hyperedges:
        pair_nbrs[u].add(v)
        pair_nbrs[v].add(u)
    for v in range(g.num_nodes):
        if g.parent[v] != v and not any(depth[u] == depth[v] - 1 for u in pair_nbrs[v]):
            return GraphKind.GENERAL_HYBRID
    return GraphKind.HIERARCHICAL


def canonical_pairs_loop(pairs):
    uniq = sorted({(int(min(u, v)), int(max(u, v))) for u, v in pairs})
    return np.array(uniq, dtype=np.int64) if uniq else np.zeros((0, 2), dtype=np.int64)


def to_simple_loop(g):
    g.require_valid()
    pairs = [tuple(e) for e in g.simple_edges] + [e for e in g.hyperedges if len(e) == 2]
    return HybridGraph(node_features=g.node_features, simple_edges=canonical_pairs_loop(pairs),
                       labels=g.labels, task=g.task)


def to_two_level_loop(g):
    g.require_valid()
    n, m = g.num_nodes, g.num_hyperedges
    x = np.zeros((n + m, g.node_features.shape[1]))
    x[:n] = g.node_features
    parent = np.arange(n + m, dtype=np.int64)
    parent[:n] = g.parent
    labels = np.zeros(n + m, dtype=g.labels.dtype)
    labels[:n] = g.labels
    pairs = [tuple(e) for e in g.simple_edges]
    for k, e in enumerate(g.hyperedges):
        x[n + k] = g.node_features[list(e)].mean(axis=0)
        if g.task.is_classification:
            counts = Counter(int(g.labels[v]) for v in e)
            top = max(counts.values())
            labels[n + k] = min(c for c, cnt in counts.items() if cnt == top)
        else:
            labels[n + k] = g.labels[list(e)].mean()
        pairs.extend((v, n + k) for v in e)
    assigned = np.zeros(n, dtype=bool)
    for k, e in enumerate(g.hyperedges):
        for v in e:
            if not assigned[v]:
                parent[v] = n + k
                assigned[v] = True
    return HybridGraph(node_features=x, simple_edges=canonical_pairs_loop(pairs),
                       parent=parent, labels=labels, task=g.task)


def forest(rng, n):
    """A parent forest whose first four nodes form a chain three levels deep."""
    parent = np.where(rng.random(n) < 0.3, np.arange(n),
                      (rng.random(n) * np.arange(n)).astype(np.int64))
    parent[:4] = [0, 0, 1, 2]
    return parent


def transform_inputs(seed):
    """The fields, as given to ``HybridGraph``, of a valid graph for the
    transforms, its shape picked by the seed.

    Seeds cycle through four shapes: a hierarchy whose edges are all pairs
    (simple edges and size-2 hyperedges, repeated between the two and among
    the hyperedges), that hierarchy with one level link missing, a flat
    graph with hyperedges of 1 to 12 members, and a hierarchy with such
    hyperedges.  Members are listed unsorted; labels are two classes (so
    majority votes tie) or, for odd seeds, regression values.
    """
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(6, 40))
    shape = seed % 4
    parent = np.arange(n) if shape == 2 else forest(rng, n)
    depth = levels_loop(parent)
    pairs = set()
    for v in range(n):  # a link to some node one level up, not always the parent
        up = np.flatnonzero(depth == depth[v] - 1)
        if up.size and not (shape == 1 and v == n - 1):
            u = int(rng.choice(up))
            pairs.add((min(u, v), max(u, v)))
    for u, v in rng.integers(n, size=(n // 2, 2)):
        if u != v:
            pairs.add((int(min(u, v)), int(max(u, v))))
    pairs = [p[::-1] if rng.random() < 0.5 else p for p in sorted(pairs)]
    as_edge = rng.random(len(pairs)) < 0.6
    edges = [p for p, e in zip(pairs, as_edge) if e]
    hyperedges = [p for p, e in zip(pairs, as_edge) if not e]
    hyperedges += [edges[i] for i in rng.integers(len(edges), size=3)] if edges else []
    hyperedges += hyperedges[:2]  # duplicate hyperedges
    if shape >= 2:
        hyperedges += [tuple(rng.choice(n, size=int(rng.integers(1, min(n, 12) + 1)),
                                        replace=False).tolist()) for _ in range(8)]
    rng.shuffle(hyperedges)
    if seed % 2:
        labels, task = rng.standard_normal(n), Task("regression")
    else:
        labels, task = rng.integers(2, size=n), TWO_CLASSES
    return dict(node_features=rng.standard_normal((n, 3)), simple_edges=edges,
                hyperedges=hyperedges, parent=parent, labels=labels, task=task)


def transform_graph(seed):
    return HybridGraph(**transform_inputs(seed))


@pytest.mark.parametrize("seed", range(20))
def test_ancestry_matches_loops(seed):
    rng = np.random.default_rng(800 + seed)
    parent = forest(rng, int(rng.integers(4, 80)))
    top, depth = _ancestry(parent)
    np.testing.assert_array_equal(depth, levels_loop(parent))
    np.testing.assert_array_equal(top, roots_loop(parent))
    assert depth.max() >= 3


@pytest.mark.parametrize("seed", range(24))
def test_transforms_match_loops(seed):
    g = transform_graph(seed)
    assert g.violations == ()
    assert classify(g) == classify_loop(g)
    for got, want in ((to_simple(g), to_simple_loop(g)),
                      (to_two_level_hierarchy(g), to_two_level_loop(g))):
        assert structurally_equal(got, want)
        assert got.simple_edges.dtype == want.simple_edges.dtype
        assert got.labels.dtype == want.labels.dtype
        assert classify(got) == classify_loop(got)


def test_transform_graphs_cover_every_branch():
    graphs = [transform_graph(seed) for seed in range(24)]
    kinds = {classify(g) for g in graphs} | {classify(to_simple(g)) for g in graphs}
    assert kinds == set(GraphKind)
    sizes = {len(e) for g in graphs for e in g.hyperedges}
    assert {1, 2} <= sizes and max(sizes) >= 8
    assert any(list(e) != sorted(e) for seed in range(24)
               for e in transform_inputs(seed)["hyperedges"])
