import hashlib
import json
import tracemalloc
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from scipy.spatial import cKDTree

from hygraph.construct import (
    ball_hyperedges,
    cliques_to_hyperedges,
    interval_hyperedges,
)
from hygraph.graph import InvalidGraphError


def brute_force_cliques(n, edges, min_size):
    """Check every subset: slow, obviously correct reference."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[int(u)].add(int(v))
        adj[int(v)].add(int(u))

    def is_clique(nodes):
        return all(v in adj[u] for u, v in combinations(nodes, 2))

    out = []
    for size in range(min_size, n + 1):
        for nodes in combinations(range(n), size):
            if not is_clique(nodes):
                continue
            extendable = any(
                all(w in adj[u] for u in nodes) for w in set(range(n)) - set(nodes)
            )
            if not extendable:
                out.append(tuple(nodes))
    return sorted(out)


def random_edges(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def networkx_oracle_inputs():
    """``(num_nodes, edges)`` pairs for the comparison with ``nx.find_cliques``."""
    rng = np.random.default_rng(22)
    for trial in range(10):
        n = int(rng.integers(5, 30))
        yield n, random_edges(rng, n, p=0.3)
    # A hub joined to cliques, and power-law graphs: inputs whose ascending
    # degree order differs from a degeneracy order.
    groups = [range(1, 4), range(4, 8), range(8, 13), range(13, 19), range(19, 26)]
    star = [(0, v) for v in range(1, 26)]
    yield 26, np.array(star + [pair for g in groups for pair in combinations(g, 2)])
    for seed in range(3):
        yield 300, np.array(nx.powerlaw_cluster_graph(300, 3, 0.6, seed=seed).edges())
        yield 300, np.array(nx.barabasi_albert_graph(300, 5, seed=seed).edges())
    # Banded like a k-NN graph: node i joined to its next k nodes, ids permuted.
    for k in (4, 6):
        perm = rng.permutation(200)
        yield 200, np.array([
            (perm[i], perm[j]) for i in range(200) for j in range(i + 1, min(i + k + 1, 200))
        ])
    # Two components and isolated nodes.
    yield 35, np.concatenate([random_edges(rng, 15, 0.5) + 3, random_edges(rng, 12, 0.6) + 20])
    # Duplicate and reversed edges.
    e = random_edges(rng, 20, 0.4)
    yield 20, rng.permutation(np.concatenate([e, e[:, ::-1], e[: len(e) // 2]]))
    # Self-loops, which nx.find_cliques ignores.
    yield 3, np.array([[0, 0], [0, 1], [1, 2], [0, 2]])
    yield 4, np.array([[1, 1], [0, 1], [1, 2], [0, 2], [2, 3], [1, 3]])
    loops = rng.choice(20, size=8, replace=False)
    e = random_edges(rng, 20, 0.4)
    yield 20, rng.permutation(np.concatenate([e, np.stack([loops, loops], axis=1)]))


class TestCliques:
    def test_triangle_with_pendant(self):
        edges = np.array([[0, 1], [1, 2], [2, 0], [2, 3]])
        assert cliques_to_hyperedges(4, edges) == [(0, 1, 2)]

    def test_two_overlapping_triangles(self):
        edges = np.array([[0, 1], [1, 2], [2, 0], [1, 3], [2, 3]])
        assert cliques_to_hyperedges(4, edges) == [(0, 1, 2), (1, 2, 3)]

    def test_complete_graph_is_one_clique(self):
        n = 6
        edges = np.array(list(combinations(range(n), 2)))
        assert cliques_to_hyperedges(n, edges) == [tuple(range(n))]

    def test_no_output_below_min_size(self):
        edges = np.array([[0, 1], [1, 2]])
        assert cliques_to_hyperedges(3, edges) == []

    def test_min_size_filter(self):
        n = 5
        edges = np.array(list(combinations(range(4), 2)) + [[3, 4]])
        assert cliques_to_hyperedges(n, edges, min_size=4) == [(0, 1, 2, 3)]

    def test_out_of_range_edge_rejected(self):
        for edges in ([[0, 3]], [[3, 3]], [[-1, 0]]):
            with pytest.raises(InvalidGraphError, match="out of range"):
                cliques_to_hyperedges(3, np.array(edges))

    def test_min_size_must_be_at_least_three(self):
        with pytest.raises(ValueError):
            cliques_to_hyperedges(3, np.zeros((0, 2), dtype=np.int64), min_size=2)

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            n = int(rng.integers(4, 10))
            edges = random_edges(rng, n, p=0.5)
            got = cliques_to_hyperedges(n, edges)
            assert got == brute_force_cliques(n, edges, 3)

    def test_matches_networkx(self):
        for min_size in (3, 4, 5):
            for n, edges in networkx_oracle_inputs():
                graph = nx.Graph()
                graph.add_nodes_from(range(n))
                graph.add_edges_from(edges.tolist())
                expected = sorted(
                    tuple(sorted(c)) for c in nx.find_cliques(graph) if len(c) >= min_size
                )
                assert cliques_to_hyperedges(n, edges, min_size) == expected

    def test_output_canonical_order(self):
        rng = np.random.default_rng(23)
        edges = random_edges(rng, 12, p=0.4)
        cliques = cliques_to_hyperedges(12, edges)
        assert cliques == sorted(cliques)
        assert all(list(c) == sorted(c) for c in cliques)


def brute_force_intervals(positions, window):
    seen = set()
    for anchor, (chrom, offset) in enumerate(positions):
        members = tuple(sorted(
            v for v, (c, o) in enumerate(positions)
            if c == chrom and abs(o - offset) <= window
        ))
        seen.add(members)
    return sorted(seen)


class TestIntervals:
    def test_window_groups(self):
        positions = [("chr1", 0), ("chr1", 150_000), ("chr1", 400_000)]
        assert interval_hyperedges(positions) == [(0, 1), (2,)]

    def test_chromosomes_never_mix(self):
        positions = [("chr1", 0), ("chr2", 0), ("chr1", 10)]
        assert interval_hyperedges(positions, window=100) == [(0, 2), (1,)]

    def test_duplicate_windows_collapse(self):
        positions = [("c", 0), ("c", 1), ("c", 2)]
        assert interval_hyperedges(positions, window=10) == [(0, 1, 2)]

    def test_boundary_is_inclusive(self):
        positions = [("c", 0), ("c", 200_000)]
        assert interval_hyperedges(positions) == [(0, 1)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            n = int(rng.integers(1, 25))
            base = int(rng.choice([0, 2**31 - 8, 2**40]))
            spread = int(rng.choice([4, 30]))  # 4 packs many nodes on tied offsets
            positions = [
                (f"chr{int(rng.integers(1, 4))}", base + int(rng.integers(0, spread)))
                for _ in range(n)
            ]
            for window in (0, int(rng.integers(0, 12))):
                assert interval_hyperedges(positions, window) == brute_force_intervals(
                    positions, window
                )

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            interval_hyperedges([("c", 0)], window=-1)

    def test_window_beyond_int64_rejected(self):
        # offset + window once wrapped to a negative bound, giving [(), (0, 1)]
        positions = [("c", 2**62), ("c", 0)]
        for window in (2**62, 2**63, 2**64):
            with pytest.raises(ValueError, match="int64"):
                interval_hyperedges(positions, window=window)
        with pytest.raises(ValueError, match="int64"):
            interval_hyperedges([("c", -2**62), ("c", 0)], window=2**62 + 1)
        assert interval_hyperedges(positions, window=2**62 - 1) == [(0,), (1,)]
        assert interval_hyperedges([("c", -2**62), ("c", 0)], window=2**62) == [(0, 1)]


def brute_force_balls(emb, tau, metric):
    n = emb.shape[0]
    out = []
    for i in range(n):
        members = []
        for j in range(n):
            if metric == "euclidean":
                d = float(np.linalg.norm(emb[i] - emb[j]))
            else:
                cos = emb[i] @ emb[j] / (np.linalg.norm(emb[i]) * np.linalg.norm(emb[j]))
                d = 1.0 - cos
            if d <= tau + 1e-12:
                members.append(j)
        out.append(tuple(members))
    return out


def whole_matrix_balls(emb, tau, metric):
    """Balls from the distance expression on all rows at once."""
    if metric == "euclidean":
        sq = np.einsum("ij,ij->i", emb, emb)
        within = sq[:, None] + sq[None, :] - 2.0 * emb @ emb.T <= tau * tau + 1e-12
    else:
        unit = emb / np.sqrt(np.einsum("ij,ij->i", emb, emb))[:, None]
        within = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0) <= tau + 1e-12
    return [tuple(np.flatnonzero(row).tolist()) for row in within]


class TestBalls:
    def test_line_example(self):
        emb = np.array([[0.0], [1.0], [10.0]])
        assert ball_hyperedges(emb, tau=2.0) == [(0, 1), (0, 1), (2,)]

    def test_one_hyperedge_per_node(self):
        rng = np.random.default_rng(41)
        emb = rng.standard_normal((17, 3))
        assert len(ball_hyperedges(emb, tau=0.8)) == 17

    def test_duplicates_kept(self):
        emb = np.zeros((3, 2))
        assert ball_hyperedges(emb, tau=0.5) == [(0, 1, 2)] * 3

    def test_anchor_always_member(self):
        rng = np.random.default_rng(42)
        emb = rng.standard_normal((20, 4))
        for anchor, members in enumerate(ball_hyperedges(emb, tau=1e-9)):
            assert anchor in members

    def test_matches_brute_force_euclidean(self):
        rng = np.random.default_rng(43)
        for trial in range(15):
            emb = rng.standard_normal((int(rng.integers(1, 20)), 3))
            tau = float(rng.uniform(0.1, 3.0))
            assert ball_hyperedges(emb, tau) == brute_force_balls(emb, tau, "euclidean")

    def test_matches_brute_force_cosine(self):
        rng = np.random.default_rng(44)
        for trial in range(15):
            emb = rng.standard_normal((int(rng.integers(1, 20)), 3))
            tau = float(rng.uniform(0.05, 1.5))
            got = ball_hyperedges(emb, tau, metric="cosine")
            assert got == brute_force_balls(emb, tau, "cosine")

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("n", [0, 1, 5, 63, 64, 65, 129, 130, 200])
    def test_row_blocks_match_whole_matrix(self, n, metric):
        # Blocks of rows computed in place give each element the same bits;
        # n below the block size and n not a multiple of it included.
        rng = np.random.default_rng(45 + n)
        emb = rng.standard_normal((n, 3)) * rng.uniform(0.2, 2.0)
        for tau in (0.0, 0.3, 1.1):
            assert ball_hyperedges(emb, tau, metric) == whole_matrix_balls(emb, tau, metric)

    def test_memory_is_a_few_row_blocks(self):
        # 5000 points: the whole distance matrix would be 200 MB.
        emb = np.random.default_rng(46).standard_normal((5000, 4))
        tracemalloc.start()
        try:
            ball_hyperedges(emb, tau=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, peak

    def test_non_finite_rejected(self):
        emb = np.array([[0.0], [np.nan]])
        with pytest.raises(ValueError, match="finite"):
            ball_hyperedges(emb, tau=1.0)

    def test_zero_vector_rejected_for_cosine(self):
        emb = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="zero"):
            ball_hyperedges(emb, tau=0.5, metric="cosine")

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            ball_hyperedges(np.ones((2, 2)), tau=1.0, metric="manhattan")


def seeded_point_cloud(n=1000, seed=51):
    """Clustered 4-d points, their 6-nearest-neighbour edges, and positions
    on four chromosomes that put about ten nodes in a default window."""
    rng = np.random.default_rng(seed)
    points = 4.0 * np.eye(4)[rng.integers(4, size=n)] + rng.standard_normal((n, 4))
    _, nbr = cKDTree(points).query(points, k=7)
    edges = np.stack([np.repeat(np.arange(n), 6), nbr[:, 1:].ravel()], axis=1)
    chrom, offsets = rng.integers(4, size=n), rng.integers(0, 10**7, size=n)
    positions = [(f"chr{c}", o) for c, o in zip(chrom.tolist(), offsets.tolist())]
    return points, edges, positions


class TestPinnedConstructions:
    """sha256 of each construction's list, as JSON, on ``seeded_point_cloud()``:
    a rewrite of any of them must return exactly the same lists."""

    DIGESTS = {
        "clique": "e2fce43eb5d0f641155baa986bbe404b4b1b4c64b5d7a9b8d552d1a23a336dc3",
        "interval": "2f8e4f9cf0c8e2a237c2eb128db69696f7923d702311af5e2c4bd0c4863aac7f",
        "ball": "98e5773067c6617cee5e6439799393c570a9fe9f61bf21a7e51828d6a3f61814",
    }

    def test_digests(self):
        points, edges, positions = seeded_point_cloud()
        built = {
            "clique": cliques_to_hyperedges(len(points), edges),
            "interval": interval_hyperedges(positions),
            "ball": ball_hyperedges(points, tau=1.0),
        }
        digests = {k: hashlib.sha256(json.dumps(v).encode()).hexdigest() for k, v in built.items()}
        assert digests == self.DIGESTS
