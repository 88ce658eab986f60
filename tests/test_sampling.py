import hashlib
import json
from collections import Counter
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

import hygraph.graph
from hygraph import HybridGraph, InvalidGraphError, Task, sampling, validate
from hygraph.graph import Hyperedges
from hygraph.nn.layers import build_graph_tensors
from hygraph.nn.models import ModelSpec
from hygraph.nn.train import TrainConfig, run_experiment, train_single
from hygraph.sampling import (
    SampledSubgraph,
    SamplerSpec,
    induce,
    run_sampler,
    sample_edges,
    sample_nodes_by_degree,
    sample_random_walk,
    sample_uniform_hyperedges,
    sample_uniform_nodes,
    weighted_sample_without_replacement,
)
from hygraph.stats import compute_stats, sampler_report
from hygraph.synthetic import make_classification_graph


def graph(n, edges=(), hyperedges=(), **kwargs):
    return HybridGraph(
        node_features=np.arange(n * 2, dtype=np.float64).reshape(n, 2),
        simple_edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        hyperedges=tuple(tuple(e) for e in hyperedges),
        **kwargs,
    )


class TestWeightedDraws:
    def test_distinct_and_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            idx = weighted_sample_without_replacement(np.arange(1.0, 9.0), 5, rng)
            assert len(set(idx.tolist())) == 5
            assert idx.min() >= 0 and idx.max() < 8

    def test_first_draw_proportional_to_weight(self):
        rng = np.random.default_rng(1)
        w = np.array([5.0, 3.0, 2.0])
        counts = Counter(
            int(weighted_sample_without_replacement(w, 1, rng)[0])
            for _ in range(30000)
        )
        for i, expect in enumerate(w / w.sum()):
            assert counts[i] / 30000 == pytest.approx(expect, abs=0.02)

    def test_order_matches_sequential_removal(self):
        # exact law of sequential draws: P(a,b,c) = w_a/W * w_b/(W-w_a) * ...
        rng = np.random.default_rng(2)
        w = np.array([5.0, 3.0, 2.0])
        total = w.sum()
        trials = 30000
        counts = Counter(
            tuple(weighted_sample_without_replacement(w, 3, rng).tolist())
            for _ in range(trials)
        )
        for order in permutations(range(3)):
            prob, left = 1.0, total
            for i in order:
                prob *= w[i] / left
                left -= w[i]
            assert counts[order] / trials == pytest.approx(prob, abs=0.02)

    def test_zero_weight_never_drawn(self):
        rng = np.random.default_rng(3)
        w = np.array([1.0, 0.0, 1.0])
        for _ in range(500):
            idx = weighted_sample_without_replacement(w, 2, rng)
            assert 1 not in idx

    def test_rejects_bad_weights(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            weighted_sample_without_replacement(np.array([1.0, -1.0]), 1, rng)
        with pytest.raises(ValueError):
            weighted_sample_without_replacement(np.array([1.0, 0.0]), 2, rng)


class TestInduce:
    def fixture(self):
        return graph(
            6,
            edges=[[0, 1], [1, 2], [3, 4]],
            hyperedges=[(0, 1, 5), (2, 3), (4, 5), (3,)],
            hyperedge_weights=np.array([1.0, 2.0, 3.0, 4.0]),
            parent=np.array([0, 0, 1, 0, 3, 3]),
            labels=np.array([10.0, 11.0, 12.0, 13.0, 14.0, 15.0]),
        )

    def test_node_ids_sorted_and_deduplicated(self):
        sub = induce(self.fixture(), [3, 1, 0, 3])
        np.testing.assert_array_equal(sub.node_ids, [0, 1, 3])

    def test_edges_restricted_and_relabeled(self):
        sub = induce(self.fixture(), [0, 1, 3])
        np.testing.assert_array_equal(sub.simple_edges, [[0, 1]])

    def test_hyperedges_masked(self):
        sub = induce(self.fixture(), [0, 1, 3])
        # intersect, relabel, keep singletons, drop empties
        assert sub.hyperedges == ((0, 1), (2,), (2,))
        np.testing.assert_array_equal(sub.hyperedge_ids, [0, 1, 3])
        np.testing.assert_array_equal(sub.hyperedge_weights, [1.0, 2.0, 4.0])

    def test_parent_falls_back_to_self(self):
        sub = induce(self.fixture(), [1, 2, 4])
        # 1 -> 0 (outside), 2 -> 1 (inside), 4 -> 3 (outside)
        np.testing.assert_array_equal(sub.parent, [0, 0, 2])

    def test_features_and_labels_inherited(self):
        sub = induce(self.fixture(), [0, 5])
        np.testing.assert_array_equal(sub.labels, [10.0, 15.0])
        np.testing.assert_array_equal(
            sub.node_features, [[0.0, 1.0], [10.0, 11.0]]
        )

    def test_to_graph_is_valid(self):
        g = self.fixture()
        sub = induce(g, [0, 1, 3])
        assert sub.to_graph().violations == ()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            induce(self.fixture(), [0, 9])


def random_valid_graph(rng: np.random.Generator) -> HybridGraph:
    """A small valid graph: edges and hyperedge members in random order, duplicate
    hyperedges, weights, optional features, a random forest and either task."""
    n = int(rng.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
    picked = rng.permutation(len(pairs))[:int(rng.integers(0, len(pairs) + 1))]
    edges = [pairs[i][::-1] if rng.random() < 0.5 else pairs[i] for i in picked]
    hyperedges = [tuple(rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist())
                  for _ in range(int(rng.integers(0, 6)))]
    if hyperedges and rng.random() < 0.3:
        hyperedges.append(hyperedges[0])
    m = len(hyperedges)
    order = rng.permutation(n)  # a node's parent comes earlier in this order
    parent = np.arange(n)
    for i in range(1, n):
        if rng.random() < 0.6:
            parent[order[i]] = order[rng.integers(0, i)]
    if rng.random() < 0.5:
        k = int(rng.integers(2, 5))
        task, labels = Task("classification", num_classes=k), rng.integers(0, k, size=n)
    else:
        task, labels = Task("regression"), rng.standard_normal(n)
    return graph(
        n, edges, hyperedges,
        hyperedge_weights=rng.uniform(0.1, 3.0, size=m),
        hyperedge_features=rng.standard_normal((m, 2)) if rng.random() < 0.5 else None,
        parent=parent, labels=labels, task=task,
    )


class TestDegreeSampler:
    def test_star_center_frequency(self):
        # degrees (3,1,1,1): squared shifted weights 16,4,4,4
        g = graph(4, edges=[[0, 1], [0, 2], [0, 3]])
        trials = 30000
        rng = np.random.default_rng(5)
        hits = sum(
            int(sample_nodes_by_degree(g, 1, rng).node_ids[0] == 0)
            for _ in range(trials)
        )
        assert hits / trials == pytest.approx(16 / 28, abs=0.02)

    def test_budget_bounds(self):
        g = graph(3, edges=[[0, 1]])
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            sample_nodes_by_degree(g, 0, rng)
        with pytest.raises(ValueError):
            sample_nodes_by_degree(g, 4, rng)

    def test_full_budget_returns_everything(self):
        g = graph(5, edges=[[0, 1], [2, 3]])
        sub = sample_nodes_by_degree(g, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(sub.node_ids, np.arange(5))


class TestEdgeSampler:
    def test_first_edge_distribution(self):
        # triangle plus pendant: degrees (2,2,3,1)
        g = graph(4, edges=[[0, 1], [1, 2], [2, 0], [2, 3]])
        expected = {
            (0, 1): 1 / 4,
            (1, 2): 5 / 24,
            (0, 2): 5 / 24,
            (2, 3): 1 / 3,
        }
        trials = 30000
        rng = np.random.default_rng(8)
        counts: Counter = Counter()
        for _ in range(trials):
            ids = sample_edges(g, 1, rng).node_ids
            counts[tuple(ids.tolist())] += 1
        for pair, prob in expected.items():
            assert counts[pair] / trials == pytest.approx(prob, abs=0.02)

    def test_nodes_are_endpoint_union(self):
        g = graph(6, edges=[[0, 1], [2, 3], [4, 5]])
        sub = sample_edges(g, 3, np.random.default_rng(9))
        np.testing.assert_array_equal(sub.node_ids, np.arange(6))

    def test_requires_edges(self):
        g = graph(3)
        with pytest.raises(ValueError):
            sample_edges(g, 1, np.random.default_rng(10))


class TestRandomWalkSampler:
    def test_triangle_two_step_sizes(self):
        g = graph(3, edges=[[0, 1], [1, 2], [2, 0]])
        trials = 30000
        rng = np.random.default_rng(11)
        sizes = Counter(
            sample_random_walk(g, roots=1, walk_length=2, rng=rng).num_nodes
            for _ in range(trials)
        )
        assert sizes[2] / trials == pytest.approx(0.5, abs=0.02)
        assert sizes[3] / trials == pytest.approx(0.5, abs=0.02)

    def test_walk_halts_at_isolated_node(self):
        g = graph(3, edges=[[1, 2]])
        for seed in range(20):
            sub = sample_random_walk(g, roots=1, walk_length=5,
                                     rng=np.random.default_rng(seed))
            if 0 in sub.node_ids:
                assert sub.num_nodes == 1

    def test_zero_length_walk_is_roots_only(self):
        g = graph(4, edges=[[0, 1], [1, 2], [2, 3]])
        sub = sample_random_walk(g, roots=1, walk_length=0,
                                 rng=np.random.default_rng(12))
        assert sub.num_nodes == 1

    def test_covers_connected_graph_eventually(self):
        g = graph(5, edges=[[0, 1], [1, 2], [2, 3], [3, 4]])
        sub = sample_random_walk(g, roots=20, walk_length=10,
                                 rng=np.random.default_rng(13))
        np.testing.assert_array_equal(sub.node_ids, np.arange(5))


class TestUniformSamplers:
    def test_uniform_node_frequencies(self):
        g = graph(5)
        rng = np.random.default_rng(14)
        counts = Counter(
            int(sample_uniform_nodes(g, 1, rng).node_ids[0]) for _ in range(20000)
        )
        for v in range(5):
            assert counts[v] / 20000 == pytest.approx(0.2, abs=0.02)

    def test_uniform_hyperedge_union(self):
        g = graph(6, hyperedges=[(0, 1, 2), (3, 4), (4, 5)])
        sub = sample_uniform_hyperedges(g, 3, np.random.default_rng(15))
        np.testing.assert_array_equal(sub.node_ids, np.arange(6))

    def test_uniform_hyperedge_frequencies(self):
        g = graph(6, hyperedges=[(0, 1), (2, 3), (4, 5)])
        rng = np.random.default_rng(16)
        counts = Counter(
            tuple(sample_uniform_hyperedges(g, 1, rng).node_ids.tolist())
            for _ in range(15000)
        )
        for pair in [(0, 1), (2, 3), (4, 5)]:
            assert counts[pair] / 15000 == pytest.approx(1 / 3, abs=0.02)

    def test_hyperedge_budget_bounds(self):
        g = graph(4, hyperedges=[(0, 1)])
        with pytest.raises(ValueError):
            sample_uniform_hyperedges(g, 2, np.random.default_rng(17))


class TestSpecAndDispatch:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            SamplerSpec("metropolis")

    def test_dispatch_runs_every_method(self):
        g = graph(
            8,
            edges=[[0, 1], [1, 2], [2, 3], [4, 5], [6, 7]],
            hyperedges=[(0, 1, 2), (5, 6, 7)],
        )
        specs = [
            SamplerSpec("node", budget=4),
            SamplerSpec("edge", budget=2),
            SamplerSpec("rw", roots=2, walk_length=3),
            SamplerSpec("rand-node", budget=4),
            SamplerSpec("rand-hyperedge", budget=1),
        ]
        g = replace(g, labels=np.arange(8) % 2, task=Task("classification", 2))
        for spec in specs:
            sub = run_sampler(g, spec, np.random.default_rng(18))
            assert isinstance(sub, SampledSubgraph)
            assert isinstance(sub, HybridGraph)
            assert sub.task == g.task
            assert sub.to_graph(g.task) is sub
            assert sub.num_nodes >= 1
            assert sub.to_graph().violations == ()
            assert build_graph_tensors(sub).a_hat.shape == (sub.num_nodes, sub.num_nodes)
            assert compute_stats(sub).num_nodes == sub.num_nodes

    def test_same_seed_same_sample(self):
        g = graph(30, edges=[[i, i + 1] for i in range(29)])
        spec = SamplerSpec("node", budget=10)
        a = run_sampler(g, spec, np.random.default_rng(19))
        b = run_sampler(g, spec, np.random.default_rng(19))
        np.testing.assert_array_equal(a.node_ids, b.node_ids)


class TestPinnedStreams:
    """Sampler, SAINT and full-batch outputs, byte for byte, for fixed seeds.

    The sampler and SAINT digests were taken from the loop-based samplers
    that the array code replaced, and the full-batch digests from the layers'
    edge-list adjacency that the neighbour CSR replaced, so any change to a
    draw, to the order of RNG calls or to the report bytes shows here.  The
    rw digests (``SAMPLERS``' and ``SAINT``'s rw rows, ``SAINT_MODELS``,
    ``WEIGHTS["rw"]`` and ``SPARSE``) come from the round-by-round walk,
    whose RNG calls equal the round-major loop in
    ``tests/test_array_oracles.py``.  The training digests also fix the
    float results of the model, as computed with the pinned numpy and
    OpenBLAS.
    """

    SAMPLERS = {
        SamplerSpec("node", budget=40): (
            "ab3c5e44031a23a33e752d5cb1f504726ddd826014859faff5d192ab43ddf921",
            "c9ba8ec13d6e0ad446ccc9e3711abcfbd7665ab77a77c22d0eb639892e68e950"),
        SamplerSpec("edge", budget=60): (
            "2dfafa73a18cc73d76216edcbde78181eb3964be779ce780fc11d4b7a569a4a3",
            "7f3d5e1f74c8e87eb1e22b17ec52dac1393f110a1f252dd28e2061e789aa9ca6"),
        SamplerSpec("rw", roots=12, walk_length=4): (
            "11720bfcc2b83e1c93e7128bfaaa1e1edcaddc09c7a1778c5afaea3148452f98",
            "484729624df5335b69bc6d8a9136ebfa9fd3a6bd9a865517253028f6c193c9ad"),
        SamplerSpec("rand-node", budget=40): (
            "a3d96015668608dfd567d85fe2d3551cc372d22cbe37d82f972e61c76e8ac0d2",
            "9d9e52422b5c2730581a76230f2ec93667a97eeff2c436c06759783a73f6cbbf"),
        SamplerSpec("rand-hyperedge", budget=10): (
            "b5fe46fa984a8e832e5a2f673ff6b83a5f35dc555e0a3b3dfb0b5462af9b2f00",
            "0f223ab2ee3bc36803d0fb654ec7ad867c361d6ee80f30b2c51380fcd4249436"),
    }
    SAINT = {
        SamplerSpec("rw", roots=20, walk_length=3):
            "65ab8dedde0bd2c9bf6d9e51ea64140ba4a4eec14bdf51cfed63c67751197103",
        SamplerSpec("node", budget=50):
            "870e4802a16ea15e3a9d87ff7e12aaecd666158d43ea801f6ab1563f4b9e5dbf",
        SamplerSpec("edge", budget=40):
            "21400176ef113ad14fe00e867ff5f05ba43d57ef3ddf4801d2bc4bfc110ca723",
        SamplerSpec("rand-node", budget=50):
            "9a395f8e3f44ea342bbaaf89b79c500af7fc400caf9535c6112d1a3aa23d78dc",
        SamplerSpec("rand-hyperedge", budget=10):
            "16e2ebefa34ca4161c756761dc0f116ff8c488b61a3f5f6b55cfd9f968870bed",
    }
    # Every other layer on rw-SAINT batches, so each GraphTensors field is
    # built from sampled subgraphs too (gcn's row above reads only a_hat).
    SAINT_MODELS = {
        "sage": "bddba59cac1616ffabe8e77f881dafd89b9afd7678570c3fcd541ab2d8183e82",
        "gat": "e8e1176ab4707157861b6b00ca446d8eb12482a89884114dff072218489142d2",
        "gatv2": "8581dd0d5fd7d6892ff81cf0937d4b6f4142db1baa80dce3f8c09f36fa8f2e3a",
        "hyperconv": "aca54a83a805fc7969b8473f8d0a0bae7a7d5cde71c742cdc64970f9b7b7f89a",
        "hyperatten": "fe8110560ff2967bc0ecfa3cd47a7d08cc3ef591259f1c5de991c2d036da6e36",
    }
    FULL_BATCH = {
        "gcn": "973504ffbf0f7b7ae8665d4c40d49f8f4b2da6ec1d1f16e4a72b478cf3d113a0",
        "sage": "5ebf31a90b8682b36cfa3448e1f7b91f98955721cd383cfe02e41e23dc73e61e",
        "gat": "cf586206f77cad4429968748252d6105fceddc97f63876608cd7957e93074c60",
        "gatv2": "7b5f69c19c15ae640db47eb1916a5e1b9d59dc6f6e565be2dfd1e4155097e0f3",
        "hyperconv": "8134bdbe6007d644852fc2b0e07f15ca95dd618198dbd25ca35db44036017a68",
        "hyperatten": "240da12608a97573e3109c0274910b78ea97a298f9140ab680e5e479dd65901e",
    }

    # sha256 of the trained weights' bytes, which the rounded report can hide.
    WEIGHTS = {
        "full": {
            "gcn": "bb63a34ac114c52e7fd755bb7d9b9b4bf94461fec97d0458e9726a6dbe9883d9",
            "sage": "ba749d7c5a35a4904858cbc55219683418917c2de45be0ee8852346a42f4de2f",
            "gat": "3486bf18bd192d6d5cda964afd5af2dbb4167e8235d554b7b0104caca1835717",
            "gatv2": "008ee9019712e6d48bd63c23d16fc1d295bb90b033622ef5ab70fad957bfecf2",
            "hyperconv": "797a03c5369ef9a065b1d5478a6acc2c6b88500109e96b30c7ecac737798b270",
            "hyperatten": "b40d38c2c9ab1b2e3804538c69bee211e98f8858d13f641511cb07d80778e174",
            "lp:sage+hyperatten":
                "92335ef15a93c3366ffd8ea277e6d46fe71fa1753eb9195d11f0b9362d63c6a5",
        },
        "rw": {
            "gcn": "1628b48ad6d9091f3114183d603879945d835e8ddcb43ad8268f3314b45321fc",
            "sage": "00152f5f0d94623523a93a8ca4aff95461c39292bd52c9fac79d843c33a502ea",
            "gat": "3284aaea39338f1703beaca20179c1bba77ababb0d6098d95f4d9f305747592c",
            "gatv2": "e29acdeba31b0bd51b0e5847cd8c7ecefb4ccba082f14908d5d6d7c2e3ea3e72",
            "hyperconv": "cf11c72d7ee7e90269b70ffe4b052aaa946073b16c7cf2e492a9d1709f514306",
            "hyperatten": "1c2138278e626c8c91af093eefdd90b6ec8f7de3981b95b384c0dfad2fa61013",
            "lp:sage+hyperatten":
                "45a7ee8548dd22dada490b5c66d0924022c243577467b9dfa4f9253e3eaeb64f",
        },
    }

    @staticmethod
    def pinned_graph():
        """Unsorted hyperedges with weights and features, a shallow hierarchy."""
        g = make_classification_graph(num_nodes=150, num_hyperedges=40, seed=5)
        rng = np.random.default_rng(9)
        parent = np.arange(g.num_nodes)
        parent[1:40] = np.arange(1, 40) // 2
        return replace(
            g,
            hyperedges=tuple(tuple(reversed(e)) for e in g.hyperedges),
            hyperedge_weights=rng.uniform(0.5, 2.0, size=g.num_hyperedges),
            hyperedge_features=rng.standard_normal((g.num_hyperedges, 3)),
            parent=parent,
        )

    # Walks on sparse_graph, where many halt at once or step without a draw.
    SPARSE_RW = SamplerSpec("rw", roots=30, walk_length=8)
    SPARSE = {
        "report": "6079f6324c80e301aefa95d93203973d1d58905afecb408bded2b25bca634952",
        "draws": "b84e0f191b8199e1111b2324aa9bcfee347e6aef5ec548749636627891ec50dd",
        "saint gcn": "4d8a993394c4f7ada9a21c5d1430d1c639edae40a09e306c50be7a17c46d7ec6",
    }

    @staticmethod
    def sparse_graph():
        """The pinned graph on sparse edges: nodes 80-149 are isolated, so a
        walk from one halts at once, and a star's leaves, disjoint pairs and
        a path's ends have degree one, so a step from one draws nothing."""
        star = [[0, v] for v in range(1, 20)]
        pairs = [[v, v + 1] for v in range(20, 50, 2)]
        path = [[v, v + 1] for v in range(50, 80)]
        return replace(TestPinnedStreams.pinned_graph(),
                       simple_edges=np.array(star + pairs + path))

    @staticmethod
    def digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("spec", list(SAMPLERS), ids=lambda s: s.method)
    def test_sampler_report_and_draws(self, spec):
        g = self.pinned_graph()
        report_digest, draws_digest = self.SAMPLERS[spec]
        assert self.digest(sampler_report(g, spec, 4, 21)) == report_digest
        draws = []
        for i in range(4):
            sub = run_sampler(g, spec, np.random.default_rng(30 + i))
            draws.append([
                sub.node_ids.tolist(), sub.simple_edges.tolist(),
                [list(e) for e in sub.hyperedges], sub.hyperedge_ids.tolist(),
                sub.parent.tolist(), sub.hyperedge_weights.tolist(),
                sub.hyperedge_features.tolist(),
            ])
        assert self.digest(draws) == draws_digest

    def test_sparse_walk_report_and_draws(self):
        g, spec = self.sparse_graph(), self.SPARSE_RW
        assert self.digest(sampler_report(g, spec, 4, 21)) == self.SPARSE["report"]
        draws = []
        for i in range(4):
            rng = np.random.default_rng(30 + i)
            sub = run_sampler(g, spec, rng)
            draws.append([
                sub.node_ids.tolist(), sub.simple_edges.tolist(),
                [list(e) for e in sub.hyperedges], sub.hyperedge_ids.tolist(),
                sub.parent.tolist(), rng.random(),  # where the draw left the stream
            ])
        assert self.digest(draws) == self.SPARSE["draws"]

    def test_sparse_walk_saint_experiment(self):
        cfg = TrainConfig(epochs=3, lr=0.05, trials=2, saint=self.SPARSE_RW,
                          batches_per_epoch=3)
        report = run_experiment(self.sparse_graph(), ModelSpec("gcn", hidden=8), cfg, 4)
        assert self.digest(report) == self.SPARSE["saint gcn"]

    @pytest.mark.parametrize("spec", list(SAINT), ids=lambda s: s.method)
    def test_saint_experiment(self, spec):
        cfg = TrainConfig(epochs=3, lr=0.05, trials=2, saint=spec, batches_per_epoch=3)
        report = run_experiment(self.pinned_graph(), ModelSpec("gcn", hidden=8), cfg, 4)
        assert self.digest(report) == self.SAINT[spec]

    @pytest.mark.parametrize("name", list(SAINT_MODELS))
    def test_saint_rw_experiment_per_model(self, name):
        spec = SamplerSpec("rw", roots=20, walk_length=3)
        cfg = TrainConfig(epochs=3, lr=0.05, trials=2, saint=spec, batches_per_epoch=3)
        report = run_experiment(self.pinned_graph(), ModelSpec(name, hidden=8), cfg, 4)
        assert self.digest(report) == self.SAINT_MODELS[name]

    @pytest.mark.parametrize("name", list(FULL_BATCH))
    def test_full_batch_experiment(self, name):
        cfg = TrainConfig(epochs=3, lr=0.05, trials=2)
        report = run_experiment(self.pinned_graph(), ModelSpec(name, hidden=8), cfg, 4)
        assert self.digest(report) == self.FULL_BATCH[name]

    @pytest.mark.parametrize("mode,name", [(mode, name) for mode, digests in WEIGHTS.items()
                                           for name in digests])
    def test_trained_weight_bytes(self, mode, name):
        saint = SamplerSpec("rw", roots=20, walk_length=3) if mode == "rw" else None
        cfg = TrainConfig(epochs=3, lr=0.05, trials=1, saint=saint, batches_per_epoch=3)
        model, _, _ = train_single(self.pinned_graph(), ModelSpec(name, hidden=8), cfg, 4)
        weights = b"".join(p.value.tobytes() for p in model.params())
        assert hashlib.sha256(weights).hexdigest() == self.WEIGHTS[mode][name]


def count_validate(monkeypatch) -> list:
    """The graphs ``validate`` runs on from here on, in call order."""
    checked, validate_fn = [], hygraph.graph.validate
    monkeypatch.setattr(hygraph.graph, "validate",
                        lambda h: (checked.append(h), validate_fn(h))[1])
    return checked


class TestSubgraphValidity:
    # A subgraph induced from a graph already found valid is marked known
    # valid, so require_valid checks nothing on it; one induced from any
    # other graph is validated when first checked.  Reading violations
    # validates either.
    @pytest.mark.parametrize("spec", list(TestPinnedStreams.SAMPLERS), ids=lambda s: s.method)
    def test_sampler_report_on_a_validated_graph_validates_nothing(self, spec, monkeypatch):
        g = TestPinnedStreams.pinned_graph().require_valid()
        checked = count_validate(monkeypatch)
        sampler_report(g, spec, 4, 21)
        assert checked == []

    def test_violations_of_a_marked_subgraph_still_validate(self, monkeypatch):
        # A fault that induce let through is still reported by violations,
        # which checks that read (the benchmark's among them) rely on.
        g = TestPinnedStreams.pinned_graph().require_valid()
        mask = sampling._mask_hyperedges

        def duplicate_a_member(*args):
            hyperedges, kept = mask(*args)
            members, offsets = hyperedges.members.copy(), hyperedges.offsets
            k = int(np.flatnonzero(np.diff(offsets) >= 2)[0])
            members[offsets[k] + 1] = members[offsets[k]]
            return Hyperedges(members, offsets), kept

        monkeypatch.setattr(sampling, "_mask_hyperedges", duplicate_a_member)
        checked = count_validate(monkeypatch)
        sub = induce(g, np.arange(g.num_nodes))
        assert sub.require_valid() is sub and checked == []
        assert any(v.startswith("duplicate members") for v in sub.violations)
        assert checked == [sub]

    def test_subgraph_of_an_unvalidated_graph_is_validated(self, monkeypatch):
        g = TestPinnedStreams.pinned_graph()  # built by replace: not yet validated
        checked = count_validate(monkeypatch)
        sub = induce(g, np.arange(0, g.num_nodes, 2))
        assert checked == []
        sub.require_valid()
        assert checked == [sub]

    def test_subgraph_of_an_invalid_graph_is_validated(self, monkeypatch):
        g = TestPinnedStreams.pinned_graph()
        bad = replace(g, simple_edges=np.vstack([g.simple_edges, [[3, 3]]]))
        assert bad.violations
        checked = count_validate(monkeypatch)
        sub = induce(bad, np.arange(bad.num_nodes))
        with pytest.raises(InvalidGraphError, match="self-loop"):
            sub.require_valid()
        assert checked == [sub]


class TestInducedSubgraphsAreValid:
    """``induce`` marks a subgraph of a valid graph valid without checking
    it, so every subgraph induced from a valid graph must pass ``validate``."""

    def test_random_graphs_and_id_sets(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            g = random_valid_graph(rng)
            assert validate(g) == []
            n = g.num_nodes
            random_ids = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
            for ids in (random_ids, [], np.arange(n)):
                assert validate(induce(g, ids)) == []

    @pytest.mark.parametrize("spec", list(TestPinnedStreams.SAMPLERS), ids=lambda s: s.method)
    def test_every_sampler_on_the_pinned_graph(self, spec):
        g = TestPinnedStreams.pinned_graph()
        assert validate(g) == []
        rng = np.random.default_rng(8)
        for _ in range(20):
            assert validate(run_sampler(g, spec, rng)) == []
