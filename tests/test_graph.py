import numpy as np
import pytest

from hygraph import (
    GraphKind,
    HybridGraph,
    InvalidGraphError,
    Task,
    classify,
    duplicate_hyperedges,
    structurally_equal,
    to_hypergraph,
    to_simple,
    to_two_level_hierarchy,
    validate,
)


def graph(n, edges=(), hyperedges=(), **kwargs):
    return HybridGraph(
        node_features=np.zeros((n, 2)),
        simple_edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        hyperedges=tuple(tuple(e) for e in hyperedges),
        **kwargs,
    )


def relabel(g, perm):
    """Rename node i to perm[i]; structure is otherwise unchanged."""
    perm = np.asarray(perm)
    inv = np.argsort(perm)
    x = np.empty_like(g.node_features)
    x[perm] = g.node_features
    labels = np.empty_like(g.labels)
    labels[perm] = g.labels
    parent = np.empty_like(g.parent)
    parent[perm] = perm[g.parent]
    edges = perm[g.simple_edges] if g.simple_edges.size else g.simple_edges
    return HybridGraph(
        node_features=x,
        simple_edges=edges,
        hyperedges=tuple(tuple(int(perm[v]) for v in e) for e in g.hyperedges),
        hyperedge_weights=g.hyperedge_weights,
        parent=parent,
        labels=labels,
        task=g.task,
    )


class TestConstruction:
    def test_defaults(self):
        g = graph(4, [[0, 1]], [(1, 2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 1
        assert g.num_hyperedges == 1
        np.testing.assert_array_equal(g.hyperedge_weights, [1.0])
        np.testing.assert_array_equal(g.parent, [0, 1, 2, 3])
        np.testing.assert_array_equal(g.labels, np.zeros(4))

    def test_arrays_frozen(self):
        g = graph(3, [[0, 1]])
        with pytest.raises(ValueError):
            g.node_features[0, 0] = 1.0
        with pytest.raises(ValueError):
            g.simple_edges[0, 0] = 2

    def test_input_arrays_are_copied(self):
        x = np.zeros((3, 2))
        edges = np.array([[0, 1]])
        g = HybridGraph(node_features=x, simple_edges=edges)
        x[0, 0] = 9.0
        edges[0, 0] = 2
        assert g.node_features[0, 0] == 0.0
        assert g.simple_edges[0, 0] == 0
        assert x.flags.writeable

    def test_degrees_and_adjacency(self):
        g = graph(4, [[0, 1], [1, 2], [2, 0], [2, 3]])
        np.testing.assert_array_equal(g.degrees, [2, 2, 3, 1])
        assert g.adjacency_sets[2] == frozenset({0, 1, 3})

    def test_classification_labels_cast_to_int(self):
        g = graph(3, labels=np.array([0.0, 1.0, 1.0]),
                  task=Task("classification", num_classes=2))
        assert g.labels.dtype == np.int64

    def test_task_validation(self):
        with pytest.raises(ValueError):
            Task("classification")
        with pytest.raises(ValueError):
            Task("regression", num_classes=3)
        with pytest.raises(ValueError):
            Task("ranking")


class TestValidate:
    def test_valid_triangle(self):
        g = graph(3, [[0, 1], [1, 2], [2, 0]])
        assert validate(g) == []
        assert g.require_valid() is g

    def test_empty_hyperedge(self):
        g = graph(3, hyperedges=[(0, 1), ()])
        msgs = validate(g)
        assert any("empty hyperedge at index 1" in m for m in msgs)

    def test_parent_cycle(self):
        g = graph(2, parent=np.array([1, 0]))
        assert any("parent cycle" in m for m in validate(g))

    def test_long_parent_cycle(self):
        g = graph(4, parent=np.array([1, 2, 3, 1]))
        assert any("parent cycle" in m for m in validate(g))

    def test_self_parent_is_not_a_cycle(self):
        g = graph(3, parent=np.array([0, 0, 1]))
        assert validate(g) == []

    def test_edge_out_of_range(self):
        g = graph(2, [[0, 5]])
        assert any("out of range" in m for m in validate(g))

    def test_self_loop(self):
        g = graph(2, [[1, 1]])
        assert any("self-loop" in m for m in validate(g))

    def test_duplicate_edge_either_orientation(self):
        g = graph(3, [[0, 1], [1, 0]])
        assert any("duplicate edge" in m for m in validate(g))

    def test_duplicate_hyperedge_member(self):
        g = graph(3, hyperedges=[(0, 1, 0)])
        assert any("duplicate members" in m for m in validate(g))

    def test_hyperedge_member_out_of_range(self):
        g = graph(2, hyperedges=[(0, 7)])
        assert any("member out of range" in m for m in validate(g))

    def test_non_positive_weight(self):
        g = graph(3, hyperedges=[(0, 1)], hyperedge_weights=np.array([0.0]))
        assert any("non-positive hyperedge weight" in m for m in validate(g))

    @pytest.mark.parametrize("w", [np.nan, np.inf])
    def test_non_finite_weight(self, w):
        g = graph(3, hyperedges=[(0, 1), (1, 2)], hyperedge_weights=np.array([1.0, w]))
        assert validate(g) == ["non-finite hyperedge weight at index 1"]

    def test_parent_out_of_range(self):
        g = graph(2, parent=np.array([0, 5]))
        assert any("parent index out of range" in m for m in validate(g))

    def test_require_valid_raises_with_violations(self):
        g = graph(3, hyperedges=[()])
        with pytest.raises(InvalidGraphError) as err:
            g.require_valid()
        assert err.value.violations

    def test_duplicate_hyperedges_are_advisory(self):
        g = graph(4, hyperedges=[(0, 1, 2), (2, 3), (2, 1, 0)])
        assert validate(g) == []
        assert duplicate_hyperedges(g) == [(0, 2)]


class TestClassify:
    def test_simple(self):
        g = graph(3, [[0, 1], [1, 2]])
        assert classify(g) is GraphKind.SIMPLE

    def test_hypergraph(self):
        g = graph(3, hyperedges=[(0, 1, 2)])
        assert classify(g) is GraphKind.HYPERGRAPH

    def test_hierarchical(self):
        g = graph(3, [[0, 2], [1, 2]], parent=np.array([2, 2, 2]))
        assert classify(g) is GraphKind.HIERARCHICAL

    def test_pair_hyperedge_counts_as_simple_edge(self):
        g = graph(3, hyperedges=[(0, 1), (1, 2)])
        assert classify(g) is GraphKind.SIMPLE

    def test_pair_hyperedge_supports_hierarchy(self):
        g = graph(3, hyperedges=[(0, 2), (1, 2)], parent=np.array([2, 2, 2]))
        assert classify(g) is GraphKind.HIERARCHICAL

    def test_empty_graph_is_simple(self):
        assert classify(graph(0)) is GraphKind.SIMPLE

    def test_singleton_hyperedge_is_general(self):
        g = graph(2, hyperedges=[(0,)])
        assert classify(g) is GraphKind.GENERAL_HYBRID

    def test_hierarchy_plus_big_hyperedge_is_general(self):
        g = graph(3, [[0, 2], [1, 2]], [(0, 1, 2)], parent=np.array([2, 2, 2]))
        assert classify(g) is GraphKind.GENERAL_HYBRID

    def test_orphaned_level_is_general(self):
        # node 2 sits two levels down but only connects to the root
        g = graph(3, [[0, 1], [0, 2]], parent=np.array([0, 0, 1]))
        assert classify(g) is GraphKind.GENERAL_HYBRID

    def test_deep_chain_is_hierarchical(self):
        g = graph(3, [[0, 1], [1, 2]], parent=np.array([0, 0, 1]))
        assert classify(g) is GraphKind.HIERARCHICAL

    def test_level_up_edge_may_skip_the_parent(self):
        # node 3's parent is 1 but its upward edge goes to node 2
        g = graph(4, [[0, 1], [0, 2], [2, 3]],
                  parent=np.array([0, 0, 0, 1]))
        assert classify(g) is GraphKind.HIERARCHICAL

    def test_classify_is_permutation_invariant(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            edges = {(int(min(u, v)), int(max(u, v)))
                     for u, v in rng.integers(0, n, size=(n, 2)) if u != v}
            hyperedges = []
            for _ in range(int(rng.integers(0, 3))):
                size = int(rng.integers(2, min(n, 4) + 1))
                hyperedges.append(tuple(sorted(
                    rng.choice(n, size=size, replace=False).tolist())))
            parent = np.arange(n)
            if rng.random() < 0.5 and n > 1:
                parent[1:] = rng.integers(0, 1, size=n - 1)
            g = graph(n, sorted(edges), hyperedges, parent=parent)
            perm = rng.permutation(n)
            assert classify(g) is classify(relabel(g, perm))


class TestToSimple:
    def test_drops_large_hyperedges_keeps_pairs(self):
        g = graph(4, [[0, 1]], [(1, 2), (0, 1, 2), (2, 3)])
        s = to_simple(g)
        assert s.num_hyperedges == 0
        np.testing.assert_array_equal(s.simple_edges, [[0, 1], [1, 2], [2, 3]])
        assert classify(s) is GraphKind.SIMPLE

    def test_merges_duplicate_pairs(self):
        g = graph(3, [[0, 1]], [(1, 0)])
        s = to_simple(g)
        np.testing.assert_array_equal(s.simple_edges, [[0, 1]])

    def test_resets_parent(self):
        g = graph(3, [[0, 1], [1, 2]], parent=np.array([0, 0, 0]))
        s = to_simple(g)
        np.testing.assert_array_equal(s.parent, [0, 1, 2])

    def test_identity_on_simple_graph(self):
        g = graph(3, [[0, 1]])
        assert to_simple(g) is g

    def test_idempotent(self):
        g = graph(4, [[0, 1]], [(1, 2, 3)], parent=np.array([0, 0, 1, 2]))
        once = to_simple(g)
        assert structurally_equal(once, to_simple(once))


class TestToHypergraph:
    def test_flattens_parent_only(self):
        g = graph(3, [[0, 1]], [(0, 1, 2)], parent=np.array([0, 0, 1]))
        h = to_hypergraph(g)
        np.testing.assert_array_equal(h.parent, [0, 1, 2])
        np.testing.assert_array_equal(h.simple_edges, g.simple_edges)
        assert h.hyperedges == g.hyperedges

    def test_identity_when_already_flat(self):
        g = graph(3, [[0, 1]])
        assert to_hypergraph(g) is g

    def test_classification_after_flattening(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(2, 8))
            hyperedges = []
            for _ in range(int(rng.integers(0, 4))):
                size = int(rng.integers(2, min(n, 5) + 1))
                hyperedges.append(tuple(sorted(
                    rng.choice(n, size=size, replace=False).tolist())))
            parent = np.zeros(n, dtype=np.int64)
            g = graph(n, hyperedges=hyperedges, parent=parent)
            assert classify(to_hypergraph(g)) in (
                GraphKind.SIMPLE, GraphKind.HYPERGRAPH)


class TestToTwoLevelHierarchy:
    def test_single_hyperedge_becomes_virtual_parent(self):
        g = HybridGraph(
            node_features=np.array([[0.0], [3.0], [6.0]]),
            simple_edges=np.zeros((0, 2), dtype=np.int64),
            hyperedges=((0, 1, 2),),
        )
        h = to_two_level_hierarchy(g)
        assert h.num_nodes == 4
        assert h.num_hyperedges == 0
        np.testing.assert_array_equal(h.parent, [3, 3, 3, 3])
        np.testing.assert_array_equal(h.simple_edges, [[0, 3], [1, 3], [2, 3]])
        np.testing.assert_allclose(h.node_features[3], [3.0])
        assert classify(h) is GraphKind.HIERARCHICAL

    def test_shared_member_parents_to_lowest_indexed(self):
        g = graph(4, hyperedges=[(0, 1), (1, 2, 3)])
        h = to_two_level_hierarchy(g)
        assert h.num_nodes == 6
        np.testing.assert_array_equal(h.parent, [4, 4, 5, 5, 4, 5])

    def test_existing_edges_kept(self):
        g = graph(3, [[0, 2]], [(0, 1)])
        h = to_two_level_hierarchy(g)
        np.testing.assert_array_equal(h.simple_edges, [[0, 2], [0, 3], [1, 3]])

    def test_virtual_label_is_majority_with_low_tiebreak(self):
        g = HybridGraph(
            node_features=np.zeros((4, 1)),
            simple_edges=np.zeros((0, 2), dtype=np.int64),
            hyperedges=((0, 1, 2, 3), (2, 3)),
            labels=np.array([1, 1, 0, 2]),
            task=Task("classification", num_classes=3),
        )
        h = to_two_level_hierarchy(g)
        assert h.labels[4] == 1
        assert h.labels[5] == 0

    def test_virtual_label_is_mean_for_regression(self):
        g = HybridGraph(
            node_features=np.zeros((2, 1)),
            simple_edges=np.zeros((0, 2), dtype=np.int64),
            hyperedges=((0, 1),),
            labels=np.array([1.0, 2.0]),
        )
        h = to_two_level_hierarchy(g)
        assert h.labels[2] == pytest.approx(1.5)

    def test_flat_hypergraphs_become_hierarchical(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            hyperedges = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(2, min(n, 4) + 1))
                hyperedges.append(tuple(sorted(
                    rng.choice(n, size=size, replace=False).tolist())))
            g = graph(n, hyperedges=hyperedges)
            assert classify(to_two_level_hierarchy(g)) is GraphKind.HIERARCHICAL


class TestStructuralEquality:
    def test_equal(self):
        a = graph(3, [[0, 1]], [(0, 1, 2)])
        b = graph(3, [[0, 1]], [(0, 1, 2)])
        assert structurally_equal(a, b)

    def test_each_field_matters(self):
        base = graph(3, [[0, 1]], [(0, 1, 2)])
        assert not structurally_equal(base, graph(3, [[0, 2]], [(0, 1, 2)]))
        assert not structurally_equal(base, graph(3, [[0, 1]], [(0, 1)]))
        assert not structurally_equal(base, graph(3, [[0, 1]], [(0, 1, 2)],
                                                  parent=np.array([0, 0, 2])))
        assert not structurally_equal(
            base, graph(3, [[0, 1]], [(0, 1, 2)],
                        hyperedge_weights=np.array([2.0])))
