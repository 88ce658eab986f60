import tracemalloc

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
from hygraph.graph import Hyperedges


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


class TestHyperedgesView:
    GIVEN = ((3, 1, 2), (0,), (4, 0))
    EDGES = ((1, 2, 3), (0,), (0, 4))  # as stored: each hyperedge's members ascending

    def view(self):
        return graph(5, hyperedges=self.GIVEN).hyperedges

    def test_stored_flat_and_read_only(self):
        g = graph(5, hyperedges=self.GIVEN)
        assert isinstance(g.hyperedges, Hyperedges)
        np.testing.assert_array_equal(g.hyperedges.members, [1, 2, 3, 0, 0, 4])
        np.testing.assert_array_equal(g.hyperedges.offsets, [0, 3, 4, 6])
        assert g.hyperedges.members.dtype == g.hyperedges.offsets.dtype == np.int64
        members, offsets = g.incidence_arrays
        assert members is g.hyperedges.members and offsets is g.hyperedges.offsets
        with pytest.raises(ValueError):
            members[0] = 2
        with pytest.raises(ValueError):
            offsets[1] = 2

    def test_reads_like_the_tuple(self):
        h = self.view()
        assert len(h) == 3 and bool(h) and not graph(2).hyperedges
        assert h[0] == (1, 2, 3) and h[-1] == (0, 4) and h[-3] == h[0]
        assert h[np.int64(1)] == (0,)
        for k in (3, -4):
            with pytest.raises(IndexError):
                h[k]
        for part in (slice(None), slice(1, None), slice(None, None, -1), slice(0, 3, 2),
                     slice(5, 9)):
            assert h[part] == self.EDGES[part]
            assert type(h[part]) is tuple
        assert list(h) == list(self.EDGES)
        assert all(type(e) is tuple and all(type(v) is int for v in e) for e in h)
        assert all(type(v) is int for v in h[1])
        assert repr(h) == repr(self.EDGES) and str(h) == str(self.EDGES)
        assert (0,) in h and (4, 0) not in h and h.index((0, 4)) == 2

    def test_equality(self):
        h = self.view()
        assert h == self.EDGES and self.EDGES == h and not h != self.EDGES
        assert h != self.GIVEN  # a tuple compares with the members as stored
        assert h == self.view() and h == Hyperedges.of(list(map(list, self.EDGES)))
        assert h == Hyperedges.of([(2, 3, 1), (0,), (0, 4)])  # member order is not kept
        assert h != self.EDGES[:2] and h != ((1, 2, 4), (0,), (0, 4))
        assert h != ((1, 2), (3, 0), (0, 4))  # same members, other offsets
        assert h != list(self.EDGES) and h != "abc" and h != Hyperedges.of(())
        assert Hyperedges.of(()) == () and () == graph(2).hyperedges

    def test_of_returns_a_view_as_is_and_normalizes_the_rest(self):
        h = self.view()
        assert Hyperedges.of(h) is h
        assert HybridGraph(node_features=np.zeros((5, 1)), simple_edges=(),
                           hyperedges=h).hyperedges is h
        mixed = Hyperedges.of([np.array([3, 1]), [np.int32(2), 4.0], range(2), ()])
        assert mixed == ((1, 3), (2, 4), (0, 1), ())
        assert all(type(v) is int for e in mixed for v in e)
        assert mixed.offsets.tolist() == [0, 2, 4, 6, 6]

    def test_edge_of_is_computed_once_and_read_only(self):
        h = self.view()
        edge_of = h.edge_of()
        np.testing.assert_array_equal(edge_of, [0, 0, 0, 1, 2, 2])
        assert h.edge_of() is edge_of
        with pytest.raises(ValueError):
            edge_of[0] = 1
        assert Hyperedges.of(()).edge_of().size == 0

    @pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 9000])
    def test_iteration_across_blocks(self, count):
        # Sizes 0 to 6 (empty hyperedges at block ends too), members that
        # are no small cached ints.
        rng = np.random.default_rng(count)
        edges = [tuple(rng.integers(10**6, size=int(rng.integers(7))).tolist())
                 for _ in range(count)]
        h = Hyperedges.of(edges)
        assert list(h) == [tuple(sorted(e)) for e in edges]
        assert all(type(v) is int for e in h for v in e)

    def test_iteration_holds_one_block(self):
        # 200k hyperedges of 3-7 members: converting every member at once
        # peaked at about 50 MB for the first tuple.
        rng = np.random.default_rng(0)
        sizes = rng.integers(3, 8, size=200_000)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        h = Hyperedges(rng.integers(10**6, size=offsets[-1]), offsets)
        tracemalloc.start()
        try:
            it = iter(h)
            first = next(it)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == tuple(h.members[:sizes[0]].tolist())
        assert peak < 4_000_000


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

    def test_class_label_out_of_range(self):
        task = Task("classification", num_classes=2)
        assert graph(3, labels=[5, 5, -1], task=task).violations == (
            "class label out of range at node 0",)
        assert graph(3, labels=[0, 1, -1], task=task).violations == (
            "class label out of range at node 2",)
        assert graph(3, labels=[1, 2, 0], task=task).violations == (
            "class label out of range at node 1",)
        assert graph(3, labels=[0, 1, 1], task=task).violations == ()
        assert graph(3, labels=[5.0, -1.0, 0.5]).violations == ()  # regression

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
