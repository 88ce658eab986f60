"""Hybrid graph data model.

A hybrid graph couples three kinds of structure on one node set:

* simple edges: unordered node pairs,
* hyperedges: arbitrary non-empty node subsets, each with a positive weight,
* a parent function assigning every node a parent one level up in a node
  hierarchy (``parent[v] == v`` marks a top-level node).

Simple graphs, hypergraphs and hierarchical graphs are all special cases,
recovered by constraining which of the three structures may be non-trivial.
This module holds the immutable container, its validation, the classifier
into the special cases, and the tightening transformations between them.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "GraphKind",
    "HybridGraph",
    "Hyperedges",
    "InvalidGraphError",
    "Task",
    "classify",
    "duplicate_hyperedges",
    "gather_rows",
    "neighbour_csr",
    "neighbour_sets",
    "row_index",
    "sort_unique",
    "structurally_equal",
    "to_hypergraph",
    "to_simple",
    "to_two_level_hierarchy",
    "validate",
]


class InvalidGraphError(ValueError):
    """Raised when an operation requires a graph that passes validation."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid hybrid graph: " + "; ".join(violations))


class GraphKind(Enum):
    SIMPLE = "simple"
    HYPERGRAPH = "hypergraph"
    HIERARCHICAL = "hierarchical"
    GENERAL_HYBRID = "general_hybrid"


@dataclass(frozen=True)
class Task:
    """Prediction task attached to a graph's labels."""

    kind: str  # "classification" | "regression"
    num_classes: int | None = None

    def __post_init__(self):
        if self.kind not in ("classification", "regression"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "classification" and (
            self.num_classes is None or self.num_classes < 2
        ):
            raise ValueError("classification task needs num_classes >= 2")
        if self.kind == "regression" and self.num_classes is not None:
            raise ValueError("regression task takes no num_classes")

    @property
    def is_classification(self) -> bool:
        return self.kind == "classification"


def sort_unique(keys: np.ndarray, return_index: bool = False):
    """``np.unique(keys)`` of a 1-D array, and its ``return_index`` if asked.

    A sort and a neighbour-difference mask give the same arrays, far faster
    than numpy's hashing of wide-range integer keys.
    """
    order = np.argsort(keys, kind="stable") if return_index else None
    ranked = keys[order] if return_index else np.sort(keys)
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return (ranked[first], order[first]) if return_index else ranked[first]


def _require_in_range(nodes: np.ndarray, num_nodes: int, what: str) -> None:
    if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
        raise InvalidGraphError([f"{what} out of range"])


def _group_by_node(nodes: np.ndarray, num_nodes: int, what: str):
    """The positions of ``nodes`` grouped by node, as CSR ``(indptr, order)``.

    ``order[indptr[v]:indptr[v + 1]]`` are the positions that hold ``v``,
    ascending.  A plain sort of the distinct keys (node, position) is a
    stable sort by node, and several times faster than numpy's stable
    argsort.  Both arrays are read-only.
    """
    _require_in_range(nodes, num_nodes, what)
    order = nodes * nodes.size + np.arange(nodes.size)
    order.sort()
    order %= nodes.size
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(nodes, minlength=num_nodes), out=indptr[1:])
    indptr.setflags(write=False)
    order.setflags(write=False)
    return indptr, order


def neighbour_csr(num_nodes: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour lists of an undirected edge list as CSR ``(indptr, indices)``.

    Row ``v`` is ``indices[indptr[v]:indptr[v + 1]]``: the distinct
    neighbours of ``v`` in ascending order.  Duplicate edges collapse and
    a self-loop makes a node its own neighbour.  Both arrays are read-only.
    """
    n = num_nodes
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    _require_in_range(edges, n, "edge index")
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    pairs = sort_unique(src * n + dst)  # sorted by (src, dst), duplicates gone
    indices = pairs % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // n, minlength=n), out=indptr[1:])
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


def neighbour_sets(indptr: np.ndarray, indices: np.ndarray) -> tuple[frozenset, ...]:
    """The rows of a neighbour CSR as one frozenset per node."""
    flat, bounds = indices.tolist(), indptr.tolist()
    return tuple(frozenset(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


def row_index(indptr: np.ndarray) -> np.ndarray:
    """The row of each stored entry of a CSR pattern, as int64."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


def gather_rows(indptr: np.ndarray, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``values[indptr[r]:indptr[r + 1]]`` for each ``r`` in ``rows``, concatenated."""
    first = indptr[rows]
    counts = indptr[rows + 1] - first
    shift = np.repeat(first - np.cumsum(counts) + counts, counts)
    return values[shift + np.arange(shift.size)]


_ITER_BLOCK = 4096  # hyperedges converted to Python ints at once


class Hyperedges(Sequence):
    """Hyperedges stored flat, read like a tuple of tuples of Python ints.

    Hyperedge ``k`` is ``members[offsets[k]:offsets[k + 1]]``, members in the
    order given; both arrays are int64 and are made read-only.
    """

    def __init__(self, members: np.ndarray, offsets: np.ndarray):
        self.members, self.offsets = members, offsets
        self._edge_of = self._sorted_members = None
        members.setflags(write=False)
        offsets.setflags(write=False)

    @classmethod
    def of(cls, hyperedges) -> "Hyperedges":
        """``hyperedges`` as is if a view, else a view of ``int()`` of each member."""
        if isinstance(hyperedges, cls):
            return hyperedges
        edges = [tuple(map(int, e)) for e in hyperedges]
        offsets = np.cumsum([0, *map(len, edges)], dtype=np.int64)
        return cls(np.fromiter(chain.from_iterable(edges), np.int64, offsets[-1]), offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def edge_of(self) -> np.ndarray:
        """The hyperedge index of every member, in member order (read-only,
        computed on the first call)."""
        if self._edge_of is None:
            self._edge_of = row_index(self.offsets)
            self._edge_of.setflags(write=False)
        return self._edge_of

    def sorted_members(self) -> np.ndarray:
        """The members sorted within each hyperedge (read-only, computed on
        the first call); ``members`` itself when they are already ascending,
        as every induced subgraph's are."""
        if self._sorted_members is None:
            members, edge_of = self.members, self.edge_of()  # edge_of is non-decreasing
            if ((members[1:] >= members[:-1]) | (edge_of[1:] != edge_of[:-1])).all():
                self._sorted_members = members
            else:
                self._sorted_members = members[np.lexsort((members, edge_of))]
                self._sorted_members.setflags(write=False)
        return self._sorted_members

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        k = range(len(self))[k]  # negative indices and IndexError as for a tuple
        return tuple(self.members[self.offsets[k]:self.offsets[k + 1]].tolist())

    def __iter__(self):
        """Each hyperedge as a tuple, members converted one block of hyperedges
        at a time, so no list of every member is ever held."""
        for start in range(0, len(self), _ITER_BLOCK):
            bounds = self.offsets[start:start + _ITER_BLOCK + 1]
            flat = self.members[bounds[0]:bounds[-1]].tolist()
            bounds = (bounds - bounds[0]).tolist()
            yield from (tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other):
        if isinstance(other, Hyperedges):
            return (np.array_equal(self.offsets, other.offsets)
                    and np.array_equal(self.members, other.members))
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


def _as_edge_array(edges) -> np.ndarray:
    arr = np.array(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("simple_edges must be a list of node pairs")
    return arr


@dataclass(frozen=True, eq=False)
class HybridGraph:
    """Immutable hybrid graph.

    Hyperedges are stored flat, as a :class:`Hyperedges` view over one
    member array and its offsets; members are kept in the order given so
    that validation can report duplicates.  Use
    :func:`validate` to check all structural invariants; operations that
    assume a valid graph call :meth:`require_valid` (the result is cached).
    """

    node_features: np.ndarray  # (|V|, d_v) float64
    simple_edges: np.ndarray  # (|E|, 2) int64, unordered pairs
    hyperedges: Hyperedges = ()  # any iterable of member iterables is accepted
    hyperedge_weights: np.ndarray | None = None  # (|HE|,) float64, default 1.0
    hyperedge_features: np.ndarray | None = None  # (|HE|, d_e) float64
    parent: np.ndarray | None = None  # (|V|,) int64, parent[v] == v = no parent
    labels: np.ndarray | None = None  # (|V|,) int64 or float64
    task: Task = field(default_factory=lambda: Task("regression"))

    def __post_init__(self):
        x = np.atleast_2d(np.array(self.node_features, dtype=np.float64))
        object.__setattr__(self, "node_features", x)
        object.__setattr__(self, "simple_edges", _as_edge_array(self.simple_edges))
        object.__setattr__(self, "hyperedges", Hyperedges.of(self.hyperedges))
        n = x.shape[0]
        if self.hyperedge_weights is None:
            w = np.ones(len(self.hyperedges), dtype=np.float64)
        else:
            w = np.array(self.hyperedge_weights, dtype=np.float64)
        object.__setattr__(self, "hyperedge_weights", w)
        if self.hyperedge_features is not None:
            object.__setattr__(
                self,
                "hyperedge_features",
                np.atleast_2d(np.array(self.hyperedge_features, dtype=np.float64)),
            )
        if self.parent is None:
            p = np.arange(n, dtype=np.int64)
        else:
            p = np.array(self.parent, dtype=np.int64)
        object.__setattr__(self, "parent", p)
        if self.labels is None:
            lab = np.zeros(n, dtype=np.float64)
        else:
            lab = np.array(self.labels)
            lab = lab.astype(np.int64 if self.task.is_classification else np.float64)
        object.__setattr__(self, "labels", lab)
        for arr in (self.node_features, self.simple_edges, w, p, lab):
            arr.setflags(write=False)
        if self.hyperedge_features is not None:
            self.hyperedge_features.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.simple_edges.shape[0]

    @property
    def num_hyperedges(self) -> int:
        return len(self.hyperedges)

    @cached_property
    def violations(self) -> tuple[str, ...]:
        return tuple(validate(self))

    def require_valid(self) -> "HybridGraph":
        """This graph, checked unless marked ``known_valid`` (as it is after a
        check, like the subgraphs ``sampling.induce`` cuts from it)."""
        if not vars(self).get("known_valid"):
            if self.violations:
                raise InvalidGraphError(list(self.violations))
            vars(self)["known_valid"] = True
        return self

    @cached_property
    def degrees(self) -> np.ndarray:
        """Simple-edge degree of every node.

        Every edge counts once at each end, so duplicate edges count again
        and a self-loop adds two.
        """
        ends = self.simple_edges.ravel()
        _require_in_range(ends, self.num_nodes, "edge index")
        deg = np.bincount(ends, minlength=self.num_nodes).astype(np.int64, copy=False)
        deg.setflags(write=False)
        return deg

    @cached_property
    def adjacency_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour lists as CSR ``(indptr, indices)``; see :func:`neighbour_csr`."""
        return neighbour_csr(self.num_nodes, self.simple_edges)

    @cached_property
    def adjacency_sets(self) -> tuple[frozenset, ...]:
        return neighbour_sets(*self.adjacency_csr)

    @cached_property
    def edges_by_first_endpoint(self) -> tuple[np.ndarray, np.ndarray]:
        """Simple edge ids grouped by first endpoint, as :func:`_group_by_node`
        gives them: the edges whose first endpoint is ``v`` are
        ``order[indptr[v]:indptr[v + 1]]``, in ascending id order."""
        _require_in_range(self.simple_edges, self.num_nodes, "edge index")
        return _group_by_node(self.simple_edges[:, 0], self.num_nodes, "edge index")

    @cached_property
    def member_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """The positions in ``hyperedges.sorted_members()`` that hold each node,
        grouped by node as :func:`_group_by_node` gives them."""
        return _group_by_node(self.hyperedges.sorted_members(), self.num_nodes,
                              "hyperedge member")

    @cached_property
    def edge_sampling_weights(self) -> np.ndarray:
        """``1/deg(u) + 1/deg(v)`` of every simple edge ``(u, v)`` (read-only)."""
        deg = self.degrees.astype(np.float64)
        u, v = self.simple_edges[:, 0], self.simple_edges[:, 1]
        w = 1.0 / deg[u] + 1.0 / deg[v]
        w.setflags(write=False)
        return w

    @cached_property
    def incidence_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened hyperedge membership: (member node ids, offsets per edge)."""
        return self.hyperedges.members, self.hyperedges.offsets


def validate(g: HybridGraph) -> list[str]:
    """Check every structural invariant; returns one message per breach.

    An empty list means the graph is valid.  Duplicate hyperedges are legal
    (see :func:`duplicate_hyperedges`) and do not appear here.
    """
    out: list[str] = []
    n = g.num_nodes
    if g.labels.shape[0] != n:
        out.append(f"labels length {g.labels.shape[0]} != num_nodes {n}")
    if g.task.is_classification:
        bad = np.flatnonzero((g.labels < 0) | (g.labels >= g.task.num_classes))
        if bad.size:
            out.append(f"class label out of range at node {int(bad[0])}")
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
        for i in np.flatnonzero(bad.any(axis=1)):
            out.append(f"edge index out of range at edge {i}")
        for i in np.flatnonzero(edges[:, 0] == edges[:, 1]):
            out.append(f"self-loop at edge {i}")
        canonical = np.sort(edges, axis=1)
        lo, hi = canonical[:, 0], canonical[:, 1]
        if ((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] >= hi[:-1]))).all():
            # Already sorted, as the synthetic generators' edges are.  Sampled
            # edges keep their parent's order, so they are sorted only when
            # the parent's are.
            order = np.arange(edges.shape[0])
        else:
            order = np.lexsort((hi, lo))  # stable: first copy first
        ranked = canonical[order]
        repeat = np.zeros(edges.shape[0], dtype=bool)
        repeat[order[1:]] = (ranked[1:] == ranked[:-1]).all(axis=1)
        for i in np.flatnonzero(repeat):
            out.append(f"duplicate edge at index {i}")

    m = g.num_hyperedges
    members, offsets = g.incidence_arrays
    sizes = np.diff(offsets)
    edge_of = g.hyperedges.edge_of()
    ranked = g.hyperedges.sorted_members()
    twice = (ranked[1:] == ranked[:-1]) & (edge_of[1:] == edge_of[:-1])
    has_twice = np.bincount(edge_of[1:][twice], minlength=m) > 0
    outside = np.bincount(edge_of[(members < 0) | (members >= n)], minlength=m) > 0
    for k in np.flatnonzero((sizes == 0) | has_twice | outside):
        if sizes[k] == 0:
            out.append(f"empty hyperedge at index {k}")
            continue
        if has_twice[k]:
            out.append(f"duplicate members in hyperedge {k}")
        if outside[k]:
            out.append(f"hyperedge member out of range at index {k}")

    w = g.hyperedge_weights
    for what, bad in (("non-positive", w <= 0), ("non-finite", ~np.isfinite(w))):
        if bad.any():
            out.append(f"{what} hyperedge weight at index {int(np.flatnonzero(bad)[0])}")

    if g.parent.shape[0] == n and n:
        if ((g.parent < 0) | (g.parent >= n)).any():
            out.append("parent index out of range")
        elif (_ancestry(g.parent)[0] < 0).any():
            out.append("parent cycle")
    return out


def _ancestry(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's top ancestor and its depth below it, by pointer doubling.

    After k squarings ``up[v]`` is the ancestor min(2**k, depth) steps above
    ``v``.  Chains end at a root within n - 1 steps, so a final ``up[v]``
    that is not a root means ``v`` lies on or below a cycle: its top is -1.
    """
    up = parent
    depth = (parent != np.arange(parent.shape[0])).astype(np.int64)
    for _ in range(max(1, (parent.shape[0] - 1).bit_length())):
        depth = depth + depth[up]
        up = up[up]
    return np.where(parent[up] == up, up, -1), depth


def duplicate_hyperedges(g: HybridGraph) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of hyperedges with identical member sets.

    Published networks do contain duplicates, so this is advisory rather
    than a validation failure.
    """
    first: dict[frozenset, int] = {}  # member set -> its lowest hyperedge index
    pairs = ((first.setdefault(frozenset(e), i), i) for i, e in enumerate(g.hyperedges))
    return [(j, i) for j, i in pairs if j != i]


def _parent_is_identity(g: HybridGraph) -> bool:
    return bool((g.parent == np.arange(g.num_nodes)).all())


def classify(g: HybridGraph) -> GraphKind:
    """Sort a valid graph into one of the four kinds.

    Size-2 hyperedges count as simple edges here, so only the stored pair
    list and member sizes matter, not which container an edge lives in.
    """
    g.require_valid()
    sizes = np.diff(g.hyperedges.offsets)
    all_two = bool((sizes == 2).all())
    if _parent_is_identity(g):
        if all_two:
            return GraphKind.SIMPLE
        return GraphKind.HYPERGRAPH if (sizes >= 3).any() else GraphKind.GENERAL_HYBRID
    if not all_two:
        return GraphKind.GENERAL_HYBRID
    # Hierarchical: every node below the top level must share an edge with
    # some node exactly one level up (not necessarily its parent).
    _, depth = _ancestry(g.parent)
    pairs = np.concatenate([g.simple_edges, g.hyperedges.members.reshape(-1, 2)])
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
    linked = g.parent == np.arange(g.num_nodes)
    linked[src[depth[dst] == depth[src] - 1]] = True
    return GraphKind.HIERARCHICAL if linked.all() else GraphKind.GENERAL_HYBRID


def _canonical_pairs(num_nodes: int, pairs: np.ndarray) -> np.ndarray:
    """Deduplicated (min, max) pairs in lexicographic order."""
    indptr, indices = neighbour_csr(num_nodes, pairs)
    rows = row_index(indptr)
    upper = rows <= indices
    return np.stack([rows[upper], indices[upper]], axis=1)


def to_simple(g: HybridGraph) -> HybridGraph:
    """Drop every hyperedge of size != 2; size-2 hyperedges become pairs."""
    g.require_valid()
    if not g.hyperedges and _parent_is_identity(g):
        return g
    members, offsets = g.incidence_arrays
    sizes = np.diff(offsets)
    pairs = members[np.repeat(sizes == 2, sizes)].reshape(-1, 2)
    return HybridGraph(
        node_features=g.node_features,
        simple_edges=_canonical_pairs(g.num_nodes, np.concatenate([g.simple_edges, pairs])),
        hyperedges=(),
        parent=None,
        labels=g.labels,
        task=g.task,
    )


def to_hypergraph(g: HybridGraph) -> HybridGraph:
    """Flatten the hierarchy, keeping all edges and hyperedges."""
    g.require_valid()
    if _parent_is_identity(g):
        return g
    return replace(g, parent=np.arange(g.num_nodes, dtype=np.int64))


def to_two_level_hierarchy(g: HybridGraph) -> HybridGraph:
    """Reify each hyperedge as a virtual parent node of its members.

    Every member gains a simple edge to the virtual node of each hyperedge
    containing it and is re-parented to the virtual node of its lowest-index
    containing hyperedge.  Virtual nodes are their own parents; their
    features are the mean of the member feature rows, and their label is the
    majority member label (classification, lowest value on ties) or the mean
    (regression).
    """
    g.require_valid()
    n, m = g.num_nodes, g.num_hyperedges
    x = np.concatenate([g.node_features, np.zeros((m, g.node_features.shape[1]))])
    labels = np.concatenate([g.labels, np.zeros(m, dtype=g.labels.dtype)])
    for k, e in enumerate(map(list, g.hyperedges)):
        x[n + k] = g.node_features[e].mean(axis=0)
        if g.task.is_classification:  # valid labels are in [0, num_classes)
            labels[n + k] = np.bincount(g.labels[e].astype(np.int64)).argmax()
        else:
            labels[n + k] = g.labels[e].mean()
    members, _ = g.incidence_arrays
    virtual = n + g.hyperedges.edge_of()
    parent = np.concatenate([g.parent, n + np.arange(m)])
    covered, first = sort_unique(members, return_index=True)
    parent[covered] = virtual[first]  # members run hyperedge by hyperedge: lowest wins
    pairs = np.concatenate([g.simple_edges, np.stack([members, virtual], axis=1)])
    return HybridGraph(
        node_features=x,
        simple_edges=_canonical_pairs(n + m, pairs),
        hyperedges=(),
        parent=parent,
        labels=labels,
        task=g.task,
    )


def structurally_equal(a: HybridGraph, b: HybridGraph) -> bool:
    """Exact field-for-field equality (float features compared bitwise)."""
    arrays = ("node_features", "simple_edges", "hyperedge_weights", "hyperedge_features",
              "parent", "labels")  # np.array_equal(None, None) holds
    return (a.task == b.task and a.hyperedges == b.hyperedges
            and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in arrays))
