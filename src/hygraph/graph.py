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

from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "GraphKind",
    "HybridGraph",
    "InvalidGraphError",
    "Task",
    "classify",
    "duplicate_hyperedges",
    "neighbour_csr",
    "neighbour_sets",
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


def neighbour_csr(num_nodes: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour lists of an undirected edge list as CSR ``(indptr, indices)``.

    Row ``v`` is ``indices[indptr[v]:indptr[v + 1]]``: the distinct
    neighbours of ``v`` in ascending order.  Duplicate edges collapse and
    a self-loop makes a node its own neighbour.  Both arrays are read-only.
    """
    n = num_nodes
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise InvalidGraphError(["edge index out of range"])
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    pairs = np.unique(src * n + dst)  # sorted by (src, dst), duplicates gone
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

    Hyperedges are stored as tuples of node indices; members are kept in the
    order given so that validation can report duplicates.  Use
    :func:`validate` to check all structural invariants; operations that
    assume a valid graph call :meth:`require_valid` (the result is cached).
    """

    node_features: np.ndarray  # (|V|, d_v) float64
    simple_edges: np.ndarray  # (|E|, 2) int64, unordered pairs
    hyperedges: tuple[tuple[int, ...], ...] = ()
    hyperedge_weights: np.ndarray | None = None  # (|HE|,) float64, default 1.0
    hyperedge_features: np.ndarray | None = None  # (|HE|, d_e) float64
    parent: np.ndarray | None = None  # (|V|,) int64, parent[v] == v = no parent
    labels: np.ndarray | None = None  # (|V|,) int64 or float64
    task: Task = field(default_factory=lambda: Task("regression"))

    def __post_init__(self):
        x = np.atleast_2d(np.array(self.node_features, dtype=np.float64))
        object.__setattr__(self, "node_features", x)
        object.__setattr__(self, "simple_edges", _as_edge_array(self.simple_edges))
        object.__setattr__(
            self,
            "hyperedges",
            tuple(tuple(map(int, e)) for e in self.hyperedges),
        )
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
        if self.violations:
            raise InvalidGraphError(list(self.violations))
        return self

    @cached_property
    def degrees(self) -> np.ndarray:
        """Simple-edge degree of every node.

        Every edge counts once at each end, so duplicate edges count again
        and a self-loop adds two.
        """
        ends = self.simple_edges.ravel()
        if ends.size and (ends.min() < 0 or ends.max() >= self.num_nodes):
            raise InvalidGraphError(["edge index out of range"])
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
    def incidence_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened hyperedge membership: (member node ids, offsets per edge)."""
        m = len(self.hyperedges)
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, self.hyperedges), dtype=np.int64, count=m),
                  out=offsets[1:])
        members = np.fromiter(
            chain.from_iterable(self.hyperedges), dtype=np.int64, count=offsets[-1]
        )
        members.setflags(write=False)
        offsets.setflags(write=False)
        return members, offsets


def validate(g: HybridGraph) -> list[str]:
    """Check every structural invariant; returns one message per breach.

    An empty list means the graph is valid.  Duplicate hyperedges are legal
    (see :func:`duplicate_hyperedges`) and do not appear here.
    """
    out: list[str] = []
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
        for i in np.flatnonzero(bad.any(axis=1)):
            out.append(f"edge index out of range at edge {i}")
        for i in np.flatnonzero(edges[:, 0] == edges[:, 1]):
            out.append(f"self-loop at edge {i}")
        canonical = np.sort(edges, axis=1)
        _, first = np.unique(canonical, axis=0, return_index=True)
        repeat = np.ones(edges.shape[0], dtype=bool)
        repeat[first] = False  # np.unique reports each pair's first occurrence
        for i in np.flatnonzero(repeat):
            out.append(f"duplicate edge at index {i}")

    m = g.num_hyperedges
    members, offsets = g.incidence_arrays
    sizes = np.diff(offsets)
    edge_of = np.repeat(np.arange(m), sizes)  # non-decreasing
    ranked = members[np.lexsort((members, edge_of))]  # sorted within each hyperedge
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

    if (g.hyperedge_weights <= 0).any():
        idx = int(np.nonzero(g.hyperedge_weights <= 0)[0][0])
        out.append(f"non-positive hyperedge weight at index {idx}")

    if g.parent.shape[0] == n and n:
        if ((g.parent < 0) | (g.parent >= n)).any():
            out.append("parent index out of range")
        elif _has_parent_cycle(g.parent):
            out.append("parent cycle")
    return out


def _has_parent_cycle(parent: np.ndarray) -> bool:
    """Whether {v -> parent[v] : parent[v] != v} has a cycle.

    Pointer doubling: after k squarings ``up[v]`` is the ancestor 2**k
    steps above ``v``.  A chain that ends at a root does so within n - 1
    steps, so once 2**k >= n - 1 every such ``up[v]`` is a root; any node
    whose ``up`` is not a root lies on or below a cycle.
    """
    up = parent
    for _ in range(max(1, (parent.shape[0] - 1).bit_length())):
        up = up[up]
    return bool((parent[up] != up).any())


def duplicate_hyperedges(g: HybridGraph) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of hyperedges with identical member sets.

    Published networks do contain duplicates, so this is advisory rather
    than a validation failure.
    """
    seen: dict[frozenset, int] = {}
    dups = []
    for i, e in enumerate(g.hyperedges):
        key = frozenset(e)
        if key in seen:
            dups.append((seen[key], i))
        else:
            seen[key] = i
    return dups


def _edge_sizes_all_two(g: HybridGraph) -> bool:
    return all(len(e) == 2 for e in g.hyperedges)


def _parent_is_identity(g: HybridGraph) -> bool:
    return bool((g.parent == np.arange(g.num_nodes)).all())


def _levels(parent: np.ndarray) -> np.ndarray:
    """Depth below the nearest root along the parent chain (roots are 0)."""
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


def classify(g: HybridGraph) -> GraphKind:
    """Sort a valid graph into one of the four kinds.

    Size-2 hyperedges count as simple edges here, so only the stored pair
    list and member sizes matter, not which container an edge lives in.
    """
    g.require_valid()
    flat = _parent_is_identity(g)
    if flat:
        if _edge_sizes_all_two(g):
            return GraphKind.SIMPLE
        if any(len(e) >= 3 for e in g.hyperedges):
            return GraphKind.HYPERGRAPH
        return GraphKind.GENERAL_HYBRID
    if not _edge_sizes_all_two(g):
        return GraphKind.GENERAL_HYBRID
    # Hierarchical: every node below the top level must share an edge with
    # some node exactly one level up (not necessarily its parent).
    depth = _levels(g.parent)
    nbrs = g.adjacency_sets
    pair_nbrs: list[set[int]] = [set(s) for s in nbrs]
    for e in g.hyperedges:  # size-2 hyperedges count as edges
        u, v = e
        pair_nbrs[u].add(v)
        pair_nbrs[v].add(u)
    for v in range(g.num_nodes):
        if g.parent[v] == v:
            continue
        want = depth[v] - 1
        if not any(depth[u] == want for u in pair_nbrs[v]):
            return GraphKind.GENERAL_HYBRID
    return GraphKind.HIERARCHICAL


def _canonical_pairs(pairs) -> np.ndarray:
    """Deduplicated (min, max) pairs in lexicographic order."""
    uniq = sorted({(int(min(u, v)), int(max(u, v))) for u, v in pairs})
    if not uniq:
        return np.zeros((0, 2), dtype=np.int64)
    return np.array(uniq, dtype=np.int64)


def to_simple(g: HybridGraph) -> HybridGraph:
    """Drop every hyperedge of size != 2; size-2 hyperedges become pairs."""
    g.require_valid()
    if not g.hyperedges and _parent_is_identity(g):
        return g
    pairs = [tuple(e) for e in g.simple_edges] + [e for e in g.hyperedges if len(e) == 2]
    return HybridGraph(
        node_features=g.node_features,
        simple_edges=_canonical_pairs(pairs),
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
    x = np.zeros((n + m, g.node_features.shape[1]))
    x[:n] = g.node_features
    parent = np.arange(n + m, dtype=np.int64)
    parent[:n] = g.parent
    labels = np.zeros(n + m, dtype=g.labels.dtype)
    labels[:n] = g.labels

    pairs = [tuple(e) for e in g.simple_edges]
    for k, e in enumerate(g.hyperedges):
        virt = n + k
        member_rows = g.node_features[list(e)]
        x[virt] = member_rows.mean(axis=0)
        if g.task.is_classification:
            counts = Counter(int(g.labels[v]) for v in e)
            top = max(counts.values())
            labels[virt] = min(c for c, cnt in counts.items() if cnt == top)
        else:
            labels[virt] = g.labels[list(e)].mean()
        for v in e:
            pairs.append((v, virt))
    assigned = np.zeros(n, dtype=bool)
    for k, e in enumerate(g.hyperedges):  # lowest containing hyperedge wins
        for v in e:
            if not assigned[v]:
                parent[v] = n + k
                assigned[v] = True
    return HybridGraph(
        node_features=x,
        simple_edges=_canonical_pairs(pairs),
        hyperedges=(),
        parent=parent,
        labels=labels,
        task=g.task,
    )


def structurally_equal(a: HybridGraph, b: HybridGraph) -> bool:
    """Exact field-for-field equality (float features compared bitwise)."""
    if a.num_nodes != b.num_nodes or a.task != b.task:
        return False
    if not np.array_equal(a.node_features, b.node_features):
        return False
    if not np.array_equal(a.simple_edges, b.simple_edges):
        return False
    if a.hyperedges != b.hyperedges:
        return False
    if not np.array_equal(a.hyperedge_weights, b.hyperedge_weights):
        return False
    ef_a, ef_b = a.hyperedge_features, b.hyperedge_features
    if (ef_a is None) != (ef_b is None):
        return False
    if ef_a is not None and not np.array_equal(ef_a, ef_b):
        return False
    if not np.array_equal(a.parent, b.parent):
        return False
    return np.array_equal(a.labels, b.labels)
