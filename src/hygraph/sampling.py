"""Subgraph samplers and node-induced subgraph extraction.

Each of the five samplers draws a node set and returns the
``SampledSubgraph`` that ``induce`` extracts for it.  A sampled subgraph is
a ``HybridGraph`` in local coordinates: relabeled simple edges, masked
hyperedges (members restricted to the sample and sorted, empty ones
dropped), inherited features, labels and task, and a parent function that
falls back to self wherever the original parent fell outside the sample.
It also carries ``node_ids`` and ``hyperedge_ids``, its map back to the
parent graph.  ``to_graph()`` without a task keeps the parent's task.

Draws read the graph's cached arrays and rebuild no whole-graph structure:
the walk sampler steps through ``HybridGraph.adjacency_csr`` and ``induce``
masks ``HybridGraph.incidence_arrays``.

The degree and edge samplers draw without replacement from non-uniform
distributions using the exponential-race trick: each item gets key
``Exp(1) / weight`` and the ``k`` smallest keys win, in key order, which
reproduces sequential weighted draws.
"""

from dataclasses import dataclass, replace

import numpy as np

from .graph import HybridGraph

__all__ = [
    "SampledSubgraph",
    "SamplerSpec",
    "induce",
    "run_sampler",
    "sample_edges",
    "sample_nodes_by_degree",
    "sample_random_walk",
    "sample_uniform_hyperedges",
    "sample_uniform_nodes",
    "weighted_sample_without_replacement",
]

SAMPLER_METHODS = ("node", "edge", "rw", "rand-node", "rand-hyperedge")


@dataclass(frozen=True)
class SamplerSpec:
    """Which sampler to run and its knobs.

    ``budget`` is the node count for ``node`` and ``rand-node``, the edge
    count for ``edge`` and the hyperedge count for ``rand-hyperedge``;
    the walk sampler ignores it and uses ``roots`` and ``walk_length``.
    """

    method: str
    budget: int = 0
    roots: int = 0
    walk_length: int = 0

    def __post_init__(self):
        if self.method not in SAMPLER_METHODS:
            raise ValueError(
                f"unknown sampler method {self.method!r}, "
                f"expected one of {SAMPLER_METHODS}"
            )


@dataclass(frozen=True, eq=False, kw_only=True)
class SampledSubgraph(HybridGraph):
    """A ``HybridGraph`` induced on sampled nodes, plus its map to the parent.

    ``node_ids`` are the sampled global ids in ascending order (local node
    ``i`` is global node ``node_ids[i]``); ``hyperedge_ids`` are the global
    indices of the retained hyperedges.  The subgraph keeps the parent's
    task, so ``to_graph()`` without a task returns the subgraph itself.
    """

    node_ids: np.ndarray
    hyperedge_ids: np.ndarray

    def to_graph(self, task=None) -> HybridGraph:
        """This subgraph, relabelled for ``task`` if that differs from its own."""
        if task is None or task == self.task:
            return self
        return replace(self, task=task)


def _hyperedge_of(offsets: np.ndarray) -> np.ndarray:
    """The hyperedge index of every entry of the flattened member array."""
    return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


def _mask_hyperedges(g: HybridGraph, local: np.ndarray, size: int):
    """Hyperedges restricted to the sample: (local member tuples, kept ids).

    ``local`` maps global node ids to local ones (-1 outside the sample).
    A hyperedge is kept iff some member survives; its local members are
    sorted.
    """
    if g.num_hyperedges == 0:
        return (), np.zeros(0, dtype=np.int64)
    members, offsets = g.incidence_arrays
    mapped = local[members]
    inside = mapped >= 0
    edge_of = _hyperedge_of(offsets)[inside]
    # Members arrive grouped by hyperedge, so sorting (edge, member) keys
    # sorts the members within each hyperedge and keeps the groups in order.
    keys = np.sort(edge_of * size + mapped[inside])
    flat = (keys % size).tolist()
    counts = np.bincount(edge_of, minlength=g.num_hyperedges)
    kept = np.flatnonzero(counts)
    ends = np.cumsum(counts[kept]).tolist()
    starts = [0, *ends[:-1]]
    return tuple(tuple(flat[a:b]) for a, b in zip(starts, ends)), kept


def induce(g: HybridGraph, node_ids) -> SampledSubgraph:
    """Extract the subgraph induced by ``node_ids`` (deduplicated, sorted)."""
    ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    if ids.size and (ids[0] < 0 or ids[-1] >= g.num_nodes):
        raise ValueError("node id out of range")
    local = np.full(g.num_nodes, -1, dtype=np.int64)
    local[ids] = np.arange(ids.size)

    edges = g.simple_edges
    keep = (local[edges[:, 0]] >= 0) & (local[edges[:, 1]] >= 0)
    hyperedges, kept = _mask_hyperedges(g, local, ids.size)
    mapped = local[g.parent[ids]]

    return SampledSubgraph(
        node_ids=ids,
        hyperedge_ids=kept,
        node_features=g.node_features[ids],
        simple_edges=local[edges[keep]],
        hyperedges=hyperedges,
        hyperedge_weights=g.hyperedge_weights[kept],
        hyperedge_features=None
        if g.hyperedge_features is None
        else g.hyperedge_features[kept],
        parent=np.where(mapped >= 0, mapped, np.arange(ids.size)),
        labels=g.labels[ids],
        task=g.task,
    )


def weighted_sample_without_replacement(
    weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``k`` distinct indices with probability proportional to weight.

    Returns indices in draw order.  Equivalent to repeatedly drawing one
    index proportional to weight and removing it.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    alive = np.flatnonzero(w > 0)
    if k < 0:
        raise ValueError(f"cannot draw a negative number of items ({k})")
    if k > alive.size:
        raise ValueError(f"cannot draw {k} items from {alive.size} with positive weight")
    keys = rng.exponential(size=alive.size) / w[alive]
    if k == 0:
        return alive[:0]
    # The k smallest keys are those <= the k-th; taking them in index order
    # before the stable sort breaks ties by index, as a full stable argsort
    # of every key would.
    kth = np.partition(keys, k - 1)[k - 1]
    candidates = np.flatnonzero(keys <= kth)
    order = candidates[np.argsort(keys[candidates], kind="stable")[:k]]
    return alive[order]


def sample_nodes_by_degree(g: HybridGraph, budget: int, rng) -> SampledSubgraph:
    """Nodes drawn without replacement, probability (degree + 1) squared."""
    if budget < 1 or budget > g.num_nodes:
        raise ValueError(f"budget must be in [1, {g.num_nodes}], got {budget}")
    w = (g.degrees.astype(np.float64) + 1.0) ** 2
    ids = weighted_sample_without_replacement(w, budget, rng)
    return induce(g, ids)


def sample_edges(g: HybridGraph, budget: int, rng) -> SampledSubgraph:
    """Edges drawn without replacement, probability 1/deg(u) + 1/deg(v)."""
    m = g.num_edges
    if budget < 1 or budget > m:
        raise ValueError(f"budget must be in [1, {m}], got {budget}")
    deg = g.degrees.astype(np.float64)
    u, v = g.simple_edges[:, 0], g.simple_edges[:, 1]
    w = 1.0 / deg[u] + 1.0 / deg[v]
    picked = weighted_sample_without_replacement(w, budget, rng)
    return induce(g, g.simple_edges[picked].ravel())


def sample_random_walk(
    g: HybridGraph, roots: int, walk_length: int, rng
) -> SampledSubgraph:
    """Union of uniform random walks from uniformly chosen roots.

    Roots are drawn with replacement; each walk takes up to ``walk_length``
    uniform neighbor steps and halts early at a node with no neighbors.
    """
    if roots < 1:
        raise ValueError(f"roots must be >= 1, got {roots}")
    if walk_length < 0:
        raise ValueError(f"walk_length must be >= 0, got {walk_length}")
    if g.num_nodes == 0:
        raise ValueError("cannot walk an empty graph")
    indptr, indices = g.adjacency_csr
    visited = []
    for _ in range(roots):
        v = int(rng.integers(g.num_nodes))
        visited.append(v)
        for _ in range(walk_length):
            start = int(indptr[v])
            degree = int(indptr[v + 1]) - start
            if degree == 0:
                break
            v = int(indices[start + rng.integers(degree)])
            visited.append(v)
    return induce(g, visited)


def sample_uniform_nodes(g: HybridGraph, budget: int, rng) -> SampledSubgraph:
    """Uniform node sample without replacement."""
    if budget < 1 or budget > g.num_nodes:
        raise ValueError(f"budget must be in [1, {g.num_nodes}], got {budget}")
    ids = rng.choice(g.num_nodes, size=budget, replace=False)
    return induce(g, ids)


def sample_uniform_hyperedges(g: HybridGraph, budget: int, rng) -> SampledSubgraph:
    """Uniform hyperedge sample without replacement; nodes are the union."""
    m = g.num_hyperedges
    if budget < 1 or budget > m:
        raise ValueError(f"budget must be in [1, {m}], got {budget}")
    picked = rng.choice(m, size=budget, replace=False)
    members, offsets = g.incidence_arrays
    chosen = np.zeros(m, dtype=bool)
    chosen[picked] = True
    return induce(g, members[chosen[_hyperedge_of(offsets)]])


def run_sampler(g: HybridGraph, spec: SamplerSpec, rng) -> SampledSubgraph:
    """Dispatch one sampler run."""
    if spec.method == "node":
        return sample_nodes_by_degree(g, spec.budget, rng)
    if spec.method == "edge":
        return sample_edges(g, spec.budget, rng)
    if spec.method == "rw":
        return sample_random_walk(g, spec.roots, spec.walk_length, rng)
    if spec.method == "rand-node":
        return sample_uniform_nodes(g, spec.budget, rng)
    return sample_uniform_hyperedges(g, spec.budget, rng)
