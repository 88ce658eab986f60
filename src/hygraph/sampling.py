"""Subgraph samplers and node-induced subgraph extraction.

Each of the five samplers draws a node set and returns the
``SampledSubgraph`` that ``induce`` extracts for it.  A sampled subgraph is
a ``HybridGraph`` in local coordinates: relabeled simple edges, masked
hyperedges (members restricted to the sample, still ascending, empty ones
dropped), inherited features, labels and task, and a parent function that
falls back to self wherever the original parent fell outside the sample.
It also carries ``node_ids`` and ``hyperedge_ids``, its map back to the
parent graph.  ``to_graph()`` without a task keeps the parent's task.

Draws read the graph's cached arrays and build no tuple per hyperedge: the
walk sampler steps through ``HybridGraph.adjacency_csr``, the edge sampler
draws on ``HybridGraph.edge_sampling_weights``, and ``induce`` reads the
sampled nodes' edges through ``HybridGraph.edges_by_first_endpoint`` and
their hyperedge memberships through ``HybridGraph.member_positions``, which
point into ``Hyperedges.members``, ascending within each hyperedge.  Each
draw still fills a ``num_nodes`` id map, and a sample holding an eighth or
more of all members a bool one.

The walk sampler moves all its walks one step per round, with one array
draw per round; see :func:`sample_random_walk`.

The degree and edge samplers draw without replacement from non-uniform
distributions using the exponential-race trick: each item gets key
``Exp(1) / weight`` and the ``k`` smallest keys win, in key order, which
reproduces sequential weighted draws.
"""

from dataclasses import dataclass, replace

import numpy as np

from .graph import HybridGraph, Hyperedges, gather_rows, sort_unique

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


def _mask_hyperedges(g: HybridGraph, ids: np.ndarray, local: np.ndarray):
    """Hyperedges restricted to the sorted sample ``ids``: (local members, kept ids).

    ``local`` maps global node ids to local ones.  A hyperedge is kept iff
    some member survives; its local members stay ascending.
    """
    if g.num_hyperedges == 0:  # skips a dozen numpy calls per draw on plain graphs
        return g.hyperedges, np.zeros(0, dtype=np.int64)
    # Positions in ``members`` run hyperedge by hyperedge, members ascending,
    # and ``local`` is increasing on the sample, so the kept positions in
    # ascending order give the masked hyperedges as they are.
    # A sample that holds few members sorts its nodes' positions; one that
    # holds an eighth or more tests every member against a bool in-sample
    # array.  The sort was the cheaper below 5-10% of 1M members and below
    # 15-25% of 200k; a bool array reads faster than testing ``local >= 0``.
    indptr, positions = g.member_positions
    members = g.hyperedges.members
    if 8 * int((indptr[ids + 1] - indptr[ids]).sum()) < positions.size:
        kept_at = np.sort(gather_rows(indptr, positions, ids))
    else:
        inside = np.zeros(g.num_nodes, dtype=bool)
        inside[ids] = True
        kept_at = np.flatnonzero(inside[members])
    edge_of = g.hyperedges.edge_of()[kept_at]
    first = np.ones(edge_of.size, dtype=bool)
    first[1:] = edge_of[1:] != edge_of[:-1]
    masked = Hyperedges(local[members[kept_at]], np.append(np.flatnonzero(first), edge_of.size))
    return masked, edge_of[first]


def induce(g: HybridGraph, node_ids) -> SampledSubgraph:
    """Extract the subgraph induced by ``node_ids`` (deduplicated, sorted).

    The subgraph of a ``known_valid`` graph is valid by construction and is
    marked so (its ``violations`` still runs ``validate``): the relabelling
    is injective and monotone, so kept edges gain no self-loop or duplicate;
    masked members stay unique and empty hyperedges are dropped; weights,
    features and labels are subsets; and the parent map restricted to the
    sample, outside parents replaced by self, is still a forest.
    """
    ids = sort_unique(np.asarray(node_ids, dtype=np.int64).ravel())
    if ids.size and (ids[0] < 0 or ids[-1] >= g.num_nodes):
        raise ValueError("node id out of range")
    local = np.full(g.num_nodes, -1, dtype=np.int64)
    local[ids] = np.arange(ids.size)

    # The edges whose first endpoint is sampled, kept if the second one is
    # too; sorting their ids keeps the parent's edge order.
    candidates = gather_rows(*g.edges_by_first_endpoint, ids)
    edges = g.simple_edges
    edge_ids = np.sort(candidates[local[edges[:, 1][candidates]] >= 0])
    hyperedges, kept = _mask_hyperedges(g, ids, local)
    mapped = local[g.parent[ids]]

    sub = SampledSubgraph(
        node_ids=ids,
        hyperedge_ids=kept,
        node_features=g.node_features[ids],
        simple_edges=local[edges[edge_ids]],
        hyperedges=hyperedges,
        hyperedge_weights=g.hyperedge_weights[kept],
        hyperedge_features=None
        if g.hyperedge_features is None
        else g.hyperedge_features[kept],
        parent=np.where(mapped >= 0, mapped, np.arange(ids.size)),
        labels=g.labels[ids],
        task=g.task,
    )
    if vars(g).get("known_valid"):
        vars(sub)["known_valid"] = True
    return sub


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
    picked = weighted_sample_without_replacement(g.edge_sampling_weights, budget, rng)
    return induce(g, g.simple_edges[picked].ravel())


def sample_random_walk(
    g: HybridGraph, roots: int, walk_length: int, rng
) -> SampledSubgraph:
    """Union of uniform random walks from uniformly chosen roots.

    Roots are drawn with replacement; each walk takes up to ``walk_length``
    uniform neighbor steps and halts early at a node with no neighbors.

    The walks advance round by round: ``rng.integers(num_nodes, size=roots)``
    draws the roots, then each round makes one ``rng.integers(degree)`` for
    the walks still moving, in root order, and steps them through
    ``HybridGraph.adjacency_csr``.  An array of bounds draws element by
    element from the stream scalar calls read, so this equals a loop that
    draws each round's steps one walk at a time.
    """
    if roots < 1:
        raise ValueError(f"roots must be >= 1, got {roots}")
    if walk_length < 0:
        raise ValueError(f"walk_length must be >= 0, got {walk_length}")
    if g.num_nodes == 0:
        raise ValueError("cannot walk an empty graph")
    indptr, indices = g.adjacency_csr
    v = rng.integers(g.num_nodes, size=roots)
    visited = [v]
    for _ in range(walk_length):
        first = indptr[v]
        degree = indptr[v + 1] - first
        moving = degree > 0  # a walk at a node with no neighbours halts and drops out
        v = indices[first[moving] + rng.integers(degree[moving])]
        visited.append(v)
    return induce(g, np.concatenate(visited))


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
    return induce(g, gather_rows(g.hyperedges.offsets, g.hyperedges.members, picked))


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
