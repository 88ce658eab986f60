"""Pipelines that build hyperedges from raw relational or positional data.

Three constructions are provided:

* ``cliques_to_hyperedges``: one hyperedge per maximal clique of size >= 3
  in the simple-edge graph.
* ``interval_hyperedges``: one hyperedge per anchor node, grouping nodes
  whose genomic offset lies within a window around the anchor on the same
  chromosome; duplicate member sets are collapsed.
* ``ball_hyperedges``: one hyperedge per node, grouping all nodes whose
  embedding lies within distance ``tau`` of the anchor's embedding.
  Duplicates are kept so the list length always equals the node count.

All member tuples are sorted ascending.  Clique and interval lists are
ordered lexicographically; the ball list is in anchor order.
"""

import numpy as np

from .graph import neighbour_csr, neighbour_sets, row_index

__all__ = [
    "ball_hyperedges",
    "cliques_to_hyperedges",
    "interval_hyperedges",
]

INTERVAL_WINDOW = 200_000
_INT64 = np.iinfo(np.int64)


def _bron_kerbosch_pivot(adj, r: set, p: set, x: set, min_size: int, out: list) -> None:
    if not p and not x:
        if len(r) >= min_size:
            out.append(tuple(sorted(r)))
        return
    pivot = max(p | x, key=lambda u: len(adj[u] & p))
    for v in list(p - adj[pivot]):
        _bron_kerbosch_pivot(adj, r | {v}, p & adj[v], x & adj[v], min_size, out)
        p.remove(v)
        x.add(v)


def cliques_to_hyperedges(
    num_nodes: int, edges: np.ndarray, min_size: int = 3
) -> list[tuple[int, ...]]:
    """All maximal cliques of at least ``min_size`` nodes.

    Uses Bron-Kerbosch with pivoting, rooted at each node in ascending
    degree order.  Self-loops are ignored, as by networkx's
    ``find_cliques``.  Members sorted, list lexicographic.
    """
    if min_size < 3:
        raise ValueError(f"min_size must be >= 3, got {min_size}")
    indptr, indices = neighbour_csr(num_nodes, edges)
    adj = list(neighbour_sets(indptr, indices))
    for v in indices[indices == row_index(indptr)].tolist():
        adj[v] = adj[v] - {v}  # a looped pivot would leave itself out of p - adj[pivot]
    # Any root order finds each maximal clique once, at its first member in that
    # order with P its later and X its earlier neighbours; the order sets the work.
    cliques: list[tuple[int, ...]] = []
    done: set[int] = set()
    for v in np.argsort(np.diff(indptr), kind="stable").tolist():
        _bron_kerbosch_pivot(adj, {v}, set(adj[v]) - done, done & adj[v], min_size, cliques)
        done.add(v)
    cliques.sort()
    return cliques


def interval_hyperedges(
    positions: list[tuple[object, int]], window: int = INTERVAL_WINDOW
) -> list[tuple[int, ...]]:
    """Window grouping over (chromosome, offset) node positions.

    For each anchor node the hyperedge contains every node on the same
    chromosome whose offset differs by at most ``window``.  Identical member
    sets are merged; output is lexicographic.  Raises ``ValueError`` when an
    offset plus or minus ``window`` leaves int64.
    """
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    by_chrom: dict[object, list[int]] = {}
    for v, (chrom, _) in enumerate(positions):
        by_chrom.setdefault(chrom, []).append(v)
    listed = [int(offset) for _, offset in positions]
    if listed and (min(listed) - window < _INT64.min or max(listed) + window > _INT64.max):
        raise ValueError(f"offsets plus or minus window {window} leave int64")
    offset_of = np.array(listed, dtype=np.int64)
    seen: set[tuple[int, ...]] = set()
    for nodes in by_chrom.values():
        offsets = offset_of[nodes]
        order = np.argsort(offsets)
        nodes, offsets = np.array(nodes)[order].tolist(), offsets[order]
        lo = np.searchsorted(offsets, offsets - window, side="left")
        hi = np.searchsorted(offsets, offsets + window, side="right")
        # No span splits tied offsets, so distinct spans hold distinct members.
        for a, b in set(zip(lo.tolist(), hi.tolist())):
            seen.add(tuple(sorted(nodes[a:b])))
    return sorted(seen)


def ball_hyperedges(
    embeddings: np.ndarray, tau: float, metric: str = "euclidean"
) -> list[tuple[int, ...]]:
    """Metric-ball grouping over node embeddings, one hyperedge per node.

    ``metric`` is ``euclidean`` or ``cosine`` (cosine distance is
    ``1 - cos(u, v)``; zero vectors are rejected).  Every anchor is within
    distance 0 of itself, so each hyperedge is non-empty.  Duplicates stay.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shape {emb.shape}")
    if not np.all(np.isfinite(emb)):
        raise ValueError("embeddings contain non-finite values")
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    n = emb.shape[0]
    if metric == "euclidean":
        sq_norms = np.einsum("ij,ij->i", emb, emb)
    elif metric == "cosine":
        norms = np.sqrt(np.einsum("ij,ij->i", emb, emb))
        if np.any(norms == 0):
            raise ValueError("cosine metric undefined for zero embeddings")
        emb = emb / norms[:, None]
    else:
        raise ValueError(f"unknown metric: {metric!r}")

    out: list[tuple[int, ...]] = []
    chunk = max(1, min(n, 4_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        if metric == "euclidean":
            d2 = (
                sq_norms[start:stop, None]
                + sq_norms[None, :]
                - 2.0 * emb[start:stop] @ emb.T
            )
            within = d2 <= tau * tau + 1e-12
        else:
            cos = np.clip(emb[start:stop] @ emb.T, -1.0, 1.0)
            within = 1.0 - cos <= tau + 1e-12
        for i in range(stop - start):
            out.append(tuple(np.flatnonzero(within[i]).tolist()))
    return out
