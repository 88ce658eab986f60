"""Summary statistics over hybrid graphs and sampler quality reports."""

from dataclasses import asdict, dataclass

import numpy as np

from .graph import HybridGraph, classify, gather_rows, row_index
from .sampling import SamplerSpec, run_sampler

__all__ = ["GraphStats", "compute_stats", "sampler_report"]


@dataclass(frozen=True)
class GraphStats:
    num_nodes: int
    num_edges: int
    num_hyperedges: int
    avg_node_degree: float
    avg_hyperedge_degree: float
    avg_clustering_coefficient: float
    kind: str

    def as_dict(self) -> dict:
        return asdict(self)


_WEDGE_BLOCK = 1 << 20  # wedges tested for closure at once


def _triangles(g: HybridGraph) -> np.ndarray:
    """The number of triangles through each node, as int64.

    Each edge points from the lower to the higher (degree, id) rank (Latapy,
    TCS 2008), so a triangle u < v < w in rank is found once: as forward
    edge (u, v), extended by w in v's forward row, closed iff (u, w) is a
    forward edge too.  The forward edges' keys ``u * n + w`` come out of the
    CSR ascending, so closure is one ``searchsorted``.  Wedges are tested
    in blocks of about ``_WEDGE_BLOCK``, so memory does not grow with
    the sum of squared degrees.
    """
    n = g.num_nodes
    indptr, indices = g.adjacency_csr
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(np.diff(indptr), kind="stable")] = np.arange(n)
    rows = row_index(indptr)
    forward = rank[rows] < rank[indices]  # a self-loop points nowhere
    src, dst = rows[forward], indices[forward]
    fptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=fptr[1:])
    keys = src * n + dst
    spans = fptr[dst + 1] - fptr[dst]  # the wedges each forward edge opens
    wedges_through = np.cumsum(spans)
    counts = np.zeros(n, dtype=np.int64)
    start = 0
    while start < src.size:
        done = wedges_through[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(wedges_through, done + _WEDGE_BLOCK, "right")))
        u, v = src[start:stop], dst[start:stop]
        w = gather_rows(fptr, dst, v)
        u, v = np.repeat(u, spans[start:stop]), np.repeat(v, spans[start:stop])
        wanted = u * n + w
        closed = keys[np.minimum(np.searchsorted(keys, wanted), keys.size - 1)] == wanted
        counts += np.bincount(np.concatenate([u[closed], v[closed], w[closed]]), minlength=n)
        start = stop
    return counts


def _clustering_mean(g: HybridGraph) -> float:
    """Mean over all nodes of 2 T(v) / (deg(v) (deg(v) - 1)), 0 when deg < 2."""
    if g.num_edges == 0:
        return 0.0
    triangles = _triangles(g).astype(np.float64)
    deg = g.degrees.astype(np.float64)
    denom = deg * (deg - 1.0)
    coef = np.where(denom > 0, 2.0 * triangles / np.where(denom > 0, denom, 1.0), 0.0)
    return float(coef.mean())


def compute_stats(g: HybridGraph) -> GraphStats:
    """Node degree counts simple edges only; hyperedge degree is mean size."""
    n = g.num_nodes
    m = g.num_edges
    h = g.num_hyperedges
    return GraphStats(
        num_nodes=n,
        num_edges=m,
        num_hyperedges=h,
        avg_node_degree=2.0 * m / n if n else 0.0,
        avg_hyperedge_degree=int(g.hyperedges.offsets[-1]) / h if h else 0.0,
        avg_clustering_coefficient=_clustering_mean(g),
        kind=classify(g).value,
    )


def sampler_report(
    g: HybridGraph, spec: SamplerSpec, trials: int, seed: int
) -> dict:
    """Run a sampler ``trials`` times and average the subgraph statistics.

    Trial ``i`` uses seed ``seed + i``, so individual trials can be
    reproduced in isolation.  Returns per-trial stats plus element-wise
    means over the numeric fields.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    per_trial = []
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        sub = run_sampler(g, spec, rng).to_graph()
        per_trial.append(compute_stats(sub).as_dict())
    numeric = [k for k, v in per_trial[0].items() if isinstance(v, (int, float))]
    mean = {k: float(np.mean([t[k] for t in per_trial])) for k in numeric}
    return {
        "method": spec.method,
        "budget": spec.budget,
        "roots": spec.roots,
        "walk_length": spec.walk_length,
        "trials": trials,
        "seed": seed,
        "per_trial": per_trial,
        "mean": mean,
    }
