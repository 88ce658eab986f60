"""Summary statistics over hybrid graphs and sampler quality reports."""

from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .graph import HybridGraph, classify
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


def _clustering_mean(g: HybridGraph) -> float:
    """Mean over all nodes of 2 T(v) / (deg(v) (deg(v) - 1)), 0 when deg < 2."""
    if g.num_edges == 0:
        return 0.0
    n = g.num_nodes
    indptr, indices = g.adjacency_csr
    a = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    triangles = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel() / 2.0
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
