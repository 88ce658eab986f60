"""Message-passing layers over hybrid graphs.

Every layer maps a node feature matrix (n, d_in) to (n, d_out) using
structure precomputed once per graph in :class:`GraphTensors`.  Hypergraph
convolution keeps its two incidence factors, so nothing grows with Σ|e|².

Attention never materializes dense score matrices; scores live on the edge
or incidence pair lists and are normalized with a segment softmax.  The
pair lists are the storage order of their pattern, so the attention
coefficients become the data of a sparse mixing matrix with that pattern
(``autodiff.edge_mix``): aggregation and its gradients are sparse products.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..graph import HybridGraph
from . import autodiff as ad

__all__ = [
    "GraphTensors",
    "LAYER_TYPES",
    "build_graph_tensors",
    "glorot",
]

LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class GraphTensors:
    """The structure every layer reads, built once per graph.

    Each pair list is stored once: a pattern's ``indices`` hold one end of
    its pairs and one int64 array holds the other.  Counts come from shapes.

    * ``a_hat`` (gcn): ``D̃^-½ (A + I) D̃^-½``, on ``att_pattern``'s index arrays.
    * ``mean_adj`` (sage): ``D⁻¹ A``, zero rows for isolated nodes.
    * ``att_pattern`` (gat, gatv2): CSR (target, source), both edge directions and loops.
    * ``att_dst`` (gat, gatv2): each attention pair's target, the softmax segment.
    * ``inc_pattern`` (hyperatten): CSC (node, hyperedge), members in hyperedge order.
    * ``inc_edge`` (hyperatten): each incidence pair's hyperedge.
    * ``incidence_t`` (hyperatten): CSR ``Hᵀ``, members ascending.
    * ``hyper_gather`` (hyperconv): ``W D_e⁻¹ Hᵀ``, on ``incidence_t``'s index arrays.
    * ``hyper_scatter`` (hyperconv): ``D_v⁻¹ H``, CSR, hyperedges ascending.
    * ``log_weights`` (hyperatten): ``log w`` per hyperedge.
    """

    a_hat: sp.csr_matrix
    mean_adj: sp.csr_matrix
    att_pattern: sp.csr_matrix
    att_dst: np.ndarray
    inc_pattern: sp.csc_matrix
    inc_edge: np.ndarray
    incidence_t: sp.csr_matrix
    hyper_gather: sp.csr_matrix
    hyper_scatter: sp.csr_matrix
    log_weights: np.ndarray

    @property
    def hyper_prop(self) -> sp.csr_matrix:
        """The clique-expanded ``D_v⁻¹ H W D_e⁻¹ Hᵀ``, whose nnz grows with Σ|e|².

        No layer reads it; the benchmark tracer reports its nnz.
        """
        return (self.hyper_scatter @ self.hyper_gather).tocsr()


def _major_index(pattern) -> np.ndarray:
    """The row (CSR) or column (CSC) of each stored entry, as int64."""
    counts = np.diff(pattern.indptr)
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def _with_data(pattern, data):
    """A matrix with ``pattern``'s index arrays, shared, holding ``data``."""
    return type(pattern)((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def build_graph_tensors(g: HybridGraph) -> GraphTensors:
    g.require_valid()
    n, m = g.num_nodes, g.num_hyperedges
    indptr, indices = g.adjacency_csr
    adj = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    deg = np.diff(indptr)

    # Attention pairs with self-loops, ordered by target and then source.
    att_pattern = adj + sp.eye(n, format="csr")
    att_dst = _major_index(att_pattern)
    inv_sqrt = 1.0 / np.sqrt(deg + 1.0)

    # A valid graph has no empty hyperedge and repeats no member, so this is
    # the plain 0/1 incidence matrix, its pairs in hyperedge order.
    members, offsets = g.incidence_arrays
    inc_pattern = sp.csc_matrix((np.ones(members.size), members, offsets), shape=(n, m))
    inc_edge = _major_index(inc_pattern)
    incidence = inc_pattern.tocsr()  # hyperedges ascending in each row
    incidence_t = incidence.T.tocsr()  # members ascending in each row

    w = g.hyperedge_weights
    node_mass = incidence @ w
    node_scale = np.divide(1.0, node_mass, out=np.zeros(n), where=node_mass > 0)
    return GraphTensors(
        a_hat=_with_data(att_pattern, inv_sqrt[att_dst] * inv_sqrt[att_pattern.indices]),
        # Kept a product: its rows are stored in descending column order, SAGE's sum order.
        mean_adj=sp.diags(np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)) @ adj,
        att_pattern=att_pattern,
        att_dst=att_dst,
        inc_pattern=inc_pattern,
        inc_edge=inc_edge,
        incidence_t=incidence_t,
        hyper_gather=_with_data(incidence_t, (w / np.diff(offsets))[inc_edge]),
        hyper_scatter=_with_data(incidence, node_scale[_major_index(incidence)]),
        log_weights=np.log(w),
    )


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


class GCNLayer:
    """Symmetric-normalized convolution with self-loops."""

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta = ad.Tensor(glorot(rng, d_in, d_out))

    def params(self):
        return [self.theta]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        return ad.matmul(gt.a_hat, ad.matmul(x, self.theta))


class SAGELayer:
    """Separate self and mean-of-neighbors transforms, summed."""

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta_self = ad.Tensor(glorot(rng, d_in, d_out))
        self.theta_nbr = ad.Tensor(glorot(rng, d_in, d_out))

    def params(self):
        return [self.theta_self, self.theta_nbr]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        own = ad.matmul(x, self.theta_self)
        nbr = ad.matmul(gt.mean_adj, ad.matmul(x, self.theta_nbr))
        return ad.add(own, nbr)


class GATLayer:
    """Single-head additive attention over neighbors plus self."""

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta = ad.Tensor(glorot(rng, d_in, d_out))
        self.a_src = ad.Tensor(glorot(rng, d_out, 1, shape=(d_out, 1)))
        self.a_dst = ad.Tensor(glorot(rng, d_out, 1, shape=(d_out, 1)))

    def params(self):
        return [self.theta, self.a_src, self.a_dst]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        h = ad.matmul(x, self.theta)
        s_src = ad.matmul(h, self.a_src)
        s_dst = ad.matmul(h, self.a_dst)
        src, dst = gt.att_pattern.indices, gt.att_dst
        scores = ad.leaky_relu(
            ad.add(ad.take_rows(s_src, src), ad.take_rows(s_dst, dst)), LEAKY_SLOPE
        )
        alpha = ad.segment_softmax(scores, dst, gt.att_pattern.shape[0])
        return ad.edge_mix(alpha, h, gt.att_pattern)


class GATv2Layer:
    """Attention with the nonlinearity inside the score, fixing static ranking."""

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta_l = ad.Tensor(glorot(rng, d_in, d_out))
        self.theta_r = ad.Tensor(glorot(rng, d_in, d_out))
        self.a = ad.Tensor(glorot(rng, d_out, 1, shape=(d_out, 1)))

    def params(self):
        return [self.theta_l, self.theta_r, self.a]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        h_l = ad.matmul(x, self.theta_l)
        h_r = ad.matmul(x, self.theta_r)
        src, dst = gt.att_pattern.indices, gt.att_dst
        pair = ad.add(ad.take_rows(h_l, src), ad.take_rows(h_r, dst))
        scores = ad.matmul(ad.leaky_relu(pair, LEAKY_SLOPE), self.a)
        alpha = ad.segment_softmax(scores, dst, gt.att_pattern.shape[0])
        return ad.edge_mix(alpha, h_l, gt.att_pattern)


class HyperConvLayer:
    """Weighted hypergraph convolution ``D_v⁻¹ H W D_e⁻¹ Hᵀ x θ``, in HGNN form.

    Applied as two incidence products (Feng et al., arXiv:1809.09401) at
    O(Σ|e|·d), never as the clique expansion; nodes in no hyperedge get zero rows.
    """

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta = ad.Tensor(glorot(rng, d_in, d_out))

    def params(self):
        return [self.theta]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        h = ad.matmul(x, self.theta)
        return ad.matmul(gt.hyper_scatter, ad.matmul(gt.hyper_gather, h))


class HyperAttenLayer:
    """Attention from nodes over their incident hyperedges.

    Hyperedge messages are sums of transformed member rows; per-incidence
    scores add the log hyperedge weight before the segment softmax, which
    reproduces weighted normalized mixing exactly.
    """

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta = ad.Tensor(glorot(rng, d_in, d_out))
        self.a_node = ad.Tensor(glorot(rng, d_out, 1, shape=(d_out, 1)))
        self.a_edge = ad.Tensor(glorot(rng, d_out, 1, shape=(d_out, 1)))

    def params(self):
        return [self.theta, self.a_node, self.a_edge]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        h = ad.matmul(x, self.theta)
        z = ad.matmul(gt.incidence_t, h)
        s_node = ad.matmul(h, self.a_node)
        s_edge = ad.matmul(z, self.a_edge)
        node, edge = gt.inc_pattern.indices, gt.inc_edge
        raw = ad.leaky_relu(
            ad.add(ad.take_rows(s_node, node), ad.take_rows(s_edge, edge)), LEAKY_SLOPE
        )
        scores = ad.add(raw, gt.log_weights[edge].reshape(-1, 1))
        alpha = ad.segment_softmax(scores, node, gt.inc_pattern.shape[0])
        return ad.edge_mix(alpha, z, gt.inc_pattern)


LAYER_TYPES = {
    "gcn": GCNLayer,
    "sage": SAGELayer,
    "gat": GATLayer,
    "gatv2": GATv2Layer,
    "hyperconv": HyperConvLayer,
    "hyperatten": HyperAttenLayer,
}
