"""Message-passing layers over hybrid graphs.

Every layer maps a node feature matrix (n, d_in) to (n, d_out) using
structure precomputed once per graph in :class:`GraphTensors`:

* ``a_hat``: symmetrically normalized adjacency with self-loops,
* ``mean_adj``: row-normalized adjacency (zero rows for isolated nodes),
* directed edge pairs with self-loops for pairwise attention, and
  ``att_pattern``, the CSR matrix (target, source) that stores them,
* node-hyperedge incidence pairs for hypergraph attention, and
  ``inc_pattern``, the CSC incidence matrix (node, hyperedge) that stores
  them hyperedge by hyperedge, members in hyperedge order,
* ``hyper_gather`` (``W D_e⁻¹ Hᵀ``) and ``hyper_scatter`` (``D_v⁻¹ H``), the
  incidence factors of hypergraph convolution; nothing grows with Σ|e|².

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
    num_nodes: int
    num_hyperedges: int
    a_hat: sp.csr_matrix
    mean_adj: sp.csr_matrix
    att_src: np.ndarray
    att_dst: np.ndarray
    att_pattern: sp.csr_matrix
    inc_node: np.ndarray
    inc_edge: np.ndarray
    inc_pattern: sp.csc_matrix
    incidence_t: sp.csr_matrix
    hyper_gather: sp.csr_matrix
    hyper_scatter: sp.csr_matrix
    log_weights: np.ndarray

    @property
    def hyper_prop(self) -> sp.csr_matrix:
        """The clique-expanded ``D_v⁻¹ H W D_e⁻¹ Hᵀ``, whose nnz grows with Σ|e|².

        The reference matrix form; no layer reads it.  The benchmark tracer
        reports its nnz until ROADMAP item 5 replaces that with incidence nnz.
        """
        return (self.hyper_scatter @ self.hyper_gather).tocsr()


def build_graph_tensors(g: HybridGraph) -> GraphTensors:
    g.require_valid()
    n = g.num_nodes
    m = g.num_hyperedges
    indptr, indices = g.adjacency_csr
    adj = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))

    with_loops = (adj + sp.eye(n, format="csr")).tocsr()
    deg = np.diff(indptr)
    inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
    a_hat = sp.diags(inv_sqrt) @ with_loops @ sp.diags(inv_sqrt)

    inv_deg = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    mean_adj = sp.diags(inv_deg) @ adj

    # Attention pairs (source, target) with self-loops, ordered by target
    # and then source: the rows of the adjacency with self-loops.
    att_dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(with_loops.indptr))
    att_src = with_loops.indices.astype(np.int64)

    members, offsets = g.incidence_arrays
    sizes = np.diff(offsets)
    inc_edge = np.repeat(np.arange(m, dtype=np.int64), sizes)
    inc_node = members.copy()
    # Stored hyperedge by hyperedge, members in hyperedge order: the order of
    # the incidence pairs.  A valid graph has no empty hyperedge and repeats
    # no member, so as CSR it is the plain 0/1 incidence matrix.
    inc_pattern = sp.csc_matrix((np.ones(members.size), inc_node, offsets), shape=(n, m))
    incidence = inc_pattern.tocsr()

    w = g.hyperedge_weights
    node_mass = incidence @ w
    node_scale = np.where(node_mass > 0, 1.0 / np.where(node_mass > 0, node_mass, 1.0), 0.0)

    return GraphTensors(
        num_nodes=n,
        num_hyperedges=m,
        a_hat=a_hat.tocsr(),
        mean_adj=mean_adj.tocsr(),
        att_src=att_src,
        att_dst=att_dst,
        att_pattern=with_loops,
        inc_node=inc_node,
        inc_edge=inc_edge,
        inc_pattern=inc_pattern,
        incidence_t=incidence.T.tocsr(),
        hyper_gather=inc_pattern.T.multiply((w / sizes)[:, None]).tocsr(),
        hyper_scatter=incidence.multiply(node_scale[:, None]).tocsr(),
        log_weights=np.log(w) if m else np.zeros(0),
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
        scores = ad.leaky_relu(
            ad.add(ad.take_rows(s_src, gt.att_src), ad.take_rows(s_dst, gt.att_dst)),
            LEAKY_SLOPE,
        )
        alpha = ad.segment_softmax(scores, gt.att_dst, gt.num_nodes)
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
        pair = ad.add(ad.take_rows(h_l, gt.att_src), ad.take_rows(h_r, gt.att_dst))
        scores = ad.matmul(ad.leaky_relu(pair, LEAKY_SLOPE), self.a)
        alpha = ad.segment_softmax(scores, gt.att_dst, gt.num_nodes)
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
        raw = ad.leaky_relu(
            ad.add(
                ad.take_rows(s_node, gt.inc_node), ad.take_rows(s_edge, gt.inc_edge)
            ),
            LEAKY_SLOPE,
        )
        scores = ad.add(raw, gt.log_weights[gt.inc_edge].reshape(-1, 1))
        alpha = ad.segment_softmax(scores, gt.inc_node, gt.num_nodes)
        return ad.edge_mix(alpha, z, gt.inc_pattern)


LAYER_TYPES = {
    "gcn": GCNLayer,
    "sage": SAGELayer,
    "gat": GATLayer,
    "gatv2": GATv2Layer,
    "hyperconv": HyperConvLayer,
    "hyperatten": HyperAttenLayer,
}
