"""Message-passing layers over hybrid graphs.

Every layer maps a node feature matrix (n, d_in) to (n, d_out) using
structure held in :class:`GraphTensors`, which builds each group of
structures the first time a layer reads it and then keeps it: a gcn batch
builds ``a_hat`` and nothing else.  Hypergraph convolution keeps its two
incidence factors, so nothing grows with Σ|e|².  Each sparse operator has a
stored adjoint, built on its first backward, that ``autodiff.matmul`` reads
in place of ``.T``.

Attention never materializes dense score matrices; scores live on the edge
or incidence pair lists and are normalized with a segment softmax over the
pairs' output rows.  Each pair list is a row-major CSR pattern in storage
order, so the attention coefficients become the data of a sparse mixing
matrix with that pattern (``autodiff.edge_mix``): aggregation and its
gradients are sparse products.  The attention patterns, like the incidence
factors, keep their columns ascending in each row, so the order in which a
hyperedge's members are listed changes no output bit.
"""

import numpy as np
import scipy.sparse as sp

from ..graph import HybridGraph, row_index
from . import autodiff as ad

__all__ = [
    "GraphTensors",
    "LAYER_TYPES",
    "build_graph_tensors",
    "glorot",
]

LEAKY_SLOPE = 0.2


def _csr(data, indices, indptr, shape) -> sp.csr_matrix:
    """A CSR matrix, its index arrays cast to int32 where its sizes say they
    fit, as scipy stores them, so that scipy neither scans nor copies them."""
    idx = np.int32 if max(*shape, data.size) <= np.iinfo(np.int32).max else np.int64
    return sp.csr_matrix((data, indices.astype(idx, copy=False), indptr.astype(idx, copy=False)),
                         shape=shape)


def _attention(gt) -> dict:
    """``a_hat`` and ``att_dst``.  ``a_hat``'s row ``v`` holds entry ``p``
    (neighbour ``j``) at ``p + v + (j > v)`` and its loop in the slot left,
    as a valid graph has no self-loop edge."""
    n = gt.graph.num_nodes
    indptr, indices = gt.graph.adjacency_csr
    row, entry = row_index(indptr), np.arange(indices.size)
    att_indptr = indptr + np.arange(n + 1)
    att_src = np.empty(att_indptr[-1], dtype=np.int64)
    att_src[entry + row + (indices > row)] = indices
    att_src[att_indptr[:-1] + np.bincount(row[indices < row], minlength=n)] = np.arange(n)
    att_dst = row_index(att_indptr)
    inv_sqrt = 1.0 / np.sqrt(np.diff(indptr) + 1.0)
    return {"a_hat": _csr(inv_sqrt[att_dst] * inv_sqrt[att_src], att_src, att_indptr, (n, n)),
            "att_dst": att_dst}


def _att_selections(gt) -> dict:
    """The 0/1 selection matrices of GATv2's gathers ``a_hat.indices`` and
    ``att_dst``, on ``a_hat.indptr``: row ``i`` selects, in pair order, the
    pairs whose source (its pattern is symmetric) or target is ``i``."""
    a = gt.a_hat
    ones, shape = np.ones(a.nnz), (a.shape[0], a.nnz)
    ones.setflags(write=False)
    return {"src_selection": _csr(ones, np.argsort(a.indices, kind="stable"), a.indptr, shape),
            "dst_selection": _csr(ones, np.arange(a.nnz), a.indptr, shape)}


def _mean_adj(gt) -> dict:
    """``mean_adj``, each row reversed, as ``diags @ adj`` stores it."""
    indptr, indices = gt.graph.adjacency_csr
    row, entry, n = row_index(indptr), np.arange(indices.size), gt.graph.num_nodes
    reversed_rows = indices[indptr[row] + indptr[row + 1] - 1 - entry]
    return {"mean_adj": _csr(1.0 / np.diff(indptr)[row], reversed_rows, indptr, (n, n))}


def _mean_adj_t(gt) -> dict:
    """``mean_adj``'s adjoint ``A D⁻¹``: the adjacency, on ``mean_adj``'s
    ``indptr``, with data ``1 / deg[j]``."""
    a, indices = gt.mean_adj, gt.graph.adjacency_csr[1]
    return {"mean_adj_t": _csr(1.0 / np.diff(a.indptr)[indices], indices, a.indptr, a.shape)}


def _incidence(gt) -> dict:
    """The incidence group.  ``incidence_t`` is ``(members, offsets)`` with
    rows sorted, on a read-only array of ones, and ``hyper_scatter`` is its
    transpose, hyperedges ascending in each row."""
    g = gt.graph
    n, m = g.num_nodes, g.num_hyperedges
    offsets = g.hyperedges.offsets
    ones = np.ones(offsets[-1])
    ones.setflags(write=False)
    inc_edge = g.hyperedges.edge_of()
    incidence_t = _csr(ones, g.hyperedges.sorted_members(), offsets, (m, n))
    w = g.hyperedge_weights
    hyper_scatter = incidence_t.T.tocsr()
    inc_node = row_index(hyper_scatter.indptr)
    node_mass = hyper_scatter @ w
    node_scale = np.divide(1.0, node_mass, out=np.zeros(n), where=node_mass > 0)
    hyper_scatter.data *= node_scale[inc_node]
    return {"incidence_t": incidence_t,
            "hyper_gather": _csr((w / np.diff(offsets))[inc_edge], incidence_t.indices,
                                 incidence_t.indptr, (m, n)),
            "hyper_scatter": hyper_scatter, "inc_node": inc_node, "log_weights": np.log(w)}


def _incidence_adjoint(gt) -> dict:
    """``incidence_t``'s adjoint ``H``: its ones on ``hyper_scatter``'s structure."""
    t, s = gt.incidence_t, gt.hyper_scatter
    return {"incidence": _csr(t.data, s.indices, s.indptr, s.shape)}


def _hyperconv_adjoints(gt) -> dict:
    """The adjoints of ``hyper_gather`` and ``hyper_scatter``, each on the
    other's structure; ``hyper_scatter``'s data gives each node's scale."""
    t, s, n = gt.incidence_t, gt.hyper_scatter, gt.graph.num_nodes
    edge_scale = gt.graph.hyperedge_weights / np.diff(t.indptr)
    node_scale = np.zeros(n)
    node_scale[gt.inc_node] = s.data
    return {"hyper_gather_t": _csr(edge_scale[s.indices], s.indices, s.indptr, s.shape),
            "hyper_scatter_t": _csr(node_scale[t.indices], t.indices, t.indptr, t.shape)}


_BUILDERS = {"a_hat": _attention, "att_dst": _attention, "mean_adj": _mean_adj,
             "src_selection": _att_selections, "dst_selection": _att_selections,
             "mean_adj_t": _mean_adj_t, "incidence": _incidence_adjoint,
             "hyper_gather_t": _hyperconv_adjoints, "hyper_scatter_t": _hyperconv_adjoints,
             **dict.fromkeys(("incidence_t", "hyper_gather", "hyper_scatter", "inc_node",
                              "log_weights"), _incidence)}


class GraphTensors:
    """The structure every layer reads, each group built on its first read.

    Every matrix is CSR.  Each pair list attention reads is a CSR pattern,
    columns ascending in each row, plus an int64 array that holds each
    stored pair's row, the softmax segment; the pattern's ``indices`` hold
    the other end.  Each array is stored once, and counts come from shapes.

    Groups, each built whole the first time one of its names is read:

    * attention: ``a_hat`` (gcn), ``D̃^-½ (A + I) D̃^-½``, CSR (target,
      source), both edge directions and loops; gat and gatv2 read its
      structure as their pairs.  ``att_dst`` (gat, gatv2): each attention
      pair's target, the softmax segment.
    * ``mean_adj`` (sage): ``D⁻¹ A``, zero rows for isolated nodes.
    * incidence: ``incidence_t`` (hyperatten), CSR ``Hᵀ``, members
      ascending; ``hyper_gather`` (hyperconv), ``W D_e⁻¹ Hᵀ``, on
      ``incidence_t``'s index arrays; ``hyper_scatter`` (hyperconv),
      ``D_v⁻¹ H``, CSR, hyperedges ascending, whose structure hyperatten
      reads as its (node, hyperedge) pairs; ``inc_node`` (hyperatten), each
      incidence pair's node, the softmax segment; ``log_weights``
      (hyperatten), ``log w`` per hyperedge.

    Each sparse operator has a stored adjoint, a CSR with sorted indices
    that the layers hand ``autodiff.matmul`` for its backward: ``a_hat`` is
    its own (a symmetric pattern whose values are ``inv_sqrt[i] *
    inv_sqrt[j]``), and ``mean_adj_t``, ``incidence``, ``hyper_gather_t``
    and ``hyper_scatter_t`` are built on first read, the last three on the
    index arrays of ``hyper_scatter`` or ``incidence_t``.  So are GATv2's
    ``src_selection`` and ``dst_selection``, the selection matrices of
    ``a_hat.indices`` and ``att_dst``.
    """

    def __init__(self, g: HybridGraph):
        self.graph = g

    def __getattr__(self, name):
        """Build the group that holds ``name``; later reads find it in ``__dict__``."""
        if name not in _BUILDERS:
            raise AttributeError(f"'GraphTensors' object has no attribute {name!r}")
        vars(self).update(_BUILDERS[name](self))
        return vars(self)[name]

    @property
    def hyper_prop(self) -> sp.csr_matrix:
        """The clique-expanded ``D_v⁻¹ H W D_e⁻¹ Hᵀ``, whose nnz grows with Σ|e|².

        No layer reads it; the benchmark tracer reports its nnz.
        """
        return (self.hyper_scatter @ self.hyper_gather).tocsr()


def build_graph_tensors(g: HybridGraph) -> GraphTensors:
    """Check ``g`` and return its ``GraphTensors``, which build their structures on demand."""
    g.require_valid()
    return GraphTensors(g)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


def _additive_scores(s_a: ad.Tensor, a: np.ndarray, s_b: ad.Tensor,
                     b: np.ndarray) -> ad.Tensor:
    """The pair scores ``LeakyReLU(s_a[a] + s_b[b])`` of GAT and hyperatten."""
    return ad.leaky_relu(ad.add(ad.take_rows(s_a, a), ad.take_rows(s_b, b)), LEAKY_SLOPE)


def _attend(scores: ad.Tensor, h: ad.Tensor, pattern: sp.csr_matrix,
            rows: np.ndarray) -> ad.Tensor:
    """Softmax ``scores`` within each of ``pattern``'s rows, then mix ``h``'s rows by them."""
    alpha = ad.segment_softmax(scores, rows, pattern.shape[0])
    return ad.edge_mix(alpha, h, pattern, rows)


class GCNLayer:
    """Symmetric-normalized convolution with self-loops."""

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta = ad.Tensor(glorot(rng, d_in, d_out))

    def params(self):
        return [self.theta]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        return ad.matmul(gt.a_hat, ad.matmul(x, self.theta), lambda: gt.a_hat)


class SAGELayer:
    """Separate self and mean-of-neighbors transforms, summed."""

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta_self = ad.Tensor(glorot(rng, d_in, d_out))
        self.theta_nbr = ad.Tensor(glorot(rng, d_in, d_out))

    def params(self):
        return [self.theta_self, self.theta_nbr]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        own = ad.matmul(x, self.theta_self)
        nbr = ad.matmul(gt.mean_adj, ad.matmul(x, self.theta_nbr), lambda: gt.mean_adj_t)
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
        src, dst = gt.a_hat.indices, gt.att_dst
        return _attend(_additive_scores(s_src, src, s_dst, dst), h, gt.a_hat, dst)


class GATv2Layer:
    """Attention with the nonlinearity inside the score, fixing static ranking.

    The score ``aᵀ LeakyReLU(h_l[src] + h_r[dst])`` is one blocked op,
    ``autodiff.gatv2_scores``: its forward keeps no (pairs, d) array and
    its backward needs one.
    """

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta_l = ad.Tensor(glorot(rng, d_in, d_out))
        self.theta_r = ad.Tensor(glorot(rng, d_in, d_out))
        self.a = ad.Tensor(glorot(rng, d_out, 1, shape=(d_out, 1)))

    def params(self):
        return [self.theta_l, self.theta_r, self.a]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        h_l = ad.matmul(x, self.theta_l)
        h_r = ad.matmul(x, self.theta_r)
        src, dst = gt.a_hat.indices, gt.att_dst
        scores = ad.gatv2_scores(h_l, h_r, self.a, src, dst, LEAKY_SLOPE,
                                 lambda: (gt.src_selection, gt.dst_selection))
        return _attend(scores, h_l, gt.a_hat, dst)


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
        z = ad.matmul(gt.hyper_gather, h, lambda: gt.hyper_gather_t)
        return ad.matmul(gt.hyper_scatter, z, lambda: gt.hyper_scatter_t)


class HyperAttenLayer:
    """Attention from nodes over their incident hyperedges.

    Hyperedge messages are sums of transformed member rows; per-incidence
    scores add the log hyperedge weight before the segment softmax, which
    reproduces weighted normalized mixing exactly.  The (node, hyperedge)
    pairs are ``hyper_scatter``'s structure, node by node with hyperedges
    ascending, so the order in which members are listed changes no bit.
    """

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta = ad.Tensor(glorot(rng, d_in, d_out))
        self.a_node = ad.Tensor(glorot(rng, d_out, 1, shape=(d_out, 1)))
        self.a_edge = ad.Tensor(glorot(rng, d_out, 1, shape=(d_out, 1)))

    def params(self):
        return [self.theta, self.a_node, self.a_edge]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        h = ad.matmul(x, self.theta)
        z = ad.matmul(gt.incidence_t, h, lambda: gt.incidence)
        s_node = ad.matmul(h, self.a_node)
        s_edge = ad.matmul(z, self.a_edge)
        node, edge = gt.inc_node, gt.hyper_scatter.indices
        raw = _additive_scores(s_node, node, s_edge, edge)
        scores = ad.add(raw, gt.log_weights[edge].reshape(-1, 1))
        return _attend(scores, z, gt.hyper_scatter, node)


LAYER_TYPES = {
    "gcn": GCNLayer,
    "sage": SAGELayer,
    "gat": GATLayer,
    "gatv2": GATv2Layer,
    "hyperconv": HyperConvLayer,
    "hyperatten": HyperAttenLayer,
}
