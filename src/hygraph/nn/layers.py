"""Message-passing layers over hybrid graphs.

Every layer maps a node feature matrix (n, d_in) to (n, d_out) using
structure held in :class:`GraphTensors`, which builds each group of
structures the first time a layer reads it and then keeps it: a gcn batch
builds ``a_hat`` and nothing else.  Patterns are read off the graph's
indexes, ``adjacency_csr`` and ``member_positions``.  Hypergraph convolution
keeps its two incidence factors, so nothing grows with Σ|e|².  Each sparse
operator has a stored adjoint, its transpose as a CSR with sorted indices,
built on its first backward, that ``autodiff.matmul`` reads in place of ``.T``.

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
    """``a_hat`` and ``att_dst``.  ``a_hat``'s pattern is the neighbour CSR of
    A + I: each node inserted in its ``adjacency_csr`` row after its lower
    neighbours, as a valid graph has no self-loop edge."""
    n = gt.graph.num_nodes
    indptr, indices = gt.graph.adjacency_csr
    row = row_index(indptr)
    lower = np.bincount(row[indices < row], minlength=n)
    src = np.insert(indices, indptr[:-1] + lower, np.arange(n))
    indptr = indptr + np.arange(n + 1)
    dst = row_index(indptr)
    inv_sqrt = 1.0 / np.sqrt(np.diff(indptr))
    return {"a_hat": _csr(inv_sqrt[dst] * inv_sqrt[src], src, indptr, (n, n)), "att_dst": dst}


def _att_selections(gt) -> dict:
    """The 0/1 selection matrices of GATv2's gathers ``a_hat.indices`` and ``att_dst``."""
    n = gt.graph.num_nodes
    return {"src_selection": ad._selection(gt.a_hat.indices, n),
            "dst_selection": ad._selection(gt.att_dst, n)}


def _mean_adj(gt) -> dict:
    """``mean_adj``, each row reversed, as ``diags @ adj`` stores it."""
    indptr, indices = gt.graph.adjacency_csr
    row, entry, n = row_index(indptr), np.arange(indices.size), gt.graph.num_nodes
    reversed_rows = indices[indptr[row] + indptr[row + 1] - 1 - entry]
    return {"mean_adj": _csr(1.0 / np.diff(indptr)[row], reversed_rows, indptr, (n, n))}


def _incidence(gt) -> dict:
    """The incidence group: ``incidence_t`` is ``(members, offsets)``, rows
    sorted, and ``incidence`` the member index, both on one read-only array
    of ones; ``hyper_gather`` and ``hyper_scatter`` sit on their index arrays."""
    g = gt.graph
    n, m = g.num_nodes, g.num_hyperedges
    offsets, edge_of = g.hyperedges.offsets, g.hyperedges.edge_of()
    ones = np.ones(offsets[-1])
    ones.setflags(write=False)
    incidence_t = _csr(ones, g.hyperedges.sorted_members(), offsets, (m, n))
    indptr, positions = g.member_positions
    incidence = _csr(ones, edge_of[positions], indptr, (n, m))
    inc_node = row_index(indptr)
    w = g.hyperedge_weights
    node_mass = incidence @ w
    node_scale = np.divide(1.0, node_mass, out=np.zeros(n), where=node_mass > 0)
    return {"incidence_t": incidence_t, "incidence": incidence,
            "hyper_gather": _csr((w / np.diff(offsets))[edge_of],
                                 incidence_t.indices, incidence_t.indptr, (m, n)),
            "hyper_scatter": _csr(node_scale[inc_node], incidence.indices,
                                  incidence.indptr, (n, m)),
            "inc_node": inc_node, "log_weights": np.log(w)}


def _adjoint(name: str, op: str, pattern: str | None = None):
    """Builds ``name``, ``op``'s adjoint ``op.T.tocsr()``, on the index arrays
    of ``pattern`` if named.  Its sorted indices add each output row in
    ascending original-row order, as the CSC product of ``op.T`` does."""
    def build(gt) -> dict:
        t = getattr(gt, op).T.tocsr()
        if pattern is not None:
            s = getattr(gt, pattern)
            t = _csr(t.data, s.indices, s.indptr, t.shape)
        return {name: t}
    return build


# ``hyper_gather`` sits on ``incidence_t``'s index arrays and ``hyper_scatter``
# on ``incidence``'s, so each one's transpose has the other's pattern.
_BUILDERS = {"a_hat": _attention, "att_dst": _attention, "mean_adj": _mean_adj,
             "src_selection": _att_selections, "dst_selection": _att_selections,
             **dict.fromkeys(("incidence_t", "incidence", "hyper_gather", "hyper_scatter",
                              "inc_node", "log_weights"), _incidence),
             "mean_adj_t": _adjoint("mean_adj_t", "mean_adj"),
             "hyper_gather_t": _adjoint("hyper_gather_t", "hyper_gather", "incidence"),
             "hyper_scatter_t": _adjoint("hyper_scatter_t", "hyper_scatter", "incidence_t")}


class GraphTensors:
    """The structure every layer reads, each group built on its first read.

    Every matrix is CSR.  Each pair list attention reads is a CSR pattern,
    columns ascending in each row, plus an int64 array that holds each
    stored pair's row, the softmax segment; the pattern's ``indices`` hold
    the other end.  The forward structures store each array once, and
    counts come from shapes.

    Groups, each built whole the first time one of its names is read:

    * attention: ``a_hat`` (gcn), ``D̃^-½ (A + I) D̃^-½``, CSR (target,
      source), the neighbour CSR of A + I, so ``D̃`` is its row lengths;
      gat and gatv2 read its structure as their pairs.  ``att_dst`` (gat,
      gatv2): each attention pair's target, the softmax segment.
    * ``mean_adj`` (sage): ``D⁻¹ A``, zero rows for isolated nodes.
    * incidence: ``incidence_t`` (hyperatten), CSR ``Hᵀ``, members
      ascending, and ``incidence``, CSR ``H`` off ``member_positions``, on
      the same read-only ones; ``hyper_gather`` (hyperconv), ``W D_e⁻¹ Hᵀ``,
      and ``hyper_scatter`` (hyperconv), ``D_v⁻¹ H``, on their index arrays
      (hyperatten reads ``hyper_scatter``'s as its (node, hyperedge) pairs);
      ``inc_node`` (hyperatten), each pair's node, the softmax segment;
      ``log_weights`` (hyperatten), ``log w`` per hyperedge.

    Each sparse operator has a stored adjoint, its ``op.T.tocsr()`` (see
    ``_adjoint``), that the layers hand ``autodiff.matmul`` for its
    backward: ``a_hat`` is its own (a symmetric pattern whose values are
    ``inv_sqrt[i] * inv_sqrt[j]``), ``incidence`` is ``incidence_t``'s, and
    ``mean_adj_t``, ``hyper_gather_t`` and ``hyper_scatter_t`` are built on
    first read, the last two on ``incidence``'s and ``incidence_t``'s index
    arrays.  So are GATv2's ``src_selection`` and ``dst_selection``, the
    ``autodiff._selection`` of ``a_hat.indices`` and ``att_dst``.
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
