"""Message-passing layers over hybrid graphs.

Every layer maps a node feature matrix (n, d_in) to (n, d_out) using
structure held in :class:`GraphTensors`, which builds each group of
structures the first time a layer reads it: a gcn batch builds ``a_hat`` and
nothing else.  The groups are kept on the graph, like its ``adjacency_csr``,
so every later trial, model and evaluation on the same graph object builds
nothing, and a sampled batch's groups are freed with its subgraph.  Patterns
are read off the graph's indexes, ``adjacency_csr`` and
``member_positions``.  Hypergraph convolution keeps its two incidence
factors, so nothing grows with Σ|e|².  Each sparse operator's builder also
builds its adjoint, its transpose as a CSR with sorted indices, which the
layers hand ``autodiff.matmul`` to read in place of ``.T``.

Attention never materializes dense score matrices; scores live on the edge
or incidence pair lists and are normalized with a segment softmax over the
pairs' output rows.  Each pair list is a row-major CSR pattern in storage
order, so the attention coefficients become the data of a sparse mixing
matrix with that pattern (``autodiff.edge_mix``): aggregation and its
gradients are sparse products.  The attention patterns, like the incidence
factors, keep their columns ascending in each row; ``incidence_t``'s rows
are the hyperedges' members as the graph stores them, ascending.
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
    """``mean_adj``, each row reversed, as ``diags @ adj`` stores it, and its
    adjoint ``mean_adj_t`` on the rows as ``adjacency_csr`` stores them:
    A is symmetric, so entry (v, u) of the adjoint is u's ``1 / deg``."""
    indptr, indices = gt.graph.adjacency_csr
    row, entry, n = row_index(indptr), np.arange(indices.size), gt.graph.num_nodes
    reversed_rows, deg = indices[indptr[row] + indptr[row + 1] - 1 - entry], np.diff(indptr)
    mean_adj = _csr(1.0 / deg[row], reversed_rows, indptr, (n, n))
    return {"mean_adj": mean_adj,
            "mean_adj_t": _csr(1.0 / deg[indices], indices, mean_adj.indptr, (n, n))}


def _incidence(gt) -> dict:
    """The incidence group: ``incidence_t`` is ``(members, offsets)``, rows
    ascending as stored, and ``incidence`` the member index, both on one
    read-only array of ones, each the other's adjoint."""
    g = gt.graph
    n, m = g.num_nodes, g.num_hyperedges
    ones = np.ones(g.hyperedges.offsets[-1])
    ones.setflags(write=False)
    incidence_t = _csr(ones, g.hyperedges.members, g.hyperedges.offsets, (m, n))
    indptr, positions = g.member_positions
    incidence = _csr(ones, g.hyperedges.edge_of()[positions], indptr, (n, m))
    return {"incidence_t": incidence_t, "incidence": incidence,
            "inc_node": row_index(indptr), "log_weights": np.log(g.hyperedge_weights)}


def _hyperconv(gt) -> dict:
    """HGNN's two factors and their adjoints, each on the index arrays of
    ``incidence_t`` or ``incidence``; a stored entry holds the scale of its
    hyperedge (``W D_e⁻¹``) or of its node (``D_v⁻¹``)."""
    g, inc, inc_t = gt.graph, gt.incidence, gt.incidence_t
    edge_scale = g.hyperedge_weights / np.diff(g.hyperedges.offsets)
    node_mass = inc @ g.hyperedge_weights
    node_scale = np.divide(1.0, node_mass, out=np.zeros(inc.shape[0]), where=node_mass > 0)
    return {name: _csr(scale[ends], on.indices, on.indptr, on.shape) for name, on, scale, ends in (
        ("hyper_gather", inc_t, edge_scale, g.hyperedges.edge_of()),
        ("hyper_scatter", inc, node_scale, gt.inc_node),
        ("hyper_gather_t", inc, edge_scale, inc.indices),
        ("hyper_scatter_t", inc_t, node_scale, inc_t.indices))}


_BUILDERS = {"a_hat": _attention, "att_dst": _attention,
             "src_selection": _att_selections, "dst_selection": _att_selections,
             **dict.fromkeys(("mean_adj", "mean_adj_t"), _mean_adj),
             **dict.fromkeys(("incidence_t", "incidence", "inc_node", "log_weights"), _incidence),
             **dict.fromkeys(("hyper_gather", "hyper_scatter", "hyper_gather_t",
                              "hyper_scatter_t"), _hyperconv)}


def _read_only(group: dict) -> dict:
    """``group`` with every array it holds made read-only, a sparse matrix's
    three included: one stored group serves every later reader of the graph."""
    for value in group.values():
        for a in (value.data, value.indices, value.indptr) if sp.issparse(value) else (value,):
            a.setflags(write=False)
    return group


# The key of a graph's instance dict that holds its built groups, by builder.
# Only arrays and matrices are kept there, never a ``GraphTensors``, so the
# graph and its groups form no reference cycle.
_GROUPS = "graph_tensor_groups"


class _Groups(dict):
    """A graph's built groups.  A cache: a pickled or deep-copied graph
    carries none and builds its own."""

    def __reduce__(self):
        return _Groups, ()


class GraphTensors:
    """The structure every layer reads, each group built on its first read
    of the graph and reused by every ``GraphTensors`` of that graph.

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
    * selections (gatv2): ``src_selection`` and ``dst_selection``, the
      ``autodiff._selection`` of ``a_hat.indices`` and ``att_dst``.
    * ``mean_adj`` (sage): ``D⁻¹ A``, zero rows for isolated nodes.
    * incidence (hyperatten): ``incidence_t``, CSR ``Hᵀ``, members
      ascending, and ``incidence``, CSR ``H`` off ``member_positions``, on
      the same read-only ones; ``incidence``'s structure is hyperatten's
      (node, hyperedge) pairs, ``inc_node`` each pair's node, the softmax
      segment.  ``log_weights``: ``log w`` per hyperedge.
    * hyperconv, off the incidence group: ``hyper_gather``, ``W D_e⁻¹ Hᵀ``,
      on ``incidence_t``'s index arrays, ``hyper_scatter``, ``D_v⁻¹ H``, on
      ``incidence``'s, and their adjoints, each on the other's.

    Each builder builds the adjoints of its sparse operators, their
    ``op.T.tocsr()`` to the bit, which the layers hand ``autodiff.matmul``:
    ``a_hat`` is its own (a symmetric pattern whose values are
    ``inv_sqrt[i] * inv_sqrt[j]``), ``incidence`` is ``incidence_t``'s, and
    ``mean_adj_t``, ``hyper_gather_t`` and ``hyper_scatter_t`` are stored.
    """

    def __init__(self, g: HybridGraph):
        self.graph = g

    def __getattr__(self, name):
        """Copy in the group that holds ``name``, built once per graph and
        kept in the graph's ``_GROUPS`` entry; later reads find it in ``__dict__``."""
        if name not in _BUILDERS:
            raise AttributeError(f"'GraphTensors' object has no attribute {name!r}")
        build, groups = _BUILDERS[name], vars(self.graph).setdefault(_GROUPS, _Groups())
        if build not in groups:
            groups[build] = _read_only(build(self))
        vars(self).update(groups[build])
        return vars(self)[name]

    @property
    def hyper_prop(self) -> sp.csr_matrix:
        """The pattern of the clique expansion ``H Hᵀ``, whose nnz grows with Σ|e|².

        No layer reads it; the benchmark tracer reports its nnz, which is
        that of hyperconv's ``D_v⁻¹ H W D_e⁻¹ Hᵀ``.  It reads the graph's
        stored incidence group, or builds one it keeps nowhere, so reading
        it leaves nothing on a graph whose layers never read that group.
        """
        inc = vars(self.graph).get(_GROUPS, {}).get(_incidence) or _incidence(self)
        return (inc["incidence"] @ inc["incidence_t"]).tocsr()


def build_graph_tensors(g: HybridGraph) -> GraphTensors:
    """Check ``g`` and return its ``GraphTensors``, which build their
    structures on demand, once per graph object."""
    g.require_valid()
    return GraphTensors(g)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


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
        return ad.matmul(gt.a_hat, ad.matmul(x, self.theta), gt.a_hat)


class SAGELayer:
    """Separate self and mean-of-neighbors transforms, summed."""

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta_self = ad.Tensor(glorot(rng, d_in, d_out))
        self.theta_nbr = ad.Tensor(glorot(rng, d_in, d_out))

    def params(self):
        return [self.theta_self, self.theta_nbr]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        own = ad.matmul(x, self.theta_self)
        nbr = ad.matmul(gt.mean_adj, ad.matmul(x, self.theta_nbr), gt.mean_adj_t)
        return ad.add(own, nbr)


class GATLayer:
    """Single-head additive attention over neighbors plus self.

    The pair scores ``LeakyReLU(s_src[src] + s_dst[dst])`` are one op,
    ``autodiff.additive_scores``, whose tape keeps one bool per pair.
    """

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
        scores = ad.additive_scores(s_src, src, s_dst, dst, LEAKY_SLOPE)
        return _attend(scores, h, gt.a_hat, dst)


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
                                 (gt.src_selection, gt.dst_selection))
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
        z = ad.matmul(gt.hyper_gather, h, gt.hyper_gather_t)
        return ad.matmul(gt.hyper_scatter, z, gt.hyper_scatter_t)


class HyperAttenLayer:
    """Attention from nodes over their incident hyperedges.

    Hyperedge messages are sums of transformed member rows; per-incidence
    scores add the log hyperedge weight before the segment softmax, which
    reproduces weighted normalized mixing exactly.  The scores
    ``LeakyReLU(s_node[node] + s_edge[edge]) + log w[edge]`` are one op,
    ``autodiff.additive_scores``, whose tape keeps one bool per pair.  The
    (node, hyperedge) pairs are ``incidence``'s structure, node by node with
    hyperedges ascending, and each hyperedge's message sums its members in
    ascending order, as the graph stores them.
    """

    def __init__(self, d_in: int, d_out: int, rng):
        self.theta = ad.Tensor(glorot(rng, d_in, d_out))
        self.a_node = ad.Tensor(glorot(rng, d_out, 1, shape=(d_out, 1)))
        self.a_edge = ad.Tensor(glorot(rng, d_out, 1, shape=(d_out, 1)))

    def params(self):
        return [self.theta, self.a_node, self.a_edge]

    def forward(self, gt: GraphTensors, x: ad.Tensor) -> ad.Tensor:
        h = ad.matmul(x, self.theta)
        z = ad.matmul(gt.incidence_t, h, gt.incidence)
        s_node = ad.matmul(h, self.a_node)
        s_edge = ad.matmul(z, self.a_edge)
        node, edge = gt.inc_node, gt.incidence.indices
        scores = ad.additive_scores(s_node, node, s_edge, edge, LEAKY_SLOPE,
                                    gt.log_weights[edge].reshape(-1, 1))
        return _attend(scores, z, gt.incidence, node)


LAYER_TYPES = {
    "gcn": GCNLayer,
    "sage": SAGELayer,
    "gat": GATLayer,
    "gatv2": GATv2Layer,
    "hyperconv": HyperConvLayer,
    "hyperatten": HyperAttenLayer,
}
