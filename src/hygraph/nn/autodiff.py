"""Reverse-mode automatic differentiation over a small, closed op set.

Values are float64 ndarrays wrapped in :class:`Tensor`; constants (including
scipy sparse matrices on the left of ``matmul``) pass through unchanged and
receive no gradient.  Every op builds the graph eagerly and stores a closure
that pushes the output gradient to its tensor parents; ``Tensor.backward``
walks the graph once in reverse topological order and consumes it as it
goes: once a node's closure has run, its gradient, parents and closure are
dropped, so each activation and gradient is freed as soon as the walk has
passed every node that reads it.  Only leaves (the parameters: node
features enter as constants) keep their gradients.  A training step
therefore holds one tape, its own: the previous step's ``out`` and
``loss``, still bound while the next forward runs, hold only their values.
Each closure keeps only what its backward reads (``add`` keeps its
operands' shapes, ``dropout`` its bool mask, ``additive_scores`` the bool
sign of each pair's pre-activation).

The op set holds what the layers and losses use: linear maps (``matmul``,
``add``, ``concat``, ``take_rows``, ``edge_mix``), ``relu``, the attention
layers' fused pair scores (``additive_scores`` for GAT and hyperatten,
``gatv2_scores`` for GATv2), normalizers (``log_softmax``,
``segment_softmax``) and masked ``dropout``, plus ``mean``, the reduction
every gradient check ends in.  No layer calls ``leaky_relu`` any more; it
stays because the benchmark tracer wraps it by name and the test oracles
build the chains the fused score ops replace from it.  ``take_rows``
gathers the loss rows alone, unique and ascending, and places their
gradient.  The other scatters add each row's terms in pair order from
zero, as a loop over the pairs would: ``additive_scores``' through
``np.bincount``, ``gatv2_scores``' through 0/1 selection matrices, and
``edge_mix``'s through a CSR matrix whose fixed pattern holds the pairs,
row by row, and whose data is the per-pair coefficients.  Every gradient
stays a hand-derivable expression checked by finite differences.

This module builds no graph operator; the layers build each once per graph
and hand it in: the selection matrices, and the adjoint of ``matmul``'s
sparse left operand, ``a.T.tocsr()``, a CSR with sorted indices that adds
each output row's terms in the order the CSC product of ``a.T`` does.

Inside ``no_grad()`` every op computes the same values but records no
tape: its output keeps no parents and no backward closure, so nothing
the forward made outlives the values it returns.  Evaluation runs there.
"""

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Tensor",
    "add",
    "additive_scores",
    "concat",
    "dropout",
    "edge_mix",
    "gatv2_scores",
    "leaky_relu",
    "log_softmax",
    "matmul",
    "mean",
    "no_grad",
    "random_mask",
    "relu",
    "segment_softmax",
    "take_rows",
]


_recording = True  # False inside ``no_grad()``


@contextmanager
def no_grad():
    """Record no tape inside the block; the previous state returns on exit,
    also when the block raises."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A node in the autodiff graph: a float64 array plus backward closure."""

    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents, self._backward = (parents, backward) if _recording else ((), None)
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        """Push gradients from this scalar root to every leaf, consuming the tape.

        The walk pops each node off the topological order, runs its closure,
        then drops the node's gradient, parents and closure, so activations
        and gradients are freed as the walk passes them.  Leaves (tensors
        with no closure: the parameters) keep their gradients.  A walked
        root has no tape left, so a second ``backward`` adds nothing.
        """
        if self.value.size != 1:
            raise ValueError("backward requires a scalar root")
        self.grad = np.ones_like(self.value)
        order = _topological(self)
        while order:
            t = order.pop()
            if t._backward is None:
                continue
            if t.grad is not None:
                t._backward(t.grad)
            t.grad, t.parents, t._backward = None, (), None


def _topological(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # No op writes into a gradient in place, so the first one can be kept
    # as is (even when another tensor holds the same array).
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def matmul(a, b, adjoint=None) -> Tensor:
    """Matrix product with a dense ``b``; ``a`` may be a constant sparse matrix.

    ``adjoint``, for such an ``a``, is ``a``'s adjoint as a CSR with sorted
    indices, built once by its owner; the backward then takes no ``a.T``,
    whose product adds in the same order.
    """
    a_is_t = isinstance(a, Tensor)
    b_is_t = isinstance(b, Tensor)
    av = a.value if a_is_t else a
    bv = b.value if b_is_t else b
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def backward(g):
        if a_is_t:
            _accumulate(a, g @ bv.T)
        if b_is_t:
            _accumulate(b, (av.T if adjoint is None else adjoint) @ g)

    return Tensor(av @ bv, parents, backward)


def add(a, b) -> Tensor:
    a_is_t = isinstance(a, Tensor)
    b_is_t = isinstance(b, Tensor)
    av = a.value if a_is_t else np.asarray(a, dtype=np.float64)
    bv = b.value if b_is_t else np.asarray(b, dtype=np.float64)
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))
    a_shape, b_shape = av.shape, bv.shape  # all the backward reads of the operands

    def backward(g):
        if a_is_t:
            _accumulate(a, _unbroadcast(g, a_shape))
        if b_is_t:
            _accumulate(b, _unbroadcast(g, b_shape))

    return Tensor(av + bv, parents, backward)


def mean(a: Tensor) -> Tensor:
    size = a.value.size

    def backward(g):
        _accumulate(a, np.full_like(a.value, float(g) / size))

    return Tensor(a.value.mean(), (a,), backward)


def concat(tensors, axis: int = 1) -> Tensor:
    values = [t.value for t in tensors]
    sizes = [v.shape[axis] for v in values]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return Tensor(np.concatenate(values, axis=axis), tuple(tensors), backward)


def relu(a: Tensor) -> Tensor:
    """``max(a, 0)``; NaN stays NaN."""
    av = a.value

    def backward(g):
        _accumulate(a, g * (av > 0))

    return Tensor(np.maximum(av, 0.0), (a,), backward)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    """``a`` where positive, else ``slope * a``; needs ``0 < slope < 1``.

    For such a slope that is ``max(a, slope * a)``, signed zeros and
    infinities included, and the derivative is ``pos * (1 - slope) + slope``.
    """
    av = a.value

    def backward(g):
        _accumulate(a, g * _leaky_slopes(av > 0, slope))

    return Tensor(np.maximum(av, slope * av), (a,), backward)


def _leaky_slopes(pos: np.ndarray, slope: float) -> np.ndarray:
    """1.0 where ``pos``, else ``slope``, both exact for ``0 < slope < 1``."""
    out = pos * (1.0 - slope)
    out += slope
    return out


def additive_scores(s_a: Tensor, a, s_b: Tensor, b, slope: float, bias=None) -> Tensor:
    """Pair scores ``LeakyReLU(s_a[a] + s_b[b])``, plus a constant ``bias`` after it.

    GAT's and hyperatten's scores, shape (pairs, 1) from one-column ``s_a``
    and ``s_b``.  Bit for bit the chain ``add(leaky_relu(add(s_a[a], s_b[b]),
    slope), bias)`` whose gathers scatter-add in pair order, but the tape
    keeps one bool per pair, the pre-activation's sign, where the chain keeps
    four or five float64 arrays.  The backward scales ``g`` by LeakyReLU's
    slopes and scatters it to ``s_a``, then to ``s_b`` (``_scatter_column``).
    """
    a, b = np.asarray(a), np.asarray(b)
    z = np.take(s_a.value, a, axis=0)
    z += np.take(s_b.value, b, axis=0)
    pos = z > 0
    out = np.maximum(z, slope * z, out=z)
    if bias is not None:
        out += bias

    def backward(g):
        g_pre = _leaky_slopes(pos, slope)
        g_pre *= g
        _accumulate(s_a, _scatter_column(a, g_pre, s_a.value.shape))
        _accumulate(s_b, _scatter_column(b, g_pre, s_b.value.shape))

    return Tensor(out, (s_a, s_b), backward)


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_value = shifted - log_z

    def backward(g):
        _accumulate(a, g - np.exp(out_value) * g.sum(axis=-1, keepdims=True))

    return Tensor(out_value, (a,), backward)


def segment_softmax(scores: Tensor, segments, num_segments: int) -> Tensor:
    """Softmax within groups of entries sharing a segment id.

    ``scores`` is (k,) or (k, 1); ``segments`` gives each entry's group.
    Groups never mix, so the gradient is the per-segment softmax Jacobian.
    Segment sums are ``np.bincount``, which adds in entry order.
    """
    seg = np.asarray(segments)
    s = scores.value.reshape(-1)
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, seg, s)
    e = np.exp(s - seg_max[seg])
    denom = np.bincount(seg, weights=e, minlength=num_segments)
    flat = e / denom[seg]
    out_value = flat.reshape(scores.value.shape)

    def backward(g):
        gv = g.reshape(-1)
        seg_dot = np.bincount(seg, weights=gv * flat, minlength=num_segments)
        _accumulate(scores, (flat * (gv - seg_dot[seg])).reshape(scores.value.shape))

    return Tensor(out_value, (scores,), backward)


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather the loss rows, which must be unique and ascending.

    The backward places ``g`` at those rows of zeros, then ``+ 0.0`` turns
    -0.0 into +0.0 as a selection product's ``0.0 + 1.0·x`` does, so the
    gradient equals that product bit for bit.
    """
    rows = np.asarray(idx)
    if not (rows[1:] > rows[:-1]).all():
        raise ValueError("take_rows gathers unique ascending rows; got repeated or unsorted rows")

    def backward(g):
        ga = np.zeros(a.value.shape)
        ga[rows] = g
        ga += 0.0
        _accumulate(a, ga)

    return Tensor(np.take(a.value, rows, axis=0), (a,), backward)


def _scatter_column(rows: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """One-column ``g`` added at ``rows`` of zeros of ``shape``: ``np.bincount``
    adds in pair order, from zero, as a selection product does."""
    return np.bincount(rows, weights=g.ravel(), minlength=shape[0]).reshape(shape)


def edge_mix(alpha: Tensor, h: Tensor, pattern: sp.csr_matrix, rows) -> Tensor:
    """Weighted gather-scatter: ``out[i] = sum over pairs (i, j) of alpha * h[j]``.

    The workhorse of attention layers.  ``pattern`` is a CSR matrix of shape
    (output rows, rows of ``h``) whose stored entries are the pairs (edges,
    or node-hyperedge incidences); only its structure is read.  ``rows`` is
    each stored pair's row, the expansion of ``pattern.indptr`` that
    ``GraphTensors`` keeps.  ``alpha`` holds one coefficient per pair, in
    the pattern's storage order, and becomes the data of the mixing matrix
    ``A``: the forward pass is ``A @ h``, the gradient of ``h`` is
    ``A.T @ g``, and the gradient of a pair's coefficient is the dot product
    of its output row of ``g`` with its row of ``h``.
    """
    av = alpha.value.reshape(-1)
    mixing = sp.csr_matrix((av, pattern.indices, pattern.indptr), shape=pattern.shape)
    # ``h`` usually feeds ``alpha`` too.  Its gradient from here passes
    # through ``source``, which the reverse walk reaches only after alpha's
    # ancestors, so it is added to h's other gradients last: the order a
    # gather of h's rows feeding this op would give, kept bit for bit.
    source = Tensor(h.value, (h,), lambda g: _accumulate(h, g))

    def backward(g):
        _accumulate(source, mixing.T @ g)
        dots = _pair_dots(g, h.value, rows, pattern.indices)
        _accumulate(alpha, dots.reshape(alpha.value.shape))

    return Tensor(mixing @ h.value, (alpha, source), backward)


_PAIR_BLOCK = 2048


def _pair_dots(a: np.ndarray, b: np.ndarray, rows, cols) -> np.ndarray:
    """``(a[rows] * b[cols]).sum(axis=1)``, in blocks of pairs that stay in cache.

    Each row's sum is the same reduction as on the whole array, so the
    result is identical; the blocks only avoid two (pairs, d) temporaries.
    """
    out = np.empty(len(rows))
    for start in range(0, len(rows), _PAIR_BLOCK):
        stop = start + _PAIR_BLOCK
        prod = np.take(a, rows[start:stop], axis=0)
        prod *= np.take(b, cols[start:stop], axis=0)
        prod.sum(axis=1, out=out[start:stop])
    return out


def gatv2_scores(h_l: Tensor, h_r: Tensor, a: Tensor, src, dst, slope: float,
                 selections) -> Tensor:
    """GATv2's pair scores ``LeakyReLU(h_l[src] + h_r[dst]) @ a``, shape (pairs, 1).

    Bit for bit the chain ``matmul(leaky_relu(add(h_l[src], h_r[dst]), slope),
    a)`` (Brody et al., arXiv:2105.14491), gathers as in ``additive_scores``, but
    the forward works in blocks of ``_PAIR_BLOCK`` pairs and keeps no
    (pairs, d) array.  The backward rebuilds the activations, block by
    block, in one (pairs, d) buffer and gives ``a`` its gradient as the
    chain's single product over that buffer (per-block products would add
    in another order).  It then overwrites each block with ``(g aᵀ)`` times
    LeakyReLU's slopes, in that order, and scatters the buffer to ``h_l``
    and ``h_r`` in pair order through ``selections``, the 0/1 selection
    matrices of ``src`` and ``dst`` that ``layers.GraphTensors`` stores.

    One caveat on the bits: where OpenBLAS threads the chain's full
    matrix-vector product, the row at a thread boundary can be summed in
    another order at widths of about 40 and more, so there the chain's
    scores hang on the thread count and the blocks' can differ from them.
    """
    src, dst = np.asarray(src), np.asarray(dst)
    k, d = src.size, h_l.value.shape[1]
    hl, hr, av = h_l.value, h_r.value, a.value

    # numpy takes a one-row matrix-vector product as a dot product, whose
    # sums can differ from the full product's, so a last block of one pair
    # joins the block before it.
    starts = list(range(0, k, _PAIR_BLOCK))
    if k > 1 and k % _PAIR_BLOCK == 1:
        starts.pop()
    blocks = list(zip(starts, starts[1:] + [k]))

    def activations(start, stop):
        z = np.take(hl, src[start:stop], axis=0)
        z += np.take(hr, dst[start:stop], axis=0)
        return np.maximum(z, slope * z, out=z)

    def backward(g):
        buf = np.empty((k, d))
        for start, stop in blocks:
            buf[start:stop] = activations(start, stop)
        _accumulate(a, buf.T @ g)
        for start, stop in blocks:
            block = buf[start:stop]
            slopes = _leaky_slopes(block > 0, slope)
            np.multiply(g[start:stop], av.T, out=block)
            block *= slopes
        by_src, by_dst = selections
        _accumulate(h_l, by_src @ buf)
        _accumulate(h_r, by_dst @ buf)

    scores = np.empty((k, 1))
    for start, stop in blocks:
        scores[start:stop] = activations(start, stop) @ av
    return Tensor(scores, (h_l, h_r, a), backward)


def dropout(a: Tensor, mask: np.ndarray, keep: float) -> Tensor:
    """Masked inverted dropout: ``a * (mask / keep)``, with a caller-supplied mask.

    Taking the mask as data keeps the op a fixed linear map, so finite
    differences can check it like everything else; drawing the mask from an
    rng is the caller's job (see ``random_mask``).  The op keeps ``mask``
    as given (a bool mask costs a byte an entry) and forms ``mask / keep``
    in the forward and again in the backward: a bool divided by ``keep``
    has the same bits as a 0/1 float divided by ``keep``.
    """

    def backward(g):
        _accumulate(a, g * (mask / keep))

    return Tensor(a.value * (mask / keep), (a,), backward)


def random_mask(rng: np.random.Generator, shape, drop: float) -> np.ndarray:
    """A bool keep-mask where each entry survives with probability 1 - drop."""
    return rng.random(shape) >= drop
