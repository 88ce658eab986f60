"""Reverse-mode automatic differentiation over a small, closed op set.

Values are float64 ndarrays wrapped in :class:`Tensor`; constants (including
scipy sparse matrices on the left of ``matmul``) pass through unchanged and
receive no gradient.  Every op builds the graph eagerly and stores a closure
that pushes the output gradient to its tensor parents; ``Tensor.backward``
walks the graph once in reverse topological order.

The op set holds only what the layers and losses use: linear maps
(``matmul``, ``add``, ``concat``, ``take_rows``, ``edge_mix``), pointwise
nonlinearities (``relu``, ``leaky_relu``), normalizers (``log_softmax``,
``segment_softmax``) and masked ``dropout``, plus ``mean``, the reduction
every gradient check ends in.  Gathers and scatters are linear maps too:
``take_rows`` scatters its gradient back through a 0/1 selection matrix,
and ``edge_mix`` is a sparse matrix whose fixed pattern holds the pairs and
whose data is the per-pair coefficients.  Both are applied as scipy sparse
products.  Such a product adds each output row's terms in storage order,
starting from zero, so its floats equal those of a loop that adds the pairs
one by one in that order; and every gradient stays a hand-derivable
expression checked by finite differences.
"""

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Tensor",
    "add",
    "concat",
    "dropout",
    "edge_mix",
    "leaky_relu",
    "log_softmax",
    "matmul",
    "mean",
    "random_mask",
    "relu",
    "segment_softmax",
    "take_rows",
]


class Tensor:
    """A node in the autodiff graph: a float64 array plus backward closure."""

    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self._backward = backward
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        if self.value.size != 1:
            raise ValueError("backward requires a scalar root")
        self.grad = np.ones_like(self.value)
        for t in reversed(_topological(self)):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)


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


def matmul(a, b) -> Tensor:
    """Matrix product with a dense ``b``; ``a`` may be a constant sparse matrix."""
    a_is_t = isinstance(a, Tensor)
    b_is_t = isinstance(b, Tensor)
    av = a.value if a_is_t else a
    bv = b.value if b_is_t else b
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def backward(g):
        if a_is_t:
            _accumulate(a, g @ bv.T)
        if b_is_t:
            _accumulate(b, av.T @ g)

    return Tensor(av @ bv, parents, backward)


def add(a, b) -> Tensor:
    a_is_t = isinstance(a, Tensor)
    b_is_t = isinstance(b, Tensor)
    av = a.value if a_is_t else np.asarray(a, dtype=np.float64)
    bv = b.value if b_is_t else np.asarray(b, dtype=np.float64)
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def backward(g):
        if a_is_t:
            _accumulate(a, _unbroadcast(g, av.shape))
        if b_is_t:
            _accumulate(b, _unbroadcast(g, bv.shape))

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
    mask = a.value > 0

    def backward(g):
        _accumulate(a, g * mask)

    return Tensor(np.where(mask, a.value, 0.0), (a,), backward)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    pos = a.value > 0

    def backward(g):
        _accumulate(a, g * np.where(pos, 1.0, slope))

    return Tensor(np.where(pos, a.value, slope * a.value), (a,), backward)


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
    """Gather rows; the transpose scatter-adds, so repeats accumulate."""
    rows = np.asarray(idx)

    def backward(g):
        k = rows.size
        select = sp.csr_matrix(
            (np.ones(k), (rows, np.arange(k))), shape=(a.value.shape[0], k)
        )
        _accumulate(a, select @ g)

    return Tensor(np.take(a.value, rows, axis=0), (a,), backward)


def edge_mix(alpha: Tensor, h: Tensor, pattern) -> Tensor:
    """Weighted gather-scatter: ``out[i] = sum over pairs (i, j) of alpha * h[j]``.

    The workhorse of attention layers.  ``pattern`` is a CSR or CSC matrix of
    shape (output rows, rows of ``h``) whose stored entries are the pairs
    (edges, or node-hyperedge incidences); only its structure is read.
    ``alpha`` holds one coefficient per pair, in the pattern's storage
    order, and becomes the data of the mixing matrix ``A``: the forward pass
    is ``A @ h``, the gradient of ``h`` is ``A.T @ g``, and the gradient of a
    pair's coefficient is the dot product of its output row of ``g`` with
    its row of ``h``.
    """
    av = alpha.value.reshape(-1)
    mixing = type(pattern)((av, pattern.indices, pattern.indptr), shape=pattern.shape)
    # ``h`` usually feeds ``alpha`` too.  Its gradient from here passes
    # through ``source``, which the reverse walk reaches only after alpha's
    # ancestors, so it is added to h's other gradients last: the order a
    # gather of h's rows feeding this op would give, kept bit for bit.
    source = Tensor(h.value, (h,), lambda g: _accumulate(h, g))

    def backward(g):
        _accumulate(source, mixing.T @ g)
        pairs = pattern.tocoo()
        dots = _pair_dots(g, h.value, pairs.row, pairs.col)
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


def dropout(a: Tensor, mask: np.ndarray, keep: float) -> Tensor:
    """Masked inverted dropout with a caller-supplied 0/1 mask.

    Taking the mask as data keeps the op a fixed linear map, so finite
    differences can check it like everything else; drawing the mask from an
    rng is the caller's job (see ``random_mask``).
    """
    scale = mask / keep

    def backward(g):
        _accumulate(a, g * scale)

    return Tensor(a.value * scale, (a,), backward)


def random_mask(rng: np.random.Generator, shape, drop: float) -> np.ndarray:
    """A 0/1 keep-mask where each entry survives with probability 1 - drop."""
    return (rng.random(shape) >= drop).astype(np.float64)
