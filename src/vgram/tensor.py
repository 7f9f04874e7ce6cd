"""Minimal reverse-mode autodiff over numpy, double precision throughout.

A Tensor wraps an ndarray and records the operation that produced it;
``backward`` replays the tape in reverse topological order. The op set
is the small closed set the model needs: arithmetic with broadcasting,
matmul (with leading batch dims), logsumexp/log-softmax, gather and
fancy indexing, concat/stack, reductions, relu, and ``max_similarity``
(each row's best dot product per image, over the images' node rows
laid one after another, with a sparse argmax backward, for the
contrastive loss). ``max_similarity`` scores the rows in blocks that
fit the cache, one matmul per block against all images of one node
count. Every gather (``getitem``) scatters its gradient back
with ``bincount``: one over the flat cells it read, or, when it selects
whole rows, one per column over the rows it read.

Two fused ops stand for chains that would otherwise keep several
copies of the largest rows on the tape, with the same numbers bit for
bit: ``pair_mlp`` (two gathers, their concat and a two-layer ``mlp``)
keeps only its rectified hidden rows and its output, and gathers its
input rows again in backward; ``l2_normalize`` keeps only its output and
the norms.
Forward results are checked finite after every op, so a NaN trips
immediately at its source instead of three modules later; the error
names the op that made it.

Gradient ownership: backward hands one array, or views of it, to
several tensors (``add`` of equal shapes gives both operands the same
array; ``reshape``, ``swapaxes``, ``stack`` and ``concat`` pass views),
and a tensor keeps the first gradient it gets without a copy unless it
is a strided view. So no gradient array is ever written in place: later
contributions and clipping make new arrays, and a caller's seed passed
to ``backward`` is never written.
Interior gradients are dropped as soon as backward has propagated them;
leaves (parameters) keep theirs and accumulate over backward calls
until ``ParameterStore.zero_grad``.

The tape lives until backward has passed it, not until the loss is
dropped. Backward consumes each interior node once its backward has
run: the node lets go of its closure and parents, so every forward
array is freed as soon as the last backward that reads it is done,
while the caller still holds the loss. A consumed tensor keeps its
value, but a later backward that reaches it raises ``RuntimeError``
naming its op; one graph takes one backward.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

# float64 scores ``max_similarity`` holds at once: 2 MiB, one core's L2
_SCORE_BLOCK = 1 << 18


def _as_array(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x.astype(np.float64, copy=False)
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _op_name(backward: Callable) -> str:
    """The op whose ``backward`` closure this is."""
    return backward.__qualname__.partition(".")[0]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_spent")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Optional[Callable] = None):
        self.data = _as_array(data)
        if not np.isfinite(self.data).all():
            raise FloatingPointError("non-finite values in tensor")
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self._spent: Optional[str] = None   # the op, once a backward consumed it

    # -- introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    # -- autodiff -----------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        if not self.requires_grad:
            raise ValueError("backward on a tensor detached from all parameters")
        if grad is None:
            if self.size != 1:
                raise ValueError("backward without a gradient needs a scalar loss")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._spent:
                raise RuntimeError(f"backward reached the output of {node._spent}, "
                                   f"whose tape an earlier backward consumed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            if node._parents:   # stale if an earlier backward was interrupted
                node.grad = None
        self.grad = grad
        # taken off the list one at a time, so a node nothing else holds
        # is freed, with its value and closure, once its backward has run
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:   # consumed: only leaves keep a gradient
                node.grad = None
                node._spent = _op_name(node._backward)
                node._parents, node._backward = (), None

    def accumulate(self, grad: np.ndarray) -> None:
        # ``grad`` may be shared with other tensors, so it is kept, never
        # written. A strided view is copied to C order: numpy reduces a
        # strided array in another order, which moves gradients' last bits.
        if self.grad is None:
            self.grad = np.asarray(grad, order="C")
        else:
            self.grad = np.add(self.grad, grad, order="C")

    # -- operators ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward) -> Tensor:
    """The tape tensor an op made; non-finite ``data`` raises naming the
    op, the function whose ``backward`` closure this is."""
    try:
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    except FloatingPointError:
        raise FloatingPointError(f"non-finite values from {_op_name(backward)}") from None


# -- elementwise ------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(out_data, (a, b), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * mask)

    return _make(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(np.minimum(a.data, 700.0))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * out_data)

    return _make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g / a.data)

    return _make(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * 0.5 / out_data)

    return _make(out_data, (a,), backward)


# -- linear algebra ---------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad and b.ndim == 2 < a.ndim:
            # a batched x @ W: one GEMM over the flattened batch rows, not
            # a (B, K, N) stack of per-batch gradients summed afterwards
            b.accumulate(np.matmul(a.data.reshape(-1, a.shape[-1]).T,
                                   g.reshape(-1, g.shape[-1])))
        elif b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accumulate(_unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), backward)


# -- shape ------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.shape))

    return _make(out_data, (a,), backward)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out_data = np.swapaxes(a.data, ax1, ax2)

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.swapaxes(g, ax1, ax2))

    return _make(out_data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, s in zip(tensors, sizes):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + s)
                t.accumulate(g[tuple(idx)])
            offset += s

    return _make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        parts = np.moveaxis(g, axis, 0)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t.accumulate(part)

    return _make(out_data, tensors, backward)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out_data = a.data[key]
    if np.isscalar(out_data) or out_data.ndim == 0:
        out_data = np.asarray(out_data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_scatter_add(a.shape, key, g))

    return _make(out_data, (a,), backward)


def _scatter_add(shape: tuple[int, ...], key, g: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` with ``g`` summed in at ``key``, each cell in
    gather order: ``np.add.at``'s result, as one ``bincount`` over the
    flat cells the key selects. A key that leaves the last axis whole
    selects rows: it indexes the rows only and runs one ``bincount`` per
    column, so no index or copy the size of ``g`` is made."""
    if _rows_only(key, len(shape)) and shape[-1]:
        rows = math.prod(shape[:-1])
        picked = np.arange(rows).reshape(shape[:-1])[key].ravel()
        cols = g.reshape(-1, shape[-1])
        out = np.empty((rows, shape[-1]))
        for k in range(shape[-1]):
            out[:, k] = np.bincount(picked, cols[:, k], minlength=rows)
        return out.reshape(shape)
    size = math.prod(shape)
    cells = np.arange(size).reshape(shape)[key]
    # bincount of an empty selection is int64, whatever the weights
    return np.bincount(np.ravel(cells), np.ravel(g), minlength=size).astype(
        np.float64, copy=False).reshape(shape)


def _rows_only(key, ndim: int) -> bool:
    """Whether ``key`` indexes only leading axes of an ``ndim``-axis array:
    no ``None`` or ``...``, and fewer axes consumed than it has."""
    parts = key if isinstance(key, tuple) else (key,)
    consumed = 0
    for part in parts:
        if part is None or part is Ellipsis:
            return False
        if isinstance(part, slice):
            consumed += 1
            continue
        part = np.asarray(part)
        if part.dtype == bool and part.ndim == 0:   # adds an axis, as None does
            return False
        consumed += part.ndim if part.dtype == bool else 1
    return consumed < ndim


def put_at(values, key, shape: tuple[int, ...]) -> Tensor:
    """Scatter values into a zero tensor; each target cell written at most once."""
    values = as_tensor(values)
    out_data = np.zeros(shape)
    out_data[key] = values.data

    def backward(g):
        if values.requires_grad:
            values.accumulate(g[key])

    return _make(out_data, (values,), backward)


# -- reductions -------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            if axis is None:
                a.accumulate(np.broadcast_to(g, a.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a.accumulate(np.broadcast_to(gg, a.shape).copy())

    return _make(out_data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = range(a.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
    denom = math.prod(a.shape[ax] for ax in axes)
    return mul(tsum(a, axis, keepdims), 1.0 / denom)


def tmax(a, axis: int, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient flows to the first maximal entry only."""
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    arg = np.expand_dims(a.data.argmax(axis=axis), axis)

    def backward(g):
        if a.requires_grad:
            grad = np.zeros_like(a.data)
            np.put_along_axis(grad, arg, g if keepdims else np.expand_dims(g, axis),
                              axis=axis)
            a.accumulate(grad)

    return _make(out_data, (a,), backward)


def _row_blocks(count: int, width: int) -> list[slice]:
    """``count`` rows in blocks of about ``_SCORE_BLOCK // width`` rows,
    split evenly so no block is a short ragged tail."""
    parts = -(-count // max(1, _SCORE_BLOCK // width))
    edges = [count * i // parts for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def max_similarity(rows, nodes, counts: Sequence[int]) -> Tensor:
    """Best match per row and image: ``out[r, b] = max_v rows[r] ·
    nodes[v]`` over image b's node rows, shape (R, B).

    ``nodes`` (V, d) holds the images' node rows one after another:
    image b owns ``counts[b]`` rows from ``sum(counts[:b])`` on. Equals
    stacking ``tmax(rows @ block_b.T, axis=-1)`` over the blocks, with
    the same first-maximum ties, up to the rounding of the matmuls: BLAS
    may order a product's terms by its shape, so a score can differ in
    its last bit. The images are grouped by node count; each group's
    node rows sit side by side in one table, and the rows are scored
    against it in blocks of about ``_SCORE_BLOCK`` scores, so no score
    matrix outgrows the cache and each block is reduced while it is
    still warm. The tape keeps only the argmax node rows; backward
    gathers through them block by block and scatters onto the nodes one
    feature column at a time.
    """
    rows, nodes = as_tensor(rows), as_tensor(nodes)
    count, dim = rows.shape
    if not len(counts) or min(counts) < 1 or sum(counts) != nodes.shape[0]:
        raise ValueError(f"node counts {list(counts)} do not fit nodes {nodes.shape}")
    bounds = np.cumsum([0, *counts])
    out_data = np.empty((count, len(counts)))
    args = np.empty((count, len(counts)), dtype=np.intp)
    for v in np.unique(counts):
        # unpadded: each image's scores are a product over its own v rows
        images = np.flatnonzero(np.asarray(counts) == v)
        table = nodes.data[(bounds[images, None] + np.arange(v)).ravel()].T
        for blk in _row_blocks(count, len(images) * v):
            scores = (rows.data[blk] @ table).reshape(-1, len(images), v)
            arg = scores.argmax(axis=-1)   # a NaN is its row's argmax, so it trips below
            out_data[blk, images] = np.take_along_axis(scores, arg[..., None], -1)[..., 0]
            args[blk, images] = bounds[images] + arg

    def backward(g):
        if rows.requires_grad:
            grad = np.empty_like(rows.data)
            for blk in _row_blocks(count, len(counts) * dim):
                grad[blk] = np.einsum("rb,rbk->rk", g[blk], nodes.data[args[blk]])
            rows.accumulate(grad)
        if nodes.requires_grad:
            # scatter-add of the weighted rows onto their argmax nodes, one
            # column at a time over every (row, image) pair: a node belongs
            # to one image, so each cell sums its rows in ascending order
            grad = np.empty(nodes.shape)
            targets = args.ravel()
            for k in range(dim):
                grad[:, k] = np.bincount(targets, (g * rows.data[:, k, None]).ravel(),
                                         minlength=len(grad))
            nodes.accumulate(grad)

    return _make(out_data, (rows, nodes), backward)


def logsumexp(a, axis: int, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_full = m + np.log(total)
    soft = shifted / total

    def backward(g):
        if a.requires_grad:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate(soft * gg)

    out_data = out_full if keepdims else np.squeeze(out_full, axis=axis)
    return _make(out_data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    return add(a, mul(logsumexp(a, axis=axis, keepdims=True), -1.0))


def softmax(a, axis: int = -1) -> Tensor:
    return exp(log_softmax(a, axis))


def l2_normalize(a, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """``a / sqrt(sum(a * a, axis) + eps)`` as one op that keeps its
    output and the norms. Backward replays the arithmetic of the chain
    mul, tsum, add, sqrt, div in its tape's order: ``a`` gets ``g /
    norm`` first, then the two ``a * a`` terms."""
    a = as_tensor(a)
    norm = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True) + eps)
    if not np.isfinite(norm).all():
        raise FloatingPointError("non-finite values from l2_normalize (norm)")
    out_data = a.data / norm

    def backward(g):
        g_norm = _unbroadcast(-g * a.data / (norm * norm), norm.shape)
        square = np.broadcast_to(g_norm * 0.5 / norm, a.shape) * a.data
        # the three terms summed in one fresh buffer, in accumulate's order
        grad = np.divide(g, norm, order="C")
        if a.grad is not None:
            np.add(a.grad, grad, out=grad)
        grad += square
        grad += square
        a.grad = grad

    return _make(out_data, (a,), backward)


# -- layers -----------------------------------------------------------


def fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / math.sqrt(shape[0]) if shape[0] > 0 else 1.0
    return rng.uniform(-bound, bound, shape)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    out = matmul(x, w)
    return add(out, b) if b is not None else out


def mlp(x: Tensor, layers: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """Affine stack with rectifier nonlinearities between layers."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = linear(h, w, b)
        if i + 1 < len(layers):
            h = relu(h)
    return h


def pair_mlp(table, first, second, w1, b1, w2, b2) -> Tensor:
    """``mlp(concat([table[first], table[second]], axis=-1), [(w1, b1),
    (w2, b2)])`` as one op, for keys ``first`` and ``second`` into the
    leading axes of ``table``; shape ``table[first].shape[:-1] + (out,)``.

    The two gathers go straight into one C-order buffer, so the (rows,
    2d) input is a view of it and the layers run the same numpy calls as
    ``mlp``. The tape keeps only the rectified hidden rows and the
    output; backward gathers the input rows again for ``w1``'s gradient.
    Backward replays the unfused chain's arithmetic in its tape's order:
    b2, w2, the relu mask, b1, w1, then ``table``'s two halves, first
    then second.
    """
    table, w1, b1, w2, b2 = (as_tensor(t) for t in (table, w1, b1, w2, b2))
    width = table.shape[-1]

    def gathered() -> np.ndarray:
        left = table.data[first]
        rows = np.empty(left.shape[:-1] + (2 * width,))
        rows[..., :width] = left
        del left
        rows[..., width:] = table.data[second]
        return rows

    rows = gathered()
    lead = rows.shape[:-1]
    pre = np.matmul(rows.reshape(-1, 2 * width), w1.data)
    del rows
    pre += b1.data
    if not np.isfinite(pre).all():
        raise FloatingPointError("non-finite values from pair_mlp (pre-activation)")
    hidden = np.where(pre > 0, pre, 0.0)
    del pre
    out = np.matmul(hidden, w2.data)
    out += b2.data

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        if b2.requires_grad:
            b2.accumulate(_unbroadcast(g, b2.shape))
        if w2.requires_grad:
            w2.accumulate(np.matmul(np.swapaxes(hidden, -1, -2), g))
        g_pre = np.matmul(g, np.swapaxes(w2.data, -1, -2))
        g_pre *= hidden > 0
        if b1.requires_grad:
            b1.accumulate(_unbroadcast(g_pre, b1.shape))
        if w1.requires_grad:
            rows = gathered().reshape(-1, 2 * width)
            w1.accumulate(np.matmul(np.swapaxes(rows, -1, -2), g_pre))
            del rows
        if table.requires_grad:
            g_rows = np.matmul(g_pre, np.swapaxes(w1.data, -1, -2)).reshape(lead + (-1,))
            del g_pre
            table.accumulate(_scatter_add(table.shape, first, g_rows[..., :width]))
            table.accumulate(_scatter_add(table.shape, second, g_rows[..., width:]))

    return _make(out.reshape(lead + out.shape[-1:]), (table, w1, b1, w2, b2), backward)


def attention(query: Tensor, keys: Tensor, values: Tensor,
              mask: Optional[np.ndarray] = None) -> Tensor:
    """Scaled dot-product attention; softmax over the key axis.

    query (..., n, d), keys (..., m, d), values (..., m, dv). A mask of
    shape (..., n, m) holds 0 for valid and a large negative number for
    padded keys.
    """
    d = query.shape[-1]
    logits = mul(matmul(query, swapaxes(keys, -1, -2)), 1.0 / math.sqrt(d))
    if mask is not None:
        logits = add(logits, Tensor(mask))
    weights = softmax(logits, axis=-1)
    return matmul(weights, values)


def biaffine_features(us: Tensor, vs: Tensor, w1: Tensor, w2: Tensor,
                      b: Tensor) -> Tensor:
    """Vector-valued biaffine over all ordered pairs.

    us (B, n, d), vs (B, m, d), w1 (d, k, d), w2 (d, k), b (k,), giving
    features of shape (B, n, m, k): per output channel a bilinear form
    plus a linear term over the pair sum.
    """
    batch, n, d = us.shape
    m = vs.shape[1]
    k = w1.shape[1]
    left = matmul(us, reshape(w1, (d, k * d)))          # (B, n, k*d)
    left = reshape(left, (batch, n * k, d))
    bil = matmul(left, swapaxes(vs, -1, -2))             # (B, n*k, m)
    bil = swapaxes(reshape(bil, (batch, n, k, m)), 2, 3)  # (B, n, m, k)
    lu = reshape(matmul(us, w2), (batch, n, 1, k))
    lv = reshape(matmul(vs, w2), (batch, 1, m, k))
    return add(add(bil, add(lu, lv)), b)


# -- parameters and optimizer ----------------------------------------


class ParameterStore:
    """Named parameter tensors with per-parameter adaptive-moment state.

    Creation order is the iteration order, so a deterministic model
    build yields a deterministic checkpoint layout.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def get(self, name: str, shape: tuple[int, ...],
            init: Callable[[tuple[int, ...]], np.ndarray],
            trainable: bool = True) -> Tensor:
        if name not in self._params:
            data = init(shape)
            if tuple(data.shape) != tuple(shape):
                raise ValueError(f"init for {name} produced shape {data.shape}, wanted {shape}")
            self._params[name] = Tensor(data, requires_grad=trainable)
            self._m[name] = np.zeros(shape)
            self._v[name] = np.zeros(shape)
        t = self._params[name]
        if t.shape != tuple(shape):
            raise ValueError(f"parameter {name} exists with shape {t.shape}, wanted {shape}")
        return t

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def grad_norm(self) -> float:
        total = 0.0
        for t in self._params.values():
            if t.requires_grad and t.grad is not None:
                total += float((t.grad * t.grad).sum())
        return math.sqrt(total)

    def clip_gradients(self, max_norm: float) -> tuple[float, bool]:
        """Scale the gradients to global norm ``max_norm`` when above it
        (0 disables); returns the pre-clip norm and whether it scaled."""
        norm = self.grad_norm()
        clipped = norm > max_norm > 0
        if clipped:
            scale = max_norm / norm
            for t in self._params.values():
                if t.requires_grad and t.grad is not None:
                    t.grad = t.grad * scale
        return norm, clipped

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Replace every parameter's value, or none of them on a mismatch."""
        missing = [name for name in self._params if name not in values]
        unknown = [name for name in values if name not in self._params]
        if missing or unknown:
            raise ValueError(f"checkpoint parameters do not match the model: "
                             f"missing {missing}, unknown {unknown}")
        for name, arr in values.items():
            if self._params[name].shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{self._params[name].shape} vs {arr.shape}")
        for name, arr in values.items():
            self._params[name].data = arr.astype(np.float64)


def adam_step(store: ParameterStore, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Adaptive-moment update with bias correction over all trainable params."""
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in store.items():
        if not p.requires_grad or p.grad is None:
            continue
        g = p.grad
        m = store._m[name]
        v = store._v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# -- checkpoint container ---------------------------------------------

_MAGIC = b"VGCP"
_VERSION = 1


def save_checkpoint(path: str, store: ParameterStore, config_digest: str = "") -> None:
    """Versioned binary container: header then (name, shape, float32 LE data)."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        digest = config_digest.encode("utf-8")
        f.write(struct.pack("<H", len(digest)))
        f.write(digest)
        names = store.names()
        f.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            arr = store[name].data.astype("<f4")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.tobytes())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], str]:
    with open(path, "rb") as f:
        raw = f.read()
    pos = 0

    def take(nbytes: int) -> bytes:
        nonlocal pos
        if pos + nbytes > len(raw):
            raise ValueError(f"{path}: truncated checkpoint")
        pos += nbytes
        return raw[pos - nbytes:pos]

    def unpack(fmt: str) -> int:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

    if take(4) != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    version = unpack("<I")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    digest = take(unpack("<H")).decode("utf-8")
    params: dict[str, np.ndarray] = {}
    for _ in range(unpack("<I")):
        name = take(unpack("<H")).decode("utf-8")
        shape = tuple(unpack("<I") for _ in range(unpack("<B")))
        data = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: non-finite values in parameter {name}")
        params[name] = data.astype(np.float64)
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after the last parameter")
    return params, digest
