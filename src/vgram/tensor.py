"""Minimal reverse-mode autodiff over numpy, double precision throughout.

A Tensor wraps an ndarray and records the operation that produced it;
``backward`` replays the tape in reverse topological order. The op set
is the small closed set the model needs: arithmetic with broadcasting,
matmul (with leading batch dims), logsumexp/log-softmax, gather and
fancy indexing, concat/stack, reductions and relu. Every gather
(``getitem``) scatters its gradient back with ``bincount``: one over
the flat cells it read, or, when it selects whole rows, one per column
over the rows it read.

Two fused ops stand for chains that would otherwise keep several
copies of the largest rows on the tape, with the same numbers bit for
bit. What each keeps until backward:

- ``image_contrastive_nll``, the contrastive loss (the contexts'
  concat, the normalization of the rows and of the nodes, each row's
  best cosine per image, the weighting, log-softmax and each row's own
  image): its parts and raw nodes as parents, the row and node norms,
  the unit nodes, the scores (R, B) and their argmax nodes as int32. It
  forms the unit rows block by block, in forward and again in backward,
  and scores them in blocks that fit the cache, one matmul per block
  against all images of one node count. ``unit_rows`` is its
  normalization, which grounding scores with too.
- ``pair_mlp`` (two gathers, their concat and a two-layer ``mlp``): its
  output and its row indices; backward forms the rectified hidden rows
  again.

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

# float64 values a blocked op holds per block: 2 MiB, one core's L2
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

    # -- indexing -----------------------------------------------------

    def __getitem__(self, key):
        return getitem(self, key)


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


def logsumexp_softmax(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp of ``a`` over ``axis``, dims kept, and the softmax
    weights of its entries."""
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = np.exp(a - m)
    total = shifted.sum(axis=axis, keepdims=True)
    return m + np.log(total), shifted / total


def logsumexp(a, axis: int, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_full, soft = logsumexp_softmax(a.data, axis)

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


def _norm(a: np.ndarray) -> np.ndarray:
    """``sqrt(sum(a * a, -1) + 1e-12)``, dims kept."""
    return np.sqrt((a * a).sum(axis=-1, keepdims=True) + 1e-12)


def unit_rows(a: np.ndarray) -> np.ndarray:
    """``a / _norm(a)``: rows as the cosine similarity compares them, in
    training (``image_contrastive_nll``) and in grounding alike."""
    return a / _norm(a)


def _normalized_grad(g: np.ndarray, a: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """The gradient ``a`` gets from ``g`` on ``a / norm``: the arithmetic
    of the chain mul, tsum, add, sqrt, div in its tape's order, ``g /
    norm`` first, then the two ``a * a`` terms, summed in one fresh
    buffer."""
    g_norm = (-g * a / (norm * norm)).sum(axis=-1, keepdims=True)
    square = np.broadcast_to(g_norm * 0.5 / norm, a.shape) * a
    grad = np.divide(g, norm, order="C")
    grad += square
    grad += square
    return grad


# -- the contrastive loss ---------------------------------------------


def _segments(sizes: Sequence[int], lo: int, hi: int):
    """Rows ``lo:hi`` of parts of ``sizes`` rows per image laid side by
    side, image after image: row ``b * sum(sizes) + c``. Yields (part,
    image, its rows in the part, their place in ``lo:hi``)."""
    width = sum(sizes)
    for b in range(lo // width, -(-hi // width)):
        start = b * width
        for i, size in enumerate(sizes):
            first, last = max(lo, start), min(hi, start + size)
            if first < last:
                yield i, b, slice(first - start, last - start), slice(first - lo, last - lo)
            start += size


def _image_max(rows: Callable[[slice], np.ndarray], count: int, nodes: np.ndarray,
               counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Best match per row and image, (count, B), and the node row that
    first attains it: ``max_v rows[r] · nodes[v]`` over image b's node
    rows, ``rows(blk)`` giving the rows of a block.

    The images are grouped by node count; each group's node rows sit
    side by side in one table, and the rows are scored against it in
    blocks of about ``_SCORE_BLOCK`` scores, into one buffer per group,
    so no score matrix outgrows the cache and each block is reduced
    while it is still warm. A NaN is its row's argmax, so it shows in
    the maxima.
    """
    bounds = np.cumsum([0, *counts])
    scores = np.empty((count, len(counts)))
    args = np.empty((count, len(counts)), dtype=np.int32)
    for v in np.unique(counts):
        # unpadded: each image's scores are a product over its own v rows
        images = np.flatnonzero(np.asarray(counts) == v)
        width = len(images) * v
        table = nodes[(bounds[images, None] + np.arange(v)).ravel()].T
        blocks = _row_blocks(count, width)
        most = max((blk.stop - blk.start for blk in blocks), default=0)
        buffer = np.empty((most, width))
        # flat index of each (row, image) run of v scores in the buffer
        base = np.arange(most)[:, None] * width + np.arange(0, width, v)
        for blk in blocks:
            size = blk.stop - blk.start
            block = np.matmul(rows(blk), table, out=buffer[:size])
            arg = block.reshape(size, len(images), v).argmax(axis=-1)
            scores[blk, images] = block.ravel()[base[:size] + arg]
            args[blk, images] = bounds[images] + arg
    return scores, args


def image_contrastive_nll(parts: Sequence, nodes, counts: Sequence[int], weights) -> Tensor:
    """``-1/B * sum_r log_softmax_b(w_r * max_{v in image b} u_r · n_v)[b_r]``,
    the in-batch contrastive loss of context rows against B images, as one op.

    ``parts`` are (B, C_i, d) row tensors read side by side: row r = b *
    C + c, C = sum C_i, is row c of image b's contexts, so its own image
    b_r is b. ``u_r`` is row r and ``n_v`` node row v, each L2-normalized
    by ``unit_rows``' arithmetic, so every score is a cosine; ``weights``
    (B, C) holds each row's w_r. ``nodes`` (V, d) holds the images' raw
    node rows one after another: image b owns ``counts[b]`` rows from
    ``sum(counts[:b])`` on.

    Equal bit for bit to the chain concat, reshape, the L2 normalization
    of the rows and of the nodes, the per-image max, mul,
    ``log_softmax``, the gather of each row's own column, tsum and mul,
    but the tape keeps only the parts, the row and node norms, the unit
    nodes, the scores s (R, B) and their argmax nodes (int32). The unit
    rows are formed again block by block from the parts, in forward and
    in backward, so no (R, d) copy of the rows is ever whole; backward
    forms the softmax again from s and w with the same numpy calls, and
    turns s into its own gradient in place: one graph takes one
    backward. Each part's gradient is written C-contiguous. A
    non-finite norm raises ``FloatingPointError``; a cosine cannot
    overflow.
    """
    parts = [as_tensor(p) for p in parts]
    nodes, weights = as_tensor(nodes), as_tensor(weights)
    batch, dim = len(counts), nodes.shape[-1]
    if not batch or min(counts) < 1 or sum(counts) != nodes.shape[0]:
        raise ValueError(f"node counts {list(counts)} do not fit nodes {nodes.shape}")
    sizes = [p.shape[1] for p in parts]
    if any(p.shape != (batch, size, dim) for p, size in zip(parts, sizes)) \
            or weights.shape != (batch, sum(sizes)):
        raise ValueError(f"parts {[p.shape for p in parts]} and weights {weights.shape} "
                         f"do not fit {batch} images of {dim}-dim nodes")
    per_image = sum(sizes)
    count = batch * per_image
    scale = -1.0 / batch
    row_blocks = _row_blocks(count, batch * dim)

    def raw(blk: slice) -> np.ndarray:
        out = np.empty((blk.stop - blk.start, dim))
        for i, b, src, dst in _segments(sizes, blk.start, blk.stop):
            out[dst] = parts[i].data[b, src]
        return out

    norm = np.empty((count, 1))
    for blk in row_blocks:
        norm[blk] = _norm(raw(blk))
    node_norm = _norm(nodes.data)
    if not (np.isfinite(norm).all() and np.isfinite(node_norm).all()):
        raise FloatingPointError("non-finite values from image_contrastive_nll (norm)")
    unit_nodes = nodes.data / node_norm
    scores, args = _image_max(lambda blk: unit_rows(raw(blk)), count, unit_nodes, counts)
    w = weights.data.reshape(-1, 1)

    def own(blk: slice) -> tuple[np.ndarray, np.ndarray]:
        rows = np.arange(blk.stop - blk.start)
        return rows, (blk.start + rows) // per_image

    picked = np.empty(count)
    for blk in row_blocks:
        logits = scores[blk] * w[blk]
        lse, _ = logsumexp_softmax(logits, 1)
        picked[blk] = logits[own(blk)] + (lse * -1.0)[:, 0]

    def backward(g):
        g_scores = scores   # s becomes its own gradient, block by block
        g_pick = g * scale
        g_w = np.empty(count)
        for blk in row_blocks:
            logits = g_scores[blk] * w[blk]
            _, soft = logsumexp_softmax(logits, 1)
            # the chain's sum: the picked cells' gradient, then logsumexp's
            g_logits = np.zeros(logits.shape)
            g_logits[own(blk)] = g_pick
            g_logits += soft * -g_pick
            g_w[blk] = (g_logits * g_scores[blk]).sum(axis=1)
            g_scores[blk] = g_logits * w[blk]
        if weights.requires_grad:
            weights.accumulate(g_w.reshape(weights.shape))
        del g_w
        if nodes.requires_grad:
            # scatter-add of the weighted unit rows onto their argmax unit
            # nodes, one column at a time over every (row, image) pair: a
            # node belongs to one image, so each cell sums its rows in order
            grad = np.empty(nodes.shape)
            targets = args.ravel().astype(np.intp)
            for k in range(dim):
                u = np.concatenate([p.data[:, :, k] for p in parts], axis=1).reshape(-1, 1)
                u /= norm
                grad[:, k] = np.bincount(targets, (g_scores * u).ravel(), minlength=len(grad))
            del targets
            nodes.accumulate(_normalized_grad(grad, nodes.data, node_norm))
        grads = [np.empty(p.shape) if p.requires_grad else None for p in parts]
        if not any(grad is not None for grad in grads):
            return
        for blk in row_blocks:
            g_rows = np.einsum("rb,rbk->rk", g_scores[blk], unit_nodes[args[blk]])
            g_rows = _normalized_grad(g_rows, raw(blk), norm[blk])
            for i, b, src, dst in _segments(sizes, blk.start, blk.stop):
                if grads[i] is not None:
                    grads[i][b, src] = g_rows[dst]
        for p, grad in zip(parts, grads):
            if grad is not None:
                p.accumulate(grad)

    # the chain's parent order, so backward walks the rest of the tape,
    # and sums each shared gradient, in the chain's order
    return _make(picked.sum() * scale, (*parts, nodes, weights), backward)


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

    The pairs run through the layers in blocks of rows with the numpy
    calls of ``mlp``, each block's rows taken from the flat table into
    one (rows, 2d) buffer by row index. The tape keeps only the output
    and the row indices: backward forms the rectified hidden rows again
    the same way, then replays the unfused chain's arithmetic in its
    tape's order: b2, w2, the relu mask, b1, w1, then ``table``'s two
    halves, first then second, each from its own half of ``w1``. Rows
    that span several blocks give ``w1`` its gradient one half at a time
    too, so backward builds no (rows, 2d) array.
    """
    table, w1, b1, w2, b2 = (as_tensor(t) for t in (table, w1, b1, w2, b2))
    width = table.shape[-1]
    index = np.arange(math.prod(table.shape[:-1])).reshape(table.shape[:-1])
    lead = index[first].shape
    # the flat table rows of each pair, first then second
    pairs = np.stack([index[first].ravel(), index[second].ravel()], axis=1)
    del index
    blocks = _row_blocks(len(pairs), 2 * width)

    def rectified(blk: slice, out: np.ndarray) -> np.ndarray:
        rows = np.empty((blk.stop - blk.start, 2 * width))
        np.take(table.data.reshape(-1, width), pairs[blk].ravel(), axis=0,
                out=rows.reshape(-1, width), mode="clip")
        np.matmul(rows, w1.data, out=out)
        out += b1.data
        if not np.isfinite(out).all():
            raise FloatingPointError("non-finite values from pair_mlp (pre-activation)")
        np.copyto(out, 0.0, where=out <= 0.0)
        return out

    out = np.empty((len(pairs), w2.shape[-1]))
    hidden = np.empty((max((blk.stop - blk.start for blk in blocks), default=0),
                       w1.shape[-1]))
    for blk in blocks:
        np.matmul(rectified(blk, hidden[:blk.stop - blk.start]), w2.data, out=out[blk])
    del hidden
    out += b2.data

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        if b2.requires_grad:
            b2.accumulate(_unbroadcast(g, b2.shape))
        hidden = np.empty((len(g), w1.shape[-1]))
        for blk in blocks:
            rectified(blk, hidden[blk])
        if w2.requires_grad:
            w2.accumulate(np.matmul(np.swapaxes(hidden, -1, -2), g))
        live = hidden > 0
        del hidden
        g_pre = np.matmul(g, np.swapaxes(w2.data, -1, -2))
        g_pre *= live
        del live
        if b1.requires_grad:
            b1.accumulate(_unbroadcast(g_pre, b1.shape))
        flat = table.data.reshape(-1, width)
        halves = ((slice(None, width), 0), (slice(width, None), 1))
        if w1.requires_grad:
            grad = np.empty(w1.shape)
            if len(blocks) == 1:
                # BLAS may sum a short product in another order when it is
                # half as tall: rows that fit one block are gathered whole,
                # as the unfused chain gathers them
                rows = np.take(flat, pairs.ravel(), axis=0).reshape(len(pairs), -1)
                np.matmul(np.swapaxes(rows, -1, -2), g_pre, out=grad)
            else:
                for half, k in halves:
                    np.matmul(np.swapaxes(flat[pairs[:, k]], -1, -2), g_pre, out=grad[half])
            w1.accumulate(grad)
        if table.requires_grad:
            for half, k in halves:
                g_rows = np.matmul(g_pre, np.swapaxes(w1.data[half], -1, -2))
                g_rows = _scatter_add(flat.shape, pairs[:, k], g_rows)
                table.accumulate(g_rows.reshape(table.shape))
                del g_rows

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
