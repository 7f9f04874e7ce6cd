"""Batched inside/outside over the valence chart, as one tape op.

The inside pass is :func:`vgram.chart.span_recursion` with the
plain-numpy :func:`vgram.chart.LOGSUMEXP` merge, which keeps its
candidates' softmax weights. The outside pass, :func:`outside`, is
the reverse sweep of that recursion: lengths descending, on the same
flat tables and the same :func:`vgram.chart._gathers` indices, each
merge hands both operands of every candidate the merge's adjoint times
the candidate's weight. Seeded with the root weights, a cell's adjoint is
its marginal exp(in + out - log Z) (Eisner 2016, "Inside-outside and
forward-backward algorithms are just backprop"), and the arc cells'
marginals are the arc posteriors.

:func:`inside_outside` puts log Z and the posteriors on the tape as one
node. The contrastive loss multiplies matching scores by posteriors, so
its backward needs the gradient of the posteriors themselves. For
upstream gradients (g_Z, g_mu), a score's gradient is g_Z times its
expected count plus H g_mu, H the Hessian of log Z: a second derivative,
given in closed form by the first-order expectation semiring (Li & Eisner
2009). g_mu seeds the attach and root leaves of one tangent pass, the
recursion replayed linearly through the saved weights; one outside sweep
then carries, next to each cell's marginal m, the gradient g_Z m + dm,
where dm = m (d in + d out - d log Z) comes from the candidates' shares
of the tangent.

All sentences in a batch must share one length; the trainer groups by
length before calling in here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import vgram.tensor as T
from vgram.chart import (LEFT, LOGSUMEXP, RIGHT, SpanTables, _gathers, _root_cones,
                         span_recursion)
from vgram.tensor import Tensor


@dataclass
class BatchCharts:
    """Per-batch chart results: log partitions and arc posteriors."""

    log_partition: Tensor              # (B,)
    posteriors: Optional[Tensor]       # (B, n+1, n+1); row 0 = ROOT arcs


def _cone_cells(first: np.ndarray):
    """Span length and 1-based ends (left, right) of every cell of a cone
    table, in flat order; the ir/il cells are those from n on."""
    n = len(first)
    length = np.repeat(np.arange(n), np.arange(n, 0, -1))
    left = np.arange(len(length)) - first[length] + 1
    return length, left, left + length


def outside(tables: SpanTables, top: np.ndarray,
            tangent: Optional[SpanTables] = None) -> dict:
    """Adjoint of every flat cell of a :func:`LOGSUMEXP` run, given
    ``top``, the adjoint of its root terms: (B, n), or (2, B, n) with a
    ``tangent`` run. Returns table name -> adjoint, shaped like ``top``
    with the cells last.

    With ``tangent``, ``top`` stacks the marginal seed and the gradient
    seed, and each candidate's gradient share also gets its marginal
    share times its tangent: both operands' tangents less the merge's.
    """
    flat, first, weights = tables.flat, tables.first, tables.back
    n = len(first)
    adj = {name: np.zeros(top.shape[:-1] + t.shape[1:]) for name, t in flat.items()}

    def send(merge, length, up, a, ia, b, ib):
        """The adjoint ``up`` of merge ``merge``'s row, to its candidates
        a[ia] + b[ib]; cells are distinct within one merge."""
        share = up[..., None, :] * weights[merge][length]
        if tangent is not None:
            d = tangent.flat
            share[1] += share[0] * (d[a][:, ia] + d[b][:, ib]
                                    - tangent.back[merge][length][:, None])
        adj[a][..., ia] += share
        adj[b][..., ib] += share

    to_lc, to_rc = _root_cones(first)
    adj["lc"][..., to_lc] = top
    adj["rc"][..., to_rc] = top
    for length in range(n - 1, 0, -1):
        near, far, arc_r, arc_l, _, _ = _gathers(first, length)
        row = slice(first[length], first[length] + n - length)
        # ro/lo row L is closed into rc/lc and extended into roc/loc;
        # it is the last to read ir/il row L (arc_r's last candidate,
        # arc_l's first), so that row is complete before its own merge
        send("ro", length, adj["rc"][..., row] + adj["roc"][..., row], "ir", arc_r, "rc", far)
        send("lo", length, adj["lc"][..., row] + adj["loc"][..., row], "il", arc_l, "lc", near)
        arcs = slice(first[length] - n, first[length] - length)
        send("ir", length, adj["ir"][..., arcs], "roc", near, "lc", far)
        send("il", length, adj["il"][..., arcs], "rc", near, "loc", far)
    return adj


def _arc_table(first: np.ndarray, root: np.ndarray, ir: np.ndarray,
               il: np.ndarray) -> np.ndarray:
    """(..., n+1, n+1) table of per-arc values: ``root`` (..., n) on row
    0, the ir cells at [left][right], the il cells at [right][left]."""
    n = len(first)
    _, left, right = _cone_cells(first)
    table = np.zeros(root.shape[:-1] + (n + 1, n + 1))
    table[..., 0, 1:] = root
    table[..., left[n:], right[n:]] = ir
    table[..., right[n:], left[n:]] = il
    return table


def posteriors(tables: SpanTables) -> np.ndarray:
    """Arc posteriors (B, n+1, n+1) of a :func:`LOGSUMEXP` run."""
    root = tables.root_arg
    adj = outside(tables, root)
    return _arc_table(tables.first, root, adj["ir"], adj["il"])


def _tangent(tables: SpanTables, g_mu: np.ndarray) -> SpanTables:
    """The recursion replayed linearly through ``tables``' softmax
    weights, in :func:`span_recursion`'s merge order, with ``g_mu``
    (B, n+1, n+1) on the attach leaves, its row 0 on the root leaves and
    nothing on stop/cont: each cell's tangent, d in. A merge's arg is its
    merged tangent, which :func:`outside` subtracts."""
    n = len(tables.first)
    saved = iter([tables.back[name][length] for length in range(1, n)
                  for name in ("ir", "il", "ro", "lo")] + [tables.root_arg])

    def merge(x):
        merged = (next(saved) * x).sum(axis=1)
        return merged, merged

    still = np.zeros(g_mu.shape[:1] + (n + 1, 2, 2))
    return span_recursion(merge, g_mu, still, still, g_mu[:, 0])


def _valence_sums(first: np.ndarray, right_adj: np.ndarray,
                  left_adj: np.ndarray) -> np.ndarray:
    """(B, n+1, 2, 2) stop or cont gradient from the adjoints of a right
    and a left cone table: each cell's onto [head][direction][valence]
    of the term it pays (its head's, adjacent at span length 0)."""
    length, left, right = _cone_cells(first)
    n, cells = len(first), len(length)
    out = np.zeros(right_adj.shape[:1] + (n + 1, 2, 2))
    for direction, heads, adj in ((RIGHT, left, right_adj), (LEFT, right, left_adj)):
        onehot = np.zeros((cells, n + 1, 2))
        onehot[np.arange(cells), heads, np.minimum(length, 1)] = 1.0
        out[:, :, direction] = (adj @ onehot.reshape(cells, -1)).reshape(-1, n + 1, 2)
    return out


def inside_outside(attach: Tensor, stop: Tensor, cont: Tensor, root: Tensor,
                   need_posteriors: bool = True) -> BatchCharts:
    """Log partition and (optionally) arc posteriors for a length group.

    ``attach`` is (B, n+1, n+1); ``stop``/``cont`` are (B, n+1, 2, 2)
    indexed [head][direction][valence]; ``root`` is (B, n+1). Row and
    column 0 of ``attach`` are ignored; ROOT arcs ride on ``root``. One
    tape node holds log Z and the posteriors; a non-finite one raises
    ``FloatingPointError`` naming this function.
    """
    leaves = (attach, stop, cont, root)
    batch, n = root.shape[0], root.shape[1] - 1
    # an overflow shows as a non-finite result, which _make reports
    with np.errstate(over="ignore", invalid="ignore"):
        tables = span_recursion(LOGSUMEXP, *(t.data for t in leaves))
        weights = tables.root_arg
        data = tables.total
        if need_posteriors:
            data = np.concatenate([data[:, None], posteriors(tables).reshape(batch, -1)],
                                  axis=1)

    def backward(g):
        if need_posteriors:
            g_z, g_mu = g[:, 0], g[:, 1:].reshape(batch, n + 1, n + 1)
            tangent = _tangent(tables, g_mu)
            top = weights * (g_z[:, None] + tangent.root_terms - tangent.total[:, None])
            adj = {name: a[1] for name, a in
                   outside(tables, np.stack([weights, top]), tangent).items()}
        else:
            top = g[:, None] * weights
            adj = outside(tables, top)
        arcs = _arc_table(tables.first, top, adj["ir"], adj["il"])
        if attach.requires_grad:
            g_attach = arcs.copy()
            g_attach[:, 0] = 0.0
            attach.accumulate(g_attach)
        if stop.requires_grad:
            stop.accumulate(_valence_sums(tables.first, adj["rc"], adj["lc"]))
        if cont.requires_grad:
            cont.accumulate(_valence_sums(tables.first, adj["roc"], adj["loc"]))
        if root.requires_grad:
            root.accumulate(arcs[:, 0])

    joint = T._make(data, leaves, backward)
    if not need_posteriors:
        return BatchCharts(log_partition=joint, posteriors=None)
    return BatchCharts(log_partition=joint[:, 0],
                       posteriors=T.reshape(joint[:, 1:], (batch, n + 1, n + 1)))
