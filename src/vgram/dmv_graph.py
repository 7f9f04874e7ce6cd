"""Batched inside/outside over the valence chart, as one tape op.

The inside pass is :func:`vgram.chart.span_recursion` with the
plain-numpy :func:`vgram.chart.LOGSUMEXP` merge, which keeps its
candidates' softmax weights. The outside pass, :func:`outside`, is
the reverse sweep of that recursion: lengths descending, on adjoint
tables laid out like the chart's and through the same
:func:`vgram.chart._reads` slices, each merge adds to both operands of
every candidate the merge's adjoint times the candidate's weight.
Seeded with the root weights, a cell's adjoint is its marginal
exp(in + out - log Z) (Eisner 2016, "Inside-outside and forward-backward
algorithms are just backprop"), and the arc cells' marginals are the
arc posteriors.

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

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

import vgram.tensor as T
from vgram.chart import (BY_END, BY_START, LEFT, LOGSUMEXP, RIGHT, SpanTables, _reads,
                         _views, _WRITES, span_recursion)
from vgram.tensor import Tensor


@dataclass
class BatchCharts:
    """Per-batch chart results: log partitions and arc posteriors."""

    log_partition: Tensor              # (B,)
    posteriors: Optional[Tensor]       # (B, n+1, n+1); row 0 = ROOT arcs


def _cone_cells(n: int):
    """Span length and 1-based ends (left, right) of every cell of an
    n-token table, by length, then start."""
    length, start = np.nonzero(np.arange(n) < n - np.arange(n)[:, None])
    return length, start + 1, start + 1 + length


def outside(tables: SpanTables, top: np.ndarray,
            tangent: Optional[SpanTables] = None) -> dict:
    """Adjoint of every cell of a :func:`LOGSUMEXP` run, given ``top``,
    the adjoint of its root terms: (B, n), or (2, B, n) with a
    ``tangent`` run. Returns table name -> adjoint, shaped like ``top``
    with the (n, n) cells [length, start] last.

    With ``tangent``, ``top`` stacks the marginal seed and the gradient
    seed, and each candidate's gradient share also gets its marginal
    share times its tangent: both operands' tangents less the merge's.
    """
    n = top.shape[-1]
    adj = {name: _views(np.zeros(top.shape[:-1] + (n, n))) for name in tables.views}
    adj["lc"][BY_START][..., :, 0] = top
    adj["rc"][BY_END][..., ::-1, n - 1] = top
    for length in range(n - 1, 0, -1):
        reads, row = _reads(n, length), np.s_[..., length, :n - length]
        # ro/lo row L is closed into rc/lc and extended into roc/loc; it
        # is the last to read ir/il row L (ro's last candidate, lo's
        # first), so that row is complete before its own merge
        for merge in ("ro", "lo", "ir", "il"):
            up = functools.reduce(np.add, (adj[table][BY_START][row]
                                           for table in _WRITES[merge]))
            share = up[..., None, :] * tables.back[merge][length]
            if tangent is not None:
                (a, va, ia), (b, vb, ib) = reads[merge]
                d = tangent.views
                share[1] += share[0] * (d[a][va][ia] + d[b][vb][ib]
                                        - tangent.back[merge][length][:, None])
            for table, view, index in reads[merge]:
                adj[table][view][index] += share
    return {name: cells for name, (cells, _) in adj.items()}


def _arc_table(root: np.ndarray, ir: np.ndarray, il: np.ndarray) -> np.ndarray:
    """(..., n+1, n+1) table of per-arc values: ``root`` (..., n) on row
    0, the ir cells at [left][right], the il cells at [right][left]."""
    n = root.shape[-1]
    length, left, right = (a[n:] for a in _cone_cells(n))   # lengths 1 on
    table = np.zeros(root.shape[:-1] + (n + 1, n + 1))
    table[..., 0, 1:] = root
    table[..., left, right] = ir[..., length, left - 1]
    table[..., right, left] = il[..., length, left - 1]
    return table


def posteriors(tables: SpanTables) -> np.ndarray:
    """Arc posteriors (B, n+1, n+1) of a :func:`LOGSUMEXP` run."""
    root = tables.root_arg
    adj = outside(tables, root)
    return _arc_table(root, adj["ir"], adj["il"])


def _tangent(tables: SpanTables, g_mu: np.ndarray) -> SpanTables:
    """The recursion replayed linearly through ``tables``' softmax
    weights, in :func:`span_recursion`'s merge order, with ``g_mu``
    (B, n+1, n+1) on the attach leaves, its row 0 on the root leaves and
    nothing on stop/cont: each cell's tangent, d in. A merge's arg is its
    merged tangent, which :func:`outside` subtracts."""
    n = g_mu.shape[1] - 1
    saved = iter([tables.back[name][length] for length in range(1, n)
                  for name in _WRITES] + [tables.root_arg])

    def merge(x):
        merged = (next(saved) * x).sum(axis=1)
        return merged, merged

    still = np.zeros(g_mu.shape[:1] + (n + 1, 2, 2))
    return span_recursion(merge, g_mu, still, still, g_mu[:, 0])


def _valence_sums(right_adj: np.ndarray, left_adj: np.ndarray) -> np.ndarray:
    """(B, n+1, 2, 2) stop or cont gradient from the adjoints of a right
    and a left cone table: each cell's onto [head][direction][valence]
    of the term it pays (its head's, adjacent at span length 0)."""
    n = right_adj.shape[-1]
    length, left, right = _cone_cells(n)
    cells = len(length)
    out = np.zeros(right_adj.shape[:1] + (n + 1, 2, 2))
    for direction, heads, adj in ((RIGHT, left, right_adj), (LEFT, right, left_adj)):
        onehot = np.zeros((cells, n + 1, 2))
        onehot[np.arange(cells), heads, np.minimum(length, 1)] = 1.0
        # C order, cells by length then start: the matmul's summation
        # order over each head's cells is then fixed
        adj = np.ascontiguousarray(adj[:, length, left - 1])
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
        arcs = _arc_table(top, adj["ir"], adj["il"])
        if attach.requires_grad:
            g_attach = arcs.copy()
            g_attach[:, 0] = 0.0
            attach.accumulate(g_attach)
        if stop.requires_grad:
            stop.accumulate(_valence_sums(adj["rc"], adj["lc"]))
        if cont.requires_grad:
            cont.accumulate(_valence_sums(adj["roc"], adj["loc"]))
        if root.requires_grad:
            root.accumulate(arcs[:, 0])

    joint = T._make(data, leaves, backward)
    if not need_posteriors:
        return BatchCharts(log_partition=joint, posteriors=None)
    return BatchCharts(log_partition=joint[:, 0],
                       posteriors=T.reshape(joint[:, 1:], (batch, n + 1, n + 1)))
