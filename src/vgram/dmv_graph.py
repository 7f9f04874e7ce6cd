"""Batched, differentiable inside/outside over the valence chart.

The inside pass is :func:`vgram.chart.span_recursion` run on tape ops
in the log-sum-exp semiring, so the training loss can backpropagate
through the log partition. An explicit outside pass over the same
tables makes arc posteriors first-class differentiable values (the
contrastive loss multiplies matching scores by posteriors, and that
path needs gradients too).

All sentences in a batch must share one length; the trainer groups by
length before calling in here. Each table row for span length L is a
(batch, n - L) tensor indexed by span start minus one. Closed cones of
length zero are parameter leaves (their outside values are never needed
because only arc and root marginals are consumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import vgram.tensor as T
from vgram.chart import LEFT, NEG, NONADJ, RIGHT, Semiring, span_recursion
from vgram.tensor import Tensor

LOG = Semiring(merge=lambda x: (T.logsumexp(x, axis=1), None),
               cat=lambda parts: T.concat(parts, axis=1))


@dataclass
class BatchCharts:
    """Per-batch chart results: log partitions and arc posteriors."""

    log_partition: Tensor              # (B,)
    posteriors: Optional[Tensor]       # (B, n+1, n+1); row 0 = ROOT arcs
    n: int


def _neg(batch: int, width: int) -> Tensor:
    return Tensor(np.full((batch, width), NEG))


def _place(t: Tensor, start: int, width: int) -> Tensor:
    """Embed a contribution into a full-width diagonal, NEG elsewhere."""
    batch = t.shape[0]
    parts = []
    if start > 0:
        parts.append(_neg(batch, start))
    parts.append(t)
    rest = width - start - t.shape[1]
    if rest > 0:
        parts.append(_neg(batch, rest))
    return T.concat(parts, axis=1) if len(parts) > 1 else t


def _merge(contribs: list[Tensor]) -> Tensor:
    if len(contribs) == 1:
        return contribs[0]
    return T.logsumexp(T.stack(contribs, axis=1), axis=1)


def inside_outside(attach: Tensor, stop: Tensor, cont: Tensor, root: Tensor,
                   need_posteriors: bool = True) -> BatchCharts:
    """Log partition and (optionally) arc posteriors for a length group.

    ``attach`` is (B, n+1, n+1); ``stop``/``cont`` are (B, n+1, 2, 2)
    indexed [head][direction][valence]; ``root`` is (B, n+1). Row and
    column 0 of ``attach`` are ignored; ROOT arcs ride on ``root``.
    """
    batch, n = root.shape[0], root.shape[1] - 1
    tables = span_recursion(LOG, attach, stop, cont, root)
    root_terms, log_z = tables.root_terms, tables.total
    if not need_posteriors:
        return BatchCharts(log_partition=log_z, posteriors=None, n=n)

    rc, lc, roc, loc, ir, il = (tables.rows[name] for name in
                                ("rc", "lc", "roc", "loc", "ir", "il"))
    stop_r_non = stop[:, 1:, RIGHT, NONADJ]
    stop_l_non = stop[:, 1:, LEFT, NONADJ]
    cont_r_non = cont[:, 1:, RIGHT, NONADJ]
    cont_l_non = cont[:, 1:, LEFT, NONADJ]
    att_r: list[Optional[Tensor]] = [None]
    att_l: list[Optional[Tensor]] = [None]
    for length in range(1, n):
        starts = np.arange(1, n - length + 1)
        att_r.append(attach[:, starts, starts + length])
        att_l.append(attach[:, starts + length, starts])

    # Outside sweep, lengths descending. Each contribution list holds
    # full-width diagonals; a list is merged when the sweep reaches its
    # length, by which point all feeders (strictly longer spans, or the
    # root combination) have fired.
    o_rc: list[list[Tensor]] = [[] for _ in range(n)]
    o_lc: list[list[Tensor]] = [[] for _ in range(n)]
    o_ro1: list[list[Tensor]] = [[] for _ in range(n)]
    o_lo1: list[list[Tensor]] = [[] for _ in range(n)]
    o_ir: list[list[Tensor]] = [[] for _ in range(n)]
    o_il: list[list[Tensor]] = [[] for _ in range(n)]

    for r in range(1, n + 1):
        if n - r >= 1:
            o_rc[n - r].append(_place(root[:, r:r + 1] + lc[r - 1][:, 0:1], r - 1, r))
        if r - 1 >= 1:
            o_lc[r - 1].append(_place(root[:, r:r + 1] + rc[n - r][:, r - 1:r],
                                      0, n - r + 1))

    out_ir: list[Optional[Tensor]] = [None] * n
    out_il: list[Optional[Tensor]] = [None] * n
    for length in range(n - 1, 0, -1):
        width = n - length
        out_rc = _merge(o_rc[length])
        out_lc = _merge(o_lc[length])
        o_ro1[length].append(out_rc + stop_r_non[:, :width])
        o_lo1[length].append(out_lc + stop_l_non[:, length:])
        out_ro1 = _merge(o_ro1[length])
        out_lo1 = _merge(o_lo1[length])
        # cone extensions: ro1[L](i) = ir[t](i) + rc[L-t](i+t)
        for t in range(1, length + 1):
            o_ir[t].append(_place(out_ro1 + rc[length - t][:, t:t + width], 0, n - t))
            if length - t >= 1:
                o_rc[length - t].append(_place(out_ro1 + ir[t][:, :width],
                                               t, n - (length - t)))
            o_il[t].append(_place(out_lo1 + lc[length - t][:, :width],
                                  length - t, n - t))
            if length - t >= 1:
                o_lc[length - t].append(_place(
                    out_lo1 + il[t][:, length - t:length - t + width],
                    0, n - (length - t)))
        out_ir[length] = _merge(o_ir[length])
        out_il[length] = _merge(o_il[length])
        # arc items: ir[L](i) = roc[s](i) + lc[L-1-s](i+s+1) + att_r[L](i)
        #            il[L](i) = rc[s](i) + loc[L-1-s](i+s+1) + att_l[L](i)
        base_r = out_ir[length] + att_r[length]
        base_l = out_il[length] + att_l[length]
        for s in range(length):
            m = length - 1 - s
            if m >= 1:
                o_lc[m].append(_place(base_r + roc[s][:, :width], s + 1, n - m))
                o_lo1[m].append(_place(
                    base_l + rc[s][:, :width] + cont_l_non[:, length:],
                    s + 1, n - m))
            if s >= 1:
                o_ro1[s].append(_place(
                    base_r + lc[m][:, s + 1:s + 1 + width] + cont_r_non[:, :width],
                    0, n - s))
                o_rc[s].append(_place(base_l + loc[m][:, s + 1:s + 1 + width],
                                      0, n - s))

    # Assemble the (B, n+1, n+1) posterior matrix.
    log_z_col = T.reshape(log_z, (batch, 1))
    values = [T.exp(root_terms - log_z_col)]
    row_idx = [np.zeros(n, dtype=int)]
    col_idx = [np.arange(1, n + 1)]
    for length in range(1, n):
        starts = np.arange(1, n - length + 1)
        values.append(T.exp(ir[length] + out_ir[length] - log_z_col))
        row_idx.append(starts)
        col_idx.append(starts + length)
        values.append(T.exp(il[length] + out_il[length] - log_z_col))
        row_idx.append(starts + length)
        col_idx.append(starts)
    flat = T.concat(values, axis=1)
    key = (slice(None), np.concatenate(row_idx), np.concatenate(col_idx))
    posteriors = T.put_at(flat, key, (batch, n + 1, n + 1))
    return BatchCharts(log_partition=log_z, posteriors=posteriors, n=n)

