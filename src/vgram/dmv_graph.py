"""Batched inside/outside over the valence chart, as one tape op.

:func:`inside_outside` runs :func:`vgram.chart.span_recursion` with the
:func:`vgram.chart.LOGSUMEXP` merge and puts log Z and the arc
posteriors on the tape as one node; its backward is
:func:`vgram.chart.gradients`, the closed-form gradient of both.

All sentences in a batch must share one length; the trainer groups by
length before calling in here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import vgram.tensor as T
from vgram.chart import LOGSUMEXP, gradients, posteriors, span_recursion
from vgram.tensor import Tensor


@dataclass
class BatchCharts:
    """Per-batch chart results: log partitions and arc posteriors."""

    log_partition: Tensor              # (B,)
    posteriors: Optional[Tensor]       # (B, n+1, n+1); row 0 = ROOT arcs


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
        data = tables.total
        if need_posteriors:
            data = np.concatenate([data[:, None], posteriors(tables).reshape(batch, -1)],
                                  axis=1)

    def backward(g):
        if need_posteriors:
            grads = gradients(tables, g[:, 0], g[:, 1:].reshape(batch, n + 1, n + 1))
        else:
            grads = gradients(tables, g)
        for leaf, grad in zip(leaves, grads):
            if leaf.requires_grad:
                leaf.accumulate(grad)

    joint = T._make(data, leaves, backward)
    if not need_posteriors:
        return BatchCharts(log_partition=joint, posteriors=None)
    return BatchCharts(log_partition=joint[:, 0],
                       posteriors=T.reshape(joint[:, 1:], (batch, n + 1, n + 1)))
