"""Batched, differentiable inside/outside over the valence chart.

The inside pass is :func:`vgram.chart.span_recursion` run on tape ops
in the log-sum-exp semiring, so the training loss can backpropagate
through the log partition. The outside pass makes arc posteriors
first-class differentiable values (the contrastive loss multiplies
matching scores by posteriors, and that path needs gradients too). It
replays the recursion, lengths descending, on the same flat tables and
the same :func:`vgram.chart._gathers` indices: each merge hands every
candidate's operand the merge's outside plus the candidate's other
operand, scattered into that table's flat outside.

All sentences in a batch must share one length; the trainer groups by
length before calling in here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import vgram.tensor as T
from vgram.chart import (LEFT, NEG, NONADJ, RIGHT, Semiring, _gathers,
                         _root_cones, span_recursion)
from vgram.tensor import Tensor

LOG = Semiring(merge=lambda x: (T.logsumexp(x, axis=1), None),
               cat=lambda parts: T.concat(parts, axis=1))


@dataclass
class BatchCharts:
    """Per-batch chart results: log partitions and arc posteriors."""

    log_partition: Tensor              # (B,)
    posteriors: Optional[Tensor]       # (B, n+1, n+1); row 0 = ROOT arcs
    n: int


def inside_outside(attach: Tensor, stop: Tensor, cont: Tensor, root: Tensor,
                   need_posteriors: bool = True) -> BatchCharts:
    """Log partition and (optionally) arc posteriors for a length group.

    ``attach`` is (B, n+1, n+1); ``stop``/``cont`` are (B, n+1, 2, 2)
    indexed [head][direction][valence]; ``root`` is (B, n+1). Row and
    column 0 of ``attach`` are ignored; ROOT arcs ride on ``root``.
    """
    batch, n = root.shape[0], root.shape[1] - 1
    tables = span_recursion(LOG, attach, stop, cont, root)
    log_z = tables.total
    if not need_posteriors:
        return BatchCharts(log_partition=log_z, posteriors=None, n=n)

    flat, first = tables.flat, tables.first
    # outside of every flat cell, NEG until its first contribution; each
    # table takes one log-add per span length over what was sent to it
    out = {name: Tensor(np.full(t.shape, NEG)) for name, t in flat.items()}
    sent: dict[str, list] = {name: [] for name in flat}

    def send(o, a, ia, b, ib):
        """Candidates a[ia] + b[ib] of a merge whose outside is ``o``."""
        sent[a].append((o + flat[b][:, ib], ia))
        sent[b].append((o + flat[a][:, ia], ib))

    def settle(*names):
        for name in names:
            parts = [out[name]]
            for value, index in sent[name]:   # cells are distinct within one merge
                background = np.full(out[name].shape, NEG)
                background[:, index] = 0.0
                parts.append(T.put_at(value, (slice(None), index), out[name].shape)
                             + background)
            sent[name] = []
            out[name] = T.logsumexp(T.stack(parts, axis=1), axis=1)

    def extension(closed, opened, row, ends, side):
        """Outside of ro/lo row L, which STOP closed into ``closed`` and
        CONTINUE extended into ``opened``."""
        return T.logsumexp(T.stack([out[closed][:, row] + stop[:, ends, side, NONADJ],
                                    out[opened][:, row] + cont[:, ends, side, NONADJ]],
                                   axis=1), axis=1, keepdims=True)

    to_lc, to_rc = _root_cones(first)
    send(root[:, 1:], "lc", to_lc, "rc", to_rc)
    settle("lc", "rc")
    heads, deps = [], []
    for length in range(n - 1, 0, -1):
        near, far, arc_r, arc_l, left, right = _gathers(first, length)
        row = slice(first[length], first[length] + n - length)
        send(extension("rc", "roc", row, left, RIGHT), "ir", arc_r, "rc", far)
        send(extension("lc", "loc", row, right, LEFT), "il", arc_l, "lc", near)
        settle("ir", "il")
        # ir/il row L is complete, ro/lo of length L being the last merges
        # to read it (arc_r's last candidate, arc_l's first)
        send(out["ir"][:, arc_r[-1:]] + attach[:, left[None], right[None]],
             "roc", near, "lc", far)
        send(out["il"][:, arc_l[:1]] + attach[:, right[None], left[None]],
             "rc", near, "loc", far)
        settle("rc", "lc", "roc", "loc")
        heads.insert(0, left)
        deps.insert(0, right)

    # posteriors: root terms, then the ir and il cells in flat order
    log_z_col = T.reshape(log_z, (batch, 1))
    marginals = T.exp(T.concat([tables.root_terms, flat["ir"] + out["ir"],
                                flat["il"] + out["il"]], axis=1) - log_z_col)
    key = (slice(None), np.concatenate([np.zeros(n, dtype=int), *heads, *deps]),
           np.concatenate([np.arange(1, n + 1), *deps, *heads]))
    posteriors = T.put_at(marginals, key, (batch, n + 1, n + 1))
    return BatchCharts(log_partition=log_z, posteriors=posteriors, n=n)
