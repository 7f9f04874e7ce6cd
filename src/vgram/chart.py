"""Valence-grammar chart for projective dependency trees.

The generative story: ROOT picks exactly one token (``root`` scores),
every head emits dependents outward in each direction, paying a
CONTINUE score before each emission and one STOP score when done;
valence distinguishes the first emission in a direction (adjacent) from
later ones (non-adjacent). A tree's score is the sum of its root,
attach, and stop/continue terms.

One span-length recursion, :func:`span_recursion`, serves every chart
computation, on plain arrays. It takes the merge that joins each item's
candidates: :func:`LOGSUMEXP`, keeping each merge's softmax weights,
gives the log partition and, through the outside sweep over those
weights, the arc posteriors and the gradients; :func:`MAX` with argmax
backpointers gives the Viterbi tree (:func:`viterbi`).

The recursion uses a split-head decomposition: each head owns a left
and a right cone that grow independently, so it stays O(n^3). Each
table holds one row per span length L, indexed by span start i:

  rc[L][i]   right cone of head i over i..i+L, closed by its STOP term
             (lc mirrors: left cone of head i+L)
  roc[L][i]  open right cone folded with the head's next CONTINUE term;
             valence is adjacent at L = 0, non-adjacent beyond (loc mirrors)
  ir[L][i]   arc i -> i+L just built: CONTINUE + attach paid, dependent's
             left side closed; the dependent's right side is attached
             when the item extends the head's cone (il: arc i+L -> i)

Each table is one (B, n, n) buffer indexed [length, start], where only
start < n - length is a cell (ir/il have no row 0), and a second view of
the same memory indexed [length, end], end = start + length (stride
n - 1 on the length axis). Every candidate of one span length is then a
strided slice of one view (:func:`_reads`), so each merged table costs
one merge and no gather per span length. Before the recursion each cell
holds the attach or stop/continue term it pays; its merge is added in
place.

The outside pass, :func:`outside`, is the reverse sweep of the
recursion: lengths descending, on adjoint tables laid out like the
chart's and through the same :func:`_reads` slices, each merge adds to
both operands of every candidate the merge's adjoint times the
candidate's weight. Seeded with the root weights, a cell's adjoint is
its marginal exp(in + out - log Z) (Eisner 2016, "Inside-outside and
forward-backward algorithms are just backprop"), and the arc cells'
marginals are the arc posteriors (:func:`posteriors`).

The contrastive loss multiplies matching scores by posteriors, so
training needs the gradient of the posteriors themselves. For upstream
gradients (g_Z, g_mu), a score's gradient (:func:`gradients`) is g_Z
times its expected count plus H g_mu, H the Hessian of log Z: a second
derivative, given in closed form by the first-order expectation
semiring (Li & Eisner 2009). g_mu seeds the attach and root leaves of
one tangent pass (:func:`_tangent`), the recursion replayed linearly
through the saved weights; one outside sweep then carries, next to each
cell's marginal m, the gradient g_Z m + dm, where
dm = m (d in + d out - d log Z) comes from the candidates' shares of
the tangent.

Everything is log-space double precision. Impossible items carry a
large negative sentinel rather than -inf so sums never produce NaN.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from vgram.tensor import logsumexp_softmax

NEG = -1.0e30
_IMPOSSIBLE = -1.0e25
LEFT, RIGHT = 0, 1
ADJ, NONADJ = 0, 1

_ENUM_CAP = 8


@dataclass(frozen=True)
class DmvScores:
    """Log-score tables for one sentence of length n.

    ``attach[h][d]`` scores head h taking dependent d (1-based; row 0 is
    unused, ROOT attachment is scored by ``root`` alone). ``stop`` and
    ``cont`` are indexed [head][direction][valence] with direction 0 =
    left, 1 = right and valence 0 = adjacent, 1 = non-adjacent.
    """

    attach: np.ndarray
    stop: np.ndarray
    cont: np.ndarray
    root: np.ndarray

    def __post_init__(self):
        n = self.n
        if self.attach.shape != (n + 1, n + 1):
            raise ValueError(f"attach must be square over n+1={n + 1}")
        if self.stop.shape != (n + 1, 2, 2) or self.cont.shape != (n + 1, 2, 2):
            raise ValueError("stop/cont must have shape (n+1, 2, 2)")
        for name, arr in (("attach", self.attach), ("stop", self.stop),
                          ("cont", self.cont), ("root", self.root)):
            if np.isnan(arr).any() or np.isposinf(arr).any():
                raise ValueError(f"{name} contains NaN or +inf")

    @property
    def n(self) -> int:
        return self.root.shape[0] - 1


def random_scores(n: int, rng: np.random.Generator, scale: float = 1.0) -> DmvScores:
    """Dense random score tables, handy for oracle tests and benchmarks."""
    return DmvScores(
        attach=rng.normal(0.0, scale, (n + 1, n + 1)),
        stop=rng.normal(0.0, scale, (n + 1, 2, 2)),
        cont=rng.normal(0.0, scale, (n + 1, 2, 2)),
        root=rng.normal(0.0, scale, (n + 1,)),
    )


def score_tree(scores: DmvScores, heads: Sequence[int]) -> float:
    """Score one tree directly from the generative story.

    Independent of the chart recursion; the oracle tests rely on that.
    """
    n = len(heads)
    roots = [d for d in range(1, n + 1) if heads[d - 1] == 0]
    if len(roots) != 1:
        raise ValueError("tree must have exactly one root")
    total = float(scores.root[roots[0]])
    ndeps = [[0, 0] for _ in range(n + 1)]
    for d in range(1, n + 1):
        h = heads[d - 1]
        if h == 0:
            continue
        total += float(scores.attach[h][d])
        ndeps[h][RIGHT if d > h else LEFT] += 1
    for h in range(1, n + 1):
        for direction in (LEFT, RIGHT):
            k = ndeps[h][direction]
            if k == 0:
                total += float(scores.stop[h][direction][ADJ])
            else:
                total += float(scores.cont[h][direction][ADJ])
                total += (k - 1) * float(scores.cont[h][direction][NONADJ])
                total += float(scores.stop[h][direction][NONADJ])
    return total


def LOGSUMEXP(x):
    """Log-sum-exp over axis 1, and the candidates' softmax weights."""
    total, weights = logsumexp_softmax(x, 1)
    return total[:, 0], weights


def MAX(x):
    """Max over axis 1, and the index of the winner."""
    return x.max(axis=1), x.argmax(axis=1)


BY_START, BY_END = 0, 1

# merge, in merge order -> the tables its merged row is added into
_WRITES = {"ir": ("ir",), "il": ("il",), "ro": ("rc", "roc"), "lo": ("lc", "loc")}


@dataclass
class SpanTables:
    """What one run of :func:`span_recursion` leaves behind."""

    views: dict             # table name -> (by start, by end) views of its (B, n, n) cells
    back: dict[str, list]   # "ir", "il", "ro", "lo" -> merge args by span length
    root_terms: np.ndarray  # (B, n): root r plus both of its closed cones
    total: np.ndarray       # (B,): root_terms merged
    root_arg: np.ndarray    # the root merge's arg


def _views(table: np.ndarray) -> tuple:
    """``table``, C-ordered (..., n, n) cells indexed [length, start], and
    the same memory indexed [length, end]. The second view reads past
    its cells where end < length; only end >= length is one."""
    *lead, row, cell = table.strides
    return table, np.ndarray(table.shape, table.dtype, table, strides=(*lead, row - cell, cell))


def _reads(n: int, length: int) -> dict:
    """Merge -> its two operands (table, view, index), (..., length,
    n - length) slices, at one span length of an n-token chart, in merge
    order. Candidate k of start i: ``near`` reads length k at start i,
    ``far`` length - 1 - k at end i + length; the arcs read ir length
    k + 1 at start i and il length - k at end i + length."""
    m = n - length
    near, far = np.s_[..., :length, :m], np.s_[..., length - 1::-1, length:]
    return {"ir": (("roc", BY_START, near), ("lc", BY_END, far)),
            "il": (("rc", BY_START, near), ("loc", BY_END, far)),
            "ro": (("ir", BY_START, np.s_[..., 1:length + 1, :m]), ("rc", BY_END, far)),
            "lo": (("il", BY_END, np.s_[..., length:0:-1, length:]), ("lc", BY_START, near))}


def _joined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, (B, K, m), in memory laid out (K, m, B): a merge then sums
    each item's candidates one after another, never pairwise."""
    batch, k, m = a.shape
    return np.add(a, b, out=np.empty((k, m, batch)).transpose(2, 0, 1))


def span_recursion(merge: Callable, attach, stop, cont, root) -> SpanTables:
    """Fill every chart table, shortest spans first, joining each item's
    candidates with ``merge``: (B, K, ...) -> (B, ...) reduced over axis 1,
    and what it keeps of the candidates (:func:`MAX`, :func:`LOGSUMEXP`).

    The score tables are those of :class:`DmvScores` with a leading batch
    axis: attach (B, n+1, n+1), stop/cont (B, n+1, 2, 2), root (B, n+1).
    Candidates are laid out in a fixed order: ascending split point for
    arcs, ascending dependent position for cone extensions, ascending
    root index. So are the merges: ir, il, ro, lo for each span length,
    shortest first, then the root.
    """
    batch, n = root.shape[0], root.shape[1] - 1
    if n < 1:
        raise ValueError("need at least one token")
    # 1-based end tokens of each [length, start]; past the chart's end
    # (no cell) clipped to a real token
    left = np.arange(1, n + 1)
    right = np.minimum(left + np.arange(n)[:, None], n)
    by_head = {RIGHT: left[None].repeat(n, axis=0), LEFT: right}
    flat_attach = attach.reshape(batch, -1)
    cells = {"ir": np.take(flat_attach, left * (n + 1) + right, axis=1),
             "il": np.take(flat_attach, right * (n + 1) + left, axis=1)}
    for name, scores, side in (("rc", stop, RIGHT), ("lc", stop, LEFT),
                               ("roc", cont, RIGHT), ("loc", cont, LEFT)):
        cells[name] = np.take(scores[:, :, side, NONADJ], by_head[side], axis=1)
        cells[name][:, 0] = scores[:, 1:, side, ADJ]
    views = {name: _views(table) for name, table in cells.items()}
    back: dict[str, list] = {name: [None] for name in _WRITES}

    for length in range(1, n):
        row = np.s_[:, length, :n - length]
        for name, ((a, va, ia), (b, vb, ib)) in _reads(n, length).items():
            value, arg = merge(_joined(views[a][va][ia], views[b][vb][ib]))
            back[name].append(arg)
            for table in _WRITES[name]:
                cells[table][row] += value

    # root r's closed cones: lc length r - 1 from start 0, rc length n - r to the end
    root_terms = (root[:, 1:] + cells["lc"][:, :, 0]) + views["rc"][BY_END][:, ::-1, n - 1]
    total, root_arg = merge(root_terms)
    return SpanTables(views=views, back=back, root_terms=root_terms,
                      total=total, root_arg=root_arg)


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
    """Arc posteriors (B, n+1, n+1) of a :func:`LOGSUMEXP` run; row 0
    holds the ROOT arcs."""
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


def gradients(tables: SpanTables, g_z: np.ndarray,
              g_mu: Optional[np.ndarray] = None) -> tuple:
    """Gradients of the attach, stop, cont and root scores of a
    :func:`LOGSUMEXP` run, shaped as :func:`span_recursion` takes them,
    for the upstream gradient ``g_z`` (B,) of log Z and, when given,
    ``g_mu`` (B, n+1, n+1) of the posteriors."""
    weights = tables.root_arg
    if g_mu is None:
        top = g_z[:, None] * weights
        adj = outside(tables, top)
    else:
        tangent = _tangent(tables, g_mu)
        top = weights * (g_z[:, None] + tangent.root_terms - tangent.total[:, None])
        adj = {name: a[1] for name, a in
               outside(tables, np.stack([weights, top]), tangent).items()}
    arcs = _arc_table(top, adj["ir"], adj["il"])
    attach = arcs.copy()
    attach[:, 0] = 0.0
    return (attach, _valence_sums(adj["rc"], adj["lc"]),
            _valence_sums(adj["roc"], adj["loc"]), arcs[:, 0])


def _batch_of_one(scores: DmvScores) -> tuple:
    return tuple(a[None] for a in (scores.attach, scores.stop, scores.cont, scores.root))


def log_partition(scores: DmvScores) -> float:
    """Log-sum over all single-root projective trees."""
    return float(span_recursion(LOGSUMEXP, *_batch_of_one(scores)).total[0])


def arc_posteriors(scores: DmvScores) -> np.ndarray:
    """Marginal arc probabilities P[h][d] under the chart distribution.

    Row 0 holds ROOT-arc posteriors; columns sum to 1 over heads.
    """
    return posteriors(span_recursion(LOGSUMEXP, *_batch_of_one(scores)))[0]


def viterbi(scores: DmvScores) -> tuple[list[int], float]:
    """Best tree and its score: :func:`MAX` merges plus a backtrace.

    Ties go to the first candidate in :func:`span_recursion`'s order,
    so results are deterministic: the smaller split point, then the
    leftmost dependent (the nearer one in a right cone, the farther one
    in a left cone), then the smaller root index.
    """
    n = scores.n
    tables = span_recursion(MAX, *_batch_of_one(scores))
    best = float(tables.total[0])
    if best <= _IMPOSSIBLE:
        raise ValueError("no valid tree under the given scores")
    back = {name: [None] + [arg[0].tolist() for arg in args[1:]]
            for name, args in tables.back.items()}
    heads = [0] * (n + 1)
    r = int(tables.root_arg[0]) + 1
    cones = [(LEFT, 1, r), (RIGHT, r, n)]
    while cones:
        side, i, j = cones.pop()
        if i == j:
            continue
        # the cone's outermost dependent m split it into the head's
        # shorter cone and m's two halves, each expanded in turn
        if side == RIGHT:    # head i: cone i..k, halves k+1..m and m..j
            m = i + 1 + back["ro"][j - i][i - 1]
            k = i + back["ir"][m - i][i - 1]
            heads[m] = i
            cones += [(RIGHT, i, k), (LEFT, k + 1, m), (RIGHT, m, j)]
        else:                # head j: cone k..j, halves m..k-1 and i..m
            m = i + back["lo"][j - i][i - 1]
            k = m + 1 + back["il"][j - m][m - 1]
            heads[m] = j
            cones += [(LEFT, k, j), (RIGHT, m, k - 1), (LEFT, i, m)]
    return heads[1:], best


def enumerate_projective_trees(n: int) -> list[list[int]]:
    """All single-root projective head arrays for n tokens.

    Span-recursive construction: a head's children tile each side of it
    with consecutive blocks, each block rooted at one child. This is
    structurally independent of the parsing recursion, which is the
    point: it is the test oracle.
    """
    if n < 1:
        raise ValueError("need at least one token")
    if n > _ENUM_CAP:
        raise ValueError(f"enumeration capped at n={_ENUM_CAP} to avoid blowup")

    def tile(lo: int, hi: int, parent: int):
        if lo > hi:
            yield {}
            return
        for b in range(lo, hi + 1):
            for c in range(lo, b + 1):
                for inner in span_trees(lo, b, c):
                    base = dict(inner)
                    base[c] = parent
                    for rest in tile(b + 1, hi, parent):
                        out = dict(base)
                        out.update(rest)
                        yield out

    def span_trees(i: int, j: int, h: int):
        for left in tile(i, h - 1, h):
            for right in tile(h + 1, j, h):
                out = dict(left)
                out.update(right)
                yield out

    trees = []
    for r in range(1, n + 1):
        for assignment in span_trees(1, n, r):
            heads = [0] * n
            for d, h in assignment.items():
                heads[d - 1] = h
            trees.append(heads)
    return trees
