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
gives the log partition and, through the outside sweep of
:mod:`vgram.dmv_graph` over those weights, the arc posteriors;
:func:`MAX` with argmax backpointers gives the Viterbi tree
(:func:`viterbi`).

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

Rows are stored back to back in one flat array per table, so each
merged table takes one gather per operand table and one merge per span
length.

Everything is log-space double precision. Impossible items carry a
large negative sentinel rather than -inf so sums never produce NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
    """Log-sum-exp over axis 1 with :func:`vgram.tensor.logsumexp`'s
    arithmetic, and the candidates' softmax weights."""
    top = x.max(axis=1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    shifted = np.exp(x - top)
    total = shifted.sum(axis=1, keepdims=True)
    return (top + np.log(total))[:, 0], shifted / total


def MAX(x):
    """Max over axis 1, and the index of the winner."""
    return x.max(axis=1), x.argmax(axis=1)


@dataclass
class SpanTables:
    """What one run of :func:`span_recursion` leaves behind."""

    flat: dict              # table name -> rows stored back to back, (B, cells)
    first: np.ndarray       # first[L]: where row L starts (ir/il: first[L] - n)
    back: dict[str, list]   # "ir", "il", "ro", "lo" -> merge args by span length
    root_terms: np.ndarray  # (B, n): root r plus both of its closed cones
    total: np.ndarray       # (B,): root_terms merged
    root_arg: np.ndarray    # the root merge's arg


def _gathers(first: np.ndarray, length: int):
    """Flat candidate indices, (length, n - length) each, for one span length,
    and the end tokens ``left``, ``right`` (1-based, (n - length,)) of its spans.

    ``first[L]`` is where row L starts in a table holding rows 0, 1, ...
    Candidate k of start i: ``near`` reads row k at start i, ``far`` row
    length-1-k at start i+k+1; ``arc_r`` reads ir row k+1 at start i and
    ``arc_l`` il row length-k at start i+k (both tables start at row 1).
    """
    n = len(first)
    k = np.arange(length)[:, None]
    i = np.arange(n - length)
    return (first[:length, None] + i, first[length - 1::-1, None] + (k + 1 + i),
            first[1:length + 1, None] + (i - n), first[length:0:-1, None] + (k + i - n),
            i + 1, i + 1 + length)


def _root_cones(first: np.ndarray):
    """Flat indices of root r's closed cones: lc row r-1 and rc row n-r, both
    spanning to a sentence end."""
    return first, first[::-1] + np.arange(len(first))


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
    n = root.shape[1] - 1
    if n < 1:
        raise ValueError("need at least one token")
    first = np.concatenate([[0], np.cumsum(np.arange(n, 1, -1))])
    flat = {"rc": stop[:, 1:, RIGHT, ADJ], "lc": stop[:, 1:, LEFT, ADJ],
            "roc": cont[:, 1:, RIGHT, ADJ], "loc": cont[:, 1:, LEFT, ADJ],
            "ir": attach[:, 0, :0], "il": attach[:, 0, :0]}   # no row 0: empty
    back: dict[str, list] = {name: [None] for name in ("ir", "il", "ro", "lo")}

    def merged(name, cands):
        value, arg = merge(cands)
        back[name].append(arg)
        return value

    def push(name, row):
        flat[name] = np.concatenate([flat[name], row], axis=1)

    for length in range(1, n):
        near, far, arc_r, arc_l, left, right = _gathers(first, length)
        push("ir", merged("ir", flat["roc"][:, near] + flat["lc"][:, far])
             + attach[:, left, right])
        push("il", merged("il", flat["rc"][:, near] + flat["loc"][:, far])
             + attach[:, right, left])
        ro = merged("ro", flat["ir"][:, arc_r] + flat["rc"][:, far])
        lo = merged("lo", flat["il"][:, arc_l] + flat["lc"][:, near])
        push("rc", ro + stop[:, left, RIGHT, NONADJ])
        push("lc", lo + stop[:, right, LEFT, NONADJ])
        push("roc", ro + cont[:, left, RIGHT, NONADJ])
        push("loc", lo + cont[:, right, LEFT, NONADJ])

    to_lc, to_rc = _root_cones(first)
    root_terms = (root[:, 1:] + flat["lc"][:, to_lc]) + flat["rc"][:, to_rc]
    total, root_arg = merge(root_terms)
    return SpanTables(flat=flat, first=first, back=back, root_terms=root_terms,
                      total=total, root_arg=root_arg)


def _batch_of_one(scores: DmvScores) -> tuple:
    return tuple(a[None] for a in (scores.attach, scores.stop, scores.cont, scores.root))


def log_partition(scores: DmvScores) -> float:
    """Log-sum over all single-root projective trees."""
    return float(span_recursion(LOGSUMEXP, *_batch_of_one(scores)).total[0])


def arc_posteriors(scores: DmvScores) -> np.ndarray:
    """Marginal arc probabilities P[h][d] under the chart distribution.

    Row 0 holds ROOT-arc posteriors; columns sum to 1 over heads. This
    is the outside sweep of :func:`vgram.dmv_graph.inside_outside` on one
    sentence.
    """
    from vgram.dmv_graph import posteriors   # it builds on this module
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
