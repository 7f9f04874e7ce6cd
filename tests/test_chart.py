import math
from types import SimpleNamespace

import numpy as np
import pytest

import vgram.chart as chart
import vgram.dmv_graph as dmv_graph
import vgram.tensor as T
from vgram.chart import (
    ADJ,
    LEFT,
    LOGSUMEXP,
    MAX,
    NEG,
    NONADJ,
    RIGHT,
    DmvScores,
    _views,
    arc_posteriors,
    enumerate_projective_trees,
    log_partition,
    random_scores,
    score_tree,
    span_recursion,
    viterbi,
)
from vgram.core import validate_tree
from vgram.dmv_graph import inside_outside
from vgram.tensor import Tensor

TREE_COUNTS = {1: 1, 2: 2, 3: 7, 4: 30}


def zero_scores(n):
    return DmvScores(
        attach=np.zeros((n + 1, n + 1)),
        stop=np.zeros((n + 1, 2, 2)),
        cont=np.zeros((n + 1, 2, 2)),
        root=np.zeros(n + 1),
    )


def brute_logz(scores, n):
    return float(np.logaddexp.reduce(
        [score_tree(scores, t) for t in enumerate_projective_trees(n)]))


def brute_posteriors(scores, n):
    trees = enumerate_projective_trees(n)
    logs = np.array([score_tree(scores, t) for t in trees])
    w = np.exp(logs - np.logaddexp.reduce(logs))
    post = np.zeros((n + 1, n + 1))
    for weight, heads in zip(w, trees):
        for d, h in enumerate(heads, start=1):
            post[h][d] += weight
    return post


class TestEnumerator:
    @pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
    def test_counts(self, n, count):
        trees = enumerate_projective_trees(n)
        assert len(trees) == count
        assert len({tuple(t) for t in trees}) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_validate_tree_filter(self, n):
        # validate_tree accepts exactly the enumerated trees: cross-check
        # against exhaustive filtering of all (n+1)^n head arrays
        import itertools
        valid = {tuple(h) for h in itertools.product(range(n + 1), repeat=n)
                 if validate_tree(list(h)) is None}
        assert {tuple(t) for t in enumerate_projective_trees(n)} == valid

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_projective_trees(9)


class TestInside:
    def test_single_token_zero_scores(self):
        logz = log_partition(zero_scores(1))
        assert logz == pytest.approx(0.0, abs=1e-12)

    def test_n3_counts_trees(self):
        logz = log_partition(zero_scores(3))
        assert logz == pytest.approx(math.log(7), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_scores_count_trees(self, n):
        logz = log_partition(zero_scores(n))
        assert logz == pytest.approx(math.log(TREE_COUNTS[n]), abs=1e-12)

    def test_weighted_two_token_example(self):
        s = zero_scores(2)
        s.attach[1][2] = math.log(2.0)
        logz = log_partition(s)
        assert logz == pytest.approx(math.log(3.0), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_oracle_equivalence(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(25):
            s = random_scores(n, rng)
            logz = log_partition(s)
            assert logz == pytest.approx(brute_logz(s, n), abs=1e-9)

    def test_dimension_mismatch(self):
        s = zero_scores(3)
        with pytest.raises(ValueError):
            DmvScores(attach=np.zeros((5, 5)), stop=s.stop, cont=s.cont, root=s.root)

    def test_per_dependent_shift_moves_partition(self):
        rng = np.random.default_rng(7)
        s = random_scores(4, rng)
        logz = log_partition(s)
        kappa = 0.37
        shifted = DmvScores(attach=s.attach.copy(), stop=s.stop, cont=s.cont,
                            root=s.root.copy())
        shifted.attach[:, 2] += kappa
        shifted.root[2] += kappa
        logz2 = log_partition(shifted)
        assert logz2 == pytest.approx(logz + kappa, abs=1e-9)
        assert viterbi(shifted)[0] == viterbi(s)[0]



class TestViterbi:
    def test_single_token(self):
        s = zero_scores(1)
        s.root[1] = -0.5
        heads, score = viterbi(s)
        assert heads == [0]
        assert score == pytest.approx(-0.5)

    def test_weighted_two_token_example(self):
        s = zero_scores(2)
        s.attach[1][2] = math.log(2.0)
        heads, score = viterbi(s)
        assert heads == [0, 1]
        assert score == pytest.approx(math.log(2.0), abs=1e-12)

    def test_all_zero_ties_deterministic(self):
        heads1, score1 = viterbi(zero_scores(3))
        heads2, _ = viterbi(zero_scores(3))
        assert heads1 == heads2
        assert validate_tree(heads1) is None
        assert score1 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n,chain,fan", [(3, [0, 1, 2], [3, 3, 0]),
                                             (4, [0, 1, 2, 3], [4, 4, 4, 0])])
    def test_tie_order_is_leftmost_candidate(self, n, chain, fan):
        # every tree scores 0: the smallest root wins, and each cone takes
        # its leftmost dependent, the nearer one in a right cone (a chain)
        # and the farther one in a left cone (a fan under the last token)
        assert viterbi(zero_scores(n))[0] == chain
        last_root = zero_scores(n)
        last_root.root[:n] = NEG
        assert viterbi(last_root)[0] == fan

    def test_no_valid_tree(self):
        s = zero_scores(3)
        s.root[:] = NEG
        with pytest.raises(ValueError, match="no valid tree"):
            viterbi(s)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_oracle_equivalence(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(25):
            s = random_scores(n, rng)
            heads, score = viterbi(s)
            trees = enumerate_projective_trees(n)
            best = max(trees, key=lambda t: score_tree(s, t))
            assert score == pytest.approx(score_tree(s, best), abs=1e-9)
            assert heads == best

    def test_score_matches_score_tree(self):
        rng = np.random.default_rng(3)
        s = random_scores(5, rng)
        heads, score = viterbi(s)
        assert score == pytest.approx(score_tree(s, heads), abs=1e-9)


class TestPosteriors:
    def test_symmetric_two_tokens(self):
        post = arc_posteriors(zero_scores(2))
        assert post[0][1] == pytest.approx(0.5, abs=1e-12)
        assert post[0][2] == pytest.approx(0.5, abs=1e-12)
        assert post[1][2] == pytest.approx(0.5, abs=1e-12)
        assert post[2][1] == pytest.approx(0.5, abs=1e-12)

    def test_weighted_two_token_example(self):
        s = zero_scores(2)
        s.attach[1][2] = math.log(2.0)
        post = arc_posteriors(s)
        assert post[1][2] == pytest.approx(2 / 3, abs=1e-12)
        assert post[2][1] == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_oracle_equivalence(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(10):
            s = random_scores(n, rng)
            assert np.allclose(arc_posteriors(s), brute_posteriors(s, n), atol=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_columns_sum_to_one(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(20):
            post = arc_posteriors(random_scores(n, rng))
            sums = post[:, 1:].sum(axis=0)
            assert np.allclose(sums, 1.0, atol=1e-9)

    def test_stop_cont_adjoints_are_expected_counts(self):
        # the tape gradient of the log partition w.r.t. each stop/continue
        # score is the expected number of times the tree pays it
        n = 4
        rng = np.random.default_rng(11)
        s = random_scores(n, rng)
        leaves = [Tensor(a[None], requires_grad=True)
                  for a in (s.attach, s.stop, s.cont, s.root)]
        T.tsum(inside_outside(*leaves, need_posteriors=False).log_partition).backward()
        grads = {"stop": leaves[1].grad[0], "cont": leaves[2].grad[0]}
        trees = enumerate_projective_trees(n)
        logs = np.array([score_tree(s, t) for t in trees])
        w = np.exp(logs - np.logaddexp.reduce(logs))
        exp_stop = np.zeros((n + 1, 2, 2))
        exp_cont = np.zeros((n + 1, 2, 2))
        for weight, heads in zip(w, trees):
            ndeps = [[0, 0] for _ in range(n + 1)]
            for d in range(1, n + 1):
                h = heads[d - 1]
                if h:
                    ndeps[h][1 if d > h else 0] += 1
            for h in range(1, n + 1):
                for direction in (0, 1):
                    k = ndeps[h][direction]
                    if k == 0:
                        exp_stop[h][direction][0] += weight
                    else:
                        exp_cont[h][direction][0] += weight
                        exp_cont[h][direction][1] += (k - 1) * weight
                        exp_stop[h][direction][1] += weight
        assert np.allclose(grads["stop"], exp_stop, atol=1e-9)
        assert np.allclose(grads["cont"], exp_cont, atol=1e-9)


def test_one_merge_per_table_per_span_length():
    # the recursion is vectorised over starts and split points: span
    # length L costs exactly one (1, L, n - L) merge for each of the four
    # merged tables (arcs ir/il, cone extensions ro/lo), and the root
    # adds one (1, n) merge
    for n in (1, 2, 7, 30):
        shapes = []

        def counting_merge(x):
            shapes.append(x.shape)
            return MAX(x)

        s = random_scores(n, np.random.default_rng(n))
        span_recursion(counting_merge, s.attach[None], s.stop[None], s.cont[None],
                       s.root[None])
        expected = [(1, length, n - length) for length in range(1, n) for _ in range(4)]
        assert shapes == expected + [(1, n)]


def test_by_end_view_reads_the_by_start_cells():
    # cell (length, start) is (length, start + length) in the by-end view,
    # in both directions, with leading axes kept
    n = 6
    by_start, by_end = _views(np.zeros((2, 3, n, n)))
    cells = [(length, start) for length in range(n) for start in range(n - length)]
    for k, (length, start) in enumerate(cells):
        by_start[:, :, length, start] = k
    for k, (length, start) in enumerate(cells):
        assert (by_end[:, :, length, start + length] == k).all()
        by_end[:, :, length, start + length] = -k
    assert all((by_start[:, :, length, start] == -k).all()
               for k, (length, start) in enumerate(cells))


def test_long_parse_leaves_no_module_state():
    # a 60-token chart, past every training length, adds nothing to the
    # chart modules: no cache, no table kept between calls
    before = {module: dict(vars(module)) for module in (chart, dmv_graph)}
    viterbi(random_scores(60, np.random.default_rng(60)))
    for module, names in before.items():
        after = vars(module)
        assert after.keys() == names.keys()
        assert all(after[name] is value for name, value in names.items())
        assert not any(hasattr(value, "cache_info") for value in after.values())


# -- flat-table reference --------------------------------------------------
# The chart stored as rows back to back in one flat (B, cells) array per
# table, every candidate read a fancy-index gather, with the outside sweep
# and the backward glue over that layout. span_recursion, outside and
# inside_outside must match it bit for bit.

def flat_row_starts(n):
    return np.concatenate([[0], np.cumsum(np.arange(n, 1, -1))])


def flat_gathers(n, length):
    first = flat_row_starts(n)
    k = np.arange(length)[:, None]
    i = np.arange(n - length)
    return (first[:length, None] + i, first[length - 1::-1, None] + (k + 1 + i),
            first[1:length + 1, None] + (i - n), first[length:0:-1, None] + (k + i - n),
            i + 1, i + 1 + length)


def flat_root_cones(first):
    return first, first[::-1] + np.arange(len(first))


def flat_span_recursion(merge, attach, stop, cont, root):
    n = root.shape[1] - 1
    first = flat_row_starts(n)
    flat = {"rc": stop[:, 1:, RIGHT, ADJ], "lc": stop[:, 1:, LEFT, ADJ],
            "roc": cont[:, 1:, RIGHT, ADJ], "loc": cont[:, 1:, LEFT, ADJ],
            "ir": attach[:, 0, :0], "il": attach[:, 0, :0]}
    back = {name: [None] for name in ("ir", "il", "ro", "lo")}

    def merged(name, cands):
        value, arg = merge(cands)
        back[name].append(arg)
        return value

    def push(name, row):
        flat[name] = np.concatenate([flat[name], row], axis=1)

    for length in range(1, n):
        near, far, arc_r, arc_l, left, right = flat_gathers(n, length)
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

    to_lc, to_rc = flat_root_cones(first)
    root_terms = (root[:, 1:] + flat["lc"][:, to_lc]) + flat["rc"][:, to_rc]
    total, root_arg = merge(root_terms)
    return SimpleNamespace(flat=flat, first=first, back=back, root_terms=root_terms,
                           total=total, root_arg=root_arg)


def flat_cone_cells(first):
    n = len(first)
    length = np.repeat(np.arange(n), np.arange(n, 0, -1))
    left = np.arange(len(length)) - first[length] + 1
    return length, left, left + length


def flat_outside(tables, top, tangent=None):
    flat, first, weights = tables.flat, tables.first, tables.back
    n = len(first)
    adj = {name: np.zeros(top.shape[:-1] + t.shape[1:]) for name, t in flat.items()}

    def send(merge, length, up, a, ia, b, ib):
        share = up[..., None, :] * weights[merge][length]
        if tangent is not None:
            d = tangent.flat
            share[1] += share[0] * (d[a][:, ia] + d[b][:, ib]
                                    - tangent.back[merge][length][:, None])
        adj[a][..., ia] += share
        adj[b][..., ib] += share

    to_lc, to_rc = flat_root_cones(first)
    adj["lc"][..., to_lc] = top
    adj["rc"][..., to_rc] = top
    for length in range(n - 1, 0, -1):
        near, far, arc_r, arc_l, _, _ = flat_gathers(n, length)
        row = slice(first[length], first[length] + n - length)
        send("ro", length, adj["rc"][..., row] + adj["roc"][..., row], "ir", arc_r, "rc", far)
        send("lo", length, adj["lc"][..., row] + adj["loc"][..., row], "il", arc_l, "lc", near)
        arcs = slice(first[length] - n, first[length] - length)
        send("ir", length, adj["ir"][..., arcs], "roc", near, "lc", far)
        send("il", length, adj["il"][..., arcs], "rc", near, "loc", far)
    return adj


def flat_arc_table(first, root, ir, il):
    n = len(first)
    _, left, right = flat_cone_cells(first)
    table = np.zeros(root.shape[:-1] + (n + 1, n + 1))
    table[..., 0, 1:] = root
    table[..., left[n:], right[n:]] = ir
    table[..., right[n:], left[n:]] = il
    return table


def flat_tangent(tables, g_mu):
    n = len(tables.first)
    saved = iter([tables.back[name][length] for length in range(1, n)
                  for name in ("ir", "il", "ro", "lo")] + [tables.root_arg])

    def merge(x):
        merged = (next(saved) * x).sum(axis=1)
        return merged, merged

    still = np.zeros(g_mu.shape[:1] + (n + 1, 2, 2))
    return flat_span_recursion(merge, g_mu, still, still, g_mu[:, 0])


def flat_valence_sums(first, right_adj, left_adj):
    length, left, right = flat_cone_cells(first)
    n, cells = len(first), len(length)
    out = np.zeros(right_adj.shape[:1] + (n + 1, 2, 2))
    for direction, heads, adj in ((RIGHT, left, right_adj), (LEFT, right, left_adj)):
        onehot = np.zeros((cells, n + 1, 2))
        onehot[np.arange(cells), heads, np.minimum(length, 1)] = 1.0
        out[:, :, direction] = (adj @ onehot.reshape(cells, -1)).reshape(-1, n + 1, 2)
    return out


def flat_inside_outside(scores, g, need_posteriors):
    """log Z, posteriors (or None) and the attach, stop, cont and root
    gradients for the upstream gradient ``g`` of the joint output."""
    tables = flat_span_recursion(LOGSUMEXP, *scores)
    weights, first = tables.root_arg, tables.first
    post = None
    if need_posteriors:
        adj = flat_outside(tables, weights)
        post = flat_arc_table(first, weights, adj["ir"], adj["il"])
        batch, n = weights.shape
        g_z, g_mu = g[:, 0], g[:, 1:].reshape(batch, n + 1, n + 1)
        tangent = flat_tangent(tables, g_mu)
        top = weights * (g_z[:, None] + tangent.root_terms - tangent.total[:, None])
        adj = {name: a[1] for name, a in
               flat_outside(tables, np.stack([weights, top]), tangent).items()}
    else:
        top = g[:, None] * weights
        adj = flat_outside(tables, top)
    arcs = flat_arc_table(first, top, adj["ir"], adj["il"])
    g_attach = arcs.copy()
    g_attach[:, 0] = 0.0
    return tables.total, post, (g_attach, flat_valence_sums(first, adj["rc"], adj["lc"]),
                                flat_valence_sums(first, adj["roc"], adj["loc"]), arcs[:, 0])


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), \
        f"{what}: largest difference {np.abs(got - want).max()}"


def batch_scores(batch, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(batch, n + 1, n + 1)), rng.normal(size=(batch, n + 1, 2, 2)),
            rng.normal(size=(batch, n + 1, 2, 2)), rng.normal(size=(batch, n + 1)))


def flat_cells(table):
    """A (B, n, n) [length, start] table's cells in the flat layout's order."""
    length, start = np.nonzero(np.arange(table.shape[-1]) < table.shape[-1]
                               - np.arange(table.shape[-1])[:, None])
    return table[:, length, start]


def assert_recursion_matches_flat(merge, scores):
    n = scores[3].shape[1] - 1
    got, want = span_recursion(merge, *scores), flat_span_recursion(merge, *scores)
    for name, (cells, _) in got.views.items():
        arcs = name in ("ir", "il")
        assert_same_bits(flat_cells(cells)[:, n if arcs else 0:], want.flat[name], name)
    for name, args in want.back.items():
        for length in range(1, n):
            assert_same_bits(got.back[name][length], args[length], f"{name} {length}")
    for field in ("root_terms", "total", "root_arg"):
        assert_same_bits(getattr(got, field), getattr(want, field), field)


REFERENCE_SHAPES = [(batch, n) for batch in (1, 2, 16)
                    for n in (*range(1, 13), 20, 40, 60)]


@pytest.mark.parametrize("batch,n", REFERENCE_SHAPES)
def test_recursion_matches_flat_reference_bitwise(batch, n):
    scores = batch_scores(batch, n, 1000 * batch + n)
    for merge in (MAX, LOGSUMEXP):
        assert_recursion_matches_flat(merge, scores)


@pytest.mark.parametrize("batch,n", REFERENCE_SHAPES)
def test_inside_outside_matches_flat_reference_bitwise(batch, n):
    scores = batch_scores(batch, n, 2000 * batch + n)
    rng = np.random.default_rng(3000 * batch + n)
    g = rng.normal(size=(batch, 1 + (n + 1) ** 2))
    for need_posteriors in (True, False):
        leaves = [Tensor(a, requires_grad=True) for a in scores]
        out = inside_outside(*leaves, need_posteriors=need_posteriors)
        loss = T.tsum(T.mul(out.log_partition, Tensor(g[:, 0])))
        if need_posteriors:
            mu = Tensor(g[:, 1:].reshape(batch, n + 1, n + 1))
            loss = T.add(loss, T.tsum(T.mul(out.posteriors, mu)))
        loss.backward()
        log_z, post, grads = flat_inside_outside(scores, g if need_posteriors else g[:, 0],
                                                 need_posteriors)
        assert_same_bits(out.log_partition.numpy(), log_z, "log Z")
        if need_posteriors:
            assert_same_bits(out.posteriors.numpy(), post, "posteriors")
        for leaf, want, name in zip(leaves, grads, ("attach", "stop", "cont", "root")):
            assert_same_bits(leaf.grad, want, f"{name} gradient")


def test_c_ordered_candidates_break_the_reference(monkeypatch):
    # with the candidates C-ordered, the K = n - 1 candidates of the last
    # span length sit side by side in memory and numpy sums them
    # pairwise instead of one after another: the log partition's il row
    # at that length moves in its last bits
    n = 10
    scores = batch_scores(16, n, 16010)
    assert_recursion_matches_flat(LOGSUMEXP, scores)
    monkeypatch.setattr(chart, "_joined", lambda a, b: np.add(a, b, out=np.empty(a.shape)))
    got = span_recursion(LOGSUMEXP, *scores).views["il"][0][:, n - 1, 0]
    want = flat_span_recursion(LOGSUMEXP, *scores).flat["il"][:, -1]
    np.testing.assert_allclose(got, want, rtol=1e-14)
    assert not np.array_equal(got, want)
    with pytest.raises(AssertionError):
        assert_recursion_matches_flat(LOGSUMEXP, scores)
