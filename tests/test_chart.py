import math

import numpy as np
import pytest

from vgram.chart import (
    MAX,
    NEG,
    DmvScores,
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
        inside_outside(*leaves, need_posteriors=False).log_partition.sum().backward()
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
