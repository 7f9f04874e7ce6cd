"""Property tests for the structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vgram.chart import DmvScores, log_partition, score_tree, viterbi
from vgram.core import tree_to_instances, validate_tree
from vgram.metrics import dda_uda, iou


def head_arrays(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=n),
                           min_size=n, max_size=n))


def valid_trees(max_n=6):
    return head_arrays(max_n).filter(lambda h: validate_tree(h) is None)


def boxes():
    coords = st.floats(min_value=-100, max_value=100, allow_nan=False)
    return st.tuples(coords, coords, coords, coords).map(
        lambda t: (min(t[0], t[2]), min(t[1], t[3]),
                   max(t[0], t[2]) + 1.0, max(t[1], t[3]) + 1.0))


@given(valid_trees())
def test_first_order_count_is_n_minus_one(heads):
    inst = tree_to_instances(heads)
    assert len(inst.first) == len(heads) - 1
    assert inst.zero == tuple(range(1, len(heads) + 1))


@given(valid_trees())
def test_second_order_triples_are_chains_or_siblings(heads):
    inst = tree_to_instances(heads)
    for (x, m, y) in inst.second:
        chain = heads[m - 1] == x and heads[y - 1] == m
        sibling = heads[x - 1] == m and heads[y - 1] == m and x < y
        assert chain or sibling


@given(valid_trees(max_n=5), valid_trees(max_n=5))
def test_uda_never_below_dda(pred, gold):
    if len(pred) != len(gold):
        pred = pred[:len(gold)] + gold[len(pred):]
    if validate_tree(pred) is not None:
        return
    dda, uda = dda_uda([pred], [gold])
    assert uda >= dda


@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0 + 1e-12
    assert v == iou(b, a)
    assert iou(a, a) == 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31))
def test_viterbi_score_is_reachable_and_maximal_at_samples(n, seed):
    rng = np.random.default_rng(seed)
    scores = DmvScores(attach=rng.normal(size=(n + 1, n + 1)),
                       stop=rng.normal(size=(n + 1, 2, 2)),
                       cont=rng.normal(size=(n + 1, 2, 2)),
                       root=rng.normal(size=n + 1))
    heads, best = viterbi(scores)
    assert validate_tree(heads) is None
    assert abs(score_tree(scores, heads) - best) < 1e-9
    log_z = log_partition(scores)
    assert log_z >= best - 1e-9  # partition dominates any single tree


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31))
def test_per_dependent_shift_covariance(n, seed):
    rng = np.random.default_rng(seed)
    scores = DmvScores(attach=rng.normal(size=(n + 1, n + 1)),
                       stop=rng.normal(size=(n + 1, 2, 2)),
                       cont=rng.normal(size=(n + 1, 2, 2)),
                       root=rng.normal(size=n + 1))
    log_z = log_partition(scores)
    kappa = 0.83
    d = int(rng.integers(1, n + 1))
    shifted = DmvScores(attach=scores.attach.copy(), stop=scores.stop,
                        cont=scores.cont, root=scores.root.copy())
    shifted.attach[:, d] += kappa
    shifted.root[d] += kappa
    log_z2 = log_partition(shifted)
    assert abs(log_z2 - (log_z + kappa)) < 1e-9
    assert viterbi(shifted)[0] == viterbi(scores)[0]
