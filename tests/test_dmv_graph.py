import numpy as np
import pytest

import vgram.tensor as T
from vgram.chart import enumerate_projective_trees, random_scores, score_tree
from vgram.dmv_graph import inside_outside
from vgram.tensor import Tensor


def lift(s):
    """One sentence's score tables as batch-of-one graph inputs."""
    return tuple(Tensor(a[None]) for a in (s.attach, s.stop, s.cont, s.root))


def enumerated(s):
    """Log partition and arc posteriors by brute-force enumeration."""
    n = s.n
    trees = enumerate_projective_trees(n)
    logs = np.array([score_tree(s, t) for t in trees])
    log_z = np.logaddexp.reduce(logs)
    post = np.zeros((n + 1, n + 1))
    for weight, heads in zip(np.exp(logs - log_z), trees):
        for d, h in enumerate(heads, start=1):
            post[h][d] += weight
    return log_z, post


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_log_partition_matches_reference_chart(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(10):
        s = random_scores(n, rng)
        ref, _ = enumerated(s)
        out = inside_outside(*lift(s), need_posteriors=False)
        assert out.log_partition.numpy()[0] == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_posteriors_match_reference_chart(n):
    rng = np.random.default_rng(600 + n)
    for _ in range(10):
        s = random_scores(n, rng)
        _, ref = enumerated(s)
        out = inside_outside(*lift(s))
        np.testing.assert_allclose(out.posteriors.numpy()[0], ref, atol=1e-9)


def test_batched_matches_per_sentence():
    rng = np.random.default_rng(77)
    n, batch = 5, 4
    scores = [random_scores(n, rng) for _ in range(batch)]
    attach = Tensor(np.stack([s.attach for s in scores]))
    stop = Tensor(np.stack([s.stop for s in scores]))
    cont = Tensor(np.stack([s.cont for s in scores]))
    root = Tensor(np.stack([s.root for s in scores]))
    out = inside_outside(attach, stop, cont, root)
    for b, s in enumerate(scores):
        one = inside_outside(*lift(s))
        assert out.log_partition.numpy()[b] == pytest.approx(
            one.log_partition.numpy()[0], abs=1e-12)
        np.testing.assert_allclose(out.posteriors.numpy()[b], one.posteriors.numpy()[0],
                                   atol=1e-12)


def test_gradient_of_log_partition_is_posterior():
    # dual route: tape gradient of the inside pass vs the explicit outside,
    # both checked against enumeration
    rng = np.random.default_rng(88)
    n = 5
    s = random_scores(n, rng)
    attach, stop, cont, root = lift(s)
    attach.requires_grad = True
    root.requires_grad = True
    out = inside_outside(attach, stop, cont, root, need_posteriors=False)
    T.tsum(out.log_partition).backward()
    ref = inside_outside(*lift(s)).posteriors.numpy()[0]
    np.testing.assert_allclose(ref, enumerated(s)[1], atol=1e-9)
    np.testing.assert_allclose(attach.grad[0][1:, 1:], ref[1:, 1:], atol=1e-9)
    np.testing.assert_allclose(root.grad[0][1:], ref[0][1:], atol=1e-9)


def test_posterior_columns_sum_to_one():
    rng = np.random.default_rng(99)
    for n in (2, 4, 6):
        s = random_scores(n, rng)
        post = inside_outside(*lift(s)).posteriors.numpy()[0]
        np.testing.assert_allclose(post[:, 1:].sum(axis=0), 1.0, atol=1e-9)


def test_gradients_flow_through_posteriors():
    # finite-difference check of a scalar built from the posteriors,
    # exercising the second-order path the contrastive loss relies on
    rng = np.random.default_rng(123)
    n = 4
    s = random_scores(n, rng)
    weights = rng.normal(size=(n + 1, n + 1))

    def objective(arrs):
        attach, stop, cont, root = (Tensor(a[None]) for a in arrs)
        out = inside_outside(attach, stop, cont, root)
        return T.tsum(T.mul(out.posteriors, weights[None]))

    arrays = [s.attach.copy(), s.stop.copy(), s.cont.copy(), s.root.copy()]
    tensors = [Tensor(a[None], requires_grad=True) for a in arrays]
    loss = T.tsum(T.mul(inside_outside(*tensors).posteriors, weights[None]))
    loss.backward()

    eps = 1e-6
    for arr, ten in zip(arrays, tensors):
        flat = arr.reshape(-1)
        picks = rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for idx in picks:
            old = flat[idx]
            flat[idx] = old + eps
            fp = objective(arrays).item()
            flat[idx] = old - eps
            fm = objective(arrays).item()
            flat[idx] = old
            fd = (fp - fm) / (2 * eps)
            ad = ten.grad[0].reshape(-1)[idx]
            assert ad == pytest.approx(fd, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("n", [12, 20, 40, 60])
def test_posteriors_are_log_partition_gradient_beyond_enumeration(n):
    # dual route past the enumeration cap: the explicit outside must
    # equal the tape gradient of the inside pass
    s = random_scores(n, np.random.default_rng(700 + n))
    attach, stop, cont, root = lift(s)
    attach.requires_grad = True
    root.requires_grad = True
    T.tsum(inside_outside(attach, stop, cont, root, need_posteriors=False).log_partition
           ).backward()
    post = inside_outside(*lift(s)).posteriors.numpy()[0]
    np.testing.assert_allclose(post[1:, 1:], attach.grad[0][1:, 1:], atol=1e-9)
    np.testing.assert_allclose(post[0][1:], root.grad[0][1:], atol=1e-9)
    np.testing.assert_allclose(post[:, 1:].sum(axis=0), 1.0, atol=1e-9)


def test_chart_is_one_tape_node_at_every_length():
    # log Z and the posteriors are views of one chart node: the tape it
    # adds does not grow with n
    def tape_size(n):
        s = random_scores(n, np.random.default_rng(n))
        leaves = [Tensor(a[None], requires_grad=True)
                  for a in (s.attach, s.stop, s.cont, s.root)]
        out = inside_outside(*leaves)
        seen, todo = set(), [out.log_partition, out.posteriors]
        while todo:
            t = todo.pop()
            if id(t) not in seen and all(t is not leaf for leaf in leaves):
                seen.add(id(t))
                todo.extend(t._parents)
        return len(seen)

    sizes = [tape_size(n) for n in (1, 2, 10, 40)]
    assert sizes == [sizes[0]] * 4 and sizes[0] <= 4


def tree_features(n, heads):
    """How often a tree pays each score: count tables shaped like
    attach, stop, cont and root, so a tree's score is their dot product
    with the score tables."""
    attach, stop, cont, root = (np.zeros((n + 1, n + 1)), np.zeros((n + 1, 2, 2)),
                                np.zeros((n + 1, 2, 2)), np.zeros(n + 1))
    ndeps = np.zeros((n + 1, 2), dtype=int)
    for d, h in enumerate(heads, start=1):
        if h == 0:
            root[d] += 1
        else:
            attach[h, d] += 1
            ndeps[h, int(d > h)] += 1
    for h in range(1, n + 1):
        for direction in (0, 1):
            k = ndeps[h, direction]
            if k == 0:
                stop[h, direction, 0] += 1
            else:
                cont[h, direction, 0] += 1
                cont[h, direction, 1] += k - 1
                stop[h, direction, 1] += 1
    return np.concatenate([attach.ravel(), stop.ravel(), cont.ravel(), root])


def chart_objective(arrays, g_z, g_mu):
    """Tape value of sum(g_z * log Z) + sum(g_mu * posteriors)."""
    out = inside_outside(*arrays)
    return T.add(T.tsum(T.mul(out.log_partition, g_z)),
                 T.tsum(T.mul(out.posteriors, g_mu)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_second_order_gradients_match_enumeration(n):
    # the gradient of g_z log Z + g_mu . mu is g_z E[f] + Cov(f, v . f),
    # f a tree's feature counts and v the g_mu weights on its attach and
    # root counts: E[f (v . f)] - E[f] E[v . f]
    rng = np.random.default_rng(800 + n)
    batch = 3
    scores = [random_scores(n, rng) for _ in range(batch)]
    g_z = rng.normal(size=batch)
    g_mu = rng.normal(size=(batch, n + 1, n + 1))
    leaves = [Tensor(np.stack([getattr(s, name) for s in scores]), requires_grad=True)
              for name in ("attach", "stop", "cont", "root")]
    chart_objective(leaves, g_z, g_mu).backward()
    trees = enumerate_projective_trees(n)
    feats = np.array([tree_features(n, t) for t in trees])
    cuts = np.cumsum([(n + 1) ** 2, 4 * (n + 1), 4 * (n + 1)])
    for b, s in enumerate(scores):
        theta = np.concatenate([s.attach.ravel(), s.stop.ravel(), s.cont.ravel(), s.root])
        logs = feats @ theta
        np.testing.assert_allclose(logs, [score_tree(s, t) for t in trees], atol=1e-12)
        p = np.exp(logs - np.logaddexp.reduce(logs))
        attach_v = g_mu[b].copy()
        attach_v[0] = 0.0
        v = np.concatenate([attach_v.ravel(), np.zeros(8 * (n + 1)), g_mu[b, 0]])
        vf = feats @ v
        mean = p @ feats
        want = g_z[b] * mean + (p * vf) @ feats - mean * (p @ vf)
        got = np.concatenate([leaf.grad[b].ravel() for leaf in leaves])
        for name, part_got, part_want in zip(("attach", "stop", "cont", "root"),
                                             np.split(got, cuts), np.split(want, cuts)):
            np.testing.assert_allclose(part_got, part_want, atol=1e-9, err_msg=name)


@pytest.mark.parametrize("n", [9, 12])
def test_second_order_gradients_match_finite_differences(n):
    # past the enumeration cap: central differences of the same objective
    rng = np.random.default_rng(900 + n)
    batch = 2
    scores = [random_scores(n, rng) for _ in range(batch)]
    g_z = rng.normal(size=batch)
    g_mu = rng.normal(size=(batch, n + 1, n + 1))
    arrays = [np.stack([getattr(s, name) for s in scores])
              for name in ("attach", "stop", "cont", "root")]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    chart_objective(tensors, g_z, g_mu).backward()

    def objective():
        return chart_objective([Tensor(a) for a in arrays], g_z, g_mu).item()

    eps = 1e-6
    for arr, ten in zip(arrays, tensors):
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=12, replace=False):
            old = flat[idx]
            flat[idx] = old + eps
            fp = objective()
            flat[idx] = old - eps
            fm = objective()
            flat[idx] = old
            assert ten.grad.reshape(-1)[idx] == pytest.approx((fp - fm) / (2 * eps),
                                                               rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("need_posteriors", [True, False])
def test_overflowing_chart_trips_naming_inside_outside(need_posteriors):
    # every entry finite, but two near 1e308 overflow once summed
    s = random_scores(4, np.random.default_rng(5))
    attach, stop, cont, root = lift(s)
    huge = Tensor(np.full(attach.shape, 1e308))
    with pytest.raises(FloatingPointError, match="from inside_outside"):
        inside_outside(huge, stop, cont, root, need_posteriors=need_posteriors)
