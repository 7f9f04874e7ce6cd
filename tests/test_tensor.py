import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vgram.tensor as T
from vgram.model import pattern_index
from vgram.tensor import ParameterStore, Tensor, adam_step


def central_difference(fn, arrays, eps=1e-6):
    """Gradient of a scalar function of raw arrays, one entry at a time."""
    grads = []
    for x in arrays:
        g = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = x[idx]
            x[idx] = old + eps
            fp = fn()
            x[idx] = old - eps
            fm = fn()
            x[idx] = old
            g[idx] = (fp - fm) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def check_grads(build_loss, arrays, rtol=1e-6, atol=1e-8):
    """Compare tape gradients against central differences."""
    tensors = [Tensor(x, requires_grad=True) for x in arrays]
    loss = build_loss(*tensors)
    loss.backward()

    def rerun():
        return build_loss(*[Tensor(x) for x in arrays]).item()

    fd = central_difference(rerun, arrays)
    for t, g in zip(tensors, fd):
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, g, rtol=rtol, atol=atol)


class TestBasicOps:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_logsumexp_grad_is_softmax(self):
        data = np.array([0.3, -1.2, 2.0, 0.0])
        x = Tensor(data, requires_grad=True)
        T.logsumexp(x, axis=0).backward()
        expected = np.exp(data) / np.exp(data).sum()
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12)

    @pytest.mark.parametrize("op", ["add", "mul", "div", "matmul"])
    def test_binary_ops(self, op):
        rng = np.random.default_rng(hash(op) % 1000)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0 if op == "div" else rng.normal(size=(3, 4))
        if op == "matmul":
            b = rng.normal(size=(4, 2))
        fn = getattr(T, op if op != "matmul" else "matmul")
        check_grads(lambda x, y: T.tsum(fn(x, y)), [a, b])

    def test_batched_weight_gradient_matches_per_batch_sum(self):
        # x @ W with a 2-D W: one GEMM over the flattened rows gives the
        # per-batch gradients' sum, up to summation order
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = rng.normal(size=(3, 5, 6))
        T.matmul(x, w).backward(g)
        want = sum(x.data[b].T @ g[b] for b in range(3))
        np.testing.assert_allclose(w.grad, want, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(x.grad, g @ w.data.T, rtol=1e-13, atol=1e-13)

    def test_broadcast_add(self):
        rng = np.random.default_rng(1)
        check_grads(lambda x, y: T.tsum(T.mul(T.add(x, y), T.add(x, y))),
                    [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    @pytest.mark.parametrize("op", ["relu", "exp", "log", "sqrt"])
    def test_unary_ops(self, op):
        rng = np.random.default_rng(hash(op) % 1000)
        a = rng.uniform(0.5, 2.0, size=(5,)) if op in ("log", "sqrt") else rng.normal(size=(5,))
        if op == "relu":
            a = a + np.where(np.abs(a) < 0.05, 0.2, 0.0)  # keep away from the kink
        check_grads(lambda x: T.tsum(getattr(T, op)(x)), [a])

    def test_concat_stack_getitem(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))

        def loss(x, y):
            cat = T.concat([x, y], axis=0)
            stk = T.stack([x, y], axis=1)
            return T.tsum(cat[1:, :2]) + T.tsum(T.mul(stk, stk))

        check_grads(loss, [a, b])

    def test_take(self):
        rng = np.random.default_rng(6)
        emb = rng.normal(size=(7, 4))
        idx = np.array([1, 3, 3, 0])
        check_grads(lambda e: T.tsum(T.mul(e[idx], 2.0)), [emb])

    def test_reductions(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 5))
        check_grads(lambda x: T.tsum(T.mul(T.tmean(x, axis=1), 3.0)), [a])
        check_grads(lambda x: T.tsum(T.tmax(x, axis=1)), [a])
        # a tuple of axes, as tsum takes it: divided by the reduced sizes
        b = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(T.tmean(Tensor(b), axis=(1, 2)).data, b.mean(axis=(1, 2)),
                                   rtol=1e-15)
        np.testing.assert_allclose(T.tmean(Tensor(b), axis=(0, 2), keepdims=True).data,
                                   b.mean(axis=(0, 2), keepdims=True), rtol=1e-15)
        weights = rng.normal(size=2)
        check_grads(lambda x: T.tsum(T.mul(T.tmean(x, axis=(1, 2)), weights)), [b])

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_tmax_tie_grad_goes_to_first_maximum(self, axis, keepdims):
        data = np.array([[2.0, 5.0, 5.0],
                         [5.0, 5.0, 1.0],
                         [5.0, 0.0, 5.0]])
        x = Tensor(data, requires_grad=True)
        out = T.tmax(x, axis=axis, keepdims=keepdims)
        weights = np.array([1.0, -2.0, 3.0]).reshape(out.shape)
        T.tsum(T.mul(out, weights)).backward()
        # every line holds a tie; its first maximal entry takes the gradient
        first = {0: [(1, 0), (0, 1), (0, 2)], 1: [(0, 1), (1, 0), (2, 0)]}[axis]
        expected = np.zeros_like(data)
        for cell, w in zip(first, weights.reshape(-1)):
            expected[cell] = w
        np.testing.assert_array_equal(x.grad, expected)

    def test_log_softmax_and_normalize(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4))
        check_grads(lambda x: T.tsum(T.mul(T.log_softmax(x, axis=-1), 0.5)), [a])
        check_grads(lambda x: T.tsum(T.mul(T.l2_normalize(x), np.ones((3, 4)))), [a],
                    rtol=1e-5)
        weights = rng.normal(size=(3, 4))
        check_grads(lambda x: T.tsum(T.mul(T.l2_normalize(x, axis=0), weights)), [a],
                    rtol=1e-5)

    def test_nan_trips_error(self):
        with pytest.raises(FloatingPointError):
            Tensor(np.array([1.0, np.nan]))

    def test_non_scalar_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            T.mul(x, 2.0).backward()

    def test_detached_loss_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(())).backward()

    def test_second_backward_through_a_consumed_tensor_raises(self):
        # x sits on both tapes; the first backward consumed it, so the
        # second cannot reach w through it and says so
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        x = T.matmul(np.ones((1, 2)), w)
        loss = T.tsum(T.mul(x, 1.0))
        loss.backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))
        with pytest.raises(RuntimeError, match="output of matmul"):
            T.tsum(T.mul(x, 1.0)).backward()
        with pytest.raises(RuntimeError, match="output of tsum"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_backward_frees_the_tape_while_the_loss_is_held(self):
        w = Tensor(np.ones((3, 4)), requires_grad=True)
        h = T.relu(T.matmul(np.ones((5, 3)), w))
        freed = weakref.ref(h.data)
        loss = T.tsum(h)
        del h
        loss.backward()
        assert freed() is None
        assert loss._parents == () and loss._backward is None
        np.testing.assert_array_equal(w.grad, np.full((3, 4), 5.0))

    def test_leaves_accumulate_across_backwards(self):
        w = Tensor(np.ones(3), requires_grad=True)
        for _ in range(2):
            T.tsum(T.mul(w, 2.0)).backward()
        np.testing.assert_array_equal(w.grad, np.full(3, 4.0))


def tape_of(root):
    """Every tensor ``root`` was computed from, ``root`` included."""
    seen, todo = {}, [root]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(t._parents)
    return list(seen.values())


class TestGradientOwnership:
    @staticmethod
    def _shared_pair():
        """Leaves p, q of equal shape whose one add hands both one array."""
        store = ParameterStore()
        p = store.get("p", (2, 3), lambda s: np.ones(s))
        q = store.get("q", (2, 3), lambda s: np.full(s, 2.0))
        T.tsum(T.mul(T.add(p, q), 3.0)).backward()
        assert np.shares_memory(p.grad, q.grad)
        return store, p, q

    def test_backward_keeps_only_leaf_gradients(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)))
        h = T.relu(T.linear(x, w, b))
        mixed = T.concat([h, T.swapaxes(T.stack([h, h], axis=2), 1, 2)[:, 0]], axis=1)
        loss = T.tsum(T.logsumexp(mixed, axis=-1))
        # backward consumes the tape, so collect it first
        interior = [t for t in tape_of(loss) if t._parents]
        loss.backward()
        assert len(interior) > 8
        assert all(t.grad is None for t in interior)
        assert w.grad is not None and b.grad is not None
        assert x.grad is None

    def test_clip_scales_shared_gradient_once_per_leaf(self):
        store, p, q = self._shared_pair()
        norm, clipped = store.clip_gradients(1.0)
        assert clipped and norm == pytest.approx(math.sqrt(12 * 9.0))
        np.testing.assert_allclose(p.grad, np.full((2, 3), 3.0 / norm))
        np.testing.assert_allclose(q.grad, np.full((2, 3), 3.0 / norm))
        assert store.grad_norm() == pytest.approx(1.0)

    def test_second_backward_leaves_sharing_leaf_alone(self):
        _, p, q = self._shared_pair()
        T.tsum(T.mul(p, 2.0)).backward()
        np.testing.assert_array_equal(p.grad, np.full((2, 3), 5.0))
        np.testing.assert_array_equal(q.grad, np.full((2, 3), 3.0))

    def test_caller_gradient_is_not_written(self):
        store = ParameterStore()
        p = store.get("p", (3,), lambda s: np.ones(s))
        q = store.get("q", (3,), lambda s: np.ones(s))
        seed = np.array([3.0, 4.0, 0.0])
        T.add(p, q).backward(seed)
        T.add(p, q).backward(seed)
        store.clip_gradients(1.0)
        np.testing.assert_array_equal(seed, [3.0, 4.0, 0.0])
        np.testing.assert_allclose(p.grad, seed / np.linalg.norm(np.r_[seed, seed]))


def tmax_loop(rows, nodes, counts):
    """One dense similarity and one ``tmax`` per image's block of node
    rows, stacked: the reference ``max_similarity`` must reproduce."""
    bounds = np.cumsum([0, *counts])
    return T.stack([T.tmax(T.matmul(rows, T.swapaxes(nodes[bounds[b]:bounds[b + 1]], -1, -2)),
                           axis=-1) for b in range(len(counts))], axis=1)


class TestMaxSimilarity:
    @staticmethod
    def grads(op, rows, node_mats, weights):
        ts = [Tensor(rows, requires_grad=True),
              Tensor(np.concatenate(node_mats), requires_grad=True)]
        out = op(ts[0], ts[1], [len(m) for m in node_mats])
        T.tsum(T.mul(out, weights)).backward()
        return out.data, [t.grad for t in ts]

    def test_matches_tmax_loop(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(7, 4))
        node_mats = [rng.normal(size=(v, 4)) for v in (1, 5, 3)]
        weights = rng.normal(size=(7, 3))
        out, grads = self.grads(T.max_similarity, rows, node_mats, weights)
        ref_out, ref_grads = self.grads(tmax_loop, rows, node_mats, weights)
        np.testing.assert_array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-14)

    def test_tie_grad_goes_to_first_maximum(self):
        rows = np.array([[1.0, 0.0],
                         [0.0, 1.0]])
        # row 0 ties on nodes 1 and 2 of the first image, every row ties in the second
        node_mats = [np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]),
                     np.array([[1.0, 1.0], [1.0, 1.0]])]
        weights = np.array([[1.0, -2.0],
                            [3.0, 4.0]])
        out, (g_rows, g_nodes) = self.grads(T.max_similarity, rows, node_mats, weights)
        np.testing.assert_array_equal(out, [[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(g_rows, [[-1.0, -2.0], [4.0, 7.0]])
        np.testing.assert_array_equal(g_nodes[:3], [[0.0, 3.0], [1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(g_nodes[3:], [[-2.0, 4.0], [0.0, 0.0]])
        _, ref_grads = self.grads(tmax_loop, rows, node_mats, weights)
        for g, ref in zip([g_rows, g_nodes], ref_grads):
            np.testing.assert_array_equal(g, ref)

    def test_gradcheck(self):
        rng = np.random.default_rng(12)
        arrays = [rng.normal(size=(5, 3)), rng.normal(size=(6, 3))]
        weights = rng.normal(size=(5, 2))
        check_grads(lambda r, m: T.tsum(T.mul(T.max_similarity(r, m, [4, 2]), weights)),
                    arrays)

    def test_image_reads_only_its_own_rows(self):
        # the second image's rows score higher for every row, yet the
        # first column reads only the first image's block
        rows = np.array([[1.0, 1.0]])
        nodes = np.concatenate([-np.ones((1, 2)), np.ones((3, 2))])
        out = T.max_similarity(Tensor(rows), Tensor(nodes), [1, 3])
        np.testing.assert_array_equal(out.data, [[-2.0, 2.0]])

    @pytest.mark.parametrize("counts, count", [([5, 1, 5, 3, 5], 11), ([1, 4, 1, 4, 4], 13)])
    def test_blocks_and_count_groups_match_tmax_loop(self, monkeypatch, counts, count):
        # a count recurs in three non-adjacent images next to 1-node
        # images, two of them in the second case; the repeated count's
        # rows span several blocks, and in the second case blocks of
        # _SCORE_BLOCK // 12 = 4 rows would leave one row over
        monkeypatch.setattr(T, "_SCORE_BLOCK", 4 * sum(counts))
        width = counts.count(counts[-1]) * counts[-1]
        assert len(T._row_blocks(count, width)) >= 3
        assert T._row_blocks(count, width)[0].stop == 3
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(count, 3))
        node_mats = [rng.normal(size=(v, 3)) for v in counts]
        # rows 2 and 3, either side of the first block edge, tie on the
        # first repeated image's nodes 1 and 3, and on the last one's 0 and 2
        tied = [b for b, v in enumerate(counts) if v == counts[-1]]
        for b, (first, second) in ((tied[0], (1, 3)), (tied[-1], (0, 2))):
            node_mats[b][first] = node_mats[b][second] = [10.0, 10.0, 10.0]
        rows[2:4] = np.abs(rows[2:4])
        weights = rng.normal(size=(count, len(counts)))
        out, grads = self.grads(T.max_similarity, rows, node_mats, weights)
        ref_out, ref_grads = self.grads(tmax_loop, rows, node_mats, weights)
        # equal up to the summation order BLAS picks for each product's shape
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-14)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-14)
        # the second of each tied pair gets nothing
        bounds = np.cumsum([0, *counts])
        np.testing.assert_array_equal(grads[1][[bounds[tied[0]] + 3, bounds[tied[-1]] + 2]], 0.0)

    def test_forward_memory_stays_within_one_block(self):
        # one image's dense (R, V_b) scores are 9.6 MB, several blocks' worth
        rng = np.random.default_rng(14)
        rows, nodes = Tensor(rng.normal(size=(4000, 4))), Tensor(rng.normal(size=(600, 4)))
        dense = rows.shape[0] * 300 * 8
        assert dense > 3 * 8 * T._SCORE_BLOCK
        tracemalloc.start()
        try:
            T.max_similarity(rows, nodes, [300, 300])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense

    def test_counts_must_fit(self):
        nodes = Tensor(np.ones((6, 2)))
        for counts in ([3, 4], [5], [6, 0], []):
            with pytest.raises(ValueError, match="node counts"):
                T.max_similarity(Tensor(np.ones((1, 2))), nodes, counts)

    def test_nan_row_trips_error(self):
        rows = Tensor(np.ones((3, 2)))
        rows.data[1, 0] = np.nan
        with pytest.raises(FloatingPointError):
            T.max_similarity(rows, Tensor(np.concatenate([np.eye(2), np.ones((4, 2))])), [2, 4])


def add_at(shape, key, g):
    """``np.add.at`` into zeros: the reference for ``T._scatter_add``."""
    full = np.zeros(shape)
    np.add.at(full, key, g)
    return full


@st.composite
def gather_keys(draw):
    """An array shape and a key into it: slices, repeated integer
    arrays, broadcast index pairs, boolean masks, scalar ints, and
    empty selections among them."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    length = draw(st.integers(0, 6))   # index arrays of one key broadcast together

    def index(n):
        return np.array(draw(st.lists(st.integers(-n, n - 1), min_size=length,
                                      max_size=length)), dtype=np.intp)

    def part(n):
        kind = draw(st.sampled_from(["slice", "ints", "int"]))
        if kind == "slice":
            return slice(draw(st.integers(-n, n)), draw(st.integers(-n, n)),
                         draw(st.sampled_from([1, 2, -1])))
        return index(n) if kind == "ints" else draw(st.integers(-n, n - 1))

    kind = draw(st.sampled_from(["parts", "pair", "mask", "lead_pair"]))
    if kind == "mask":
        return shape, np.array(draw(st.lists(st.booleans(), min_size=shape[0],
                                             max_size=shape[0])))
    if kind == "pair" and len(shape) >= 2:
        return shape, (index(shape[0])[:, None], index(shape[1])[None, :])
    if kind == "lead_pair" and len(shape) == 3:
        # the chart's second-order gather: a slice, then paired index arrays
        rows = index(shape[1])
        return shape, (slice(None), rows, rows % shape[2])
    return shape, tuple(part(n) for n in shape)


class TestScatterAdd:
    @settings(max_examples=300, deadline=None)
    @given(gather_keys(), st.integers(0, 2**32 - 1))
    @example(((2, 3), (slice(None), np.array([], dtype=np.intp))), 0)
    def test_matches_add_at(self, shape_key, seed):
        shape, key = shape_key
        g = np.random.default_rng(seed).normal(size=np.zeros(shape)[key].shape)
        got = T._scatter_add(shape, key, g)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, add_at(shape, key, g))

    @pytest.mark.parametrize("key", [
        (np.array([4, 1, 4, 4, 0]),),
        (slice(None), np.array([[2, 0], [2, 2]])),
        (np.array([3, 3, 1])[:, None], np.array([1, 1])[None, :]),
    ])
    def test_row_keys_match_add_at_with_repeats(self, key):
        # keys that leave the last axis whole scatter per column, in
        # gather order: bit for bit what np.add.at sums
        shape = (5, 3, 4)
        assert T._rows_only(key, len(shape))
        g = np.random.default_rng(3).normal(size=np.zeros(shape)[key].shape)
        np.testing.assert_array_equal(T._scatter_add(shape, key, g), add_at(shape, key, g))

    def test_take_backward_sums_repeats(self):
        emb = Tensor(np.zeros((4, 2)), requires_grad=True)
        T.tsum(emb[np.array([3, 1, 3])]).backward()
        np.testing.assert_array_equal(emb.grad, [[0, 0], [1, 1], [0, 0], [2, 2]])
        col = Tensor(np.zeros((2, 3)), requires_grad=True)
        T.tsum(col[:, np.array([2, 2])]).backward()
        np.testing.assert_array_equal(col.grad, [[0, 0, 2], [0, 0, 2]])


class TestComposedNetwork:
    def test_three_layer_network_gradcheck(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 6))
        w1, b1 = rng.normal(size=(6, 8)), rng.normal(size=(8,))
        w2, b2 = rng.normal(size=(8, 8)), rng.normal(size=(8,))
        w3, b3 = rng.normal(size=(8, 3)), rng.normal(size=(3,))

        def loss(xt, w1t, b1t, w2t, b2t, w3t, b3t):
            h = T.mlp(xt, [(w1t, b1t), (w2t, b2t), (w3t, b3t)])
            return T.tsum(T.logsumexp(h, axis=-1))

        check_grads(loss, [x, w1, b1, w2, b2, w3, b3], rtol=1e-5, atol=1e-7)


def pair_mlp_chain(table, first, second, w1, b1, w2, b2):
    """The unfused tape chain ``pair_mlp`` stands for: two gathers, their
    concat, the concat's (rows, 2d) reshape, ``mlp`` and the reshape back."""
    rows = T.concat([table[first], table[second]], axis=-1)
    lead = rows.shape[:-1]
    out = T.mlp(T.reshape(rows, (-1, rows.shape[-1])), [(w1, b1), (w2, b2)])
    return T.reshape(out, lead + out.shape[-1:])


def l2_chain(a, axis=-1, eps=1e-12):
    """The unfused tape chain ``l2_normalize`` stands for."""
    norm = T.sqrt(T.add(T.tsum(T.mul(a, a), axis=axis, keepdims=True), eps))
    return T.div(a, norm)


def pattern_keys(n):
    """``pair_mlp``'s two keys into a (B, n, n, d) arc table, over every
    second-order pattern of an n-token sentence, as the model gathers them."""
    pos = pattern_index(n) - 1
    return ((slice(None), pos[:, 0, 0], pos[:, 0, 1]),
            (slice(None), pos[:, 1, 0], pos[:, 1, 1]))


class TestFusedOps:
    @staticmethod
    def run(op, arrays, weights, args=(), table_grad=True):
        """Forward value and every gradient of ``sum(op(...) * weights)``."""
        ts = [Tensor(x, requires_grad=table_grad or i > 0) for i, x in enumerate(arrays)]
        out = op(ts[0], *args, *ts[1:])
        T.tsum(T.mul(out, weights)).backward()
        return out.data, [t.grad for t in ts]

    @staticmethod
    def mlp_inputs(rng, batch, n, dim=32, hidden=32):
        table = rng.normal(size=(batch, n, n, dim))
        return [table, rng.uniform(-0.2, 0.2, (2 * dim, hidden)), rng.normal(size=hidden) * 0.1,
                rng.uniform(-0.2, 0.2, (hidden, dim)), rng.normal(size=dim) * 0.1]

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("table_grad", [True, False])
    def test_pair_mlp_bitwise_equals_chain(self, n, table_grad):
        rng = np.random.default_rng(20 + n)
        arrays = self.mlp_inputs(rng, 16, n)
        first, second = pattern_keys(n)
        weights = rng.normal(size=(16, len(pattern_index(n)), 32))
        out, grads = self.run(T.pair_mlp, arrays, weights, (first, second), table_grad)
        ref_out, ref_grads = self.run(pair_mlp_chain, arrays, weights, (first, second),
                                      table_grad)
        assert out.shape == (16, len(pattern_index(n)), 32)
        np.testing.assert_array_equal(out, ref_out)
        assert (grads[0] is None) == (not table_grad)
        for g, ref in zip(grads, ref_grads):
            assert (g is None and ref is None) or np.array_equal(g, ref)

    @pytest.mark.parametrize("rows", [16 * 18, 16 * 1180])   # B * C at n = 3 and n = 10
    def test_l2_normalize_bitwise_equals_chain(self, rows):
        rng = np.random.default_rng(rows)
        a = rng.normal(size=(rows, 32))
        weights = rng.normal(size=(rows, 32))
        out, grads = self.run(T.l2_normalize, [a], weights)
        ref_out, ref_grads = self.run(l2_chain, [a], weights)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(grads[0], ref_grads[0])

    def test_pair_mlp_gradcheck(self):
        rng = np.random.default_rng(23)
        arrays = self.mlp_inputs(rng, 2, 3, dim=3, hidden=4)
        first, second = pattern_keys(3)
        # keep every pre-activation off the relu kink
        left, right = arrays[0][first], arrays[0][second]
        pre = np.concatenate([left, right], axis=-1) @ arrays[1] + arrays[2]
        assert np.abs(pre).min() > 1e-3
        weights = rng.normal(size=(2, len(pattern_index(3)), 3))
        check_grads(lambda *ts: T.tsum(T.mul(T.pair_mlp(ts[0], first, second, *ts[1:]),
                                             weights)), arrays)

    def test_non_finite_names_the_op(self):
        rng = np.random.default_rng(25)
        arrays = self.mlp_inputs(rng, 2, 3, dim=3, hidden=4)
        arrays[0][:] = 1e10
        arrays[1][0, 0] = 1e300     # finite, but its products overflow
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="from pair_mlp"):
                T.pair_mlp(*arrays[:1], *pattern_keys(3), *arrays[1:])
            with pytest.raises(FloatingPointError, match="from l2_normalize"):
                T.l2_normalize(Tensor([1e200, 1.0]))
            with pytest.raises(FloatingPointError, match="from log"):
                T.log(Tensor([-1.0, 1.0]))


def scalar_biaffine(us, vs, w1, w2, b) -> np.ndarray:
    """All-pairs u^T W1 v + (u+v)^T w2 + b through one output channel of
    biaffine_features: (n, d) x (m, d) -> (n, m)."""
    us, vs, w1, w2 = (np.asarray(a, dtype=float) for a in (us, vs, w1, w2))
    d = w1.shape[0]
    feats = T.biaffine_features(Tensor(us[None]), Tensor(vs[None]),
                                Tensor(w1.reshape(d, 1, d)), Tensor(w2.reshape(d, 1)),
                                Tensor([b]))
    return feats.numpy()[0, :, :, 0]


class TestBiaffine:
    def test_worked_example(self):
        out = scalar_biaffine([[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]],
                              [2.0, 3.0], 0.5)
        assert out[0, 0] == pytest.approx(6.5)

    def test_constant_when_weights_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            out = scalar_biaffine(rng.normal(size=(1, 4)), rng.normal(size=(1, 4)),
                                  np.zeros((4, 4)), np.zeros(4), 0.7)
            assert out[0, 0] == pytest.approx(0.7)

    def test_table_matches_scalar_loops(self):
        rng = np.random.default_rng(9)
        us, vs = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        w1, w2, b = rng.normal(size=(4, 4)), rng.normal(size=4), 0.3
        table = scalar_biaffine(us, vs, w1, w2, b)
        for i in range(3):
            for j in range(5):
                ref = us[i] @ w1 @ vs[j] + (us[i] + vs[j]) @ w2 + b
                assert table[i, j] == pytest.approx(ref)

    def test_features_match_scalar_loops(self):
        rng = np.random.default_rng(10)
        us, vs = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 4))
        w1, w2, b = rng.normal(size=(4, 6, 4)), rng.normal(size=(4, 6)), rng.normal(size=6)
        feats = T.biaffine_features(Tensor(us), Tensor(vs), Tensor(w1),
                                    Tensor(w2), Tensor(b)).numpy()
        for bi in range(2):
            for i in range(3):
                for j in range(5):
                    ref = np.array([us[bi, i] @ w1[:, c, :] @ vs[bi, j] for c in range(6)])
                    ref += us[bi, i] @ w2 + vs[bi, j] @ w2 + b
                    np.testing.assert_allclose(feats[bi, i, j], ref, rtol=1e-10)

    def test_features_gradcheck(self):
        rng = np.random.default_rng(11)
        us, vs = rng.normal(size=(1, 2, 3)), rng.normal(size=(1, 2, 3))
        w1, w2, b = rng.normal(size=(3, 2, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)

        def loss(*ts):
            return T.tsum(T.biaffine_features(*ts))

        check_grads(loss, [us, vs, w1, w2, b], rtol=1e-5, atol=1e-7)


class TestAttention:
    def test_single_key_returns_value(self):
        q = Tensor(np.random.default_rng(0).normal(size=(1, 2, 4)))
        k = Tensor(np.random.default_rng(1).normal(size=(1, 1, 4)))
        v = Tensor(np.random.default_rng(2).normal(size=(1, 1, 4)))
        out = T.attention(q, k, v)
        np.testing.assert_allclose(out.numpy()[0, 0], v.numpy()[0, 0], rtol=1e-12)
        np.testing.assert_allclose(out.numpy()[0, 1], v.numpy()[0, 0], rtol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        logits = T.mul(T.matmul(Tensor(rng.normal(size=(2, 3, 4))),
                                T.swapaxes(Tensor(rng.normal(size=(2, 5, 4))), -1, -2)), 0.5)
        w = T.softmax(logits, axis=-1)
        np.testing.assert_allclose(w.numpy().sum(-1), 1.0, atol=1e-6)

    def test_mask_excludes_padded_keys(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.normal(size=(1, 1, 4)))
        k = Tensor(rng.normal(size=(1, 3, 4)))
        v = Tensor(rng.normal(size=(1, 3, 4)))
        mask = np.zeros((1, 1, 3))
        mask[:, :, 2] = -1e30
        out = T.attention(q, k, v, mask)
        k2 = Tensor(k.numpy()[:, :2])
        v2 = Tensor(v.numpy()[:, :2])
        np.testing.assert_allclose(out.numpy(), T.attention(q, k2, v2).numpy(), rtol=1e-12)

    def test_mlp_identity(self):
        x = Tensor(np.array([[0.5, 1.5], [2.0, 0.0]]))
        eye = Tensor(np.eye(2))
        zero = Tensor(np.zeros(2))
        out = T.mlp(x, [(eye, zero), (eye, zero)])
        np.testing.assert_allclose(out.numpy(), x.numpy())


class TestAdam:
    def _store(self):
        store = ParameterStore()
        store.get("w", (3,), lambda s: np.array([1.0, -2.0, 0.5]))
        return store

    def test_zero_grad_no_change(self):
        store = self._store()
        store["w"].grad = np.zeros(3)
        before = store["w"].data.copy()
        adam_step(store)
        np.testing.assert_array_equal(store["w"].data, before)

    def test_first_step_magnitude(self):
        store = self._store()
        store["w"].grad = np.array([0.2, -3.0, 1.0])
        adam_step(store, lr=0.01, eps=1e-12)
        delta = store["w"].data - np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(np.abs(delta), 0.01, rtol=1e-6)
        assert np.sign(delta[1]) == 1.0

    def test_quadratic_decreases(self):
        store = ParameterStore()
        w = store.get("w", (2,), lambda s: np.array([3.0, -4.0]))

        def loss_value():
            return float((w.data ** 2).sum())

        start = loss_value()
        for _ in range(50):
            store.zero_grad()
            w.grad = 2 * w.data
            adam_step(store, lr=0.1)
        assert loss_value() < start

    def test_clip_gradients(self):
        store = self._store()
        store["w"].grad = np.array([30.0, 40.0, 0.0])
        norm, clipped = store.clip_gradients(5.0)
        assert norm == pytest.approx(50.0) and clipped
        assert store.grad_norm() == pytest.approx(5.0)
        assert store.clip_gradients(5.0) == (pytest.approx(5.0), False)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        store.get("a.w", (3, 2), lambda s: rng.normal(size=s))
        store.get("b", (4,), lambda s: rng.normal(size=s))
        path = os.path.join(tmp_path, "ckpt.bin")
        T.save_checkpoint(path, store, "digest123")
        params, digest = T.load_checkpoint(path)
        assert digest == "digest123"
        assert list(params) == ["a.w", "b"]
        for name in params:
            np.testing.assert_allclose(params[name], store[name].data, atol=1e-6)

    def test_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "junk.bin")
        with open(path, "wb") as f:
            f.write(b"nope")
        with pytest.raises(ValueError):
            T.load_checkpoint(path)

    @staticmethod
    def _saved(tmp_path):
        store = ParameterStore()
        rng = np.random.default_rng(1)
        store.get("a", (2, 3), lambda s: rng.normal(size=s))
        store.get("b", (4,), lambda s: rng.normal(size=s))
        path = os.path.join(tmp_path, "ckpt.bin")
        T.save_checkpoint(path, store, "d")
        with open(path, "rb") as f:
            return path, f.read()

    def test_truncated_file_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        for cut in (6, len(raw) // 2, len(raw) - 1):
            with open(path, "wb") as f:
                f.write(raw[:cut])
            with pytest.raises(ValueError, match=f"{path}: truncated"):
                T.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw = self._saved(tmp_path)
        with open(path, "wb") as f:
            f.write(raw + b"\0")
        with pytest.raises(ValueError, match=f"{path}: 1 trailing bytes"):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path, raw = self._saved(tmp_path)
        with open(path, "wb") as f:   # the last float32 is b's last entry
            f.write(raw[:-4] + np.array([value], dtype="<f4").tobytes())
        with pytest.raises(ValueError, match=f"{path}: non-finite values in parameter b"):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("values,message", [
        ({"a": np.zeros((2, 3))}, "missing"),
        ({"a": np.zeros((2, 3)), "b": np.zeros(4), "c": np.zeros(1)}, "unknown"),
        ({"a": np.zeros((2, 3)), "b": np.zeros(5)}, "shape mismatch for b"),
    ])
    def test_load_values_all_or_nothing(self, values, message):
        store = ParameterStore()
        store.get("a", (2, 3), lambda s: np.ones(s))
        store.get("b", (4,), lambda s: np.ones(s))
        with pytest.raises(ValueError, match=message):
            store.load_values(values)
        assert (store["a"].data == 1.0).all() and (store["b"].data == 1.0).all()

    def test_determinism(self, tmp_path):
        paths = []
        for run in range(2):
            store = ParameterStore()
            rng = np.random.default_rng(7)
            w = store.get("w", (4, 4), lambda s: rng.normal(size=s))
            for _ in range(5):
                store.zero_grad()
                T.tsum(T.mul(T.matmul(w, w), 0.1)).backward()
                store.clip_gradients(5.0)
                adam_step(store)
            p = os.path.join(tmp_path, f"run{run}.bin")
            T.save_checkpoint(p, store)
            paths.append(p)
        with open(paths[0], "rb") as f0, open(paths[1], "rb") as f1:
            assert f0.read() == f1.read()
