import math

import numpy as np
import pytest

import vgram.tensor as T
from vgram import chart
from vgram.core import (
    NodeType,
    SceneGraph,
    SGAttribute,
    SGObject,
    Token,
)
from vgram.metrics import resolve_node
from vgram.model import (
    ATTENTION_MASK,
    Model,
    ModelConfig,
    SentenceBatch,
    VisualNode,
    arc_index,
    pattern_index,
)
from vgram.tensor import Tensor

DIM = 8


def make_model(vocab_size=6, identity=True, seed=0, vectors=None, **kw):
    cfg = ModelConfig(tag_count=3, word_dim=DIM, tag_dim=4, hidden_dim=DIM,
                      feat_dim=DIM, match_dim=DIM, arc_hidden=6, second_hidden=6,
                      dec_tag_dim=4, dec_hidden=8, identity_init=identity,
                      seed=seed, **kw)
    if vectors is None:
        rng = np.random.default_rng(42)
        vectors = rng.normal(size=(vocab_size, DIM))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    vocab = [f"word{i}" for i in range(len(vectors))]
    return Model(cfg, vocab, vectors), vocab, vectors


def regions_for(vectors, idxs):
    return [((100.0 * k, 0.0, 100.0 * k + 90.0, 90.0), vectors[i])
            for k, i in enumerate(idxs)]


def toy_batch(model, vectors, sentences):
    """sentences: list of (word indices, tag ids)."""
    node_sets, word_ids, tag_ids, sids = [], [], [], []
    for k, (widx, tags) in enumerate(sentences):
        node_sets.append(model.build_visual_nodes(f"img{k}", regions_for(vectors, widx)))
        word_ids.append([i + 1 for i in widx])
        tag_ids.append(tags)
        sids.append(f"s{k}")
    return SentenceBatch(word_ids=np.array(word_ids), tag_ids=np.array(tag_ids),
                         node_sets=node_sets, sentence_ids=sids)


class TestVisualNodes:
    def test_node_count_m50(self):
        model, _, _ = make_model()
        rng = np.random.default_rng(0)
        regions = [((10.0 * k, 0.0, 10.0 * k + 9.0, 9.0), rng.normal(size=DIM))
                   for k in range(50)]
        ns = model.build_visual_nodes("img", regions)
        assert len(ns) == 50 * 50 + 50 + 1 == 2551

    def test_node_count_m1(self):
        model, _, vectors = make_model()
        ns = model.build_visual_nodes("img", regions_for(vectors, [0]))
        kinds = [n.type for n in ns.nodes]
        assert len(ns) == 3
        assert kinds.count(NodeType.RELATIONSHIP) == 0

    def test_nodes_built_on_first_read_in_canonical_order(self):
        model, _, vectors = make_model()
        ns = model.build_visual_nodes("img", regions_for(vectors, [0, 1, 2]))
        assert len(ns) == 13 and ns._nodes is None
        assert [nd.id for nd in ns.nodes] == [
            "obj:0", "obj:1", "obj:2", "attr:0", "attr:1", "attr:2",
            "rel:0:1", "rel:0:2", "rel:1:0", "rel:1:2", "rel:2:0", "rel:2:1", "img"]
        assert ns.nodes is ns.nodes and len(ns) == 13

    @staticmethod
    def canonical_nodes(boxes):
        """The canonical proposal nodes written out: objects, attributes,
        ordered pairs row-major, the image node over the union box."""
        m = len(boxes)
        nodes = [VisualNode(f"obj:{k}", NodeType.OBJECT, box=boxes[k]) for k in range(m)]
        for k in range(m):
            nodes.append(VisualNode(f"attr:{k}", NodeType.ATTRIBUTE, box=boxes[k],
                                    owner=f"obj:{k}"))
        for i in range(m):
            for j in range(m):
                if i != j:
                    nodes.append(VisualNode(f"rel:{i}:{j}", NodeType.RELATIONSHIP,
                                            endpoints=(boxes[i], boxes[j]),
                                            src=f"obj:{i}", dst=f"obj:{j}"))
        union = (min(b[0] for b in boxes), min(b[1] for b in boxes),
                 max(b[2] for b in boxes), max(b[3] for b in boxes))
        nodes.append(VisualNode("img", NodeType.OBJECT, box=union))
        return nodes

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_node_view_matches_canonical_list(self, m):
        model, _, _ = make_model()
        rng = np.random.default_rng(m)
        boxes = [(float(x), float(y), float(x + w), float(y + h)) for x, y, w, h
                 in rng.integers(1, 50, size=(m, 4))]
        ns = model.build_visual_nodes("img", [(b, rng.normal(size=DIM)) for b in boxes])
        expected = self.canonical_nodes(boxes)
        view = ns.nodes
        assert view is ns.nodes and not isinstance(view, list)
        assert len(view) == len(ns) == len(expected) == m * m + m + 1
        for k, node in enumerate(expected):
            assert view[k] == node, k
            assert view[k - len(expected)] == node, k
        assert list(view) == expected
        with pytest.raises(IndexError):
            view[len(expected)]
        rel = [k for k, nd in enumerate(expected) if nd.type is NodeType.RELATIONSHIP]
        assert ns.relationship_indices().tolist() == rel
        # the evaluation side reads the same naming scheme back
        for node in view:
            ref = resolve_node(node.id, None, boxes)
            assert ref is not None and ref.type is node.type, node.id
            if node.type is NodeType.RELATIONSHIP:
                assert ref.endpoints == node.endpoints, node.id
            else:
                assert ref.box == node.box, node.id

    def test_node_view_two_regions_literal(self):
        model, _, vectors = make_model()
        b0, b1 = (0.0, 0.0, 90.0, 90.0), (100.0, 0.0, 190.0, 90.0)
        ns = model.build_visual_nodes("img", regions_for(vectors, [0, 1]))
        assert list(ns.nodes) == [
            VisualNode("obj:0", NodeType.OBJECT, box=b0),
            VisualNode("obj:1", NodeType.OBJECT, box=b1),
            VisualNode("attr:0", NodeType.ATTRIBUTE, box=b0, owner="obj:0"),
            VisualNode("attr:1", NodeType.ATTRIBUTE, box=b1, owner="obj:1"),
            VisualNode("rel:0:1", NodeType.RELATIONSHIP, endpoints=(b0, b1),
                       src="obj:0", dst="obj:1"),
            VisualNode("rel:1:0", NodeType.RELATIONSHIP, endpoints=(b1, b0),
                       src="obj:1", dst="obj:0"),
            VisualNode("img", NodeType.OBJECT, box=(0.0, 0.0, 190.0, 90.0))]

    def test_dummy_is_mean_of_objects(self):
        model, _, _ = make_model()
        f = np.ones(DIM)
        regions = [((0.0, 0.0, 9.0, 9.0), f), ((10.0, 0.0, 19.0, 9.0), -f)]
        ns = model.build_visual_nodes("img", regions)
        feats, _ = model._pad_nodes([ns])
        np.testing.assert_allclose(feats.numpy()[-1], np.zeros(DIM))

    def test_empty_regions_rejected(self):
        model, _, _ = make_model()
        with pytest.raises(ValueError, match="empty region"):
            model.build_visual_nodes("img", [])

    def test_dim_mismatch_rejected(self):
        model, _, _ = make_model()
        with pytest.raises(ValueError, match="feature dim"):
            model.build_visual_nodes("img", [((0, 0, 1, 1), np.ones(DIM + 1))])


class TestEncoder:
    def test_identity_residual_passthrough(self):
        # zero value projections: contexts equal the word embeddings
        model, _, vectors = make_model(identity=True)
        ns = model.build_visual_nodes("img", regions_for(vectors, [0, 1]))
        ctx, summary = model.encode(np.array([[1, 2]]), np.array([[0, 1]]),
                                    model._pad_nodes([ns]))
        np.testing.assert_allclose(ctx.numpy()[0, 0], vectors[0], atol=1e-12)
        np.testing.assert_allclose(ctx.numpy()[0, 1], vectors[1], atol=1e-12)
        np.testing.assert_allclose(summary.numpy()[0], vectors[:2].mean(0), atol=1e-12)

    def test_single_node_attention_weight_one(self):
        model, _, vectors = make_model(identity=False, seed=3)
        # one live node and one masked slot: the softmax degenerates to
        # weight 1 on the live node
        feats = Tensor(vectors[0:1])
        mask = np.array([[[0.0, ATTENTION_MASK]]])
        ctx, _ = model.encode(np.array([[1]]), np.array([[0]]), (feats, mask))
        w = T.take(model.store["embed.word"], np.array([1]))
        g = T.take(model.store["embed.tag"], np.array([0]))
        inputs = T.linear(T.concat([w, g], axis=1), model.store["enc.in.w"],
                          model.store["enc.in.b"])
        value = T.matmul(Tensor(vectors[0:1]), model.store["enc.attn.v"])
        np.testing.assert_allclose(ctx.numpy()[0, 0],
                                   (inputs.numpy() + value.numpy())[0], atol=1e-12)

    def test_unknown_word_uses_unk_row(self):
        model, _, _ = make_model()
        assert model.word_id("never-seen") == 0


class TestDecoder:
    def test_distributions_normalized(self):
        model, _, vectors = make_model(identity=False, seed=1)
        ns = model.build_visual_nodes("img", regions_for(vectors, [0, 1, 2, 3]))
        tags = np.array([[0, 0, 1, 2]])
        _, summary = model.encode(np.array([[1, 2, 3, 4]]), tags, model._pad_nodes([ns]))
        attach, stop, cont, root = model.decoder_scores(tags, summary)
        np.testing.assert_allclose(np.exp(stop.numpy()[0, 1:]) + np.exp(cont.numpy()[0, 1:]),
                                   1.0, atol=1e-6)
        # head position 1 has right dependents of every tag exactly once,
        # so the gathered child log-probabilities must sum to one
        right = np.exp(attach.numpy()[0, 1, 2:]).sum()
        assert right == pytest.approx(1.0, abs=1e-6)
        # root scores are log-probabilities over tags; the three distinct
        # tags cover the vocabulary of gathered values consistently
        scores = model.sentence_scores([0, 0, 1, 2], summary)
        assert np.isfinite(scores.root[1:]).all()

    def test_deterministic_given_tags_and_summary(self):
        model, _, vectors = make_model(identity=False, seed=2)
        ns = model.build_visual_nodes("img", regions_for(vectors, [0, 1]))
        _, summary = model.encode(np.array([[1, 2]]), np.array([[0, 1]]),
                                  model._pad_nodes([ns]))
        s1 = model.sentence_scores([0, 1], summary)
        s2 = model.sentence_scores([0, 1], summary)
        np.testing.assert_array_equal(s1.attach, s2.attach)
        np.testing.assert_array_equal(s1.root, s2.root)

    def test_tag_out_of_vocabulary(self):
        model, _, vectors = make_model()
        ns = model.build_visual_nodes("img", regions_for(vectors, [0]))
        _, summary = model.encode(np.array([[1]]), np.array([[0]]), model._pad_nodes([ns]))
        with pytest.raises(ValueError, match="tag id"):
            model.decoder_scores(np.array([[7]]), summary)


def mle(model, batch) -> float:
    return model.total_loss(batch, lambda_cl=0.0)[0].item()


def contrastive(model, batch) -> float:
    return model.total_loss(batch, lambda_cl=1.0)[0].item()


class TestLosses:
    def test_single_token_mle_is_root_plus_stops(self):
        model, _, vectors = make_model(identity=False, seed=4)
        batch = toy_batch(model, vectors, [([0], [1])])
        _, summary = model.encode(batch.word_ids, batch.tag_ids,
                                  model._pad_nodes(batch.node_sets))
        scores = model.sentence_scores([1], summary)
        expected = -(scores.root[1] + scores.stop[1, 0, 0] + scores.stop[1, 1, 0])
        assert mle(model, batch) == pytest.approx(expected, abs=1e-9)

    def test_mle_matches_reference_chart(self):
        model, _, vectors = make_model(identity=False, seed=5)
        batch = toy_batch(model, vectors, [([0, 1, 2], [0, 1, 2])])
        _, summary = model.encode(batch.word_ids, batch.tag_ids,
                                  model._pad_nodes(batch.node_sets))
        scores = model.sentence_scores([0, 1, 2], summary)
        ref = np.logaddexp.reduce([chart.score_tree(scores, t)
                                   for t in chart.enumerate_projective_trees(3)])
        assert mle(model, batch) == pytest.approx(-ref, abs=1e-9)

    def test_mle_nonnegative(self):
        model, _, vectors = make_model(identity=False, seed=6)
        batch = toy_batch(model, vectors, [([0, 1], [0, 1]), ([2, 3], [1, 2])])
        assert mle(model, batch) >= 0.0

    def test_contrastive_symmetric_batch(self):
        # identical node sets for both images: every context scores the
        # two images equally, so each term is ln 2
        model, _, vectors = make_model(identity=True)
        batch = toy_batch(model, vectors, [([0, 1], [0, 1]), ([0, 1], [0, 1])])
        loss = contrastive(model, batch)
        n = 2
        contexts = n + n * (n - 1)  # no second order below length 3
        assert loss == pytest.approx(contexts * math.log(2.0), rel=1e-9)

    def test_negative_permutation_invariance(self):
        model, _, vectors = make_model(identity=False, seed=7)
        sents = [([0, 1], [0, 1]), ([2, 3], [1, 2]), ([4, 5], [2, 0])]
        base = contrastive(model, toy_batch(model, vectors, sents))
        perm = [sents[0], sents[2], sents[1]]
        swapped = contrastive(model, toy_batch(model, vectors, perm))
        assert base == pytest.approx(swapped, rel=1e-9)

    def test_total_loss_blend(self):
        model, _, vectors = make_model(identity=False, seed=8)
        batch = toy_batch(model, vectors, [([0, 1, 2], [0, 1, 2]),
                                           ([3, 4, 5], [1, 2, 0])])
        total0, mle0, _ = model.total_loss(batch, lambda_cl=0.0)
        assert total0.item() == pytest.approx(mle0)
        total1, _, cl1 = model.total_loss(batch, lambda_cl=1.0)
        assert total1.item() == pytest.approx(cl1)
        total_half, mle_h, cl_h = model.total_loss(batch, lambda_cl=0.5)
        assert total_half.item() == pytest.approx(0.5 * mle_h + 0.5 * cl_h, rel=1e-9)

    def test_lambda_out_of_range(self):
        model, _, vectors = make_model()
        batch = toy_batch(model, vectors, [([0, 1], [0, 1]), ([2, 3], [1, 2])])
        with pytest.raises(ValueError, match="lambda"):
            model.total_loss(batch, lambda_cl=1.5)


def tmax_loop(rows, nodes, counts):
    """The contrastive image column as one dense similarity and one
    ``tmax`` per image: the reference for ``T.max_similarity``."""
    bounds = np.cumsum([0, *counts])
    return T.stack([T.tmax(Model.similarity(rows, nodes[bounds[b]:bounds[b + 1]]), axis=-1)
                    for b in range(len(counts))], axis=1)


def pad_nodes_loop(model, node_sets):
    """Each image's node features built on their own and concatenated,
    with the mask padded one image at a time: the reference for the
    batched ``Model._pad_nodes``."""
    store = model.store
    vmax = max(len(ns) for ns in node_sets)
    images, mask = [], np.zeros((len(node_sets), 1, vmax))
    for b, ns in enumerate(node_sets):
        m = ns.regions
        obj = Tensor(ns.rows[:m])
        parts = [obj, T.mlp(obj, [(store["vis.attr.w1"], store["vis.attr.b1"]),
                                  (store["vis.attr.w2"], store["vis.attr.b2"])])]
        if m > 1:
            rel = T.biaffine_features(T.reshape(obj, (1, m, -1)), T.reshape(obj, (1, m, -1)),
                                      store["vis.rel.w1"], store["vis.rel.w2"],
                                      store["vis.rel.b"])[0]
            pairs = arc_index(m) - 1
            parts.append(rel[pairs[:, 0], pairs[:, 1]])
        parts.append(T.tmean(obj, axis=0, keepdims=True))
        images.append(T.concat(parts, axis=0))
        mask[b, 0, len(ns):] = ATTENTION_MASK
    return T.concat(images, axis=0), mask


def random_batch(model, rng, n, bsz, regions=(1, 5)):
    """Random words, tags and region features; image b has a number of
    regions cycling through ``range(*regions)``, so node counts differ."""
    low, high = regions
    node_sets = []
    for b in range(bsz):
        feats = rng.normal(size=(low + b % (high - low), DIM))
        node_sets.append(model.build_visual_nodes(f"img{b}",
                                                  regions_for(feats, range(len(feats)))))
    vocab = len(model.vocab)
    return SentenceBatch(word_ids=rng.integers(0, vocab + 1, size=(bsz, n)),
                         tag_ids=rng.integers(0, model.config.tag_count, size=(bsz, n)),
                         node_sets=node_sets, sentence_ids=[f"s{b}" for b in range(bsz)])


def context_rows(n: int) -> int:
    """Tokens, arcs, chains and sibling pairs of one length-n sentence."""
    return len(arc_index(n)) + n + len(pattern_index(n))


def tape_tensors(loss: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``loss`` through the tape."""
    seen, order, stack = set(), [], [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            order.append(t)
            stack.extend(t._parents)
    return order


def tape_arrays(loss: Tensor):
    """Every array the tape holds from ``loss`` back: tensor values and
    arrays captured by backward closures."""
    for t in tape_tensors(loss):
        yield t.data
        for cell in (t._backward.__closure__ or ()) if t._backward else ():
            value = cell.cell_contents
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, np.ndarray):
                    yield item


CONTRASTIVE_CASES = [
    (10, 16, {}),
    (5, 4, {"normalize_sim": False}),
    (6, 5, {"second_order": False}),
]


class TestContrastiveMax:
    @staticmethod
    def loss_and_grads(model, n, bsz, regions=(1, 5)):
        batch = random_batch(model, np.random.default_rng(n), n, bsz, regions)
        assert len({len(ns) for ns in batch.node_sets}) > 1
        model.store.zero_grad()
        loss, _, _ = model.total_loss(batch)
        loss.backward()
        return loss.item(), {name: p.grad for name, p in model.store.items()
                             if p.grad is not None}

    def assert_same(self, model, monkeypatch, n, bsz, target, reference, regions=(1, 5)):
        loss, grads = self.loss_and_grads(model, n, bsz, regions)
        monkeypatch.setattr(*target, reference)
        ref_loss, ref_grads = self.loss_and_grads(model, n, bsz, regions)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        assert {"match.vis", "vis.rel.w1", "vis.attr.w1"} <= grads.keys()
        for name, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-10,
                                       err_msg=name)

    @pytest.mark.parametrize("n, bsz, options", CONTRASTIVE_CASES)
    def test_fused_op_matches_tmax_loop(self, monkeypatch, n, bsz, options):
        model, _, _ = make_model(vocab_size=12, identity=False, seed=n, **options)
        self.assert_same(model, monkeypatch, n, bsz, (T, "max_similarity"), tmax_loop)

    @pytest.mark.parametrize("n, bsz, options", CONTRASTIVE_CASES)
    def test_batched_nodes_match_per_image_build(self, monkeypatch, n, bsz, options):
        # 1-5 regions per image: an M = 1 image has no relationship rows
        # and is padded
        model, _, _ = make_model(vocab_size=12, identity=False, seed=n, **options)
        # the loss is blind to node order; the features in canonical order are not
        node_sets = random_batch(model, np.random.default_rng(n), n, bsz, (1, 6)).node_sets
        feats, mask = model._pad_nodes(node_sets)
        ref_feats, ref_mask = pad_nodes_loop(model, node_sets)
        np.testing.assert_array_equal(mask, ref_mask)
        np.testing.assert_allclose(feats.data, ref_feats.data, rtol=0, atol=1e-12)
        self.assert_same(model, monkeypatch, n, bsz, (Model, "_pad_nodes"), pad_nodes_loop,
                         regions=(1, 6))

    def test_pair_build_not_padded_to_largest_image(self, monkeypatch):
        # one 6-region image among 2-region ones: each biaffine call sees
        # one region count, and the pair rows total sum(M^2), not B * 36
        model, _, _ = make_model(vocab_size=12, identity=False, seed=2)
        batch = random_batch(model, np.random.default_rng(2), 3, 8, regions=(2, 3))
        batch.node_sets[3] = random_batch(model, np.random.default_rng(3), 3, 1,
                                          regions=(6, 7)).node_sets[0]
        shapes = []
        build = T.biaffine_features

        def recording(us, vs, *args):
            shapes.append(us.shape[:2])
            return build(us, vs, *args)

        monkeypatch.setattr(T, "biaffine_features", recording)
        feats, _ = model._pad_nodes(batch.node_sets)
        assert sorted(shapes) == [(1, 6), (7, 2)]
        ref, _ = pad_nodes_loop(model, batch.node_sets)
        np.testing.assert_allclose(feats.data, ref.data, rtol=0, atol=1e-12)

    def test_tape_size_independent_of_batch_size(self):
        # every visual-side op runs once per batch, not once per image
        model, _, _ = make_model(vocab_size=12, identity=False, seed=4)
        sizes = []
        for bsz in (2, 16):
            batch = random_batch(model, np.random.default_rng(4), 4, bsz, regions=(3, 4))
            loss, _, _ = model.total_loss(batch)
            sizes.append(len(tape_tensors(loss)))
        assert sizes[0] == sizes[1], sizes

    def test_no_dense_similarity_on_tape(self, monkeypatch):
        # One image's dense (B*C, V_b) similarity is the smallest array the
        # per-image loop puts on the tape; the fused op keeps none of them.
        n, bsz = 8, 16
        model, _, _ = make_model(vocab_size=12, identity=False, seed=3)
        batch = random_batch(model, np.random.default_rng(3), n, bsz, regions=(4, 7))
        limit = bsz * context_rows(n) * min(len(ns) for ns in batch.node_sets)
        loss, _, _ = model.total_loss(batch)
        assert max(a.size for a in tape_arrays(loss)) < limit
        monkeypatch.setattr(T, "max_similarity", tmax_loop)
        loss, _, _ = model.total_loss(batch)
        assert max(a.size for a in tape_arrays(loss)) >= limit


def nested_loop_indices(n):
    """Reference enumeration of candidate arcs and second-order patterns."""
    arcs = [(h, d) for h in range(1, n + 1) for d in range(1, n + 1) if h != d]
    patterns = [((g, h), (h, d)) for g in range(1, n + 1) for h in range(1, n + 1)
                for d in range(1, n + 1) if h != g and d not in (g, h)]
    for h in range(1, n + 1):
        deps = [d for d in range(1, n + 1) if d != h]
        patterns += [((h, deps[a]), (h, deps[b]))
                     for a in range(len(deps)) for b in range(a + 1, len(deps))]
    return arcs, patterns


class TestMatching:
    def test_self_similarity_one(self):
        model, _, _ = make_model()
        f = np.array([3.0, 4.0] + [0.0] * (DIM - 2))
        ns = model.build_visual_nodes("img", [((0.0, 0.0, 9.0, 9.0), f)])
        nodes = model.node_matrix(model._pad_nodes([ns])[0])
        assert np.linalg.norm(nodes.numpy(), axis=1) == pytest.approx(1.0)
        sim = model.similarity(model._unit(Tensor(f[None])), nodes).numpy()
        assert sim[0, 0] == pytest.approx(1.0)

    def test_zero_posterior_kills_score(self):
        model, _, _ = make_model()
        n = 3
        pairs, triples = arc_index(n), pattern_index(n)
        post = np.full((1, n + 1, n + 1), 0.5)
        post[0, 1, 2] = 0.0
        weights = model.context_weights(Tensor(post), n, pairs, triples).numpy()[0]
        assert weights[:n].tolist() == [1.0] * n
        arc_w, pattern_w = weights[n:n + len(pairs)], weights[n + len(pairs):]
        assert arc_w.tolist() == [0.0 if tuple(a) == (1, 2) else 0.5 for a in pairs]
        killed = [(1, 2) in map(tuple, t) for t in triples]
        assert pattern_w.tolist() == [0.0 if k else 0.25 for k in killed]

    def test_orthonormal_argmax(self):
        # contexts equal the one-hot word vectors; objects carry e2, e0, e1
        model, vocab, eye = make_model(vectors=np.eye(DIM)[:3])
        ns = model.build_visual_nodes("img", regions_for(eye, [2, 0, 1]))
        tokens = [Token(1, vocab[0], 0, vocab[0]), Token(2, vocab[1], 1, vocab[1])]
        align = model.ground(tokens, ns, heads=[0, 1])
        assert align.zero == {1: "obj:1", 2: "obj:2"}

    @pytest.mark.parametrize("n", range(9))
    def test_index_arrays_match_nested_loops(self, n):
        arcs, patterns = nested_loop_indices(n)
        assert arc_index(n).shape == (len(arcs), 2)
        assert [tuple(a) for a in arc_index(n).tolist()] == arcs
        assert pattern_index(n).shape == (len(patterns), 2, 2)
        assert [tuple(map(tuple, t)) for t in pattern_index(n).tolist()] == patterns


class TestInference:
    def test_single_token_parse(self):
        model, _, vectors = make_model()
        ns = model.build_visual_nodes("img", regions_for(vectors, [0]))
        tokens = [Token(1, "word0", 0, "word0")]
        tree, _ = model.parse(tokens, ns)
        assert tree.heads == (0,)

    def test_parse_deterministic(self):
        model, _, vectors = make_model(identity=False, seed=9)
        ns = model.build_visual_nodes("img", regions_for(vectors, [0, 1, 2]))
        tokens = [Token(i + 1, f"word{i}", i % 3, f"word{i}") for i in range(3)]
        t1, _ = model.parse(tokens, ns)
        t2, _ = model.parse(tokens, ns)
        assert t1.heads == t2.heads

    def test_length_cap(self):
        model, _, vectors = make_model()
        model.config.max_parse_len = 2
        ns = model.build_visual_nodes("img", regions_for(vectors, [0, 1, 2]))
        tokens = [Token(i + 1, "word0", 0, "word0") for i in range(3)]
        with pytest.raises(ValueError, match="exceeds"):
            model.parse(tokens, ns)

    def test_oracle_grounding_fixture(self):
        # visual node features equal the token contexts exactly
        model, vocab, vectors = make_model(identity=True)
        ns = model.build_visual_nodes("img", regions_for(vectors, [2, 4]))
        tokens = [Token(1, vocab[2], 0, vocab[2]), Token(2, vocab[4], 1, vocab[4])]
        align = model.ground(tokens, ns, heads=[0, 1])
        assert align.zero == {1: "obj:0", 2: "obj:1"}

    def test_ground_types_follow_node_identity(self):
        # an attribute node carrying the token's feature wins and types
        # the token ATTRIBUTE even though its box equals the owner's
        model, vocab, vectors = make_model(identity=True)
        sg = SceneGraph("img", (SGObject("o1", bbox=(0, 0, 9, 9), label="zzz"),),
                        (SGAttribute("attr1", owner="o1", label=vocab[3]),))
        ns = model.build_visual_nodes_gold(sg)
        tokens = [Token(1, vocab[3], 0, vocab[3])]
        align = model.ground(tokens, ns, heads=[0])
        assert align.zero[1] == "attr1"

    def test_tie_breaks_to_first_node(self):
        model, vocab, vectors = make_model(identity=True)
        regions = [((0.0, 0.0, 9.0, 9.0), vectors[1]),
                   ((10.0, 0.0, 19.0, 9.0), vectors[1])]
        ns = model.build_visual_nodes("img", regions)
        tokens = [Token(1, vocab[1], 0, vocab[1])]
        align = model.ground(tokens, ns, heads=[0])
        assert align.zero[1] == "obj:0"

    def test_scale_invariance_of_argmax(self):
        model, vocab, vectors = make_model(identity=True)
        tokens = [Token(1, vocab[0], 0, vocab[0]), Token(2, vocab[1], 1, vocab[1])]
        regions = regions_for(vectors, [0, 1])
        a1 = model.ground(tokens, model.build_visual_nodes("img", regions), heads=[0, 1])
        scaled = [(b, 7.5 * f) for b, f in regions]
        a2 = model.ground(tokens, model.build_visual_nodes("img", scaled), heads=[0, 1])
        assert a1.zero == a2.zero

    def test_parse_types_first_node_of_a_repeated_gold_id(self):
        # the image node's row, the mean of e0 and e1, matches word2 best;
        # it shares the id "img" with the graph's own attribute node, and
        # the first node of that id, the attribute, types the token
        eye = np.eye(DIM)
        vectors = np.stack([eye[0], eye[1], (eye[0] + eye[1]) / math.sqrt(2), eye[2]])
        model, vocab, _ = make_model(vectors=vectors)
        sg = SceneGraph("img", (SGObject("o1", bbox=(0, 0, 9, 9), label=vocab[0]),
                                SGObject("o2", bbox=(10, 0, 19, 9), label=vocab[1])),
                        (SGAttribute("img", owner="o1", label=vocab[3]),))
        ns = model.build_visual_nodes_gold(sg)
        assert [(nd.id, nd.type) for nd in ns.nodes] == [
            ("o1", NodeType.OBJECT), ("o2", NodeType.OBJECT),
            ("img", NodeType.ATTRIBUTE), ("img", NodeType.OBJECT)]
        tokens = [Token(1, vocab[2], 0, vocab[2]), Token(2, vocab[3], 1, vocab[3]),
                  Token(3, vocab[0], 2, vocab[0])]
        tree, align = model.parse(tokens, ns)
        assert align.zero == {1: "img", 2: "img", 3: "o1"}
        assert tree.types == (NodeType.ATTRIBUTE, NodeType.ATTRIBUTE, NodeType.OBJECT)

    def test_parse_types_follow_proposal_argmax(self):
        model, vocab, eye = make_model(vectors=np.eye(DIM)[:3])
        ns = model.build_visual_nodes("img", regions_for(eye, [2, 0, 1]))
        tokens = [Token(1, vocab[0], 0, vocab[0]), Token(2, vocab[1], 1, vocab[1])]
        tree, align = model.parse(tokens, ns)
        assert align.zero == {1: "obj:1", 2: "obj:2"}
        assert tree.types == (NodeType.OBJECT, NodeType.OBJECT)

    def test_first_alignment_restricted_to_relationships(self):
        model, vocab, vectors = make_model(identity=True)
        ns = model.build_visual_nodes("img", regions_for(vectors, [0, 1]))
        tokens = [Token(1, vocab[0], 0, vocab[0]), Token(2, vocab[1], 1, vocab[1])]
        align = model.ground(tokens, ns, heads=[0, 1])
        rel = align.first[(1, 2)]
        assert rel.relationship.startswith("rel:")
        assert rel.endpoints[0].startswith("obj:")


class TestNodeWork:
    """Parsing and grounding over proposals build O(n) node objects: the
    n token argmaxes and one relationship node per arc, never all
    M² + M + 1 nodes of the set (1641 at M = 40)."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        init = VisualNode.__init__

        def counting(node, *args, **kwargs):
            count[0] += 1
            init(node, *args, **kwargs)
        monkeypatch.setattr(VisualNode, "__init__", counting)
        return count

    @pytest.mark.parametrize("call", ["parse", "ground", "ground_gold_tree"])
    def test_forty_regions(self, built, call):
        model, vocab, _ = make_model(identity=False, seed=5)
        rng = np.random.default_rng(7)
        regions = [((10.0 * k, 0.0, 10.0 * k + 9.0, 9.0), rng.normal(size=DIM))
                   for k in range(40)]
        ns = model.build_visual_nodes("img", regions)
        n = 7
        tokens = [Token(i + 1, vocab[i % len(vocab)], i % 3, vocab[i % len(vocab)])
                  for i in range(n)]
        if call == "parse":
            _, align = model.parse(tokens, ns)
        else:
            heads = [0, 1, 1, 3, 3, 5, 6] if call == "ground_gold_tree" else None
            align = model.ground(tokens, ns, heads=heads)
        assert len(align.zero) == n and align.first
        assert 0 < built[0] <= 2 * n - 1, built[0]


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model, vocab, vectors = make_model(identity=False, seed=11)
        path = str(tmp_path / "m.bin")
        model.save(path, "digest-a")
        model2, _, _ = make_model(identity=False, seed=12)
        model2.load(path)
        for name in model.store.names():
            np.testing.assert_allclose(model2.store[name].data,
                                       model.store[name].data, atol=1e-6)

    def test_digest_mismatch(self, tmp_path):
        model, _, _ = make_model()
        path = str(tmp_path / "m.bin")
        model.save(path, "digest-a")
        with pytest.raises(ValueError, match="digest"):
            model.load(path, expect_digest="digest-b")


@pytest.mark.acceptance
def test_parse_recovers_near_deterministic_grammar():
    """With a decisively head-initial, near-deterministic generating
    grammar, training recovers at least 90% of the gold arcs."""
    from vgram.config import resolve, to_model_config
    from vgram.data import SynthConfig, SynthGrammar, synth_generate
    from vgram.metrics import dda_uda
    from vgram.train import Trainer, TrainSettings

    t, peak = 8, 0.97
    rng = np.random.default_rng(3)
    attach = np.full((t, 2, t), (1 - peak) / (t - 1))
    for tag in range(t):
        for d in (0, 1):
            attach[tag, d, rng.integers(t)] = peak
    attach /= attach.sum(-1, keepdims=True)
    stop = np.empty((t, 2, 2))
    stop[:, 0, :] = 0.97
    stop[:, 1, 0] = np.where(np.random.default_rng(4).random(t) < 0.6, 0.1, 0.9)
    stop[:, 1, 1] = 0.85
    root = np.full(t, (1 - peak) / (t - 1))
    root[rng.integers(t)] = peak
    root /= root.sum()
    grammar = SynthGrammar(attach=attach, stop=stop, root=root,
                           tagset=[f"NN{i}" for i in range(t)])

    synth = synth_generate(SynthConfig(sentences=800, dev_sentences=10,
                                       test_sentences=60, seed=1),
                           grammar=grammar)
    cfg = resolve()
    mc = to_model_config(cfg, tag_count=t, word_dim=32, feat_dim=32)
    model = Model(mc, synth.vocab, synth.embeddings)
    trainer = Trainer(model, synth.train, synth.features,
                      TrainSettings(epochs=6, lambda_cl=0.0, lr=2e-3))
    trainer.train()
    preds, gold = [], []
    for s in synth.test:
        ns = model.build_visual_nodes(s.image_id, synth.features[s.image_id])
        tree, _ = model.parse(s.tokens, ns, sentence_id=s.id)
        preds.append(list(tree.heads))
        gold.append(list(s.heads))
    dda, _ = dda_uda(preds, gold)
    assert dda >= 0.90, dda
