"""Acceptance suite: one test per shipped criterion.

Each test prints a PASS line with its measured numbers (run pytest -s
to watch them). The oracles here are deliberately independent of the
chart implementation: trees are enumerated and scored directly from the
generative story, vectorized only for speed.
"""

import time

import numpy as np
import pytest

import vgram.tensor as T
from vgram import chart
from vgram.chart import DmvScores, enumerate_projective_trees, random_scores
from vgram.config import resolve, to_model_config, to_synth_config
from vgram.core import (
    SceneGraph,
    SGAttribute,
    SGObject,
    SGRelationship,
    VLAlignment,
)
from vgram.data import SynthConfig, synth_generate
from vgram.dmv_graph import inside_outside
from vgram.metrics import (
    dda_uda,
    expected_random_dda,
    first_second_aa,
    iou,
    right_branching_heads,
    zero_aa,
)
from vgram.model import Model, SentenceBatch
from vgram.align import Similarity, align_sentence, load_rules
from vgram.train import Trainer, TrainSettings

pytestmark = pytest.mark.acceptance


class TreeOracle:
    """Vectorized brute-force scoring over the enumerated tree set."""

    def __init__(self, n: int):
        self.n = n
        trees = enumerate_projective_trees(n)
        self.trees = trees
        t = len(trees)
        self.roots = np.array([heads.index(0) + 1 for heads in trees])
        self.arc_h = np.zeros((t, max(n - 1, 1)), dtype=int)
        self.arc_d = np.zeros((t, max(n - 1, 1)), dtype=int)
        self.stop_counts = np.zeros((t, n + 1, 2, 2))
        self.cont_counts = np.zeros((t, n + 1, 2, 2))
        self.arc_matrix = np.zeros((t, (n + 1) * (n + 1)))
        for k, heads in enumerate(trees):
            arcs = [(heads[d - 1], d) for d in range(1, n + 1) if heads[d - 1] != 0]
            for a, (h, d) in enumerate(arcs):
                self.arc_h[k, a] = h
                self.arc_d[k, a] = d
            ndeps = np.zeros((n + 1, 2), dtype=int)
            for h, d in arcs:
                ndeps[h][1 if d > h else 0] += 1
            for h in range(1, n + 1):
                for direction in (0, 1):
                    deps = ndeps[h][direction]
                    if deps == 0:
                        self.stop_counts[k, h, direction, 0] = 1
                    else:
                        self.cont_counts[k, h, direction, 0] = 1
                        self.cont_counts[k, h, direction, 1] = deps - 1
                        self.stop_counts[k, h, direction, 1] = 1
            self.arc_matrix[k, 0 * (n + 1) + self.roots[k]] = 1
            for h, d in arcs:
                self.arc_matrix[k, h * (n + 1) + d] = 1

    def scores(self, s: DmvScores) -> np.ndarray:
        total = s.root[self.roots].copy()
        if self.n > 1:
            arc_scores = s.attach[self.arc_h, self.arc_d]
            arc_scores[self.arc_h == 0] = 0.0
            total += arc_scores.sum(axis=1)
        total += np.tensordot(self.stop_counts, s.stop, axes=3)
        total += np.tensordot(self.cont_counts, s.cont, axes=3)
        return total

    def log_partition(self, s: DmvScores) -> float:
        return float(np.logaddexp.reduce(self.scores(s)))

    def best(self, s: DmvScores) -> tuple[list, float]:
        scores = self.scores(s)
        k = int(np.argmax(scores))
        return self.trees[k], float(scores[k])

    def posteriors(self, s: DmvScores) -> np.ndarray:
        scores = self.scores(s)
        w = np.exp(scores - np.logaddexp.reduce(scores))
        return (w @ self.arc_matrix).reshape(self.n + 1, self.n + 1)


def test_criterion_1_chart_oracle_equivalence():
    start = time.perf_counter()
    counts = {n: len(enumerate_projective_trees(n)) for n in (1, 2, 3, 4)}
    assert counts == {1: 1, 2: 2, 3: 7, 4: 30}
    worst_z = worst_p = 0.0
    for n in range(1, 7):
        oracle = TreeOracle(n)
        rng = np.random.default_rng(1000 + n)
        for _ in range(200):
            s = random_scores(n, rng)
            log_z = chart.log_partition(s)
            worst_z = max(worst_z, abs(log_z - oracle.log_partition(s)))
            heads, score = chart.viterbi(s)
            best_heads, best_score = oracle.best(s)
            assert heads == best_heads
            assert abs(score - best_score) < 1e-9
            post = chart.arc_posteriors(s)
            worst_p = max(worst_p, float(np.abs(post - oracle.posteriors(s)).max()))
    elapsed = time.perf_counter() - start
    assert worst_z < 1e-9 and worst_p < 1e-9
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS chart oracle equivalence: max |logZ err| "
          f"{worst_z:.2e}, max |posterior err| {worst_p:.2e}, "
          f"tree counts {counts}, {elapsed:.1f}s")


def test_criterion_2_posterior_normalization():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        post = chart.arc_posteriors(random_scores(n, rng))
        worst = max(worst, float(np.abs(post[:, 1:].sum(axis=0) - 1.0).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    print(f"\n[criterion 2] PASS posterior normalization: worst deviation "
          f"{worst:.2e} over 1000 instances, {elapsed:.1f}s")


def _gradcheck_model():
    synth = synth_generate(SynthConfig(sentences=12, dev_sentences=2,
                                       test_sentences=2, max_len=4, min_len=4,
                                       dim=6, seed=9))
    cfg = resolve(overrides={"hidden_dim": "6", "match_dim": "6", "tag_dim": "4",
                             "arc_hidden": "5", "second_hidden": "5",
                             "dec_tag_dim": "4", "dec_hidden": "6",
                             "finetune_word_emb": "true"})
    mc = to_model_config(cfg, tag_count=8, word_dim=6, feat_dim=6)
    model = Model(mc, synth.vocab, synth.embeddings)
    group = [s for s in synth.train if len(s) == 4][:2]
    assert len(group) == 2
    node_sets = [model.build_visual_nodes(s.image_id, synth.features[s.image_id])
                 for s in group]

    def batch():
        return SentenceBatch(
            word_ids=np.stack([model.word_ids(s.tokens) for s in group]),
            tag_ids=np.stack([[t.pos for t in s.tokens] for s in group]),
            node_sets=[model.build_visual_nodes(s.image_id,
                                                synth.features[s.image_id])
                       for s in group],
            sentence_ids=[s.id for s in group])

    return model, batch, group


def test_criterion_3_gradient_integrity():
    start = time.perf_counter()
    model, make_batch, group = _gradcheck_model()

    def loss_value() -> float:
        total, _, _ = model.total_loss(make_batch(), lambda_cl=0.5)
        return total.item()

    model.store.zero_grad()
    total, _, _ = model.total_loss(make_batch(), lambda_cl=0.5)
    total.backward()

    eps = 1e-5
    rng = np.random.default_rng(0)
    checked = kinks = 0
    worst_rel = 0.0

    def central(flat, idx, step):
        old = flat[idx]
        flat[idx] = old + step
        fp = loss_value()
        flat[idx] = old - step
        fm = loss_value()
        flat[idx] = old
        return (fp - fm) / (2 * step)

    for name, p in model.store.items():
        if not p.requires_grad:
            continue
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        picks = rng.choice(flat.size, size=min(5, flat.size), replace=False)
        for idx in picks:
            fd = central(flat, idx, eps)
            # the loss is piecewise smooth (max over nodes, rectifiers);
            # a coordinate whose eps-interval straddles a kink has no
            # comparable two-sided derivative, so detect and exclude it
            fd_fine = central(flat, idx, eps / 10)
            if abs(fd - fd_fine) > 1e-4 * max(abs(fd), abs(fd_fine), 1e-6):
                kinks += 1
                continue
            err = abs(gflat[idx] - fd)
            rel = err / max(abs(fd), abs(gflat[idx]), 1e-6)
            worst_rel = max(worst_rel, rel)
            assert err <= 1e-4 * max(abs(fd), abs(gflat[idx])) + 1e-7, \
                f"{name}[{idx}]: autodiff {gflat[idx]:.3e} vs fd {fd:.3e}"
            checked += 1
    assert kinks <= checked // 20, f"too many kink exclusions: {kinks}"

    # the mle gradient w.r.t. attach scores must equal -P/K
    batch = make_batch()
    _, summary = model.encode(batch.word_ids, batch.tag_ids,
                              model._pad_nodes(batch.node_sets))
    attach, stop, cont, root = model.decoder_scores(batch.tag_ids, summary)
    leaves = [T.Tensor(x.numpy().copy(), requires_grad=True)
              for x in (attach, stop, cont, root)]
    out = inside_outside(*leaves, need_posteriors=False)
    T.mul(T.tmean(out.log_partition), -1.0).backward()
    k = len(group)
    worst_post = 0.0
    for b, sent in enumerate(group):
        scores = DmvScores(attach=leaves[0].numpy()[b], stop=leaves[1].numpy()[b],
                           cont=leaves[2].numpy()[b], root=leaves[3].numpy()[b])
        post = chart.arc_posteriors(scores)
        got = leaves[0].grad[b]
        want = -post / k
        want[0, :] = 0.0   # root arcs ride on the root table, not attach
        diff = np.abs(got[1:, 1:] - want[1:, 1:]).max()
        root_diff = np.abs(leaves[3].grad[b][1:] - (-post[0][1:] / k)).max()
        worst_post = max(worst_post, float(diff), float(root_diff))
    elapsed = time.perf_counter() - start
    assert worst_post < 1e-6
    assert elapsed < 120.0
    print(f"\n[criterion 3] PASS gradient integrity: {checked} finite-difference "
          f"probes ({kinks} kink points excluded), worst rel err {worst_rel:.2e}; "
          f"dL/dattach vs -P/K within {worst_post:.2e}, {elapsed:.1f}s")


def test_criterion_4_synthetic_grammar_recovery():
    start = time.perf_counter()
    cfg = resolve()
    synth = synth_generate(to_synth_config(cfg))
    mc = to_model_config(cfg, tag_count=len(synth.tagset),
                         word_dim=synth.embeddings.shape[1],
                         feat_dim=synth.embeddings.shape[1])
    model = Model(mc, synth.vocab, synth.embeddings)
    settings = TrainSettings(
        lr=float(cfg["lr"]), batch_size=int(cfg["batch_size"]),
        epochs=int(cfg["epochs"]),
        harmonic_warmup_epochs=int(cfg["harmonic_warmup_epochs"]),
        grad_clip=float(cfg["grad_clip"]), lambda_cl=float(cfg["lambda"]),
        seed=int(cfg["seed"]))
    trainer = Trainer(model, synth.train, synth.features, settings)
    trainer.train()
    test_dda, _ = trainer.evaluate(synth.test)
    gold = [list(s.heads) for s in synth.test]
    random_dda = expected_random_dda(gold)
    rb_dda, _ = dda_uda([right_branching_heads(len(s)) for s in synth.test], gold)
    elapsed = time.perf_counter() - start
    assert test_dda >= random_dda + 0.10, (test_dda, random_dda)
    assert test_dda >= rb_dda + 0.10, (test_dda, rb_dda)
    assert elapsed < 900.0
    print(f"\n[criterion 4] PASS synthetic grammar recovery: test DDA "
          f"{test_dda:.3f} vs random {random_dda:.3f} and right-branching "
          f"{rb_dda:.3f} (margin >= 0.10 each), {elapsed:.0f}s")


def _ground_synthetic(sigma: float, seed: int, sentences: int = 40):
    scfg = SynthConfig(sentences=sentences, dev_sentences=2, test_sentences=2,
                       sigma=sigma, seed=seed)
    synth = synth_generate(scfg)
    cfg = resolve(overrides={"identity_init": "true"})
    mc = to_model_config(cfg, tag_count=len(synth.tagset),
                         word_dim=synth.embeddings.shape[1], feat_dim=scfg.dim)
    model = Model(mc, synth.vocab, synth.embeddings)
    pred = {}
    for s in synth.train:
        ns = model.build_visual_nodes_gold(synth.scene_graphs[s.image_id],
                                           synth.features[s.image_id])
        pred[s.id] = model.ground(s.tokens, ns, heads=list(s.heads),
                                  sentence_id=s.id)
    images = {s.id: s.image_id for s in synth.train}
    gold = {s.id: synth.alignments[s.id] for s in synth.train}
    zres = zero_aa(pred, gold, synth.scene_graphs, images)
    trees = {s.id: s.heads for s in synth.train}
    first, _ = first_second_aa(pred, trees, synth.scene_graphs, images)
    return zres.accuracy, first


def test_criterion_5_oracle_grounding():
    start = time.perf_counter()
    zero, first = _ground_synthetic(0.0, seed=0, sentences=60)
    assert zero == 1.0 and first == 1.0
    means = []
    for sigma in (0.0, 0.3, 0.6, 1.2):
        accs = [_ground_synthetic(sigma, seed)[0] for seed in range(5)]
        means.append(float(np.mean(accs)))
    elapsed = time.perf_counter() - start
    assert all(means[i] >= means[i + 1] - 1e-12 for i in range(len(means) - 1)), means
    assert elapsed < 300.0
    print(f"\n[criterion 5] PASS oracle grounding: sigma=0 zero/first 100%/100%; "
          f"zero accuracy over sigma grid {['%.3f' % m for m in means]} "
          f"(non-increasing), {elapsed:.0f}s")


def test_criterion_6_metric_unit_suite():
    start = time.perf_counter()
    # two-token tree example
    assert dda_uda([[2, 0]], [[0, 1]]) == (0.0, 0.5)
    # overlapping boxes
    assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3)
    # shared scene for the grounding rules
    sg = SceneGraph(
        "img", (SGObject("o1", bbox=(0, 0, 100, 90), label="dog"),
                SGObject("o2", bbox=(200, 0, 300, 90), label="table"),
                SGObject("o3", bbox=(0, 0, 100, 40), label="part")),
        (SGAttribute("a1", owner="o1", label="brown"),
         SGAttribute("a2", owner="o2", label="plain"),
         SGAttribute("a3", owner="o3", label="plain")),
        (SGRelationship("r12", src="o1", dst="o2", label="on"),
         SGRelationship("r32", src="o3", dst="o2", label="near")))
    graphs, images = {"img": sg}, {"s": "img"}
    gold = {"s": VLAlignment("s", zero={1: "o1", 2: "a1", 3: "r12"})}
    # distinguishing rule: right region, wrong type
    res = zero_aa({"s": VLAlignment("s", zero={1: "o1", 2: "o1", 3: "r12"})},
                  gold, graphs, images)
    assert res.accuracy == pytest.approx(2 / 3)
    # relationship endpoint rule: o3 vs o1 has IoU 40/90 < 0.5
    res = zero_aa({"s": VLAlignment("s", zero={1: "o1", 2: "a1", 3: "r32"})},
                  gold, graphs, images)
    assert res.accuracy == pytest.approx(2 / 3)
    # both second-order orientations count as correct
    pred = {"s": VLAlignment("s", zero={1: "o1", 2: "r12", 3: "o2"})}
    chain = first_second_aa(pred, {"s": [0, 1, 2]}, graphs, images)
    fork = first_second_aa(pred, {"s": [2, 0, 2]}, graphs, images)
    assert chain == (1.0, 1.0) and fork == (1.0, 1.0)
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 6] PASS metric unit suite ({elapsed:.2f}s)")


def test_criterion_7_alignment_pipeline_soundness():
    start = time.perf_counter()
    synth = synth_generate(SynthConfig(sentences=500, dev_sentences=2,
                                       test_sentences=2, seed=4))
    rules = load_rules()
    sim = Similarity(synth.vocab, synth.embeddings)
    checked_first = 0
    for s in synth.train:
        sg = synth.scene_graphs[s.image_id]
        rewritten, result = align_sentence(s, sg, rules=rules, sim=sim)
        n = len(s)
        assert len(rewritten.types) == n
        assert all(t is not None for t in rewritten.types)
        assert all(1 <= p <= n for p in rewritten.parent_of)
        zero = result.alignment.zero
        for (h, d), fa in result.alignment.first.items():
            rel = sg.node(fa.relationship)
            assert isinstance(rel, SGRelationship)
            assert {rel.src, rel.dst} == {zero[h], zero[d]}
            assert fa.endpoints == (rel.src, rel.dst)
            checked_first += 1
    elapsed = time.perf_counter() - start
    assert checked_first > 0
    assert elapsed < 60.0
    print(f"\n[criterion 7] PASS alignment soundness: 500 sentences, "
          f"{checked_first} first-order alignments all consistent, "
          f"totality holds, {elapsed:.1f}s")


def test_criterion_8_determinism(tmp_path):
    from vgram.cli import main
    start = time.perf_counter()
    data = tmp_path / "data"
    small = ["--set", "synth_sentences=120", "--set", "synth_dev=8",
             "--set", "synth_test=8", "--set", "synth_max_len=6",
             "--set", "synth_dim=8", "--set", "hidden_dim=8",
             "--set", "match_dim=8", "--set", "tag_dim=4",
             "--set", "arc_hidden=6", "--set", "second_hidden=6",
             "--set", "dec_tag_dim=4", "--set", "dec_hidden=8",
             "--set", "epochs=2"]
    assert main(["synth", "--out", str(data)] + small) == 0
    args = ["--corpus", str(data / "corpus.train.jsonl"),
            "--features", str(data / "features.jsonl"),
            "--embeddings", str(data / "embeddings.jsonl")]
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / f"run_{run}"
        rc = main(["train"] + args + ["--out", str(out), "--seed", "7",
                                      "--workers", "1"] + small)
        assert rc == 0
        blobs.append((out / "ckpt_final.bin").read_bytes())
    assert blobs[0] == blobs[1]

    # parse output is invariant to input order (batch composition)
    import json
    test_corpus = (data / "corpus.test.jsonl").read_text().splitlines()
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join([test_corpus[0]] + test_corpus[:0:-1]) + "\n")
    outputs = []
    for corpus in (data / "corpus.test.jsonl", shuffled):
        pred = tmp_path / f"pred_{corpus.name}"
        rc = main(["parse", "--corpus", str(corpus),
                   "--features", str(data / "features.jsonl"),
                   "--embeddings", str(data / "embeddings.jsonl"),
                   "--ckpt", str(tmp_path / "run_a" / "ckpt_final.bin"),
                   "--seed", "7", "--workers", "1",
                   "--out", str(pred)] + small)
        assert rc == 0
        recs = {json.loads(line)["id"]: json.loads(line)["heads"]
                for line in pred.read_text().splitlines()[1:]}
        outputs.append(recs)
    assert outputs[0] == outputs[1]
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 8] PASS determinism: identical checkpoints across "
          f"runs; parse invariant to input order, {elapsed:.0f}s")
