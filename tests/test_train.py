import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import vgram.tensor as T
from vgram.config import resolve, to_model_config
from vgram import core
from vgram.core import Regions, VisualNode
from vgram.data import SynthConfig, synth_generate
from vgram.model import Model, SentenceBatch
from vgram.train import Trainer, TrainSettings


@pytest.fixture(scope="module")
def tiny():
    return synth_generate(SynthConfig(sentences=24, dev_sentences=6,
                                      test_sentences=4, max_len=5, min_len=2,
                                      dim=8, seed=5))


def build_model(tiny, seed=0):
    cfg = resolve(overrides={"hidden_dim": "8", "match_dim": "8", "tag_dim": "4",
                             "arc_hidden": "6", "second_hidden": "6",
                             "dec_tag_dim": "4", "dec_hidden": "8",
                             "seed": str(seed)})
    mc = to_model_config(cfg, tag_count=8, word_dim=8, feat_dim=8)
    return Model(mc, tiny.vocab, tiny.embeddings)


def settings(**kw):
    base = dict(epochs=1, batch_size=6, harmonic_warmup_epochs=1, seed=0)
    base.update(kw)
    return TrainSettings(**base)


class TestTrainer:
    def test_skips_long_sentences(self, tiny):
        model = build_model(tiny)
        trainer = Trainer(model, tiny.train, tiny.features, settings(max_train_len=3))
        assert all(len(s) <= 3 for s in trainer.sentences)

    def test_batches_group_by_length(self, tiny):
        model = build_model(tiny)
        trainer = Trainer(model, tiny.train, tiny.features, settings())
        for group in trainer._batches():
            assert len({len(s) for s in group}) == 1
            assert len(group) <= 6

    def test_node_sets_built_once_without_node_metadata(self, tiny, monkeypatch):
        built = []

        def counting(*args, **kw):
            built.append(args)
            return VisualNode(*args, **kw)

        monkeypatch.setattr(core, "VisualNode", counting)
        model = build_model(tiny)
        trainer = Trainer(model, tiny.train, tiny.features, settings())
        trainer.run_epoch(warmup=True)
        cached = dict(trainer._node_sets)
        trainer.run_epoch()
        assert trainer._node_sets.keys() == cached.keys()
        assert all(trainer._node_sets[k] is ns for k, ns in cached.items())
        assert set(cached) == {s.image_id for s in trainer.sentences}
        # training reads only the rows; the node objects wait for a parse
        assert not built

    def test_loss_decreases_over_epochs(self, tiny):
        model = build_model(tiny)
        trainer = Trainer(model, tiny.train, tiny.features,
                          settings(epochs=4, lambda_cl=0.0))
        first, _, _ = trainer.run_epoch()
        for _ in range(3):
            last, _, _ = trainer.run_epoch()
        assert last < first

    def test_history_rows(self, tiny, tmp_path):
        model = build_model(tiny)
        trainer = Trainer(model, tiny.train, tiny.features,
                          settings(epochs=2), dev=tiny.dev)
        history = trainer.train(out_dir=str(tmp_path), config_digest="d")
        phases = [h.phase for h in history]
        assert phases == ["warmup", "train", "train"]
        assert history[1].dev_dda is not None
        assert os.path.exists(tmp_path / "ckpt_epoch1.bin")
        assert os.path.exists(tmp_path / "ckpt_final.bin")
        assert os.path.exists(tmp_path / "train_log.jsonl")

    def test_bitwise_deterministic(self, tiny, tmp_path):
        blobs = []
        for run in range(2):
            model = build_model(tiny, seed=0)
            trainer = Trainer(model, tiny.train, tiny.features, settings(epochs=2))
            out = tmp_path / f"run{run}"
            trainer.train(out_dir=str(out), config_digest="d")
            with open(out / "ckpt_final.bin", "rb") as f:
                blobs.append(f.read())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("clip, frac", [(1e-6, 1.0), (1e6, 0.0), (5.0, None)])
    def test_log_rows_carry_grad_norm(self, tiny, tmp_path, clip, frac):
        model = build_model(tiny)
        trainer = Trainer(model, tiny.train, tiny.features,
                          settings(epochs=2, grad_clip=clip))
        trainer.train(out_dir=str(tmp_path), config_digest="d")
        with open(tmp_path / "train_log.jsonl", encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        assert [r["phase"] for r in rows] == ["warmup", "train", "train"]
        for r in rows:
            assert math.isfinite(r["grad_norm"]) and r["grad_norm"] > 0.0
            assert 0.0 <= r["clipped_frac"] <= 1.0
            if frac is not None:
                assert r["clipped_frac"] == frac

    def test_singleton_batches_fall_back_to_mle(self, tiny):
        model = build_model(tiny)
        one = [s for s in tiny.train][:1]
        trainer = Trainer(model, one, tiny.features, settings(batch_size=4))
        mle, cl, _ = trainer.run_epoch()
        assert cl == 0.0

    @pytest.mark.parametrize("param, op", [("second.w1", "pair_mlp"),
                                           ("enc.attn.q", "matmul")])
    def test_non_finite_names_op_and_batch(self, tiny, param, op):
        model = build_model(tiny)
        model.store[param].data[0, 0] = np.nan
        trainer = Trainer(model, tiny.train, tiny.features, settings())
        with pytest.raises(FloatingPointError) as err:
            trainer.run_epoch()
        message = str(err.value)
        assert f"from {op}" in message
        assert any(repr(s.id) in message for s in tiny.train), message

    def test_overflowing_norm_names_contrastive_op_and_batch(self, tiny):
        # finite token contexts whose squares overflow in the loss's norm
        model = build_model(tiny)
        model.store["match.ctx"].data[:] = 1e200
        trainer = Trainer(model, tiny.train, tiny.features, settings())
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as err:
            trainer.run_epoch()
        message = str(err.value)
        assert "from image_contrastive_nll (norm)" in message
        assert any(repr(s.id) in message for s in tiny.train), message

    def test_overflowing_chart_names_inside_outside_and_batch(self, tiny, monkeypatch):
        # finite attach scores near 1e308 whose chart sums overflow
        model = build_model(tiny)
        scores = model.decoder_scores

        def huge(*args):
            attach, stop, cont, root = scores(*args)
            return T.add(attach, 1e308), stop, cont, root

        monkeypatch.setattr(model, "decoder_scores", huge)
        trainer = Trainer(model, tiny.train, tiny.features, settings())
        with pytest.raises(FloatingPointError) as err:
            trainer.run_epoch()
        message = str(err.value)
        assert "from inside_outside" in message
        assert any(repr(s.id) in message for s in tiny.train), message

    def test_empty_corpus_rejected(self, tiny):
        model = build_model(tiny)
        with pytest.raises(ValueError):
            Trainer(model, tiny.train, tiny.features, settings(max_train_len=0))


@pytest.fixture(scope="module")
def desk():
    """Default-dimension world with lengths 3-6: 56, 36, 20 and 8 sentences."""
    return synth_generate(SynthConfig(sentences=120, dev_sentences=1, test_sentences=1,
                                      min_len=3, max_len=6, seed=3))


def default_model(world):
    mc = to_model_config(resolve(), tag_count=8, word_dim=world.embeddings.shape[1],
                         feat_dim=32)
    return Model(mc, world.vocab, world.embeddings)


class TestStepMemory:
    """The tape's gradients are freed as backward spends them, the tape
    itself as backward passes it, and no step's tape outlives the step."""

    @staticmethod
    def peaks(model, batch) -> tuple[int, int]:
        """Traced peak bytes of one joint forward, and of it plus backward."""
        tracemalloc.start()
        try:
            total, _, _ = model.total_loss(batch, lambda_cl=0.5)
            forward_peak = tracemalloc.get_traced_memory()[1]
            total.backward()
            return forward_peak, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [4, 5])
    def test_backward_peak_near_forward_peak(self, desk, n):
        model = default_model(desk)
        trainer = Trainer(model, desk.train, desk.features, TrainSettings())
        batch = trainer._assemble([s for s in desk.train if len(s) == n][:16])
        assert len(batch.sentence_ids) == 16
        forward_peak, step_peak = self.peaks(model, batch)
        # holding every interior gradient until the end doubles the peak
        assert step_peak < 1.5 * forward_peak

    @staticmethod
    def random_batch(desk, model):
        """A random B = 16 batch at n = 8 on images of 10 regions (the
        default world's n plus 2 distractors)."""
        rng = np.random.default_rng(8)
        n, regions = 8, 10
        boxes = [(0.0, 0.0, 1.0, 1.0)] * regions
        return SentenceBatch(
            word_ids=rng.integers(1, len(desk.vocab) + 1, (16, n)),
            tag_ids=rng.integers(0, 8, (16, n)),
            node_sets=[model.build_visual_nodes(f"img{b}", Regions(boxes, rng.normal(
                size=(regions, 32)))) for b in range(16)],
            sentence_ids=[f"s{b}" for b in range(16)])

    def test_backward_consumes_the_forward_tape(self, desk):
        """Backward frees each tape node once it has run, while the
        caller still holds the loss, so the step peaks near its forward
        tape: about 1.05x at n = 8, 1.37x when the whole tape lived until
        the step's end."""
        model = default_model(desk)
        forward_peak, step_peak = self.peaks(model, self.random_batch(desk, model))
        assert step_peak < 1.2 * forward_peak, \
            f"step peak {step_peak / 2**20:.1f} MB, forward {forward_peak / 2**20:.1f} MB"

    def test_forward_tape_bound(self, desk):
        """What one default-config B = 16 joint forward at n = 8 holds
        until backward, on images of 10 regions: 30.0 MB with the fused
        second-order and normalization ops, 50.9 MB with their unfused
        tape chains. The bound, 36 MB, fails if the second-order chain
        comes back."""
        model = default_model(desk)
        batch = self.random_batch(desk, model)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            total, _, _ = model.total_loss(batch, lambda_cl=0.5)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert total.requires_grad
        assert held < 36 * 2**20, f"forward tape holds {held / 2**20:.1f} MB"

    @pytest.mark.parametrize("warmup", [False, True])
    def test_no_tape_alive_when_the_next_batch_starts(self, desk, warmup):
        model = default_model(desk)
        sentences = [s for s in desk.train if len(s) in (3, 5)]
        trainer = Trainer(model, sentences, desk.features, TrainSettings(batch_size=8))
        held = []
        assemble = trainer._assemble

        def spy(group):
            held.append(tracemalloc.get_traced_memory()[0])
            return assemble(group)

        trainer._assemble = spy
        tracemalloc.start()
        try:
            trainer.run_epoch(warmup=warmup)
        finally:
            tracemalloc.stop()
        assert len(held) == 10
        # what may grow: the parameters' gradients and the cached node
        # sets, under 1 MB here; one step's tape is 7-17 MB
        assert max(held) - held[0] < 2 * 2**20
