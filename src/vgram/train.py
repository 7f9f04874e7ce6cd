"""Training loop: harmonic warm-up, mixed objective, per-epoch logging.

Batches group same-length sentences so the chart runs vectorized; the
in-batch images of each group serve as contrastive negatives. Each
image's parameter-free node set is built once per run. Updates
are serialized through one optimizer step per batch with global norm
clipping, which keeps runs bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from vgram.core import Regions
from vgram.data import Sentence
from vgram.metrics import dda_uda
from vgram.model import Model, SentenceBatch, VisualNodeSet
from vgram.tensor import adam_step

log = logging.getLogger("vgram.train")


@dataclass
class TrainSettings:
    """Optimization knobs; each default is that of the config key of the
    field's name (``lambda`` for ``lambda_cl``)."""

    lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 10
    harmonic_warmup_epochs: int = 1
    grad_clip: float = 5.0
    lambda_cl: float = 0.5
    max_train_len: int = 20
    seed: int = 0


@dataclass
class EpochStats:
    epoch: int
    mle: float
    cl: float
    dev_dda: Optional[float] = None
    dev_uda: Optional[float] = None
    seconds: float = 0.0
    phase: str = "train"
    grad_norm: float = 0.0      # mean pre-clip global gradient norm per step
    clipped_frac: float = 0.0   # share of steps whose gradient was clipped

    def row(self) -> dict:
        return {"epoch": self.epoch, "phase": self.phase,
                "mle": round(self.mle, 6), "cl": round(self.cl, 6),
                "dev_dda": self.dev_dda, "dev_uda": self.dev_uda,
                "seconds": round(self.seconds, 3),
                "grad_norm": round(self.grad_norm, 6),
                "clipped_frac": round(self.clipped_frac, 6)}


class Trainer:
    """Trains ``model`` on ``sentences``; ``features`` maps image ids to
    their ``Regions``, as ``data.load_features`` returns them."""

    def __init__(self, model: Model,
                 sentences: Sequence[Sentence],
                 features: dict[str, Regions],
                 settings: TrainSettings,
                 dev: Optional[Sequence[Sentence]] = None):
        self.model = model
        self.settings = settings
        self.features = features
        self.dev = list(dev) if dev else []
        cap = settings.max_train_len
        usable = [s for s in sentences if len(s) <= cap]
        skipped = len(sentences) - len(usable)
        if skipped:
            log.warning("skipping %d sentences longer than %d tokens", skipped, cap)
        if not usable:
            raise ValueError("no usable training sentences")
        self.sentences = usable
        self._shuffle_rng = np.random.default_rng(settings.seed + 1)
        # per image: its (M + 1, feat_dim) rows and M boxes; node metadata
        # only for the images evaluate parses
        self._node_sets: dict[str, VisualNodeSet] = {}

    # -- batching -------------------------------------------------------

    def _batches(self) -> list[list[Sentence]]:
        order = self._shuffle_rng.permutation(len(self.sentences))
        buckets: dict[int, list[Sentence]] = {}
        for idx in order:
            s = self.sentences[idx]
            buckets.setdefault(len(s), []).append(s)
        batches = []
        for length in sorted(buckets):
            group = buckets[length]
            for i in range(0, len(group), self.settings.batch_size):
                batches.append(group[i:i + self.settings.batch_size])
        perm = self._shuffle_rng.permutation(len(batches))
        return [batches[i] for i in perm]

    def _node_set(self, image_id: str) -> VisualNodeSet:
        ns = self._node_sets.get(image_id)
        if ns is None:
            ns = self.model.build_visual_nodes(image_id, self.features[image_id])
            self._node_sets[image_id] = ns
        return ns

    def _assemble(self, group: list[Sentence]) -> SentenceBatch:
        node_sets = [self._node_set(s.image_id) for s in group]
        word_ids = np.stack([self.model.word_ids(s.tokens) for s in group])
        tag_ids = np.stack([[t.pos for t in s.tokens] for s in group])
        return SentenceBatch(word_ids=word_ids, tag_ids=tag_ids,
                             node_sets=node_sets,
                             sentence_ids=[s.id for s in group])

    # -- epochs ----------------------------------------------------------

    def _step(self, loss) -> tuple[float, bool]:
        """One clipped update; returns the pre-clip gradient norm and
        whether it was clipped."""
        self.model.store.zero_grad()
        loss.backward()
        clip = self.model.store.clip_gradients(self.settings.grad_clip)
        adam_step(self.model.store, lr=self.settings.lr)
        return clip

    def run_epoch(self, warmup: bool = False) -> tuple[float, float, dict[str, float]]:
        """One pass over the batches: mean MLE and contrastive loss per
        sentence (0 in warm-up) and the steps' ``grad_norm`` (mean
        pre-clip norm) and ``clipped_frac`` (share clipped)."""
        mle_sum = cl_sum = 0.0
        count = 0
        clips = []
        for group in self._batches():
            batch = self._assemble(group)
            lam = self.settings.lambda_cl if len(group) >= 2 else 0.0
            try:
                if warmup:
                    loss = self.model.harmonic_loss(batch)
                else:
                    loss, mle_val, cl_val = self.model.total_loss(batch, lambda_cl=lam)
                clips.append(self._step(loss))
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"{err} in the batch of sentences {batch.sentence_ids}") from err
            del loss    # no tensor of this step outlives it
            if warmup:
                continue
            mle_sum += mle_val * len(group)
            cl_sum += cl_val * len(group)
            count += len(group)
        norms = {"grad_norm": float(np.mean([n for n, _ in clips])) if clips else 0.0,
                 "clipped_frac": float(np.mean([c for _, c in clips])) if clips else 0.0}
        if warmup or count == 0:
            return 0.0, 0.0, norms
        return mle_sum / count, cl_sum / count, norms

    def evaluate(self, sentences: Sequence[Sentence]) -> tuple[Optional[float], Optional[float]]:
        usable = [s for s in self.model.within_cap(sentences) if s.heads is not None]
        if not usable:
            return None, None
        preds = []
        for s in usable:
            tree, _ = self.model.parse(s.tokens, self._node_set(s.image_id),
                                       sentence_id=s.id)
            preds.append(list(tree.heads))
        return dda_uda(preds, [list(s.heads) for s in usable])

    def train(self, out_dir: Optional[str] = None,
              config_digest: str = "",
              on_epoch: Optional[Callable[[EpochStats], None]] = None
              ) -> list[EpochStats]:
        history: list[EpochStats] = []
        log_path = os.path.join(out_dir, "train_log.jsonl") if out_dir else None
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)

        def emit(stats: EpochStats) -> None:
            history.append(stats)
            line = json.dumps(stats.row())
            log.info("%s", line)
            if log_path:
                with open(log_path, "a", encoding="utf-8") as f:
                    f.write(line + "\n")
            if on_epoch:
                on_epoch(stats)

        for w in range(self.settings.harmonic_warmup_epochs):
            t0 = time.perf_counter()
            _, _, norms = self.run_epoch(warmup=True)
            emit(EpochStats(epoch=-(w + 1), mle=0.0, cl=0.0, phase="warmup",
                            seconds=time.perf_counter() - t0, **norms))
        for epoch in range(1, self.settings.epochs + 1):
            t0 = time.perf_counter()
            mle, cl, norms = self.run_epoch()
            dev_dda, dev_uda = self.evaluate(self.dev) if self.dev else (None, None)
            stats = EpochStats(epoch=epoch, mle=mle, cl=cl, dev_dda=dev_dda,
                               dev_uda=dev_uda, seconds=time.perf_counter() - t0, **norms)
            emit(stats)
            if out_dir:
                self.model.save(os.path.join(out_dir, f"ckpt_epoch{epoch}.bin"),
                                config_digest)
        if out_dir:
            self.model.save(os.path.join(out_dir, "ckpt_final.bin"), config_digest)
        return history
