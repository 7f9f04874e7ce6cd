"""Hooks the benchmark puts around the program, from outside it.

``Probe`` is always on and cheap: it marks the end of set-up (the first
unit of work of a command), times each unit of work, and collects what
the output checks need. ``Tracer`` is on only in a traced run: it
records a span (name, start, end, parent) around each public function
named in ``SPANS`` and counts work at the same boundaries. Self time is
a span's time minus the time of its child spans.

A function imported by name into another module is patched where it is
bound there too (``model.inside_outside``, ``train.adam_step``,
``train.dda_uda``), or the calls through that name would be missed.
"""

from __future__ import annotations

import math
import os
import time
import tracemalloc

clock = time.perf_counter


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _modules():
    import vgram.align
    import vgram.chart
    import vgram.cli
    import vgram.config
    import vgram.data
    import vgram.dmv_graph
    import vgram.metrics
    import vgram.model
    import vgram.tensor
    import vgram.train
    return dict(align=vgram.align, chart=vgram.chart, cli=vgram.cli,
                config=vgram.config, data=vgram.data, dmv_graph=vgram.dmv_graph,
                metrics=vgram.metrics, model=vgram.model, tensor=vgram.tensor,
                train=vgram.train)


# -- the always-on probe -------------------------------------------------


class Probe:
    """Set-up marks, unit timings and output capture for one run."""

    def __init__(self):
        self.first_unit = None      # clock value of the current command's first unit
        self.phase = "joint"
        self.step_start = None
        self.step_n = 0
        self.steps: list[tuple[str, int, float]] = []   # (phase, n, seconds)
        self.units: list[float] = []                    # per-sentence seconds
        self.passes = 0                                 # sentences in train batches
        self.loss_failures: list[str] = []
        self.parsed: list[tuple[tuple, object, list]] = []  # (heads, alignment, nodes)
        self.memprobe = False
        self.mem_start = 0
        self.step_peak: dict[int, float] = {}    # MB traced above the step's start

    def mark(self) -> None:
        if self.first_unit is None:
            self.first_unit = clock()

    def install(self, patcher: Patcher) -> None:
        m = _modules()
        probe = self

        def assemble(orig):
            def wrapper(trainer, group):
                probe.mark()
                probe.step_start = clock()
                probe.step_n = len(group[0])
                probe.passes += len(group)
                if probe.memprobe:
                    tracemalloc.reset_peak()
                    probe.mem_start = tracemalloc.get_traced_memory()[0]
                return orig(trainer, group)
            return wrapper

        def step(orig):
            def wrapper(trainer, loss):
                out = orig(trainer, loss)
                probe.steps.append((probe.phase, probe.step_n, clock() - probe.step_start))
                if probe.memprobe and probe.phase == "joint":
                    # the previous step's graph is still alive at the start
                    # of this one; count only what this step adds
                    peak = (tracemalloc.get_traced_memory()[1] - probe.mem_start) / 2**20
                    probe.step_peak[probe.step_n] = max(peak, probe.step_peak.get(probe.step_n, 0.0))
                return out
            return wrapper

        def run_epoch(orig):
            def wrapper(trainer, warmup=False):
                probe.phase = "warmup" if warmup else "joint"
                return orig(trainer, warmup)
            return wrapper

        def timed_unit(orig):
            def wrapper(*args, **kwargs):
                probe.mark()
                t0 = clock()
                out = orig(*args, **kwargs)
                probe.units.append(clock() - t0)
                return out
            return wrapper

        def first_unit(orig):
            def wrapper(*args, **kwargs):
                probe.mark()
                return orig(*args, **kwargs)
            return wrapper

        def checked_loss(orig):
            def wrapper(model, batch, *args, **kwargs):
                out = orig(model, batch, *args, **kwargs)
                if isinstance(out, tuple):          # total_loss: (total, mle, cl)
                    values = (out[0].item(), out[1], out[2])
                else:
                    values = (out.item(),)
                if not all(math.isfinite(v) for v in values):
                    probe.loss_failures.append(f"non-finite loss {values} on {batch.sentence_ids}")
                return out
            return wrapper

        def parse(orig):
            def wrapper(model, tokens, node_set, sentence_id=""):
                tree, alignment = orig(model, tokens, node_set, sentence_id=sentence_id)
                probe.parsed.append((tree.heads, alignment, node_set.nodes))
                return tree, alignment
            return wrapper

        patcher.wrap(m["train"].Trainer, "_assemble", assemble)
        patcher.wrap(m["train"].Trainer, "_step", step)
        patcher.wrap(m["train"].Trainer, "run_epoch", run_epoch)
        patcher.wrap(m["cli"], "_pool_parse", timed_unit)
        patcher.wrap(m["align"], "align_sentence", timed_unit)
        for name in ("dda_uda", "zero_aa"):
            patcher.wrap(m["metrics"], name, first_unit)
        patcher.wrap(m["model"].Model, "total_loss", checked_loss)
        patcher.wrap(m["model"].Model, "harmonic_loss", checked_loss)
        patcher.wrap(m["model"].Model, "parse", parse)

    def take_parsed(self) -> list:
        out, self.parsed = self.parsed, []
        return out


# -- the tracer ------------------------------------------------------------


def _matmul_flops(tr, args, kwargs, out, dur):
    tr.count["tensor.matmul.gflop"] += 2.0 * out.size * args[0].shape[-1] / 1e9


def _viterbi(tr, args, kwargs, out, dur):
    n = args[0].n
    bucket = "n_le20" if n <= 20 else "n21_40" if n <= 40 else "n41_60"
    tr.count[f"chart.viterbi.s.{bucket}"] += dur
    # (span, split point, valence) candidates the recursion scores
    tr.count["computed.viterbi.cells"] += n ** 3 - n


def _run_epoch(tr, args, kwargs, out, dur):
    warmup = args[1] if len(args) > 1 else kwargs.get("warmup", False)
    tr.count["train.run_epoch.warmup_s" if warmup else "train.run_epoch.joint_s"] += dur


def _visual_nodes(tr, args, kwargs, out, dur):
    tr.count["computed.visual_nodes"] += len(out)
    tr.count["computed.node_sets"] += 1


def _pad_nodes(tr, args, kwargs, out, dur):
    sizes = [len(ns) for ns in args[1]]
    vmax = max(sizes)
    tr.count["computed.pad_slots"] += sum(vmax - v for v in sizes)
    tr.count["computed.node_slots"] += vmax * len(sizes)


def _batch_contexts(tr, args, kwargs, out, dur):
    batch, n = args[1].shape[:2]
    _, _, pairs, triples = out
    tr.count["computed.ctx_rows.token"] += batch * n
    tr.count["computed.ctx_rows.arc"] += batch * len(pairs)
    tr.count["computed.ctx_rows.second"] += batch * len(triples)


def _total_loss(tr, args, kwargs, out, dur):
    model, batch = args[0], args[1]
    lam = kwargs.get("lambda_cl", args[2] if len(args) > 2 else None)
    lam = model.config.lambda_cl if lam is None else lam
    if lam <= 0.0:
        return
    bsz, n = batch.tag_ids.shape
    rows = n + n * (n - 1)                               # tokens, arcs
    if model.config.second_order and n >= 3:
        rows += n * (n - 1) * (n - 2) * 3 // 2           # chains, sibling pairs
    nodes = sum(len(ns) for ns in batch.node_sets)
    # one (B*C x d) @ (d x V_b) similarity per image of the batch
    tr.count["computed.contrastive.gflop"] += 2.0 * bsz * rows * model.config.match_dim * nodes / 1e9


def _path_bytes(counter: str):
    def after(tr, args, kwargs, out, dur):
        tr.count[counter] += os.path.getsize(args[0])
    return after


def _load(key: str):
    def after(tr, args, kwargs, out, dur):
        tr.count[f"data.{key}.bytes"] += os.path.getsize(args[0])
        records = out[0] if isinstance(out, tuple) else out
        tr.count[f"data.{key}.records"] += len(records)
    return after


# Counters the hooks add to; per-layer metrics that are neither a span
# field nor derived in the benchmark must be one of these.
COUNTERS = (
    "tensor.matmul.gflop", "tensor.save_checkpoint.bytes", "config.file_digest.bytes",
    "chart.viterbi.s.n_le20", "chart.viterbi.s.n21_40", "chart.viterbi.s.n41_60",
    "train.run_epoch.warmup_s", "train.run_epoch.joint_s", "align.similarity.calls",
    *(f"data.{key}.{field}"
      for key in ("load_corpus", "load_features", "load_scene_graphs", "load_embeddings",
                  "load_alignments")
      for field in ("bytes", "records")),
    "data.save_alignments.bytes", "data.save_corpus.bytes",
    "computed.ctx_rows.token", "computed.ctx_rows.arc", "computed.ctx_rows.second",
    "computed.contrastive.gflop", "computed.visual_nodes", "computed.node_sets",
    "computed.pad_slots", "computed.node_slots", "computed.viterbi.cells",
)


# (module, owner attribute or None, function, span name, after-hook)
SPANS = [
    ("tensor", "Tensor", "backward", "tensor.backward", None),
    ("tensor", None, "matmul", "tensor.matmul", _matmul_flops),
    ("tensor", None, "tmax", "tensor.tmax", None),
    ("tensor", None, "adam_step", "tensor.adam_step", None),
    ("train", None, "adam_step", "tensor.adam_step", None),
    ("tensor", "ParameterStore", "clip_gradients", "tensor.clip_gradients", None),
    ("tensor", None, "save_checkpoint", "tensor.save_checkpoint",
     _path_bytes("tensor.save_checkpoint.bytes")),
    ("tensor", None, "load_checkpoint", "tensor.load_checkpoint", None),
    ("model", "Model", "build_visual_nodes", "model.build_visual_nodes", _visual_nodes),
    ("model", "Model", "build_visual_nodes_gold", "model.build_visual_nodes_gold", _visual_nodes),
    ("model", "Model", "_pad_nodes", "model._pad_nodes", _pad_nodes),
    ("model", "Model", "encode", "model.encode", None),
    ("model", "Model", "decoder_scores", "model.decoder_scores", None),
    ("model", "Model", "batch_contexts", "model.batch_contexts", _batch_contexts),
    ("model", "Model", "context_weights", "model.context_weights", None),
    ("model", "Model", "total_loss", "model.total_loss", _total_loss),
    ("model", "Model", "harmonic_loss", "model.harmonic_loss", None),
    ("model", "Model", "parse", "model.parse", None),
    ("model", "Model", "ground", "model.ground", None),
    ("dmv_graph", None, "inside_outside", "dmv_graph.inside_outside", None),
    ("model", None, "inside_outside", "dmv_graph.inside_outside", None),
    ("chart", None, "viterbi", "chart.viterbi", _viterbi),
    ("train", "Trainer", "run_epoch", "train.run_epoch", _run_epoch),
    ("train", "Trainer", "evaluate", "train.evaluate", None),
    ("data", None, "load_corpus", "data.load_corpus", _load("load_corpus")),
    ("data", None, "load_features", "data.load_features", _load("load_features")),
    ("data", None, "load_scene_graphs", "data.load_scene_graphs", _load("load_scene_graphs")),
    ("data", None, "load_embeddings", "data.load_embeddings", _load("load_embeddings")),
    ("data", None, "load_alignments", "data.load_alignments", _load("load_alignments")),
    ("data", None, "save_alignments", "data.save_alignments",
     _path_bytes("data.save_alignments.bytes")),
    ("data", None, "save_corpus", "data.save_corpus", _path_bytes("data.save_corpus.bytes")),
    ("data", None, "cross_reference", "data.cross_reference", None),
    ("align", None, "align_sentence", "align.align_sentence", None),
    ("align", None, "rewrite", "align.rewrite", None),
    ("align", None, "align_dt_sg", "align.align_dt_sg", None),
    ("metrics", None, "dda_uda", "metrics.dda_uda", None),
    ("train", None, "dda_uda", "metrics.dda_uda", None),
    ("metrics", None, "arc_length_breakdown", "metrics.arc_length_breakdown", None),
    ("metrics", None, "zero_aa", "metrics.zero_aa", None),
    ("metrics", None, "first_second_aa", "metrics.first_second_aa", None),
    ("config", None, "file_digest", "config.file_digest",
     _path_bytes("config.file_digest.bytes")),
    ("cli", None, "main", "cli.main", None),
]


class Tracer:
    """In-memory spans plus counters, gathered between install and restore."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.count: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)

    def span_around(self, name: str, fn, after=None):
        spans, stack, tracer = self.spans, self.stack, self

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, out, rec[2] - rec[1])
            return out
        return wrapper

    def install(self, patcher: Patcher) -> None:
        m = _modules()
        for module, owner, attr, name, after in SPANS:
            target = getattr(m[module], owner) if owner else m[module]
            patcher.wrap(target, attr,
                         lambda fn, name=name, after=after: self.span_around(name, fn, after))

        def similarity(orig):
            def wrapper(*args, **kwargs):
                self.count["align.similarity.calls"] += 1
                return orig(*args, **kwargs)
            return wrapper

        patcher.wrap(m["align"].Similarity, "__call__", similarity)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, self seconds and calls (zero
        for a span that never ran)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names = {entry[3] for entry in SPANS}
        total, own, calls = (dict.fromkeys(names, 0.0) for _ in range(3))
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return total, own, calls
