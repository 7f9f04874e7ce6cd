"""Command-line entry point.

Subcommands: synth, align, train, parse, ground, eval. Configuration
comes from defaults, an optional flat config file, and repeatable
``--set key=value`` overrides, in increasing precedence. Every run logs
its config digest, seed, and input-file digests to standard error;
data goes to files only. Exit codes: 0 success, 1 usage error, 2 data
error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import gc
import logging
import multiprocessing
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from vgram import align as align_mod
from vgram import config as config_mod
from vgram import data as data_mod
from vgram import metrics as metrics_mod
from vgram.config import ConfigError
from vgram.core import Regions, SceneGraph, VLAlignment
from vgram.data import DataError, Sentence
from vgram.model import Model
from vgram.train import Trainer

log = logging.getLogger("vgram")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vgram", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--workers", type=int, help="per-sentence parallelism")
        p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("align", help="rule-based tree to scene-graph alignment")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--scene-graphs", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--rules", help="rule file (defaults to the built-in set)")
    p.add_argument("--out", required=True, help="output alignment file")
    p.add_argument("--rewritten-out", help="also write the rewritten corpus here")

    p = sub.add_parser("train", help="optimize the joint objective")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--dev-corpus")
    p.add_argument("--out", required=True, help="checkpoint/log directory")

    p = sub.add_parser("parse", help="predict trees for a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--ckpt")
    p.add_argument("--allow-digest-mismatch", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ground", help="predict alignments for a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--ckpt")
    p.add_argument("--scene-graphs",
                   help="ground over gold scene-graph nodes instead of proposals")
    p.add_argument("--use-gold-trees", action="store_true",
                   help="fix instances to the corpus trees")
    p.add_argument("--allow-digest-mismatch", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="compute metrics from prediction + gold files")
    common(p)
    p.add_argument("--gold-corpus", required=True)
    p.add_argument("--pred-trees")
    p.add_argument("--pred-align")
    p.add_argument("--gold-align")
    p.add_argument("--scene-graphs")
    p.add_argument("--features")
    p.add_argument("--trees", choices=("gold", "pred"), default="gold",
                   help="which trees define first/second-order instances")
    p.add_argument("--out", help="machine-readable report path")
    return parser


def _resolve_config(args) -> dict[str, object]:
    overrides: dict[str, str] = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.workers is not None:
        overrides["workers"] = str(args.workers)
    return config_mod.resolve(args.config, overrides)


def _log_run(cfg, paths: Sequence[Optional[str]]) -> str:
    dig = config_mod.digest(cfg)
    log.info("config digest %s seed %s", dig, cfg["seed"])
    for path in paths:
        if path and os.path.exists(path):
            log.info("input %s digest %s", path, config_mod.file_digest(path))
    return dig


class _Inputs(NamedTuple):
    sentences: list[Sentence]
    tagset: list[str]
    features: dict[str, Regions]
    graphs: Optional[dict[str, SceneGraph]]
    dev: Optional[list[Sentence]]
    model: Model
    digest: str


def _load_model_inputs(args, cfg, logged: Sequence[Optional[str]],
                       scene_graphs: Optional[str] = None,
                       dev_corpus: Optional[str] = None,
                       need_heads: bool = False) -> _Inputs:
    """The inputs of a model command and the model built for them: the
    corpus, features and embeddings of ``args``, plus the scene graphs
    and dev corpus at the paths given, checked against each other
    (``need_heads``: every sentence has heads). The run is logged, with
    the ``logged`` paths, before the model is built."""
    config_mod.check_model_keys(cfg)
    sentences, tagset = data_mod.load_corpus(args.corpus)
    features = data_mod.load_features(args.features)
    vocab, vectors = data_mod.load_embeddings(args.embeddings)
    graphs = data_mod.load_scene_graphs(scene_graphs) if scene_graphs else None
    data_mod.cross_reference(sentences, features=features, scene_graphs=graphs)
    if need_heads and any(s.heads is None for s in sentences):
        raise DataError("--use-gold-trees needs head annotation in the corpus")
    dev = None
    if dev_corpus:
        dev, dev_tagset = data_mod.load_corpus(dev_corpus)
        if dev_tagset != tagset:
            raise DataError("dev corpus tagset differs from training tagset")
        data_mod.cross_reference(dev, features=features)
    cfg_digest = _log_run(cfg, [args.corpus, args.features, args.embeddings, *logged])
    feat_dim = next(iter(features.values())).feats.shape[1]
    mc = config_mod.to_model_config(cfg, tag_count=len(tagset),
                                    word_dim=vectors.shape[1], feat_dim=feat_dim)
    return _Inputs(sentences, tagset, features, graphs, dev,
                   Model(mc, vocab, vectors), cfg_digest)


def _load_checkpoint_into(model: Model, ckpt: Optional[str], cfg_digest: str,
                          allow_mismatch: bool) -> None:
    if ckpt is None:
        log.info("no checkpoint given, using freshly initialized parameters")
        return
    stored = model.load(ckpt)
    if stored and stored != cfg_digest:
        msg = f"checkpoint digest {stored} != config digest {cfg_digest}"
        if allow_mismatch:
            log.warning("%s (proceeding per --allow-digest-mismatch)", msg)
        else:
            raise DataError(msg + " (pass --allow-digest-mismatch to proceed)")


# What the (fork) workers of one parse/ground command read: its
# per-sentence decode function and the sentences. Set and cleared by
# `_decode_each`, so nothing a command loads outlives it.
_POOL_STATE: dict = {}


def _pool_parse(idx: int):
    return _POOL_STATE["decode"](_POOL_STATE["sentences"][idx])


def _decode_each(args, cfg, inputs: _Inputs, decode: Callable) -> list:
    """``decode`` of each sentence within the inference length cap, in
    order, with the checkpoint ``args.ckpt`` loaded: `_pool_parse` on
    each, with ``decode`` and the sentences in `_POOL_STATE` only for
    the call."""
    model = inputs.model
    _load_checkpoint_into(model, args.ckpt, inputs.digest, args.allow_digest_mismatch)
    sentences = model.within_cap(inputs.sentences)
    if len(sentences) != len(inputs.sentences):
        log.warning("skipping %d sentences over the inference length cap %d",
                    len(inputs.sentences) - len(sentences), model.config.max_parse_len)
    _POOL_STATE.update(decode=decode, sentences=sentences)
    try:
        indices, workers = range(len(sentences)), int(cfg["workers"])
        if workers <= 1:
            return [_pool_parse(i) for i in indices]
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            return pool.map(_pool_parse, indices)
    finally:
        _POOL_STATE.clear()


# -- subcommands -------------------------------------------------------


def cmd_synth(args, cfg) -> int:
    _log_run(cfg, [])
    synth_cfg = config_mod.to_synth_config(cfg)
    data = data_mod.synth_generate(synth_cfg)
    os.makedirs(args.out, exist_ok=True)

    def path(name):
        return os.path.join(args.out, name)

    data_mod.save_corpus(path("corpus.train.jsonl"), data.train, data.tagset)
    data_mod.save_corpus(path("corpus.dev.jsonl"), data.dev, data.tagset)
    data_mod.save_corpus(path("corpus.test.jsonl"), data.test, data.tagset)
    data_mod.save_features(path("features.jsonl"), data.features)
    data_mod.save_scene_graphs(path("scene_graphs.jsonl"), data.scene_graphs)
    data_mod.save_alignments(path("alignments.jsonl"), list(data.alignments.values()))
    data_mod.save_embeddings(path("embeddings.jsonl"), data.vocab, data.embeddings)
    log.info("wrote synthetic dataset (%d/%d/%d sentences) to %s",
             len(data.train), len(data.dev), len(data.test), args.out)
    return 0


def cmd_align(args, cfg) -> int:
    _log_run(cfg, [args.corpus, args.scene_graphs, args.embeddings, args.rules])
    sentences, tagset = data_mod.load_corpus(args.corpus)
    graphs = data_mod.load_scene_graphs(args.scene_graphs)
    vocab, vectors = data_mod.load_embeddings(args.embeddings)
    data_mod.cross_reference(sentences, scene_graphs=graphs)
    rules = align_mod.load_rules(args.rules)
    sim = align_mod.Similarity(vocab, vectors)
    alignments, rewritten_sentences = [], []
    warned = 0
    for s in sentences:
        rewritten, result = align_mod.align_sentence(
            s, graphs[s.image_id], sim, rules)
        alignments.append(result.alignment)
        for w in result.warnings:
            warned += 1
            log.warning("%s", w)
        rewritten_sentences.append(dataclasses.replace(s, types=rewritten.types))
    data_mod.save_alignments(args.out, alignments)
    if args.rewritten_out:
        data_mod.save_corpus(args.rewritten_out, rewritten_sentences, tagset)
    log.info("aligned %d sentences (%d warnings) -> %s",
             len(alignments), warned, args.out)
    return 0


def cmd_train(args, cfg) -> int:
    settings = config_mod.to_train_settings(cfg)
    inputs = _load_model_inputs(args, cfg, [args.dev_corpus],
                                dev_corpus=args.dev_corpus)
    trainer = Trainer(inputs.model, inputs.sentences, inputs.features, settings,
                      dev=inputs.dev)
    trainer.train(out_dir=args.out, config_digest=inputs.digest)
    return 0


def cmd_parse(args, cfg) -> int:
    inputs = _load_model_inputs(args, cfg, [args.ckpt])
    model, features = inputs.model, inputs.features

    def decode(s: Sentence) -> Sentence:
        nodes = model.build_visual_nodes(s.image_id, features[s.image_id])
        tree, _ = model.parse(s.tokens, nodes, sentence_id=s.id)
        return dataclasses.replace(s, heads=tree.heads, types=tree.types)

    out = _decode_each(args, cfg, inputs, decode)
    data_mod.save_corpus(args.out, out, inputs.tagset)
    log.info("parsed %d sentences -> %s", len(out), args.out)
    return 0


def cmd_ground(args, cfg) -> int:
    inputs = _load_model_inputs(args, cfg, [args.ckpt, args.scene_graphs],
                                scene_graphs=args.scene_graphs,
                                need_heads=args.use_gold_trees)
    model, features, graphs = inputs.model, inputs.features, inputs.graphs

    def decode(s: Sentence) -> VLAlignment:
        regions = features[s.image_id]
        if graphs is None:
            nodes = model.build_visual_nodes(s.image_id, regions)
        else:
            nodes = model.build_visual_nodes_gold(graphs[s.image_id], regions)
        return model.ground(s.tokens, nodes, sentence_id=s.id,
                            heads=s.heads if args.use_gold_trees else None)

    alignments = _decode_each(args, cfg, inputs, decode)
    data_mod.save_alignments(args.out, alignments)
    log.info("grounded %d sentences -> %s", len(alignments), args.out)
    return 0


def cmd_eval(args, cfg) -> int:
    _log_run(cfg, [args.gold_corpus, args.pred_trees, args.pred_align,
                   args.gold_align, args.scene_graphs, args.features])
    gold_sentences, _ = data_mod.load_corpus(args.gold_corpus)
    gold_by_id = {s.id: s for s in gold_sentences}
    report: dict[str, object] = {}

    pred_trees: Optional[dict[str, Sentence]] = None
    if args.pred_trees:
        preds, _ = data_mod.load_corpus(args.pred_trees)
        pred_trees = {s.id: s for s in preds}
        shared = [sid for sid in gold_by_id if sid in pred_trees
                  and gold_by_id[sid].heads is not None]
        if not shared:
            raise DataError("no overlapping annotated sentences to evaluate")
        exclude = None
        if bool(cfg["exclude_punct"]):
            exclude = [{t.index for t, p in zip(gold_by_id[sid].tokens,
                                                gold_by_id[sid].pos_tags)
                        if p in config_mod.PUNCT_TAGS} for sid in shared]
        dda, uda = metrics_mod.dda_uda(
            [list(pred_trees[sid].heads) for sid in shared],
            [list(gold_by_id[sid].heads) for sid in shared],
            root_as_undirected_pair=bool(cfg["root_undirected"]),
            exclude=exclude)
        report["dda"] = dda
        report["uda"] = uda
        buckets = metrics_mod.arc_length_breakdown(
            [list(pred_trees[sid].heads) for sid in shared],
            [list(gold_by_id[sid].heads) for sid in shared])
        report["arc_length"] = {str(k): {"correct": c, "total": t, "recall": c / t}
                                for k, (c, t) in buckets.items()}

    if args.pred_align and args.gold_align and args.scene_graphs:
        pred = data_mod.load_alignments(args.pred_align)
        gold = data_mod.load_alignments(args.gold_align)
        graphs = data_mod.load_scene_graphs(args.scene_graphs)
        regions = None
        if args.features:
            feats = data_mod.load_features(args.features)
            regions = {img: r.boxes for img, r in feats.items()}
        images = {sid: s.image_id for sid, s in gold_by_id.items()}
        zres = metrics_mod.zero_aa(pred, gold, graphs, images, regions=regions)
        report["zero_aa"] = zres.accuracy
        report["zero_aa_evaluated"] = zres.evaluated
        report["zero_aa_by_type"] = {k: {"correct": c, "total": t}
                                     for k, (c, t) in zres.by_type.items()}
        if zres.excluded:
            report["zero_aa_excluded"] = len(zres.excluded)
            log.warning("%d tokens missing from gold alignment were excluded",
                        len(zres.excluded))
        tree_source = pred_trees if args.trees == "pred" else None
        trees = {}
        for sid in gold_by_id:
            if tree_source is not None and sid in tree_source \
                    and tree_source[sid].heads is not None:
                trees[sid] = tree_source[sid].tree()
            elif gold_by_id[sid].heads is not None:
                trees[sid] = gold_by_id[sid].tree()
        first, second = metrics_mod.first_second_aa(pred, trees, graphs, images,
                                                    regions=regions)
        report["first_aa"] = first
        report["second_aa"] = second

    if not report:
        raise UsageError("nothing to evaluate: pass --pred-trees and/or "
                         "--pred-align with --gold-align and --scene-graphs")
    flat = {k: v for k, v in report.items() if isinstance(v, (int, float))}
    sys.stdout.write(metrics_mod.format_report(flat))
    if args.out:
        metrics_mod.save_report(args.out, report)
    return 0


COMMANDS = {"synth": cmd_synth, "align": cmd_align, "train": cmd_train,
            "parse": cmd_parse, "ground": cmd_ground, "eval": cmd_eval}


# mallopt parameters from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_ENV = ("GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


@functools.cache
def _mallopt():
    """glibc's ``mallopt``, looked up once per process; None off glibc.

    Each ``ctypes.CDLL`` makes its own function-pointer class, which
    only the cyclic collector frees, so the library is opened once.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _keep_freed_memory() -> None:
    """Fix glibc's mmap and trim thresholds, so freed arrays stay mapped.

    glibc slides its mmap threshold up to the largest chunk freed so far
    and trims the top of the heap once twice that is free. A long parse
    or training step frees a tape of multi-MB arrays, so the heap top is
    handed back to the kernel and the next step faults it in again.
    Fixing the thresholds where the sliding rule ends on 64-bit (32 MiB,
    and twice that for trimming) keeps the memory mapped: peak RSS is the
    same, but RSS stays near its peak until the process exits. Nothing
    is done off glibc, or when ``GLIBC_TUNABLES`` or either ``MALLOC_*_``
    threshold variable is set.
    """
    if any(name in os.environ for name in _MALLOC_ENV):
        return
    mallopt = _mallopt()
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_memory()
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s",
                        level=logging.INFO)
    parser = _build_parser()
    # The loaders, the tape and the decoders make no reference cycles, so
    # the cyclic collector would only rescan every loaded record. It is
    # paused for the command and left as the caller had it; the few
    # hundred cyclic objects argparse makes per call go at its next run.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        if args.verbose:
            logging.getLogger().setLevel(logging.DEBUG)
        return COMMANDS[args.command](args, cfg)
    except (UsageError, ConfigError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
