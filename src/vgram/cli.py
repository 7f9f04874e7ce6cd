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
import logging
import multiprocessing
import os
import sys
from typing import Optional, Sequence

from vgram import align as align_mod
from vgram import config as config_mod
from vgram import data as data_mod
from vgram import metrics as metrics_mod
from vgram.config import ConfigError
from vgram.data import DataError, Sentence
from vgram.model import Model, VisualNodeSet
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


def _build_model(cfg, tagset, vocab, vectors, feat_dim) -> Model:
    mc = config_mod.to_model_config(cfg, tag_count=len(tagset),
                                    word_dim=vectors.shape[1], feat_dim=feat_dim)
    return Model(mc, vocab, vectors)


def _feat_dim(features) -> int:
    return next(iter(features.values())).feats.shape[1]


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


def _node_set_for(model: Model, sentence: Sentence, features,
                  scene_graphs=None) -> VisualNodeSet:
    regions = features[sentence.image_id]
    if scene_graphs is not None:
        return model.build_visual_nodes_gold(scene_graphs[sentence.image_id], regions)
    return model.build_visual_nodes(sentence.image_id, regions)


def _drop_overlong(sentences, cap: int):
    kept = [s for s in sentences if len(s) <= cap]
    if len(kept) != len(sentences):
        log.warning("skipping %d sentences over the inference length cap %d",
                    len(sentences) - len(kept), cap)
    return kept


_POOL_STATE: dict = {}


def _pool_parse(idx: int):
    model, sentences, features, graphs, mode = (
        _POOL_STATE["model"], _POOL_STATE["sentences"], _POOL_STATE["features"],
        _POOL_STATE["graphs"], _POOL_STATE["mode"])
    s = sentences[idx]
    ns = _node_set_for(model, s, features, graphs)
    if mode == "parse":
        tree, alignment = model.parse(s.tokens, ns, sentence_id=s.id)
        return list(tree.heads), [t.value for t in tree.types]
    heads = list(s.heads) if _POOL_STATE["gold_trees"] else None
    alignment = model.ground(s.tokens, ns, heads=heads, sentence_id=s.id)
    return alignment


def _parallel(indices, workers: int):
    if workers <= 1:
        return [_pool_parse(i) for i in indices]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers) as pool:
        return pool.map(_pool_parse, indices)


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
            s, graphs[s.image_id], sim, rules, k=int(cfg["topk_align"]))
        alignments.append(result.alignment)
        for w in result.warnings:
            warned += 1
            log.warning("%s", w)
        rewritten_sentences.append(Sentence(
            id=s.id, image_id=s.image_id, tokens=s.tokens, pos_tags=s.pos_tags,
            heads=s.heads, types=rewritten.types, dep_labels=s.dep_labels))
    data_mod.save_alignments(args.out, alignments)
    if args.rewritten_out:
        data_mod.save_corpus(args.rewritten_out, rewritten_sentences, tagset)
    log.info("aligned %d sentences (%d warnings) -> %s",
             len(alignments), warned, args.out)
    return 0


def cmd_train(args, cfg) -> int:
    settings = config_mod.to_train_settings(cfg)
    sentences, tagset = data_mod.load_corpus(args.corpus)
    features = data_mod.load_features(args.features)
    vocab, vectors = data_mod.load_embeddings(args.embeddings)
    data_mod.cross_reference(sentences, features=features)
    dev = None
    if args.dev_corpus:
        dev, dev_tagset = data_mod.load_corpus(args.dev_corpus)
        if dev_tagset != tagset:
            raise DataError("dev corpus tagset differs from training tagset")
        data_mod.cross_reference(dev, features=features)
    cfg_digest = _log_run(cfg, [args.corpus, args.features, args.embeddings,
                                args.dev_corpus])
    model = _build_model(cfg, tagset, vocab, vectors, _feat_dim(features))
    trainer = Trainer(model, sentences, features, settings, dev=dev)
    trainer.train(out_dir=args.out, config_digest=cfg_digest)
    return 0


def cmd_parse(args, cfg) -> int:
    sentences, tagset = data_mod.load_corpus(args.corpus)
    features = data_mod.load_features(args.features)
    vocab, vectors = data_mod.load_embeddings(args.embeddings)
    data_mod.cross_reference(sentences, features=features)
    cfg_digest = _log_run(cfg, [args.corpus, args.features, args.embeddings,
                                args.ckpt])
    model = _build_model(cfg, tagset, vocab, vectors, _feat_dim(features))
    _load_checkpoint_into(model, args.ckpt, cfg_digest, args.allow_digest_mismatch)
    sentences = _drop_overlong(sentences, int(cfg["max_parse_len"]))
    _POOL_STATE.update(model=model, sentences=sentences, features=features,
                       graphs=None, mode="parse", gold_trees=False)
    results = _parallel(range(len(sentences)), int(cfg["workers"]))
    out = []
    for s, (heads, types) in zip(sentences, results):
        out.append(Sentence(id=s.id, image_id=s.image_id, tokens=s.tokens,
                            pos_tags=s.pos_tags, heads=tuple(heads),
                            types=tuple(data_mod.NodeType(t) for t in types),
                            dep_labels=s.dep_labels))
    data_mod.save_corpus(args.out, out, tagset)
    log.info("parsed %d sentences -> %s", len(out), args.out)
    return 0


def cmd_ground(args, cfg) -> int:
    sentences, tagset = data_mod.load_corpus(args.corpus)
    features = data_mod.load_features(args.features)
    vocab, vectors = data_mod.load_embeddings(args.embeddings)
    graphs = data_mod.load_scene_graphs(args.scene_graphs) if args.scene_graphs else None
    data_mod.cross_reference(sentences, features=features, scene_graphs=graphs)
    if args.use_gold_trees and any(s.heads is None for s in sentences):
        raise DataError("--use-gold-trees needs head annotation in the corpus")
    cfg_digest = _log_run(cfg, [args.corpus, args.features, args.embeddings,
                                args.ckpt, args.scene_graphs])
    model = _build_model(cfg, tagset, vocab, vectors, _feat_dim(features))
    _load_checkpoint_into(model, args.ckpt, cfg_digest, args.allow_digest_mismatch)
    sentences = _drop_overlong(sentences, int(cfg["max_parse_len"]))
    _POOL_STATE.update(model=model, sentences=sentences, features=features,
                       graphs=graphs, mode="ground", gold_trees=args.use_gold_trees)
    alignments = _parallel(range(len(sentences)), int(cfg["workers"]))
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s",
                        level=logging.INFO)
    parser = _build_parser()
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


if __name__ == "__main__":
    sys.exit(main())
