"""Benchmark inputs, made from the seed by the program's own generator.

Every world starts from ``vgram synth`` run in a child process, so the
program under test only ever sees the files it writes. The seed draws
the grammar, the vocabulary and the embeddings before any sentence, so
worlds made from one seed share all three whatever their lengths.

Sentence lengths decide most of the cost (a joint step grows about
n^4.5, a parse about n^3), and each seed's grammar draws its own length
mix. The train and long-caption worlds therefore pick a fixed length
mix out of the generated pool, so every seed does the same amount of
work. The train mix follows the default world's length histogram.

Long captions come from one fixed grammar (``LONG_WORLD_SEED``): the
generator samples whole trees and rejects those outside 20-60 tokens,
and some grammars make that slow. Seed 127 took 11.7 s for 20 such
captions (about two minutes for a pool), and exact-length sampling took
72 s for two captions of 60 tokens on seed 1. Under the fixed grammar
the benchmark's seed picks which captions are parsed and trains the
checkpoint.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

# 16-sentence batches per caption length for one joint epoch of `train`:
# the default world's length histogram scaled down to 15 batches, rounded
# by largest remainder. Summed over the default worlds of synth seeds 0,
# 201-210 and 301-310 (42000 training sentences), lengths 3..10 count
# 12873, 8627, 5952, 4371, 3380, 2738, 2230 and 1829 sentences. Lengths
# 3-4 hold 51 % of them; 15 is the smallest count of at least 14 batches
# whose rounding keeps that share above one half, so the median step
# falls inside the n=4 class instead of on the border with n=5.
TRAIN_BATCHES = {3: 5, 4: 3, 5: 2, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1}
BATCH_SIZE = 16
DEV_PER_LENGTH = 4
# The short world the `parse_long` checkpoint is trained on, once per run,
# picked from a default world cut to CKPT_POOL sentences.
CKPT_BATCHES = {3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
CKPT_POOL = 600
# Caption lengths parsed in every `parse_long` cycle, up to max_parse_len,
# out of LONG_POOL captions of the fixed grammar, which has 1 to 28
# captions of each of these lengths.
LONG_TARGETS = (20, 25, 30, 35, 40, 45, 50, 55, 60)
LONG_POOL = 400
LONG_WORLD_SEED = 0


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: str, argv: list[str]) -> None:
    """Run ``vgram <argv>`` in a child process; its memory is not ours."""
    subprocess.run([sys.executable, "-m", "vgram.cli", *argv], cwd=root,
                   env=child_env(root), stdout=sys.stderr, check=True)


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def _split_corpus(path: str) -> tuple[dict, list[dict]]:
    records = read_jsonl(path)
    return records[0], records[1:]


def _pick_by_length(sentences: list[dict], counts: dict[int, int], what: str
                    ) -> list[dict]:
    picked = []
    for length, count in counts.items():
        pool = [s for s in sentences if len(s["tokens"]) == length]
        if len(pool) < count:
            raise RuntimeError(f"{what}: {len(pool)} sentences of length {length}, "
                               f"need {count}")
        picked += pool[:count]
    return picked


def default_world(root: str, seed: int, out: str, sentences: int = 0
                  ) -> dict[str, str]:
    """The default synthetic world: lengths 3-10, 2000/200/200 sentences
    (or only ``sentences`` training sentences)."""
    cut = ["--set", f"synth_sentences={sentences}"] if sentences else []
    run_cli(root, ["synth", "--seed", str(seed), "--out", out, *cut])
    names = ("corpus.train", "corpus.dev", "corpus.test", "features",
             "scene_graphs", "alignments", "embeddings")
    return {n: os.path.join(out, n + ".jsonl") for n in names}


def train_world(files: dict[str, str], out: str) -> dict[str, str]:
    """Fixed length mix out of the default world, plus a small dev set."""
    tagset, train = _split_corpus(files["corpus.train"])
    _, dev = _split_corpus(files["corpus.dev"])
    _, test = _split_corpus(files["corpus.test"])
    corpus = _pick_by_length(train, {n: b * BATCH_SIZE for n, b in TRAIN_BATCHES.items()},
                             "train world")
    dev_pick = _pick_by_length(dev + test, {n: DEV_PER_LENGTH for n in TRAIN_BATCHES},
                               "train dev set")
    paths = {"corpus": os.path.join(out, "train.jsonl"),
             "dev": os.path.join(out, "dev.jsonl")}
    write_jsonl(paths["corpus"], [tagset] + corpus)
    write_jsonl(paths["dev"], [tagset] + dev_pick)
    return paths


def short_world(files: dict[str, str], out: str) -> str:
    """The training corpus of the checkpoint `parse_long` parses with."""
    tagset, train = _split_corpus(files["corpus.train"])
    short = _pick_by_length(train, {n: b * BATCH_SIZE for n, b in CKPT_BATCHES.items()},
                            "checkpoint world")
    path = os.path.join(out, "short.jsonl")
    write_jsonl(path, [tagset] + short)
    return path


def long_world(root: str, seed: int, out: str) -> dict[str, str]:
    """Captions of 20-60 tokens from the fixed long-caption grammar; the
    seed picks one caption of each target length."""
    pool_dir = os.path.join(out, "pool")
    run_cli(root, ["synth", "--seed", str(LONG_WORLD_SEED), "--out", pool_dir,
                   "--set", "synth_min_len=20", "--set", "synth_max_len=60",
                   "--set", f"synth_sentences={LONG_POOL}",
                   "--set", "synth_dev=0", "--set", "synth_test=0"])
    tagset, pool = _split_corpus(os.path.join(pool_dir, "corpus.train.jsonl"))
    rng = random.Random(seed)
    chosen = []
    for target in LONG_TARGETS:
        exact = [s for s in pool if len(s["tokens"]) == target]
        if not exact:
            raise RuntimeError(f"long world: no caption of {target} tokens")
        chosen.append(rng.choice(exact))
    images = {s["image_id"] for s in chosen}
    feats = [r for r in read_jsonl(os.path.join(pool_dir, "features.jsonl"))
             if r["image_id"] in images]
    paths = {"corpus": os.path.join(out, "long.jsonl"),
             "features": os.path.join(out, "long_features.jsonl"),
             "embeddings": os.path.join(pool_dir, "embeddings.jsonl")}
    write_jsonl(paths["corpus"], [tagset] + chosen)
    write_jsonl(paths["features"], feats)
    return paths


def scene_graph_ids(path: str) -> dict[str, set[str]]:
    """Node ids per image, read independently of the program's loader."""
    return {r["image_id"]: {n["id"] for n in r["nodes"]} for r in read_jsonl(path)}
