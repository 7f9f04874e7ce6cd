import ctypes
import dataclasses
import gc
import json
import logging
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from vgram import cli, core, data
from vgram import model as model_mod
from vgram.cli import UsageError, main
from vgram.core import validate_tree
from vgram.config import (DEFAULTS, ConfigError, digest, resolve, to_model_config,
                          to_synth_config, to_train_settings)
from vgram.data import DataError

ROOT = pathlib.Path(__file__).resolve().parent.parent
SMALL = ["--set", "synth_sentences=24", "--set", "synth_dev=6",
         "--set", "synth_test=6", "--set", "synth_max_len=5",
         "--set", "synth_min_len=2", "--set", "synth_dim=8"]
DIMS = ["--set", "hidden_dim=8", "--set", "match_dim=8", "--set", "tag_dim=4",
        "--set", "arc_hidden=6", "--set", "second_hidden=6",
        "--set", "dec_tag_dim=4", "--set", "dec_hidden=8"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["synth", "--out", str(out)] + SMALL) == 0
    return out


def test_config_resolution_precedence(tmp_path):
    path = tmp_path / "conf"
    path.write_text("lr = 0.5\nbatch_size = 4\n")
    cfg = resolve(str(path), overrides={"lr": "0.25"})
    assert cfg["lr"] == 0.25       # CLI beats file
    assert cfg["batch_size"] == 4  # file beats default
    assert cfg["epochs"] == 10     # default


def test_config_unknown_key():
    with pytest.raises(ConfigError):
        resolve(overrides={"nonsense": "1"})


def test_config_digest_stable():
    assert digest(resolve()) == digest(resolve())
    assert digest(resolve()) != digest(resolve(overrides={"lr": "0.1"}))
    # checkpoints carry this digest; a new value restamps every saved default run
    assert digest(resolve()) == "d42df22fb69f4447"
    # the worker count changes no model or output
    assert digest(resolve(overrides={"workers": "3"})) == "d42df22fb69f4447"


# Each key that sets a settings field not of its own name (less the
# "synth_" prefix for SynthConfig); "seed" sets the seed of all three.
RENAMED_KEYS = {"lambda": "lambda_cl", "synth_tags": "tag_count",
                "synth_dev": "dev_sentences", "synth_test": "test_sentences"}
SETTINGS = ("TrainSettings", "ModelConfig", "SynthConfig")
INPUT_DIMS = ("tag_count", "word_dim", "feat_dim")


def _settings_fields(cfg) -> dict:
    """Each field of the three settings objects built from ``cfg``,
    keyed by (class name, field name)."""
    built = (to_train_settings(cfg), to_synth_config(cfg),
             to_model_config(cfg, tag_count=8, word_dim=32, feat_dim=32))
    return {(type(obj).__name__, f.name): getattr(obj, f.name)
            for obj in built for f in dataclasses.fields(obj)}


def _non_default(value):
    if isinstance(value, bool):
        return not value
    return value + 1 if isinstance(value, int) else value / 2


def test_every_config_key_reaches_its_field():
    base = _settings_fields(resolve())
    reached: dict = {}
    for key, default in DEFAULTS.items():
        if key in ("workers", "root_undirected", "exclude_punct"):
            continue
        value = _non_default(default)
        built = _settings_fields(resolve(overrides={key: str(value)}))
        changed = {f: v for f, v in built.items() if v != base[f]}
        if key == "seed":
            want = {(cls, "seed") for cls in SETTINGS}
        elif key.startswith("synth_"):
            want = {("SynthConfig", RENAMED_KEYS.get(key, key[len("synth_"):]))}
        else:
            name = RENAMED_KEYS.get(key, key)
            want = {(cls, name) for cls in ("TrainSettings", "ModelConfig")
                    if (cls, name) in base}
        assert want and set(changed) == want, key
        assert all(v == value and type(v) is type(value) for v in changed.values()), key
        for f in changed:
            reached.setdefault(f, []).append(key)
    keyed = set(base) - {("ModelConfig", dim) for dim in INPUT_DIMS}
    assert set(reached) == keyed
    assert all(len(keys) == 1 for keys in reached.values()), reached
    assert not set(INPUT_DIMS) & set(DEFAULTS)


def test_synth_outputs(dataset):
    names = {p.name for p in dataset.iterdir()}
    assert {"corpus.train.jsonl", "corpus.dev.jsonl", "corpus.test.jsonl",
            "features.jsonl", "scene_graphs.jsonl", "alignments.jsonl",
            "embeddings.jsonl"} <= names


def test_usage_error_exit_code():
    assert main(["parse"]) == 1
    assert main(["synth", "--out", "/tmp/x", "--set", "nonsense=1"]) == 1
    assert main(["synth", "--out", "/tmp/x", "--set", "synth_min_len=20",
                 "--set", "synth_max_len=5"]) == 1
    # removed keys are unknown keys
    assert main(["synth", "--out", "/tmp/x", "--set", "normalize_sim=false"]) == 1
    assert main(["synth", "--out", "/tmp/x", "--set", "topk_align=2"]) == 1
    assert main(["nosuchcommand"]) == 1


def test_missing_file_exit_code(tmp_path):
    rc = main(["align", "--corpus", str(tmp_path / "none.jsonl"),
               "--scene-graphs", str(tmp_path / "none2.jsonl"),
               "--embeddings", str(tmp_path / "none3.jsonl"),
               "--out", str(tmp_path / "out.jsonl")])
    assert rc == 2


def test_align_and_eval_roundtrip(dataset, tmp_path):
    out = tmp_path / "align.jsonl"
    rc = main(["align", "--corpus", str(dataset / "corpus.test.jsonl"),
               "--scene-graphs", str(dataset / "scene_graphs.jsonl"),
               "--embeddings", str(dataset / "embeddings.jsonl"),
               "--out", str(out)])
    assert rc == 0 and out.exists()
    report = tmp_path / "report.json"
    rc = main(["eval", "--gold-corpus", str(dataset / "corpus.test.jsonl"),
               "--pred-align", str(out),
               "--gold-align", str(dataset / "alignments.jsonl"),
               "--scene-graphs", str(dataset / "scene_graphs.jsonl"),
               "--out", str(report)])
    assert rc == 0
    values = json.loads(report.read_text())
    assert values["zero_aa"] == 1.0  # exact lemma matches on synthetic data
    assert values["first_aa"] == 1.0


@pytest.mark.parametrize("record", [
    {"sentence_id": "s", "zero": [{"node": "o1"}]},
    {"sentence_id": "s", "zero": [{"t": 1}]},
    {"sentence_id": "s", "second": [{"nodes": ["a", "b", "c"]}]},
    {"sentence_id": "s", "second": [{"tokens": [1, 2, 3]}]},
    {"sentence_id": "s", "zero": [5]},
])
def test_alignment_missing_key_is_data_error(dataset, tmp_path, capsys, record):
    bad = tmp_path / "bad_align.jsonl"
    bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rc = main(["eval", "--gold-corpus", str(dataset / "corpus.test.jsonl"),
               "--pred-align", str(bad),
               "--gold-align", str(dataset / "alignments.jsonl"),
               "--scene-graphs", str(dataset / "scene_graphs.jsonl")])
    err = capsys.readouterr().err
    assert rc == 2
    problem = "expected a JSON object" if record.get("zero") == [5] else "missing field"
    assert f"{bad}:1: {problem}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["zero", "first", "second"])
def test_alignment_non_list_field_is_data_error(dataset, tmp_path, capsys, key):
    bad = tmp_path / "bad_align.jsonl"
    bad.write_text(json.dumps({"sentence_id": "s", key: 5}) + "\n", encoding="utf-8")
    rc = main(["eval", "--gold-corpus", str(dataset / "corpus.test.jsonl"),
               "--pred-align", str(bad),
               "--gold-align", str(dataset / "alignments.jsonl"),
               "--scene-graphs", str(dataset / "scene_graphs.jsonl")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{bad}:1: {key!r} must be a list" in err
    assert "Traceback" not in err


def test_alignment_non_integer_token_is_data_error(dataset, tmp_path, capsys):
    bad = tmp_path / "bad_align.jsonl"
    bad.write_text(json.dumps({"sentence_id": "s", "zero": [{"t": [1], "node": "o1"}]})
                   + "\n", encoding="utf-8")
    rc = main(["eval", "--gold-corpus", str(dataset / "corpus.test.jsonl"),
               "--pred-align", str(bad),
               "--gold-align", str(dataset / "alignments.jsonl"),
               "--scene-graphs", str(dataset / "scene_graphs.jsonl")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{bad}:1: 't' takes JSON integers only" in err
    assert "Traceback" not in err


def test_string_heads_is_data_error(dataset, tmp_path, capsys):
    rec = json.loads((dataset / "corpus.test.jsonl").read_text().splitlines()[1])
    rec["heads"] = "".join(str(h) for h in rec["heads"])
    bad = tmp_path / "bad_trees.jsonl"
    bad.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    rc = main(["eval", "--gold-corpus", str(dataset / "corpus.test.jsonl"),
               "--pred-trees", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{bad}:1: 'heads' must be a list of integers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, spoil", [
    ("bbox", lambda box: [box[0], None, *box[2:]]),
    ("bbox", lambda box: box[0]),
    ("feat", lambda feat: [None, *feat[1:]]),
], ids=["bbox-null", "bbox-scalar", "feat-null"])
def test_bad_region_is_data_error(dataset, tmp_path, capsys, field, spoil):
    lines = (dataset / "features.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    rec["regions"][0][field] = spoil(rec["regions"][0][field])
    lines[1] = json.dumps(rec)
    bad = tmp_path / "bad_features.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["train", "--corpus", str(dataset / "corpus.train.jsonl"),
               "--features", str(bad), "--embeddings", str(dataset / "embeddings.jsonl"),
               "--out", str(tmp_path / "run")] + DIMS)
    err = capsys.readouterr().err
    assert rc == 2
    problem = "bad region box (need a list of 4" if field == "bbox" else "every 'feat' must be"
    assert f"{bad}:2: {problem}" in err
    assert "Traceback" not in err


def test_list_label_in_scene_graph_is_data_error(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    common = ["--corpus", str(dataset / "corpus.test.jsonl"),
              "--features", str(dataset / "features.jsonl"),
              "--embeddings", str(dataset / "embeddings.jsonl")]
    assert main(["train"] + common + ["--out", str(run), "--set", "epochs=1"] + DIMS) == 0
    lines = (dataset / "scene_graphs.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    attribute = next(n for n in rec["nodes"] if n["type"] == "ATTRIBUTE")
    attribute["label"] = [attribute["label"]]
    lines[1] = json.dumps(rec)
    bad = tmp_path / "bad_graphs.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["ground"] + common + ["--scene-graphs", str(bad), "--use-gold-trees",
                                     "--ckpt", str(run / "ckpt_final.bin"),
                                     "--out", str(tmp_path / "ground.jsonl"),
                                     "--set", "epochs=1"] + DIMS)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{bad}:2: 'label' must be a string, got ['plain']" in err
    assert "Traceback" not in err


def test_eval_pred_equals_gold_is_perfect(dataset, capsys):
    rc = main(["eval", "--gold-corpus", str(dataset / "corpus.test.jsonl"),
               "--pred-trees", str(dataset / "corpus.test.jsonl")])
    assert rc == 0
    lines = dict(line.split("\t") for line in
                 capsys.readouterr().out.strip().splitlines())
    assert float(lines["dda"]) == 1.0
    assert float(lines["uda"]) == 1.0


def test_eval_without_inputs_is_usage_error(dataset):
    assert main(["eval", "--gold-corpus", str(dataset / "corpus.test.jsonl")]) == 1


def test_out_of_range_lambda_is_usage_error(dataset, tmp_path, capsys):
    rc = main(["train", "--corpus", str(dataset / "corpus.train.jsonl"),
               "--features", str(dataset / "features.jsonl"),
               "--embeddings", str(dataset / "embeddings.jsonl"),
               "--out", str(tmp_path / "run"), "--set", "lambda=1.5"] + DIMS)
    assert rc == 1
    assert "usage error: lambda must be in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "parse", "ground"])
def test_identity_init_key_conflict_is_usage_error(dataset, tmp_path, capsys, monkeypatch,
                                                   command):
    # hidden_dim and match_dim are both config keys: their conflict is
    # found before any input loads
    loaded = []
    monkeypatch.setattr(data, "load_corpus", lambda *args: loaded.append(args))
    rc = main([command, "--corpus", str(dataset / "corpus.train.jsonl"),
               "--features", str(dataset / "features.jsonl"),
               "--embeddings", str(dataset / "embeddings.jsonl"),
               "--out", str(tmp_path / "out"), "--set", "identity_init=true"]
              + DIMS + ["--set", "match_dim=4"])
    assert rc == 1
    assert "usage error: identity_init needs hidden_dim == match_dim, got 8 and 4" \
        in capsys.readouterr().err
    assert not loaded
    assert not (tmp_path / "out").exists()


def test_eval_ignores_identity_init_key_conflict(dataset):
    # eval builds no model, so the model's keys do not concern it
    rc = main(["eval", "--gold-corpus", str(dataset / "corpus.test.jsonl"),
               "--pred-trees", str(dataset / "corpus.test.jsonl"),
               "--set", "identity_init=true", "--set", "match_dim=4"])
    assert rc == 0


def test_identity_init_input_dim_conflict_is_data_error(dataset, tmp_path, capsys):
    # the word and feature dims (8) come from the input files
    rc = main(["train", "--corpus", str(dataset / "corpus.train.jsonl"),
               "--features", str(dataset / "features.jsonl"),
               "--embeddings", str(dataset / "embeddings.jsonl"),
               "--out", str(tmp_path / "run"), "--set", "identity_init=true"]
              + DIMS + ["--set", "hidden_dim=16", "--set", "match_dim=16"])
    assert rc == 2
    assert "data error: identity_init needs word_dim == hidden_dim == feat_dim == match_dim" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_parse_ignores_lambda(dataset, tmp_path):
    rc = main(["parse", "--corpus", str(dataset / "corpus.test.jsonl"),
               "--features", str(dataset / "features.jsonl"),
               "--embeddings", str(dataset / "embeddings.jsonl"),
               "--out", str(tmp_path / "pred.jsonl"), "--set", "lambda=1.5"] + DIMS)
    assert rc == 0


def test_train_parse_ground_pipeline(dataset, tmp_path):
    run = tmp_path / "run"
    args = ["--corpus", str(dataset / "corpus.train.jsonl"),
            "--features", str(dataset / "features.jsonl"),
            "--embeddings", str(dataset / "embeddings.jsonl")]
    rc = main(["train"] + args + ["--out", str(run), "--set", "epochs=1"] + DIMS)
    assert rc == 0
    ckpt = run / "ckpt_final.bin"
    assert ckpt.exists()

    pred = tmp_path / "pred.jsonl"
    rc = main(["parse", "--corpus", str(dataset / "corpus.test.jsonl"),
               "--features", str(dataset / "features.jsonl"),
               "--embeddings", str(dataset / "embeddings.jsonl"),
               "--ckpt", str(ckpt), "--out", str(pred), "--set", "epochs=1"] + DIMS)
    assert rc == 0
    recs = [json.loads(line) for line in pred.read_text().splitlines()[1:]]
    assert all("heads" in r and "types" in r for r in recs)

    ground_out = tmp_path / "ground.jsonl"
    rc = main(["ground", "--corpus", str(dataset / "corpus.test.jsonl"),
               "--features", str(dataset / "features.jsonl"),
               "--embeddings", str(dataset / "embeddings.jsonl"),
               "--ckpt", str(ckpt), "--use-gold-trees",
               "--out", str(ground_out), "--set", "epochs=1"] + DIMS)
    assert rc == 0
    assert ground_out.exists()


def test_checkpoint_digest_guard(dataset, tmp_path):
    run = tmp_path / "run"
    args = ["--corpus", str(dataset / "corpus.train.jsonl"),
            "--features", str(dataset / "features.jsonl"),
            "--embeddings", str(dataset / "embeddings.jsonl")]
    assert main(["train"] + args + ["--out", str(run), "--set", "epochs=1"] + DIMS) == 0
    pred = tmp_path / "pred.jsonl"
    base = ["parse", "--corpus", str(dataset / "corpus.test.jsonl"),
            "--features", str(dataset / "features.jsonl"),
            "--embeddings", str(dataset / "embeddings.jsonl"),
            "--ckpt", str(run / "ckpt_final.bin"), "--out", str(pred)]
    # different config -> digest mismatch -> data error unless overridden
    assert main(base + DIMS + ["--set", "lr=0.9"]) == 2
    assert main(base + DIMS + ["--set", "lr=0.9", "--allow-digest-mismatch"]) == 0


def test_non_finite_checkpoint_is_data_error(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    args = ["--corpus", str(dataset / "corpus.test.jsonl"),
            "--features", str(dataset / "features.jsonl"),
            "--embeddings", str(dataset / "embeddings.jsonl")]
    assert main(["train"] + args + ["--out", str(run), "--set", "epochs=1"] + DIMS) == 0
    ckpt = run / "ckpt_final.bin"
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:-4] + np.array([np.nan], dtype="<f4").tobytes())
    capsys.readouterr()
    rc = main(["parse"] + args + ["--ckpt", str(ckpt), "--out", str(tmp_path / "pred.jsonl"),
                                  "--allow-digest-mismatch"] + DIMS)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"data error: {ckpt}: non-finite values in parameter" in err
    assert "Traceback" not in err


def test_parse_workers_match_serial(dataset, tmp_path):
    # the checkpoint is trained at the default worker count, which the
    # parse at two workers must still load
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(dataset / "corpus.train.jsonl"),
                 "--features", str(dataset / "features.jsonl"),
                 "--embeddings", str(dataset / "embeddings.jsonl"),
                 "--out", str(run), "--set", "epochs=1"] + DIMS) == 0
    args = ["--corpus", str(dataset / "corpus.test.jsonl"),
            "--features", str(dataset / "features.jsonl"),
            "--embeddings", str(dataset / "embeddings.jsonl"),
            "--ckpt", str(run / "ckpt_final.bin"), "--set", "epochs=1"]
    out1, out2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
    assert main(["parse"] + args + ["--out", str(out1)] + DIMS) == 0
    assert main(["parse"] + args + ["--out", str(out2), "--workers", "2"] + DIMS) == 0
    assert out1.read_text() == out2.read_text()


def test_ground_workers_match_serial(dataset, tmp_path):
    """Over the gold scene graphs and the corpus trees, ground writes the
    same file at two workers as at one."""
    args = ["ground", "--corpus", str(dataset / "corpus.test.jsonl"),
            "--features", str(dataset / "features.jsonl"),
            "--embeddings", str(dataset / "embeddings.jsonl"),
            "--scene-graphs", str(dataset / "scene_graphs.jsonl"),
            "--use-gold-trees"] + DIMS
    out1, out2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--workers", "2"]) == 0
    assert len(data.load_alignments(str(out1))) == 6
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank"])
@pytest.mark.parametrize("corpus", ["captions", "none"])
@pytest.mark.parametrize("command", ["train", "parse", "ground"])
def test_empty_features_file_is_data_error(dataset, tmp_path, capsys, command, corpus,
                                           content):
    features = tmp_path / "features.jsonl"
    features.write_text(content)
    captions = tmp_path / "corpus.jsonl"
    captions.write_text((dataset / "corpus.test.jsonl").read_text() if corpus == "captions"
                        else "")
    rc = main([command, "--corpus", str(captions), "--features", str(features),
               "--embeddings", str(dataset / "embeddings.jsonl"),
               "--out", str(tmp_path / "out")] + DIMS)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"data error: {features}: empty features file" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_parse_checks_each_tree_at_most_twice(dataset, tmp_path, monkeypatch):
    """``vgram parse`` checks a sentence's heads once when the corpus
    loads and once more when the parsed tree is built, nowhere else."""
    corpus = str(dataset / "corpus.test.jsonl")
    sentences, _ = data.load_corpus(corpus)
    calls = []

    def counting(heads, n=None):
        calls.append(len(heads))
        return validate_tree(heads, n)
    monkeypatch.setattr(core, "validate_tree", counting)
    assert main(["parse", "--corpus", corpus, "--workers", "1",
                 "--features", str(dataset / "features.jsonl"),
                 "--embeddings", str(dataset / "embeddings.jsonl"),
                 "--out", str(tmp_path / "pred.jsonl")] + DIMS) == 0
    assert len(calls) == 2 * len(sentences)


def test_align_and_eval_check_each_tree_once(dataset, tmp_path, monkeypatch):
    """``vgram align`` and ``vgram eval`` check a corpus tree's heads when
    the corpus loads, and the aligner and metrics trust the loaded tree."""
    corpus = str(dataset / "corpus.test.jsonl")
    sentences, _ = data.load_corpus(corpus)
    calls = []

    def counting(heads, n=None):
        calls.append(len(heads))
        return validate_tree(heads, n)
    monkeypatch.setattr(core, "validate_tree", counting)
    pred = str(tmp_path / "align.jsonl")
    assert main(["align", "--corpus", corpus,
                 "--scene-graphs", str(dataset / "scene_graphs.jsonl"),
                 "--embeddings", str(dataset / "embeddings.jsonl"),
                 "--out", pred]) == 0
    assert len(calls) == len(sentences)
    calls.clear()
    assert main(["eval", "--gold-corpus", corpus, "--pred-trees", corpus,
                 "--pred-align", pred,
                 "--gold-align", str(dataset / "alignments.jsonl"),
                 "--scene-graphs", str(dataset / "scene_graphs.jsonl")]) == 0
    assert len(calls) == 2 * len(sentences)


# A child process runs one CLI command, then counts the minor page faults
# of 20 rounds that each allocate, write and free ten 1 MiB arrays (one
# round first, so the heap has grown once).
FAULT_PROBE = """
import resource
import numpy as np
from vgram.cli import main

assert main(["parse"]) == 1

def churn():
    arrays = [np.ones(1 << 17) for _ in range(10)]
    del arrays

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


MALLOC_ENV = ("GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _probe_faults(user_env: dict) -> int:
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
    env.update(user_env, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the allocator policy is set through glibc's mallopt")


@glibc_only
def test_cli_keeps_freed_memory_mapped():
    """After ``main`` a freed array is reused, not returned to the kernel
    and faulted in again (about 51 000 faults with glibc's sliding rule)."""
    assert _probe_faults({}) < 1000


@glibc_only
@pytest.mark.parametrize("user_env", [
    {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
])
def test_cli_leaves_user_malloc_settings(user_env):
    """A threshold set in the environment fixes glibc's mmap threshold at
    its 128 KiB default, and ``main`` does not override it: every 1 MiB
    array is mapped and unmapped again."""
    assert _probe_faults(user_env) > 10_000


def test_cli_runs_without_mallopt(tmp_path, monkeypatch):
    """Off glibc there is no ``mallopt``; the CLI runs as usual."""
    for name in MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr("ctypes.CDLL", lambda name: object())
    assert main(["synth", "--out", str(tmp_path)] + SMALL) == 0
    assert (tmp_path / "corpus.train.jsonl").is_file()


@pytest.mark.parametrize("libc", ["process", "no mallopt"])
def test_mallopt_looked_up_once(monkeypatch, capsys, libc):
    """Two ``main`` calls in one process open the C library at most once,
    whether or not it has a ``mallopt``."""
    for name in MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    opened = []
    real = ctypes.CDLL

    def counting(name):
        opened.append(name)
        return real(name) if libc == "process" else object()

    monkeypatch.setattr("ctypes.CDLL", counting)
    cli._mallopt.cache_clear()
    try:
        assert main(["parse"]) == 1
        assert main(["parse"]) == 1
        assert opened == [None]
    finally:
        cli._mallopt.cache_clear()


# -- what a command leaves behind -----------------------------------------


def _decode_argv(dataset, tmp_path, command, workers):
    argv = [command, "--corpus", str(dataset / "corpus.test.jsonl"),
            "--features", str(dataset / "features.jsonl"),
            "--embeddings", str(dataset / "embeddings.jsonl"),
            "--workers", str(workers), "--out", str(tmp_path / "out.jsonl")] + DIMS
    return argv + ["--use-gold-trees"] if command == "ground" else argv


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["parse", "ground"])
def test_no_pool_state_survives_a_command(dataset, tmp_path, monkeypatch, command, workers):
    """The decode function (with the model and regions it reads) and the
    sentences a parse or ground command hands its workers are gone when
    ``main`` returns."""
    seen = []
    pool_parse = cli._pool_parse

    def recording(idx):
        seen.append(sorted(cli._POOL_STATE))
        return pool_parse(idx)

    if workers == 1:    # a fork pool pickles the unit by name
        monkeypatch.setattr(cli, "_pool_parse", recording)
    assert main(_decode_argv(dataset, tmp_path, command, workers)) == 0
    if workers == 1:    # each of the six test sentences read the state
        assert seen == [["decode", "sentences"]] * 6
    assert cli._POOL_STATE == {}


@pytest.mark.parametrize("workers", [1, 2])
def test_no_pool_state_survives_a_failed_unit(dataset, tmp_path, monkeypatch, capsys, workers):
    """A data error inside a unit (a node set the model refuses to
    build) is exit 2 and also leaves no state."""
    def refuse(model, image_id, regions):
        raise DataError(f"{image_id}: refused")

    monkeypatch.setattr(model_mod.Model, "build_visual_nodes", refuse)
    assert main(_decode_argv(dataset, tmp_path, "parse", workers)) == 2
    assert ": refused" in capsys.readouterr().err
    assert cli._POOL_STATE == {}


@pytest.mark.parametrize("command", ["parse", "ground"])
def test_sentences_over_the_length_cap_are_skipped(dataset, tmp_path, caplog, command):
    """Below the longest test sentence, the cap drops the longer ones
    with a warning; the rest are written in input order."""
    sentences, _ = data.load_corpus(str(dataset / "corpus.test.jsonl"))
    cap = max(len(s) for s in sentences) - 1
    kept = [s.id for s in sentences if len(s) <= cap]
    assert 0 < len(kept) < len(sentences)
    argv = _decode_argv(dataset, tmp_path, command, 1) + ["--set", f"max_parse_len={cap}"]
    with caplog.at_level(logging.WARNING, logger="vgram"):
        assert main(argv) == 0
    out = str(tmp_path / "out.jsonl")
    if command == "parse":
        written = [s.id for s in data.load_corpus(out)[0]]
    else:
        written = list(data.load_alignments(out))
    assert written == kept
    assert (f"skipping {len(sentences) - len(kept)} sentences over the inference "
            f"length cap {cap}") in caplog.text


def _command_that(outcome):
    def command(args, cfg):
        assert not gc.isenabled()       # paused while the command runs
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    return command


@pytest.mark.parametrize("outcome, rc", [
    (0, 0),
    (UsageError("bad flag"), 1),
    (DataError("bad record"), 2),
    (RuntimeError("internal bug"), None),
], ids=["exit0", "exit1", "exit2", "raises"])
@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_restores_collector(tmp_path, monkeypatch, outcome, rc, collecting):
    """``main`` pauses the cyclic collector for the command and leaves
    it as the caller had it, on every way out."""
    monkeypatch.setitem(cli.COMMANDS, "synth", _command_that(outcome))
    argv = ["synth", "--out", str(tmp_path)]
    was = gc.isenabled()
    if not collecting:
        gc.disable()
    try:
        if rc is None:
            with pytest.raises(RuntimeError, match="internal bug"):
                main(argv)
        else:
            assert main(argv) == rc
        assert gc.isenabled() == collecting
    finally:
        if was:
            gc.enable()


def test_import_leaves_collector_alone():
    """Only the ``vgram`` entry point sets process policy."""
    code = ("import gc\n"
            "gc.set_threshold(1234, 5, 6)\n"
            "import vgram, vgram.cli\n"
            "print(gc.isenabled(), gc.get_threshold())\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True (1234, 5, 6)"
