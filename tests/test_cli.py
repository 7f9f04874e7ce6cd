import json

import numpy as np
import pytest

from vgram import core, data
from vgram.cli import main
from vgram.core import validate_tree
from vgram.config import ConfigError, digest, resolve

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
    assert digest(resolve()) == "48897fd49c0159b0"


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
    args = ["--corpus", str(dataset / "corpus.test.jsonl"),
            "--features", str(dataset / "features.jsonl"),
            "--embeddings", str(dataset / "embeddings.jsonl")]
    out1, out2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
    assert main(["parse"] + args + ["--out", str(out1)] + DIMS) == 0
    assert main(["parse"] + args + ["--out", str(out2), "--workers", "2"] + DIMS) == 0
    assert out1.read_text() == out2.read_text()


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
