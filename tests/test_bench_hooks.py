"""The benchmark's hooks still fit the program.

``benchmarks/instrument.py`` wraps program functions by name and calls
them with fixed argument shapes. A rename or a changed signature there
would only show as a failed ``--trace 1`` run; these tests load the
hooks read-only and run them around a tiny train, parse and ground.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import vgram.cli

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SMALL = ["--set", "synth_sentences=24", "--set", "synth_dev=6",
         "--set", "synth_test=6", "--set", "synth_max_len=5",
         "--set", "synth_min_len=2", "--set", "synth_dim=8"]
DIMS = ["--set", "hidden_dim=8", "--set", "match_dim=8", "--set", "tag_dim=4",
        "--set", "arc_hidden=6", "--set", "second_hidden=6",
        "--set", "dec_tag_dim=4", "--set", "dec_hidden=8"]


@pytest.fixture(scope="module")
def instrument():
    spec = importlib.util.spec_from_file_location("bench_instrument",
                                                  BENCH / "instrument.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True     # leave the benchmark directory untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert vgram.cli.main(["synth", "--out", str(out)] + SMALL) == 0
    return out


def test_span_targets_resolve(instrument):
    modules = instrument._modules()
    for module, owner, attr, name, _ in instrument.SPANS:
        target = getattr(modules[module], owner) if owner else modules[module]
        assert callable(getattr(target, attr, None)), f"{name}: {module}.{owner}.{attr}"


def test_probe_targets_resolve_and_restore(instrument):
    patcher = instrument.Patcher()
    instrument.Probe().install(patcher)
    saved = list(patcher._saved)
    assert saved
    patcher.restore()
    for owner, attr, original in saved:
        assert callable(original), attr
        assert getattr(owner, attr) is original, attr


def test_hooks_run_around_train_parse_ground(instrument, dataset, tmp_path):
    data = {name: str(dataset / f"{name}.jsonl")
            for name in ("features", "embeddings", "scene_graphs")}
    run = tmp_path / "run"
    tracer, probe, patcher = instrument.Tracer(), instrument.Probe(), instrument.Patcher()
    probe.install(patcher)
    tracer.install(patcher)
    try:   # through the module, where the tracer patched ``main``
        assert vgram.cli.main(["train", "--corpus", str(dataset / "corpus.train.jsonl"),
                     "--dev-corpus", str(dataset / "corpus.dev.jsonl"),
                     "--features", data["features"], "--embeddings", data["embeddings"],
                     "--out", str(run), "--set", "epochs=1"] + DIMS) == 0
        assert vgram.cli.main(["parse", "--corpus", str(dataset / "corpus.test.jsonl"),
                     "--features", data["features"], "--embeddings", data["embeddings"],
                     "--ckpt", str(run / "ckpt_final.bin"), "--out", str(tmp_path / "p.jsonl"),
                     "--set", "epochs=1"] + DIMS) == 0
        assert vgram.cli.main(["ground", "--corpus", str(dataset / "corpus.test.jsonl"),
                     "--features", data["features"], "--embeddings", data["embeddings"],
                     "--scene-graphs", data["scene_graphs"], "--use-gold-trees",
                     "--set", "identity_init=true", "--out", str(tmp_path / "g.jsonl")]
                    + DIMS) == 0
    finally:
        patcher.restore()
    _, _, calls = tracer.totals()
    for name in ("cli.main", "train.run_epoch", "train.evaluate", "model.total_loss",
                 "model.harmonic_loss", "model._pad_nodes", "model.encode",
                 "model.build_visual_nodes", "model.build_visual_nodes_gold",
                 "model.parse", "model.ground", "tensor.backward", "tensor.matmul"):
        assert calls[name] > 0, name
    assert tracer.count["computed.node_slots"] > 0
    assert tracer.count["computed.contrastive.gflop"] > 0
    assert probe.steps and probe.units and not probe.loss_failures
    parsed = probe.take_parsed()
    assert parsed and all(nodes for _, _, nodes in parsed)
    # the probe keeps each parse's ``node_set.nodes`` and reads it after the
    # command returns: it needs len, indexing, iteration and ``.id``
    for _, alignment, nodes in parsed:
        ids = [nd.id for nd in nodes]
        assert len(ids) == len(nodes) and ids[-1] == nodes[len(nodes) - 1].id == "img"
        assert [nodes[k].id for k in range(len(nodes))] == ids
        assert set(alignment.zero.values()) <= set(ids)
