"""vgram benchmark: three workloads through ``vgram.cli.main``, in-process.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``train``        ``vgram train`` on a fixed length mix of the default
                   synthetic world: harmonic warm-up, one joint epoch,
                   dev evaluation, per-epoch checkpoints.
* ``parse_long``   ``vgram parse`` then ``vgram eval --pred-trees`` on
                   captions of 20-60 tokens, with a checkpoint trained
                   once per run on a short world of the same grammar.
* ``ground_align`` the training-free path on the default world:
                   ``vgram ground --use-gold-trees`` and ``vgram align``,
                   each followed by ``vgram eval``.

A run repeats its workload's cycle of commands until ``--seconds`` have
passed (and at least ``MIN_CYCLES`` times). Inputs come from ``--seed``
and are generated in child processes before the clock starts. Every
output is checked; a failed check counts one failed unit.

With ``--trace 0`` the last line carries the end-to-end metrics. With
``--trace 1`` the run measures once untraced and once traced, and the
last line carries the per-layer metrics (per cycle) and the tracing
overhead. The line before the last is a JSON detail record: machine,
sample counts, quality guards and any check failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
import tracemalloc

import worlds
from instrument import Patcher, Probe, Tracer, clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train", "parse_long", "ground_align")
MIN_CYCLES = 3
# One BLAS thread keeps a run single-threaded, like the workers setting
# of 1, so its timings depend less on what else the host runs.
BLAS_THREADS = "1"
EPOCHS = "epochs=1"          # one joint epoch per `vgram train` invocation
# The benchmark's --seed makes the data. The program's own seed (model
# init, batch order) cycles through these for `train`: the peak RSS of a
# process depends on the order of batch lengths through heap
# fragmentation (1.4 GB or 2.2 GB on the same data), so every run sees
# the same three orders and reports the worst.
TRAIN_PROGRAM_SEEDS = (0, 1, 2)


def _quantile95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[18] if len(values) > 1 else values[0]


class Run:
    """State of one measurement phase: the probe, counters, check failures."""

    def __init__(self, workload: str, seed: int, work: str, inputs: dict):
        self.workload, self.seed, self.work, self.inputs = workload, seed, work, inputs
        self.probe = Probe()
        self.patcher = Patcher()
        self.setups: list[float] = []
        self.busy = 0.0                 # seconds after set-up, summed over commands
        self.passes = 0                 # sentence passes in those seconds
        # a joint training batch on `train`; one sentence elsewhere (on
        # `ground_align` its ground and align calls together)
        self.step_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.quality: dict[str, float] = {}
        self.cycles = 0

    # -- bookkeeping ----------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    def command(self, argv: list[str], units: int) -> tuple[bool, float]:
        """Run one CLI command; return (succeeded, set-up seconds).

        ``units`` is what the command would have produced; when it fails
        all of them count as attempted and failed.
        """
        import vgram.cli
        self.probe.first_unit = None
        # start each command from a collected heap, as a fresh process would
        gc.collect()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = vgram.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        t1 = clock()
        first = self.probe.first_unit or t1
        self.busy += t1 - first
        if rc != 0:
            self.attempted += units
            self.failed += units
            self.errors.append(f"vgram {argv[0]} exited with {rc}")
        return rc == 0, first - t0

    def check_parsed(self) -> None:
        """Every tree Model.parse returned is valid and grounded in its node set."""
        from vgram.core import validate_tree
        for heads, alignment, nodes in self.probe.take_parsed():
            problem = validate_tree(heads)
            ids = {nd.id for nd in nodes}
            missing = [v for v in alignment.zero.values() if v not in ids]
            self.check(problem is None and not missing,
                       f"parse: tree {problem}, unknown node ids {missing[:3]}")

    # -- workload cycles ------------------------------------------------

    def cycle(self, index: int) -> None:
        getattr(self, "cycle_" + self.workload)(index)

    def cycle_train(self, index: int) -> None:
        inp = self.inputs
        out = os.path.join(self.work, f"run{index}")
        batches = sum(worlds.TRAIN_BATCHES.values())
        steps_before = len(self.probe.steps)
        failures_before = len(self.probe.loss_failures)
        program_seed = TRAIN_PROGRAM_SEEDS[index % len(TRAIN_PROGRAM_SEEDS)]
        ok, setup = self.command(
            ["train", "--seed", str(program_seed), "--workers", "1", "--set", EPOCHS,
             "--corpus", inp["corpus"], "--features", inp["features"],
             "--embeddings", inp["embeddings"], "--dev-corpus", inp["dev"], "--out", out],
            units=2 * batches + 1)
        self.setups.append(setup)
        self.passes += self.probe.passes + len(self.probe.parsed)
        self.probe.passes = 0
        self.check_parsed()
        if ok:
            steps = self.probe.steps[steps_before:]
            self.step_samples += [sec for phase, _, sec in steps if phase == "joint"]
            self.check(len(steps) == 2 * batches,
                       f"train: {len(steps)} steps, expected {2 * batches}")
            # every step's loss is checked once; a non-finite one fails the step
            self.attempted += len(steps)
            for message in self.probe.loss_failures[failures_before:]:
                self.failed += 1
                self.errors.append(message)
            self.check_train_outputs(out, program_seed)
        shutil.rmtree(out, ignore_errors=True)

    def check_train_outputs(self, out: str, program_seed: int) -> None:
        ckpts = [os.path.join(out, f) for f in ("ckpt_epoch1.bin", "ckpt_final.bin")]
        present = all(os.path.isfile(p) and os.path.getsize(p) > 0 for p in ckpts)
        rows = worlds.read_jsonl(os.path.join(out, "train_log.jsonl"))
        joint = [r for r in rows if r["phase"] == "train"]
        finite = all(math.isfinite(r["mle"]) and math.isfinite(r["cl"]) for r in joint)
        dda = joint[-1]["dev_dda"] if joint else None
        self.check(present and finite and len(rows) == 2 and dda is not None
                   and 0.0 <= dda <= 1.0,
                   f"train outputs: checkpoints {present}, log rows {rows}")
        if dda is not None:
            self.quality[f"dev_dda.program_seed{program_seed}"] = dda

    def cycle_parse_long(self, index: int) -> None:
        from vgram.core import validate_tree
        inp = self.inputs
        pred = os.path.join(self.work, f"pred{index}.jsonl")
        report = os.path.join(self.work, f"report{index}.json")
        gold = inp["gold"]
        units_before = len(self.probe.units)
        ok, setup_parse = self.command(
            ["parse", "--seed", str(self.seed), "--workers", "1", "--set", EPOCHS,
             "--corpus", inp["corpus"], "--features", inp["features"],
             "--embeddings", inp["embeddings"], "--ckpt", inp["ckpt"], "--out", pred],
            units=len(gold) + 1)
        self.check_parsed()
        self.step_samples += self.probe.units[units_before:]
        setup_eval = 0.0
        if ok:
            preds = worlds.read_jsonl(pred)[1:]
            self.check([p["id"] for p in preds] == [g["id"] for g in gold],
                       "parse: output ids differ from input ids")
            for p in preds:
                problem = validate_tree(p["heads"])
                self.check(problem is None, f"parse: {p['id']}: {problem}")
            ok, setup_eval = self.command(
                ["eval", "--gold-corpus", inp["corpus"], "--pred-trees", pred,
                 "--out", report],
                units=1)
            if ok:
                with open(report, encoding="utf-8") as f:
                    dda = json.load(f)["dda"]
                right = sum(ph == gh for p, g in zip(preds, gold)
                            for ph, gh in zip(p["heads"], g["heads"]))
                expect = right / sum(len(g["heads"]) for g in gold)
                self.check(abs(dda - expect) < 1e-12,
                           f"eval: dda {dda} != recomputed {expect}")
                self.quality["dda"] = expect
        self.passes += 2 * len(gold)
        self.setups.append(setup_parse + setup_eval)

    def cycle_ground_align(self, index: int) -> None:
        inp = self.inputs
        setup = 0.0
        per_mode = []
        for mode in ("ground", "align"):
            units_before = len(self.probe.units)
            out = os.path.join(self.work, f"{mode}{index}.jsonl")
            report = os.path.join(self.work, f"{mode}{index}.report.json")
            common = ["--workers", "1", "--out", out,
                      "--corpus", inp["corpus"], "--scene-graphs", inp["scene_graphs"],
                      "--embeddings", inp["embeddings"]]
            if mode == "ground":
                argv = ["ground", *common, "--features", inp["features"],
                        "--use-gold-trees", "--set", "identity_init=true"]
            else:
                argv = ["align", *common]
            ok, s = self.command(argv, units=len(inp["sentences"]))
            setup += s
            per_mode.append(self.probe.units[units_before:])
            if not ok:
                continue
            self.check_alignments(out, gold_nodes=mode == "ground")
            ok, s = self.command(
                ["eval", "--gold-corpus", inp["corpus"],
                 "--pred-align", out, "--gold-align", inp["alignments"],
                 "--scene-graphs", inp["scene_graphs"], "--features", inp["features"],
                 "--out", report], units=1)
            setup += s
            if ok:
                with open(report, encoding="utf-8") as f:
                    values = json.load(f)
                scores = [values[k] for k in ("zero_aa", "first_aa", "second_aa")]
                self.check(all(0.0 <= v <= 1.0 for v in scores),
                           f"eval: {mode} scores out of range {scores}")
                self.quality[f"{mode}_zero_aa"] = values["zero_aa"]
            os.remove(out)
        # both commands take the corpus in order: one sample per sentence
        ground, align = per_mode
        if len(ground) == len(align) == len(inp["sentences"]):
            self.step_samples += [g + a for g, a in zip(ground, align)]
        self.passes += 4 * len(inp["sentences"])
        self.setups.append(setup)

    def check_alignments(self, path: str, gold_nodes: bool) -> None:
        """Every aligned node id exists in the sentence's scene graph.

        Grounding over gold nodes must align every token, and its node
        set adds the whole-image node ``img`` to the graph's nodes.
        """
        sentences, graphs = self.inputs["sentences"], self.inputs["graph_ids"]
        records = {r["sentence_id"]: r for r in worlds.read_jsonl(path)}
        self.check(set(records) == set(sentences),
                   f"{path}: {len(records)} alignments for {len(sentences)} sentences")
        for sid, rec in records.items():
            if sid not in sentences:
                continue
            image, n = sentences[sid]
            ids = graphs[image] | {"img"} if gold_nodes else graphs[image]
            used = [z["node"] for z in rec["zero"]]
            used += [x for f in rec["first"] for x in [f["rel"], *f["endpoints"]]]
            used += [x for s in rec["second"] for x in s["nodes"]]
            covered = {z["t"] for z in rec["zero"]} == set(range(1, n + 1))
            unknown = [x for x in used if x not in ids]
            self.check(not unknown and (covered or not gold_nodes),
                       f"{sid}: unknown node ids {unknown[:3]}, all tokens aligned {covered}")

    # -- measurement ----------------------------------------------------

    def measure(self, seconds: float, tracer=None, min_cycles: int = MIN_CYCLES) -> None:
        if tracer is not None:
            tracer.install(self.patcher)
        self.probe.install(self.patcher)
        try:
            start = clock()
            cycles = 0
            while cycles < min_cycles or clock() - start < seconds:
                self.cycle(cycles)
                cycles += 1
        finally:
            self.patcher.restore()
        self.cycles = cycles

    def end_to_end(self) -> dict[str, float]:
        steps = self.step_samples
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": statistics.median(self.setups),
            "sent_per_s": self.passes / self.busy,
            "step_ms_p50": 1e3 * statistics.median(steps),
            "step_ms_p95": 1e3 * _quantile95(steps),
            "peak_rss_mb": rss_mb,
        }


# -- inputs ---------------------------------------------------------------


def prepare(workload: str, seed: int, work: str) -> dict:
    if workload == "parse_long":
        base = worlds.default_world(ROOT, worlds.LONG_WORLD_SEED,
                                    os.path.join(work, "default"), sentences=worlds.CKPT_POOL)
        short = worlds.short_world(base, work)
        ckpt_dir = os.path.join(work, "ckpt")
        worlds.run_cli(ROOT, ["train", "--seed", str(seed), "--workers", "1",
                              "--set", EPOCHS, "--corpus", short,
                              "--features", base["features"],
                              "--embeddings", base["embeddings"], "--out", ckpt_dir])
        long = worlds.long_world(ROOT, seed, work)
        return {**long, "ckpt": os.path.join(ckpt_dir, "ckpt_final.bin"),
                "gold": worlds.read_jsonl(long["corpus"])[1:]}
    base = worlds.default_world(ROOT, seed, os.path.join(work, "default"))
    common = {"features": base["features"], "embeddings": base["embeddings"]}
    if workload == "train":
        return {**common, **worlds.train_world(base, work)}
    corpus = worlds.read_jsonl(base["corpus.train"])[1:]
    return {**common, "corpus": base["corpus.train"],
            "scene_graphs": base["scene_graphs"], "alignments": base["alignments"],
            "sentences": {s["id"]: (s["image_id"], len(s["tokens"])) for s in corpus},
            "graph_ids": worlds.scene_graph_ids(base["scene_graphs"])}


# -- per-layer metrics ------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(names: list[str], tracer, cycles: int, step_peak: dict,
              overhead: tuple[float, float]) -> dict[str, float]:
    """Each named per-layer metric, per traced cycle where it is a sum.

    A name is ``<span>.s``, ``<span>.calls`` or ``<span>.self_s`` for a
    span of ``instrument.SPANS``, a counter of ``instrument.COUNTERS``,
    or one of the derived values below. A layer the workload never
    reaches reads 0.
    """
    total, own, calls = tracer.totals()
    count = tracer.count
    untraced, traced = overhead
    derived = {
        "computed.visual_nodes_per_image": _ratio(count["computed.visual_nodes"],
                                                  count["computed.node_sets"]),
        "computed.pad_ratio": _ratio(count["computed.pad_slots"], count["computed.node_slots"]),
        "computed.viterbi.cells_per_sent": _ratio(count["computed.viterbi.cells"],
                                                  calls["chart.viterbi"]),
        "trace.untraced_sent_per_s": untraced,
        "trace.traced_sent_per_s": traced,
        "trace.overhead_pct": 100.0 * (untraced - traced) / untraced,
        **{f"tensor.step_peak_mb.n{n}": step_peak.get(n, 0.0) for n in range(3, 11)},
    }
    fields = {"s": total, "calls": calls, "self_s": own}
    values = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif field in fields and span in total:
            values[name] = fields[field][span] / cycles
        elif name in count:
            values[name] = count[name] / cycles
        else:
            raise KeyError(f"no measurement for per-layer metric {name!r}")
    return values


# -- machine record -------------------------------------------------------------


def _git_commit(root: str):
    try:
        # the ceiling keeps git from reading a repository above the checkout
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)})
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "vgram")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def machine() -> dict:
    """Where the numbers were taken; runs on different machines are not compared."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(), "machine": platform.machine(),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_commit": _git_commit(ROOT), "source_digest": _source_digest(ROOT)}


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vgram", "cli.py")):
        print(f"benchmark: no program under {os.path.join(ROOT, 'src', 'vgram')}",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # turn SIGTERM into SystemExit so the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs = prepare(args.workload, args.seed, work)
        first = Run(args.workload, args.seed, work, inputs)
        first.measure(args.seconds)
        runs = [first]
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "machine": machine()}
        if args.trace:
            tracer = Tracer()
            traced = Run(args.workload, args.seed, work, inputs)
            traced.measure(args.seconds, tracer)
            runs.append(traced)
            step_peak = {}
            if args.workload == "train":
                # tracemalloc slows Python code, so the memory probe is a run of its own
                probe_run = Run(args.workload, args.seed, work, inputs)
                probe_run.probe.memprobe = True
                tracemalloc.start()
                try:
                    probe_run.measure(0.0, min_cycles=1)
                finally:
                    tracemalloc.stop()
                step_peak = probe_run.probe.step_peak
                runs.append(probe_run)
            overhead = (first.passes / first.busy, traced.passes / traced.busy)
            values = per_layer([m["name"] for m in listed], tracer, traced.cycles,
                               step_peak, overhead)
            detail["traced_cycles"] = traced.cycles
        else:
            values = first.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    detail.update({
        "cycles": first.cycles,
        "setup_samples_s": first.setups,
        "step_samples": len(first.step_samples),
        "warmup_steps": sum(1 for p, _, _ in first.probe.steps if p == "warmup"),
        "sentence_passes": first.passes,
        "quality": first.quality,
        "errors": [e for r in runs for e in r.errors],
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
