"""AGL pipeline benchmark: ingest tables → GraphFlat → train → GraphInfer.

Usage (from the repository root):

    python3 perfbench/run.py --workload uug-spill --seed 1 --seconds 20 --trace 0

One client runs whole pipelines back to back (a closed loop) for
``--seconds`` seconds, always at least one.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
pipelines and reports the per-layer breakdown measured by wrapping the
public functions each layer calls into (see ``tracing.py``).  Every run
checks its outputs: SHA-256 digests of the GraphFlat record stream, the
per-epoch losses and the GraphInfer predictions must agree across the
run's pipelines and with ``golden.json`` for recorded seeds; ``uug-spill``
must also reproduce the serial backend's GraphFlat bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report and a provenance record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 5, 2.0, 50
# The forkserver's listening socket lives under the temp dir; AF_UNIX paths
# are limited to 107 bytes, so only a short checkout can host it.
MAX_TMPDIR_LEN = 70
MIB = 2**20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("uug-spill", "uug-memory", "lp-train"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float | None]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; ``(max, None)`` when fewer than 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), None
    return ordered[n - 11], 100.0 * (n - 10) / n


class NullTracer:
    """Stand-in for untraced pipelines: stage names only, no spans."""

    stage = "setup"

    @contextmanager
    def span(self, name):
        yield


def provenance(args) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "numeric_platform": numeric_platform(),
        "tmpdir": os.environ.get("TMPDIR"),
    }


def numeric_platform() -> str:
    """Fingerprint of what float results depend on: numpy and the CPUs.
    Loss and prediction digests are only compared to golden values
    recorded on the same fingerprint; GraphFlat bytes always are."""
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith(("model name", "flags")):
                cpu += line
                if line.startswith("flags"):
                    break
    except OSError:
        pass
    text = f"{numpy.__version__}|{platform.machine()}|{os.cpu_count()}|{cpu}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------------ setup
def run_setup(workload_mod, workload: str, seed: int, workdir: Path):
    """Generate + TSV round trip, repeated; returns the last inputs and the
    per-repetition times of the whole set-up and of each part."""
    times: dict[str, list[float]] = {"setup": [], "datasets.generate": [], "datasets.table_io": []}

    @contextmanager
    def span(name):
        start = time.perf_counter()
        yield
        times[name].append(time.perf_counter() - start)

    begin = time.perf_counter()
    inputs = None
    while (
        len(times["setup"]) < SETUP_REPS
        or (time.perf_counter() - begin < SETUP_MIN_S and len(times["setup"]) < SETUP_MAX_REPS)
    ):
        with span("setup"):
            inputs = workload_mod.make_inputs(workload, seed, workdir, span)
    return inputs, times


# -------------------------------------------------------------- checking
def check_digests(args, runs, reference_flat: str | None, problems: list[str]) -> None:
    """Cross-pipeline, cross-backend and golden digest checks; a mismatch
    fails that stage's operation in the offending pipeline."""
    done = [r for r in runs if r.digests]
    if not done:
        return
    first = done[0].digests
    golden = {}
    if GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text()).get(args.workload, {}).get(str(args.seed), {})
    same_numerics = golden.get("numeric_platform") == numeric_platform()
    for run in done:
        for stage, key in (("flat", "flat"), ("train", "loss"), ("infer", "infer")):
            if run.digests[key] != first[key]:
                run.fail(stage, f"{key} digest differs between pipelines of one run")
            if key in golden and (key == "flat" or same_numerics) and run.digests[key] != golden[key]:
                run.fail(stage, f"{key} digest differs from golden.json")
        if reference_flat is not None and run.digests["flat"] != reference_flat:
            run.fail("flat", "GraphFlat bytes differ from the serial backend's")
    if golden and not same_numerics:
        problems.append("golden loss/prediction digests recorded on another numeric "
                        "platform: only the GraphFlat digest was compared")


# --------------------------------------------------------------- metrics
def end_to_end(runs, setup_times) -> dict[str, tuple[float, str]]:
    """Times are medians over the run's pipelines; stage throughputs are
    work over time summed across them, so every measured second counts."""
    ok = [r for r in runs if not r.failures]

    def rate(work, seconds):
        total = sum(seconds(r) for r in ok)
        return sum(work(r) for r in ok) / total if total else 0.0

    return {
        "setup_s": (median(setup_times["setup"]), "s"),
        "pipeline_s": (median([r.pipeline_s for r in ok]), "s"),
        "flat_targets_per_s": (rate(lambda r: r.targets, lambda r: r.stage_s["flat"]), "1/s"),
        "train_samples_per_s": (rate(lambda r: r.trained, lambda r: r.fit_s), "1/s"),
        "infer_nodes_per_s": (rate(lambda r: r.scored, lambda r: r.stage_s["infer"]), "1/s"),
        "cpu_s": (median([r.cpu_s for r in ok]), "s"),
        "peak_rss_mb": (median([r.peak_rss_mb for r in ok]), "MB"),
    }


NOT_MEASURED = {
    "uug-spill": {
        "trainer.*": "training runs inside parameter-server worker processes, "
                     "which wrappers in the parent cannot see",
        "nn.*": "forward/backward run inside parameter-server worker processes",
        "proto.decode_s": "shards are decoded inside parameter-server worker processes",
    },
    "uug-memory": {"ps.*": "no parameter server: one in-process GraphTrainer",
                   "mapreduce.pool_start_s": "serial backend starts no pool"},
    "lp-train": {"ps.*": "no parameter server: one in-process GraphTrainer",
                 "mapreduce.pool_start_s": "serial backend starts no pool"},
}
TWIN_LAYERS = ("mapreduce.partition", "mapreduce.group", "mapreduce.spill_write",
               "mapreduce.merge", "mapreduce.sink", "proto.encode", "graphflat.",
               "infer.reduce", "flat.unattributed", "infer.unattributed")


def per_layer(workload: str, traced, twin, setup_times, overhead: float):
    """Per-layer metrics of one traced pipeline (``traced``: (run, rollup));
    ``twin`` holds the in-process twin's (stage walls, rollup) for the
    worker-side layers of ``uug-spill``."""
    run, roll = traced
    worker_roll, worker_walls = (twin[1], twin[0]) if twin else (roll, run.stage_s)

    def self_s(rollup, stage, span):
        return rollup.get((stage, span), (0.0, 0))[0]

    def calls(rollup, stage, span):
        return rollup.get((stage, span), (0.0, 0))[1]

    def unattributed(rollup, walls, stage):
        covered = sum(s for (st, name), (s, _) in rollup.items()
                      if st == stage and not name.startswith("stage."))
        return walls.get(stage, 0.0) - covered

    flat, infer = run.flat_stats, run.infer_stats
    targets, scored = max(run.targets, 1), max(run.scored, 1)
    steps = [s * 1e3 for s in run.step_s]
    compute = run.timers.get("compute", 0.0)
    preprocess = run.timers.get("preprocess", 0.0)
    w = worker_roll
    m = {
        "datasets.generate_s": (median(setup_times["datasets.generate"]), "s"),
        "datasets.table_io_s": (median(setup_times["datasets.table_io"]), "s"),
        "shuffle_mb": (sum(s.shuffle_bytes_written for s in flat + infer) / MIB, "MB"),
        "mapreduce.shuffled_records_per_target": (
            sum(s.shuffled_records for s in flat) / targets, "count"),
        "mapreduce.spill_bytes_per_target": (
            sum(s.shuffle_bytes_written for s in flat) / targets, "count"),
        "mapreduce.partition_s": (self_s(w, "flat", "mapreduce.partition"), "s"),
        "mapreduce.partition_calls": (calls(w, "flat", "mapreduce.partition"), "count"),
        "mapreduce.group_s": (self_s(w, "flat", "mapreduce.group"), "s"),
        "mapreduce.spill_write_s": (self_s(w, "flat", "mapreduce.spill_write"), "s"),
        "mapreduce.merge_s": (self_s(w, "flat", "mapreduce.merge"), "s"),
        "mapreduce.sink_s": (self_s(w, "flat", "mapreduce.sink"), "s"),
        "mapreduce.pool_start_s": (
            self_s(roll, "flat", "process.start") + self_s(roll, "infer", "process.start"), "s"),
        "mapreduce.task_attempts": (
            sum(s.map_attempts + s.reduce_attempts for s in flat + infer), "count"),
        "mapreduce.retries": (
            calls(roll, "flat", "mapreduce.retry") + calls(roll, "infer", "mapreduce.retry"),
            "count"),
        "mapreduce.record_skew_max": (max((s.records_skew() for s in flat), default=0.0), "x"),
        "mapreduce.peak_reducer_buffer_mb": (
            max((s.peak_reducer_buffer_bytes for s in flat + infer), default=0) / MIB, "MB"),
        "proto.encode_s": (self_s(w, "flat", "proto.encode"), "s"),
        "proto.decode_s": (self_s(roll, "train", "proto.decode"), "s"),
        "graphflat.reduce_s": (self_s(w, "flat", "graphflat.reduce"), "s"),
        "graphflat.sample_s": (self_s(w, "flat", "sampling.select"), "s"),
        "trainer.preprocess_s": (preprocess, "s"),
        "trainer.compute_s": (compute, "s"),
        "trainer.wait_s": (run.fit_s - compute if compute else 0.0, "s"),
        "trainer.preprocess_compute_ratio": (preprocess / compute if compute else 0.0, "x"),
        "trainer.shard_read_s": (self_s(roll, "train", "trainer.shard_read"), "s"),
        "trainer.vectorize_s": (self_s(roll, "train", "trainer.vectorize"), "s"),
        "trainer.prune_s": (self_s(roll, "train", "trainer.prune"), "s"),
        "trainer.step_ms_p50": (median(steps), "ms"),
        "trainer.step_ms_tail": (tail(steps)[0] if steps else 0.0, "ms"),
        "nn.forward_s": (self_s(roll, "train", "nn.forward"), "s"),
        "nn.backward_s": (self_s(roll, "train", "nn.backward"), "s"),
        "nn.optimizer_s": (self_s(roll, "train", "nn.optimizer"), "s"),
        "ps.pulls": (run.ps.get("pulls", 0), "count"),
        "ps.refreshes": (run.ps.get("refreshes", 0), "count"),
        "ps.pull_bytes": (run.ps.get("pull_bytes", 0), "count"),
        "ps.epoch_s": (median(run.epoch_s) if run.ps else 0.0, "s"),
        "infer.embedding_computations": (run.embedding_computations, "count"),
        "infer.shuffled_records_per_node": (
            sum(s.shuffled_records for s in infer) / scored, "count"),
        "infer.reduce_s": (self_s(w, "infer", "infer.reduce"), "s"),
        "infer.slice_broadcast_s": (self_s(roll, "infer", "infer.slice_broadcast"), "s"),
        "flat.unattributed_s": (unattributed(w, worker_walls, "flat"), "s"),
        "train.unattributed_s": (unattributed(roll, run.stage_s, "train"), "s"),
        "infer.unattributed_s": (unattributed(w, worker_walls, "infer"), "s"),
        "trace.overhead_ratio": (overhead, "x"),
    }
    notes = {}
    for pattern, reason in NOT_MEASURED.get(workload, {}).items():
        for name in m:
            if name == pattern or (pattern.endswith("*") and name.startswith(pattern[:-1])):
                notes[name] = f"not measured: {reason}"
    if twin:
        for name in m:
            if name.startswith(TWIN_LAYERS):
                notes[name] = "measured on the in-process twin (serial backend with spill dir)"
    return m, notes


# ------------------------------------------------------------------ main
def run_loop(wl, args, inputs, workdir, trace_mod):
    """Closed loop; returns (runs, traced [(run, rollup)], overhead ratio,
    the last trained model)."""
    from proctree import TreeMonitor

    runs, traced, plain_s, traced_s = [], [], [], []
    model = None
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        # traced runs alternate traced and untraced pipelines, traced first
        trace_this = bool(args.trace) and len(runs) % 2 == 0
        tracer = trace_mod.Tracer() if trace_this else NullTracer()
        patches = trace_mod.LayerPatches(tracer) if trace_this else None
        with TreeMonitor() as monitor:
            if patches:
                patches.install()
            try:
                run = wl.run_pipeline(args.workload, inputs, args.seed, workdir, tracer)
            finally:
                if patches:
                    patches.remove()
        run.cpu_s, run.peak_rss_mb = monitor.cpu_s, monitor.peak_rss_mb
        run.rusage_children_s = monitor.rusage_children_s
        run.pipeline_s = sum(run.stage_s.values())
        wl.check_outputs(args.workload, inputs, workdir, run)
        runs.append(run)
        if trace_this:
            traced.append((run, tracer.rollup()))
            traced_s.append(run.pipeline_s)
        else:
            plain_s.append(run.pipeline_s)
        model, run.model = run.model, None  # keep only the last model alive
    overhead = median(traced_s) / median(plain_s) if traced_s and plain_s else 0.0
    return runs, traced, overhead, model


def run_twin(wl, trace_mod, args, inputs, workdir, model):
    """uug-spill's worker-side layers, timed in-process: GraphFlat and
    GraphInfer on the serial backend with a spill dir, which runs the same
    spill and merge code as the forkserver workers."""
    tracer = trace_mod.Tracer()
    walls = {}
    fs = wl.DistFileSystem(workdir / "twin")
    with trace_mod.LayerPatches(tracer):
        for stage in ("flat", "infer"):
            tracer.stage = stage
            start = time.perf_counter()
            if stage == "flat":
                wl.run_flat(args.workload, inputs, args.seed, workdir, fs, "serial-spill")
            else:
                wl.run_infer(args.workload, inputs, model, args.seed, workdir, fs, "serial-spill")
            walls[stage] = time.perf_counter() - start
    return walls, tracer.rollup(), wl.digest(fs.read_dataset("train"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no AGL sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    state = ROOT / ".perfbench"
    tmp = state / "t"
    if len(str(tmp)) <= MAX_TMPDIR_LEN:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)  # inherited by every worker
    workdir = state / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    # A SIGTERM unwinds like an exception, so the clean-up below still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return bench(args, workdir)
    finally:
        stop_processes()
        shutil.rmtree(workdir, ignore_errors=True)


def stop_processes(grace_s: float = 10.0) -> None:
    """Stop every process the benchmark started and wait until each ended.

    multiprocessing keeps its forkserver and resource tracker running until
    the interpreter exits, and they only notice a moment after it has; here
    they are stopped and reaped before the benchmark exits.  Any other
    descendant still alive a second later (say, a worker of a stage that
    raised) gets SIGTERM, and SIGKILL once ``grace_s`` has passed."""
    from multiprocessing import forkserver, resource_tracker

    from proctree import descendants

    forkserver._forkserver._stop()  # closes its alive pipe, waits for it
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        # EOF on its pipe ends the tracker; it is reaped in the loop below.
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    start = time.monotonic()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass  # reap every child that has exited
        except ChildProcessError:
            pass  # no children left
        left = descendants(os.getpid())
        if not left:
            return
        waited = time.monotonic() - start
        if waited > 1.0:
            sig = signal.SIGKILL if waited > grace_s else signal.SIGTERM
            for pid in left:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def bench(args, workdir: Path) -> int:
    import tracing as trace_mod
    import workloads as wl

    inputs, setup_times = run_setup(wl, args.workload, args.seed, workdir)
    runs, traced, overhead, model = run_loop(wl, args, inputs, workdir, trace_mod)
    problems: list[str] = []
    twin = None
    reference = None
    if args.workload == "uug-spill":
        if args.trace:
            walls, rollup, reference = run_twin(wl, trace_mod, args, inputs, workdir, model)
            twin = (walls, rollup)
        else:
            reference = wl.flat_digest(args.workload, inputs, args.seed, workdir, "serial")
    check_digests(args, runs, reference, problems)

    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failures) for r in runs)
    report = {
        "provenance": provenance(args),
        "pipelines": len(runs),
        "error_rate": failed / attempted,
        "digests": runs[0].digests,
        "failures": [f"pipeline {i}: {stage}: {why}" for i, r in enumerate(runs)
                     for stage, why in r.failures.items()],
        "notes": problems,
    }
    if args.trace:
        metrics, notes = per_layer(args.workload, traced[-1], twin, setup_times, overhead)
        if not overhead:
            notes["trace.overhead_ratio"] = (
                "not measured: the traced pipeline alone filled --seconds; compare "
                "pipeline_s of this run's report with an untraced run's")
        report["pipeline_s"] = [r.pipeline_s for r in runs]
        report["traced"] = [i % 2 == 0 for i in range(len(runs))]
        if twin:
            report["twin_stage_s"] = twin[0]
    else:
        metrics, notes = end_to_end(runs, setup_times), {}
        ok = [r.pipeline_s for r in runs if not r.failures]
        value, pct = tail(ok)
        report["pipeline_s"] = {
            "median": median(ok), "samples": len(ok),
            "tail": value, "tail_percentile": pct if pct is not None else "max",
        }
        report["stage_s"] = {
            stage: median([r.stage_s[stage] for r in runs if not r.failures])
            for stage in ("flat", "train", "infer")
        }
        report["cpu_s_rusage_children"] = median(
            [r.rusage_children_s for r in runs if not r.failures])
        report["shuffle_mb"] = median(
            [sum(s.shuffle_bytes_written for s in r.flat_stats + r.infer_stats) / MIB
             for r in runs if not r.failures])
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {value:>14.6g} {unit}{note}")
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
