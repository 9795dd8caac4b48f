#!/usr/bin/env python3
"""End-to-end benchmark of the SIMDRAM reproduction: one command,
seven workloads, the metrics named in ``BENCHMARK.json``.

One workload (the form the benchmark driver uses)::

    python3 benchmarks/e2e/run.py --workload bulk_map --seed 7 \\
        --seconds 6 --trace 0

prints every end-to-end metric by name with its unit and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 1`` is the separate traced run: it prints the per-layer
metrics instead and never feeds an end-to-end metric.

All workloads (each in a fresh process)::

    python3 benchmarks/e2e/run.py [--seed S] [--runs N] [--trace 0|1] \\
        [--out results.json]

A run is a sequence of *blocks*.  Every block constructs and warms a
fresh target (one ``setup_s`` sample), replays the same seeded inputs
for a frozen number of operations, checks every result against its
numpy golden and closes the target (leak check).  Blocks repeat until
``--seconds`` of measured time have passed, and at least the
workload's ``min_blocks`` times.  Blocks are repeats of each other:
timing metrics are the best the run saw of each part of a block,
``setup_s`` and the simulated metrics are medians over blocks.  See
``README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1 "
                             "(all-workloads form only)")
    parser.add_argument("--out", help="append the run record(s) to this "
                                      "result file (see compare.py)")
    parser.add_argument("--spans", help="traced run: write the raw span "
                                        "rows of the last block here")
    # Set by supervise(): this process is the one that measures.
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one block
# ---------------------------------------------------------------------------
def one_block(workload, inputs, gate, recorder=None, tracer=None) -> dict:
    """Set up a fresh target, run one measured block, close, check for
    leaks.  Set-up and block each start once ``gate`` finds the box
    quiet; ``recorder``/``tracer`` are the traced run's instruments."""
    from measure import Hygiene, Meter, now
    from repro.core.compiler import compile_cached
    from repro.obs import get_flight_recorder

    # Process-wide state that outlives a target would make later blocks
    # differ from the first: the memoized catalog compiler (set-up would
    # stop being a set-up) and the flight-recorder ring (replica children
    # inherit it at fork and rewrite it to disk on every event).
    compile_cached.cache_clear()
    flight = get_flight_recorder()
    flight.clear()

    hygiene = Hygiene()
    gate.wait()
    start = now()
    state = workload.setup(inputs, tracer)
    setup_s = now() - start
    probes: dict = {}
    try:
        meter = Meter(gate, workload.child_pids(state))
        sim_before = workload.sim(state, inputs)
        counts_before = workload.counts(state)
        if recorder is not None and not workload.synchronous:
            recorder.op = "run"
        gc.collect()
        gate.wait()
        flight_before = flight.n_recorded
        cpu_before = meter.cpu()
        outcome = workload.run(
            state, inputs, meter,
            op_span=recorder.operation if recorder is not None else None)
        cpu_s = meter.cpu() - cpu_before
        flight_events = flight.n_recorded - flight_before
        sim = workload.sim(state, inputs) - sim_before
        counts = {key: value - counts_before[key]
                  for key, value in workload.counts(state).items()}
        if recorder is not None:
            recorder.op = None
            probes = workload.probe(state, inputs)
    finally:
        workload.close(state)
    leaked_threads, leaked_files = hygiene.leaks()
    return {"setup_s": setup_s, "ops": workload.block_ops,
            "failed": outcome.failed, "wall_s": outcome.wall_s,
            "cpu_s": cpu_s, "op_cpu_s": outcome.cpu_s, "laps": outcome.laps,
            "latencies_s": outcome.latencies_s,
            "done_s": outcome.done_s, "sim": sim, "counts": counts,
            "probes": probes, "flight_events": flight_events,
            "leaked_threads": leaked_threads,
            "leaked_files": leaked_files}


def block_summary(block: dict, workload) -> dict:
    """What a result file keeps of a block: its totals and the samples
    every timing metric is recomputed from."""
    summary = {
        "ops": block["ops"], "failed": block["failed"],
        "setup_s": block["setup_s"], "wall_s": block["wall_s"],
        "cpu_s": block["cpu_s"],
        "sim_ns": block["sim"][0], "sim_nj": block["sim"][1],
        "dram_cmds": block["sim"][2],
    }
    if workload.synchronous:  # one at a time: keep every sample
        summary["latencies_ms"] = [s * 1e3 for s in block["latencies_s"]]
        summary["cpu_ms"] = [s * 1e3 for s in block["op_cpu_s"]]
    else:
        summary["slices_ms"] = (slices(block, workload) * 1e3).tolist()
    return summary


def slices(block: dict, workload):
    """``[wall, CPU, latency p50, latency p90]`` seconds of every slice
    of ``slice_ops`` operations of a closed-loop block."""
    import numpy as np
    from measure import percentile
    rows = []
    for j, (wall, cpu) in enumerate(np.diff(block["laps"], axis=0)):
        lo = j * workload.slice_ops
        good = [s for s in block["latencies_s"][lo:lo + workload.slice_ops]
                if s == s]
        rows.append((wall, cpu, percentile(good, 50), percentile(good, 90)))
    return np.array(rows)


def quiet_timings(workload, blocks) -> dict:
    """The four timing metrics of a run, each the best the run saw.

    This box alternates between a quiet and a contended state on a
    scale of seconds (README, "Why best-of"): a median over a run moves
    with the share of contended time, the minimum does not.  Every
    block does the same work in the same order, so the same place in
    another block is a repeat, and the quiet value of a place is the
    minimum over its repeats.

    * Synchronous workloads: a place is a *kind* of operation (its
      repeats are rounds and blocks); the percentiles are taken over
      kinds and the rate is one round of quiet latencies.
    * Closed loops have no comparable single operations (latency is
      queueing), so a place is a *slice* of the block, summarized by
      its wall and CPU time and its latency percentiles; the rate is
      one block of quiet slices, the percentiles their means.  Keeping
      the slices apart keeps what ages with the instance.
    """
    import numpy as np
    if workload.synchronous:
        kinds = workload.kinds
        latency = np.nanmin(np.reshape(
            [b["latencies_s"] for b in blocks], (-1, kinds)), axis=0)
        cpu = np.min(np.reshape(
            [b["op_cpu_s"] for b in blocks], (-1, kinds)), axis=0)
        return {"ops_per_s": kinds / float(latency.sum()),
                "latency_p50_ms": float(np.percentile(latency, 50)) * 1e3,
                "latency_p90_ms": float(np.percentile(latency, 90)) * 1e3,
                "cpu_ms_per_op": float(cpu.mean()) * 1e3}
    wall, cpu, p50, p90 = np.min(
        [slices(b, workload) for b in blocks], axis=0).T
    ops = workload.block_ops
    return {"ops_per_s": ops / float(wall.sum()),
            "latency_p50_ms": float(p50.mean()) * 1e3,
            "latency_p90_ms": float(p90.mean()) * 1e3,
            "cpu_ms_per_op": float(cpu.sum()) / ops * 1e3}


def drift_ratio(done_s, kinds: int) -> float:
    """Rate over the third quarter of a block over the rate over its
    second quarter (the first holds the transient of filling the
    window, the last that of draining it).  Quarters are whole rounds
    of ``kinds`` operations, so both hold the same work; 1.0 for a
    block of fewer than four."""
    done = sorted(done_s)
    quarter = len(done) // kinds // 4 * kinds
    if quarter == 0:
        return 1.0
    first, second, third = (done[n * quarter - 1] for n in (1, 2, 3))
    return (second - first) / (third - second)


# ---------------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ---------------------------------------------------------------------------
#: Most seconds a run waits for the box to get quiet, all waits together.
MAX_QUIET_WAIT_S = 5.0


def run_untraced(workload, inputs, seconds: float) -> tuple[dict, list]:
    import numpy as np
    from measure import QuietGate, peak_rss_mb
    gate = QuietGate(min(seconds, MAX_QUIET_WAIT_S))
    blocks, measured = [], 0.0
    while len(blocks) < workload.min_blocks or measured < seconds:
        blocks.append(one_block(workload, inputs, gate))
        measured += blocks[-1]["wall_s"]
    sim_ns, sim_nj, commands = np.median(
        [b["sim"] / b["ops"] for b in blocks], axis=0)
    metrics = {
        **quiet_timings(workload, blocks),
        "setup_s": statistics.median(b["setup_s"] for b in blocks),
        "peak_rss_mb": peak_rss_mb(),
        "sim_ns_per_op": sim_ns,
        "sim_nj_per_op": sim_nj,
        "dram_cmds_per_op": commands,
    }
    return metrics, blocks


# ---------------------------------------------------------------------------
# the traced run: per-layer metrics
# ---------------------------------------------------------------------------
#: Per-layer ``<name>_s`` metrics: mean self seconds per operation of
#: the benchmark's own span ``<name>``.
SPAN_TIMES = (
    "logic.circuit", "logic.mig_build", "logic.optimize", "uprog.schedule",
    "core.compile", "core.fuse", "core.first_map", "core.map",
    "exec.plan", "exec.codegen", "exec.transpose_in", "exec.transpose_out",
    "exec.execute", "lazy.capture", "lazy.evaluate", "runtime.tensor",
    "runtime.run", "runtime.read", "runtime.map", "serve.submit",
    "serve.prepare", "serve.pack", "serve.place",
)
#: ``span.<name>_s`` metrics: the same, from the program's own spans.
PROGRAM_SPANS = (
    "serve.admit", "serve.pack", "serve.dispatch", "router.place",
    "replica.transport", "replica.execute", "cluster.dispatch",
    "engine.execute", "serve.scatter",
)
#: Counters reported per operation.
PER_OP_COUNTS = (
    "exec.plan_cache_hits", "exec.plan_cache_misses", "dram.aap", "dram.ap",
    "dram.activations", "lazy.kernels_compiled", "runtime.spills",
    "runtime.fills", "runtime.paged_bits", "serve.dispatches", "serve.shed",
    "serve.requeued",
)


def run_traced(workload, inputs, seconds: float, spans_path=None
               ) -> tuple[dict, list]:
    """Alternate an untraced block with a traced one (same inputs) until
    ``seconds`` of measured time have passed.  The untraced blocks give
    the generator's own figures and the base of the tracing overhead;
    everything else comes from the traced blocks."""
    from measure import QuietGate, percentile, tail_percentile
    from spans import (END, NAME, OP, START, Recorder, fold_program_spans,
                       instrument, rename_first_maps, span_selfs)
    from repro.obs import Tracer

    plain, traced, measured = [], [], 0.0
    span_self: dict = defaultdict(float)     # benchmark spans, measured phase
    program_self: dict = defaultdict(float)  # the program's own spans
    optimized, programs, lazy_reports = [], [], []
    closures, spawns, dropped = [], [], 0
    recorder = None
    gate = QuietGate(min(seconds, MAX_QUIET_WAIT_S))
    while not plain or measured < seconds:
        plain.append(one_block(workload, inputs, gate))
        recorder = Recorder(adopt_worker_spans=workload.synchronous)
        # The serve tiers run requests on the program's own threads, so
        # its tracer (a public constructor argument) is switched on too.
        tracer = None if workload.synchronous else Tracer(
            enabled=True,
            max_traces=2 * workload.block_ops * workload.steps_per_op)
        with instrument(recorder):
            traced.append(one_block(workload, inputs, gate, recorder,
                                    tracer))
        measured += plain[-1]["wall_s"] + traced[-1]["wall_s"]

        rename_first_maps(recorder.spans)
        for row, own in zip(recorder.spans, span_selfs(recorder.spans)):
            if own is not None and row[OP] is not None:
                span_self[row[NAME]] += own
            if row[NAME] == "runtime.replica_spawn" and own is not None:
                spawns.append(row[END] - row[START])
        # Compiled-program quality is read wherever a kernel compiled,
        # set-up included: warm workloads compile nothing when measured.
        optimized += [v for _, v in recorder.results["logic.optimize"]]
        programs += [v for _, v in recorder.results["uprog.schedule"]]
        lazy_reports += recorder.measured("lazy.evaluate")
        if tracer is not None:
            totals, closure = fold_program_spans(
                [root for root in tracer.drain()
                 if root.name == "serve.request"])
            for name, value in totals.items():
                program_self[name] += value
            closures.append(closure)
            dropped += sum(tracer.drop_stats().values())

    def mean(values) -> float:
        values = list(values)
        return statistics.mean(values) if values else 0.0

    ops = sum(b["ops"] for b in traced)
    counts: dict = defaultdict(float)
    for block in traced:
        for key, value in block["counts"].items():
            counts[key] += value
    sim = sum(b["sim"] for b in traced)
    probes = [b["probes"] for b in traced]

    metrics: dict = {}
    for name in SPAN_TIMES:
        metrics[f"{name}_s"] = span_self[name] / ops
    metrics["bench.unattributed_s"] = span_self["op"] / ops
    for name in PROGRAM_SPANS:
        metrics[f"span.{name}_s"] = program_self[name] / ops
    metrics["span.budget_closure"] = mean(closures)
    for name in PER_OP_COUNTS:
        metrics[name] = counts[name] / ops

    metrics["logic.mig_nodes"] = mean(s.nodes_after for s in optimized)
    metrics["logic.mig_depth"] = mean(s.depth_after for s in optimized)
    metrics["uprog.uops"] = mean(len(p.uops) for p in programs)
    metrics["uprog.aap"] = mean(p.n_aap for p in programs)
    metrics["uprog.ap"] = mean(p.n_ap for p in programs)
    metrics["uprog.temp_rows"] = mean(p.n_temp_rows for p in programs)

    commands = counts["dram.aap"] + counts["dram.ap"]
    metrics["exec.host_us_per_dram_cmd"] = (
        span_self["exec.execute"] * 1e6 / commands if commands else 0.0)
    metrics["dram.busy_ns"] = sim[0] / ops
    metrics["dram.energy_nj"] = sim[1] / ops
    metrics["lazy.dispatches"] = sum(
        r.n_dispatches for r in lazy_reports) / ops
    metrics["lazy.segments"] = sum(
        g.n_segments for r in lazy_reports for g in r.groups) / ops
    metrics["runtime.replica_spawn_s"] = mean(spawns)
    for name in ("runtime.replica_rtt_s", "runtime.replica_rtt_drift"):
        metrics[name] = mean(p[name] for p in probes if name in p)

    # Serving ratios from the blocks' own counter deltas, so warm-up
    # traffic does not dilute them.
    dispatches = counts["serve.dispatches"]
    packed = counts["serve.packed_requests"]
    stream = workload.steps_per_op > 1
    per_dispatch = packed / dispatches if dispatches else 0.0
    metrics["serve.requests_per_dispatch"] = per_dispatch
    metrics["serve.steps_per_dispatch"] = per_dispatch if stream else 0.0
    metrics["serve.lane_occupancy"] = (
        counts["serve.occupancy_sum"] / dispatches if dispatches else 0.0)
    metrics["serve.packing_efficiency"] = (
        1.0 - dispatches / packed if packed else 0.0)
    # What a served request (a stream's step) waits beyond its own
    # dispatch: untraced p50 minus the same request dispatched directly.
    pooled = [s for b in plain for s in b["latencies_s"] if s == s]
    unit_p50 = percentile(pooled, 50) / workload.steps_per_op
    direct = [p["direct_s"] for p in probes if "direct_s" in p]
    metrics["serve.step_s"] = unit_p50 if stream else 0.0
    metrics["serve.flush_wait_s"] = (unit_p50 - mean(direct)
                                     if direct else 0.0)

    def rate(blocks) -> float:
        return statistics.median(b["ops"] / b["wall_s"] for b in blocks)

    metrics["obs.trace_overhead_ratio"] = rate(traced) / rate(plain)
    metrics["obs.flightrec_events"] = sum(
        b["flight_events"] for b in traced) / ops
    metrics["obs.trace_dropped"] = dropped

    # The generator's own figures, from the untraced blocks.
    metrics["bench.drift_ratio"] = statistics.median(
        drift_ratio(block["done_s"], workload.kinds or 1)
        for block in plain)
    tail = tail_percentile(len(pooled))
    metrics["bench.tail_percentile"] = tail
    metrics["bench.latency_tail_ms"] = percentile(pooled, tail) * 1e3
    blocks = plain + traced
    metrics["bench.quiet_wait_s"] = gate.waited_s
    metrics["bench.leaked_threads"] = sum(b["leaked_threads"]
                                          for b in blocks)
    metrics["bench.leaked_shm"] = sum(b["leaked_files"] for b in blocks)
    metrics["bench.failed_share"] = (sum(b["failed"] for b in blocks)
                                     / sum(b["ops"] for b in blocks))
    if spans_path:
        Path(spans_path).write_text(json.dumps(
            {"columns": ["name", "start", "end", "parent", "op"],
             "spans": recorder.spans}))
    return metrics, blocks


# ---------------------------------------------------------------------------
# environment, result files
# ---------------------------------------------------------------------------
def environment(spec: dict) -> dict:
    """What must match before two result files may be compared, plus
    what identifies the run."""
    import numpy
    from repro.exec.engines import list_engines
    from workloads import WORKLOADS
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "engines": list_engines(available_only=True),
        "run_seconds": spec["run_seconds"],
        "block_ops": {name: w.block_ops for name, w in WORKLOADS.items()},
    }


def append_record(path: str, env: dict, record: dict) -> None:
    """Add one run to a result file, refusing to mix environments."""
    target = Path(path)
    if target.exists():
        data = json.loads(target.read_text())
        theirs = {k: v for k, v in data["env"].items() if k != "git_sha"}
        ours = {k: v for k, v in env.items() if k != "git_sha"}
        if theirs != ours:
            raise SystemExit(f"{path} was recorded in another environment: "
                             f"{theirs} != {ours}")
    else:
        data = {"env": env, "runs": []}
    data["runs"].append(record)
    target.write_text(json.dumps(data, indent=1) + "\n")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
SOURCE = ROOT / "src"
PR_SET_CHILD_SUBREAPER = 36
#: Seconds the processes of a run get to end, by themselves once the
#: worker has, and again after each signal sent to those that have not.
STRAGGLER_GRACE_S = 10.0


def group_ended(group: int, within_s: float = STRAGGLER_GRACE_S) -> bool:
    """Reap children as they end until process group ``group`` is empty;
    False when it still has a member after ``within_s`` seconds."""
    deadline = time.monotonic() + within_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass  # no child left
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def supervise(argv) -> int:
    """Run one workload in a worker process and return only when every
    process the run started has ended and been waited for.

    The replica tier starts processes the worker cannot wait for: each
    replica's ``multiprocessing`` resource tracker, and the worker's
    own, end only *after* the process they serve.  So the worker gets a
    process group of its own, and this process adopts its orphans
    (child subreaper) and reaps until the group is empty.  When the
    worker is gone and the group is not, or the run is interrupted, the
    group is terminated (the trackers ignore that, and unlink the
    shared memory of the processes that do not) and then killed.
    """
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SOURCE}/repro is missing",
              file=sys.stderr)
        return 2
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Replica spool directories and any other temporary file stay
    # inside the checkout.
    scratch = ROOT / ".e2e_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--worker", *argv],
        env={**os.environ, "TMPDIR": str(scratch)}, start_new_session=True)
    ended = False
    try:
        status = worker.wait()
        ended = group_ended(worker.pid)
    finally:
        for sent in (signal.SIGTERM, signal.SIGKILL):
            if ended or group_ended(worker.pid, 0):
                break
            try:
                os.killpg(worker.pid, sent)
            except ProcessLookupError:
                break  # its last member ended just now
            group_ended(worker.pid)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it
    if not ended:
        print("FAILED: processes outlived the worker and were killed",
              file=sys.stderr)
        return status or 1
    return status


def run_workload(args, spec: dict) -> int:
    sys.path[:0] = [str(HERE), str(SOURCE)]
    # One CPU for the generator, the program's threads and its replica
    # children (they inherit the mask): threads that hand the
    # interpreter lock across virtual CPUs are at the mercy of the
    # host's scheduler (README, "Why one CPU").
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return measure_workload(args, spec)


def measure_workload(args, spec: dict) -> int:
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    inputs = workload.make_inputs(args.seed)
    if args.trace:
        metrics, blocks = run_traced(workload, inputs, seconds, args.spans)
        declared = spec["per_layer"]
    else:
        metrics, blocks = run_untraced(workload, inputs, seconds)
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    attempted = sum(b["ops"] for b in blocks)
    failed = sum(b["failed"] for b in blocks)
    leaked = sum(b["leaked_threads"] + b["leaked_files"] for b in blocks)
    result = {
        "correct": failed == 0 and leaked == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }

    print(f"workload {workload.name}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{len(blocks)} blocks x {workload.block_ops} operations, "
          f"{workload.outstanding} outstanding")
    for name, entry in result["metrics"].items():
        print(f"  {name:<30} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'failed_share':<30} {failed / attempted:>16.6g} "
          f"({failed} of {attempted})")
    if args.out:
        append_record(args.out, environment(spec), {
            "workload": workload.name, "seed": args.seed,
            "trace": args.trace, "seconds": seconds, "result": result,
            "blocks": [block_summary(b, workload) for b in blocks]})

    problems = []
    if missing or extra:
        problems.append(f"metrics missing {missing}, undeclared {extra}")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if leaked:
        problems.append(f"{leaked} threads/segments leaked after close")
    if problems:
        print("FAILED: " + "; ".join(problems), file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload of ``BENCHMARK.json``, each run in a process of
    its own (peak RSS and leaks are per process)."""
    status = 0
    rows = []
    for entry in spec["workloads"]:
        for run in range(args.runs):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", entry["name"],
                       "--seed", str(args.seed + run),
                       "--trace", str(args.trace)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.out:
                command += ["--out", args.out]
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1] if done.returncode == 0 else lines),
                  flush=True)
            if done.returncode != 0:
                status = 1
                continue
            rows.append((entry["name"], json.loads(lines[-1])["metrics"]))
    if rows and not args.trace:
        names = list(rows[0][1])
        print("\n" + " ".join([f"{'workload':<15}"]
                              + [f"{n:>16}" for n in names]))
        for workload, metrics in rows:
            print(" ".join([f"{workload:<15}"] + [
                f"{metrics[n]['value']:>16.6g}" for n in names]))
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.workload is None:
        return run_all(args, spec)
    if not args.worker:
        return supervise(argv)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
