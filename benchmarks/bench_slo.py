#!/usr/bin/env python
"""CI benchmark: SLO-aware admission and continuous batching.

Two regression gates over the streaming/SLO serving layer, published
as the ``"slo"`` section of ``bench_ci.json``:

1. **SLO-aware admission vs FIFO under 2x overload.**  A single-lane
   request stream carrying staggered deadlines is drowned in twice as
   many already-lapsed requests (offered load ~3x what deadlines
   allow).  FIFO admission (``slo_aware=False``) burns dispatches on
   requests that can only finish late; SLO-aware admission
   (``slo_aware=True``) sheds lapsed requests at the queue head and
   serves the live ones earliest-deadline-first.  The gate requires
   the SLO-aware goodput (completions-within-deadline per second,
   straight from ``ServeMetrics``) to reach ``--min-goodput-ratio``
   (default 1.5x) the FIFO goodput.  p99-under-load and modeled
   joules-per-request are reported for both modes.

2. **Continuous batching vs drain-between-steps.**  Two waves of
   multi-step streams (shared step kernel, so steps lane-pack across
   streams *and* step indices) arrive staggered: the second wave is
   submitted while the first is mid-sequence (each wave under
   ``server.hold()``, so its first steps share one dispatch on every
   run).  Continuous batching lets the late wave run between — and,
   whenever both wait at once, inside — the in-flight wave's packs
   (8 to 12 dispatches); the drain baseline holds it until the
   earlier generations fully finish (18 dispatches).  The gate
   requires the continuous mode's modeled throughput (sequences per
   simulated second) to reach ``--min-batching-ratio`` (default 1.3x)
   the drain baseline's.

Deadlines are derived from a measured per-dispatch calibration, not
wall-clock constants, so the gate is stable across machine speeds.

Usage::

    PYTHONPATH=src python benchmarks/bench_slo.py [--output bench_ci.json]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from gate_utils import publish

from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import DeadlineExceeded
from repro.runtime import SimdramCluster
from repro.serve import (
    ServeConfig,
    SimdramService,
    StreamingServer,
    affine_relu_step,
    stream_golden,
)

GATE_NAME = "slo"
GATE_OP = "add"
GATE_WIDTH = 8
COLS = 32
BANKS = 2            # 64 SIMD lanes per module

#: Admission scenario: live requests with staggered deadlines, buried
#: under 2x as many already-lapsed requests.
N_LIVE = 16
N_OVERLOAD = 2 * N_LIVE
#: Rank-r live deadline = (r + 4) * 1.5 dispatch times: ~2x headroom
#: over its EDF completion time at every rank, while under FIFO only
#: the most generous deadlines survive the overload traffic.
DEADLINE_BASE = 4
DEADLINE_MARGIN = 1.5

#: Streaming scenario: two waves of shared-kernel streams.
N_STREAMS_PER_WAVE = 4
N_STEPS = 6
STREAM_LANES = 8     # per stream per step; 8 streams fill 64 lanes


def module_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=COLS, data_rows=512, banks=BANKS))


# ---------------------------------------------------------------------------
# gate 1: SLO-aware admission vs FIFO under overload
# ---------------------------------------------------------------------------
def _calibrate_dispatch_s(service: SimdramService,
                          n: int = 6) -> float:
    """Measured wall seconds per single-request dispatch (warm)."""
    a = np.arange(1, dtype=np.int64)
    service.submit(GATE_OP, a, a, width=GATE_WIDTH).result(60)
    start = time.perf_counter()
    handles = [service.submit(GATE_OP, a, a, width=GATE_WIDTH)
               for _ in range(n)]
    for handle in handles:
        handle.result(60)
    # Floor: absurdly fast machines must not produce deadlines inside
    # scheduling noise.
    return max((time.perf_counter() - start) / n, 2e-4)


def serve_overload(slo_aware: bool, dispatch_s: float,
                   cluster) -> dict:
    """One overloaded run; returns goodput/p99/energy measurements."""
    config = ServeConfig(pack=False, max_wait_s=0.001,
                         slo_aware=slo_aware)
    rng = np.random.default_rng(47)
    with SimdramService(cluster, config=config) as service:
        service.warmup([(GATE_OP, GATE_WIDTH)])
        service.metrics.reset()  # goodput clock starts here
        live = []
        # Anti-EDF submission order (most generous deadline first),
        # each live request preceded by two lapsed ones — FIFO serves
        # in exactly this order, SLO-aware re-sorts and sheds.
        for k in range(N_LIVE):
            rank = N_LIVE - 1 - k
            for _ in range(2):
                a = rng.integers(0, 256, 1)
                service.submit(GATE_OP, a, a, width=GATE_WIDTH,
                               deadline_s=0.0)
            deadline_s = ((rank + DEADLINE_BASE) * DEADLINE_MARGIN
                          * dispatch_s)
            a = rng.integers(0, 256, 1)
            b = rng.integers(0, 256, 1)
            live.append((a, b, service.submit(
                GATE_OP, a, b, width=GATE_WIDTH,
                deadline_s=deadline_s)))
        service.drain()
        n_correct = 0
        n_live_shed = 0
        for a, b, handle in live:
            try:
                n_correct += bool(np.array_equal(
                    handle.result(60), (a + b) % 256))
            except DeadlineExceeded:
                n_live_shed += 1
        stats = service.stats()

    mode = "slo_aware" if slo_aware else "fifo"
    entry = {
        "mode": mode,
        "live_requests": N_LIVE,
        "overload_requests": N_OVERLOAD,
        "correct": n_correct,
        "live_shed": n_live_shed,
        "on_time": stats["slo"]["on_time"],
        "late": stats["slo"]["late"],
        "shed": stats["slo"]["shed"],
        "goodput_rps": stats["slo"]["goodput_rps"],
        "latency_p99_ms": stats["latency_ms"]["p99"],
        "joules_per_request":
            stats["energy"]["nj_per_request_mean"] * 1e-9,
    }
    print(f"{mode:10s}: {entry['on_time']:2d}/{N_LIVE} live on time, "
          f"{entry['shed']:2d} shed, goodput "
          f"{entry['goodput_rps']:8.1f} req/s, p99 "
          f"{entry['latency_p99_ms']:6.2f} ms, "
          f"{entry['joules_per_request'] * 1e9:.2f} nJ/req")
    return entry


# ---------------------------------------------------------------------------
# gate 2: continuous batching vs drain-between-steps
# ---------------------------------------------------------------------------
def serve_streams(drain_between_steps: bool) -> dict:
    """Two staggered waves of shared-kernel streams; modeled makespan."""
    step = affine_relu_step(1)
    weights = np.ones(STREAM_LANES, dtype=np.int64)
    rng = np.random.default_rng(53)
    inputs = [rng.integers(0, 64, STREAM_LANES)
              for _ in range(2 * N_STREAMS_PER_WAVE)]

    with SimdramCluster(1, config=module_config()) as cluster:
        with SimdramService(cluster) as service, \
                StreamingServer(
                    service,
                    drain_between_steps=drain_between_steps) as server:
            service.warmup([(step, GATE_WIDTH)])

            def start(x0):
                return server.submit(step, x0, n_steps=N_STEPS,
                                     width=GATE_WIDTH,
                                     feeds={"w": weights},
                                     deadline_s=60.0)

            # Each wave arrives as one corked batch, so its first
            # steps pack the same way every run (hold(), not a timer).
            with server.hold():
                wave1 = [start(x) for x in
                         inputs[:N_STREAMS_PER_WAVE]]
            # The second wave arrives mid-sequence: continuous
            # batching lets it join wave 1's remaining steps.
            deadline = time.monotonic() + 60.0
            while (any(s.steps_done < 2 for s in wave1)
                   and time.monotonic() < deadline):
                time.sleep(0.0005)
            with server.hold():
                wave2 = [start(x) for x in
                         inputs[N_STREAMS_PER_WAVE:]]
            streams = wave1 + wave2
            n_correct = sum(
                bool(np.array_equal(
                    stream.result(120),
                    stream_golden(step, x0, N_STEPS, {"w": weights},
                                  GATE_WIDTH)))
                for stream, x0 in zip(streams, inputs))
            stats = service.stats()
            makespan_ns = cluster.makespan_ns()

    mode = "drain" if drain_between_steps else "continuous"
    n_streams = len(inputs)
    entry = {
        "mode": mode,
        "streams": n_streams,
        "steps_per_stream": N_STEPS,
        "correct": n_correct,
        "dispatches": stats["packing"]["dispatches"],
        "lane_occupancy": stats["packing"]["lane_occupancy"],
        "makespan_ns": makespan_ns,
        # Modeled throughput: sequences per simulated millisecond.
        "streams_per_ms": n_streams / (makespan_ns / 1e6),
        "on_time": stats["slo"]["on_time"],
        "joules_per_request":
            stats["energy"]["nj_per_request_mean"] * 1e-9,
    }
    print(f"{mode:10s}: {entry['dispatches']:3d} dispatches for "
          f"{n_streams} streams x {N_STEPS} steps, occupancy "
          f"{entry['lane_occupancy']:.0%}, makespan "
          f"{makespan_ns / 1e6:7.2f} ms, "
          f"{n_correct}/{n_streams} correct")
    return entry


def run_gate(min_goodput_ratio: float = 1.5,
             min_batching_ratio: float = 1.3) -> dict:
    """Run both scenarios; returns the section for bench_ci.json."""
    with SimdramCluster(1, config=module_config()) as cluster:
        with SimdramService(cluster,
                            ServeConfig(pack=False)) as service:
            service.warmup([(GATE_OP, GATE_WIDTH)])
            dispatch_s = _calibrate_dispatch_s(service)
        print(f"calibrated dispatch: {dispatch_s * 1e3:.2f} ms")
        fifo = serve_overload(False, dispatch_s, cluster)
        slo = serve_overload(True, dispatch_s, cluster)

    continuous = serve_streams(drain_between_steps=False)
    drain = serve_streams(drain_between_steps=True)

    goodput_ratio = (slo["goodput_rps"]
                     / max(fifo["goodput_rps"], 1e-9))
    batching_ratio = (continuous["streams_per_ms"]
                      / max(drain["streams_per_ms"], 1e-9))
    # FIFO never sheds (every live request completes, correct);
    # SLO-aware may shed a live straggler, which is accounted, not
    # wrong — but every *executed* result must be bit-exact.
    correct = (fifo["correct"] == N_LIVE
               and slo["correct"] + slo["live_shed"] == N_LIVE
               and continuous["correct"] == continuous["streams"]
               and drain["correct"] == drain["streams"])
    gate_pass = (goodput_ratio >= min_goodput_ratio
                 and batching_ratio >= min_batching_ratio
                 and correct)
    return {
        "kernel": GATE_OP,
        "element_width": GATE_WIDTH,
        "admission": {"fifo": fifo, "slo_aware": slo},
        "streaming": {"continuous": continuous, "drain": drain},
        "gate": {
            "kernel": GATE_OP,
            "required_goodput_ratio": min_goodput_ratio,
            "measured_goodput_ratio": goodput_ratio,
            "required_batching_ratio": min_batching_ratio,
            "measured_batching_ratio": batching_ratio,
            "goodput_rps": slo["goodput_rps"],
            "latency_p99_ms": slo["latency_p99_ms"],
            "joules_per_request": slo["joules_per_request"],
            "correct": correct,
            "pass": gate_pass,
            "detail": (f"SLO-aware admission reaches "
                       f"{goodput_ratio:.1f}x FIFO goodput under 2x "
                       f"overload (required: "
                       f"{min_goodput_ratio:.1f}x); continuous "
                       f"batching reaches {batching_ratio:.2f}x the "
                       f"drain-between-steps modeled throughput "
                       f"(required: {min_batching_ratio:.2f}x)"),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--min-goodput-ratio", type=float, default=1.5,
                        help="required SLO-aware / FIFO goodput ratio "
                             "under overload")
    parser.add_argument("--min-batching-ratio", type=float,
                        default=1.3,
                        help="required continuous / drain modeled "
                             "throughput ratio")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME,
                   run_gate(args.min_goodput_ratio,
                            args.min_batching_ratio))


if __name__ == "__main__":
    sys.exit(main())
