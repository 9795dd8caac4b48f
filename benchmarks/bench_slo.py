#!/usr/bin/env python
"""CI benchmark: deadline admission and continuous batching.

Two regression gates over the streaming/SLO serving layer, published
as the ``"slo"`` section of ``bench_ci.json``.  Each baseline lives
here, in the benchmark that measures it; the library has one policy.

1. **Deadline admission vs FIFO under 2x overload.**  A single-lane
   request stream carrying staggered deadlines is drowned in twice as
   many already-lapsed requests (offered load ~3x what deadlines
   allow).  The FIFO baseline submits the very same requests *without*
   ``deadline_s``, so the service serves them in arrival order and
   burns dispatches on requests that can only finish late; with the
   deadlines attached the service sheds lapsed requests at the queue
   head and serves the live ones earliest-deadline-first.  Both runs
   judge the live requests with the same code: a request is on time
   when its done callback fires, successfully, before the deadline
   this benchmark gave it.  The gate requires the goodput with
   deadlines (on-time completions per second) to reach
   ``--min-goodput-ratio`` (default 1.5x) the FIFO goodput.
   p99-under-load and modeled joules-per-request are reported for both.

2. **Continuous batching vs lockstep generations.**  Two waves of
   multi-step streams (shared step kernel, so steps lane-pack across
   streams *and* step indices) arrive staggered: the second wave is
   submitted while the first is mid-sequence (each wave under
   ``server.hold()``, so its first steps share one dispatch on every
   run).  Continuous batching (:class:`StreamingServer`) lets the late
   wave run between — and, whenever both wait at once, inside — the
   in-flight wave's packs (8 to 12 dispatches).  The lockstep baseline
   is driven from here, generation by generation, one
   ``service.submit`` per stream per step: a generation runs every
   step before the streams that arrived meanwhile start (18
   dispatches).  The gate requires the continuous mode's modeled
   throughput (sequences per simulated second) to reach
   ``--min-batching-ratio`` (default 1.3x) the lockstep baseline's.

Deadlines are derived from a measured per-dispatch calibration, not
wall-clock constants, so the gate is stable across machine speeds.

Ungated, the section also publishes ``stream_step_us``: the host cost
of one stream step — wall microseconds per step of warm 8-lane
``affine_relu_step@16`` streams, 16 in flight on the same 64-lane
cluster (closed loop, oldest first) — beside the steps each dispatch
carried.

Usage::

    PYTHONPATH=src python benchmarks/bench_slo.py [--output bench_ci.json]
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import deque

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
# gate 1: deadline admission vs FIFO under overload
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


def serve_overload(deadlines: bool, dispatch_s: float,
                   cluster) -> dict:
    """One overloaded run, one dispatch per request; the requests carry
    their deadlines to the service only when ``deadlines`` is set."""
    config = ServeConfig(max_lanes=1, max_wait_s=0.001)
    rng = np.random.default_rng(47)
    done_at: dict[int, float] = {}

    def stamp(handle) -> None:
        done_at[handle.request_id] = time.monotonic()

    with SimdramService(cluster, config=config) as service:
        service.warmup([(GATE_OP, GATE_WIDTH)])
        service.metrics.reset()
        start = time.monotonic()
        live = []
        # Anti-EDF submission order (most generous deadline first),
        # each live request preceded by two lapsed ones — FIFO serves
        # in exactly this order, EDF re-sorts and sheds.
        for k in range(N_LIVE):
            rank = N_LIVE - 1 - k
            for _ in range(2):
                a = rng.integers(0, 256, 1)
                service.submit(GATE_OP, a, a, width=GATE_WIDTH,
                               deadline_s=0.0 if deadlines else None)
            deadline_s = ((rank + DEADLINE_BASE) * DEADLINE_MARGIN
                          * dispatch_s)
            a = rng.integers(0, 256, 1)
            b = rng.integers(0, 256, 1)
            deadline = time.monotonic() + deadline_s
            handle = service.submit(
                GATE_OP, a, b, width=GATE_WIDTH,
                deadline_s=deadline_s if deadlines else None)
            handle.add_done_callback(stamp)
            live.append((a, b, deadline, handle))
        service.drain()
        elapsed_s = time.monotonic() - start
        n_correct = n_on_time = n_live_shed = 0
        for a, b, deadline, handle in live:
            try:
                n_correct += bool(np.array_equal(
                    handle.result(60), (a + b) % 256))
            except DeadlineExceeded:
                n_live_shed += 1
                continue
            n_on_time += done_at[handle.request_id] <= deadline
        stats = service.stats()

    mode = "deadline" if deadlines else "fifo"
    entry = {
        "mode": mode,
        "live_requests": N_LIVE,
        "overload_requests": N_OVERLOAD,
        "correct": n_correct,
        "live_shed": n_live_shed,
        "on_time": n_on_time,
        "late": n_correct - n_on_time,
        "shed": stats["requests"]["shed"],
        "goodput_rps": n_on_time / elapsed_s,
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
# gate 2: continuous batching vs lockstep generations
# ---------------------------------------------------------------------------
def _continuous(service: SimdramService, step, weights,
                inputs: list) -> list:
    """Both waves through a :class:`StreamingServer`; final outputs."""
    with StreamingServer(service) as server:
        def start(wave) -> list:
            # Each wave arrives as one corked batch, so its first
            # steps pack the same way every run (hold(), not a timer).
            with server.hold():
                return [server.submit(step, x0, n_steps=N_STEPS,
                                      width=GATE_WIDTH,
                                      feeds={"w": weights},
                                      deadline_s=60.0)
                        for x0 in wave]

        wave1 = start(inputs[:N_STREAMS_PER_WAVE])
        # The second wave arrives mid-sequence: continuous batching
        # lets it join wave 1's remaining steps.
        deadline = time.monotonic() + 60.0
        while (any(s.steps_done < 2 for s in wave1)
               and time.monotonic() < deadline):
            time.sleep(0.0005)
        streams = wave1 + start(inputs[N_STREAMS_PER_WAVE:])
        return [stream.result(120) for stream in streams]


def _lockstep(service: SimdramService, step, weights,
              inputs: list) -> list:
    """The lockstep baseline, driven from here: a generation runs all
    its steps, one ``service.submit`` per stream per step (each step
    corked, so it is one dispatch), before the next generation starts.
    The generations are the ones a lockstep server forms from these
    arrivals: wave 1's first stream finds the server idle and starts
    alone, the rest of wave 1 waits for it, and wave 2 — arriving
    while they are mid-sequence — waits for them."""
    first, rest = inputs[:N_STREAMS_PER_WAVE], inputs[N_STREAMS_PER_WAVE:]
    outputs = []
    for generation in (first[:1], first[1:], rest):
        xs = list(generation)
        for _ in range(N_STEPS):
            with service.hold():
                handles = [service.submit(step, feeds={"x": x,
                                                       "w": weights},
                                          width=GATE_WIDTH)
                           for x in xs]
            xs = [handle.result(120) for handle in handles]
        outputs += xs
    return outputs


def serve_streams(continuous: bool) -> dict:
    """Two staggered waves of shared-kernel streams; modeled makespan."""
    step = affine_relu_step(1)
    weights = np.ones(STREAM_LANES, dtype=np.int64)
    rng = np.random.default_rng(53)
    inputs = [rng.integers(0, 64, STREAM_LANES)
              for _ in range(2 * N_STREAMS_PER_WAVE)]

    with SimdramCluster(1, config=module_config()) as cluster:
        with SimdramService(cluster) as service:
            service.warmup([(step, GATE_WIDTH)])
            drive = _continuous if continuous else _lockstep
            outputs = drive(service, step, weights, inputs)
            n_correct = sum(
                bool(np.array_equal(out, stream_golden(
                    step, x0, N_STEPS, {"w": weights}, GATE_WIDTH)))
                for out, x0 in zip(outputs, inputs))
            stats = service.stats()
            makespan_ns = cluster.makespan_ns()

    mode = "continuous" if continuous else "lockstep"
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
        "joules_per_request":
            stats["energy"]["nj_per_request_mean"] * 1e-9,
    }
    print(f"{mode:10s}: {entry['dispatches']:3d} dispatches for "
          f"{n_streams} streams x {N_STEPS} steps, occupancy "
          f"{entry['lane_occupancy']:.0%}, makespan "
          f"{makespan_ns / 1e6:7.2f} ms, "
          f"{n_correct}/{n_streams} correct")
    return entry


# ---------------------------------------------------------------------------
# ungated: the host cost of one stream step
# ---------------------------------------------------------------------------
HOST_WIDTH = 16
HOST_STEPS = 8
HOST_IN_FLIGHT = 16
HOST_STREAMS = 96
HOST_ROUNDS = 3


def stream_step_cost() -> dict:
    """Wall µs per step of warm streams, ``HOST_IN_FLIGHT`` in flight
    (median of ``HOST_ROUNDS`` rounds), and steps per dispatch."""
    step = affine_relu_step(1)
    rng = np.random.default_rng(59)
    cases = [(rng.integers(0, 1 << 12, STREAM_LANES),
              rng.integers(0, 1 << 12, STREAM_LANES))
             for _ in range(HOST_STREAMS)]
    goldens = [stream_golden(step, x0, HOST_STEPS, {"w": w}, HOST_WIDTH)
               for x0, w in cases]
    rounds_us = []
    n_correct = 0
    with SimdramCluster(1, config=module_config()) as cluster, \
            SimdramService(cluster) as service, \
            StreamingServer(service) as server:
        service.warmup([(step, HOST_WIDTH)])
        one = np.ones(STREAM_LANES, dtype=np.int64)
        server.submit(step, one, n_steps=HOST_STEPS, width=HOST_WIDTH,
                      feeds={"w": one}).result(60)
        service.metrics.reset()
        for _ in range(HOST_ROUNDS):
            window: deque = deque()
            outputs = []
            start = time.perf_counter()
            for x0, w in cases:
                if len(window) == HOST_IN_FLIGHT:
                    outputs.append(window.popleft().result(60))
                window.append(server.submit(
                    step, x0, n_steps=HOST_STEPS, width=HOST_WIDTH,
                    feeds={"w": w}))
            outputs += [stream.result(60) for stream in window]
            elapsed = time.perf_counter() - start
            rounds_us.append(elapsed / (HOST_STREAMS * HOST_STEPS) * 1e6)
            n_correct += sum(bool(np.array_equal(out, golden))
                             for out, golden in zip(outputs, goldens))
        packing = service.stats()["packing"]
    entry = {
        "kernel": f"affine_relu_step@{HOST_WIDTH}",
        "lanes_per_stream": STREAM_LANES,
        "steps": HOST_STEPS,
        "in_flight": HOST_IN_FLIGHT,
        "streams": HOST_STREAMS * HOST_ROUNDS,
        "correct": n_correct,
        "us_per_step": float(np.median(rounds_us)),
        "us_per_step_rounds": rounds_us,
        "steps_per_dispatch": packing["requests_per_dispatch"],
    }
    print(f"stream step: {entry['us_per_step']:7.1f} us/step wall, "
          f"{entry['steps_per_dispatch']:.2f} steps/dispatch, "
          f"{n_correct}/{entry['streams']} correct (ungated)")
    return entry


def run_gate(min_goodput_ratio: float = 1.5,
             min_batching_ratio: float = 1.3) -> dict:
    """Run both scenarios; returns the section for bench_ci.json."""
    with SimdramCluster(1, config=module_config()) as cluster:
        with SimdramService(cluster,
                            ServeConfig(max_lanes=1)) as service:
            service.warmup([(GATE_OP, GATE_WIDTH)])
            dispatch_s = _calibrate_dispatch_s(service)
        print(f"calibrated dispatch: {dispatch_s * 1e3:.2f} ms")
        fifo = serve_overload(False, dispatch_s, cluster)
        edf = serve_overload(True, dispatch_s, cluster)

    continuous = serve_streams(continuous=True)
    lockstep = serve_streams(continuous=False)
    step_cost = stream_step_cost()

    goodput_ratio = (edf["goodput_rps"]
                     / max(fifo["goodput_rps"], 1e-9))
    batching_ratio = (continuous["streams_per_ms"]
                      / max(lockstep["streams_per_ms"], 1e-9))
    # FIFO never sheds (every live request completes, correct); with
    # deadlines a live straggler may be shed, which is accounted, not
    # wrong — but every *executed* result must be bit-exact.
    correct = (fifo["correct"] == N_LIVE
               and edf["correct"] + edf["live_shed"] == N_LIVE
               and continuous["correct"] == continuous["streams"]
               and lockstep["correct"] == lockstep["streams"])
    gate_pass = (goodput_ratio >= min_goodput_ratio
                 and batching_ratio >= min_batching_ratio
                 and correct)
    return {
        "kernel": GATE_OP,
        "element_width": GATE_WIDTH,
        "admission": {"fifo": fifo, "deadline": edf},
        "streaming": {"continuous": continuous, "lockstep": lockstep},
        "stream_step_us": step_cost,
        "gate": {
            "kernel": GATE_OP,
            "required_goodput_ratio": min_goodput_ratio,
            "measured_goodput_ratio": goodput_ratio,
            "required_batching_ratio": min_batching_ratio,
            "measured_batching_ratio": batching_ratio,
            "goodput_rps": edf["goodput_rps"],
            "latency_p99_ms": edf["latency_p99_ms"],
            "joules_per_request": edf["joules_per_request"],
            "correct": correct,
            "pass": gate_pass,
            "detail": (f"deadline admission reaches "
                       f"{goodput_ratio:.1f}x FIFO goodput under 2x "
                       f"overload (required: "
                       f"{min_goodput_ratio:.1f}x); continuous "
                       f"batching reaches {batching_ratio:.2f}x the "
                       f"lockstep modeled throughput "
                       f"(required: {min_batching_ratio:.2f}x)"),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--min-goodput-ratio", type=float, default=1.5,
                        help="required deadline / FIFO goodput ratio "
                             "under overload")
    parser.add_argument("--min-batching-ratio", type=float,
                        default=1.3,
                        help="required continuous / lockstep modeled "
                             "throughput ratio")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME,
                   run_gate(args.min_goodput_ratio,
                            args.min_batching_ratio))


if __name__ == "__main__":
    sys.exit(main())
