#!/usr/bin/env python
"""CI benchmark: lane-packed serving vs one-dispatch-per-request.

The serving layer's whole reason to exist is that SIMDRAM dispatch
cost is (nearly) independent of how many lanes a dispatch carries —
a bit-serial µProgram replays the same command stream whether 1 or
thousands of lanes hold data.  Many small requests served one
dispatch each therefore waste almost the entire subarray; lane-packing
them into shared wide dispatches reclaims it.

The benchmark drives **64 concurrent single-lane requests** (one
element each, same kernel: 8-bit ``add``) through a
:class:`~repro.serve.SimdramService` over a 64-lane cluster module,
twice:

* **packed** — the default lane-packing batcher; the pack group fills
  at 64 lanes and goes out as one wide dispatch;
* **unpacked baseline** — ``ServeConfig(pack=False)``: every request
  dispatches alone, the pre-serving execution model.

Both modes verify every request's result and report the *modeled*
makespan (simulated DRAM command latency plus channel I/O, the same
clock the cluster benchmarks use).  The burst is submitted under
``service.hold()``, so the packed run is one dispatch of 64 requests
whatever the thread scheduling.  The **gate** (exit code 1) requires
packed serving to reach at least ``--min-speedup`` (default 3x) the
baseline's modeled throughput, and the packer to report at least
``--min-occupancy`` (default 50%) mean lane occupancy.

A third, wall-clock check keeps the flush policy honest: 50 **lone**
requests (one outstanding at a time, nothing to pack with) through the
service, interleaved with the same requests dispatched straight on the
cluster.  The median served latency may be at most
``--max-lone-latency-ratio`` (default 3x) the median direct latency —
a same-run A/B, so the bound does not depend on the machine.  A
service that parks lone requests behind a timer fails it (the 5 ms
timer-first policy measured about 9.5x).

Results publish under the ``"serve"`` gate of the shared
``bench_ci.json`` (see :mod:`gate_utils`).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--output bench_ci.json]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from gate_utils import publish

from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.runtime import SimdramCluster
from repro.serve import ServeConfig, SimdramService

GATE_NAME = "serve"
GATE_OP = "add"
GATE_WIDTH = 8
N_REQUESTS = 64
N_LONE = 50
COLS = 32
BANKS = 2  # 64 SIMD lanes per module: one full pack = 64 requests


def module_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=COLS, data_rows=256, banks=BANKS))


def serve_requests(pack: bool) -> dict:
    """Serve 64 single-lane add requests; packed or one-per-dispatch."""
    rng = np.random.default_rng(31)
    operands = [(rng.integers(0, 256, 1), rng.integers(0, 256, 1))
                for _ in range(N_REQUESTS)]

    with SimdramCluster(1, config=module_config()) as cluster:
        config = ServeConfig(pack=pack)
        with SimdramService(cluster, config=config) as service:
            service.warmup([(GATE_OP, GATE_WIDTH)])
            start = time.perf_counter()
            with service.hold():
                handles = [service.submit(GATE_OP, a, b,
                                          width=GATE_WIDTH,
                                          tenant=f"user{i % 8}")
                           for i, (a, b) in enumerate(operands)]
            n_correct = sum(
                bool(np.array_equal(handle.result(timeout=300),
                                    (a + b) % 256))
                for handle, (a, b) in zip(handles, operands))
            wall_seconds = time.perf_counter() - start
            stats = service.stats()
            makespan_ns = cluster.makespan_ns()

    mode = "packed" if pack else "unpacked"
    entry = {
        "mode": mode,
        "requests": N_REQUESTS,
        "correct": n_correct,
        "dispatches": stats["packing"]["dispatches"],
        "requests_per_dispatch":
            stats["packing"]["requests_per_dispatch"],
        "lane_occupancy": stats["packing"]["lane_occupancy"],
        "packing_efficiency": stats["packing"]["packing_efficiency"],
        "latency_p50_ms": stats["latency_ms"]["p50"],
        "latency_p99_ms": stats["latency_ms"]["p99"],
        "makespan_ns": makespan_ns,
        # Modeled throughput: requests per simulated microsecond.
        "requests_per_us": N_REQUESTS / (makespan_ns / 1e3),
        "wall_seconds": wall_seconds,
    }
    print(f"{mode:8s}: {entry['dispatches']:3d} dispatches for "
          f"{N_REQUESTS} requests, occupancy "
          f"{entry['lane_occupancy']:.0%}, makespan "
          f"{makespan_ns / 1e3:9.1f} us "
          f"({entry['requests_per_us']:.3f} req/us), "
          f"{n_correct}/{N_REQUESTS} correct")
    return entry


def lone_requests() -> dict:
    """Wall A/B: lone requests through the service vs the same
    requests dispatched directly on the cluster, interleaved so that
    machine noise lands on both sides alike."""
    rng = np.random.default_rng(37)
    operands = [(rng.integers(0, 256, 1), rng.integers(0, 256, 1))
                for _ in range(N_LONE)]

    def timed(call) -> float:
        start = time.perf_counter()
        call()
        return time.perf_counter() - start

    with SimdramCluster(1, config=module_config()) as cluster, \
            SimdramService(cluster) as service:
        service.warmup([(GATE_OP, GATE_WIDTH)])

        def served(a, b):
            service.submit(GATE_OP, a, b,
                           width=GATE_WIDTH).result(timeout=300)

        def direct(a, b):
            cluster.map(GATE_OP, a, b, width=GATE_WIDTH)

        for a, b in operands[:5]:   # both paths warm
            served(a, b)
            direct(a, b)
        served_s, direct_s = [], []
        for a, b in operands:
            served_s.append(timed(lambda: served(a, b)))
            direct_s.append(timed(lambda: direct(a, b)))
        flushes = service.stats()["packing"]["flushes"]

    entry = {
        "requests": N_LONE,
        "served_median_ms": float(np.median(served_s)) * 1e3,
        "direct_median_ms": float(np.median(direct_s)) * 1e3,
        "flushes": flushes,
    }
    entry["ratio"] = (entry["served_median_ms"]
                      / entry["direct_median_ms"])
    print(f"lone    : served {entry['served_median_ms']:.3f} ms vs "
          f"direct {entry['direct_median_ms']:.3f} ms median "
          f"({entry['ratio']:.2f}x), flushes {flushes}")
    return entry


def run_gate(min_speedup: float = 3.0, min_occupancy: float = 0.5,
             max_lone_latency_ratio: float = 3.0) -> dict:
    """Run both modes and the lone-request A/B; returns the section
    for bench_ci.json."""
    packed = serve_requests(pack=True)
    unpacked = serve_requests(pack=False)
    lone = lone_requests()

    speedup = (packed["requests_per_us"]
               / unpacked["requests_per_us"])
    occupancy = packed["lane_occupancy"]
    correct = (packed["correct"] == N_REQUESTS
               and unpacked["correct"] == N_REQUESTS)
    gate_pass = (speedup >= min_speedup
                 and occupancy >= min_occupancy and correct
                 and packed["dispatches"] == 1
                 and lone["ratio"] <= max_lone_latency_ratio
                 and lone["flushes"]["timer"] == 0)
    return {
        "kernel": GATE_OP,
        "element_width": GATE_WIDTH,
        "concurrent_requests": N_REQUESTS,
        "packed": packed,
        "unpacked": unpacked,
        "lone_request": lone,
        "gate": {
            "kernel": GATE_OP,
            "required_speedup": min_speedup,
            "measured_speedup": speedup,
            "required_occupancy": min_occupancy,
            "measured_occupancy": occupancy,
            # Lower is better, so not a measured_* key (bench_history
            # reads those as higher-is-better).
            "max_lone_latency_ratio": max_lone_latency_ratio,
            "lone_latency_ratio": lone["ratio"],
            "correct": correct,
            "pass": gate_pass,
            "detail": (f"lane-packed serving of {N_REQUESTS} "
                       f"concurrent single-lane requests reaches "
                       f"{speedup:.1f}x the one-dispatch-per-request "
                       f"modeled throughput (required: "
                       f"{min_speedup:.1f}x) at "
                       f"{occupancy:.0%} lane occupancy (required: "
                       f"{min_occupancy:.0%}) in "
                       f"{packed['dispatches']} dispatch(es) "
                       f"(required: 1); a lone request takes "
                       f"{lone['ratio']:.2f}x a direct dispatch "
                       f"(allowed: {max_lone_latency_ratio:.1f}x) "
                       f"with {lone['flushes']['timer']} timer "
                       f"flushes (allowed: 0)"),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required packed / unpacked modeled "
                             "throughput ratio")
    parser.add_argument("--min-occupancy", type=float, default=0.5,
                        help="required mean lane occupancy of packed "
                             "dispatches")
    parser.add_argument("--max-lone-latency-ratio", type=float,
                        default=3.0,
                        help="allowed median latency of a lone served "
                             "request over the same request dispatched "
                             "directly on the cluster (same run)")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME,
                   run_gate(args.min_speedup, args.min_occupancy,
                            args.max_lone_latency_ratio))


if __name__ == "__main__":
    sys.exit(main())
