#!/usr/bin/env python
"""CI benchmark: multi-process replicated serving — scaling + failover.

Everything below the serving layer shares one Python process, so the
GIL caps served throughput no matter how many modules a cluster has.
The replica tier (:class:`~repro.runtime.replica.ReplicaSet` behind a
:class:`~repro.serve.router.ReplicaRouter`) spawns whole clusters in
separate processes; this benchmark gates the two properties that make
it worth having:

* **scaling** — 64 full-lane requests over 8 distinct kernel
  identities (add/sub/min/max at widths 8 and 16) served through
  ``SimdramService`` over 1 vs 4 replicas.  Modeled throughput is
  requests per simulated microsecond of *makespan* — replicas are
  independent machines, so the makespan is the busiest replica's
  modeled clock.  The gate requires >= ``--min-speedup`` (default
  2.5x) at 4 replicas;
* **failover** — the kill-one-replica drill: submit requests through a
  2-replica service, SIGKILL one replica while work is in flight, and
  require **every** handle to resolve **bit-exact** versus a
  single-module sequential run of the same requests.

Results publish under the ``"scale_out"`` gate of the shared
``bench_ci.json`` (see :mod:`gate_utils`).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_out.py [--output bench_ci.json]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from gate_utils import publish

from repro.core.framework import Simdram, SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.serve import SimdramService
from repro.serve.router import ReplicaRouter

GATE_NAME = "scale_out"
COLS = 32
BANKS = 2  # 64 SIMD lanes per replica module
LANES = 64
#: 8 distinct kernel identities so consistent hashing has a key space
#: to spread: op x width.
KERNELS = [(op, width) for width in (8, 16)
           for op in ("add", "sub", "min", "max")]
N_REQUESTS = 64
DRILL_REQUESTS = 24
DRILL_LANES = 2048


def module_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=COLS, data_rows=256, banks=BANKS))


def golden(op: str, a: np.ndarray, b: np.ndarray,
           width: int) -> np.ndarray:
    mask = (1 << width) - 1
    if op == "add":
        return (a + b) & mask
    if op == "sub":
        return (a - b) & mask
    if op == "min":
        return np.minimum(a, b)
    return np.maximum(a, b)


def make_requests(n: int, lanes: int) -> list[tuple]:
    rng = np.random.default_rng(17)
    requests = []
    for i in range(n):
        op, width = KERNELS[i % len(KERNELS)]
        half = 1 << (width - 1)
        a = rng.integers(0, half, lanes)
        b = rng.integers(0, half, lanes)
        requests.append((op, width, a, b))
    return requests


def serve_replicated(n_replicas: int, requests: list[tuple]) -> dict:
    """Serve the workload over ``n_replicas`` replica processes."""
    manifest = list(KERNELS)
    with ReplicaRouter(n_replicas, config=module_config(),
                       manifest=manifest) as router, \
            SimdramService(router) as service:
        start = time.perf_counter()
        # Corked: the dispatch count and the placement sequence are
        # those of the whole burst, whatever the thread scheduling.
        with service.hold():
            handles = [service.submit(op, a, b, width=width,
                                      tenant=f"user{i % 8}")
                       for i, (op, width, a, b) in enumerate(requests)]
        n_correct = sum(
            bool(np.array_equal(
                handle.result(timeout=600) & ((1 << width) - 1),
                golden(op, a, b, width)))
            for handle, (op, width, a, b) in zip(handles, requests))
        wall_seconds = time.perf_counter() - start
        service.flush()
        stats = service.stats()
        makespan_ns = router.busy_ns()
        per_replica = {
            rid: {"dispatches": counters["dispatches"],
                  "busy_ns": stats["replica_tier"]["replicas"]
                  [rid]["busy_ns"]}
            for rid, counters in stats["replicas"].items()
        }

    entry = {
        "replicas": n_replicas,
        "requests": len(requests),
        "correct": n_correct,
        "dispatches": stats["packing"]["dispatches"],
        "makespan_ns": makespan_ns,
        "requests_per_us": len(requests) / (makespan_ns / 1e3),
        "rebalanced": stats["replica_tier"]["router"]["rebalanced"],
        "per_replica": per_replica,
        "wall_seconds": wall_seconds,
    }
    print(f"{n_replicas} replica(s): {entry['dispatches']:3d} "
          f"dispatches, makespan {makespan_ns / 1e3:9.1f} us "
          f"({entry['requests_per_us']:.4f} req/us), "
          f"{n_correct}/{len(requests)} correct")
    return entry


def kill_drill() -> dict:
    """SIGKILL one of two replicas mid-traffic; every in-flight
    request must still complete, bit-exact vs a sequential run."""
    requests = make_requests(DRILL_REQUESTS, DRILL_LANES)

    sim = Simdram(module_config(), seed=1)
    goldens = [sim.map(op, a, b, width=width)
               for op, width, a, b in requests]

    with ReplicaRouter(2, config=module_config(),
                       manifest=list(KERNELS)) as router, \
            SimdramService(router) as service:
        handles = [service.submit(op, a, b, width=width)
                   for op, width, a, b in requests]
        victim = 0
        deadline = time.monotonic() + 60
        while (time.monotonic() < deadline
               and router.replicas.n_inflight(victim) == 0
               and not all(handle.done() for handle in handles)):
            time.sleep(0)  # yield, do not nap: a pack is in flight ~1 ms
        inflight_at_kill = router.replicas.n_inflight(victim)
        router.kill(victim)

        n_correct = sum(
            bool(np.array_equal(
                handle.result(timeout=600) & ((1 << width) - 1),
                gold & ((1 << width) - 1)))
            for handle, gold, (op, width, a, b)
            in zip(handles, goldens, requests))
        stats = service.stats()

    entry = {
        "requests": DRILL_REQUESTS,
        "completed_bit_exact": n_correct,
        "inflight_at_kill": inflight_at_kill,
        "replica_deaths": stats["failover"]["replica_deaths"],
        "requeued_requests": stats["failover"]["requeued_requests"],
        "survivors": stats["replica_tier"]["alive"],
        "failed": stats["requests"]["failed"],
    }
    print(f"kill drill: {n_correct}/{DRILL_REQUESTS} bit-exact after "
          f"killing replica {victim} with {inflight_at_kill} "
          f"dispatch(es) in flight "
          f"({entry['requeued_requests']} requeued)")
    return entry


def run_gate(min_speedup: float = 2.5) -> dict:
    """Run scaling + drill; returns the section for bench_ci.json."""
    requests = make_requests(N_REQUESTS, LANES)
    single = serve_replicated(1, requests)
    replicated = serve_replicated(4, requests)
    drill = kill_drill()

    speedup = (replicated["requests_per_us"]
               / single["requests_per_us"])
    correct = (single["correct"] == N_REQUESTS
               and replicated["correct"] == N_REQUESTS)
    drill_pass = (drill["completed_bit_exact"] == DRILL_REQUESTS
                  and drill["failed"] == 0)
    gate_pass = speedup >= min_speedup and correct and drill_pass
    return {
        "kernels": [f"{op}@{width}" for op, width in KERNELS],
        "concurrent_requests": N_REQUESTS,
        "single": single,
        "replicated": replicated,
        "drill": drill,
        "gate": {
            "required_speedup": min_speedup,
            "measured_speedup": speedup,
            "correct": correct,
            "drill_pass": drill_pass,
            "pass": gate_pass,
            "detail": (f"4-replica serving reaches {speedup:.1f}x the "
                       f"1-replica modeled throughput (required: "
                       f"{min_speedup:.1f}x); kill-one-replica drill "
                       f"completed "
                       f"{drill['completed_bit_exact']}"
                       f"/{DRILL_REQUESTS} in-flight requests "
                       f"bit-exact"),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="required 4-replica / 1-replica modeled "
                             "throughput ratio")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME, run_gate(args.min_speedup))


if __name__ == "__main__":
    sys.exit(main())
