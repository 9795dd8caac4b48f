#!/usr/bin/env python
"""CI benchmark: sharded multi-module runtime scaling + paging smoke.

Two gates for the runtime subsystem (``repro.runtime``):

1. **Scaling** — a 4-module sharded ``map`` of 8-bit ``add`` must
   achieve at least ``--min-speedup`` (default 2.5x) the 1-module
   *modeled* throughput.  Modules are independent channels executing
   concurrently, so cluster throughput is ``elements / makespan`` where
   the makespan is the busiest module's simulated busy time (commands
   at DDR timing + channel I/O for transposition); the single-module
   baseline serializes the same work on one module.  Wall-clock
   simulator time is reported alongside for transparency; it is not
   parallel: a lone caller's job runs every idle module's subtasks one
   after another on the caller's thread (:mod:`repro.runtime.scheduler`).

2. **Paging** — a working set larger than one module's D-group rows
   must complete through spill/fill churn with bit-exact results, and
   must actually spill.

Ungated, ``conv_hop`` publishes what the runtime costs the host: the
wall time of the ``cluster_apps`` 3x3 convolution on a 4-module cluster
beside the same taps on four standalone 256-lane modules, and how many
of the conv's subtasks waited for a held module vs ran on the
dispatching thread.

Numbers publish under the ``"cluster"`` gate of the shared
``bench_ci.json`` (see :mod:`gate_utils`) next to the other gates, so
one artifact carries the whole story.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py [--output bench_ci.json]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from gate_utils import publish

from repro.apps.cnn import (ACC_BITS, conv2d_relu_cluster, madd_expr,
                            madd_relu_expr)
from repro.core.framework import Simdram, SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.runtime import SimdramCluster

GATE_OP = "add"
GATE_NAME = "cluster"
GATE_WIDTH = 8
N_ELEMENTS = 16384
COLS = 512
BANKS = 2
MODULE_COUNTS = (1, 4)
#: The cluster_apps conv: a 34x34 image (32x32 output pixels, 256 lanes
#: on each of 4 modules of 128 columns x 2 banks), binomial 3x3 taps.
CONV_IMAGE = 34
CONV_WEIGHTS = ((1, 2, 1), (2, 4, 2), (1, 2, 1))
CONV_MODULES = 4
CONV_ROUNDS = 9


def module_config(data_rows: int = 256) -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=COLS, data_rows=data_rows, banks=BANKS))


def bench_sharded_map() -> dict:
    """Modeled + wall throughput of sharded map at 1 and 4 modules."""
    rng = np.random.default_rng(42)
    a = rng.integers(0, 1 << GATE_WIDTH, N_ELEMENTS)
    b = rng.integers(0, 1 << GATE_WIDTH, N_ELEMENTS)
    golden = (a + b) % (1 << GATE_WIDTH)

    entries = {}
    for n_modules in MODULE_COUNTS:
        with SimdramCluster(n_modules, config=module_config()) as cluster:
            start = time.perf_counter()
            result = cluster.map(GATE_OP, a, b, width=GATE_WIDTH)
            wall_seconds = time.perf_counter() - start
            makespan_ns = cluster.makespan_ns()
            correct = bool(np.array_equal(result, golden))
        entries[n_modules] = {
            "modules": n_modules,
            "lanes": COLS * BANKS * n_modules,
            "elements": N_ELEMENTS,
            "correct": correct,
            "makespan_ns": makespan_ns,
            # Modeled throughput: elements per simulated microsecond.
            "elements_per_us": N_ELEMENTS / (makespan_ns / 1e3),
            "wall_seconds": wall_seconds,
        }
        print(f"map {GATE_OP} w{GATE_WIDTH} x{N_ELEMENTS} on "
              f"{n_modules} module(s): makespan {makespan_ns/1e3:9.1f} us"
              f" ({entries[n_modules]['elements_per_us']:8.1f} elem/us),"
              f" wall {wall_seconds:.2f}s, "
              f"{'OK' if correct else 'MISMATCH'}")
    return entries


def bench_paging() -> dict:
    """A working set > one module's rows completes via spill/fill."""
    data_rows = 64  # eight 8-bit tensors max; we keep 20 alive
    rng = np.random.default_rng(7)
    n = COLS * BANKS  # one shard per tensor
    hosts = [rng.integers(0, 256, n) for _ in range(20)]

    with SimdramCluster(1, config=module_config(data_rows)) as cluster:
        start = time.perf_counter()
        tensors = [cluster.tensor(h, 8) for h in hosts]
        outs = [cluster.run("add", t, t) for t in tensors]
        correct = all(
            np.array_equal(out.to_numpy(), (2 * host) % 256)
            for host, out in zip(hosts, outs))
        wall_seconds = time.perf_counter() - start
        stats = cluster.paging_stats()
        entry = {
            "data_rows": data_rows,
            "working_set_rows": 8 * (len(hosts) * 2),
            "tensors": len(hosts),
            "correct": bool(correct),
            "n_spills": stats.n_spills,
            "n_fills": stats.n_fills,
            "spill_bits": stats.spill_bits,
            "fill_bits": stats.fill_bits,
            "wall_seconds": wall_seconds,
        }
    print(f"paging: {entry['working_set_rows']} working-set rows in "
          f"{data_rows} D-rows -> {entry['n_spills']} spills / "
          f"{entry['n_fills']} fills, "
          f"{'OK' if correct else 'MISMATCH'}")
    return entry


def bench_conv_hop() -> dict:
    """Median wall ms of the cluster conv and of the same taps on four
    standalone modules (same compiled kernels, same lanes), and the
    conv's subtasks per call queued vs run inline (ungated)."""
    config = SimdramConfig(geometry=DramGeometry.sim_small(
        cols=128, data_rows=256, banks=2))
    rng = np.random.default_rng(3)
    image = rng.integers(0, 256, (CONV_IMAGE, CONV_IMAGE))
    weights = np.array(CONV_WEIGHTS)
    out = CONV_IMAGE - 2
    taps = [(dy, dx) for dy in range(3) for dx in range(3)]
    exprs = [madd_expr(int(weights[tap])) for tap in taps[:-1]]
    exprs.append(madd_relu_expr(int(weights[taps[-1]])))
    windows = np.lib.stride_tricks.sliding_window_view(image, (3, 3))
    golden = np.maximum((windows * weights).sum(axis=(2, 3)), 0)

    with SimdramCluster(CONV_MODULES, config=config) as cluster:
        modules = [Simdram(config, seed=100 + m)
                   for m in range(CONV_MODULES)]
        for expr in exprs:
            kernel = cluster.compile(expr, ACC_BITS)
            for sim in modules:
                sim.adopt(kernel)
        lanes = cluster.lanes_per_module

        def standalone() -> np.ndarray:
            parts = []
            for m, sim in enumerate(modules):
                lo, hi = m * lanes, (m + 1) * lanes
                acc = sim.array(np.zeros(hi - lo, dtype=np.int64),
                                ACC_BITS, signed=True)
                for (dy, dx), expr in zip(taps, exprs):
                    patch = image[dy:dy + out, dx:dx + out].reshape(-1)
                    pixels = sim.array(patch[lo:hi], ACC_BITS, signed=True)
                    new_acc = sim.run_expr(expr, {"x": pixels, "acc": acc},
                                           width=ACC_BITS)
                    pixels.free()
                    acc.free()
                    acc = new_acc
                parts.append(acc.to_numpy())
                acc.free()
            return np.concatenate(parts).reshape(out, out)

        def clustered() -> np.ndarray:
            return conv2d_relu_cluster(cluster, image, weights)

        correct = all(np.array_equal(run(), golden)   # warm-up
                      for run in (clustered, standalone))
        scheduler = cluster.scheduler
        queued, inline = scheduler.subtasks_queued, scheduler.subtasks_inline
        walls: dict[str, list[float]] = {"cluster": [], "standalone": []}
        for _ in range(CONV_ROUNDS):
            for name, run in (("cluster", clustered),
                              ("standalone", standalone)):
                start = time.perf_counter()
                run()
                walls[name].append(time.perf_counter() - start)
        entry = {
            "modules": CONV_MODULES,
            "lanes_per_module": lanes,
            "taps": len(taps),
            "correct": bool(correct),
            "cluster_ms": 1e3 * float(np.median(walls["cluster"])),
            "standalone_ms": 1e3 * float(np.median(walls["standalone"])),
            "subtasks_queued": (scheduler.subtasks_queued
                                - queued) / CONV_ROUNDS,
            "subtasks_inline": (scheduler.subtasks_inline
                                - inline) / CONV_ROUNDS,
        }
    print(f"conv {out}x{out} on {CONV_MODULES} modules: cluster "
          f"{entry['cluster_ms']:.2f} ms vs standalone "
          f"{entry['standalone_ms']:.2f} ms; subtasks per call "
          f"{entry['subtasks_queued']:.0f} queued / "
          f"{entry['subtasks_inline']:.0f} inline, "
          f"{'OK' if correct else 'MISMATCH'}")
    return entry


def run_gate(min_speedup: float = 2.5) -> dict:
    """Run both cluster gates; returns the section for bench_ci.json."""
    sharded = bench_sharded_map()
    paging = bench_paging()
    conv_hop = bench_conv_hop()

    speedup = (sharded[4]["elements_per_us"]
               / sharded[1]["elements_per_us"])
    scaling_pass = (speedup >= min_speedup
                    and all(e["correct"] for e in sharded.values()))
    paging_pass = paging["correct"] and paging["n_spills"] > 0
    return {
        "sharded_map": [sharded[m] for m in MODULE_COUNTS],
        "paging": paging,
        "conv_hop": conv_hop,
        "gate": {
            "kernel": GATE_OP,
            "element_width": GATE_WIDTH,
            "required_speedup": min_speedup,
            "measured_speedup": speedup,
            "scaling_pass": scaling_pass,
            "paging_pass": paging_pass,
            "pass": scaling_pass and paging_pass,
            "detail": (f"4-module sharded map is {speedup:.2f}x the "
                       f"1-module modeled throughput (required: "
                       f"{min_speedup:.1f}x); paging workload "
                       f"{'completed' if paging_pass else 'FAILED'} "
                       f"({paging['n_spills']} spills, "
                       f"{paging['n_fills']} fills)"),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="required 4-module / 1-module modeled "
                             "throughput ratio on sharded map")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME, run_gate(args.min_speedup))


if __name__ == "__main__":
    sys.exit(main())
