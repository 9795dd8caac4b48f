#!/usr/bin/env python
"""CI benchmark smoke: vectorized vs. per-bank executor throughput.

Runs a small kernel set (add / mul / xor_red, the arithmetic and
reduction shapes of the paper's evaluation) through *both* execution
engines on a 16-bank module, measures simulated operation and µOp
throughput, publishes the numbers under the ``"vectorized"`` gate of
the shared ``bench_ci.json`` (see :mod:`gate_utils`) and **fails** —
exit code 1 — if the vectorized engine is not at least
``--min-speedup`` (default 5x) faster than the per-bank engine on
8-bit ``add`` at 16 banks.  That gate is the regression tripwire for
the batched execution engine: an accidental per-bank fallback or a
de-vectorized hot loop shows up as a gate failure, not as a silently
slower simulator.

Usage::

    PYTHONPATH=src python benchmarks/bench_ci_smoke.py [--output bench_ci.json]

The script is pure stdlib + the repo itself; it is also importable so
``run_all.py`` (and the test suite) can call :func:`run_gate`.
"""

from __future__ import annotations

import argparse
import sys
import time

from gate_utils import publish

from repro.core.framework import Simdram, SimdramConfig
from repro.core.operations import get_operation
from repro.dram.geometry import DramGeometry
from repro.exec.layout import RowLayout
from repro.uprog.uops import INPUT_SPACES, Space

#: (op_name, element width) kernels swept by the smoke run.
KERNELS: tuple[tuple[str, int], ...] = (
    ("add", 8),
    ("mul", 8),
    ("xor_red", 8),
)
GATE_KERNEL = ("add", 8)
GATE_NAME = "vectorized"
BANKS = 16
COLS = 64
MIN_SECONDS = 0.2  # measure each engine for at least this long
REPEATS = 3        # best-of; absorbs CI runner noise


def build_system() -> Simdram:
    geometry = DramGeometry.sim_small(cols=COLS, data_rows=768, banks=BANKS)
    return Simdram(SimdramConfig(geometry=geometry), seed=13)


def prepare(sim: Simdram, op_name: str, width: int):
    """Compile the kernel and lay out operands; returns what the timing
    loop needs: the installed program and its bound row layout."""
    import numpy as np

    spec = get_operation(op_name)
    program = sim.compile(op_name, width).program
    rng = np.random.default_rng(99)
    operands = [
        sim.array(rng.integers(0, 1 << in_width, sim.module.lanes),
                  in_width)
        for in_width in spec.in_widths(width)
    ]
    out = sim.empty(sim.module.lanes, spec.out_width(width))
    bases = {Space.OUTPUT: out.block.base}
    for space, operand in zip(INPUT_SPACES, operands):
        bases[space] = operand.block.base
    if program.n_temp_rows:
        temp = sim._allocator.alloc(program.n_temp_rows)
        bases[Space.TEMP] = temp.base
    return program, RowLayout(bases)


def time_engine(sim: Simdram, program, layout, engine: str) -> float:
    """Best-of-``REPEATS`` seconds per execution of ``program``."""
    best = float("inf")
    for _ in range(REPEATS):
        reps = 0
        start = time.perf_counter()
        elapsed = 0.0
        while elapsed < MIN_SECONDS:
            sim.control.execute_on_module(program, sim.module, layout,
                                          engine=engine)
            reps += 1
            elapsed = time.perf_counter() - start
        best = min(best, elapsed / reps)
    return best


def run_suite() -> dict:
    results = []
    for op_name, width in KERNELS:
        sim = build_system()
        program, layout = prepare(sim, op_name, width)
        lanes = sim.module.lanes
        n_uops = len(program.uops)
        entry = {"kernel": op_name, "element_width": width,
                 "banks": BANKS, "lanes": lanes, "n_uops": n_uops}
        for engine in ("per_bank", "vectorized"):
            seconds = time_engine(sim, program, layout, engine)
            entry[engine] = {
                "seconds_per_execution": seconds,
                # One execution computes `lanes` elementwise results.
                "ops_per_sec": lanes / seconds,
                # µOps replayed across all banks per wall-clock second.
                "uops_per_sec": n_uops * BANKS / seconds,
            }
        entry["speedup"] = (entry["per_bank"]["seconds_per_execution"]
                            / entry["vectorized"]["seconds_per_execution"])
        results.append(entry)
        print(f"{op_name:>8} w{width}: "
              f"per-bank {entry['per_bank']['ops_per_sec']:>12.0f} ops/s, "
              f"vectorized {entry['vectorized']['ops_per_sec']:>12.0f} "
              f"ops/s, speedup {entry['speedup']:.1f}x")
    return {"config": {"banks": BANKS, "cols": COLS,
                       "python": sys.version.split()[0]},
            "kernels": results}


def run_gate(min_speedup: float = 5.0) -> dict:
    """Run the suite and return the gate section for bench_ci.json."""
    section = run_suite()
    gate_entry = next(k for k in section["kernels"]
                      if (k["kernel"], k["element_width"]) == GATE_KERNEL)
    gate_pass = gate_entry["speedup"] >= min_speedup
    section["gate"] = {
        "kernel": GATE_KERNEL[0],
        "element_width": GATE_KERNEL[1],
        "banks": BANKS,
        "required_speedup": min_speedup,
        "measured_speedup": gate_entry["speedup"],
        "pass": gate_pass,
        "detail": (f"vectorized engine is {gate_entry['speedup']:.2f}x "
                   f"the per-bank engine on {GATE_KERNEL[1]}-bit "
                   f"{GATE_KERNEL[0]} at {BANKS} banks "
                   f"(required: {min_speedup:.1f}x)"),
    }
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required vectorized/per-bank speedup on "
                             f"{GATE_KERNEL[1]}-bit {GATE_KERNEL[0]} "
                             f"at {BANKS} banks")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME, run_gate(args.min_speedup))


if __name__ == "__main__":
    sys.exit(main())
