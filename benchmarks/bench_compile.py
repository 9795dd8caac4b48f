#!/usr/bin/env python
"""CI benchmark: Step-2 compile time is linear in the operation's size.

The scheduler places one MAJ node at a time; what it costs to place a
node must not depend on how many values are live, or wide operations —
the paper evaluates elements up to 64 bits — become unaffordable to
compile (``div@32`` took 16.8 s and ``mul@64`` 27.9 s when every
location probe scanned every live value).  The gate is a same-run
ratio, so it is machine-independent: host microseconds per emitted
µOp of the 32-bit kernel over that of the 8-bit kernel,

* ``div``: <= ``--max-div-ratio`` (default 1.3; 3.8 before the
  per-node location index, about 1.0 after),
* ``mul``: <= ``--max-mul-ratio`` (default 1.4; 2.3 before, about 1.1
  after),

each timing the best of three ``compile_operation`` calls (Step 1 +
Step 2, nothing cached between them).

Results publish under the ``"compile"`` gate of the shared
``bench_ci.json`` (see :mod:`gate_utils`).  The ratios are
lower-is-better, so they are deliberately *not* ``measured_*`` keys
(``bench_history`` reads those as higher-is-better).

Usage::

    PYTHONPATH=src python benchmarks/bench_compile.py [--output bench_ci.json]
"""

from __future__ import annotations

import argparse
import sys
import time

from gate_utils import publish

from repro.core.compiler import compile_operation
from repro.core.operations import get_operation

GATE_NAME = "compile"
GATE_WIDTHS = (8, 32)
REPS = 3


def time_compile(op_name: str, width: int) -> dict:
    """Best-of-``REPS`` seconds to compile one kernel from scratch."""
    spec = get_operation(op_name)
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        program = compile_operation(spec, width)
        best = min(best, time.perf_counter() - start)
    return {"op": op_name, "width": width, "compile_s": best,
            "n_uops": program.n_commands,
            "us_per_uop": 1e6 * best / program.n_commands}


def run_gate(max_div_ratio: float = 1.3, max_mul_ratio: float = 1.4) -> dict:
    """Time the four kernels and return the gate section."""
    limits = {"div": max_div_ratio, "mul": max_mul_ratio}
    kernels = [time_compile(op_name, width)
               for op_name in limits for width in GATE_WIDTHS]
    ratios: dict[str, float] = {}
    for op_name in limits:
        narrow, wide = (k["us_per_uop"] for k in kernels
                        if k["op"] == op_name)
        ratios[op_name] = wide / narrow
    for k in kernels:
        print(f"  {k['op']}@{k['width']:<2}  {k['compile_s']:8.3f} s  "
              f"{k['n_uops']:6d} µOps  {k['us_per_uop']:7.1f} µs/µOp")
    return {
        "kernels": kernels,
        "gate": {
            "us_per_uop_ratio_32_over_8": ratios,
            "required_max_ratio": limits,
            "pass": all(ratios[op] <= limits[op] for op in limits),
            "detail": ", ".join(
                f"{op}@32 costs {ratios[op]:.2f}x the host time per µOp "
                f"of {op}@8 (allowed: {limits[op]:.1f}x)" for op in limits),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--max-div-ratio", type=float, default=1.3,
                        help="allowed µs/µOp of div@32 over div@8")
    parser.add_argument("--max-mul-ratio", type=float, default=1.4,
                        help="allowed µs/µOp of mul@32 over mul@8")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME,
                   run_gate(args.max_div_ratio, args.max_mul_ratio))


if __name__ == "__main__":
    sys.exit(main())
