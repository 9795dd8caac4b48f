#!/usr/bin/env python
"""CI benchmark gate: compiled executor vs. the vectorized engine.

The compiled engine lowers a cached :class:`ExecutionPlan` to
straight-line generated code — uop loop unrolled, row and plane
indices baked in — so the per-dispatch cost drops from "interpret a
few hundred plan steps" to "run a specialized function".  The modeled
DRAM work is identical by construction (same µProgram, same plan, same
command stats); the entire speedup is interpreter overhead removed
from the simulator's hot loop.

This gate replays the fused 8-bit CNN tap ``relu(x * w + acc)``
(:func:`repro.apps.cnn.madd_relu_expr`, the dot-product finisher of
the paper's convolution evaluation) on a 16-bank module through every
plan-executing engine in the registry, checks each engine's output
bit-exact against the host golden model, and **fails** — exit code 1 —
unless the compiled engine is at least ``--min-speedup`` (default 5x)
faster than the vectorized engine in wall-clock per dispatch (equally:
in modeled operations retired per wall-clock second — the modeled work
per dispatch is the same, so the two ratios are one number).

Beside the gated ratio the report *publishes* (does not gate) the
absolute microseconds per dispatch of both engines at the gate size
and at the 32 768 lanes of the e2e ``bulk_map`` workload
(``us_per_dispatch``) — on packed device state the two engines meet at
bulk sizes, and that pair of numbers is what the ``vectorized`` vs
``compiled`` decision (ROADMAP) needs.  Beside it, ``row_traffic``
publishes the rows one successful ``compiled`` dispatch converts
between numpy bytes and Python ints (``rows_loaded``: data rows and B
planes read before they are written; ``rows_stored``: those written),
the cost that bounds that engine at 4 KiB rows.  ``us_per_dispatch``
also has a 64-lane row, the module size of the serve tiers (2 banks of
32 columns), where the dispatch floor rather than row width decides.
``us_per_map`` publishes the whole warm ``Simdram.map`` at 64 lanes
— the floor under every serve request — split into transposing in,
``execute_on_module``, transposing out and the remainder (kernel
lookup, binding rows, announcing and releasing them).
``codegen`` publishes what building one ``compiled`` executor costs —
``source_lines`` of the generated source and ``codegen_ms`` (generate
plus ``compile()``) — for the CNN tap and for ``div@16``, the largest
paper kernel.

Usage::

    PYTHONPATH=src python benchmarks/bench_compiled.py [--output bench_ci.json]

Importable so ``run_all.py`` (and the test suite) can call
:func:`run_gate`.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import time

import numpy as np

from gate_utils import publish

from repro.apps.cnn import madd_relu_expr
from repro.core import expr as E
from repro.core.framework import Simdram, SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.exec.engines import get_engine, list_engines
from repro.exec.layout import RowLayout
from repro.uprog.uops import INPUT_SPACES, Space

GATE_NAME = "compiled"
GATE_KERNEL = "cnn_mad_relu"
TAP_WEIGHT = 37     # the fixed conv tap bench_fusion gates on
WIDTH = 8
BANKS = 16
COLS = 64
BULK_COLS = 2048    # x BANKS = the 32 768 lanes of the e2e bulk_map
SERVE_COLS, SERVE_BANKS = 32, 2   # the e2e serve tiers' 64-lane module
BASELINE = "vectorized"
CANDIDATE = "compiled"
MIN_SECONDS = 0.2   # measure each engine for at least this long
REPEATS = 3         # best-of; absorbs CI runner noise


def build_system(cols: int = COLS, banks: int = BANKS) -> Simdram:
    geometry = DramGeometry.sim_small(cols=cols, data_rows=768,
                                      banks=banks)
    return Simdram(SimdramConfig(geometry=geometry), seed=13)


def check_bit_exact(sim: Simdram, root, engines: list[str]) -> None:
    """Every engine's fused output must equal the host golden model."""
    rng = np.random.default_rng(7)
    n = sim.module.lanes
    feeds_host = {"x": rng.integers(0, 256, n),
                  "acc": rng.integers(0, 256, n)}
    golden = E.golden(root, feeds_host, WIDTH)
    x = sim.array(feeds_host["x"], WIDTH)
    acc = sim.array(feeds_host["acc"], WIDTH)
    for engine in engines:
        out = sim.run_expr(root, {"x": x, "acc": acc}, width=WIDTH,
                           engine=engine)
        result = sim.transposer.vertical_to_host(
            sim.module, out.block, out.n_elements, out.width,
            signed=False)
        out.free()
        assert np.array_equal(result, golden), \
            f"{engine} fused cnn tap != golden"
    x.free()
    acc.free()


def prepare(sim: Simdram, root, width: int = WIDTH):
    """Compile the kernel and bind a row layout, exactly as a batched
    dispatch would; returns (program, layout)."""
    kernel = sim.compile(root, width)
    rng = np.random.default_rng(99)
    operands = [
        sim.array(rng.integers(0, 1 << w, sim.module.lanes), w)
        for w in kernel.input_widths
    ]
    out = sim.empty(sim.module.lanes, kernel.out_width)
    bases = {Space.OUTPUT: out.block.base}
    for space, operand in zip(INPUT_SPACES, operands):
        bases[space] = operand.block.base
    if kernel.program.n_temp_rows:
        temp = sim._allocator.alloc(kernel.program.n_temp_rows)
        bases[Space.TEMP] = temp.base
    return kernel.program, RowLayout(bases)


def best_seconds(call) -> float:
    """Best-of-``REPEATS`` seconds per ``call()``."""
    best = float("inf")
    for _ in range(REPEATS):
        reps = 0
        start = time.perf_counter()
        elapsed = 0.0
        while elapsed < MIN_SECONDS:
            call()
            reps += 1
            elapsed = time.perf_counter() - start
        best = min(best, elapsed / reps)
    return best


def time_engine(sim: Simdram, program, layout, engine: str) -> float:
    """Best-of-``REPEATS`` seconds per execution of ``program``."""
    return best_seconds(lambda: sim.control.execute_on_module(
        program, sim.module, layout, engine=engine))


def map_floor(sim: Simdram, root) -> dict:
    """Microseconds of one warm one-batch ``Simdram.map_expr`` of
    ``root`` over every lane, and its parts: each measured alone on the
    rows the map binds — transposing the operands in, the control
    unit's ``execute_on_module``, transposing the result out — and the
    remainder (kernel lookup, binding, announce, release)."""
    kernel = sim.compile(root, WIDTH)
    rng = np.random.default_rng(5)
    feeds = {name: rng.integers(0, 1 << WIDTH, sim.module.lanes)
             for name in ("x", "acc")}
    total = best_seconds(lambda: sim.map_expr(root, feeds, width=WIDTH))
    in_blocks, out_block, layout, reserved = sim._bound_rows(kernel)
    unit, module, n = sim.transposer, sim.module, sim.module.lanes
    vectors = kernel.bind((), feeds)
    try:
        parts = {
            "transpose_in": best_seconds(lambda: [
                unit.host_to_vertical(module, block, values, block.width)
                for values, block in zip(vectors, in_blocks)]),
            "execute_on_module": best_seconds(
                lambda: sim.control.execute_on_module(
                    kernel.program, module, layout)),
            "transpose_out": best_seconds(lambda: unit.vertical_to_host(
                module, out_block, n, kernel.out_width)),
        }
    finally:
        sim._release_rows(reserved)
    row = {"map": total * 1e6,
           **{part: seconds * 1e6 for part, seconds in parts.items()}}
    row["remainder"] = row["map"] - sum(parts.values()) * 1e6
    return row


def row_traffic(sim: Simdram, program, layout) -> dict:
    """Rows one successful ``compiled`` dispatch loads and stores, read
    off its generated source: the prologue's ``_load_rows`` and the
    epilogue's ``_store_rows`` tuples (a raise site's writeback is
    indented deeper, inside its ``if``, and not counted)."""
    plan = sim.control.plan_for(program, layout, sim.module.geometry)
    source = sim.control.executor_for(plan, get_engine(CANDIDATE)).__source__
    return {
        key: sum(len(ast.literal_eval(rows)) for rows in re.findall(
            rf"^    (?! ).*{call}\(\w+, (\([^)]*\))", source, re.MULTILINE))
        for key, call in (("rows_loaded", "_load_rows"),
                          ("rows_stored", "_store_rows"))}


def codegen_cost(sim: Simdram, program, layout) -> dict:
    """Lines and best-of-``REPEATS`` milliseconds of building one
    ``compiled`` executor (generate the source, ``compile()`` it)."""
    plan = sim.control.plan_for(program, layout, sim.module.geometry)
    engine = get_engine(CANDIDATE)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        executor = engine.compile(plan)
        best = min(best, time.perf_counter() - start)
    return {"source_lines": executor.__source__.count("\n"),
            "codegen_ms": best * 1e3}


def run_suite() -> dict:
    root = madd_relu_expr(TAP_WEIGHT)
    engines = [name for name in list_engines()
               if name != "per_bank"]

    sim = build_system()
    check_bit_exact(sim, root, engines)

    sim = build_system()   # fresh allocator: deterministic layout
    program, layout = prepare(sim, root)
    lanes = sim.module.lanes
    n_uops = len(program.uops)
    modeled_ns = program.latency_ns(sim.config.timing)

    entry = {
        "kernel": GATE_KERNEL,
        "expr": repr(root),
        "element_width": WIDTH,
        "banks": BANKS,
        "lanes": lanes,
        "n_uops": n_uops,
        #: Modeled in-DRAM latency of one dispatch — identical for
        #: every engine (same µProgram); the gate measures how fast
        #: the *simulator* retires that modeled work.
        "modeled_ns_per_execution": modeled_ns,
        "bit_exact_engines": engines,
    }
    for engine in engines:
        seconds = time_engine(sim, program, layout, engine)
        entry[engine] = {
            "seconds_per_execution": seconds,
            # One execution computes `lanes` elementwise results.
            "ops_per_sec": lanes / seconds,
            # Modeled DRAM nanoseconds simulated per wall-clock second.
            "modeled_ns_per_sec": modeled_ns / seconds,
            "uops_per_sec": n_uops * BANKS / seconds,
        }
        print(f"{engine:>16}: {seconds * 1e6:9.1f} us/dispatch, "
              f"{entry[engine]['ops_per_sec']:>12.0f} ops/s")
    entry["speedup"] = (entry[BASELINE]["seconds_per_execution"]
                        / entry[CANDIDATE]["seconds_per_execution"])
    print(f"compiled vs {BASELINE}: {entry['speedup']:.1f}x")

    bulk = build_system(BULK_COLS)
    bulk_program, bulk_layout = prepare(bulk, root)
    serve = build_system(SERVE_COLS, SERVE_BANKS)
    serve_program, serve_layout = prepare(serve, root)
    us_per_dispatch = {
        str(serve.module.lanes): {
            engine: time_engine(serve, serve_program, serve_layout,
                                engine) * 1e6
            for engine in engines},
        str(lanes): {engine: entry[engine]["seconds_per_execution"] * 1e6
                     for engine in engines},
        str(bulk.module.lanes): {
            engine: time_engine(bulk, bulk_program, bulk_layout,
                                engine) * 1e6
            for engine in engines},
    }
    traffic = {str(serve.module.lanes): row_traffic(serve, serve_program,
                                                    serve_layout),
               str(lanes): row_traffic(sim, program, layout),
               str(bulk.module.lanes): row_traffic(bulk, bulk_program,
                                                   bulk_layout)}
    for size, row in us_per_dispatch.items():
        print(f"{size:>8} lanes: " + ", ".join(
            f"{engine} {us:.1f} us" for engine, us in row.items())
            + f"; {CANDIDATE} loads {traffic[size]['rows_loaded']}, "
            f"stores {traffic[size]['rows_stored']} rows")
    codegen = {f"{GATE_KERNEL}@{WIDTH}": codegen_cost(sim, program, layout),
               "div@16": codegen_cost(sim, *prepare(sim, "div", 16))}
    for name, cost in codegen.items():
        print(f"codegen {name}: {cost['source_lines']} lines, "
              f"{cost['codegen_ms']:.1f} ms")
    floor = map_floor(build_system(SERVE_COLS, SERVE_BANKS), root)
    us_per_map = {str(serve.module.lanes): floor}
    print(f"{serve.module.lanes:>8} lanes: map {floor['map']:.1f} us = "
          + " + ".join(f"{part} {floor[part]:.1f}" for part in (
              "transpose_in", "execute_on_module", "transpose_out",
              "remainder")))
    return {"config": {"banks": BANKS, "cols": COLS,
                       "python": sys.version.split()[0],
                       "engines": engines},
            "kernels": [entry],
            #: Published, not gated: absolute cost per dispatch.
            "us_per_dispatch": us_per_dispatch,
            #: Published, not gated: a warm one-batch map and its parts.
            "us_per_map": us_per_map,
            "row_traffic": traffic,
            "codegen": codegen}


def run_gate(min_speedup: float = 5.0) -> dict:
    """Run the suite and return the gate section for bench_ci.json."""
    section = run_suite()
    entry = section["kernels"][0]
    gate_pass = entry["speedup"] >= min_speedup
    section["gate"] = {
        "kernel": GATE_KERNEL,
        "element_width": WIDTH,
        "banks": BANKS,
        "required_speedup": min_speedup,
        "measured_speedup": entry["speedup"],
        "bit_exact": True,   # asserted against golden before timing
        "pass": gate_pass,
        "detail": (f"compiled engine is {entry['speedup']:.2f}x the "
                   f"{BASELINE} engine on the fused {WIDTH}-bit "
                   f"{GATE_KERNEL} tap at {BANKS} banks, bit-exact "
                   f"vs golden (required: {min_speedup:.1f}x)"),
    }
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help=f"required compiled/{BASELINE} speedup on "
                             f"the fused {WIDTH}-bit CNN tap at "
                             f"{BANKS} banks")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME, run_gate(args.min_speedup))


if __name__ == "__main__":
    sys.exit(main())
