#!/usr/bin/env python
"""CI benchmark gate: the compiled executor vs. the per-bank engine.

The compiled engine lowers a cached :class:`ExecutionPlan` to
straight-line generated code over the module's stacked cell state — uop
loop unrolled, row and plane indices baked in, all banks at once — while
``per_bank``, the executable specification, replays the symbolic µOps
through each bank's subarray in turn.  The modeled DRAM work is
identical by construction (same µProgram, same command stats); the
entire speedup is simulator overhead removed from the hot loop.

The gate replays 8-bit ``add`` on a 16-bank module through both
engines and **fails** — exit code 1 — unless ``compiled`` is at least
``--min-speedup`` (default 5x) faster than ``per_bank`` in wall-clock
per dispatch: an accidental per-bank fallback or a regression of the
stacked fast path shows up as a gate failure, not as a silently slower
simulator.  Before timing, every engine's output of the fused 8-bit
CNN tap ``relu(x * w + acc)`` (:func:`repro.apps.cnn.madd_relu_expr`,
the dot-product finisher of the paper's convolution evaluation) is
checked bit-exact against the host golden model.

Beside the gated ratio the report *publishes* (does not gate), for the
CNN tap: the absolute microseconds per ``compiled`` dispatch
(``us_per_dispatch``) at 64 lanes (the serve tiers' module, 2 banks of
32 columns, where the dispatch floor rather than row width decides),
at 1 024 lanes and at the 32 768 lanes of the e2e ``bulk_map``
workload; ``row_traffic``, the rows one successful dispatch converts
between numpy bytes and Python ints (``rows_loaded``: data rows and B
planes read before they are written; ``rows_stored``: those written),
the cost that bounds the engine at 4 KiB rows; ``us_per_map``, the
whole warm ``Simdram.map`` at 64 lanes — the floor under every serve
request — split into transposing in, ``execute_on_module``, transposing
out and the remainder (kernel lookup, binding rows, announcing and
releasing them); and ``codegen``, what building one executor costs —
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
GATE_KERNEL = ("add", 8)   # the gated compiled/per_bank ratio
TAP_KERNEL = "cnn_mad_relu"
TAP_WEIGHT = 37     # the fixed conv tap bench_fusion gates on
WIDTH = 8
BANKS = 16
COLS = 64
BULK_COLS = 2048    # x BANKS = the 32 768 lanes of the e2e bulk_map
SERVE_COLS, SERVE_BANKS = 32, 2   # the e2e serve tiers' 64-lane module
BASELINE = "per_bank"
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
    source = sim.control.executor_for(plan).__source__
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


def time_entry(sim: Simdram, program, layout, engines) -> dict:
    """Per-engine dispatch timings of one prepared kernel."""
    lanes, n_uops = sim.module.lanes, len(program.uops)
    modeled_ns = program.latency_ns(sim.config.timing)
    entry = {"banks": sim.config.geometry.banks, "lanes": lanes,
             "n_uops": n_uops,
             #: Modeled in-DRAM latency of one dispatch — identical for
             #: every engine (same µProgram); the timings measure how
             #: fast the *simulator* retires that modeled work.
             "modeled_ns_per_execution": modeled_ns}
    for engine in engines:
        seconds = time_engine(sim, program, layout, engine)
        entry[engine] = {
            "seconds_per_execution": seconds,
            # One execution computes `lanes` elementwise results.
            "ops_per_sec": lanes / seconds,
            # Modeled DRAM nanoseconds simulated per wall-clock second.
            "modeled_ns_per_sec": modeled_ns / seconds,
            "uops_per_sec": n_uops * entry["banks"] / seconds,
        }
    return entry


def run_suite() -> dict:
    root = madd_relu_expr(TAP_WEIGHT)
    engines = list_engines()
    check_bit_exact(build_system(), root, engines)

    op_name, op_width = GATE_KERNEL
    sim = build_system()
    gate_entry = {"kernel": op_name, "element_width": op_width,
                  **time_entry(sim, *prepare(sim, op_name, op_width),
                               (BASELINE, CANDIDATE))}
    gate_entry["speedup"] = (
        gate_entry[BASELINE]["seconds_per_execution"]
        / gate_entry[CANDIDATE]["seconds_per_execution"])
    print(f"{op_name:>8} w{op_width}: " + ", ".join(
        f"{engine} {gate_entry[engine]['ops_per_sec']:>12.0f} ops/s"
        for engine in (BASELINE, CANDIDATE))
        + f", speedup {gate_entry['speedup']:.1f}x")

    sim = build_system()   # fresh allocator: deterministic layout
    program, layout = prepare(sim, root)
    tap_entry = {"kernel": TAP_KERNEL, "expr": repr(root),
                 "element_width": WIDTH,
                 **time_entry(sim, program, layout, (CANDIDATE,))}

    bulk = build_system(BULK_COLS)
    bulk_program, bulk_layout = prepare(bulk, root)
    serve = build_system(SERVE_COLS, SERVE_BANKS)
    serve_program, serve_layout = prepare(serve, root)
    lanes = sim.module.lanes
    us_per_dispatch = {
        str(serve.module.lanes): {CANDIDATE: time_engine(
            serve, serve_program, serve_layout, CANDIDATE) * 1e6},
        str(lanes): {CANDIDATE: tap_entry[CANDIDATE][
            "seconds_per_execution"] * 1e6},
        str(bulk.module.lanes): {CANDIDATE: time_engine(
            bulk, bulk_program, bulk_layout, CANDIDATE) * 1e6},
    }
    traffic = {str(serve.module.lanes): row_traffic(serve, serve_program,
                                                    serve_layout),
               str(lanes): row_traffic(sim, program, layout),
               str(bulk.module.lanes): row_traffic(bulk, bulk_program,
                                                   bulk_layout)}
    for size, row in us_per_dispatch.items():
        print(f"{size:>8} lanes: {CANDIDATE} {row[CANDIDATE]:.1f} us, "
              f"loads {traffic[size]['rows_loaded']}, "
              f"stores {traffic[size]['rows_stored']} rows")
    codegen = {f"{TAP_KERNEL}@{WIDTH}": codegen_cost(sim, program, layout),
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
            "bit_exact_engines": engines,
            "kernels": [gate_entry, tap_entry],
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
    op_name, op_width = GATE_KERNEL
    section["gate"] = {
        "kernel": op_name,
        "element_width": op_width,
        "banks": BANKS,
        "required_speedup": min_speedup,
        "measured_speedup": entry["speedup"],
        "bit_exact": True,   # asserted against golden before timing
        "pass": entry["speedup"] >= min_speedup,
        "detail": (f"{CANDIDATE} engine is {entry['speedup']:.2f}x the "
                   f"{BASELINE} engine on {op_width}-bit {op_name} at "
                   f"{BANKS} banks; every engine bit-exact vs golden on "
                   f"the fused {WIDTH}-bit {TAP_KERNEL} tap "
                   f"(required: {min_speedup:.1f}x)"),
    }
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help=f"required {CANDIDATE}/{BASELINE} speedup "
                             f"on {GATE_KERNEL[1]}-bit {GATE_KERNEL[0]} "
                             f"at {BANKS} banks")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME, run_gate(args.min_speedup))


if __name__ == "__main__":
    sys.exit(main())
