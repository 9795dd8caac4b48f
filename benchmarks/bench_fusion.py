#!/usr/bin/env python
"""Fused vs. unfused pipeline benchmark (and CI regression gate).

Runs the two application pipelines that PR 2 ports to fused
expression-graph kernels —

* **cnn_mad_relu**: the dot-product tap ``relu(x * w + acc)`` at 8 bits
  (the paper's conv + activation pattern; ``w`` is a compile-time
  constant tap weight, exactly how :mod:`repro.apps.cnn` issues it);
* **brightness**: ``max(min(px + delta, 255), 0)`` at 10 bits (the
  scale+clamp of :mod:`repro.apps.brightness`);

— once as a single fused µProgram (``Simdram.run_expr``) and once as
the step-by-step ``run()`` pipeline the repo used before fusion,
measuring **DRAM commands** (AAP+AP across the module, including the
RowClone fills the unfused pipeline needs for its broadcast constants),
per-bank latency, DRAM energy, vertical-object announcements
(``bbop_trsp_init``) and per-program operand-row copies.  A third
streaming scenario compares ``map_expr`` against a chain of ``map()``
calls, where every unfused intermediate round-trips through the host —
counted as channel I/O bits.

Both variants are verified bit-identical against each other and the
numpy golden model before anything is timed.

The **gate** (exit code 1 on failure) requires the fused cnn kernel to
issue at least ``--min-ratio`` (default 1.5x) fewer DRAM commands than
the unfused pipeline — the regression tripwire for the fusion compiler:
a broken constant fold or a de-fused dispatch shows up here, not as a
silently slower simulator.  Results publish under the ``"fusion"``
gate of the shared ``bench_ci.json`` (see :mod:`gate_utils`).

Usage::

    PYTHONPATH=src python benchmarks/bench_fusion.py [--output bench_ci.json]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from gate_utils import publish

from repro.apps.brightness import PIXEL_BITS, brightness_expr
from repro.apps.cnn import madd_relu_expr
from repro.core import expr as E
from repro.core.framework import Simdram, SimdramConfig
from repro.dram.commands import CommandStats
from repro.dram.geometry import DramGeometry
from repro.isa.instructions import BbopKind

BANKS = 16
COLS = 64
TAP_WEIGHT = 37
DELTA = 70
GATE_KERNEL = "cnn_mad_relu"
GATE_NAME = "fusion"
STREAM_ELEMENTS = 4096


def build_system() -> Simdram:
    geometry = DramGeometry.sim_small(cols=COLS, data_rows=768,
                                      banks=BANKS)
    return Simdram(SimdramConfig(geometry=geometry), seed=13)


class Region:
    """Measures DRAM activity (commands, announces, I/O) of a code span."""

    def __init__(self, sim: Simdram) -> None:
        self.sim = sim

    def __enter__(self) -> "Region":
        self._stats_before = self.sim.module.total_stats()
        self._announces_before = self._announces()
        return self

    def __exit__(self, *exc) -> None:
        delta = self._delta(self.sim.module.total_stats(),
                            self._stats_before)
        self.stats = delta
        self.announces = self._announces() - self._announces_before

    def _announces(self) -> int:
        return sum(1 for instr in self.sim.issued
                   if instr.kind is BbopKind.TRSP_INIT)

    @staticmethod
    def _delta(after: CommandStats, before: CommandStats) -> CommandStats:
        return CommandStats(
            n_ap=after.n_ap - before.n_ap,
            n_aap=after.n_aap - before.n_aap,
            ap_wordlines=after.ap_wordlines - before.ap_wordlines,
            aap_src_wordlines=(after.aap_src_wordlines
                               - before.aap_src_wordlines),
            aap_dst_wordlines=(after.aap_dst_wordlines
                               - before.aap_dst_wordlines),
            host_bits_read=after.host_bits_read - before.host_bits_read,
            host_bits_written=(after.host_bits_written
                               - before.host_bits_written),
        )

    def report(self, sim: Simdram) -> dict:
        per_bank = CommandStats(n_ap=self.stats.n_ap // BANKS,
                                n_aap=self.stats.n_aap // BANKS)
        return {
            "dram_commands": self.stats.n_commands,
            "n_aap": self.stats.n_aap,
            "n_ap": self.stats.n_ap,
            "latency_ns": per_bank.latency_ns(sim.config.timing),
            "energy_nj": self.stats.energy_nj(
                sim.config.timing, sim.config.geometry, sim.config.energy),
            "announces": self.announces,
            "host_io_bits": (self.stats.host_bits_read
                             + self.stats.host_bits_written),
        }


def read_unsigned(sim: Simdram, array) -> np.ndarray:
    return sim.transposer.vertical_to_host(
        sim.module, array.block, array.n_elements, array.width,
        signed=False)


def bench_cnn(sim: Simdram) -> dict:
    """Fused vs. unfused ``relu(x * w + acc)`` at 8 bits, 16 banks."""
    rng = np.random.default_rng(7)
    n = sim.module.lanes
    xv = rng.integers(0, 256, n)
    accv = rng.integers(0, 256, n)
    x = sim.array(xv, 8)
    acc = sim.array(accv, 8)
    root = madd_relu_expr(TAP_WEIGHT)
    golden = E.golden(root, {"x": xv, "acc": accv}, 8)

    with Region(sim) as fused_region:
        fused_out = sim.run_expr(root, {"x": x, "acc": acc}, width=8)
    fused_result = read_unsigned(sim, fused_out)
    assert np.array_equal(fused_result, golden), "fused cnn != golden"

    with Region(sim) as unfused_region:
        tap = sim.fill(TAP_WEIGHT, n, 8)
        product = sim.run("mul", x, tap)
        total = sim.run("add", product, acc)
        unfused_out = sim.run("relu", total)
    assert np.array_equal(read_unsigned(sim, unfused_out), golden), \
        "unfused cnn != golden"

    kernel = sim.compile(root, 8)
    unfused_programs = [sim.compile(op, 8).program
                        for op in ("mul", "add", "relu")]
    entry = {
        "kernel": GATE_KERNEL,
        "element_width": 8,
        "banks": BANKS,
        "expr": repr(root),
        "fused": fused_region.report(sim),
        "unfused": unfused_region.report(sim),
        "program_uops": {
            "fused": kernel.program.n_commands,
            "unfused": sum(p.n_commands for p in unfused_programs),
        },
        "operand_row_copies": {
            "fused": kernel.program.n_operand_copies,
            "unfused": sum(p.n_operand_copies for p in unfused_programs),
        },
    }
    for handle in (x, acc, tap, product, total, unfused_out, fused_out):
        handle.free()
    return entry


def bench_brightness(sim: Simdram) -> dict:
    """Fused vs. unfused scale+clamp at 10 bits."""
    rng = np.random.default_rng(8)
    n = sim.module.lanes
    pxv = rng.integers(0, 256, n)
    px = sim.array(pxv, PIXEL_BITS, signed=True)
    root = brightness_expr(DELTA)
    golden = np.clip(pxv + DELTA, 0, 255)

    with Region(sim) as fused_region:
        fused_out = sim.run_expr(root, {"px": px}, width=PIXEL_BITS)
    assert np.array_equal(read_unsigned(sim, fused_out), golden), \
        "fused brightness != golden"

    with Region(sim) as unfused_region:
        delta_vec = sim.fill(DELTA, n, PIXEL_BITS, signed=True)
        high = sim.fill(255, n, PIXEL_BITS, signed=True)
        zero = sim.fill(0, n, PIXEL_BITS, signed=True)
        shifted = sim.run("add", px, delta_vec)
        shifted.signed = True
        over = sim.run("gt", shifted, high)
        clamped_high = sim.run("if_else", over, high, shifted)
        clamped_high.signed = True
        under = sim.run("gt", zero, clamped_high)
        unfused_out = sim.run("if_else", under, zero, clamped_high)
    assert np.array_equal(read_unsigned(sim, unfused_out), golden), \
        "unfused brightness != golden"

    entry = {
        "kernel": "brightness",
        "element_width": PIXEL_BITS,
        "banks": BANKS,
        "expr": repr(root),
        "fused": fused_region.report(sim),
        "unfused": unfused_region.report(sim),
    }
    for handle in (px, delta_vec, high, zero, shifted, over, clamped_high,
                   under, unfused_out, fused_out):
        handle.free()
    return entry


def bench_streaming(sim: Simdram) -> dict:
    """map_expr vs. a chain of map() calls over a long vector.

    The unfused chain round-trips every intermediate through the host
    (transpose out, transpose back in), which is the per-instruction
    overhead fusion exists to remove; the fused version moves each
    element over the channel exactly twice (in and out).
    """
    rng = np.random.default_rng(9)
    pxv = rng.integers(0, 256, STREAM_ELEMENTS)
    golden = np.clip(pxv + DELTA, 0, 255)

    with Region(sim) as fused_region:
        fused = sim.map_expr(brightness_expr(DELTA), {"px": pxv},
                             width=PIXEL_BITS)
    assert np.array_equal(fused, golden), "fused streaming != golden"

    delta_vec = np.full(STREAM_ELEMENTS, DELTA)
    high = np.full(STREAM_ELEMENTS, 255)
    zero = np.zeros(STREAM_ELEMENTS, dtype=np.int64)
    with Region(sim) as unfused_region:
        shifted = sim.map("add", pxv, delta_vec, width=PIXEL_BITS)
        over = sim.map("gt", shifted, high, width=PIXEL_BITS)
        clamped_high = sim.map("if_else", over, high, shifted,
                               width=PIXEL_BITS)
        under = sim.map("gt", zero, clamped_high, width=PIXEL_BITS)
        unfused = sim.map("if_else", under, zero, clamped_high,
                          width=PIXEL_BITS)
    assert np.array_equal(unfused, golden), "unfused streaming != golden"

    return {
        "kernel": "brightness_streaming",
        "element_width": PIXEL_BITS,
        "n_elements": STREAM_ELEMENTS,
        "banks": BANKS,
        "fused": fused_region.report(sim),
        "unfused": unfused_region.report(sim),
    }


def run_suite() -> dict:
    results = []
    for bench in (bench_cnn, bench_brightness, bench_streaming):
        sim = build_system()
        entry = bench(sim)
        fused = entry["fused"]["dram_commands"]
        unfused = entry["unfused"]["dram_commands"]
        entry["command_ratio"] = unfused / fused
        results.append(entry)
        print(f"{entry['kernel']:>21}: fused {fused:>6} cmds "
              f"({entry['fused']['announces']} announce), unfused "
              f"{unfused:>6} cmds ({entry['unfused']['announces']} "
              f"announce), ratio {entry['command_ratio']:.2f}x")
    return {"config": {"banks": BANKS, "cols": COLS,
                       "python": sys.version.split()[0]},
            "kernels": results}


def run_gate(min_ratio: float = 1.5) -> dict:
    """Run the suite and return the gate section for bench_ci.json."""
    section = run_suite()
    gate_entry = next(k for k in section["kernels"]
                      if k["kernel"] == GATE_KERNEL)
    gate_pass = gate_entry["command_ratio"] >= min_ratio
    section["gate"] = {
        "kernel": GATE_KERNEL,
        "required_ratio": min_ratio,
        "measured_ratio": gate_entry["command_ratio"],
        "pass": gate_pass,
        "detail": (f"fused {GATE_KERNEL} issues "
                   f"{gate_entry['command_ratio']:.2f}x fewer DRAM "
                   f"commands than the unfused pipeline "
                   f"(required: {min_ratio:.1f}x)"),
    }
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--min-ratio", type=float, default=1.5,
                        help="required unfused/fused DRAM-command ratio "
                             f"on the {GATE_KERNEL} kernel")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME, run_gate(args.min_ratio))


if __name__ == "__main__":
    sys.exit(main())
