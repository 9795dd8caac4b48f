"""E2 — throughput of the 16 operations across platforms.

Regenerates the paper's main throughput figure: CPU, GPU, Ambit and
SIMDRAM:1/4/16 for every operation, at 8-bit and 32-bit element widths,
plus the summary ratios behind the abstract's headline claims (up to
5.1x vs Ambit, 93x/6x vs CPU/GPU on average) and the per-operation
SIMDRAM-over-Ambit throughput ratio at 8 to 64 bits (reported, not
gated: both sides get their best-known Step 1, and a cell above the
paper's "up to" figure is recorded, not tuned away).
"""

from __future__ import annotations

import statistics

from conftest import emit, simdram_over_ambit_table

from repro.core.operations import PAPER_OPERATIONS
from repro.perf.model import measure_all_platforms
from repro.util.tables import format_table

PLATFORM_ORDER = ("CPU", "GPU", "Ambit:1", "SIMDRAM:1", "SIMDRAM:4",
                  "SIMDRAM:16")


def _throughput_rows(width: int):
    rows = []
    ratios = {"cpu": [], "gpu": [], "ambit": []}
    for op_name in PAPER_OPERATIONS:
        measures = {m.platform: m
                    for m in measure_all_platforms(op_name, width)}
        row = [op_name] + [round(measures[p].throughput_gops, 3)
                           for p in PLATFORM_ORDER]
        best = measures["SIMDRAM:16"].throughput_gops
        ratios["cpu"].append(best / measures["CPU"].throughput_gops)
        ratios["gpu"].append(best / measures["GPU"].throughput_gops)
        ratios["ambit"].append(
            measures["SIMDRAM:1"].throughput_gops
            / measures["Ambit:1"].throughput_gops)
        rows.append(row)
    return rows, ratios


def bench_e2_throughput(benchmark):
    sections = []
    for width in (8, 32):
        rows, ratios = _throughput_rows(width)
        table = format_table(
            ["op"] + list(PLATFORM_ORDER), rows,
            title=f"E2: throughput in GOPS, {width}-bit elements")
        summary = (
            f"  SIMDRAM:16 vs CPU  ({width}-bit): "
            f"mean {statistics.mean(ratios['cpu']):.1f}x, "
            f"max {max(ratios['cpu']):.1f}x\n"
            f"  SIMDRAM:16 vs GPU  ({width}-bit): "
            f"mean {statistics.mean(ratios['gpu']):.2f}x, "
            f"max {max(ratios['gpu']):.2f}x\n"
            f"  SIMDRAM:1  vs Ambit ({width}-bit): "
            f"mean {statistics.mean(ratios['ambit']):.2f}x, "
            f"max {max(ratios['ambit']):.2f}x")
        sections.append(table + "\n" + summary)
    sections.append(simdram_over_ambit_table(
        "E2: SIMDRAM:1 over Ambit:1 throughput, per operation",
        lambda simdram, ambit: (simdram.throughput_gops
                                / ambit.throughput_gops)))
    emit("e2_throughput", "\n\n".join(sections))

    benchmark(lambda: measure_all_platforms("add", 32))
