"""E3 — energy efficiency of the 16 operations across platforms.

Regenerates the paper's energy figure: nJ per element on CPU, GPU,
Ambit and SIMDRAM, plus the efficiency ratios behind the abstract's
claims (257x vs CPU, 31x vs GPU, up to 2.5x vs Ambit) and the
per-operation SIMDRAM-over-Ambit efficiency ratio at 8 to 64 bits
(reported, not gated).
"""

from __future__ import annotations

import statistics

from conftest import emit, simdram_over_ambit_table

from repro.core.operations import PAPER_OPERATIONS
from repro.perf.model import measure_all_platforms
from repro.util.tables import format_table

PLATFORMS = ("CPU", "GPU", "Ambit:1", "SIMDRAM:1")


def bench_e3_energy(benchmark):
    sections = []
    for width in (8, 32):
        rows = []
        ratios = {"cpu": [], "gpu": [], "ambit": []}
        for op_name in PAPER_OPERATIONS:
            measures = {m.platform: m
                        for m in measure_all_platforms(op_name, width)}
            row = [op_name] + [round(measures[p].energy_nj_per_element, 5)
                               for p in PLATFORMS]
            simdram = measures["SIMDRAM:1"].energy_nj_per_element
            ratios["cpu"].append(
                measures["CPU"].energy_nj_per_element / simdram)
            ratios["gpu"].append(
                measures["GPU"].energy_nj_per_element / simdram)
            ratios["ambit"].append(
                measures["Ambit:1"].energy_nj_per_element / simdram)
            rows.append(row)
        table = format_table(
            ["op"] + [f"{p} nJ/elem" for p in PLATFORMS], rows,
            title=f"E3: energy per element, {width}-bit elements")
        summary = (
            f"  SIMDRAM energy efficiency vs CPU  ({width}-bit): "
            f"mean {statistics.mean(ratios['cpu']):.0f}x, "
            f"max {max(ratios['cpu']):.0f}x\n"
            f"  SIMDRAM energy efficiency vs GPU  ({width}-bit): "
            f"mean {statistics.mean(ratios['gpu']):.1f}x, "
            f"max {max(ratios['gpu']):.1f}x\n"
            f"  SIMDRAM energy efficiency vs Ambit ({width}-bit): "
            f"mean {statistics.mean(ratios['ambit']):.2f}x, "
            f"max {max(ratios['ambit']):.2f}x")
        sections.append(table + "\n" + summary)
    sections.append(simdram_over_ambit_table(
        "E3: SIMDRAM:1 over Ambit:1 energy efficiency, per operation",
        lambda simdram, ambit: (ambit.energy_nj_per_element
                                / simdram.energy_nj_per_element)))
    emit("e3_energy", "\n\n".join(sections))

    benchmark(lambda: measure_all_platforms("mul", 8))
