"""E1 — µProgram characteristics table.

Regenerates the paper's per-operation µProgram statistics: AAP/AP
command counts, TRA count, temporary rows and latency for all 16
operations at 8/16/32 bits, on both substrates.  The benchmark timing
itself measures the Step-1+2 compiler (circuit -> MIG -> schedule).

The 32-bit rows are affordable because the scheduler is linear in the
size of the graph: the 96 compilations take about 4 s (``div@32``, the
largest at 9 183 commands, about 0.4 s), where ``div@32`` and ``mul@32``
alone used to take 20 s.
"""

from __future__ import annotations

from conftest import emit

from repro.core.compiler import compile_cached, compile_operation
from repro.core.operations import PAPER_OPERATIONS, get_operation
from repro.dram.timing import DramTiming
from repro.reliability.variation import count_tras
from repro.util.tables import format_table

WIDTHS = (8, 16, 32)


def bench_e1_uprogram_table(benchmark):
    timing = DramTiming.ddr4_2400()
    rows = []
    for op_name in PAPER_OPERATIONS:
        for width in WIDTHS:
            program = compile_cached(op_name, width, "simdram")
            ambit = compile_cached(op_name, width, "ambit")
            rows.append((
                op_name, width,
                program.n_aap, program.n_ap, count_tras(program),
                program.n_temp_rows,
                program.latency_ns(timing) / 1e3,
                ambit.n_commands,
                ambit.n_commands / program.n_commands,
            ))
    table = format_table(
        ["op", "bits", "AAP", "AP", "TRAs", "temps", "latency_us",
         "ambit_cmds", "ambit/simdram"],
        rows,
        title="E1: SIMDRAM uProgram characteristics (per operation)")
    emit("e1_uprograms", table)
    # The framework's core claim, on every row: MAJ/NOT synthesis and
    # B-group reuse need fewer commands than the AND/OR/NOT baseline.
    losing = [(op, width) for op, width, *_, ambit_cmds, ratio in rows
              if ratio <= 1.0]
    assert not losing, f"simdram does not beat ambit on {losing}"

    # Timed region: one full Step-1+2 compilation (no cache).
    spec = get_operation("add")
    benchmark(lambda: compile_operation(spec, 16))
