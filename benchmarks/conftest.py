"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures as an
ASCII table, printed to stdout *and* written under
``benchmarks/results/`` so the numbers recorded in EXPERIMENTS.md can be
re-derived at any time.  The pytest-benchmark timings additionally track
the cost of the reproduction's own machinery (compiler, simulator,
models).
"""

from __future__ import annotations

import statistics
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Element widths of the per-operation SIMDRAM-over-Ambit tables.
RATIO_WIDTHS = (8, 16, 32, 64)


def emit(name: str, text: str) -> None:
    """Print a regenerated artifact and persist it to results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def simdram_over_ambit_table(title: str, advantage) -> str:
    """Per-operation SIMDRAM:1 advantage over Ambit:1 at every width of
    ``RATIO_WIDTHS`` on the paper's system model, with the mean and the
    maximum over all cells.  ``advantage(simdram, ambit)`` turns the two
    :class:`~repro.perf.model.PlatformMeasure` of one cell into its
    ratio (> 1: SIMDRAM is better).  Reported, not gated: the paper
    quotes "up to" figures, and a cell above them is recorded as such.
    """
    from repro.core.compiler import compile_cached
    from repro.core.operations import PAPER_OPERATIONS
    from repro.perf.model import PimSystemModel
    from repro.util.tables import format_table

    system = PimSystemModel.paper()
    rows, cells = [], []
    for op_name in PAPER_OPERATIONS:
        row = [op_name]
        for width in RATIO_WIDTHS:
            simdram, ambit = (
                system.measure(compile_cached(op_name, width, backend))
                for backend in ("simdram", "ambit"))
            ratio = advantage(simdram, ambit)
            row.append(round(ratio, 2))
            cells.append((ratio, f"{op_name}@{width}"))
        rows.append(row)
    best, best_cell = max(cells)
    table = format_table(
        ["op"] + [f"{width}-bit" for width in RATIO_WIDTHS], rows,
        title=title)
    return (f"{table}\n  mean {statistics.mean(c[0] for c in cells):.2f}x, "
            f"max {best:.2f}x ({best_cell})")
