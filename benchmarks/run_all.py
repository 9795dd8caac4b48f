#!/usr/bin/env python
"""Run every CI benchmark gate and publish one unified report.

The single entry point the CI benchmark job calls.  Executes all ten
regression gates —

* ``vectorized`` — batched execution engine >= 5x the per-bank
  interpreter on 8-bit add at 16 banks (``bench_ci_smoke``);
* ``compiled`` — compiled executor >= 5x the vectorized engine on the
  fused 8-bit CNN tap at 16 banks, bit-exact vs golden
  (``bench_compiled``);
* ``fusion`` — fused cnn kernel >= 1.5x fewer DRAM commands than the
  unfused pipeline (``bench_fusion``);
* ``cluster`` — 4-module sharded map >= 2.5x 1-module modeled
  throughput, and an over-capacity working set pages to completion
  (``bench_cluster``);
* ``lazy`` — the lazy-frontend brightness pipeline >= 1.5x fewer DRAM
  commands than per-op eager execution, with kernel-cache hits on
  repeat (``bench_lazy``);
* ``serve`` — lane-packed serving of 64 concurrent single-lane
  requests >= 3x the one-dispatch-per-request modeled throughput at
  >= 50% lane occupancy (``bench_serve``);
* ``scale_out`` — 4 replica processes >= 2.5x 1-replica modeled
  serving throughput, plus the kill-one-replica failover drill with
  every in-flight request bit-exact (``bench_scale_out``);
* ``obs`` — tracing instrumentation costs <= 2% per served request
  when disabled (no-op fast path) and <= 10% when recording
  (``bench_obs``);
* ``slo`` — SLO-aware admission >= 1.5x FIFO goodput under 2x
  overload, and continuous batching of staggered multi-step streams
  >= 1.3x the drain-between-steps modeled throughput (``bench_slo``);
* ``compile`` — host time per emitted µOp of ``div@32`` <= 1.3x that
  of ``div@8``, and of ``mul@32`` <= 1.4x that of ``mul@8``: Step 2
  is linear in the operation's size (``bench_compile``);

— merges their sections into one schema-versioned ``bench_ci.json``
(see :mod:`gate_utils` for the layout) and exits nonzero listing
**every** failed gate, not just the first.  A gate that crashes is
recorded as failed with the exception, and the remaining gates still
run.  The report also carries ``gates.size`` — the non-blank,
non-comment line count of ``src/repro`` — so the code-size trajectory
travels in the same artifact as the gates (a plain number, not a
``measured_*`` key: ``bench_history`` reads those as higher-is-better)
— and ``gates.uprog`` — total commands, MAJ nodes and temporary rows of
the 48 default ``simdram/*`` rows of ``tests/data/uprogram_ledger.json``
— so the quality of the compiled programs (``n_maj`` is Step 1's share
of it, the rest Step 2's) has a trajectory too.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--output bench_ci.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import bench_ci_smoke
import bench_cluster
import bench_compile
import bench_compiled
import bench_fusion
import bench_lazy
import bench_obs
import bench_scale_out
import bench_serve
import bench_slo
from gate_utils import merge_gate, publish

#: (gate name, module) in execution order; each module's run_gate()
#: carries its own default threshold.
GATES = (
    ("vectorized", bench_ci_smoke),
    ("compiled", bench_compiled),
    ("fusion", bench_fusion),
    ("cluster", bench_cluster),
    ("lazy", bench_lazy),
    ("serve", bench_serve),
    ("scale_out", bench_scale_out),
    ("obs", bench_obs),
    ("slo", bench_slo),
    ("compile", bench_compile),
)


SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def source_size(root: Path = SOURCE_ROOT) -> dict:
    """The ``size`` section: lines of library code that are neither
    blank nor a comment, and the files holding them."""
    files = sorted(root.rglob("*.py"))
    lines = sum(
        1 for path in files for line in path.read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#"))
    return {"src_lines": lines, "src_files": len(files),
            "gate": {"pass": True,
                     "detail": f"{lines} lines in {len(files)} files"}}


LEDGER_PATH = (Path(__file__).resolve().parent.parent
               / "tests" / "data" / "uprogram_ledger.json")


def uprogram_totals(ledger: Path = LEDGER_PATH) -> dict:
    """The ``uprog`` section: what the 16 paper operations cost at 8, 16
    and 32 bits on the default ``simdram`` backend, from the pinned
    ledger (so it costs no compile)."""
    rows = [row for key, row in json.loads(ledger.read_text()).items()
            if key.startswith("simdram/") and key.count("/") == 2]
    commands = sum(row["n_aap"] + row["n_ap"] for row in rows)
    n_maj = sum(row["n_maj"] for row in rows)
    temp_rows = sum(row["n_temp_rows"] for row in rows)
    return {"commands": commands, "n_maj": n_maj, "temp_rows": temp_rows,
            "kernels": len(rows),
            "gate": {"pass": True,
                     "detail": f"{commands} commands, {n_maj} MAJ nodes "
                               f"and {temp_rows} temp rows over "
                               f"{len(rows)} kernels"}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="unified gate report (merged per gate)")
    args = parser.parse_args(argv)

    failed: list[str] = []
    for name, module in GATES:
        print(f"=== gate: {name} ===")
        try:
            section = module.run_gate()
        except Exception as exc:  # noqa: BLE001 - record and continue
            traceback.print_exc()
            section = {"gate": {"pass": False,
                                "detail": f"gate crashed: {exc!r}"}}
        merge_gate(args.output, name, section)
        gate = section["gate"]
        verdict = "ok" if gate["pass"] else "FAILED"
        print(f"=== gate: {name} {verdict} — "
              f"{gate.get('detail', '')}\n")
        if not gate["pass"]:
            failed.append(name)

    publish(args.output, "size", source_size())
    publish(args.output, "uprog", uprogram_totals())
    print(f"wrote {args.output} "
          f"({len(GATES) - len(failed)}/{len(GATES)} gates passed)")
    if failed:
        print(f"FAILED gates: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
