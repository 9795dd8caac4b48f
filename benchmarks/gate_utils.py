"""Shared plumbing for the CI benchmark gates.

Every gate script (``bench_compiled``, ``bench_fusion``,
``bench_cluster``, ``bench_lazy``, ``bench_serve``, ...)
publishes its results as one *section* of a single schema-versioned
``bench_ci.json``::

    {
      "schema_version": 2,
      "config": {"python": "3.12.1"},
      "gates": {
        "compiled":   {..., "gate": {"pass": true, ...}},
        "fusion":     {...},
        "cluster":    {...},
        "lazy":       {...},
        "serve":      {...}
      }
    }

Scripts merge into the file instead of clobbering it, so running them
individually — or all at once through ``run_all.py`` — always yields
one artifact carrying every gate's numbers.  A file with a different
``schema_version`` is discarded wholesale rather than half-merged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Bump when the bench_ci.json layout changes incompatibly.
SCHEMA_VERSION = 2


def merge_gate(output: str, gate_name: str, section: dict) -> None:
    """Merge one gate's section into the shared report file."""
    path = Path(output)
    report: dict = {}
    if path.exists():
        try:
            report = json.loads(path.read_text())
        except json.JSONDecodeError:
            report = {}
    if report.get("schema_version") != SCHEMA_VERSION:
        report = {}
    report["schema_version"] = SCHEMA_VERSION
    report.setdefault("config", {})["python"] = sys.version.split()[0]
    report.setdefault("gates", {})[gate_name] = section
    path.write_text(json.dumps(report, indent=2) + "\n")


def publish(output: str, gate_name: str, section: dict) -> int:
    """Merge, report the gate verdict, and return the exit code."""
    merge_gate(output, gate_name, section)
    print(f"wrote {output} (gate {gate_name!r})")
    gate = section["gate"]
    if not gate["pass"]:
        print(f"GATE FAILED [{gate_name}]: {gate.get('detail', gate)}",
              file=sys.stderr)
        return 1
    print(f"gate ok [{gate_name}]")
    return 0
