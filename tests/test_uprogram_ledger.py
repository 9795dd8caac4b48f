"""µProgram ledger: every compiled command stream, pinned by hash.

``tests/data/uprogram_ledger.json`` holds one row per kernel — the
sha256 of its µOps (one ``str(uop)`` per line) plus the AAP / AP / temp
row counts (the per-operation activation column of the paper's Table 2
comparison), the live MAJ nodes of its MIG (``n_maj``) and the command
count no schedule can go below (``bound``: one TRA per MAJ, one AAP per
live-in bit row, one per output that is not a MAJ result).  The test
recompiles every kernel and compares, so any edit to Step 1 or Step 2
that changes a single emitted command — a different tie-break in the
scheduler, a temp row handed out in another order — fails here by name.

An *intended* change to the compiler's output regenerates the file::

    PYTHONPATH=src python tests/test_uprogram_ledger.py --regen

and the diff of the JSON is the review artifact: ``--diff <old.json>``
prints it as a table (commands / ``n_maj`` / temp rows before -> after
of every row whose hash changed, and the totals).  ``--slack`` prints
the rows sorted by ``commands / bound`` — the work list for Step 2 —
with ``n_maj`` and ``commands / n_maj`` beside it: ``bound`` is computed
from our own MIG, so it cannot see a MIG that is too big; Step 1's size
is pinned separately, as closed forms in the width, in
``tests/test_logic_closed_forms.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable

import pytest

from repro.apps.brightness import brightness_expr
from repro.apps.cnn import madd_expr, madd_relu_expr
from repro.core import expr as E
from repro.core.compiler import compile_operation
from repro.core.framework import Simdram, SimdramConfig
from repro.core.fuse import compile_expr, compile_multi
from repro.core.operations import PAPER_OPERATIONS, get_operation
from repro.serve.streaming import affine_relu_step
from repro.uprog.program import MicroProgram
from repro.uprog.scheduler import ScheduleOptions

LEDGER_PATH = Path(__file__).parent / "data" / "uprogram_ledger.json"

_EXPRS = {
    "brightness_expr(40)": brightness_expr(40),
    "madd_expr(3)": madd_expr(3),
    "madd_relu_expr(-3)": madd_relu_expr(-3),
    "affine_relu_step(3)": affine_relu_step(3),
}


#: Ledger key -> ``(op, width, backend, options)`` of the catalog rows,
#: so the same rows can be reached through a module's ``compile``.
_CATALOG_ROWS: dict[str, tuple] = {}


def _catalog(op_name: str, width: int, backend: str,
             options: ScheduleOptions | None = None,
             ) -> Callable[[], MicroProgram]:
    return lambda: compile_operation(get_operation(op_name), width,
                                     backend=backend, options=options)


def _two_roots() -> MicroProgram:
    x, y = E.inp("x"), E.inp("y")
    return compile_multi({"total": E.add(x, y), "delta": E.sub(x, y)},
                         16).program


def ledger_kernels() -> dict[str, Callable[[], MicroProgram]]:
    """Ledger key -> thunk compiling that kernel from scratch."""
    kernels: dict[str, Callable[[], MicroProgram]] = {}
    for backend in ("simdram", "ambit"):
        for op_name in PAPER_OPERATIONS:
            for width in (8, 16, 32):
                key = f"{backend}/{op_name}/{width}"
                _CATALOG_ROWS[key] = (op_name, width, backend, None)
                kernels[key] = _catalog(op_name, width, backend)
    for label, options in (("reuse=False", ScheduleOptions(reuse=False)),
                           ("peephole=False",
                            ScheduleOptions(peephole=False))):
        for op_name in PAPER_OPERATIONS:
            for width in (8, 16):
                key = f"simdram/{op_name}/{width}/{label}"
                _CATALOG_ROWS[key] = (op_name, width, "simdram", options)
                kernels[key] = _catalog(op_name, width, "simdram", options)
    for label, root in _EXPRS.items():
        kernels[f"expr/{label}/16"] = (
            lambda root=root: compile_expr(root, 16).program)
    kernels["multi/total=x+y,delta=x-y/16"] = _two_roots
    return kernels


def ledger_row(program: MicroProgram) -> dict[str, object]:
    text = "\n".join(str(uop) for uop in program.uops)
    report = program.report
    n_maj = report.get("mig_passthrough", report["mig_optimized"])[0]
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "n_aap": program.n_aap, "n_ap": program.n_ap,
            "n_temp_rows": program.n_temp_rows,
            "n_maj": n_maj, "bound": report["bound"]}


_KERNELS = ledger_kernels()


@pytest.fixture(scope="module")
def ledger() -> dict[str, dict[str, object]]:
    return json.loads(LEDGER_PATH.read_text())


def test_ledger_covers_exactly_the_kernel_set(ledger):
    assert sorted(ledger) == sorted(_KERNELS)


@pytest.mark.parametrize("key", list(_KERNELS))
def test_uprogram_matches_ledger(ledger, key):
    assert ledger_row(_KERNELS[key]()) == ledger[key]


@pytest.mark.parametrize("key", list(_CATALOG_ROWS))
def test_module_compile_reaches_the_ledger_program(ledger, key):
    """``Simdram.compile`` runs the same compile body under the
    module's configuration: the kernel it caches is the pinned one."""
    op_name, width, backend, options = _CATALOG_ROWS[key]
    config = (SimdramConfig() if options is None
              else SimdramConfig(schedule=options))
    kernel = Simdram(config).compile(op_name, width, backend)
    assert ledger_row(kernel.program) == ledger[key]


def regenerate() -> None:
    rows = {key: ledger_row(build()) for key, build in _KERNELS.items()}
    LEDGER_PATH.parent.mkdir(exist_ok=True)
    LEDGER_PATH.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {LEDGER_PATH}")


def _commands(row: dict[str, int]) -> int:
    return row["n_aap"] + row["n_ap"]


def slack_table() -> str:
    """Ledger rows by ``commands / bound``, slackest first."""
    rows = json.loads(LEDGER_PATH.read_text())
    lines = [f"{'kernel':40s} {'commands':>8s} {'bound':>6s} {'slack':>6s} "
             f"{'n_maj':>6s} {'cmd/maj':>7s} {'temps':>5s}"]
    for key, row in sorted(rows.items(), reverse=True,
                           key=lambda kv: _commands(kv[1]) / kv[1]["bound"]):
        commands = _commands(row)
        lines.append(f"{key:40s} {commands:8d} {row['bound']:6d} "
                     f"{commands / row['bound']:6.2f} {row['n_maj']:6d} "
                     f"{commands / row['n_maj']:7.2f} "
                     f"{row['n_temp_rows']:5d}")
    return "\n".join(lines)


def diff_table(old_path: str) -> str:
    """What a regen changed against the ledger saved at ``old_path``:
    one line per row whose hash differs, then the totals of the 48
    default ``simdram/*`` rows, of ``ambit/*`` and of all rows."""
    old, new = json.loads(Path(old_path).read_text()), json.loads(
        LEDGER_PATH.read_text())

    def triple(row: dict[str, int]) -> tuple[int, int, int]:
        return _commands(row), row["n_maj"], row["n_temp_rows"]

    def before_after(before, after) -> str:
        return "  ".join(f"{b:6d} -> {a:6d}" for b, a in zip(before, after))

    lines = [f"{'kernel':40s} {'commands':>16s}  {'n_maj':>16s}  "
             f"{'temp rows':>16s}"]
    shared = [key for key in new if key in old]
    for key in shared:
        if old[key]["sha256"] != new[key]["sha256"]:
            lines.append(f"{key:40s} "
                         f"{before_after(triple(old[key]), triple(new[key]))}")
    changed = len(lines) - 1
    for label, member in (
            ("total simdram/* (default options)",
             lambda key: key.startswith("simdram/") and key.count("/") == 2),
            ("total ambit/*", lambda key: key.startswith("ambit/")),
            ("total (all rows)", lambda key: True)):
        keys = [key for key in shared if member(key)]
        sums = [[sum(triple(rows[key])[i] for key in keys) for i in range(3)]
                for rows in (old, new)]
        lines.append(f"{label:40s} {before_after(*sums)}")
    lines.append(f"{changed} of {len(shared)} rows changed; "
                 f"{len(new) - len(shared)} added, "
                 f"{len(old) - len(shared)} removed")
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] == ["--regen"]:
        regenerate()
    elif sys.argv[1:] == ["--slack"]:
        print(slack_table())
    elif len(sys.argv) == 3 and sys.argv[1] == "--diff":
        print(diff_table(sys.argv[2]))
    else:
        sys.exit("usage: python tests/test_uprogram_ledger.py "
                 "--regen | --slack | --diff <old.json>")
