#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

prints, per workload, one row for every end-to-end metric: both
medians, the ratio **B ÷ A** (A is the base), each side's run-to-run
spread (interquartile distance over the median) and a verdict from the
bounds in ``BENCHMARK.json``:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the spread of either side exceeds the bound, so the
  data cannot tell (unless every run of one side beats every run of the
  other, which decides it).

On the deterministic workloads the simulated metrics must be identical
run for run (same seeds): any worsening there is a regression.  Files
recorded in different environments are refused.  Exit code 1 on any
regression, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import spread  # noqa: E402

SPEC_PATH = HERE.parent.parent / "BENCHMARK.json"
#: Must match between the two files: they change what is measured
#: (numba present or absent changes what engine "auto" resolves to).
ENV_KEYS = ("nproc", "python", "numpy", "engines", "block_ops",
            "run_seconds")
SIMULATED = ("sim_ns_per_op", "sim_nj_per_op", "dram_cmds_per_op")
#: Workloads whose packing does not depend on thread timing.
DETERMINISTIC = ("compile_cold", "bulk_map", "cluster_apps", "serve_solo")


def load(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if "env" not in data or "runs" not in data:
        raise SystemExit(f"{path} is not a result file of run.py --out")
    return data


def values_by_seed(data: dict, workload: str, metric: str) -> dict:
    """``seed -> value`` over the untraced runs of one workload."""
    return {run["seed"]: run["result"]["metrics"][metric]["value"]
            for run in data["runs"]
            if run["workload"] == workload and not run["trace"]}


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    worse = worsening(statistics.median(a), statistics.median(b), better)

    def beats(winner: list[float], loser: list[float]) -> bool:
        if better == "lower":
            return max(winner) < min(loser)
        return min(winner) > max(loser)

    if max(spread(a), spread(b)) > bound:
        if beats(b, a):
            return "ok"
        if beats(a, b) and worse > bound:
            return "regressed"
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def failed_share(data: dict, workload: str) -> float:
    runs = [run["result"] for run in data["runs"]
            if run["workload"] == workload and not run["trace"]]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    differing = [key for key in ENV_KEYS
                 if a["env"].get(key) != b["env"].get(key)]
    if differing:
        for key in differing:
            print(f"environment differs on {key}: "
                  f"{a['env'].get(key)} vs {b['env'].get(key)}",
                  file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    print(f"A = {argv[0]} ({a['env']['git_sha'][:12]})   "
          f"B = {argv[1]} ({b['env']['git_sha'][:12]})   ratio = B / A")
    header = (f"{'workload':<15}{'metric':<18}{'A median':>13}"
              f"{'B median':>13}{'B/A':>8}{'spread A':>10}{'spread B':>10}"
              f"{'bound':>7}  verdict")
    print(header)
    regressions = 0
    for entry in spec["workloads"]:
        workload = entry["name"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            by_seed_a = values_by_seed(a, workload, name)
            by_seed_b = values_by_seed(b, workload, name)
            if not by_seed_a or not by_seed_b:
                print(f"{workload:<15}{name:<18}  missing from "
                      f"{'A' if not by_seed_a else 'B'}")
                regressions += 1
                continue
            exact = (name in SIMULATED and workload in DETERMINISTIC
                     and set(by_seed_a) == set(by_seed_b))
            if exact:  # run for run, not median against median
                seeds = sorted(by_seed_a)
                values_a = [by_seed_a[s] for s in seeds]
                values_b = [by_seed_b[s] for s in seeds]
                worst = max(worsening(x, y, metric["better"])
                            for x, y in zip(values_a, values_b))
                result = "regressed" if worst > 0 else "ok"
            else:
                values_a = list(by_seed_a.values())
                values_b = list(by_seed_b.values())
                result = verdict(values_a, values_b, metric["better"],
                                 metric["bound"])
            med_a = statistics.median(values_a)
            med_b = statistics.median(values_b)
            bound = "exact" if exact else f"{metric['bound']:.2f}"
            print(f"{workload:<15}{name:<18}{med_a:>13.6g}{med_b:>13.6g}"
                  f"{med_b / med_a:>8.3f}{spread(values_a):>10.3f}"
                  f"{spread(values_b):>10.3f}{bound:>7}  {result}")
            regressions += result == "regressed"
        share_a, share_b = failed_share(a, workload), failed_share(b, workload)
        result = "regressed" if share_b > share_a else "ok"
        print(f"{workload:<15}{'failed_share':<18}{share_a:>13.6g}"
              f"{share_b:>13.6g}{'':>28}{'0':>7}  {result}")
        regressions += result == "regressed"
    if regressions:
        print(f"{regressions} regression(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
