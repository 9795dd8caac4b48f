"""Fast, deterministic checks of the benchmark harness itself (the
measurements are only as good as the generator and the arithmetic)."""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())


def digest(value) -> str:
    """Content hash of a nested input structure, arrays by their bytes."""
    sha = hashlib.sha256()

    def feed(item) -> None:
        if isinstance(item, np.ndarray):
            sha.update(str(item.dtype).encode() + repr(item.shape).encode())
            sha.update(np.ascontiguousarray(item).tobytes())
        elif isinstance(item, dict):
            for key in sorted(item):
                sha.update(repr(key).encode())
                feed(item[key])
        elif isinstance(item, (list, tuple)):
            for element in item:
                feed(element)
        elif hasattr(item, "__dataclass_fields__"):  # tables, Expr nodes
            feed({name: getattr(item, name)
                  for name in item.__dataclass_fields__})
        else:
            sha.update(pickle.dumps(item))

    feed(value)
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = digest(workload.make_inputs(11))
    assert digest(workload.make_inputs(11)) == first
    assert digest(workload.make_inputs(12)) != first


def test_one_flipped_bit_is_a_failed_operation():
    golden = np.array([3, 250, 17, 0])
    flipped = golden.copy()
    flipped[2] ^= 1 << 4
    assert measure.same_bits(golden - 256, golden, 8)  # same encoding
    assert not measure.same_bits(flipped, golden, 8)
    assert not measure.same_bits(golden[:3], golden, 8)

    def check(result):
        return measure.same_bits(result, golden, 8)

    outcome = workloads.timed_ops(
        [(lambda: golden, check), (lambda: flipped, check)],
        measure.Meter(measure.QuietGate(0.0), ()), None)
    assert outcome.failed == 1
    right, wrong = outcome.latencies_s
    assert right >= 0 and math.isnan(wrong)  # a wrong answer has no latency
    assert len(outcome.done_s) == len(outcome.cpu_s) == 2


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.tail_percentile(19) == 50
    assert measure.tail_percentile(99) == 50
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(999) == 95
    assert measure.tail_percentile(1000) == 99
    assert measure.tail_percentile(10_000) == 99.9


def block(latencies_s, cpu_s=None, laps=None) -> dict:
    """What ``run.quiet_timings`` reads of a measured block."""
    return {"latencies_s": latencies_s, "op_cpu_s": cpu_s, "laps": laps}


def test_timings_are_the_best_the_run_saw():
    class Sync:
        synchronous, kinds = True, 2

    # Two kinds, two rounds a block: each kind keeps its fastest repeat
    # (NaN is a failed one), the rate is one round of those.
    blocks = [block([0.010, 0.300, 0.012, 0.200], [0.01, 0.3, 0.01, 0.2]),
              block([0.011, 0.100, math.nan, 0.400], [0.02, 0.1, 0.02, 0.4])]
    timings = run.quiet_timings(Sync, blocks)
    assert timings["ops_per_s"] == pytest.approx(2 / 0.110)
    assert timings["latency_p50_ms"] == pytest.approx(55.0)
    assert timings["latency_p90_ms"] == pytest.approx(91.0)
    assert timings["cpu_ms_per_op"] == pytest.approx(55.0)

    class Loop:
        synchronous, block_ops, slice_ops = False, 4, 2

    # A closed loop keeps, slice by slice, its best repeat: the first
    # slice of the second block, the second slice of the first.
    blocks = [block([0.03, 0.05, 0.01, 0.02],
                    laps=[(0.0, 0.0), (0.4, 0.2), (0.5, 0.25)]),
              block([0.01, 0.03, 0.04, 0.04],
                    laps=[(9.0, 5.0), (9.2, 5.1), (9.7, 5.5)])]
    timings = run.quiet_timings(Loop, blocks)
    assert timings["ops_per_s"] == pytest.approx(4 / 0.3)
    assert timings["latency_p50_ms"] == pytest.approx((20 + 15) / 2)
    assert timings["cpu_ms_per_op"] == pytest.approx(150 / 4)


def test_drift_compares_whole_rounds_between_fill_and_drain():
    steady = [0.1 * (i + 1) for i in range(16)]
    assert run.drift_ratio(steady, 1) == pytest.approx(1.0)
    assert run.drift_ratio(steady, 2) == pytest.approx(1.0)
    assert run.drift_ratio(steady, 8) == 1.0  # two rounds: no quarters
    # The third quarter takes twice as long as the second: half the rate.
    slowing = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 17, 18, 19, 20]
    assert run.drift_ratio(slowing, 1) == pytest.approx(0.5)


def test_self_time_is_duration_minus_covered_children():
    rows = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],      # overlaps b: the union counts once
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 12.0, 0, 0],     # sticks out: only 8..10 is covered
        ["a", 1.5, 2.5, 1, 0],      # grandchild
        ["open", 9.0, None, 0, 0],  # unfinished: ignored
    ]
    assert spans.span_selfs(rows) == [3.0, 2.0, 3.0, 4.0, 1.0, None]


def test_recorder_nests_spans_and_adopts_worker_spans():
    recorder = spans.Recorder(adopt_worker_spans=True)
    with recorder.operation(7):
        with recorder.span("outer"):
            worker = threading.Thread(
                target=lambda: recorder.span("worker").__enter__())
            worker.start()
            worker.join()
    names = [row[spans.NAME] for row in recorder.spans]
    assert names == ["op", "outer", "worker"]
    assert [row[spans.PARENT] for row in recorder.spans] == [-1, 0, 1]
    assert {row[spans.OP] for row in recorder.spans} == {7}


def test_quiet_gate_waits_for_a_fast_spin_within_its_budget(monkeypatch):
    spins = iter([1.0] * 20 + [1.5, 1.4, 1.1, 1.6, 1.6, 1.6])
    monkeypatch.setattr(measure.QuietGate, "_spin",
                        staticmethod(lambda: next(spins)))
    monkeypatch.setattr(measure.time, "sleep", lambda _s: None)
    gate = measure.QuietGate(budget_s=4.0)
    gate.wait()                   # 1.5 and 1.4 are noisy, 1.1 is quiet
    assert gate.waited_s == pytest.approx(1.5 + 1.4 + 2 * gate.PAUSE_S)
    gate.wait()                   # never quiet again: the budget ends it
    assert gate.left_s <= 0 and next(spins, None) == 1.6


class _Handle:
    def __init__(self, future: Future) -> None:
        self.future = future

    def add_done_callback(self, fn) -> None:
        self.future.add_done_callback(lambda _f: fn(self))

    def exception(self):
        return self.future.exception()

    def result(self):
        return self.future.result()


@pytest.mark.parametrize("driver", [measure.closed_loop,
                                    measure.closed_loop_fifo])
def test_closed_loop_never_exceeds_its_window(driver):
    window, lock = 5, threading.Lock()
    in_flight = peak = 0

    def work() -> None:
        nonlocal in_flight
        threading.Event().wait(0.002)
        with lock:
            in_flight -= 1

    with ThreadPoolExecutor(16) as pool:
        def submit(_index):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            return _Handle(pool.submit(work))

        latencies, done, handles = driver(60, window, submit)
    assert peak <= window
    assert len(latencies) == len(done) == len(handles) == 60
    assert min(latencies) > 0


def test_spec_names_the_workloads_the_benchmark_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(trace, monkeypatch, capsys):
    """One real (shrunken) workload through the same code path as the
    driver's command: the last line is the result object and it carries
    exactly the metric names of BENCHMARK.json."""

    class Tiny(workloads.ServeSolo):
        block_ops = 24
        PROBES = 8

    monkeypatch.setitem(workloads.WORKLOADS, "serve_solo", Tiny())
    args = run.parse_args(["--workload", "serve_solo", "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)])
    assert run.measure_workload(args, SPEC) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())
