#!/usr/bin/env python
"""CI benchmark: observability overhead on the serving hot path.

PR "end-to-end tracing" threads span instrumentation through every
layer of the pipeline (admit -> pack -> place -> transport -> dispatch
-> execute -> scatter).  That is only acceptable if the cost is near
zero when tracing is off and modest when it is on.  Every gate below is
a numerator over the packed-serve bench's measured per-request time,
and every numerator is *measured per-call cost x calls counted per
request in the gate's own serve runs* — no fixed hook mix:

* **disabled** — the no-op fast path.  Every instrumentation site
  costs one ContextVar read (:func:`repro.obs.tracing.span` returns
  the shared inert singleton when nothing upstream is recording).
  The microbenchmark times that call; the sites a request crosses are
  the spans per request of a traced run.  The projected per-request
  tax must stay under ``--max-off-overhead`` (default 2%).
* **enabled** — full recording: the cost of one recorded span (timed
  over request-shaped trees: root + stage children, a detached
  dispatch subtree adopted by reference, buffered finish) times the
  distinct spans per request of a traced run's finished trees (the
  dispatch subtree is shared by its riders, so it counts once per
  dispatch, not once per request).  Required under
  ``--max-on-overhead`` (default 10%).
* **always-on PMU + flight recorder** — these two cannot be turned
  off, so their combined per-request tax gates separately.  The
  device-PMU dispatch hook (``record_dispatch``) is timed on its own
  and charged as often as one untraced serve run calls it (counted by
  wrapping the global PMU's method); flight-recorder events are
  charged from that run's ``n_recorded`` delta.
  The sum must stay under
  ``--max-pmu-flight-overhead`` (default 5%).
  A replica child additionally spills every event to its black-box
  file; that ``record`` is timed on a full and on a nearly empty ring
  and must cost the same (ratio <= 2) — the whole-ring rewrite this
  replaced cost 300x more on a full ring and the 5% gate, which times
  the unspilled case, never saw it.

Published ungated beside the PMU's ``pmu_request_us``: the serve
store's per-request recording cost, ``serve_store_request_us`` —
``ServeMetrics.record_submit`` and ``record_completion`` (a seen
tenant, the steady state) each timed alone, times the calls per
request the same untraced counting run makes.

Component-level numerators against an in-situ denominator, rather
than two wall-clock serve runs diffed against each other: the serve
wall bounces tens of percent run-to-run on a shared runner (thread
scheduling is bimodal), far above the 2%/10% resolution these gates
need, while a tight-loop minimum is stable to a few percent.  Both
serve walls (tracing off and on) are still measured and published in
the report for the humans reading ``bench_ci.json``, with the counts
the numerators used.

Results publish under the ``"obs"`` gate of the shared
``bench_ci.json`` (see :mod:`gate_utils`).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py [--output bench_ci.json]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time
from typing import Callable

import numpy as np

from gate_utils import publish

from repro.core.framework import SimdramConfig
from repro.dram.bank import DramModule
from repro.dram.commands import CommandStats
from repro.dram.geometry import DramGeometry
from repro.obs.flightrec import FlightRecorder, get_flight_recorder
from repro.obs.pmu import DevicePmu, get_pmu
from repro.obs.tracing import Tracer, span, use_span
from repro.runtime import SimdramCluster
from repro.serve import ServeConfig, SimdramService
from repro.serve.metrics import ServeMetrics

GATE_NAME = "obs"
GATE_OP = "mul"     # O(width^2) bit-serial: compute-heavy requests
GATE_WIDTH = 16
N_REQUESTS = 96
LANES_PER_REQUEST = 32
#: The device-PMU methods a served request can reach.
PMU_HOOKS = ("record_dispatch",)
#: The serve store's per-request recorders.
STORE_HOOKS = ("record_submit", "record_completion")
NOOP_ITERS = 200_000
TREE_ITERS = 5_000
PMU_ITERS = 20_000
FLIGHT_ITERS = 50_000
#: A spilled ``record`` must be O(1) in ring occupancy: events kept in
#: the ring for the "nearly empty" sample, and the most a full ring's
#: event may cost relative to it.
SPILL_LOW_OCCUPANCY = 256
MAX_SPILL_OCCUPANCY_RATIO = 2.0


def module_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=256, banks=2))


def _best(fn, iters: int, reps: int = 3) -> float:
    """Seconds per iteration, fastest of ``reps`` timed loops."""
    fn(100)   # warm caches / allocator
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn(iters)
        best = min(best, time.perf_counter() - start)
    return best / iters


def time_noop_site() -> float:
    """Seconds per instrumentation site with tracing off (the
    ContextVar-read fast path; no tracer anywhere in context)."""
    def loop(n: int) -> None:
        for _ in range(n):
            span("bench.noop")
    return _best(loop, NOOP_ITERS)


def time_span() -> float:
    """Seconds per recorded span, timed over request-shaped trees: the
    root and its stage children, a dispatch subtree recorded under
    ``use_span`` and adopted by reference (as the service does), and
    the buffered root finish."""
    tracer = Tracer(enabled=True, max_traces=256)

    def tree(i: int):
        root = tracer.trace("serve.request", tenant="bench",
                            request_id=i, lanes=LANES_PER_REQUEST)
        root.child("serve.admit").finish()
        pack = root.child("serve.pack", kernel=GATE_OP, engine="v")
        dispatch = tracer.start_detached(
            "serve.dispatch", kernel=GATE_OP, engine="v",
            n_requests=1, lanes=LANES_PER_REQUEST)
        pack.finish()
        with use_span(dispatch):
            with span("cluster.dispatch", module=0):
                with span("engine.execute", op=GATE_OP,
                          width=GATE_WIDTH, engine="v"):
                    pass
        dispatch.finish()
        root.adopt(dispatch)
        root.child("serve.scatter", lo=0,
                   hi=LANES_PER_REQUEST).finish()
        root.finish()
        return root

    def loop(n: int) -> None:
        for i in range(n):
            tree(i)

    return _best(loop, TREE_ITERS) / len(list(tree(0).walk()))


def time_pmu_hooks() -> "dict[str, float]":
    """Seconds per call of each device-PMU hook, on a private
    :class:`DevicePmu` over a real module so the bench does not pollute
    the process-global counters."""
    pmu = DevicePmu()
    module = DramModule(module_config().geometry)
    module_id = pmu.register_module(module)
    delta = CommandStats(n_ap=20, n_aap=40)
    return _time_calls({
        "record_dispatch": lambda: pmu.record_dispatch(
            module_id, 2, (GATE_OP, GATE_WIDTH), delta),
    })


def time_store_hooks() -> "dict[str, float]":
    """Seconds per call of each serve-store recorder, on a private
    :class:`ServeMetrics` whose tenant is already seen."""
    metrics = ServeMetrics()
    metrics.record_submit("bench", LANES_PER_REQUEST)
    return _time_calls({
        "record_submit": lambda: metrics.record_submit(
            "bench", LANES_PER_REQUEST),
        "record_completion": lambda: metrics.record_completion(
            "bench", 1e-3, energy_nj=1.0),
    })


def _time_calls(calls: "dict[str, Callable[[], object]]"
                ) -> "dict[str, float]":
    """Seconds per call of each named zero-argument callable."""
    def timed(call):
        def loop(n: int) -> None:
            for _ in range(n):
                call()
        return _best(loop, PMU_ITERS)

    return {name: timed(call) for name, call in calls.items()}


def time_flight_event(spill_path: str | None = None,
                      occupancy: int = 4096) -> float:
    """Seconds per flight-recorder ``record`` call with up to
    ``occupancy`` events in a 4096-event ring: full (the steady state:
    every append also evicts), or kept below ``occupancy`` by clearing
    the ring every that many events.  Without a spill file it is the
    in-process configuration every serve request hits; with one, what
    every event costs a replica child."""
    recorder = FlightRecorder(capacity=4096, source="bench")
    if spill_path is not None:
        recorder.configure_spill(spill_path)

    def loop(n: int) -> None:
        for start in range(0, n, occupancy):
            if occupancy < recorder.capacity:
                recorder.clear()
            for i in range(start, min(n, start + occupancy)):
                recorder.record("bench.event", request=i,
                                tenant="bench", lanes=LANES_PER_REQUEST)

    try:
        return _best(loop, FLIGHT_ITERS)
    finally:
        recorder.remove_spill()


def serve_once(tracer: Tracer) -> float:
    """Wall seconds to serve the packed workload under ``tracer``."""
    rng = np.random.default_rng(17)
    mask = (1 << GATE_WIDTH) - 1
    operands = [(rng.integers(0, mask + 1, LANES_PER_REQUEST),
                 rng.integers(0, mask + 1, LANES_PER_REQUEST))
                for _ in range(N_REQUESTS)]
    with SimdramCluster(1, config=module_config()) as cluster:
        with SimdramService(cluster, config=ServeConfig(max_wait_s=0.05),
                            tracer=tracer) as service:
            service.warmup([(GATE_OP, GATE_WIDTH)])
            start = time.perf_counter()
            handles = [service.submit(GATE_OP, a, b, width=GATE_WIDTH)
                       for a, b in operands]
            for handle, (a, b) in zip(handles, operands):
                if not np.array_equal(handle.result(timeout=300) & mask,
                                      (a * b) & mask):
                    raise AssertionError("serve result mismatch")
            return time.perf_counter() - start


def count_always_on() -> "dict[str, float]":
    """PMU hook calls, serve-store recorder calls and flight events per
    request, counted in one untraced serve run (the global PMU's hook
    methods and :class:`ServeMetrics`' recorders wrapped)."""
    pmu, recorder = get_pmu(), get_flight_recorder()
    counts = dict.fromkeys(PMU_HOOKS + STORE_HOOKS, 0)
    lock = threading.Lock()

    def counting(name: str, method):
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    store = {name: getattr(ServeMetrics, name) for name in STORE_HOOKS}
    for name in PMU_HOOKS:
        setattr(pmu, name, counting(name, getattr(pmu, name)))
    for name, method in store.items():
        setattr(ServeMetrics, name, counting(name, method))
    recorded = recorder.n_recorded
    try:
        serve_once(Tracer(enabled=False))
    finally:
        for name in PMU_HOOKS:
            delattr(pmu, name)
        for name, method in store.items():
            setattr(ServeMetrics, name, method)
    events = recorder.n_recorded - recorded
    per_request = {name: n / N_REQUESTS for name, n in counts.items()}
    per_request["flight_events"] = events / N_REQUESTS
    return per_request


def spans_per_request(roots) -> float:
    """Distinct spans per finished request tree: a shared dispatch
    subtree is adopted by reference, so it counts once, not per rider."""
    spans = {id(node) for root in roots for node in root.walk()}
    return len(spans) / len(roots)


def run_gate(max_off_overhead: float = 0.02,
             max_on_overhead: float = 0.10,
             max_pmu_flight_overhead: float = 0.05) -> dict:
    """Measure the overheads; returns the section for bench_ci.json."""
    noop_s = time_noop_site()
    span_s = time_span()
    hook_s = time_pmu_hooks()
    store_s = time_store_hooks()
    flight_s = time_flight_event()
    # The replica children's configuration: the same event with a
    # spill file, which must cost the same whatever the ring holds.
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as spool:
        spill = os.path.join(spool, "spill.json")
        spilled_s = time_flight_event(spill)
        spilled_low_s = time_flight_event(spill, SPILL_LOW_OCCUPANCY)
    spill_ratio = spilled_s / spilled_low_s

    # Discarded warm-up: the first serve run of a process is markedly
    # faster (cold allocator arenas, caches) and would otherwise skew
    # the per-request denominator.
    serve_once(Tracer(enabled=False))
    off_walls = [serve_once(Tracer(enabled=False)) for _ in range(3)]
    tracers = [Tracer(enabled=True) for _ in range(3)]
    on_walls = [serve_once(tracer) for tracer in tracers]
    per_span_request = spans_per_request(tracers[-1].drain())
    per_request_calls = count_always_on()

    per_request_s = min(off_walls) / N_REQUESTS
    off_overhead = per_span_request * noop_s / per_request_s
    on_overhead = per_span_request * span_s / per_request_s
    pmu_s = sum(per_request_calls[name] * hook_s[name]
                for name in PMU_HOOKS)
    flight_request_s = per_request_calls["flight_events"] * flight_s
    store_request_s = sum(per_request_calls[name] * store_s[name]
                          for name in STORE_HOOKS)
    pmu_flight_overhead = (pmu_s + flight_request_s) / per_request_s

    gate_pass = (off_overhead <= max_off_overhead
                 and on_overhead <= max_on_overhead
                 and pmu_flight_overhead <= max_pmu_flight_overhead
                 and spill_ratio <= MAX_SPILL_OCCUPANCY_RATIO)
    print(f"noop site: {noop_s * 1e9:7.1f} ns x {per_span_request:.2f} "
          f"sites -> {off_overhead:.3%} of a "
          f"{per_request_s * 1e3:.2f} ms request")
    print(f"recorded span: {span_s * 1e9:.0f} ns x "
          f"{per_span_request:.2f} spans -> {on_overhead:.2%} of a "
          f"request")
    print("pmu hooks per request: " + ", ".join(
        f"{per_request_calls[name]:.2f} {name} x "
        f"{hook_s[name] * 1e9:.0f} ns" for name in PMU_HOOKS))
    print(f"pmu hooks {pmu_s * 1e6:.2f} us + flight events "
          f"{per_request_calls['flight_events']:.2f} x "
          f"{flight_s * 1e9:.0f} ns -> {pmu_flight_overhead:.3%} of a "
          f"request (always on)")
    print("serve store per request (ungated): " + ", ".join(
        f"{per_request_calls[name]:.2f} {name} x "
        f"{store_s[name] * 1e9:.0f} ns" for name in STORE_HOOKS)
        + f" -> {store_request_s * 1e6:.2f} us")
    print(f"spilled flight event: {spilled_s * 1e9:.0f} ns on a full "
          f"ring, {spilled_low_s * 1e9:.0f} ns under "
          f"{SPILL_LOW_OCCUPANCY} events -> ratio {spill_ratio:.2f}")
    print(f"serve wall (informational): "
          f"off {min(off_walls) * 1e3:.1f} ms, "
          f"on {min(on_walls) * 1e3:.1f} ms")
    return {
        "kernel": GATE_OP,
        "element_width": GATE_WIDTH,
        "requests": N_REQUESTS,
        "lanes_per_request": LANES_PER_REQUEST,
        "noop_site_ns": noop_s * 1e9,
        "span_ns": span_s * 1e9,
        "spans_per_request": per_span_request,
        "pmu_hook_ns": {name: s * 1e9 for name, s in hook_s.items()},
        "pmu_calls_per_request": {name: per_request_calls[name]
                                  for name in PMU_HOOKS},
        "pmu_request_us": pmu_s * 1e6,
        "serve_store_ns": {name: s * 1e9 for name, s in store_s.items()},
        "serve_store_calls_per_request": {
            name: per_request_calls[name] for name in STORE_HOOKS},
        "serve_store_request_us": store_request_s * 1e6,
        "flight_event_ns": flight_s * 1e9,
        "flight_events_per_request": per_request_calls["flight_events"],
        "flight_event_spilled_ns": spilled_s * 1e9,
        "flight_event_spilled_low_occupancy_ns": spilled_low_s * 1e9,
        "per_request_ms": per_request_s * 1e3,
        "wall_seconds_off": off_walls,
        "wall_seconds_on": on_walls,
        "gate": {
            "required_off_overhead": max_off_overhead,
            "measured_off_overhead": off_overhead,
            "required_on_overhead": max_on_overhead,
            "measured_on_overhead": on_overhead,
            "required_pmu_flight_overhead": max_pmu_flight_overhead,
            "measured_pmu_flight_overhead": pmu_flight_overhead,
            "required_spill_occupancy_ratio": MAX_SPILL_OCCUPANCY_RATIO,
            "measured_spill_occupancy_ratio": spill_ratio,
            "pass": gate_pass,
            "detail": (f"tracing off costs {off_overhead:.3%} per "
                       f"request (required <= {max_off_overhead:.0%}); "
                       f"tracing on costs {on_overhead:.1%} "
                       f"(required <= {max_on_overhead:.0%}); "
                       f"always-on PMU + flight recorder cost "
                       f"{pmu_flight_overhead:.3%} (required <= "
                       f"{max_pmu_flight_overhead:.0%}); a spilled "
                       f"flight event costs {spill_ratio:.2f}x as much "
                       f"on a full ring as on a nearly empty one "
                       f"(required <= "
                       f"{MAX_SPILL_OCCUPANCY_RATIO:.1f}x)"),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench_ci.json",
                        help="shared gate report to merge into")
    parser.add_argument("--max-off-overhead", type=float, default=0.02,
                        help="allowed per-request cost of disabled "
                             "tracing (fraction)")
    parser.add_argument("--max-on-overhead", type=float, default=0.10,
                        help="allowed per-request cost of enabled "
                             "tracing (fraction)")
    parser.add_argument("--max-pmu-flight-overhead", type=float,
                        default=0.05,
                        help="allowed combined per-request cost of the "
                             "always-on PMU hooks and flight recorder "
                             "(fraction)")
    args = parser.parse_args(argv)
    return publish(args.output, GATE_NAME,
                   run_gate(args.max_off_overhead, args.max_on_overhead,
                            args.max_pmu_flight_overhead))


if __name__ == "__main__":
    sys.exit(main())
