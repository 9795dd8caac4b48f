#!/usr/bin/env python
"""CI benchmark: observability overhead on the serving hot path.

PR "end-to-end tracing" threads span instrumentation through every
layer of the pipeline (admit -> pack -> place -> transport -> dispatch
-> execute -> scatter).  That is only acceptable if the cost is near
zero when tracing is off and modest when it is on.  Two gates enforce
it, both expressed as a fraction of the packed-serve bench's measured
per-request time:

* **disabled** — the no-op fast path.  Every instrumentation site
  costs one ContextVar read (:func:`repro.obs.tracing.span` returns
  the shared inert singleton when nothing upstream is recording).
  The microbenchmark times that call directly, multiplies by a
  conservative sites-per-request count, and requires the projected
  per-request tax to stay under ``--max-off-overhead`` (default 2%).
* **enabled** — full recording.  A microbenchmark replays the exact
  span work one traced request performs end to end (root + stage
  children, the detached dispatch subtree, the ``copy_tree`` graft,
  buffered finish) and requires it under ``--max-on-overhead``
  (default 10%) of the per-request time.
* **always-on PMU + flight recorder** — these two cannot be turned
  off, so their combined per-request tax gates separately.  The
  microbenchmarks replay the exact hook work a served request incurs
  (one ``record_dispatch`` with a real ``CommandStats`` delta, two
  ``record_boundary`` timeline folds, two transposition records, one
  tenant ``attribute``, plus the flight-recorder ``record`` calls the
  serve/cluster hooks emit) and require the sum under
  ``--max-pmu-flight-overhead`` (default 5%) of the per-request time.
  A replica child additionally spills every event to its black-box
  file; that ``record`` is timed on a full and on a nearly empty ring
  and must cost the same (ratio <= 2) — the whole-ring rewrite this
  replaced cost 300x more on a full ring and the 5% gate, which times
  the unspilled case, never saw it.

Component-level numerators against an in-situ denominator, rather
than two wall-clock serve runs diffed against each other: the serve
wall bounces tens of percent run-to-run on a shared runner (thread
scheduling is bimodal), far above the 2%/10% resolution these gates
need, while a tight-loop minimum is stable to a few percent.  Both
serve walls (tracing off and on) are still measured and published in
the report for the humans reading ``bench_ci.json``.

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
import time

import numpy as np

from gate_utils import publish

from repro.core.framework import SimdramConfig
from repro.dram.commands import CommandStats
from repro.dram.geometry import DramGeometry
from repro.obs.flightrec import FlightRecorder
from repro.obs.pmu import DevicePmu
from repro.obs.tracing import Tracer, span, use_span
from repro.runtime import SimdramCluster
from repro.serve import ServeConfig, SimdramService

GATE_NAME = "obs"
GATE_OP = "mul"     # O(width^2) bit-serial: compute-heavy requests
GATE_WIDTH = 16
N_REQUESTS = 96
LANES_PER_REQUEST = 32
#: Span sites one request crosses end to end (admit, pack, dispatch,
#: place, transport, cluster, execute, scatter, plus headroom).
SITES_PER_REQUEST = 16
#: Flight-recorder events one served request emits across the hooks
#: (serve.admit, serve.dispatch, two pmu.delta, span.root, headroom).
FLIGHT_EVENTS_PER_REQUEST = 6
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


def time_traced_request() -> float:
    """Seconds of span work one fully-traced request adds: the root
    and its stage children, the shared dispatch subtree recorded under
    ``use_span``, the per-request ``copy_tree`` graft, and the
    buffered root finish — the same operations the service performs
    per request when tracing is on."""
    tracer = Tracer(enabled=True, max_traces=256)

    def loop(n: int) -> None:
        for i in range(n):
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
            root.adopt(dispatch.copy_tree())
            root.child("serve.scatter", lo=0,
                       hi=LANES_PER_REQUEST).finish()
            root.finish()

    return _best(loop, TREE_ITERS)


def time_pmu_request() -> float:
    """Seconds of device-PMU hook work one served request incurs: one
    ``record_dispatch`` (lockstep per-bank delta, kernel attribution),
    two ``record_boundary`` timeline folds, two transposition records
    (striped write + read) and one serve-layer ``attribute``.  Uses a
    private :class:`DevicePmu` so the bench does not pollute the
    process-global counters."""
    pmu = DevicePmu()
    module_id = pmu.register_module(2, LANES_PER_REQUEST)
    delta = CommandStats()
    delta.record_ap(3)
    for _ in range(24):
        delta.record_aap(2, 1)

    def loop(n: int) -> None:
        for _ in range(n):
            pmu.record_dispatch(module_id, 2, delta,
                                kernel=f"{GATE_OP}@{GATE_WIDTH}",
                                latency_ns=1800.0, energy_nj=95.0)
            pmu.record_transposition(module_id, LANES_PER_REQUEST)
            pmu.record_transposition(module_id, LANES_PER_REQUEST)
            pmu.record_boundary(module_id, 1800.0,
                                io_bits=LANES_PER_REQUEST)
            pmu.record_boundary(module_id, 120.0)
            pmu.attribute("bench", GATE_OP,
                          lanes=LANES_PER_REQUEST, energy_nj=95.0)

    return _best(loop, PMU_ITERS)


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


def run_gate(max_off_overhead: float = 0.02,
             max_on_overhead: float = 0.10,
             max_pmu_flight_overhead: float = 0.05) -> dict:
    """Measure the overheads; returns the section for bench_ci.json."""
    noop_s = time_noop_site()
    tree_s = time_traced_request()
    pmu_s = time_pmu_request()
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
    on_walls = [serve_once(Tracer(enabled=True)) for _ in range(3)]

    per_request_s = min(off_walls) / N_REQUESTS
    off_overhead = SITES_PER_REQUEST * noop_s / per_request_s
    on_overhead = tree_s / per_request_s
    pmu_flight_overhead = (
        pmu_s + FLIGHT_EVENTS_PER_REQUEST * flight_s) / per_request_s

    gate_pass = (off_overhead <= max_off_overhead
                 and on_overhead <= max_on_overhead
                 and pmu_flight_overhead <= max_pmu_flight_overhead
                 and spill_ratio <= MAX_SPILL_OCCUPANCY_RATIO)
    print(f"noop site: {noop_s * 1e9:7.1f} ns x {SITES_PER_REQUEST} "
          f"sites -> {off_overhead:.3%} of a "
          f"{per_request_s * 1e3:.2f} ms request")
    print(f"traced request work: {tree_s * 1e6:.1f} us "
          f"-> {on_overhead:.2%} of a request")
    print(f"pmu hooks {pmu_s * 1e6:.2f} us + flight events "
          f"{FLIGHT_EVENTS_PER_REQUEST} x {flight_s * 1e9:.0f} ns "
          f"-> {pmu_flight_overhead:.3%} of a request (always on)")
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
        "sites_per_request": SITES_PER_REQUEST,
        "traced_request_us": tree_s * 1e6,
        "pmu_request_us": pmu_s * 1e6,
        "flight_event_ns": flight_s * 1e9,
        "flight_events_per_request": FLIGHT_EVENTS_PER_REQUEST,
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
