"""Command-line interface: inspect and exercise the SIMDRAM framework.

Examples::

    python -m repro ops                        # list the operation catalog
    python -m repro compile add 8              # show a µProgram
    python -m repro compile mul 16 --backend ambit --full
    python -m repro explain add 8              # what the compiler did
    python -m repro compare add 32             # all platforms, one op
    python -m repro demo                       # end-to-end functional run
    python -m repro cluster --modules 4 --op add --n 4096
    python -m repro serve --requests 96        # multi-tenant serving
    python -m repro serve --backend replicas --kill-one    # failover
    python -m repro serve --trace-out trace.json           # Perfetto
    python -m repro serve --stream --steps 6   # streaming inference
    python -m repro stats                      # Prometheus exposition
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import __version__
from repro.core.compiler import compile_cached
from repro.core.framework import Simdram, SimdramConfig
from repro.core.operations import CATALOG, PAPER_OPERATIONS
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTiming
from repro.obs import clock
from repro.perf.model import measure_all_platforms
from repro.util.tables import format_table


def _cmd_ops(_args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(CATALOG):
        spec = CATALOG[name]
        marker = "paper" if name in PAPER_OPERATIONS else "extension"
        rows.append((name, spec.arity, spec.category, marker,
                     spec.description))
    print(format_table(
        ["operation", "arity", "category", "origin", "description"],
        rows, title=f"SIMDRAM operation catalog ({len(rows)} operations)"))
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    program = compile_cached(args.op, args.width, args.backend)
    timing = DramTiming.ddr4_2400()
    print(program.listing(max_ops=None if args.full else 20))
    print(f"\nlatency: {program.latency_ns(timing) / 1e3:.2f} us per batch "
          f"of {DramGeometry.paper().cols} elements per bank")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """One screen on what Steps 1 and 2 did to an operation, from the
    report the compile left on the µProgram and the µOps themselves."""
    from collections import Counter

    from repro.uprog.uops import Space, UAp

    program = compile_cached(args.op, args.width, args.backend)
    report = program.report
    print(f"{args.op} at {args.width} bits, {args.backend} backend: "
          f"{program.n_aap} AAP + {program.n_ap} AP = "
          f"{program.n_commands} commands, {program.n_temp_rows} temp rows")
    print(f"\nStep 1  {report['gates']} gates")
    stages = [(label, report[key]) for label, key in (
        ("built", "mig_built"), ("optimized", "mig_optimized"),
        ("XOR3 pass-through", "mig_passthrough")) if key in report]
    print(format_table(["MIG", "MAJ nodes", "depth", "complemented edges"],
                       [(label, *counts) for label, counts in stages]))
    print("\nStep 2  node orders (commands, temp rows):")
    for name, outcome in report["orders"].items():
        kept = "  <- kept" if name == report["order_kept"] else ""
        print(f"  {name:12s} {outcome}{kept}")
    aaps = [op for op in program.uops if not isinstance(op, UAp)]
    print(f"  sibling pairs: {report['pairs']} placed, "
          f"{report['siblings']} nodes had a sibling; "
          f"two-wordline installs: "
          f"{sum(op.dst.n_wordlines == 2 for op in aaps)}")
    print(f"  spills to temp rows: "
          f"{sum(op.dst.space is Space.TEMP for op in aaps)}, reloads: "
          f"{sum(op.src.space is Space.TEMP for op in aaps)}, "
          f"DCC round trips: {report['dcc_round_trips']}, "
          f"temp-row high-water: {program.n_temp_rows}")
    flows = Counter(
        "AP (TRA)" if isinstance(op, UAp) else
        f"{op.src.space.value}{'*' if op.src.n_wordlines == 3 else ''}"
        f" -> {op.dst.space.value}" for op in program.uops)
    print("  µOps by source -> destination space (bg* = a TRA fused "
          "with its copy-out):")
    print("   " + ", ".join(f"{flow}: {n}" for flow, n in flows.most_common()))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    measures = measure_all_platforms(args.op, args.width)
    rows = [(m.platform, round(m.throughput_gops, 3),
             round(m.energy_nj_per_element, 5)) for m in measures]
    print(format_table(
        ["platform", "GOPS", "nJ/element"], rows,
        title=f"{args.op} at {args.width}-bit across platforms"))
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    sim = Simdram(SimdramConfig(
        geometry=DramGeometry.sim_small(cols=128, data_rows=512, banks=2)))
    rng = np.random.default_rng(0)
    a_host = rng.integers(0, 100, 200)
    b_host = rng.integers(1, 100, 200)
    a = sim.array(a_host, width=8)
    b = sim.array(b_host, width=8)
    for op, golden in (("add", (a_host + b_host) % 256),
                       ("div", a_host // b_host),
                       ("max", np.maximum(a_host, b_host))):
        out = sim.run(op, a, b)
        ok = np.array_equal(out.to_numpy(), golden)
        stats = sim.last_stats
        print(f"{op:4s}: {'OK' if ok else 'MISMATCH'}  "
              f"({stats.n_aap} AAPs + {stats.n_ap} APs across "
              f"{sim.config.geometry.banks} banks)")
        out.free()
        if not ok:
            return 1
    print("demo complete: results verified against numpy")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Exercise the sharded runtime end to end: device tensors, async
    submission, paging, and the modeled multi-module speedup."""
    from repro.core.operations import get_operation
    from repro.runtime import SimdramCluster

    spec = get_operation(args.op)
    geometry = DramGeometry.sim_small(
        cols=args.cols, data_rows=args.data_rows, banks=args.banks)
    config = SimdramConfig(geometry=geometry)
    rng = np.random.default_rng(args.seed)
    vectors = [rng.integers(0, 1 << in_width, args.n).astype(np.int64)
               for in_width in spec.in_widths(args.width)]

    with SimdramCluster(args.modules, config=config) as cluster:
        tensors = [cluster.tensor(v, w) for v, w in
                   zip(vectors, spec.in_widths(args.width))]
        handle = cluster.submit(args.op, *tensors)
        result = handle.result().to_numpy()
        # Golden models produce unsigned two's-complement encodings;
        # compare in that domain so signed ops (max, relu, ...) match.
        from repro.util.bitops import to_unsigned
        out_width = spec.out_width(args.width)
        golden = np.asarray(spec.golden(vectors, args.width))
        ok = np.array_equal(to_unsigned(result, out_width), golden)

        streamed = cluster.map(args.op, *vectors, width=args.width)
        map_ok = np.array_equal(to_unsigned(streamed, out_width), golden)

        stats = cluster.total_stats()
        paging = cluster.paging_stats()
        rows = [
            ("modules", cluster.n_modules),
            ("SIMD lanes", cluster.lanes),
            ("elements", args.n),
            ("shards", len(tensors[0].shards)),
            ("AAP commands", stats.n_aap),
            ("AP commands", stats.n_ap),
            ("spills / fills", f"{paging.n_spills} / {paging.n_fills}"),
            ("modeled makespan (us)",
             round(cluster.makespan_ns() / 1e3, 2)),
            ("tensor result", "OK" if ok else "MISMATCH"),
            ("sharded map result", "OK" if map_ok else "MISMATCH"),
        ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.op} at {args.width}-bit on a "
              f"{args.modules}-module cluster"))
    return 0 if ok and map_ok else 1


def _make_tracer(args: argparse.Namespace):
    """A tracer for one CLI run: enabled iff ``--trace-out`` was given
    (a private instance, so runs never share trace buffers)."""
    from repro.obs.tracing import Tracer
    path = getattr(args, "trace_out", None)
    return Tracer(enabled=path is not None), path


def _write_trace(tracer, path: str | None) -> list[tuple[str, str]]:
    """Export the run's traces; returns table rows describing them."""
    if path is None:
        return []
    from repro.obs.export import write_chrome_trace
    n_traces = write_chrome_trace(path, tracer)
    return [("trace", f"{n_traces} request trees -> {path}")]


#: Weighted tenants of the ``serve`` load generator.
_SERVE_TENANTS = {"free": 1.0, "pro": 4.0, "batch": 2.0}


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve verified traffic through one ``SimdramService``: mixed
    requests from weighted tenants (catalog ops and a fused ``Expr``)
    lane-pack into shared dispatches, or with ``--stream`` two staggered
    waves of multi-step streams batch continuously.  The target is a
    module cluster or replica processes behind the consistent-hash
    router, where ``--kill-one`` SIGKILLs a replica mid-flight.  Every
    result is verified against numpy."""
    import time

    from repro.core import expr
    from repro.core.operations import get_operation
    from repro.serve import (
        SimdramService,
        StreamingServer,
        affine_relu_step,
        stream_golden,
    )
    from repro.util.bitops import to_unsigned

    if args.kill_one and (args.backend != "replicas" or args.replicas < 2):
        print("serve: --kill-one needs --backend replicas and at least "
              "two replicas", file=sys.stderr)
        return 2
    width = args.width
    tenants = list(_SERVE_TENANTS)
    config = SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=256, banks=2))
    if args.backend == "cluster":
        from repro.runtime import SimdramCluster
        target = SimdramCluster(args.modules, config=config)
        where = f"a {args.modules}-module cluster"
    else:
        from repro.serve.router import ReplicaRouter
        target = ReplicaRouter(args.replicas, config=config)
        where = f"{args.replicas} replica processes"
    rng = np.random.default_rng(args.seed)
    tracer, trace_path = _make_tracer(args)

    def kill_mid_flight(handles) -> None:
        deadline = clock.now() + 30
        while (clock.now() < deadline
               and target.replicas.n_inflight(0) == 0
               and not all(h.done() for h in handles)):
            time.sleep(0)  # yield, do not nap: a pack is in flight ~1 ms
        target.kill(0)
        # Wait until the death is buried: when every pack finished
        # before the kill, closing first would leave it unrecorded.
        while clock.now() < deadline and target.replicas.replicas[0].alive:
            time.sleep(0.001)

    with target, SimdramService(target, tenants=_SERVE_TENANTS,
                                tracer=tracer) as service:
        if args.stream:
            step = affine_relu_step()
            service.warmup([(step, width)])
            cases = [(rng.integers(1, 1 << (width - 1), args.lanes),
                      rng.integers(0, 4, args.lanes))
                     for _ in range(args.requests)]
            goldens = [stream_golden(step, x0, args.steps, {"w": w}, width)
                       for x0, w in cases]
            with StreamingServer(service) as server:
                def start(wave, first: int) -> list:
                    with server.hold():   # a wave's first steps pack
                        return [server.submit(
                            step, x0, n_steps=args.steps, width=width,
                            feeds={"w": w},
                            tenant=tenants[(first + i) % len(tenants)])
                            for i, (x0, w) in enumerate(wave)]

                half = (len(cases) + 1) // 2
                handles = start(cases[:half], 0)
                # The second wave arrives mid-sequence and joins the
                # first wave's remaining steps.
                limit = clock.now() + 30
                while (clock.now() < limit
                       and not all(h.steps_done >= 2 or h.done()
                                   for h in handles)):
                    time.sleep(0.0005)
                handles += start(cases[half:], half)
                if args.kill_one:
                    kill_mid_flight(handles)
                results = [h.result(300) for h in handles]
        else:
            ops = ("add", "mul", "min")
            brighten = expr.relu(expr.sub(expr.inp("px"), expr.const(40)))
            service.warmup([(op, width) for op in ops] + [(brighten, width)])
            handles, goldens = [], []
            # The burst arrives corked, as if from concurrent clients:
            # it packs the same way on every run.
            with service.hold():
                for i in range(args.requests):
                    tenant = tenants[i % len(tenants)]
                    n = int(rng.integers(1, args.lanes + 1))
                    if i % 4 == 3:
                        px = rng.integers(0, 1 << width, n)
                        goldens.append(expr.golden(brighten, {"px": px},
                                                   width))
                        handles.append(service.submit(
                            brighten, feeds={"px": px}, width=width,
                            tenant=tenant))
                    else:
                        op = ops[i % len(ops)]
                        spec = get_operation(op)
                        vecs = [rng.integers(0, 1 << w, n)
                                for w in spec.in_widths(width)]
                        goldens.append(spec.golden(vecs, width))
                        handles.append(service.submit(
                            op, *vecs, width=width, tenant=tenant))
            if args.kill_one:
                kill_mid_flight(handles)
            results = [h.result(300) for h in handles]
        # Every op here is width-preserving.
        n_ok = sum(bool(np.array_equal(to_unsigned(got, width),
                                       np.asarray(golden)))
                   for got, golden in zip(results, goldens))
        stats = service.stats()

    postmortem_path = None
    if args.postmortem:
        # Dumped after close(): cleanly-stopped replicas shipped their
        # rings home, a killed one was recovered from its spill file —
        # the merged JSON is the run's black box.
        from repro.obs.flightrec import get_flight_recorder
        postmortem_path = get_flight_recorder().dump_to(
            args.postmortem, reason="serve drill")

    packing, latency = stats["packing"], stats["latency_ms"]
    rows = [
        (("streams" if args.stream else "requests") + " verified",
         f"{n_ok} / {len(handles)}"),
        ("dispatches", packing["dispatches"]),
        ("requests / dispatch",
         round(packing["requests_per_dispatch"], 2)),
        ("lane occupancy", f"{packing['lane_occupancy']:.0%}"),
        ("flushes", ", ".join(f"{reason} {count}" for reason, count
                              in packing["flushes"].items())),
        ("latency p50 / p99 (ms)",
         f"{latency['p50']:.2f} / {latency['p99']:.2f}"),
        ("spills / fills",
         f"{stats['paging']['n_spills']} / {stats['paging']['n_fills']}"),
        ("modeled busy (us)", round(stats["modeled_busy_ns"] / 1e3, 2)),
    ]
    for tenant, counters in stats["tenants"].items():
        rows.append((f"tenant {tenant!r}",
                     f"{counters['completed']} requests, "
                     f"{counters['lanes']} lanes"))
    if "replica_tier" in stats:
        rows += [
            ("replicas alive at end",
             len(stats["replica_tier"]["alive"])),
            ("replica deaths", stats["failover"]["replica_deaths"]),
            ("requeued requests",
             stats["failover"]["requeued_requests"]),
            ("router rebalances",
             stats["replica_tier"]["router"]["rebalanced"]),
        ]
        for rid, counters in sorted(stats["replicas"].items()):
            rows.append((f"replica {rid}",
                         f"{counters['dispatches']} dispatches, "
                         f"{counters['requests']} requests"))
    rows.extend(_write_trace(tracer, trace_path))
    if postmortem_path:
        rows.append(("flight-recorder postmortem", postmortem_path))
    title = (f"{len(handles)} staggered streams x {args.steps} steps of "
             f"relu((x + w) - 1)" if args.stream
             else f"{len(handles)} requests from {len(tenants)} tenants")
    print(format_table(
        ["metric", "value"], rows,
        title=f"{title} on {where}"
              + (" (one killed mid-flight)" if args.kill_one else "")))
    return 0 if n_ok == len(handles) else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a small deterministic serve workload and print the unified
    metrics: Prometheus text exposition by default, the structured
    snapshot with ``--json``, and optionally a Chrome trace.

    The workload carries per-request deadlines (every third request is
    generous, one is already lapsed) so the SLO series — goodput, shed
    counts, on-time splits — and the modeled energy histogram all show
    real values.  With ``--requests 0`` no traffic runs at all and the
    scrape demonstrates the schema-stable zero-valued series.

    ``--watch N`` re-scrapes and re-prints every N seconds (bound the
    run with ``--frames``), reusing the ``repro top`` refresh loop."""
    import json

    from repro.errors import DeadlineExceeded
    from repro.obs.dashboard import refresh_loop
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime import SimdramCluster
    from repro.serve import ServeConfig, SimdramService

    geometry = DramGeometry.sim_small(
        cols=args.cols, data_rows=256, banks=2)
    config = SimdramConfig(geometry=geometry)
    rng = np.random.default_rng(args.seed)
    tracer, trace_path = _make_tracer(args)
    registry = MetricsRegistry()   # private: one run, one namespace
    with SimdramCluster(2, config=config) as cluster, \
            SimdramService(cluster,
                           ServeConfig(max_wait_s=0.002),
                           tenants={"alpha": 2.0, "beta": 1.0},
                           tracer=tracer, registry=registry) as service:
        handles = []
        for i in range(args.requests):
            op = ("add", "sub", "min")[i % 3]
            tenant = ("alpha", "beta")[i % 2]
            n = int(rng.integers(1, 9))
            a = rng.integers(0, 1 << args.width, n)
            b = rng.integers(0, 1 << args.width, n)
            # A lapsed deadline on the first request exercises the
            # shed path; generous ones populate the on-time series.
            deadline_s = (0.0 if i == 0
                          else 30.0 if i % 3 == 0 else None)
            handles.append(service.submit(op, a, b, width=args.width,
                                          tenant=tenant,
                                          deadline_s=deadline_s))
        for handle in handles:
            try:
                handle.result(120)
            except DeadlineExceeded:
                pass   # the intentionally lapsed request
        def scrape(_frame: int) -> str:
            if args.json:
                return json.dumps(registry.snapshot(), indent=2,
                                  sort_keys=True, default=float)
            return service.prometheus()

        if args.watch is not None:
            refresh_loop(scrape, interval_s=args.watch,
                         frames=args.frames, screen="plain")
        else:
            print(scrape(0), end="" if not args.json else "\n")
    for label, detail in _write_trace(tracer, trace_path):
        print(f"# {label}: {detail}", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live observability dashboard over a synthetic serve workload.

    Each frame submits a small batch, waits for it, evaluates the SLO
    burn-rate rules and renders one ``repro top`` screen (curses on a
    terminal, plain text otherwise).  ``--scenario collapse`` walks
    warm → goodput collapse (every deadline already lapsed, so all
    requests shed) → recovery, which fires and then resolves the
    ``goodput_floor`` alert on screen.  Alert windows advance one tick
    per frame, so the scenario is deterministic at any ``--interval``.
    """
    from repro.errors import DeadlineExceeded
    from repro.obs.alerts import AlertManager, default_rules
    from repro.obs.dashboard import collect_view, refresh_loop, render_top
    from repro.obs.flightrec import get_flight_recorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.pmu import get_pmu
    from repro.runtime import SimdramCluster
    from repro.serve import ServeConfig, SimdramService

    geometry = DramGeometry.sim_small(
        cols=args.cols, data_rows=256, banks=2)
    config = SimdramConfig(geometry=geometry)
    rng = np.random.default_rng(args.seed)
    registry = MetricsRegistry()
    # Burn windows are sized in frame ticks (evaluate(now=frame)), not
    # wall seconds: 1.5 ticks short / 3.5 ticks long means "two points"
    # and "four points" regardless of how long a frame really takes.
    manager = AlertManager(registry, default_rules(
        goodput_floor_rps=args.goodput_floor,
        p99_ceiling_ms=1000.0,
        shed_rate_max=0.5,
        occupancy_floor=1e-9,
        short_s=1.5, long_s=3.5))

    third = max(3, (args.frames or 12) // 3)

    def phase_of(frame: int) -> str:
        if args.scenario != "collapse":
            return "steady"
        if frame < third:
            return "warm"
        if frame < 2 * third:
            return "collapse"
        return "recover"

    ops = ("add", "sub", "min")
    with SimdramCluster(2, config=config) as cluster, \
            SimdramService(cluster,
                           ServeConfig(max_wait_s=0.002),
                           tenants={"alpha": 2.0, "beta": 1.0},
                           registry=registry) as service:

        def frame(index: int) -> str:
            phase = phase_of(index)
            handles = []
            for j in range(args.batch):
                n = int(rng.integers(2, 9))
                a = rng.integers(0, 1 << args.width, n)
                b = rng.integers(0, 1 << args.width, n)
                deadline_s = 0.0 if phase == "collapse" else 30.0
                handles.append(service.submit(
                    ops[j % len(ops)], a, b, width=args.width,
                    tenant=("alpha", "beta")[j % 2],
                    deadline_s=deadline_s))
            for handle in handles:
                try:
                    handle.result(120)
                except DeadlineExceeded:
                    pass   # the collapse phase sheds everything
            manager.evaluate(now=float(index))
            return render_top(collect_view(
                service.stats(), alerts=manager, pmu=get_pmu(),
                recorder=get_flight_recorder(),
                title=f"repro top · {args.scenario}:{phase}"))

        refresh_loop(frame, interval_s=args.interval,
                     frames=args.frames,
                     screen="plain" if args.plain else "auto")

    if manager.events:
        print("alert transitions:")
        for event in manager.events:
            print(f"  {event}")
    if args.scenario == "collapse" and args.frames:
        fired = any(e.rule == "goodput_floor" and e.state == "firing"
                    for e in manager.events)
        resolved = any(e.rule == "goodput_floor"
                       and e.state == "resolved"
                       for e in manager.events)
        return 0 if fired and resolved else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIMDRAM (ASPLOS 2021) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ops", help="list the operation catalog")

    compile_parser = sub.add_parser(
        "compile", help="compile one operation and print its µProgram")
    compile_parser.add_argument("op", choices=sorted(CATALOG))
    compile_parser.add_argument("width", type=int)
    compile_parser.add_argument("--backend", default="simdram",
                                choices=("simdram", "ambit"))
    compile_parser.add_argument("--full", action="store_true",
                                help="print every µOp")

    explain_parser = sub.add_parser(
        "explain", help="show what Steps 1 and 2 did to one operation")
    explain_parser.add_argument("op", choices=sorted(CATALOG))
    explain_parser.add_argument("width", type=int)
    explain_parser.add_argument("--backend", default="simdram",
                                choices=("simdram", "ambit"))

    compare_parser = sub.add_parser(
        "compare", help="model one operation on all platforms")
    compare_parser.add_argument("op", choices=sorted(CATALOG))
    compare_parser.add_argument("width", type=int)

    sub.add_parser("demo", help="run a functional end-to-end demo")

    cluster_parser = sub.add_parser(
        "cluster",
        help="run an operation on the sharded multi-module runtime")
    cluster_parser.add_argument("--modules", type=int, default=4,
                                help="number of SIMDRAM modules")
    cluster_parser.add_argument("--op", default="add",
                                choices=sorted(CATALOG))
    cluster_parser.add_argument("--width", type=int, default=8)
    cluster_parser.add_argument("--n", type=int, default=4096,
                                help="elements in the input vectors")
    cluster_parser.add_argument("--cols", type=int, default=128,
                                help="SIMD lanes per bank")
    cluster_parser.add_argument("--data-rows", type=int, default=256,
                                help="D-group rows per module (small "
                                     "values exercise the paging layer)")
    cluster_parser.add_argument("--banks", type=int, default=2)
    cluster_parser.add_argument("--seed", type=int, default=0)

    serve_parser = sub.add_parser(
        "serve",
        help="serve verified multi-tenant traffic (or multi-step "
             "streams) over a cluster or replica processes")
    serve_parser.add_argument("--backend", default="cluster",
                              choices=("cluster", "replicas"),
                              help="a module cluster in this process, or "
                                   "replica processes behind the "
                                   "consistent-hash router")
    serve_parser.add_argument("--stream", action="store_true",
                              help="serve multi-step streams with "
                                   "continuous batching instead of "
                                   "one-shot requests")
    serve_parser.add_argument("--requests", type=int, default=32,
                              help="requests (with --stream: streams, "
                                   "in two staggered waves) to generate")
    serve_parser.add_argument("--lanes", type=int, default=8,
                              help="elements per request (at most) or "
                                   "per stream (exactly)")
    serve_parser.add_argument("--steps", type=int, default=6,
                              help="with --stream: dependent steps per "
                                   "stream")
    serve_parser.add_argument("--width", type=int, default=8)
    serve_parser.add_argument("--modules", type=int, default=2,
                              help="cluster modules (--backend cluster)")
    serve_parser.add_argument("--replicas", type=int, default=2,
                              help="replica processes "
                                   "(--backend replicas)")
    serve_parser.add_argument("--kill-one", action="store_true",
                              help="SIGKILL one replica mid-flight to "
                                   "demonstrate failover")
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--trace-out", metavar="PATH",
                              help="write a Chrome/Perfetto trace of "
                                   "every request to PATH (tracks per "
                                   "replica process)")
    serve_parser.add_argument("--postmortem", metavar="PATH",
                              help="write the merged flight-recorder dump "
                                   "(all replica black boxes) to PATH "
                                   "after the run")

    stats_parser = sub.add_parser(
        "stats",
        help="run a small serve workload and print unified metrics")
    stats_parser.add_argument("--requests", type=int, default=24)
    stats_parser.add_argument("--width", type=int, default=8)
    stats_parser.add_argument("--cols", type=int, default=32)
    stats_parser.add_argument("--seed", type=int, default=0)
    stats_parser.add_argument("--json", action="store_true",
                              help="print the JSON snapshot instead of "
                                   "Prometheus text")
    stats_parser.add_argument("--trace-out", metavar="PATH",
                              help="also write a Chrome/Perfetto trace")
    stats_parser.add_argument("--watch", type=float, metavar="N",
                              help="re-scrape and re-print every N "
                                   "seconds instead of printing once")
    stats_parser.add_argument("--frames", type=int,
                              help="with --watch: stop after this many "
                                   "scrapes (default: until ^C)")

    top_parser = sub.add_parser(
        "top",
        help="live dashboard: serving stats, PMU bars, burn-rate "
             "alerts and the flight-recorder tail")
    top_parser.add_argument("--scenario", default="steady",
                            choices=("steady", "collapse"),
                            help="collapse walks warm -> all-deadlines-"
                                 "lapsed -> recovery to fire and "
                                 "resolve the goodput_floor alert")
    top_parser.add_argument("--frames", type=int,
                            help="frames to render (default: until ^C "
                                 "or q; collapse phases are thirds of "
                                 "this)")
    top_parser.add_argument("--interval", type=float, default=0.5,
                            help="seconds between frames")
    top_parser.add_argument("--batch", type=int, default=6,
                            help="requests submitted per frame")
    top_parser.add_argument("--goodput-floor", type=float, default=1.0,
                            help="goodput_floor alert threshold "
                                 "(on-time completions per tick)")
    top_parser.add_argument("--width", type=int, default=8)
    top_parser.add_argument("--cols", type=int, default=32)
    top_parser.add_argument("--seed", type=int, default=0)
    top_parser.add_argument("--plain", action="store_true",
                            help="never use curses; append plain-text "
                                 "frames (good for piping)")
    return parser


_HANDLERS = {
    "ops": _cmd_ops,
    "compile": _cmd_compile,
    "explain": _cmd_explain,
    "compare": _cmd_compare,
    "demo": _cmd_demo,
    "cluster": _cmd_cluster,
    "serve": _cmd_serve,
    "stats": _cmd_stats,
    "top": _cmd_top,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
