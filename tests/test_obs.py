"""Tests for the observability subsystem (PR "end-to-end tracing").

Three tiers:

* pure units — clock shim, span trees, noop fast path, tracer
  sampling, the metrics registry, and the Chrome/Prometheus
  exporters, all with a fake clock and no simulator;
* in-process integration — a traced :class:`SimdramService` over a
  :class:`SimdramCluster`, asserting every completed request yields
  one rooted tree crossing the documented pipeline stages;
* multi-process integration — a traced service over a
  :class:`ReplicaRouter`, asserting (a) spans recorded *inside* a
  replica child process land in the parent's trees, and (b) the
  kill-one failover drill leaves a ``retry`` span whose failed
  ``replica.transport`` child names the dead replica.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.obs import clock
from repro.obs.export import (chrome_trace_dict, chrome_trace_events,
                              write_chrome_trace)
from repro.obs.metrics import (DEFAULT_BUCKETS, MetricsRegistry, Sample,
                               get_registry)
from repro.obs.tracing import (MAX_CHILDREN, NOOP_SPAN, Span, Tracer,
                               current_span, get_tracer, span, use_span)
from repro.runtime import SimdramCluster
from repro.runtime.replica import ReplicaHandle
from repro.serve import ServeConfig, SimdramService
from repro.serve.router import ReplicaRouter


def small_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=512, banks=2))


class TestClock:
    def test_now_is_monotonic_nondecreasing(self):
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_fake_source_and_restore(self, fake_clock):
        t0 = clock.now()
        fake_clock(2.5)
        assert clock.now() == pytest.approx(t0 + 2.5)

    def test_wall_is_epoch_seconds(self):
        assert abs(clock.wall() - time.time()) < 5.0

    def test_library_reads_time_only_through_the_clock(self):
        """The ruff TID251 ban, enforced where ruff is not installed:
        no raw ``time.time(``/``time.monotonic(``/``time.perf_counter(``
        call under ``src/repro`` outside ``obs/clock.py``'s noqa'd
        source lines (backticked mentions in prose are fine)."""
        pattern = re.compile(
            r"(?<!`)time\.(time|monotonic|perf_counter)\(")
        root = Path(clock.__file__).resolve().parents[1]
        offenders = [
            f"{path.relative_to(root)}:{number}: {line.strip()}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(
                path.read_text().splitlines(), start=1)
            if pattern.search(line)
            and not (path.name == "clock.py"
                     and "noqa: TID251" in line)]
        assert offenders == []


class TestSpan:
    def test_context_manager_records_duration(self, fake_clock):
        with Span("root") as root:
            fake_clock(0.25)
        assert root.finished
        assert root.duration == pytest.approx(0.25)
        assert root.status == "ok"

    def test_explicit_start_finish_idempotent(self, fake_clock):
        s = Span("root")
        fake_clock(1.0)
        s.finish()
        t1 = s.t1
        fake_clock(1.0)
        s.finish()   # second finish is a no-op
        assert s.t1 == t1

    def test_children_link_both_ways(self):
        root = Span("root")
        child = root.child("stage", k=1)
        assert child.parent is root
        assert child in root.children
        assert child.attrs["k"] == 1

    def test_fail_sets_status_without_closing(self):
        s = Span("root")
        s.fail(ValueError("boom"))
        assert s.status == "error"
        assert not s.finished
        s.finish()
        assert s.finished
        assert "boom" in s.error

    def test_finish_with_error(self):
        s = Span("root").finish("died")
        assert s.status == "error" and s.error == "died"

    def test_exception_inside_with_marks_error(self):
        with pytest.raises(RuntimeError):
            with Span("root") as s:
                raise RuntimeError("bad")
        assert s.status == "error"

    def test_set_updates_attrs(self):
        s = Span("root").set(replica=3)
        assert s.attrs["replica"] == 3

    def test_adopt_reparents(self):
        a, b = Span("a"), Span("b")
        orphan = b.child("stage")
        b.children.remove(orphan)
        a.adopt(orphan)
        assert orphan.parent is a and orphan in a.children

    def test_dict_round_trip_preserves_tree(self, fake_clock):
        with Span("root", {"tenant": "t"}) as root:
            with root.child("stage", op="add") as stage:
                fake_clock(0.5)
                stage.child("leaf").finish("oops")
        clone = Span.from_dict(root.to_dict())
        assert clone.stage_names() == root.stage_names()
        assert clone.find("stage").attrs["op"] == "add"
        leaf = clone.find("leaf")
        assert leaf.status == "error" and leaf.error == "oops"
        assert leaf.parent.name == "stage"
        assert clone.find("stage").duration == pytest.approx(0.5)

    def test_copy_tree_is_independent(self):
        root = Span("root")
        root.child("stage").finish()
        root.finish()
        clone = root.copy_tree()
        clone.children[0].name = "mutated"
        assert root.children[0].name == "stage"

    def test_walk_and_find_all(self):
        root = Span("root")
        root.child("x").finish()
        root.child("x").finish()
        root.child("y").finish()
        assert len(list(root.walk())) == 4
        assert len(root.find_all("x")) == 2
        assert root.find("missing") is None

    def test_child_cap_counts_drops(self):
        root = Span("root")
        for _ in range(MAX_CHILDREN + 5):
            root.child("c")
        assert len(root.children) == MAX_CHILDREN
        assert root.n_dropped == 5


class TestNoopFastPath:
    def test_span_helper_returns_singleton_when_untraced(self):
        assert span("anything", k=1) is NOOP_SPAN

    def test_noop_absorbs_the_full_api(self):
        s = NOOP_SPAN
        assert not s.recording
        assert s.child("x") is s
        assert s.set(a=1) is s
        assert s.fail("e") is s
        assert s.finish() is s
        assert s.duration == 0.0
        with s as inner:
            assert inner is s

    def test_noop_adopt_returns_argument(self):
        real = Span("real")
        assert NOOP_SPAN.adopt(real) is real

    def test_use_span_restores_previous(self):
        outer = Span("outer")
        with use_span(outer):
            assert current_span() is outer
            with use_span(NOOP_SPAN):
                assert current_span() is NOOP_SPAN
            assert current_span() is outer
        assert current_span() is NOOP_SPAN

    def test_ambient_child_via_helper(self):
        root = Span("root")
        with use_span(root):
            child = span("stage")
        assert child.parent is root


class TestTracer:
    def test_disabled_returns_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.trace("r") is NOOP_SPAN
        assert tracer.start_detached("d") is NOOP_SPAN
        assert tracer.finished_traces() == []

    def test_finished_roots_buffered(self):
        tracer = Tracer(enabled=True)
        tracer.trace("r", i=0).finish()
        tracer.trace("r", i=1).finish()
        roots = tracer.drain()
        assert [r.attrs["i"] for r in roots] == [0, 1]
        assert tracer.finished_traces() == []

    def test_buffer_bounded_by_max_traces(self):
        tracer = Tracer(enabled=True, max_traces=3)
        for i in range(10):
            tracer.trace("r", i=i).finish()
        assert [r.attrs["i"] for r in tracer.finished_traces()] \
            == [7, 8, 9]

    def test_sampling_is_exactly_periodic(self):
        tracer = Tracer(enabled=True, sample_rate=0.25)
        kept = [tracer.trace("r") is not NOOP_SPAN for _ in range(12)]
        assert kept.count(True) == 3
        assert kept[3] and kept[7] and kept[11]
        assert tracer.n_unsampled == 9

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_start_detached_not_buffered(self):
        tracer = Tracer(enabled=True)
        tracer.start_detached("dispatch").finish()
        assert tracer.finished_traces() == []

    def test_process_global_tracer_default_off(self):
        assert get_tracer().enabled is False


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_reqs_total", "requests")
        c.inc()
        c.inc(4)
        reg.gauge("repro_depth", "queue depth").set(7)
        by_name = {s.name: s for s in reg.collect()}
        assert by_name["repro_reqs_total"].value == 5
        assert by_name["repro_depth"].value == 7

    def test_labeled_series_within_one_family(self):
        reg = MetricsRegistry()
        c = reg.counter("c", "h")
        assert reg.counter("c") is c   # get-or-create by name
        c.inc(2, op="add")
        c.inc(1, op="sub")
        assert c.value(op="add") == 2
        values = {s.labels: s.value for s in c.samples()}
        assert values[(("op", "add"),)] == 2
        assert values[(("op", "sub"),)] == 1

    def test_name_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m", "h")
        with pytest.raises(ValueError):
            reg.gauge("m", "h")

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", "latency",
                          buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.05, 5.0):
            h.observe(v)
        rows = {(s.name, dict(s.labels).get("le")): s.value
                for s in h.samples()}
        assert rows[("repro_lat_seconds_bucket", "0.001")] == 1
        assert rows[("repro_lat_seconds_bucket", "0.01")] == 2
        assert rows[("repro_lat_seconds_bucket", "0.1")] == 3
        assert rows[("repro_lat_seconds_bucket", "+Inf")] == 4
        assert rows[("repro_lat_seconds_count", None)] == 4
        assert rows[("repro_lat_seconds_sum", None)] \
            == pytest.approx(5.0555)

    def test_default_buckets_are_exponential(self):
        ratios = [b / a for a, b in zip(DEFAULT_BUCKETS,
                                        DEFAULT_BUCKETS[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_collector_scraped_at_collect_time(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        reg.register_collector(
            lambda: [Sample("repro_live", state["v"], (), "gauge", "x")],
            name="live")
        assert [s.value for s in reg.collect()
                if s.name == "repro_live"] == [1]
        state["v"] = 2
        assert [s.value for s in reg.collect()
                if s.name == "repro_live"] == [2]

    def test_collector_replaced_by_name_and_unregistered(self):
        reg = MetricsRegistry()
        reg.register_collector(
            lambda: [Sample("a", 1, (), "gauge", "")], name="x")
        reg.register_collector(
            lambda: [Sample("b", 2, (), "gauge", "")], name="x")
        names = {s.name for s in reg.collect()}
        assert "b" in names and "a" not in names
        reg.unregister_collector("x")
        assert {s.name for s in reg.collect()} == set()

    def test_broken_collector_reported_not_raised(self):
        reg = MetricsRegistry()

        def boom():
            raise RuntimeError("scrape failed")

        reg.register_collector(boom, name="broken")
        samples = reg.collect()
        errors = [s for s in samples
                  if s.name == "repro_collector_errors_total"]
        assert errors and errors[0].value >= 1

    def test_prometheus_text_layout(self):
        reg = MetricsRegistry()
        reg.counter("repro_reqs_total", "served requests") \
            .inc(3, tenant="alpha")
        reg.histogram("repro_lat_seconds", "latency",
                      buckets=(0.5,)).observe(0.1)
        text = reg.prometheus_text()
        assert "# HELP repro_reqs_total served requests" in text
        assert "# TYPE repro_reqs_total counter" in text
        assert 'repro_reqs_total{tenant="alpha"} 3' in text
        assert "# TYPE repro_lat_seconds histogram" in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert text.endswith("\n")

    def test_snapshot_is_json_ready(self):
        reg = MetricsRegistry()
        reg.gauge("g", "h").set(1.5)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap, default=float))

    def test_untouched_instruments_scrape_zero_valued(self):
        """Schema stability: registered instruments that saw no
        traffic still expose zero-valued series, so a scrape before
        first traffic carries the same metric families as one after
        (dashboards never see families pop into existence)."""
        reg = MetricsRegistry()
        reg.counter("repro_c_total", "c")
        reg.gauge("repro_g", "g")
        reg.histogram("repro_h_seconds", "h", buckets=(0.1,))
        text = reg.prometheus_text()
        assert "repro_c_total 0" in text
        assert "repro_g 0" in text
        assert 'repro_h_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_h_seconds_bucket{le="+Inf"} 0' in text
        assert "repro_h_seconds_count 0" in text
        assert "repro_h_seconds_sum 0" in text
        # First real traffic replaces the zero rows in place.
        reg.counter("repro_c_total").inc(2)
        reg.histogram("repro_h_seconds").observe(0.05)
        text = reg.prometheus_text()
        assert "repro_c_total 2" in text
        assert 'repro_h_seconds_bucket{le="0.1"} 1' in text

    def test_process_global_registry_is_singleton(self):
        assert get_registry() is get_registry()


class TestChromeExport:
    def _tree(self, fake_clock):
        """A request tree with one subtree "shipped" from a replica
        child process: serialized, stamped with the child's pid, and
        re-adopted — exactly what the result-pipe path does."""
        with Span("serve.request", {"tenant": "t"}) as root:
            with root.child("serve.pack"):
                fake_clock(0.010)
            remote = Span("replica.execute", {"proc": "replica-1",
                                              "replica": 1})
            fake_clock(0.005)
            shipped = remote.finish().to_dict()
            shipped["pid"] = os.getpid() + 1   # a different process
            root.adopt(Span.from_dict(shipped))
        return root

    def test_events_are_complete_with_microseconds(self, fake_clock):
        root = self._tree(fake_clock)
        events = chrome_trace_events([root])
        x = {e["name"]: e for e in events if e["ph"] == "X"}
        assert x["serve.request"]["dur"] == pytest.approx(15000)
        assert x["serve.pack"]["dur"] == pytest.approx(10000)
        assert x["serve.pack"]["ts"] >= x["serve.request"]["ts"]
        assert x["serve.request"]["args"]["tenant"] == "t"

    def test_one_track_per_replica_process(self, fake_clock):
        events = chrome_trace_events([self._tree(fake_clock)])
        labels = {e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "process_name"}
        assert labels == {"serve", "replica-1"}
        pids = {e["name"]: e["pid"] for e in events if e["ph"] == "X"}
        assert pids["replica.execute"] != pids["serve.pack"]

    def test_write_chrome_trace_counts_trees(self, fake_clock, tmp_path):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.trace("serve.request") as root:
                root.child("serve.pack").finish()
        path = tmp_path / "trace.json"
        assert write_chrome_trace(path, tracer) == 3
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert len([e for e in doc["traceEvents"]
                    if e["ph"] == "X"]) == 6

    def test_dict_accepts_span_list(self, fake_clock):
        doc = chrome_trace_dict([self._tree(fake_clock)])
        assert {e["ph"] for e in doc["traceEvents"]} == {"X", "M"}


class TestReplicaRtt:
    def test_rtt_ema_from_ping_pong(self, fake_clock):
        handle = ReplicaHandle(0, process=None, conn=None)
        handle.note_ping(1)
        fake_clock(0.010)
        handle.note_pong(1)
        assert handle.rtt_last_s == pytest.approx(0.010)
        assert handle.rtt_avg_s == pytest.approx(0.010)
        handle.note_ping(2)
        fake_clock(0.030)
        handle.note_pong(2)
        assert handle.rtt_last_s == pytest.approx(0.030)
        assert handle.rtt_avg_s == pytest.approx(0.75 * 0.010
                                                 + 0.25 * 0.030)

    def test_unmatched_pong_ignored(self):
        handle = ReplicaHandle(0, process=None, conn=None)
        handle.note_pong(99)
        assert handle.rtt_last_s is None

    def test_outstanding_pings_bounded(self):
        handle = ReplicaHandle(0, process=None, conn=None)
        for token in range(200):
            handle.note_ping(token)
        assert len(handle._ping_sent_at) <= 64


#: The stages the tentpole requires in every completed request's tree.
PIPELINE_STAGES = ("serve.request", "serve.admit", "serve.pack",
                   "cluster.dispatch", "engine.execute", "serve.scatter")


class TestServiceTracing:
    def test_every_request_yields_one_rooted_tree(self):
        tracer = Tracer(enabled=True)
        with SimdramCluster(1, config=small_config()) as cluster, \
                SimdramService(cluster, ServeConfig(max_wait_s=0.005),
                               tracer=tracer) as service:
            handles = [service.submit("add", [i, i + 1], [1, 2], width=8)
                       for i in range(6)]
            for i, handle in enumerate(handles):
                assert np.array_equal(handle.result(120),
                                      [i + 1, i + 3])
        traces = tracer.drain()
        assert len(traces) == 6
        for root in traces:
            names = set(root.stage_names())
            missing = [s for s in PIPELINE_STAGES if s not in names]
            assert not missing, f"tree lacks stages {missing}: {names}"
            assert all(s.finished for s in root.walk())
            assert root.find("serve.scatter").t1 <= root.t1

    def test_failed_request_traced_as_error(self):
        tracer = Tracer(enabled=True)
        with SimdramCluster(1, config=small_config()) as cluster, \
                SimdramService(cluster, ServeConfig(max_wait_s=0.001),
                               tracer=tracer) as service:
            bad = service.submit("add", [1, 2], [3], width=8)
            assert bad.exception(120) is not None
        roots = tracer.drain()
        assert roots and roots[0].status == "error"

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with SimdramCluster(1, config=small_config()) as cluster, \
                SimdramService(cluster, ServeConfig(max_wait_s=0.001),
                               tracer=tracer) as service:
            assert np.array_equal(
                service.submit("add", [1], [2], width=8).result(120),
                [3])
        assert tracer.finished_traces() == []

    def test_stats_expose_unified_prometheus_text(self):
        registry = MetricsRegistry()
        with SimdramCluster(1, config=small_config()) as cluster, \
                SimdramService(cluster, ServeConfig(max_wait_s=0.001),
                               registry=registry) as service:
            service.submit("add", [1], [2], width=8).result(120)
            text = service.prometheus()
        assert "repro_serve_requests_total" in text
        assert "# TYPE" in text


class TestCrossProcessTracing:
    """One ReplicaRouter session covering both multi-process
    acceptance criteria; process spawns dominate the runtime, so the
    healthy-path check and the kill drill share it."""

    def test_replica_spans_and_retry_drill(self):
        tracer = Tracer(enabled=True)
        rng = np.random.default_rng(7)
        parent_pid = os.getpid()
        with ReplicaRouter(2, config=small_config(),
                           manifest=[("add", 8)]) as router, \
                SimdramService(router, ServeConfig(max_wait_s=0.001),
                               tracer=tracer) as service:
            # -- healthy path: child-process spans ship home --------
            cases = [(rng.integers(0, 128, 64), rng.integers(0, 128, 64))
                     for _ in range(6)]
            handles = [service.submit("add", a, b, width=8)
                       for a, b in cases]
            for (a, b), handle in zip(cases, handles):
                assert np.array_equal(handle.result(120), (a + b) % 256)
            healthy = tracer.drain()
            assert len(healthy) == 6
            for root in healthy:
                transport = root.find("replica.transport")
                assert transport is not None
                execute = root.find("replica.execute")
                assert execute is not None
                assert execute.pid != parent_pid, \
                    "span was not recorded inside the replica process"
                assert execute.parent is transport \
                    or execute.parent.parent is transport
                assert root.find("router.place") is not None

            # -- kill drill: re-homed requests carry a retry span ----
            drill = [(rng.integers(0, 128, 512),
                      rng.integers(0, 128, 512)) for _ in range(20)]
            drill_handles = [service.submit("add", a, b, width=8)
                             for a, b in drill]
            victim = 0
            deadline = time.monotonic() + 30
            while (time.monotonic() < deadline
                   and router.replicas.n_inflight(victim) == 0
                   and not all(h.done() for h in drill_handles)):
                time.sleep(0.001)
            router.kill(victim)
            for (a, b), handle in zip(drill, drill_handles):
                assert np.array_equal(handle.result(120), (a + b) % 256)

            # the router's own Prometheus rendering covers the tier
            text = router.prometheus()
            assert "repro_replica_alive" in text
            assert "repro_router_requeued_total" in text

            retried = [root for root in tracer.drain()
                       if root.find("retry") is not None]
            if router.n_requeued == 0:
                pytest.skip("victim drained before the kill landed")
            assert retried, "re-homed requests produced no retry span"
            for root in retried:
                retry = root.find("retry")
                assert retry.attrs["from_replica"] == victim
                assert victim in retry.attrs["attempts"]
                failed = [c for c in retry.children
                          if c.name == "replica.transport"
                          and c.status == "error"]
                assert failed, \
                    "retry span lacks the dead attempt as failed child"
                assert failed[0].attrs["replica"] == victim
                assert root.status == "ok"


class TestCliObservability:
    def test_stats_prints_prometheus_text(self, capsys):
        from repro.cli import main
        assert main(["stats", "--requests", "6"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serve_requests_total counter" in out
        assert "repro_serve_request_latency_seconds_bucket" in out

    def test_stats_json_snapshot(self, capsys):
        from repro.cli import main
        assert main(["stats", "--requests", "6", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert any(k.startswith("repro_") for k in snap)

    def test_stats_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        from repro.cli import main
        path = tmp_path / "stats_trace.json"
        assert main(["stats", "--requests", "6",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["otherData"]["n_traces"] == 6

    def test_serve_demo_trace_out(self, capsys, tmp_path):
        from repro.cli import main
        path = tmp_path / "trace.json"
        assert main(["serve-demo", "--requests", "8",
                     "--trace-out", str(path)]) == 0
        assert "request trees" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert "serve.request" in names and "engine.execute" in names


class TestLabelEscaping:
    """Prometheus exposition: label values with backslashes, quotes
    and newlines must round-trip per the text-format escaping rules
    (backslash first, then quote, then newline)."""

    def _text_for(self, value: str) -> str:
        registry = MetricsRegistry()
        registry.counter("esc_total").inc(1.0, tenant=value)
        return registry.prometheus_text()

    def test_quote_escaped(self):
        assert r'tenant="say \"hi\""' in self._text_for('say "hi"')

    def test_backslash_escaped(self):
        assert r'tenant="c:\\temp"' in self._text_for("c:\\temp")

    def test_newline_escaped(self):
        text = self._text_for("line1\nline2")
        assert r'tenant="line1\nline2"' in text
        # The rendered text must stay one-sample-per-line parseable.
        sample_lines = [line for line in text.splitlines()
                        if line.startswith("esc_total")]
        assert len(sample_lines) == 1

    def test_backslash_before_quote_order(self):
        # A pre-escaped-looking value \" must render as \\\" — the
        # backslash pass must not re-escape the quote's new backslash.
        assert r'tenant="\\\""' in self._text_for('\\"')


class TestFailedUnfinishedSpanExport:
    def test_failed_never_finished_span_exports_open(self, fake_clock):
        """A span that was ``fail()``-ed but never ``finish()``-ed (a
        crashed worker's last span) must still export: zero duration,
        error status and an ``open`` marker."""
        root = Span("serve.request")
        fake_clock(0.5)
        child = root.child("serve.dispatch")
        child.fail("worker exploded")       # no finish() follows
        events = chrome_trace_events([root])
        (x_event,) = [e for e in events if e["ph"] == "X"
                      and e["name"] == "serve.dispatch"]
        assert x_event["dur"] == 0.0
        assert x_event["args"]["status"] == "error"
        assert x_event["args"]["error"] == "worker exploded"
        assert x_event["args"]["open"] is True
        # The unfinished root exports the same way.
        (root_event,) = [e for e in events if e["ph"] == "X"
                         and e["name"] == "serve.request"]
        assert root_event["args"]["open"] is True


class TestTracerDropCounters:
    def test_buffer_eviction_counted(self):
        tracer = Tracer(enabled=True, max_traces=2)
        for i in range(5):
            tracer.trace(f"r{i}").finish()
        assert tracer.drop_stats() == {"buffer": 3, "children": 0}

    def test_child_drops_counted(self):
        tracer = Tracer(enabled=True, max_traces=8)
        root = tracer.trace("busy")
        for i in range(MAX_CHILDREN + 7):
            root.child(f"c{i}").finish()
        root.finish()
        assert tracer.drop_stats()["children"] == 7

    def test_clear_resets_drop_counts(self):
        tracer = Tracer(enabled=True, max_traces=1)
        tracer.trace("a").finish()
        tracer.trace("b").finish()
        assert tracer.drop_stats()["buffer"] == 1
        tracer.clear()
        assert tracer.drop_stats() == {"buffer": 0, "children": 0}

    def test_service_exports_trace_dropped_total(self):
        registry = MetricsRegistry()
        tracer = Tracer(enabled=True, max_traces=2)
        with SimdramCluster(1, config=small_config()) as cluster, \
                SimdramService(cluster, ServeConfig(max_wait_s=0.001),
                               tracer=tracer,
                               registry=registry) as service:
            a = np.arange(8)
            for _ in range(4):
                service.submit("add", a, a, width=8).result(60)
            text = service.prometheus()
        assert 'repro_trace_dropped_total{reason="buffer"} 2' in text
        assert 'repro_trace_dropped_total{reason="children"}' in text

    def test_span_root_flight_recorded(self):
        from repro.obs.flightrec import get_flight_recorder
        tracer = Tracer(enabled=True, max_traces=4)
        tracer.trace("flightrec.span.marker").finish()
        roots = [e for e in get_flight_recorder().events()
                 if e["kind"] == "span.root"
                 and e.get("name") == "flightrec.span.marker"]
        assert roots and "duration_s" in roots[0]
