"""Deadline admission: EDF ordering, deadline shedding, goodput and
modeled energy accounting.

The load-bearing property (hypothesis-driven): a request whose
deadline lapsed is shed with
:class:`~repro.errors.DeadlineExceeded` and **never executes** — its
id never reaches a dispatch — while every request that can still make
its deadline resolves bit-exact versus numpy.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hypothesis_profiles import scaled_examples
from repro.core import expr
from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import DeadlineExceeded
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.runtime import SimdramCluster
from repro.runtime.replica import PendingJob, WorkDescriptor
from repro.serve import ServeConfig, SimdramService
from repro.serve.router import ReplicaRouter

WIDTH = 8


def small_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=512, banks=2))


@pytest.fixture(scope="module")
def cluster():
    with SimdramCluster(1, config=small_config()) as c:
        yield c


def slo_service(cluster, config: ServeConfig | None = None
                ) -> SimdramService:
    return SimdramService(cluster, config or ServeConfig(max_wait_s=0.001),
                          registry=MetricsRegistry())


# ---------------------------------------------------------------------------
# the shed property
# ---------------------------------------------------------------------------
#: (lapsed?, lanes) per request — mixes already-lapsed and live
#: deadlines in arbitrary interleavings.
request_plans = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=6)),
    min_size=1, max_size=10)


class TestShedNeverExecutes:
    @given(plan=request_plans, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=scaled_examples(10), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lapsed_shed_unexecuted_live_bit_exact(self, cluster, plan,
                                                   seed):
        rng = np.random.default_rng(seed)
        executed: list[int] = []
        with slo_service(cluster) as service:
            real_dispatch = service._dispatch

            def spying_dispatch(group):
                executed.extend(r.handle.request_id
                                for r in group.requests)
                real_dispatch(group)

            service._dispatch = spying_dispatch
            cases = []
            for lapsed, n in plan:
                a = rng.integers(0, 128, n)
                b = rng.integers(0, 128, n)
                handle = service.submit(
                    "add", a, b, width=WIDTH,
                    deadline_s=0.0 if lapsed else 60.0)
                cases.append((lapsed, a, b, handle))
            for lapsed, a, b, handle in cases:
                if lapsed:
                    with pytest.raises(DeadlineExceeded):
                        handle.result(120)
                    assert handle.request_id not in executed
                else:
                    assert np.array_equal(handle.result(120),
                                          (a + b) % 256)
                    assert handle.on_time is True
            stats = service.stats()
        n_lapsed = sum(1 for lapsed, *_ in cases if lapsed)
        assert stats["requests"]["shed"] == n_lapsed
        assert stats["requests"]["completed"] == len(cases) - n_lapsed
        assert stats["requests"]["failed"] == 0
        assert stats["slo"]["on_time"] == len(cases) - n_lapsed


# ---------------------------------------------------------------------------
# EDF pop order
# ---------------------------------------------------------------------------
class TestEdfPop:
    @staticmethod
    def _pop_order(deadlines):
        raws = [SimpleNamespace(deadline=d, tag=i)
                for i, d in enumerate(deadlines)]
        queue = deque(raws)
        out = []
        while queue:
            out.append(SimdramService._pop_edf(queue).tag)
        return out

    def test_earliest_deadline_first_none_last(self):
        order = self._pop_order([5.0, None, 1.0, 3.0, None])
        # Deadlines ascending, deadline-less FIFO at the back.
        assert order == [2, 3, 0, 1, 4]

    def test_lapsed_pop_first_when_shedding(self):
        # A lapsed request keeps its earliest-first rank, so it pops
        # soonest (to be shed cheaply by _admit).
        now = time.monotonic()
        order = self._pop_order([now + 50, now - 1, now + 10])
        assert order == [1, 2, 0]

    def test_deadline_less_burst_dispatches_in_submission_order(
            self, cluster):
        """No request carries a deadline: every tenant's requests
        dispatch in the order they were submitted, and the worker
        never scans a queue."""
        order: list[tuple[str, int]] = []
        with slo_service(cluster, ServeConfig(max_lanes=1)) as service:
            real_dispatch = service._dispatch

            def spying_dispatch(group):
                order.extend((r.tenant, r.handle.request_id)
                             for r in group.requests)
                real_dispatch(group)

            def no_scan(queue):
                raise AssertionError("EDF scan without a deadline queued")

            service._dispatch = spying_dispatch
            service._pop_edf = no_scan
            with service.hold():
                handles = [service.submit("add", [i], [1], width=WIDTH,
                                          tenant=f"t{i % 3}")
                           for i in range(12)]
            for i, handle in enumerate(handles):
                assert np.array_equal(handle.result(120), [i + 1])
        assert len(order) == len(handles)
        for tenant in ("t0", "t1", "t2"):
            ids = [rid for t, rid in order if t == tenant]
            assert ids == sorted(ids) and len(ids) == 4


# ---------------------------------------------------------------------------
# per-tenant accounting, exposition
# ---------------------------------------------------------------------------
class TestSloAccounting:
    def test_shed_counted_per_tenant_and_exported(self, cluster):
        with slo_service(cluster) as service:
            shed = [service.submit("add", [1], [2], width=WIDTH,
                                   tenant=t, deadline_s=0.0)
                    for t in ("a", "a", "b")]
            live = service.submit("add", [3], [4], width=WIDTH,
                                  tenant="b", deadline_s=60.0)
            for handle in shed:
                with pytest.raises(DeadlineExceeded):
                    handle.result(120)
            assert np.array_equal(live.result(120), [7])
            stats = service.stats()
            text = service.prometheus()
        assert stats["tenants"]["a"]["shed"] == 2
        assert stats["tenants"]["b"]["shed"] == 1
        assert ('repro_serve_tenant_requests_total'
                '{state="shed",tenant="a"} 2') in text
        assert ('repro_serve_tenant_requests_total'
                '{state="shed",tenant="b"} 1') in text
        assert 'repro_serve_requests_total{state="shed"} 3' in text
        assert "repro_serve_goodput" in text
        assert 'repro_serve_slo_requests_total{state="on_time"} 1' \
            in text

    def test_energy_and_goodput_metering(self, cluster):
        registry = MetricsRegistry()
        with SimdramService(cluster, ServeConfig(max_wait_s=0.001),
                            registry=registry) as service:
            small = service.submit("add", np.arange(4), np.arange(4),
                                   width=WIDTH, deadline_s=60.0)
            large = service.submit("add", np.arange(8), np.arange(8),
                                   width=WIDTH, deadline_s=60.0)
            brighten = expr.relu(expr.sub(expr.inp("px"),
                                          expr.const(2)))
            fused = service.submit(brighten,
                                   feeds={"px": np.arange(4)},
                                   width=WIDTH)
            for handle in (small, large, fused):
                handle.result(120)
            stats = service.stats()
            scrape = registry.snapshot()
        # The bill is modeled nJ/element x lanes: double the lanes of
        # the same kernel costs exactly double.
        assert small.energy_nj and small.energy_nj > 0
        assert large.energy_nj == pytest.approx(2 * small.energy_nj)
        # Fused Expr kernels are priced through their compiled program.
        assert fused.energy_nj and fused.energy_nj > 0
        assert stats["energy"]["requests_metered"] == 3
        assert stats["energy"]["nj_per_request_mean"] > 0
        assert stats["slo"]["goodput_rps"] > 0
        # The scrape reads the same histogram the stats() block reads.
        (count,) = scrape["repro_request_energy_joules_count"]["series"]
        (total,) = scrape["repro_request_energy_joules_sum"]["series"]
        assert count["value"] == 3
        assert total["value"] == pytest.approx(
            stats["energy"]["modeled_request_nj_total"] * 1e-9)


# ---------------------------------------------------------------------------
# failover with deadlines
# ---------------------------------------------------------------------------
class _FakeReplicas:
    """Minimal replica-set stand-in for router failover unit tests."""

    lanes = 64
    backend = "simdram"

    def __init__(self, alive) -> None:
        self._alive = list(alive)
        self.submitted: list = []

    def set_death_handler(self, handler) -> None:
        self.handler = handler

    def alive_ids(self):
        return list(self._alive)

    def n_inflight(self, replica_id):
        return 0

    def stats(self):
        return {}

    def submit(self, rid, desc, vectors, lanes, future=None):
        self.submitted.append((rid, desc, future))
        return future


def _job(deadline, future) -> PendingJob:
    desc = WorkDescriptor(kind="op", op_name="add", root=None,
                          slot_names=(), width=WIDTH, engine="auto",
                          deadline=deadline)
    return PendingJob(job_id=1, desc=desc, vectors=[np.array([1])],
                      lanes=1, future=future, attempts=[0])


class TestFailoverDeadlines:
    def test_requeue_with_lapsed_budget_sheds(self):
        fake = _FakeReplicas([1])   # a survivor exists, but too late
        ReplicaRouter(fake)
        future: Future = Future()
        fake.handler(0, [_job(time.monotonic() - 1.0, future)])
        with pytest.raises(DeadlineExceeded, match="failover"):
            future.result(0)
        assert fake.submitted == []   # never re-placed

    def test_requeue_with_remaining_budget_proceeds(self):
        fake = _FakeReplicas([1])
        ReplicaRouter(fake)
        future: Future = Future()
        fake.handler(0, [_job(time.monotonic() + 60.0, future)])
        (rid, _, handed), = fake.submitted
        assert rid == 1 and handed is future

    def test_kill_drill_respects_remaining_budget(self):
        """Kill a replica with deadline-carrying requests in flight:
        every handle still resolves bit-exact and on time, and each
        recorded retry span carries the remaining budget."""
        rng = np.random.default_rng(11)
        budget = 120.0
        tracer = Tracer(enabled=True)
        with ReplicaRouter(2, config=small_config(),
                           manifest=[("add", WIDTH)]) as router, \
                SimdramService(router, ServeConfig(max_wait_s=0.001),
                               tracer=tracer,
                               registry=MetricsRegistry()) as service:
            cases = []
            for _ in range(20):
                a = rng.integers(0, 128, 512)
                b = rng.integers(0, 128, 512)
                cases.append((a, b, service.submit(
                    "add", a, b, width=WIDTH, deadline_s=budget)))
            victim = 0
            deadline = time.monotonic() + 30
            while (time.monotonic() < deadline
                   and router.replicas.n_inflight(victim) == 0
                   and not all(h.done() for _, _, h in cases)):
                time.sleep(0.001)
            router.kill(victim)
            for a, b, handle in cases:
                assert np.array_equal(handle.result(120),
                                      (a + b) % 256)
                assert handle.on_time is True
            stats = service.stats()
        assert stats["requests"]["shed"] == 0
        retries = [span for root in tracer.finished_traces()
                   for span in root.find_all("retry")]
        budgets = [span.attrs["deadline_remaining_s"]
                   for span in retries
                   if "deadline_remaining_s" in span.attrs]
        for remaining in budgets:
            assert 0 < remaining <= budget
        # Whenever the drill actually requeued work, the retry spans
        # must have recorded the budget (the kill can race a drained
        # pipeline, in which case there is nothing to assert).
        if stats["failover"]["requeued_requests"] and retries:
            assert budgets
