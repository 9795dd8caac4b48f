"""Streaming inference (``repro.serve.streaming``): multi-step
streams served with continuous batching.

The load-bearing invariants: every stream's final activation is
bit-exact versus the numpy fold (:func:`stream_golden`) in both
scheduling modes, continuous batching actually packs steps of
different streams into shared dispatches, and a lapsed sequence
deadline sheds the stream without executing further steps.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import expr
from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import DeadlineExceeded, OperationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.runtime import SimdramCluster
from repro.serve import (
    SimdramService,
    StreamingServer,
    affine_relu_step,
    stream_golden,
)

WIDTH = 8


def small_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=512, banks=2))


@pytest.fixture(scope="module")
def cluster():
    with SimdramCluster(1, config=small_config()) as c:
        yield c


def make_service(cluster, tracer=None) -> SimdramService:
    return SimdramService(cluster, tracer=tracer,
                          registry=MetricsRegistry())


def _stagger(wave, min_steps=2, timeout=30.0):
    """Wait until every stream of ``wave`` advanced ``min_steps`` (or
    finished), so a second wave genuinely arrives mid-flight."""
    deadline = time.monotonic() + timeout
    while (time.monotonic() < deadline
           and not all(h.steps_done >= min_steps or h.done()
                       for h in wave)):
        time.sleep(0.0005)


class TestContinuousBatching:
    def test_staggered_streams_bit_exact_and_packed(self, cluster):
        step = affine_relu_step()
        rng = np.random.default_rng(0)
        n_streams, n_steps, lanes = 4, 5, 8
        inputs = [rng.integers(1, 100, lanes)
                  for _ in range(2 * n_streams)]
        weights = rng.integers(0, 4, lanes)
        with make_service(cluster) as service, \
                StreamingServer(service) as server:
            service.warmup([(step, WIDTH)])
            service.metrics.reset()
            # Each wave arrives corked: its first steps share one
            # dispatch whatever the thread scheduling.
            with server.hold():
                wave1 = [server.submit(step, x0, n_steps=n_steps,
                                       width=WIDTH, feeds={"w": weights})
                         for x0 in inputs[:n_streams]]
            _stagger(wave1)
            with server.hold():
                wave2 = [server.submit(step, x0, n_steps=n_steps,
                                       width=WIDTH, feeds={"w": weights})
                         for x0 in inputs[n_streams:]]
            for handle, x0 in zip(wave1 + wave2, inputs):
                assert np.array_equal(
                    handle.result(120),
                    stream_golden(step, x0, n_steps, {"w": weights},
                                  WIDTH))
                assert handle.steps_done == n_steps
            stats = service.stats()
        total_steps = 2 * n_streams * n_steps
        assert stats["requests"]["completed"] == total_steps
        # Continuous batching: steps of concurrent streams share
        # dispatches instead of going out one by one — at the very
        # least each wave's first step, which went out as one pack.
        assert stats["packing"]["dispatches"] \
            <= total_steps - 2 * (n_streams - 1)

    def test_hold_packs_a_wave_into_one_dispatch(self, cluster):
        """Streams started under ``server.hold()`` take their first
        step together: the cork stays in until the pump has submitted
        every one of them."""
        step = affine_relu_step()
        rng = np.random.default_rng(2)
        inputs = [rng.integers(1, 100, 8) for _ in range(6)]
        weights = rng.integers(0, 4, 8)
        with make_service(cluster) as service, \
                StreamingServer(service) as server:
            with server.hold():
                wave = [server.submit(step, x0, n_steps=1, width=WIDTH,
                                      feeds={"w": weights})
                        for x0 in inputs]
                assert not any(handle.done() for handle in wave)
            for handle, x0 in zip(wave, inputs):
                assert np.array_equal(
                    handle.result(120),
                    stream_golden(step, x0, 1, {"w": weights}, WIDTH))
            packing = service.stats()["packing"]
        assert packing["dispatches"] == 1
        assert packing["packed_requests"] == len(inputs)

    def test_drain_mode_bit_exact_with_mixed_depths(self, cluster):
        """Lockstep generations stay correct even when the streams of
        one generation finish at different step counts."""
        step = affine_relu_step()
        rng = np.random.default_rng(1)
        lanes = 6
        weights = rng.integers(0, 4, lanes)
        cases = [(rng.integers(1, 100, lanes), depth)
                 for depth in (2, 4, 3, 1)]
        with make_service(cluster) as service, \
                StreamingServer(service,
                                drain_between_steps=True) as server:
            wave1 = [server.submit(step, x0, n_steps=depth,
                                   width=WIDTH, feeds={"w": weights})
                     for x0, depth in cases[:2]]
            _stagger(wave1, min_steps=1)
            wave2 = [server.submit(step, x0, n_steps=depth,
                                   width=WIDTH, feeds={"w": weights})
                     for x0, depth in cases[2:]]
            for handle, (x0, depth) in zip(wave1 + wave2, cases):
                assert np.array_equal(
                    handle.result(120),
                    stream_golden(step, x0, depth, {"w": weights},
                                  WIDTH))

    def test_energy_accumulates_over_steps(self, cluster):
        step = affine_relu_step()
        x0 = np.arange(1, 9)
        weights = np.ones(8, dtype=np.int64)
        with make_service(cluster) as service, \
                StreamingServer(service) as server:
            one = server.submit(step, x0, n_steps=1, width=WIDTH,
                                feeds={"w": weights})
            three = server.submit(step, x0, n_steps=3, width=WIDTH,
                                  feeds={"w": weights})
            one.result(120)
            three.result(120)
        # Same kernel, same lanes, every step: the modeled bill is
        # exactly per-step energy times depth.
        assert one.energy_nj and one.energy_nj > 0
        assert three.energy_nj == pytest.approx(3 * one.energy_nj)


class TestStreamDeadlines:
    def test_lapsed_stream_is_shed_without_executing(self, cluster):
        step = affine_relu_step()
        with make_service(cluster) as service, \
                StreamingServer(service) as server:
            handle = server.submit(step, [5, 6], n_steps=3,
                                   width=WIDTH, feeds={"w": [1, 1]},
                                   deadline_s=0.0)
            with pytest.raises(DeadlineExceeded, match="shed at step"):
                handle.result(30)
            assert handle.steps_done == 0
            assert handle.on_time is False
            # The shed happened before the service ever saw a step.
            assert service.stats()["requests"]["submitted"] == 0

    def test_generous_deadline_resolves_on_time(self, cluster):
        step = affine_relu_step()
        x0 = np.arange(1, 7)
        weights = np.full(6, 2)
        with make_service(cluster) as service, \
                StreamingServer(service) as server:
            handle = server.submit(step, x0, n_steps=4, width=WIDTH,
                                   feeds={"w": weights},
                                   deadline_s=60.0)
            assert np.array_equal(
                handle.result(120),
                stream_golden(step, x0, 4, {"w": weights}, WIDTH))
            assert handle.on_time is True


class TestStreamTracing:
    def test_one_serve_step_span_per_step(self, cluster):
        step = affine_relu_step()
        tracer = Tracer(enabled=True)
        n_steps = 3
        with make_service(cluster, tracer=tracer) as service, \
                StreamingServer(service) as server:
            handle = server.submit(step, [4, 5], n_steps=n_steps,
                                   width=WIDTH, feeds={"w": [1, 2]})
            handle.result(120)
            server.drain(120)   # the stream root finishes on the pump
        roots = [root for root in tracer.finished_traces()
                 if root.name == "serve.stream"]
        (root,) = roots
        steps = root.find_all("serve.step")
        assert [span.attrs["step"] for span in steps] \
            == list(range(n_steps))
        assert all(span.attrs["n_steps"] == n_steps for span in steps)
        # Each step span knows which service request carried it.
        assert all("request_id" in span.attrs for span in steps)


class TestStreamValidationAndFailure:
    def test_step_kernel_must_read_x(self, cluster):
        with make_service(cluster) as service, \
                StreamingServer(service) as server:
            with pytest.raises(OperationError, match="named 'x'"):
                server.submit(expr.relu(expr.inp("y")), [1],
                              n_steps=1, width=WIDTH, feeds={"y": [1]})

    def test_missing_feed_rejected(self, cluster):
        with make_service(cluster) as service, \
                StreamingServer(service) as server:
            with pytest.raises(OperationError, match="no feed"):
                server.submit(affine_relu_step(), [1], n_steps=1,
                              width=WIDTH)

    def test_bad_step_count_rejected(self, cluster):
        with make_service(cluster) as service, \
                StreamingServer(service) as server:
            with pytest.raises(OperationError, match="n_steps"):
                server.submit(affine_relu_step(), [1], n_steps=0,
                              width=WIDTH, feeds={"w": [1]})

    def test_poisoned_stream_fails_alone(self, cluster):
        step = affine_relu_step()
        x0 = np.array([3, 4])
        weights = np.array([1, 1])
        with make_service(cluster) as service, \
                StreamingServer(service) as server:
            bad = server.submit(step, x0, n_steps=2, width=WIDTH,
                                feeds={"w": np.array([1, 2, 3])})
            good = server.submit(step, x0, n_steps=2, width=WIDTH,
                                 feeds={"w": weights})
            assert isinstance(bad.exception(120), OperationError)
            assert np.array_equal(
                good.result(120),
                stream_golden(step, x0, 2, {"w": weights}, WIDTH))

    def test_submit_after_close_rejected(self, cluster):
        with make_service(cluster) as service:
            server = StreamingServer(service)
            server.close()
            with pytest.raises(OperationError, match="closed"):
                server.submit(affine_relu_step(), [1], n_steps=1,
                              width=WIDTH, feeds={"w": [1]})
            server.close()   # idempotent
