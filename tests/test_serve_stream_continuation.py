"""A stream's next step continues where the last one resolved.

``StreamingServer`` starts no thread: the thread that resolves step
*k* enqueues step *k+1*, and the service hands step *k*'s admission
slot to step *k+1* in one critical section.  These tests pin what that
buys: ``service.drain()`` sees no gap mid-stream, a blocked submitter
cannot take a stream's slot between two steps, and the chain survives
continuation from a router thread across a replica failover.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import SimdramError
from repro.obs.flightrec import get_flight_recorder
from repro.obs.metrics import MetricsRegistry
from repro.runtime import SimdramCluster
from repro.serve import (
    ServeConfig,
    SimdramService,
    StreamingServer,
    affine_relu_step,
    stream_golden,
)
from repro.serve.router import ReplicaRouter

WIDTH = 8
LANES = 8


def small_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=512, banks=2))


@pytest.fixture(scope="module")
def cluster():
    with SimdramCluster(1, config=small_config()) as c:
        yield c


def _cases(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [(rng.integers(1, 100, LANES), rng.integers(0, 4, LANES))
            for _ in range(n)]


def _start(server, step, cases, n_steps: int) -> list:
    return [server.submit(step, x0, n_steps=n_steps, width=WIDTH,
                          feeds={"w": w}, tenant=f"t{i % 2}")
            for i, (x0, w) in enumerate(cases)]


def _assert_bit_exact(streams, step, cases, n_steps: int) -> None:
    for stream, (x0, w) in zip(streams, cases):
        assert np.array_equal(
            stream.result(120),
            stream_golden(step, x0, n_steps, {"w": w}, WIDTH))
        assert stream.steps_done == n_steps


class TestMidStreamState:
    def test_service_drain_waits_for_every_step(self, cluster):
        """Between two steps the slot is handed over, never released:
        ``service.drain()`` cannot return while a stream has steps to
        run."""
        step = affine_relu_step()
        n_steps = 20
        with SimdramService(cluster, registry=MetricsRegistry()) \
                as service, StreamingServer(service) as server:
            service.warmup([(step, WIDTH)])
            for trial in range(3):
                cases = _cases(trial, 2)
                streams = _start(server, step, cases, n_steps)
                assert service.drain(120)
                assert all(stream.done() for stream in streams)
                _assert_bit_exact(streams, step, cases, n_steps)

    def test_server_starts_no_thread(self, cluster):
        step = affine_relu_step()
        cases = _cases(5, 4)
        with SimdramService(cluster, registry=MetricsRegistry()) \
                as service:
            service.warmup([(step, WIDTH)])
            before = set(threading.enumerate())
            with StreamingServer(service) as server:
                assert set(threading.enumerate()) == before
                streams = _start(server, step, cases, 6)
                names = {thread.name for thread in threading.enumerate()}
                assert not any(name.startswith("simdram-stream")
                               for name in names)
                _assert_bit_exact(streams, step, cases, 6)

    def test_blocked_submitter_never_takes_a_step_slot(self, cluster):
        """``max_queue`` equal to the number of streams: a second
        thread blocked in ``submit(block=True)`` is admitted only once
        a stream has resolved, every stream runs all its steps, and
        the continuation never sees more than ``max_queue`` in
        flight."""
        step = affine_relu_step()
        n_streams, n_steps = 4, 12
        cases = _cases(7, n_streams)
        a = np.arange(1, LANES + 1)
        samples: list[int] = []
        admitted_after: list[list[bool]] = []
        with SimdramService(cluster, ServeConfig(max_queue=n_streams),
                            registry=MetricsRegistry()) as service, \
                StreamingServer(service) as server:
            service.warmup([(step, WIDTH), ("add", WIDTH)])
            continue_step = server._continue

            def sampling(stream, handle):
                samples.append(service.stats()["queue"]["in_flight"])
                return continue_step(stream, handle)

            server._continue = sampling
            streams = _start(server, step, cases, n_steps)
            blocked: list = []

            def submit_one() -> None:
                blocked.append(service.submit("add", a, a, width=WIDTH))
                admitted_after.append([s.done() for s in streams])

            submitter = threading.Thread(target=submit_one)
            submitter.start()
            _assert_bit_exact(streams, step, cases, n_steps)
            submitter.join(120)
            assert not submitter.is_alive()
            assert np.array_equal(blocked[0].result(120), 2 * a)
        assert any(admitted_after[0])
        assert len(samples) == n_streams * n_steps
        assert max(samples) <= n_streams


class TestStreamsOverReplicas:
    def test_kill_one_mid_flight_resolves_every_stream_once(self):
        """Steps continue from router threads: with one replica killed
        mid-flight, each stream is bit-exact or fails with a typed
        error, and resolves exactly once."""
        step = affine_relu_step()
        n_steps = 3
        cases = _cases(11, 6)
        recorder = get_flight_recorder()
        mark = recorder.n_recorded
        with ReplicaRouter(2, config=small_config(),
                           manifest=[(step, WIDTH)]) as router, \
                SimdramService(router, registry=MetricsRegistry()) \
                as service, StreamingServer(service) as server:
            streams = _start(server, step, cases, n_steps)
            limit = time.monotonic() + 30
            while (time.monotonic() < limit
                   and router.replicas.n_inflight(0) == 0
                   and not all(stream.done() for stream in streams)):
                time.sleep(0)
            router.kill(0)
            assert server.drain(120)
            # An idle replica's death is buried asynchronously.
            while (time.monotonic() < limit
                   and router.replicas.replicas[0].alive):
                time.sleep(0.001)
            outcomes = []
            for stream, (x0, w) in zip(streams, cases):
                error = stream.exception(120)
                if error is None:
                    assert np.array_equal(stream.result(), stream_golden(
                        step, x0, n_steps, {"w": w}, WIDTH))
                    assert stream.steps_done == n_steps
                else:
                    assert isinstance(error, SimdramError)
                outcomes.append(error is None)
            assert service.stats()["failover"]["replica_deaths"] == 1
        assert any(outcomes)
        ids = {stream.stream_id for stream in streams}
        ends = Counter(
            event["stream"] for event in recorder.events()[-(
                recorder.n_recorded - mark):]
            if event["kind"] in ("stream.done", "stream.fail",
                                 "stream.shed")
            and event.get("stream") in ids)
        assert ends == Counter({stream_id: 1 for stream_id in ids})
