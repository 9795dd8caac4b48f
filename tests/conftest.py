"""Shared fixtures and helpers for the SIMDRAM reproduction test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

# Registers the ci/dev/thorough hypothesis profiles at collection time
# (before any test module loads); see that module for the policy.
import hypothesis_profiles  # noqa: F401
from repro.core.framework import Simdram, SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.dram.subarray import Subarray
from repro.obs import clock


# ----------------------------------------------------------------------
# flight-recorder postmortems for failed tests
# ----------------------------------------------------------------------
#: Cap the number of dumps per run: a cascading failure (one broken
#: layer failing hundreds of tests) must not write hundreds of files.
_MAX_FLIGHTREC_DUMPS = 20
_flightrec_dumps = 0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On a call-phase failure, dump the in-process flight recorder to
    ``.flightrec/`` (CI uploads the directory as a ``flightrec-<sha>``
    artifact) and point at the file from the test report."""
    outcome = yield
    report = outcome.get_result()
    global _flightrec_dumps
    if (report.when != "call" or not report.failed
            or _flightrec_dumps >= _MAX_FLIGHTREC_DUMPS):
        return
    _flightrec_dumps += 1
    from repro.obs.flightrec import postmortem
    path = postmortem(f"test failed: {item.nodeid}")
    if path:
        report.sections.append(
            ("flight recorder", f"postmortem written to {path}"))


@pytest.fixture
def fake_clock():
    """Freeze ``repro.obs.clock`` and yield ``advance(dt)``; the real
    clock is restored afterwards."""
    state = {"t": 100.0}

    def advance(dt: float) -> None:
        state["t"] += dt

    clock.set_source(lambda: state["t"])
    try:
        yield advance
    finally:
        clock.set_source(None)


@pytest.fixture
def small_geometry() -> DramGeometry:
    """A tiny subarray: fast, but large enough for 16-bit µPrograms."""
    return DramGeometry.sim_small(cols=32, data_rows=512, banks=2)


@pytest.fixture
def subarray(small_geometry) -> Subarray:
    """A zero-initialized small subarray."""
    return Subarray(small_geometry)


@pytest.fixture
def random_subarray(small_geometry) -> Subarray:
    """A subarray with random power-up contents (catches programs that
    rely on residual state)."""
    return Subarray(small_geometry, rng=np.random.default_rng(1234))


@pytest.fixture
def sim() -> Simdram:
    """A small end-to-end Simdram system (2 banks x 64 lanes)."""
    config = SimdramConfig(
        geometry=DramGeometry.sim_small(cols=64, data_rows=768, banks=2))
    return Simdram(config, seed=7)


def stable_seed(*parts) -> int:
    """A 32-bit generator seed that is the same in every process.

    ``hash()`` of anything containing a ``str`` is salted per process
    (``PYTHONHASHSEED``), so a seed built from it draws different
    operands on every run and a failure cannot be replayed.
    """
    return zlib.crc32(repr(parts).encode())


def rand_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random boolean row of length ``n``."""
    return rng.integers(0, 2, n).astype(bool)


def edge_and_random_values(rng: np.random.Generator, width: int,
                           n: int) -> np.ndarray:
    """Input vectors mixing edge cases with random values."""
    edges = np.array([0, 1, (1 << width) - 1, 1 << (width - 1),
                      (1 << (width - 1)) - 1], dtype=np.int64)
    edges = edges[edges < (1 << width)]
    random_part = rng.integers(0, 1 << width, max(0, n - len(edges)))
    values = np.concatenate([edges, random_part])[:n]
    return values.astype(np.int64)
