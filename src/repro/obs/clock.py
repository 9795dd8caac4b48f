"""Monotonic clock shim for all observability timestamps.

Every span timestamp, heartbeat RTT, and latency sample in the
codebase flows through :func:`now` so that (a) traces are immune to
wall-clock steps (NTP slew, suspend/resume), and (b) tests can install
a deterministic fake clock with :func:`set_source` instead of
sleeping.  ``time.time()`` is banned in ``src/repro/`` by the ruff
``flake8-tidy-imports`` rule and a CI grep; the single sanctioned
escape hatch is :func:`wall`, which exists only to stamp export files
with a human-readable creation time.

On Linux ``time.monotonic`` reads ``CLOCK_MONOTONIC``, which is
system-wide: timestamps taken in forked replica children are directly
comparable with the parent's, so cross-process span trees line up on
one timeline without clock translation.
"""

from __future__ import annotations

import time
from typing import Callable

_source: Callable[[], float] = time.monotonic  # noqa: TID251 - the source


def now() -> float:
    """Seconds on the observability timeline (monotonic by default)."""
    return _source()


def set_source(source: "Callable[[], float] | None") -> None:
    """Install a replacement time source (``None`` restores the real
    monotonic clock).  Test-only: production code never calls this."""
    global _source
    _source = (time.monotonic  # noqa: TID251 - the source
               if source is None else source)


def wall() -> float:
    """Wall-clock seconds since the epoch, for stamping export files.

    The only sanctioned ``time.time`` call site under ``src/repro``;
    never use it for durations or span timestamps.
    """
    return time.time()  # noqa: TID251  - sanctioned wall-clock escape hatch
