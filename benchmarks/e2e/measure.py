"""Measurement primitives of the end-to-end benchmark.

Everything here is independent of the program under test: the host
clock, percentile rules, the two closed-loop load drivers, process
CPU/RSS probes and the leak check run after a workload closes its
targets.  ``workloads.py`` drives the program with these;
``run.py`` turns the samples into the metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import glob
import os
import resource
import statistics
import tempfile
import threading
import time
from collections import deque
from typing import Callable, Sequence

import numpy as np

now = time.perf_counter

#: Candidate tail percentiles, lowest first, each with the share of
#: samples beyond it as "one in N" (see :func:`tail_percentile`).
TAIL_CANDIDATES = ((50.0, 2), (90.0, 10), (95.0, 20), (99.0, 100),
                   (99.9, 1000), (99.99, 10000))
#: A percentile is reportable when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def tail_percentile(n_samples: int) -> float:
    """Highest candidate percentile with >= 10 samples beyond it
    (p50 when even that has fewer: tiny runs report the median)."""
    best = TAIL_CANDIDATES[0][0]
    for q, one_in in TAIL_CANDIDATES:
        if n_samples >= MIN_SAMPLES_BEYOND * one_in:
            best = q
    return best


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the driver's
    repeatability figure (0.0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def same_bits(result, expected, width: int) -> bool:
    """Bit-exact comparison of two integer vectors as ``width``-bit
    two's-complement encodings (so a signed result and an unsigned
    golden of the same bits agree, and one flipped bit does not)."""
    got = np.asarray(result)
    want = np.asarray(expected)
    if got.shape != want.shape:
        return False
    mask = (1 << width) - 1
    return bool(np.array_equal(got.astype(np.int64) & mask,
                               want.astype(np.int64) & mask))


# ---------------------------------------------------------------------------
# closed-loop load drivers (one generator thread)
# ---------------------------------------------------------------------------
def closed_loop(n_ops: int, window: int, submit: Callable[[int], object],
                lap_every: int = 0, lap: Callable[[], None] = None
                ) -> tuple[list[float], list[float], list]:
    """Issue ``n_ops`` operations keeping at most ``window`` in flight.

    ``submit(i)`` must return a handle with ``add_done_callback``; the
    completion stamp is taken in that callback (stamp plus semaphore
    release, nothing else), so latency is submit-to-resolution as the
    caller's own callback would see it.  ``lap()`` is called when
    operation ``0, lap_every, 2 * lap_every, ...`` is admitted and once
    more when the last has completed, so that the caller can read its
    clocks per slice of the loop.  Returns ``(per-operation latency
    seconds, completion times since the loop started, handles)``.
    """
    gate = threading.Semaphore(window)
    sent = [0.0] * n_ops
    done = [0.0] * n_ops
    handles: list = [None] * n_ops

    def stamp(index: int) -> None:
        done[index] = now()
        gate.release()

    start = now()
    for i in range(n_ops):
        gate.acquire()
        if lap_every and i % lap_every == 0:
            lap()
        sent[i] = now()
        handle = submit(i)
        handles[i] = handle
        handle.add_done_callback(lambda _h, i=i: stamp(i))
    for _ in range(window):
        gate.acquire()
    if lap_every:
        lap()
    return ([d - s for s, d in zip(sent, done)],
            [d - start for d in done], handles)


def closed_loop_fifo(n_ops: int, window: int,
                     submit: Callable[[int], object],
                     lap_every: int = 0, lap: Callable[[], None] = None
                     ) -> tuple[list[float], list[float], list]:
    """Closed loop for handles without a completion callback.

    A FIFO window: when ``window`` operations are in flight the
    generator waits on the *oldest* and stamps its completion when
    ``result()`` returns.  An operation that finished before an older
    one is stamped late (head-of-line bias) — latencies are an upper
    bound, throughput is exact.  A failed operation keeps latency 0.0
    and is reported by the caller from ``handle.exception()``.
    ``lap`` is as in :func:`closed_loop`.
    """
    sent = [0.0] * n_ops
    done = [0.0] * n_ops
    handles: list = [None] * n_ops
    pending: deque[int] = deque()

    def retire() -> None:
        index = pending.popleft()
        if handles[index].exception() is None:
            done[index] = now()
        else:
            done[index] = sent[index]

    start = now()
    for i in range(n_ops):
        if len(pending) == window:
            retire()
        if lap_every and i % lap_every == 0:
            lap()
        sent[i] = now()
        handles[i] = submit(i)
        pending.append(i)
    while pending:
        retire()
    if lap_every:
        lap()
    return ([d - s for s, d in zip(sent, done)],
            [d - start for d in done], handles)


# ---------------------------------------------------------------------------
# process probes
# ---------------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(child_pids: Sequence[int] = ()) -> float:
    """CPU time consumed so far by this process (all threads) plus the
    given *live* children, read from ``/proc`` — ``getrusage`` only
    sees a child after it has been reaped, which for replica processes
    is after the measured phase."""
    total = time.process_time()
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue  # already gone: its time is lost, not invented
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


class QuietGate:
    """Holds a measurement back until the box is quiet.

    On this box a neighbour on the host slows everything by about half
    for seconds at a time, then leaves for seconds (README, "Why
    best-of").  ``wait()`` times a millisecond of pure-Python spinning
    and returns once that is within ``TOLERANCE`` of the fastest spin
    this gate has seen, or when the run's ``budget_s`` of waiting is
    spent — so a box that never gets quiet costs a bounded delay.
    """

    TOLERANCE = 1.15
    PAUSE_S = 0.02

    def __init__(self, budget_s: float) -> None:
        self.left_s = budget_s
        self.waited_s = 0.0
        self.best_s = min(self._spin() for _ in range(20))

    @staticmethod
    def _spin() -> float:
        start = now()
        total = 0
        for i in range(20000):
            total += i * i
        return now() - start

    def wait(self) -> None:
        while True:
            took = self._spin()
            self.best_s = min(self.best_s, took)
            if took <= self.TOLERANCE * self.best_s or self.left_s <= 0:
                return
            time.sleep(self.PAUSE_S)
            self.left_s -= self.PAUSE_S + took
            self.waited_s += self.PAUSE_S + took


class Meter:
    """What a workload reads while it runs a block: the CPU seconds
    used so far by everything that serves it, and the quiet gate."""

    def __init__(self, gate: QuietGate, child_pids: Sequence[int]) -> None:
        self.wait_quiet = gate.wait
        self.child_pids = child_pids

    def cpu(self) -> float:
        return cpu_seconds(self.child_pids)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped
    child (``ru_maxrss`` is kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Hygiene:
    """Snapshot of threads, shared-memory segments and flight-recorder
    spool directories; :meth:`leaks` reports what a closed workload
    left behind."""

    SHM_DIR = "/dev/shm"

    def __init__(self) -> None:
        self.threads = threading.active_count()
        self.files = self._files()

    def _files(self) -> set[str]:
        try:
            shm = {os.path.join(self.SHM_DIR, name)
                   for name in os.listdir(self.SHM_DIR)}
        except OSError:
            shm = set()
        spools = glob.glob(os.path.join(tempfile.gettempdir(),
                                        "repro-flightrec-*"))
        return shm | set(spools)

    def leaks(self, patience_s: float = 5.0) -> tuple[int, int]:
        """``(leaked threads, leaked files)`` relative to the snapshot.
        Both get ``patience_s`` to go away after ``close()``: threads
        to finish dying, and a file that does go away was some other
        process's, not a leak."""
        deadline = now() + patience_s
        while True:
            threads = max(0, threading.active_count() - self.threads)
            files = len(self._files() - self.files)
            if not (threads or files) or now() >= deadline:
                return threads, files
            time.sleep(0.01)
