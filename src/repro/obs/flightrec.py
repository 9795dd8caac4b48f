"""Always-on flight recorder: a bounded ring of structured events.

Every process keeps a lock-cheap ring buffer of the last few thousand
structured events — admissions, dispatches, shed decisions, failovers,
PMU deltas, span edges.  In steady state it costs one dict build and a
deque append per event; when something dies the ring is the black box.

Cross-process story (the replica tier):

* replica children configure a *spill file* via
  :meth:`FlightRecorder.configure_spill`: every recorded event is
  appended to it as one JSON line through a handle that stays open
  (format and compaction: see :func:`read_spill`).  SIGKILL cannot be
  trapped — continuous spilling is what makes the kill drill observable.
* on clean exit a child ships its ring home over the control pipe and
  removes the spill; the parent folds it in via
  :meth:`FlightRecorder.adopt_segment`.
* when the parent buries a crashed replica it reads the leftover
  spill file (:meth:`FlightRecorder.adopt_spill_file`).

:meth:`FlightRecorder.dump` merges the local ring with every adopted
segment into one time-sorted postmortem dict;
:meth:`FlightRecorder.dump_to` writes it as JSON (the CI failure
artifact and the ``--postmortem`` output of the kill drill).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections import deque

from repro.obs import clock

#: Ring capacity: small enough to merge and read, large enough to
#: cover the final seconds of a busy process.
DEFAULT_CAPACITY = 4096


# ---------------------------------------------------------------------------
# The spill file: append-only JSONL.  One header line — ``source``,
# ``pid``, ``capacity`` and ``n_before``, the events recorded before the
# first line — then one line per event, each flushed to the kernel as
# it is recorded (what a SIGKILL leaves behind; no fsync, this is a
# process black box, not a power-loss journal).  An event therefore
# costs one small write whatever the ring holds.  The file is rewritten
# from the ring (tmp + ``os.replace``) only when it is new or would
# pass twice the ring's capacity in event lines.  Values JSON cannot
# render are written through ``str``.
# ---------------------------------------------------------------------------
def _spill_line(record: dict) -> bytes:
    return json.dumps(record, default=str).encode("utf-8") + b"\n"


def read_spill(path: str) -> "dict | None":
    """Read a spill file back in :meth:`FlightRecorder.snapshot` form:
    header + the last ``capacity`` events, a torn last line (the writer
    died inside its ``write``) dropped.  ``None`` when the file is
    missing or is not a spill file."""
    try:
        with open(path, "rb") as handle:
            header, *lines = handle.read().split(b"\n")
        lines.pop()  # b"" after a complete last line, else the torn one
        header = json.loads(header)
        events = [json.loads(line) for line in lines]
        n_recorded = int(header["n_before"]) + len(events)
        events = events[-int(header["capacity"]):]
    except (OSError, ValueError, LookupError, TypeError):
        return None
    return {"source": header.get("source"), "pid": header.get("pid"),
            "n_recorded": n_recorded,
            "n_dropped": n_recorded - len(events), "events": events}


class FlightRecorder:
    """Bounded ring buffer of structured events.

    ``record()`` is the hot path: one timestamp, one dict, one
    lock-guarded append (and one appended line with a spill).
    Everything else (snapshots, adoption, dumps) is cold postmortem
    machinery.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 source: str = "main") -> None:
        self.capacity = int(capacity)
        self.source = source
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=self.capacity)
        self.n_recorded = 0
        #: Segments adopted from other processes, keyed by source.
        self._segments: "dict[str, dict]" = {}
        self._spill_path: "str | None" = None
        self._spill_every = 1
        # While a spill is configured: the ring's events as spill lines
        # (same order, same eviction), how many of the newest are not
        # in the file yet, the open append handle (``None`` until the
        # first spill creates the file) and the event lines it holds.
        self._lines: deque = deque(maxlen=self.capacity)
        self._unspilled = 0
        self._spill_file = None
        self._spill_lines = 0

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------
    def record(self, kind: str, **fields) -> None:
        """Append one event; never raises (a broken spill disk must
        not take down the serving path)."""
        event = {"t": clock.now(), "kind": kind}
        if fields:
            event.update(fields)
        with self._lock:
            self._events.append(event)
            self.n_recorded += 1
            if self._spill_path is not None:
                self._spill(event)

    @property
    def n_dropped(self) -> int:
        """Events evicted from the ring by newer ones."""
        with self._lock:
            return max(0, self.n_recorded - len(self._events))

    # ------------------------------------------------------------------
    # spill files (replica children)
    # ------------------------------------------------------------------
    def configure_spill(self, path: str, every: int = 1) -> None:
        """Continuously mirror the ring to ``path`` — every ``every``
        events (1 == after each record, the crash-safe default)."""
        with self._lock:
            self._close_spill_file()
            self._spill_path = path
            # At least once per turn of the ring.
            self._spill_every = min(max(1, int(every)), self.capacity)
            self._lines = deque(map(_spill_line, self._events),
                                maxlen=self.capacity)
            self._unspilled = 0

    def _spill(self, event: "dict | None" = None) -> None:
        """Mirror ``event`` (call under ``_lock``; ``None`` forces the
        waiting lines out).  Never raises: a failed write, or an event
        not even ``str`` can render for JSON, is dropped and the next
        spill starts the file over from the lines kept."""
        try:
            if event is not None:
                self._lines.append(_spill_line(event))
                self._unspilled += 1
                if self._unspilled < self._spill_every:
                    return
            pending, self._unspilled = self._unspilled, 0
            if (self._spill_file is not None and
                    self._spill_lines + pending <= 2 * self.capacity):
                self._spill_file.write(b"".join(
                    self._lines[i] for i in range(-pending, 0)))
                self._spill_file.flush()
                self._spill_lines += pending
                return
            # New, or grown to twice the ring: rewrite from the ring.
            header = {"source": self.source, "pid": os.getpid(),
                      "capacity": self.capacity,
                      "n_before": self.n_recorded - len(self._lines)}
            tmp = f"{self._spill_path}.tmp-{os.getpid()}"
            self._close_spill_file()
            self._spill_file = open(tmp, "wb")
            self._spill_file.write(
                _spill_line(header) + b"".join(self._lines))
            self._spill_file.flush()
            os.replace(tmp, self._spill_path)
            self._spill_lines = len(self._lines)
        except (OSError, TypeError, ValueError):
            self._close_spill_file()

    def _close_spill_file(self) -> None:
        handle, self._spill_file = self._spill_file, None
        if handle is not None:
            with contextlib.suppress(OSError):
                handle.close()

    def spill_now(self) -> None:
        """Force a spill write (used right before risky sections)."""
        with self._lock:
            if self._spill_path is not None and (
                    self._unspilled or self._spill_file is None):
                self._spill()

    def remove_spill(self) -> None:
        """Delete the spill file (clean exit: the ring ships home over
        the pipe instead)."""
        with self._lock:
            path, self._spill_path = self._spill_path, None
            self._close_spill_file()
            self._lines.clear()
            self._unspilled = 0
        if path is not None:
            with contextlib.suppress(OSError):
                os.unlink(path)

    # ------------------------------------------------------------------
    # snapshots and segment adoption
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable/JSONable copy of this process's ring."""
        with self._lock:
            events = list(self._events)
            recorded = self.n_recorded
        return {"source": self.source, "pid": os.getpid(),
                "n_recorded": recorded,
                "n_dropped": max(0, recorded - len(events)),
                "events": events}

    def events(self) -> "list[dict]":
        with self._lock:
            return list(self._events)

    def adopt_segment(self, payload: dict,
                      source: "str | None" = None) -> None:
        """Fold another process's :meth:`snapshot` into future dumps
        (later segments from the same source replace earlier ones)."""
        if not isinstance(payload, dict) or "events" not in payload:
            return
        key = source or payload.get("source") or "unknown"
        with self._lock:
            self._segments[str(key)] = payload

    def adopt_spill_file(self, path: str,
                         source: "str | None" = None) -> bool:
        """Adopt a crashed process's spill file; ``False`` when the
        file is missing or unreadable."""
        payload = read_spill(path)
        if payload is None:
            return False
        self.adopt_segment(payload, source=source)
        return True

    def segments(self) -> "list[str]":
        with self._lock:
            return sorted(self._segments)

    # ------------------------------------------------------------------
    # postmortem dumps
    # ------------------------------------------------------------------
    def dump(self, reason: str = "") -> dict:
        """Merge the local ring and every adopted segment into one
        postmortem: segments keyed by source, plus a single
        time-sorted event list with each event tagged ``source``."""
        local = self.snapshot()
        with self._lock:
            segments = {key: dict(value)
                        for key, value in self._segments.items()}
        segments[local["source"]] = local
        merged: "list[dict]" = []
        for key, segment in segments.items():
            for event in segment.get("events", ()):
                tagged = dict(event)
                tagged["source"] = key
                merged.append(tagged)
        merged.sort(key=lambda e: e.get("t", 0.0))
        return {"reason": reason,
                "generated_unix_time": clock.wall(),
                "pid": os.getpid(),
                "n_events": len(merged),
                "segments": segments,
                "events": merged}

    def dump_to(self, path: "str | None" = None,
                reason: str = "") -> str:
        """Write :meth:`dump` as JSON; returns the path written."""
        if path is None:
            directory = os.environ.get("REPRO_FLIGHTREC_DIR",
                                       ".flightrec")
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(
                directory,
                f"flightrec-{os.getpid()}-{self.n_recorded}.json")
        else:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(reason), handle, indent=1,
                      default=str)
        return path

    def clear(self) -> None:
        """Forget everything (tests)."""
        with self._lock:
            self._events.clear()
            self._segments.clear()
            self.n_recorded = 0
            # A configured spill starts over too: the next rewrites.
            self._lines.clear()
            self._unspilled = 0
            self._close_spill_file()


_GLOBAL_RECORDER = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-global flight recorder (every hook records here)."""
    return _GLOBAL_RECORDER


def postmortem(reason: str, path: "str | None" = None) -> "str | None":
    """Best-effort postmortem dump of the global recorder; returns the
    written path, or ``None`` when even that failed."""
    try:
        return get_flight_recorder().dump_to(path, reason=reason)
    except OSError:
        return None
