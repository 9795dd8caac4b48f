"""In-memory span trees for per-request, per-stage timing.

A :class:`Span` is one timed stage of a request (``serve.admit``,
``router.place``, ``engine.execute``, ...).  Spans form a tree: the
root is the request itself and children are the stages it passed
through, possibly recorded in other threads or — via
:meth:`Span.to_dict` / :meth:`Span.from_dict` — in forked replica
processes, whose monotonic timestamps are directly comparable with the
parent's (see :mod:`repro.obs.clock`).

The ambient *current span* lives in a :class:`contextvars.ContextVar`.
Instrumentation sites call the module-level :func:`span` helper, which
is the no-op fast path: when nothing upstream opened a recording span
it returns a shared inert singleton without allocating, so tracing
that is switched off costs one context-variable read per site.

:class:`Tracer` owns the on/off switch, deterministic sampling (an
accumulator, not a PRNG, so ``sample_rate=0.5`` traces exactly every
other request) and a bounded deque of finished root spans that the
exporters drain.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections import deque
from typing import Any, Iterator

from . import clock
from .flightrec import get_flight_recorder

#: Children kept per span before further ones are counted but dropped;
#: guards the serve loop against a runaway instrumentation site.
MAX_CHILDREN = 256


class Span:
    """One timed, attributed stage in a request's trace tree."""

    __slots__ = ("name", "attrs", "t0", "t1", "status", "error",
                 "children", "parent", "pid", "tid", "n_dropped",
                 "_sink", "_token")

    def __init__(self, name: str, attrs: "dict[str, Any] | None" = None,
                 parent: "Span | None" = None, _sink=None) -> None:
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.t0 = clock.now()
        self.t1: "float | None" = None
        self.status = "ok"
        self.error: "str | None" = None
        self.children: list[Span] = []
        self.parent = parent
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.n_dropped = 0
        self._sink = _sink

    # -- recording protocol ------------------------------------------------
    @property
    def recording(self) -> bool:
        return True

    @property
    def finished(self) -> bool:
        return self.t1 is not None

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def child(self, name: str, **attrs: Any) -> "Span":
        """Open a child stage under this span."""
        if len(self.children) >= MAX_CHILDREN:
            self.n_dropped += 1
            return NOOP_SPAN  # type: ignore[return-value]
        child = Span(name, attrs, parent=self)
        self.children.append(child)
        return child

    def adopt(self, child: "Span") -> "Span":
        """Attach an externally-built subtree (e.g. deserialized from a
        replica child process, or the packed dispatch every co-packed
        request shares by reference — whose ``parent`` is then the last
        adopter) under this span."""
        child.parent = self
        if len(self.children) >= MAX_CHILDREN:
            self.n_dropped += 1
        else:
            self.children.append(child)
        return child

    def fail(self, error: "BaseException | str") -> "Span":
        self.status = "error"
        self.error = (f"{type(error).__name__}: {error}"
                      if isinstance(error, BaseException) else str(error))
        return self

    def finish(self, error: "BaseException | str | None" = None) -> "Span":
        """Close the span (idempotent).  Root spans report themselves
        to their tracer sink on first finish."""
        if error is not None:
            self.fail(error)
        if self.t1 is None:
            self.t1 = clock.now()
            if self._sink is not None:
                self._sink(self)
        return self

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "Span":
        self._token = _current.set(self)  # type: ignore[attr-defined]
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _current.reset(self._token)  # type: ignore[attr-defined]
        self.finish(exc if exc is not None else None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.duration * 1e3:.3f}ms" if self.finished else "open"
        return (f"Span({self.name!r}, {state}, status={self.status!r}, "
                f"children={len(self.children)})")

    # -- (de)serialization across the process boundary ---------------------
    def to_dict(self) -> dict[str, Any]:
        """Pickle-friendly tree encoding shipped over the replica pipe."""
        out: dict[str, Any] = {
            "name": self.name, "t0": self.t0, "t1": self.t1,
            "status": self.status, "pid": self.pid, "tid": self.tid,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        if self.n_dropped:
            out["n_dropped"] = self.n_dropped
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        span = cls.__new__(cls)
        span.name = data["name"]
        span.attrs = dict(data.get("attrs", ()))
        span.t0 = data["t0"]
        span.t1 = data.get("t1")
        span.status = data.get("status", "ok")
        span.error = data.get("error")
        span.pid = data.get("pid", os.getpid())
        span.tid = data.get("tid", 0)
        span.n_dropped = data.get("n_dropped", 0)
        span.parent = None
        span._sink = None
        span.children = [cls.from_dict(c) for c in data.get("children", ())]
        for child in span.children:
            child.parent = span
        return span

    # -- queries (tests / exporters) ---------------------------------------
    def walk(self) -> "Iterator[Span]":
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def find_all(self, name: str) -> "list[Span]":
        return [node for node in self.walk() if node.name == name]

    def stage_names(self) -> "list[str]":
        """Distinct span names in this tree, in depth-first order."""
        seen: dict[str, None] = {}
        for node in self.walk():
            seen.setdefault(node.name)
        return list(seen)


class _NoopSpan:
    """Shared inert span: every mutator is a no-op and ``child`` returns
    itself, so unsampled call trees cost no allocations."""

    __slots__ = ()
    name = "noop"
    attrs: dict[str, Any] = {}
    children: "list[Span]" = []
    parent = None
    status = "ok"
    error = None
    t0 = 0.0
    t1 = 0.0
    pid = 0
    tid = 0
    n_dropped = 0

    @property
    def recording(self) -> bool:
        return False

    @property
    def finished(self) -> bool:
        return True

    @property
    def duration(self) -> float:
        return 0.0

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def child(self, name: str, **attrs: Any) -> "_NoopSpan":
        return self

    def adopt(self, child: "Span") -> "Span":
        return child

    def fail(self, error: "BaseException | str") -> "_NoopSpan":
        return self

    def finish(self, error=None) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NoopSpan()"


#: The singleton inert span returned by every no-op fast path.
NOOP_SPAN = _NoopSpan()

_current: "contextvars.ContextVar[Span | _NoopSpan]" = \
    contextvars.ContextVar("repro_obs_span", default=NOOP_SPAN)


def current_span() -> "Span | _NoopSpan":
    """The ambient span for this thread/task (noop when untraced)."""
    return _current.get()


class use_span:
    """Context manager making ``span`` the ambient span without touching
    its lifetime — used to re-activate a captured span in a scheduler
    subtask run on another caller's thread, or a packed-dispatch
    closure."""

    __slots__ = ("_span", "_token")

    def __init__(self, span: "Span | _NoopSpan") -> None:
        self._span = span

    def __enter__(self) -> "Span | _NoopSpan":
        self._token = _current.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        _current.reset(self._token)


def span(name: str, **attrs: Any) -> "Span | _NoopSpan":
    """Open a child stage under the ambient span.

    The universal instrumentation entry point: returns a context
    manager that records ``name`` when a trace is active, and the
    shared :data:`NOOP_SPAN` (one ContextVar read, zero allocation)
    when it is not.
    """
    parent = _current.get()
    if not parent.recording:
        return NOOP_SPAN
    return parent.child(name, **attrs)


class Tracer:
    """Owns trace collection: the on/off switch, deterministic
    sampling, and a bounded buffer of finished request trees."""

    def __init__(self, enabled: bool = False, sample_rate: float = 1.0,
                 max_traces: int = 4096) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], "
                             f"got {sample_rate}")
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.max_traces = max_traces
        self._acc = 0.0
        self._lock = threading.Lock()
        self._finished: "deque[Span]" = deque(maxlen=max_traces)
        self.n_started = 0
        self.n_unsampled = 0
        #: Finished roots evicted from the bounded buffer unseen.
        self.n_buffer_dropped = 0
        #: Children discarded by the per-span ``MAX_CHILDREN`` cap,
        #: accumulated over recorded trees.
        self.n_child_dropped = 0

    # -- sampling ----------------------------------------------------------
    def _sampled(self) -> bool:
        """Deterministic rate limiter: an accumulator instead of a PRNG
        so ``sample_rate=0.25`` keeps exactly every fourth request and
        tests never flake."""
        with self._lock:
            self._acc += self.sample_rate
            if self._acc >= 1.0:
                self._acc -= 1.0
                return True
            self.n_unsampled += 1
            return False

    # -- span creation -----------------------------------------------------
    def trace(self, name: str, **attrs: Any) -> "Span | _NoopSpan":
        """Start a root span for a new request (or the noop singleton
        when disabled/unsampled).  Use as a context manager, or pair
        with an explicit ``finish()``; finished roots land in the
        buffer that :meth:`drain` empties."""
        if not self.enabled or not self._sampled():
            return NOOP_SPAN
        with self._lock:
            self.n_started += 1
        return Span(name, attrs, _sink=self._record)

    def start_detached(self, name: str, **attrs: Any) -> "Span | _NoopSpan":
        """A recording span that is *not* a buffered root — its subtree
        is grafted into request trees by the caller (the lane packer's
        shared dispatch trace)."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(name, attrs)

    def _record(self, root: Span) -> None:
        with self._lock:
            if (self.max_traces
                    and len(self._finished) >= self.max_traces):
                self.n_buffer_dropped += 1
            self._finished.append(root)
            self.n_child_dropped += sum(
                node.n_dropped for node in root.walk())
        # Span edge → flight recorder: root completions are the
        # black-box breadcrumb trail of the request pipeline.
        duration = (root.t1 - root.t0
                    if root.t1 is not None and root.t0 is not None
                    else None)
        get_flight_recorder().record("span.root", name=root.name,
                                     duration_s=duration)

    def drop_stats(self) -> "dict[str, int]":
        """Silent-loss counters (exported as
        ``repro_trace_dropped_total{reason=...}``)."""
        with self._lock:
            return {"buffer": self.n_buffer_dropped,
                    "children": self.n_child_dropped}

    # -- consumption -------------------------------------------------------
    def finished_traces(self) -> "list[Span]":
        with self._lock:
            return list(self._finished)

    def drain(self) -> "list[Span]":
        """Return and clear the finished-trace buffer."""
        with self._lock:
            out = list(self._finished)
            self._finished.clear()
            return out

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._acc = 0.0
            self.n_started = 0
            self.n_unsampled = 0
            self.n_buffer_dropped = 0
            self.n_child_dropped = 0


#: Process-wide default tracer; disabled (and therefore free) unless a
#: service, CLI flag, or test switches it on.
_GLOBAL_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return _GLOBAL_TRACER
