"""Streaming inference: multi-step sequences with continuous batching.

A one-shot serving request is a single dispatch; real inference is a
*sequence* — tiled MLP/CNN layers, recurrent steps — where step *t*'s
activation feeds step *t+1* of the same stream.  This module serves
such sequences on top of :class:`~repro.serve.SimdramService`:

* each stream applies one **step kernel** (a fused
  :class:`~repro.core.expr.Expr` whose leaf ``"x"`` is the previous
  step's output; other leaves are static per-stream feeds such as
  weights) ``n_steps`` times;
* every step re-enters the service as an ordinary request, so the
  :class:`~repro.serve.batcher.LanePacker` packs it with *whatever
  else shares its kernel* — steps of other streams, at other step
  indices, and brand-new streams alike.  That is **continuous
  batching**: a stream admitted mid-flight joins the in-flight
  streams' next step instead of waiting for a full drain, and the
  subarray stays wide even as streams start and finish at different
  times.

Deadlines compose: a stream's ``deadline_s`` rides every step (the
remaining budget is re-computed per step), so the service's deadline
admission can shed a lapsed stream's next step, and the stream itself
is failed with :class:`~repro.errors.DeadlineExceeded` the moment its
budget runs out between steps.  Each step is recorded as a
``serve.step`` child of the stream's ``serve.stream`` trace root, so
a multi-step request reads as one span tree in Perfetto; modeled
energy accumulates over the steps into
:attr:`StreamHandle.energy_nj`.

A stream has no thread of its own.  :meth:`StreamingServer.submit`
enqueues step 0 on the caller's thread, through the service's ordinary
admission and validation.  Every later step continues where the last
one resolved: the thread that resolves step *k* (the service's worker,
or a router thread) runs the stream's continuation, and the service
enqueues step *k+1* in the same critical section that frees step *k*'s
admission slot (:meth:`SimdramService._settle`).  Nothing blocks there
— the slot is handed over, never waited for — and nothing dispatches
there: the step joins its tenant queue, prepared already (only ``x``
is re-bound), and the worker packs it with whatever else is waiting.
The steps one dispatch resolved therefore re-enter the packer together
before the worker's next pop.  :meth:`StreamingServer.hold` is the
service's cork, for a batch of new streams.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future
from contextlib import contextmanager

import numpy as np

from repro.core import expr
from repro.core.expr import Expr
from repro.core.fuse import kernel_inputs
from repro.errors import DeadlineExceeded, OperationError
from repro.exec.engines import get_engine
from repro.obs import clock
from repro.obs.flightrec import get_flight_recorder
from repro.obs.tracing import NOOP_SPAN

__all__ = [
    "StreamHandle",
    "StreamingServer",
    "affine_relu_step",
    "stream_golden",
]


def affine_relu_step(shift: int = 1) -> Expr:
    """The reference step kernel: ``relu((x + w) - shift)``.

    One tiled MLP layer in miniature — an affine transform (add the
    weight vector, subtract a constant bias) under a relu.  All three
    ops are width-preserving and relu clamps at zero, so the kernel
    chains to any depth without widening, and its output feeds the
    next step's ``"x"`` unchanged.
    """
    return expr.relu(expr.inp("x") + expr.inp("w") - expr.const(shift))


def stream_golden(step: Expr, x0: np.ndarray, n_steps: int,
                  feeds: "dict | None", width: int) -> np.ndarray:
    """Numpy reference for one stream: fold ``step`` ``n_steps`` times
    over ``x0`` with the catalog's golden models (unsigned encoding,
    like :func:`repro.core.expr.golden`)."""
    x = np.asarray(x0)
    for _ in range(n_steps):
        x = expr.golden(step, {**(feeds or {}), "x": x}, width)
    return x


class StreamHandle:
    """A future for one submitted stream.

    Resolves to the final step's output vector once every step
    completed; re-raises the stream's failure (a poisoned step, or
    :class:`~repro.errors.DeadlineExceeded` when the stream's budget
    lapsed).  Mutable progress fields (``steps_done``, ``energy_nj``)
    are written by the thread that resolved the stream's latest step
    and are safe to read at any time.
    """

    def __init__(self, stream_id: int, tenant: str, step: Expr,
                 x0: np.ndarray, n_steps: int, feeds: dict,
                 width: int, deadline: "float | None") -> None:
        self.stream_id = stream_id
        self.tenant = tenant
        self.n_steps = n_steps
        #: Absolute monotonic SLO deadline for the *whole* sequence.
        self.deadline = deadline
        #: Steps completed so far / modeled energy they consumed.
        self.steps_done = 0
        self.energy_nj: float | None = None
        #: Whether the stream finished within its deadline (``None``
        #: until resolved, or when it carried no deadline).
        self.on_time: bool | None = None
        #: The stream's ``serve.stream`` trace root.
        self.span = NOOP_SPAN
        self._step = step
        self._feeds = feeds
        self._width = width
        self._x = np.asarray(x0)
        #: Operand slot of ``x`` in the step kernel, read once step 0
        #: validated the kernel.
        self._slot: int | None = None
        self._step_span = NOOP_SPAN
        self._future: Future = Future()

    def result(self, timeout: "float | None" = None) -> np.ndarray:
        """Wait for the final activation (re-raising the failure)."""
        return self._future.result(timeout)

    def done(self) -> bool:
        return self._future.done()

    def exception(self, timeout: "float | None" = None
                  ) -> "BaseException | None":
        return self._future.exception(timeout)

    def __repr__(self) -> str:
        if not self._future.done():
            state = f"step {self.steps_done}/{self.n_steps}"
        elif self._future.exception() is not None:
            state = "failed"
        else:
            state = "done"
        return (f"StreamHandle(#{self.stream_id}, "
                f"tenant={self.tenant!r}, {state})")


class StreamingServer:
    """Serve multi-step streams over one :class:`SimdramService` with
    continuous batching (see module docstring).  The server is a
    context manager; closing it drains outstanding streams first.  It
    starts no thread and does not close the wrapped service.
    """

    def __init__(self, service) -> None:
        self.service = service
        self._cond = threading.Condition()
        self._outstanding = 0
        self._closing = False
        self._ids = itertools.count()
        self._engine = get_engine("auto")

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, step: Expr, x0, *, n_steps: int, width: int = 8,
               feeds: "dict | None" = None, tenant: str = "default",
               deadline_s: "float | None" = None) -> StreamHandle:
        """Start one stream; returns its :class:`StreamHandle`.

        ``step`` must draw on a leaf named ``"x"`` (the running
        activation — seeded with ``x0``, then each step's output);
        ``feeds`` binds the step's other leaves (static across steps).
        ``deadline_s`` is the SLO for the whole sequence.

        Step 0 is admitted here, on the caller's thread, as by
        :meth:`SimdramService.submit`: this call blocks while the
        service's ``max_queue`` requests are unresolved.  A step that
        fails validation, is shed or is rejected fails the stream's
        handle, not this call.
        """
        if n_steps < 1:
            raise OperationError(f"n_steps must be >= 1, got {n_steps}")
        names = expr.input_leaves(step)
        if "x" not in names:
            raise OperationError(
                "a stream's step kernel must read the running "
                "activation through a leaf named 'x'")
        if names["x"].width is not None:
            # Steps after the first are fed the previous step's output
            # unchecked: it has the pipeline's width, not a narrower one.
            raise OperationError(
                "a stream's running activation 'x' is each step's own "
                "output; it cannot be a declared leaf")
        feeds = dict(feeds or {})
        extra = set(feeds) | {"x"}
        missing = set(names) - extra
        if missing:
            raise OperationError(
                f"step kernel leaves {sorted(missing)} have no feed")
        now = clock.now()
        deadline = None if deadline_s is None else now + deadline_s
        stream = StreamHandle(next(self._ids), tenant, step, x0,
                              n_steps, feeds, width, deadline)
        stream.span = self.service.tracer.trace(
            "serve.stream", tenant=tenant, stream_id=stream.stream_id,
            n_steps=n_steps)
        with self._cond:
            if self._closing:
                error = OperationError("streaming server is closed")
                stream._future.set_exception(error)
                stream.span.finish(error)
                raise error
            self._outstanding += 1
        get_flight_recorder().record(
            "stream.start", stream=stream.stream_id, tenant=tenant,
            n_steps=n_steps, deadline_s=deadline_s)
        service = self.service
        try:
            raw = service._request(
                step, (), {**feeds, "x": stream._x}, width, str(tenant),
                self._engine, self._open_step(stream),
                then=lambda handle: self._continue(stream, handle))
            service._enqueue(raw)
        except Exception as error:  # noqa: BLE001 - fails this stream
            self._resolve(stream, error=error)
        return stream

    @contextmanager
    def hold(self):
        """Cork the wrapped service (:meth:`SimdramService.hold`).
        :meth:`submit` enqueues a stream's first step before it
        returns, so the first steps of the streams started inside the
        block pack the same way every time."""
        with self.service.hold():
            yield self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: "float | None" = None) -> bool:
        """Wait until every submitted stream resolved; ``False`` on
        timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._outstanding == 0, timeout)

    def close(self) -> None:
        """Refuse new streams and drain outstanding ones (idempotent)."""
        with self._cond:
            self._closing = True
        self.drain()

    def __enter__(self) -> "StreamingServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # steps
    # ------------------------------------------------------------------
    def _continue(self, stream: StreamHandle, handle):
        """The stream's continuation (:meth:`SimdramService._settle`):
        step ``handle`` resolved.  Returns the next step —
        ``(slot, x, deadline_s)`` — or ``None`` once the stream
        resolved.  Runs on the thread that resolved the step; it never
        raises (a failure here fails this stream)."""
        try:
            error = handle.exception()
            if stream._step_span.recording:
                stream._step_span.set(request_id=handle.request_id)
            stream._step_span.finish(error)
            stream._step_span = NOOP_SPAN
            if error is not None:
                self._resolve(stream, error=error)
                return None
            if handle.energy_nj is not None:
                stream.energy_nj = ((stream.energy_nj or 0.0)
                                    + handle.energy_nj)
            stream._x = handle.result()
            stream.steps_done += 1
            if stream.steps_done >= stream.n_steps:
                self._resolve(stream, value=stream._x)
                return None
            if stream._slot is None:
                stream._slot = list(kernel_inputs(
                    stream._step, stream._width)).index("x")
            return stream._slot, stream._x, self._open_step(stream)
        except Exception as error:  # noqa: BLE001 - fails this stream, never hangs it
            self._resolve(stream, error=error)
            return None

    @staticmethod
    def _open_step(stream: StreamHandle) -> "float | None":
        """Open the stream's next ``serve.step`` span; returns what is
        left of the sequence's budget (raises
        :class:`~repro.errors.DeadlineExceeded` once it lapsed)."""
        remaining = None
        if stream.deadline is not None:
            remaining = stream.deadline - clock.now()
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"stream #{stream.stream_id} shed at step "
                    f"{stream.steps_done}/{stream.n_steps}: sequence "
                    f"deadline lapsed")
        stream._step_span = (
            stream.span.child("serve.step", step=stream.steps_done,
                              n_steps=stream.n_steps)
            if stream.span.recording else NOOP_SPAN)
        return remaining

    def _resolve(self, stream: StreamHandle, value=None,
                 error: "BaseException | None" = None) -> None:
        if stream._future.done():
            return
        stream._step_span.finish(error)
        stream._step_span = NOOP_SPAN
        if stream.deadline is not None:
            stream.on_time = (error is None
                              and clock.now() <= stream.deadline)
        if error is not None:
            stream._future.set_exception(error)
            stream.span.finish(error)
            get_flight_recorder().record(
                "stream.shed" if isinstance(error, DeadlineExceeded)
                else "stream.fail",
                stream=stream.stream_id,
                steps_done=stream.steps_done)
        else:
            stream._future.set_result(value)
            stream.span.finish()
            get_flight_recorder().record(
                "stream.done", stream=stream.stream_id,
                steps_done=stream.steps_done,
                on_time=stream.on_time)
        with self._cond:
            self._outstanding -= 1
            self._cond.notify_all()
