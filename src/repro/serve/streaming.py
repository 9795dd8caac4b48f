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
  times;
* the baseline it beats is **drain-between-steps**
  (``drain_between_steps=True``): streams advance in lockstep
  generations and newly submitted streams wait until the whole active
  generation has finished every step — each generation's partial
  waves dispatch at whatever width the generation happens to have.

Deadlines compose: a stream's ``deadline_s`` rides every step (the
remaining budget is re-computed per step), so the service's SLO-aware
admission can shed a lapsed stream's next step, and the stream itself
is failed with :class:`~repro.errors.DeadlineExceeded` the moment its
budget runs out between steps.  Each step is recorded as a
``serve.step`` child of the stream's ``serve.stream`` trace root, so
a multi-step request reads as one span tree in Perfetto; modeled
energy accumulates over the steps into
:attr:`StreamHandle.energy_nj`.

All submissions into the service happen on one dedicated pump thread
— never on the thread resolving a step's handle (a service worker or
router thread), which must not block on admission control.  The pump
corks the service (:meth:`SimdramService.hold`) around each burst of
events it finds waiting, so the steps one dispatch resolved together
re-enter the packer together instead of racing the worker one by one;
:meth:`StreamingServer.hold` extends the same cork to a batch of new
streams.
"""

from __future__ import annotations

import itertools
import queue
import threading
from collections import deque
from concurrent.futures import Future
from contextlib import contextmanager

import numpy as np

from repro.core import expr
from repro.core.expr import Expr
from repro.errors import DeadlineExceeded, OperationError
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
    are written by the pump thread and are safe to read at any time.
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
    """Serve multi-step streams over one :class:`SimdramService`.

    ``drain_between_steps=False`` (the default) is continuous
    batching; ``True`` is the lockstep-generation baseline (see
    module docstring).  The server owns a pump thread and is a
    context manager; closing it drains outstanding streams first.
    It does not close the wrapped service.
    """

    def __init__(self, service, *,
                 drain_between_steps: bool = False) -> None:
        self.service = service
        self.drain_between_steps = drain_between_steps
        self._events: "queue.Queue" = queue.Queue()
        self._cond = threading.Condition()
        self._outstanding = 0
        self._closing = False
        self._ids = itertools.count()
        #: Drain mode: the active lockstep generation and the streams
        #: waiting for it to fully finish.
        self._active: "list[StreamHandle]" = []
        self._waiting: "deque[StreamHandle]" = deque()
        self._barrier_left = 0
        self._pump = threading.Thread(target=self._run,
                                      name="simdram-stream",
                                      daemon=True)
        self._pump.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, step: Expr, x0, *, n_steps: int, width: int = 8,
               feeds: "dict | None" = None, tenant: str = "default",
               deadline_s: "float | None" = None) -> StreamHandle:
        """Queue one stream; returns its :class:`StreamHandle`.

        ``step`` must draw on a leaf named ``"x"`` (the running
        activation — seeded with ``x0``, then each step's output);
        ``feeds`` binds the step's other leaves (static across steps).
        ``deadline_s`` is the SLO for the whole sequence.
        """
        if n_steps < 1:
            raise OperationError(f"n_steps must be >= 1, got {n_steps}")
        names = expr.input_names(step)
        if "x" not in names:
            raise OperationError(
                "a stream's step kernel must read the running "
                "activation through a leaf named 'x'")
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
        self._events.put(("start", stream, None))
        return stream

    @contextmanager
    def hold(self):
        """Cork the wrapped service until the pump has submitted the
        first step of every stream started inside the block, so those
        steps pack the same way every time (the streaming counterpart
        of :meth:`SimdramService.hold`)."""
        with self.service.hold():
            yield self
            caught_up = threading.Event()
            self._events.put(("sync", caught_up, None))
            # A pump that close() already stopped will never answer.
            while not caught_up.wait(0.05) and self._pump.is_alive():
                pass

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
        """Drain outstanding streams, stop the pump (idempotent)."""
        with self._cond:
            if self._closing:
                already = True
            else:
                already = False
                self._closing = True
        self.drain()
        if not already:
            self._events.put(None)
            self._pump.join()

    def __enter__(self) -> "StreamingServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the pump: every service.submit happens here
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            event = self._events.get()
            # One cork per burst: everything already waiting is
            # submitted before the service's worker pops any of it.
            with self.service.hold():
                while event is not None:
                    self._handle(*event)
                    try:
                        event = self._events.get_nowait()
                    except queue.Empty:
                        break
            if event is None:
                return

    def _handle(self, kind: str, stream, handle) -> None:
        if kind == "sync":
            stream.set()  # a hold() waiting for the pump to catch up
            return
        try:
            if kind == "start":
                self._on_start(stream)
            else:
                self._on_step_done(stream, handle)
        except BaseException as error:  # noqa: BLE001 - never hang
            # A pump failure must not strand callers blocked on
            # stream handles: the stream that triggered it fails.
            self._resolve(stream, error=error)

    def _on_start(self, stream: StreamHandle) -> None:
        if not self.drain_between_steps:
            self._submit_step(stream)
            return
        self._waiting.append(stream)
        if not self._active:
            self._launch_wave()

    def _on_step_done(self, stream: StreamHandle, handle) -> None:
        error = handle.exception()
        stream._step_span.finish(error)
        stream._step_span = NOOP_SPAN
        if error is None:
            if handle.energy_nj is not None:
                stream.energy_nj = ((stream.energy_nj or 0.0)
                                    + handle.energy_nj)
            stream._x = handle.result()
            stream.steps_done += 1
        if self.drain_between_steps:
            self._barrier_step(stream, error)
            return
        if error is not None:
            self._resolve(stream, error=error)
        elif stream.steps_done >= stream.n_steps:
            self._resolve(stream, value=stream._x)
        else:
            self._submit_step(stream)

    # -- continuous / shared -----------------------------------------------
    def _submit_step(self, stream: StreamHandle) -> bool:
        """Submit the stream's next step; resolves the stream (shed or
        failed) and returns ``False`` when nothing was submitted."""
        remaining = None
        if stream.deadline is not None:
            remaining = stream.deadline - clock.now()
            if remaining <= 0:
                self._resolve(stream, error=DeadlineExceeded(
                    f"stream #{stream.stream_id} shed at step "
                    f"{stream.steps_done}/{stream.n_steps}: sequence "
                    f"deadline lapsed"))
                return False
        stream._step_span = (
            stream.span.child("serve.step", step=stream.steps_done,
                              n_steps=stream.n_steps)
            if stream.span.recording else NOOP_SPAN)
        try:
            handle = self.service.submit(
                stream._step,
                feeds={**stream._feeds, "x": stream._x},
                width=stream._width, tenant=stream.tenant,
                deadline_s=remaining)
        except Exception as error:  # noqa: BLE001 - fails this stream
            self._resolve(stream, error=error)
            return False
        if stream._step_span.recording:
            stream._step_span.set(request_id=handle.request_id)
        # The callback fires on whatever thread resolves the handle;
        # it only enqueues — the pump does the next submit.
        handle.add_done_callback(
            lambda h, s=stream: self._events.put(("step", s, h)))
        return True

    def _resolve(self, stream: StreamHandle, value=None,
                 error: "BaseException | None" = None) -> None:
        if stream._future.done():
            return
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

    # -- drain-between-steps baseline --------------------------------------
    def _barrier_step(self, stream: StreamHandle,
                      error: "BaseException | None") -> None:
        """One step of the active generation came back; advance the
        lockstep barrier and, once the wave is complete, either launch
        the generation's next step or (generation fully done) promote
        the waiting streams."""
        if error is not None:
            self._resolve(stream, error=error)
        elif stream.steps_done >= stream.n_steps:
            self._resolve(stream, value=stream._x)
        self._barrier_left -= 1
        if self._barrier_left == 0:
            self._launch_wave()

    def _launch_wave(self) -> None:
        """Drain mode: submit the next step for every live stream of
        the active generation; when the generation is exhausted, the
        waiting streams become the next one (a full drain between
        admissions — the baseline continuous batching removes)."""
        while True:
            self._active = [s for s in self._active if not s.done()]
            if not self._active:
                if not self._waiting:
                    return
                self._active = list(self._waiting)
                self._waiting.clear()
            launched = sum(1 for s in list(self._active)
                           if self._submit_step(s))
            if launched:
                self._barrier_left = launched
                return
            # Every stream of the wave shed at submission (deadline
            # lapsed during the previous generation); try the next.
