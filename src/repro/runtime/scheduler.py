"""Async job scheduler: per-tensor dependency tracking, no threads.

A *job* is one cluster-level operation (load a tensor, run an op or a
fused expression, gather, free).  It fans out into per-shard *subtasks*,
each bound to the module holding that shard.  A module is a busy count
plus a FIFO of waiting subtasks, both under the scheduler's one lock
(flat combining: Hendler, Incze, Shavit and Tzafrir, SPAA 2010).  The
thread dispatching a job claims every idle module the job touches and
runs the job's subtasks there in order; a subtask for a busy module
waits in its FIFO, and the thread holding the module runs it before
letting the module go.  So one module's subtasks are totally ordered,
different modules' may run at once on different callers' threads, and
no thread is started.  A job with unsettled dependencies is dispatched
by the thread that settles the last one.  A thread holding a module
never blocks: the only waits are ``Future.result()`` in
:meth:`JobScheduler.run` and :meth:`JobScheduler.barrier`.

Ordering between jobs is derived from the tensors they touch:

* a job *reading* tensor T runs after T's last writer;
* a job *writing* tensor T runs after T's last writer **and** all of
  T's in-flight readers (no write may overtake a read).

Independent jobs — disjoint tensors — are never ordered against each
other and overlap freely across modules.  A failed job propagates its
exception to every dependent job (and ultimately to whoever waits on
their futures), never deadlocking the queue.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.obs.tracing import current_span, use_span

if TYPE_CHECKING:
    from repro.runtime.tensor import DeviceTensor

#: A subtask: (module index, thunk to run while holding that module).
Subtask = tuple[int, Callable[[], Any]]
#: A placed subtask: (its job, its index in the job, its thunk).
_Placed = tuple["_Job", int, Callable[[], Any]]


class _Job:
    """Internal dispatch state of one submitted job."""

    def __init__(self, scheduler: "JobScheduler", job_id: int, label: str,
                 subtasks: Sequence[Subtask],
                 finalizer: Callable[[list], Any] | None) -> None:
        self.scheduler = scheduler
        self.job_id = job_id
        self.label = label
        self.subtasks = list(subtasks)
        self.finalizer = finalizer
        self.future: Future = Future()
        # The ambient trace span at submission time.  A subtask may run
        # on another caller's thread (the one holding its module, or the
        # one settling the job's last dependency), so each subtask
        # re-activates this span — keeping cluster.dispatch /
        # engine.execute spans attached to the request tree that
        # submitted the job.
        self.ctx_span = current_span()
        self._lock = threading.Lock()
        self._pending_deps = 0
        self._remaining = len(self.subtasks)
        self._results: list[Any] = [None] * len(self.subtasks)
        self._failed = False

    # -- dependency phase ----------------------------------------------
    def wait_for(self, deps: set[Future]) -> None:
        """Arm the job: dispatch once every dependency resolves."""
        self._pending_deps = len(deps)
        if not deps:
            self._dispatch()
            return
        for dep in deps:
            dep.add_done_callback(self._dep_done)

    def _dep_done(self, dep: Future) -> None:
        error = dep.exception()
        if error is not None:
            self._fail(ExecutionError(
                f"job {self.label!r} aborted: a dependency failed "
                f"({error})"))
            return
        with self._lock:
            self._pending_deps -= 1
            ready = self._pending_deps == 0 and not self._failed
        if ready:
            self._dispatch()

    # -- execution phase -----------------------------------------------
    def _dispatch(self) -> None:
        if not self.subtasks:
            self._finish()
            return
        for module_index, subtasks in self.scheduler._place(self).items():
            self.scheduler._run_held(module_index, subtasks)

    def _run_subtask(self, index: int, thunk: Callable[[], Any]) -> None:
        with self._lock:
            if self._failed:
                return
        try:
            with use_span(self.ctx_span):
                result = thunk()
        except BaseException as error:  # propagated via the future
            self._fail(error)
            return
        with self._lock:
            self._results[index] = result
            self._remaining -= 1
            done = self._remaining == 0 and not self._failed
        if done:
            self._finish()

    def _finish(self) -> None:
        try:
            output = (self.finalizer(self._results)
                      if self.finalizer else self._results)
        except BaseException as error:
            self._fail(error)
            return
        self.future.set_result(output)
        self.scheduler._job_done(self.future)

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            if self._failed:
                return
            self._failed = True
        self.future.set_exception(error)
        self.scheduler._job_done(self.future)


class JobScheduler:
    """Owns the per-module busy counts and FIFOs and the tensor
    dependency graph."""

    def __init__(self, n_modules: int) -> None:
        #: Subtasks waiting or running per module (under ``_lock``); a
        #: module is held while its count is above zero.
        self._busy = [0] * n_modules
        #: Subtasks waiting for a held module, per module (under
        #: ``_lock``).
        self._waiting: list[deque[_Placed]] = [
            deque() for _ in range(n_modules)]
        #: Subtasks that waited for a held module / ran on the thread
        #: that dispatched their job.
        self.subtasks_queued = 0
        self.subtasks_inline = 0
        self._lock = threading.Lock()
        self._outstanding: set[Future] = set()
        self._ids = itertools.count()
        self._closed = False

    # ------------------------------------------------------------------
    # module ownership
    # ------------------------------------------------------------------
    def _place(self, job: _Job) -> dict[int, list[_Placed]]:
        """Append ``job``'s subtasks on busy modules to their FIFOs and
        claim every idle module it touches: the job's subtasks on a
        claimed module are returned under its index, in order, for the
        dispatching thread to run with :meth:`_run_held`."""
        here: dict[int, list[_Placed]] = {}
        with self._lock:
            for index, (module_index, thunk) in enumerate(job.subtasks):
                claimed = here.get(module_index)
                if claimed is None and self._busy[module_index] == 0:
                    claimed = here[module_index] = []
                self._busy[module_index] += 1
                if claimed is not None:
                    claimed.append((job, index, thunk))
                    self.subtasks_inline += 1
                else:
                    self._waiting[module_index].append((job, index, thunk))
                    self.subtasks_queued += 1
        return here

    def _run_held(self, module_index: int,
                  subtasks: list[_Placed]) -> None:
        """Run subtasks in order on a module this thread holds, then
        whatever waited for it meanwhile.  The count covers waiting and
        running subtasks alike, so it reaches zero — the module is let
        go — only in the same critical section that finds none waiting."""
        waiting = self._waiting[module_index]
        while subtasks:
            for job, index, thunk in subtasks:
                job._run_subtask(index, thunk)
            with self._lock:
                self._busy[module_index] -= len(subtasks)
                subtasks = list(waiting)
                waiting.clear()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, subtasks: Sequence[Subtask],
               reads: Sequence["DeviceTensor"] = (),
               writes: Sequence["DeviceTensor"] = (),
               finalizer: Callable[[list], Any] | None = None,
               label: str = "") -> Future:
        """Submit one job; returns its future (result = finalizer output,
        or the list of per-subtask results).

        With the job's dependencies already settled, the subtasks bound
        to idle modules run on the calling thread before this returns,
        and every other subtask waits in its module's FIFO (see the
        module docstring).
        """
        job = _Job(self, next(self._ids), label, subtasks, finalizer)
        with self._lock:
            if self._closed:
                raise ExecutionError("scheduler is closed")
            deps: set[Future] = set()
            for tensor in reads:
                if tensor.last_writer is not None:
                    deps.add(tensor.last_writer)
            for tensor in writes:
                if tensor.last_writer is not None:
                    deps.add(tensor.last_writer)
                deps.update(tensor.reader_futures)
            deps.discard(job.future)
            for tensor in reads:
                # Prune settled readers so long-lived tensors that are
                # read many times between writes don't accumulate them.
                tensor.reader_futures = [
                    f for f in tensor.reader_futures if not f.done()]
                tensor.reader_futures.append(job.future)
            for tensor in writes:
                tensor.last_writer = job.future
                tensor.reader_futures = []
            self._outstanding.add(job.future)
        # Arm outside the lock: already-done dependencies run their
        # callbacks inline, which may dispatch (and even finish) the job
        # on this thread.
        job.wait_for(deps)
        return job.future

    def run(self, subtasks: Sequence[Subtask],
            reads: Sequence["DeviceTensor"] = (),
            writes: Sequence["DeviceTensor"] = (),
            finalizer: Callable[[list], Any] | None = None,
            label: str = "") -> Any:
        """:meth:`submit`, then wait: returns the job's result,
        re-raising its failure."""
        return self.submit(subtasks, reads, writes, finalizer,
                           label).result()

    def _job_done(self, future: Future) -> None:
        with self._lock:
            self._outstanding.discard(future)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def barrier(self, raise_on_error: bool = True) -> None:
        """Wait until every job submitted so far has finished."""
        while True:
            with self._lock:
                pending = list(self._outstanding)
            if not pending:
                return
            for future in pending:
                if raise_on_error:
                    future.result()
                else:
                    try:
                        future.result()
                    except BaseException:
                        pass

    @property
    def n_outstanding(self) -> int:
        with self._lock:
            return len(self._outstanding)

    def close(self) -> None:
        """Drain outstanding jobs (idempotent).

        Safe to call repeatedly and from several threads at once: the
        first caller flips ``_closed`` (under the same lock ``submit``
        takes, so no new job can slip in) and drains what was already
        submitted; every later call returns immediately.  Submission
        after close raises :class:`~repro.errors.ExecutionError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.barrier(raise_on_error=False)

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
