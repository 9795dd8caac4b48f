"""Async job scheduler: per-tensor dependency tracking, one lock per module.

A *job* is one cluster-level operation (load a tensor, run an op or a
fused expression, gather, free).  It fans out into per-shard *subtasks*,
each bound to the module holding that shard.  A module is owned by a
lock, not by a thread: every subtask runs under its module's lock,
which serializes all mutation of that module's state (cell arrays,
allocator, paging manager, control unit) — so subtasks of *different*
modules run concurrently (numpy releases the GIL in its inner loops,
so on a multi-core host this is real parallelism), while everything
touching one module is totally ordered.

Each module has a worker thread (started on its first queued subtask)
and a count of its queued-or-running subtasks.  A job runs where it is
submitted when it can: with ``caller_runs`` (every cluster verb, and
:meth:`JobScheduler.run`) and the job's dependencies already settled,
each module that is idle (nothing queued or running, lock free) at the
job's first subtask there is claimed by the submitting thread, which
runs *all* of the job's subtasks on it, in order, under that one claim
— after every subtask bound to a busy module has been queued to its
worker.  So a module sees its subtasks in the order its worker would
have, and a settled job on idle modules costs no thread hop.  Raw
:meth:`JobScheduler.submit` (``caller_runs=False``), an unsettled
dependency or a busy module takes the worker path.

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
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.obs.tracing import current_span, use_span

if TYPE_CHECKING:
    from repro.runtime.tensor import DeviceTensor

#: A subtask: (module index, thunk to run under that module's lock).
Subtask = tuple[int, Callable[[], Any]]


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
        # The ambient trace span at submission time.  ContextVars do
        # not cross ThreadPoolExecutor tasks, so each subtask
        # re-activates this span on its worker thread — keeping
        # cluster.dispatch/engine.execute spans attached to the
        # request tree that queued the job.
        self.ctx_span = current_span()
        #: Whether the dispatching thread may run subtasks on idle
        #: modules itself (``caller_runs`` with every dependency settled).
        self.caller_runs = False
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
            self.scheduler._run_held(module_index, self._run_subtask,
                                     subtasks)

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
    """Owns the per-module locks and workers and the tensor dependency
    graph."""

    def __init__(self, n_modules: int) -> None:
        # A ThreadPoolExecutor starts its thread on the first submit, so
        # a module only ever driven by waiting callers never gets one.
        self._executors = [
            ThreadPoolExecutor(max_workers=1,
                               thread_name_prefix=f"simdram-mod{i}")
            for i in range(n_modules)
        ]
        self._module_locks = [threading.Lock() for _ in range(n_modules)]
        #: Subtasks queued or running per module (under ``_lock``).
        self._busy = [0] * n_modules
        #: Subtasks handed to a worker / run by the submitting thread.
        self.subtasks_queued = 0
        self.subtasks_inline = 0
        self._lock = threading.Lock()
        self._outstanding: set[Future] = set()
        self._ids = itertools.count()
        self._closed = False

    # ------------------------------------------------------------------
    # module ownership
    # ------------------------------------------------------------------
    def _place(self, job: _Job
               ) -> dict[int, list[tuple[int, Callable[[], Any]]]]:
        """Queue ``job``'s subtasks to their workers, except — when the
        job lets its caller run — those on a module that is idle at the
        job's first subtask there: such a module is claimed (lock held)
        and the job's ``(index, thunk)`` subtasks on it are returned
        under its index, in order, for the caller to run with
        :meth:`_run_held`."""
        here: dict[int, list[tuple[int, Callable[[], Any]]]] = {}
        with self._lock:
            for index, (module_index, thunk) in enumerate(job.subtasks):
                claimed = here.get(module_index)
                if (claimed is None and job.caller_runs
                        and self._busy[module_index] == 0
                        and self._module_locks[module_index].acquire(
                            blocking=False)):
                    claimed = here[module_index] = []
                self._busy[module_index] += 1
                if claimed is not None:
                    claimed.append((index, thunk))
                    self.subtasks_inline += 1
                else:
                    self.subtasks_queued += 1
                    self._executors[module_index].submit(
                        self._run_queued, module_index, job._run_subtask,
                        [(index, thunk)])
        return here

    def _run_queued(self, module_index: int, run: Callable[..., None],
                    subtasks: list[tuple[int, Callable[[], Any]]]) -> None:
        self._module_locks[module_index].acquire()
        self._run_held(module_index, run, subtasks)

    def _run_held(self, module_index: int, run: Callable[..., None],
                  subtasks: list[tuple[int, Callable[[], Any]]]) -> None:
        """Run subtasks in order under their (already held) module
        lock, then hand the module on."""
        try:
            for index, thunk in subtasks:
                run(index, thunk)
        finally:
            with self._lock:
                self._busy[module_index] -= len(subtasks)
            self._module_locks[module_index].release()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, subtasks: Sequence[Subtask],
               reads: Sequence["DeviceTensor"] = (),
               writes: Sequence["DeviceTensor"] = (),
               finalizer: Callable[[list], Any] | None = None,
               label: str = "", *, caller_runs: bool = False) -> Future:
        """Submit one job; returns its future (result = finalizer output,
        or the list of per-subtask results).

        With ``caller_runs`` and the job's dependencies already settled,
        the subtasks bound to idle modules run on the calling thread
        before this returns (see the module docstring); every other
        subtask, and every subtask without ``caller_runs``, is queued to
        its module's worker.
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
        # — on this thread, so with every dependency settled the caller
        # is the dispatcher and may run subtasks itself.
        job.caller_runs = caller_runs and all(dep.done() for dep in deps)
        job.wait_for(deps)
        return job.future

    def run(self, subtasks: Sequence[Subtask],
            reads: Sequence["DeviceTensor"] = (),
            writes: Sequence["DeviceTensor"] = (),
            finalizer: Callable[[list], Any] | None = None,
            label: str = "") -> Any:
        """:meth:`submit` with ``caller_runs``, then wait: returns the
        job's result, re-raising its failure."""
        return self.submit(subtasks, reads, writes, finalizer, label,
                           caller_runs=True).result()

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
        """Drain outstanding jobs and stop the workers (idempotent).

        Safe to call repeatedly and from several threads at once: the
        first caller flips ``_closed`` (under the same lock ``submit``
        takes, so no new job can slip in), drains what was already
        queued, and shuts the worker executors down; every later call
        returns immediately.  Submission after close raises
        :class:`~repro.errors.ExecutionError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.barrier(raise_on_error=False)
        for executor in self._executors:
            executor.shutdown(wait=True)

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
