"""Multi-process replication: N ``SimdramCluster`` replicas.

Everything below the serving layer runs in one Python process, so
callers' threads on different modules only overlap the numpy portions
of a dispatch — the Python fraction still serializes on the GIL.  This
module is the scale-out answer: a :class:`ReplicaSet` spawns N
replicas, each a full :class:`~repro.runtime.cluster.SimdramCluster`
living in its **own process**, and gives the parent a thread-safe
transport to them:

* **work descriptors** travel over a duplex pipe as pickled
  :class:`WorkDescriptor` objects — a catalog op name or a whole
  :class:`~repro.core.expr.Expr` DAG, the pipeline width and the
  execution-engine name (engine *instances* never cross the
  boundary; each replica resolves the name locally);
* **tensor payloads** travel through POSIX shared memory: one
  long-lived :class:`Slab` per replica, created by the parent at spawn
  — the parent writes a dispatch's operand vectors into a free slot of
  it, the replica maps them as ndarrays with zero deserialization cost
  and writes the result into the same slot (protocol above the class);
* **health** is a heartbeat loop: every :data:`HEARTBEAT_S` a monitor
  thread pings every replica and checks its process; a broken pipe, a
  dead process or (when ``max_silent_s`` is set) a prolonged silence
  marks the replica dead, fails nothing silently, and hands its
  in-flight jobs (none for an idle death) to a death handler — the
  serving router's failover hook, which reports every death to the
  service's failover count — or, absent one, fails their futures with
  :class:`~repro.errors.ReplicaError`;
* **warmup**: the parent runs Steps 1+2 once for every kernel of the
  spawn manifest and of :meth:`ReplicaSet.warm`, keeping one table of
  compiled :class:`~repro.core.fuse.Kernel` records; each replica
  adopts those kernels (through the fork at spawn, pickled in a
  ``warm`` message later — only those it does not hold yet) and
  builds only its own execution plans and executors, so a fresh
  replica's first dispatch replays a warm pipeline.  A kernel nobody
  warmed compiles in the replica on its first dispatch.

The parent keeps every in-flight job's descriptor *and* payload until
it resolves, so a job lost to a dying replica can be re-sent to a
survivor byte-for-byte — the property the failover drill gates on.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import pickle
import shutil
import signal
import tempfile
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from multiprocessing.shared_memory import SharedMemory
from typing import Callable, Sequence

import numpy as np

from repro.core.expr import Expr
from repro.core.framework import SimdramConfig, compile_for
from repro.core.fuse import Kernel, KernelSource, kernel_identity
from repro.errors import OperationError, ReplicaError
from repro.obs import clock
from repro.obs.flightrec import get_flight_recorder
from repro.obs.tracing import NOOP_SPAN, Span, current_span, use_span

#: (offset, shape, dtype string) of one vector inside a slab segment.
SlotMeta = tuple[int, tuple[int, ...], str]


@dataclass(frozen=True)
class WorkDescriptor:
    """One dispatch, in the form that crosses the process boundary.

    The wire format names the kernel as ``kind`` ``"op"`` + ``op_name``
    (a catalog operation) or ``"expr"`` + ``root`` (a fused DAG) —
    read it through :attr:`op` — and binds the payload vectors by leaf
    name when ``slot_names`` is given, positionally (operand-slot
    order) otherwise.  ``engine`` is an execution-engine *name* —
    the replica resolves it locally.
    """

    kind: str
    op_name: str | None
    root: Expr | None
    slot_names: tuple[str, ...]
    width: int
    engine: str
    #: Trace context crossing the process boundary: when True, the
    #: replica records a local ``replica.execute`` span tree for this
    #: job and ships it back (serialized) inside the result payload.
    traced: bool = False
    #: Absolute monotonic SLO deadline of the pack's requests (or
    #: ``None``): failover consults it so a job whose budget lapsed
    #: while its replica died is shed instead of re-homed.
    deadline: float | None = None

    @classmethod
    def of(cls, op: "str | Expr", width: int, engine: str,
           deadline: float | None = None) -> "WorkDescriptor":
        """The descriptor of a dispatch of ``op`` over vectors in
        operand-slot order."""
        named = isinstance(op, str)
        return cls(kind="op" if named else "expr",
                   op_name=op if named else None,
                   root=None if named else op, slot_names=(),
                   width=width, engine=engine, deadline=deadline)

    @property
    def op(self) -> "str | Expr":
        return self.op_name if self.kind == "op" else self.root

    def label(self) -> str:
        op = self.op
        return op if isinstance(op, str) else f"expr@{self.width}"


@dataclass
class PendingJob:
    """Parent-side record of one in-flight dispatch (kept until the
    job resolves so failover can re-send it byte-for-byte)."""

    job_id: int
    desc: WorkDescriptor
    vectors: list[np.ndarray]
    lanes: int
    future: Future
    #: Where the payload sits while the job is in flight: the slab
    #: generation and the slot in it (held until the job resolves).
    slab: "Slab | None" = None
    slot: int = -1
    #: Replica ids this job has already died on (failover audit trail).
    attempts: list[int] = field(default_factory=list)
    #: The job's ``replica.transport`` span: opened at submission,
    #: closed when the result lands (or failed when the replica dies —
    #: the router's retry span re-parents it then).
    span: object = NOOP_SPAN


# ---------------------------------------------------------------------------
# shared-memory ndarray transport: one slab per replica
#
# A slab is two segments of equal shape, ``operands`` (parent writes,
# replica reads) and ``results`` (replica writes, parent reads), each
# ``n_slots`` slots of ``slot_bytes``.  A slot belongs to one job from
# ``submit`` until that job resolves: the parent takes a free slot,
# writes the job id and the operand vectors into it and names slab and
# slot in the job message; the replica checks the id, computes, writes
# the id and the result into the *same slot* of ``results``; the parent
# checks the id again, copies the result out once and frees the slot.
# A slot is therefore reused only after the replica has answered for
# it, a replica's slabs die with it (``_mark_dead``), and the id in the
# slot head means an answer is only ever read as the job that asked.
#
# Ownership: the parent creates every segment and is the only process
# that unlinks one — when a generation is replaced and its last job has
# resolved, and in ``_mark_dead``/``close``.  The replica only attaches
# (by the names in the job message) and closes.  Nothing is created,
# attached or unlinked per dispatch, so there is no per-dispatch
# resource-tracker traffic and no books to balance: the replica shares
# the parent's tracker (every start method hands it down), where its
# attach re-registers a name the parent registered and the parent's
# ``unlink`` unregisters.
#
# Growth: a payload larger than a slot, or a burst that finds no slot
# free, makes the parent open a larger *generation* (new segments) and
# retire the current one, which lives on until the jobs already in it
# resolve.  Every job message names its generation, so the replica
# switches by attaching what the message names — concurrent submitters
# need no ordering between "new slab" and "job" on the pipe.
# ---------------------------------------------------------------------------
#: Slots of a replica's first slab: the router keeps at most two packs
#: per replica outstanding (``ReplicaRouter.ready``); failover and
#: direct callers may hold more, and then the slab grows.
SLAB_SLOTS = 4
#: Bytes at the head of a slot holding the owning job's id.
_TAG_BYTES = 8


def _aligned(nbytes: int) -> int:
    return -(-nbytes // 8) * 8


class Slab:
    """One slab generation (protocol above).  The parent creates it
    with a size; the replica attaches the ``wire`` a job names."""

    def __init__(self, n_slots: int = 0, slot_bytes: int = 0,
                 wire: "tuple[str, str, int] | None" = None) -> None:
        if wire is None:
            slot_bytes = _aligned(slot_bytes)
            self.operands, self.results = (
                SharedMemory(create=True, size=n_slots * slot_bytes)
                for _ in range(2))
        else:
            self.operands = SharedMemory(name=wire[0])
            self.results = SharedMemory(name=wire[1])
            slot_bytes = wire[2]
        self.n_slots, self.slot_bytes = n_slots, slot_bytes
        self.wire = (self.operands.name, self.results.name, slot_bytes)
        # Parent side, under the ReplicaSet lock: the slots no job
        # holds, and whether a larger generation has replaced this one
        # (it then takes no new job and is unlinked when its last slot
        # comes back).
        self.free = list(range(n_slots))
        self.retired = False

    def write(self, shm: SharedMemory, slot: int, job_id: int,
              vectors: Sequence[np.ndarray]) -> list[SlotMeta]:
        """Tag ``slot`` of segment ``shm`` with ``job_id`` and copy
        ``vectors`` in behind the tag; returns where each one went."""
        base = slot * self.slot_bytes
        offset, metas = base + _TAG_BYTES, []
        for vector in vectors:
            if offset + vector.nbytes > base + self.slot_bytes:
                raise ReplicaError(f"job {job_id}: payload does not fit "
                                   f"its {self.slot_bytes}-byte slot")
            np.ndarray(vector.shape, dtype=vector.dtype, buffer=shm.buf,
                       offset=offset)[...] = vector
            metas.append((offset, vector.shape, vector.dtype.str))
            offset += _aligned(vector.nbytes)
        np.ndarray((), dtype=np.int64, buffer=shm.buf,
                   offset=base)[...] = job_id
        return metas

    def read(self, shm: SharedMemory, slot: int, job_id: int,
             metas: Sequence[SlotMeta]) -> list[np.ndarray]:
        """Copy a job's vectors out of ``slot`` — if its tag still
        says it is that job's."""
        tag = int(np.ndarray((), dtype=np.int64, buffer=shm.buf,
                             offset=slot * self.slot_bytes))
        if tag != job_id:
            raise ReplicaError(
                f"slot holds job {tag}'s payload, not job {job_id}'s")
        return [np.ndarray(shape, dtype=np.dtype(dt), buffer=shm.buf,
                           offset=offset).copy()
                for offset, shape, dt in metas]

    def close(self, unlink: bool = False) -> None:
        for shm in (self.operands, self.results):
            shm.close()
            if unlink:
                with contextlib.suppress(FileNotFoundError):
                    shm.unlink()


def _sendable(error: BaseException) -> BaseException:
    """An exception safe to pickle through the pipe (original when
    possible, a :class:`ReplicaError` carrying its repr otherwise)."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 - any pickle/reconstruct failure
        return ReplicaError(f"{type(error).__name__}: {error}")


# ---------------------------------------------------------------------------
# the replica process
# ---------------------------------------------------------------------------
def _warm_manifest(cluster, kernels: Sequence[tuple[Kernel, str]]) -> int:
    """Fill a replica's caches from ``(kernel, engine)`` pairs the
    parent compiled: adopt each kernel, warm each module's executor.
    Returns the kernel count."""
    for kernel, engine in kernels:
        cluster.warm_executor(cluster.adopt(kernel), engine)
    return len(kernels)


def _replica_info(cluster) -> dict:
    paging = cluster.paging_stats()
    return {
        "pid": os.getpid(),
        "busy_ns": cluster.makespan_ns(),
        "kernels_cached": cluster.kernel_cache_size,
        "paging": {
            "n_spills": paging.n_spills,
            "n_fills": paging.n_fills,
            "spill_bits": paging.spill_bits,
            "fill_bits": paging.fill_bits,
        },
    }


def _replica_main(replica_id: int, conn, n_modules: int, config,
                  kernels, seed: int | None,
                  spool_dir: "str | None" = None) -> None:
    """The child process: build a cluster, warm it, serve the pipe."""
    # The parent owns lifecycle; a ^C aimed at the parent's terminal
    # must not take the replicas down mid-failover.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    # Black box: this process's flight recorder continuously spills to
    # the parent's spool directory.  SIGKILL cannot be trapped, so the
    # spill file — one line appended per event — is what survives a
    # crash; on clean exit the ring ships home over the pipe instead.
    recorder = get_flight_recorder()
    recorder.source = f"replica-{replica_id}"
    if spool_dir is not None:
        recorder.configure_spill(
            os.path.join(spool_dir, f"replica-{replica_id}.json"))
    from repro.runtime.cluster import SimdramCluster
    try:
        cluster = SimdramCluster(n_modules, config=config, seed=seed)
        warmed = _warm_manifest(cluster, kernels)
        conn.send(("ready", replica_id,
                   {"lanes": cluster.lanes,
                    "backend": cluster.config.backend,
                    "n_modules": n_modules,
                    "kernels_warmed": warmed,
                    **_replica_info(cluster)}))
    except BaseException as error:  # noqa: BLE001 - report, don't hang spawn
        conn.send(("spawn-error", replica_id, _sendable(error)))
        return
    recorder.record("replica.ready", replica=replica_id,
                    lanes=cluster.lanes, n_modules=n_modules)
    slab = None  # this replica's mapping of the slab its jobs name
    with cluster:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing left to serve
            tag = message[0]
            if tag == "stop":
                recorder.record("replica.stop", replica=replica_id)
                try:
                    # Clean exit: the ring ships home over the pipe
                    # (older parents ignore the extra element).
                    conn.send(("stopped", replica_id,
                               recorder.snapshot()))
                except (BrokenPipeError, OSError):
                    pass
                recorder.remove_spill()
                return
            if tag == "ping":
                conn.send(("pong", message[1], _replica_info(cluster)))
            elif tag == "warm":
                token, kernels = message[1], message[2]
                recorder.record("replica.warm", replica=replica_id,
                                n_kernels=len(kernels))
                try:
                    n = _warm_manifest(cluster, kernels)
                    conn.send(("warmed", token, n))
                except Exception as error:  # noqa: BLE001
                    conn.send(("warm-error", token, _sendable(error)))
            elif tag == "job":
                job_id, desc, wire, slot, metas = message[1:]
                recorder.record("replica.job", replica=replica_id,
                                job_id=job_id, op=desc.label(),
                                width=desc.width)
                # Local recording root for traced jobs: the replica's
                # side of the request tree.  CLOCK_MONOTONIC is
                # system-wide on Linux, so its timestamps line up with
                # the parent's without translation; the finished tree
                # ships home serialized inside the reply's info dict.
                job_span = (Span("replica.execute",
                                 {"replica": replica_id,
                                  "proc": f"replica-{replica_id}",
                                  "op": desc.label()})
                            if getattr(desc, "traced", False)
                            else NOOP_SPAN)
                try:
                    if slab is not None and slab.wire != wire:
                        slab.close()  # the parent opened a larger one
                        slab = None
                    if slab is None:
                        slab = Slab(wire=wire)
                    vectors = slab.read(slab.operands, slot, job_id,
                                        metas)
                    from repro.exec.engines import get_engine
                    engine = get_engine(desc.engine)
                    with use_span(job_span):
                        named = bool(desc.slot_names)
                        out = cluster.map(
                            desc.op, *(() if named else vectors),
                            feeds=(dict(zip(desc.slot_names, vectors))
                                   if named else None),
                            width=desc.width, engine=engine)
                    (meta,) = slab.write(slab.results, slot, job_id,
                                         [out])
                    info = _replica_info(cluster)
                    if job_span.recording:
                        info["span"] = job_span.finish().to_dict()
                    conn.send(("result", job_id, meta, info))
                    recorder.record("replica.job.done",
                                    replica=replica_id, job_id=job_id)
                except Exception as error:  # noqa: BLE001 - fail the one job
                    recorder.record("replica.job.error",
                                    replica=replica_id, job_id=job_id,
                                    error=repr(error))
                    info = _replica_info(cluster)
                    if job_span.recording:
                        info["span"] = job_span.finish(error).to_dict()
                    conn.send(("job-error", job_id, _sendable(error),
                               info))


# ---------------------------------------------------------------------------
# parent-side handles
# ---------------------------------------------------------------------------
class ReplicaHandle:
    """Parent-side view of one replica process."""

    def __init__(self, replica_id: int, process, conn,
                 slabs: Sequence[Slab] = ()) -> None:
        self.replica_id = replica_id
        self.process = process
        self.conn = conn
        #: Live slab generations, oldest first; the last takes new
        #: jobs, the others are retired and waiting for theirs.
        self.slabs = list(slabs)
        self.alive = True
        self.info: dict = {}
        self.last_pong = clock.now()
        self.pings_sent = 0
        self.pongs_received = 0
        #: Heartbeat round-trip time: send time per outstanding ping
        #: token, the last completed RTT, and an exponential moving
        #: average (alpha 0.25) — the per-replica health gauge.
        self._ping_sent_at: dict[int, float] = {}
        self.rtt_last_s: float | None = None
        self.rtt_avg_s: float | None = None
        #: Dispatches this replica completed (success or per-job error).
        self.jobs_done = 0
        #: ``(kernel_identity, engine name)`` pairs this replica holds
        #: warm: its spawn manifest plus every acknowledged ``warm``.
        self.kernels: set[tuple[tuple[str, int, str], str]] = set()
        self._send_lock = threading.Lock()

    def note_ping(self, token: int) -> None:
        """Record one ping's send time (monitor thread)."""
        self._ping_sent_at[token] = clock.now()
        # Unanswered tokens from a hung replica must not accumulate.
        while len(self._ping_sent_at) > 64:
            self._ping_sent_at.pop(next(iter(self._ping_sent_at)))

    def note_pong(self, token: int) -> None:
        """Close the loop for one pong (receive thread)."""
        sent = self._ping_sent_at.pop(token, None)
        if sent is None:
            return
        rtt = clock.now() - sent
        self.rtt_last_s = rtt
        self.rtt_avg_s = (rtt if self.rtt_avg_s is None
                          else 0.75 * self.rtt_avg_s + 0.25 * rtt)

    def send(self, message) -> None:
        """Pickle one message down the pipe (thread-safe); raises
        :class:`ReplicaError` if the pipe is broken."""
        try:
            with self._send_lock:
                self.conn.send(message)
        except (BrokenPipeError, OSError, ValueError,
                TypeError, AttributeError) as error:
            # TypeError/AttributeError: another thread closed the
            # connection mid-send (a closed Connection nulls its
            # handle, so the raw write sees None).
            raise ReplicaError(
                f"replica {self.replica_id} is unreachable: {error}"
            ) from error

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (f"ReplicaHandle(#{self.replica_id}, "
                f"pid={self.process.pid}, {state})")


#: Seconds between two health rounds of the monitor thread (a ping to
#: every live replica, a liveness check of its process).
HEARTBEAT_S = 0.25
#: Seconds every replica of a new set gets to report ready.
SPAWN_TIMEOUT_S = 120.0
#: How replica processes start: ``fork``, the Linux default on every
#: supported Python, named here so the transport runs one way
#: everywhere.
START_METHOD = "fork"


class ReplicaSet:
    """N ``SimdramCluster`` replicas in separate processes (see the
    module docstring for the transport protocol)."""

    def __init__(self, n_replicas: int, n_modules: int = 1,
                 config=None, manifest: Sequence[tuple] | None = None,
                 seed: int | None = 1,
                 max_silent_s: float | None = None) -> None:
        if n_replicas < 1:
            raise OperationError(
                f"a replica set needs >= 1 replica, got {n_replicas}")
        self.config = config or SimdramConfig()
        self.n_modules = n_modules
        self.max_silent_s = max_silent_s
        #: The set's one kernel table, ``kernel_identity`` -> Kernel:
        #: Steps 1+2 run here, in the parent, once per kernel; the
        #: replicas adopt these records (:meth:`kernel`).
        self._kernels: dict[tuple[str, int, str], Kernel] = {}
        kernels = self._compile(manifest or ())
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._jobs: dict[int, dict[int, PendingJob]] = {}
        self._controls: dict[tuple[int, int], Future] = {}
        self._job_ids = itertools.count()
        self._tokens = itertools.count()
        self._death_handler: "Callable[[int, list[PendingJob]], None] | None" = None
        self._closing = False
        #: Set by :meth:`close`: ends the monitor's heartbeat wait.
        self._stopped = threading.Event()

        #: Spool directory the children spill their flight-recorder
        #: rings into; a crashed replica's leftover spill file is its
        #: black box (adopted in :meth:`_mark_dead`).
        self.spool_dir = tempfile.mkdtemp(prefix="repro-flightrec-")

        ctx = multiprocessing.get_context(START_METHOD)
        self.replicas: list[ReplicaHandle] = []
        # One slot carries a full-width dispatch of a three-operand
        # kernel on 64-bit host vectors; anything larger grows the slab.
        slot_bytes = _TAG_BYTES + 3 * 8 * (
            n_modules * self.config.geometry.lanes())
        for i in range(n_replicas):
            # Before the fork, so that the child inherits the resource
            # tracker the first segment starts.
            slab = Slab(SLAB_SLOTS, slot_bytes)
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_replica_main, name=f"simdram-replica-{i}",
                args=(i, child_conn, n_modules, self.config, kernels,
                      None if seed is None else seed + 7919 * i,
                      self.spool_dir),
                daemon=True)
            process.start()
            child_conn.close()  # keep exactly one parent-side end open
            replica = ReplicaHandle(i, process, parent_conn, [slab])
            replica.kernels.update((k.key, e) for k, e in kernels)
            self.replicas.append(replica)
            self._jobs[i] = {}

        # All replicas boot concurrently; collect readiness afterwards.
        deadline = clock.now() + SPAWN_TIMEOUT_S
        for replica in self.replicas:
            self._await_ready(replica, deadline)

        self.lanes = self.replicas[0].info["lanes"]
        self.backend = self.replicas[0].info["backend"]

        self._receivers = [
            threading.Thread(target=self._receive_loop, args=(replica,),
                             name=f"replica-rx-{replica.replica_id}",
                             daemon=True)
            for replica in self.replicas
        ]
        for thread in self._receivers:
            thread.start()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="replica-health",
                                         daemon=True)
        self._monitor.start()

    def _await_ready(self, replica: ReplicaHandle, deadline: float) -> None:
        while True:
            if not replica.conn.poll(max(0.0, deadline - clock.now())):
                self._abort_spawn(
                    f"replica {replica.replica_id} did not come up")
            message = replica.conn.recv()
            if message[0] == "ready":
                replica.info = message[2]
                replica.last_pong = clock.now()
                return
            if message[0] == "spawn-error":
                self._abort_spawn(
                    f"replica {replica.replica_id} failed to spawn: "
                    f"{message[2]}")

    def _abort_spawn(self, reason: str) -> None:
        for replica in self.replicas:
            if replica.process.is_alive():
                replica.process.terminate()
            for slab in replica.slabs:
                slab.close(unlink=True)
        shutil.rmtree(self.spool_dir, ignore_errors=True)
        raise ReplicaError(reason)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def alive_ids(self) -> list[int]:
        return [r.replica_id for r in self.replicas if r.alive]

    def n_inflight(self, replica_id: int) -> int:
        with self._lock:
            return len(self._jobs[replica_id])

    def inflight_lanes(self, replica_id: int) -> int:
        with self._lock:
            return sum(job.lanes
                       for job in self._jobs[replica_id].values())

    def busy_ns(self) -> float:
        """Modeled makespan of the whole set: replicas are independent
        machines, so it is the busiest replica's modeled time (dead
        replicas keep their last reported clock)."""
        return max((r.info.get("busy_ns", 0.0) for r in self.replicas),
                   default=0.0)

    def stats(self) -> dict:
        """Per-replica health/telemetry snapshot."""
        out = {}
        for r in self.replicas:
            with self._lock:
                inflight = len(self._jobs[r.replica_id])
            out[r.replica_id] = {
                "alive": r.alive,
                "pid": r.process.pid,
                "in_flight": inflight,
                "jobs_done": r.jobs_done,
                "pings_sent": r.pings_sent,
                "pongs_received": r.pongs_received,
                "rtt_last_s": r.rtt_last_s,
                "rtt_avg_s": r.rtt_avg_s,
                "busy_ns": r.info.get("busy_ns", 0.0),
                "kernels_cached": r.info.get("kernels_cached", 0),
                "paging": r.info.get("paging", {}),
            }
        return out

    def kernel(self, op: KernelSource, width: int) -> Kernel:
        """The kernel the replicas run for ``op`` at ``width``: compiled
        once, here, under the set's configuration (a table hit for
        every manifest or warmed kernel)."""
        backend = self.config.backend
        key = kernel_identity(op, width, backend)
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels.setdefault(
                key, compile_for(self.config, op, width, backend))
        return kernel

    def _compile(self, manifest: Sequence[tuple]
                 ) -> list[tuple[Kernel, str]]:
        """``(kernel, engine)`` for ``(op_or_root, width[, engine])``
        manifest entries, each kernel from :meth:`kernel`."""
        return [(self.kernel(entry[0], entry[1]),
                 entry[2] if len(entry) > 2 else "auto")
                for entry in manifest]

    def set_death_handler(
            self, handler: "Callable[[int, list[PendingJob]], None]"
    ) -> None:
        """Install the failover hook: called with ``(replica_id,
        in_flight_jobs)`` on every death outside :meth:`close`, with an
        empty list when the replica died idle.  The handler owns those
        jobs' futures (typically re-submitting them to survivors);
        without a handler they fail with :class:`ReplicaError`."""
        self._death_handler = handler

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, replica_id: int, desc: WorkDescriptor,
               vectors: Sequence[np.ndarray], lanes: int,
               future: Future | None = None) -> Future:
        """Ship one dispatch to a replica; resolves to ``(result
        vector, replica info)``.  Pass ``future`` to re-arm an existing
        job's future (the failover path)."""
        # The ambient span (the router's ``router.place`` or ``retry``)
        # becomes the transport span's parent; the ``traced`` flag asks
        # the replica to record its side of the tree and ship it back.
        parent = current_span()
        span = parent.child("replica.transport",
                            replica=replica_id, lanes=lanes)
        if span.recording:
            desc = replace(desc, traced=True)
        job = PendingJob(job_id=next(self._job_ids), desc=desc,
                         vectors=[np.asarray(v) for v in vectors],
                         lanes=lanes, future=future or Future(),
                         span=span)
        replica = self.replicas[replica_id]
        with self._lock:
            if self._closing:
                raise ReplicaError("replica set is closed")
            if not replica.alive:
                raise ReplicaError(
                    f"replica {replica_id} is dead")
            self._take_slot(replica, job)
            metas = job.slab.write(job.slab.operands, job.slot,
                                   job.job_id, job.vectors)
            self._jobs[replica_id][job.job_id] = job
        try:
            replica.send(("job", job.job_id, desc, job.slab.wire,
                          job.slot, metas))
        except ReplicaError:
            # The send itself failed.  If the job is still registered,
            # this thread owns it: reclaim it and re-raise so the
            # caller picks another replica.  If it is gone,
            # ``_mark_dead`` raced us, collected the job and already
            # routed it (failover re-armed the same future) — re-raising
            # would make the caller submit the job a *second* time.
            with self._lock:
                owned = self._jobs[replica_id].pop(job.job_id, None)
            self._mark_dead(replica)  # takes the slabs with it
            if owned is None:
                return job.future
            job.span.finish(ReplicaError(
                f"replica {replica_id} is unreachable"))
            raise
        return job.future

    def _take_slot(self, replica: ReplicaHandle, job: PendingJob) -> None:
        """Give ``job`` a slot of the replica's slab (under ``_lock``)
        — of a new, larger generation when the current one cannot."""
        slab = replica.slabs[-1]
        # Operands back to back, or the result: a 64-bit word per element.
        need = _TAG_BYTES + max(
            sum(_aligned(v.nbytes) for v in job.vectors),
            8 * max((v.size for v in job.vectors), default=1))
        if need > slab.slot_bytes or not slab.free:
            slab.retired = True
            if len(slab.free) == slab.n_slots:  # nobody to wait for
                slab.close(unlink=True)
                replica.slabs.pop()
            slab = Slab(slab.n_slots * (1 if slab.free else 2),
                        max(need, slab.slot_bytes))
            replica.slabs.append(slab)
        job.slab, job.slot = slab, slab.free.pop()

    # ------------------------------------------------------------------
    # receive / health
    # ------------------------------------------------------------------
    def _receive_loop(self, replica: ReplicaHandle) -> None:
        try:
            self._receive_messages(replica)
        finally:
            # Whatever ends the loop — EOF, "stopped", or a bug in the
            # dispatch body — the replica must be buried, or its
            # in-flight jobs would hang forever.
            self._mark_dead(replica)

    def _receive_messages(self, replica: ReplicaHandle) -> None:
        while True:
            try:
                message = replica.conn.recv()
            except (EOFError, OSError, ValueError,
                    TypeError, AttributeError):
                # TypeError/AttributeError/ValueError: another thread
                # closed the connection mid-recv (mirrors ``send``).
                break
            tag = message[0]
            if tag in ("result", "job-error"):
                self._on_answer(replica, *message[1:])
            elif tag == "pong":
                replica.note_pong(message[1])
                replica.info = message[2]
                replica.pongs_received += 1
                replica.last_pong = clock.now()
            elif tag in ("warmed", "warm-error"):
                future = self._controls.pop(
                    (replica.replica_id, message[1]), None)
                if future is not None and tag == "warmed":
                    future.set_result(message[2])
                elif future is not None:
                    future.set_exception(message[2])
            elif tag == "stopped":
                # Newer children attach their flight-recorder ring;
                # fold it into this process's postmortem segments.
                if len(message) > 2:
                    get_flight_recorder().adopt_segment(
                        message[2],
                        source=f"replica-{replica.replica_id}")
                break

    def _on_answer(self, replica: ReplicaHandle, job_id: int,
                   answer: "SlotMeta | BaseException", info: dict) -> None:
        """One ``result`` (``answer``: where in its slot) or
        ``job-error`` (``answer``: the exception) message; dropped if
        the job is not this replica's any more (failover re-homed it)."""
        # The replica's serialized span tree rides inside the info
        # dict; pop it so ``replica.info`` stays telemetry.
        shipped = info.pop("span", None)
        info["replica_id"] = replica.replica_id
        replica.info = info
        replica.jobs_done += 1
        values = None
        error = answer if isinstance(answer, BaseException) else None
        # One lock hold from pop to copy-out: ``_mark_dead`` unmaps the
        # slabs under the same lock.
        with self._lock:
            job = self._jobs[replica.replica_id].pop(job_id, None)
            if job is not None:
                slab = job.slab
                if error is None:
                    try:
                        (values,) = slab.read(slab.results, job.slot,
                                              job_id, [answer])
                    except Exception as failure:  # noqa: BLE001
                        error = ReplicaError(
                            f"result transport failed: {failure}")
                slab.free.append(job.slot)
                if slab.retired and len(slab.free) == slab.n_slots:
                    slab.close(unlink=True)  # its last job is back
                    replica.slabs.remove(slab)
            if not any(self._jobs.values()):
                self._drained.notify_all()
        if job is None:
            return
        if shipped is not None and job.span.recording:
            job.span.adopt(Span.from_dict(shipped))
        # Transport spans close *before* the future resolves so
        # completion callbacks see a finished tree.
        job.span.finish(error)
        if error is not None:
            job.future.set_exception(error)
        else:
            job.future.set_result((values, info))

    def _monitor_loop(self) -> None:
        while not self._stopped.wait(HEARTBEAT_S):
            now = clock.now()
            for replica in self.replicas:
                if not replica.alive:
                    continue
                if not replica.process.is_alive():
                    self._mark_dead(replica)
                    continue
                if (self.max_silent_s is not None
                        and replica.pings_sent > replica.pongs_received
                        and now - replica.last_pong > self.max_silent_s):
                    # Hung, not dead: the pipe is open but nothing
                    # answers.  Put it down so its work can fail over.
                    replica.process.kill()
                    self._mark_dead(replica)
                    continue
                try:
                    token = next(self._tokens)
                    replica.note_ping(token)
                    replica.send(("ping", token))
                    replica.pings_sent += 1
                except ReplicaError:
                    self._mark_dead(replica)

    def _mark_dead(self, replica: ReplicaHandle) -> None:
        """Bury one replica: exactly one caller wins, collects its
        in-flight jobs and routes them to the death handler."""
        with self._lock:
            if not replica.alive:
                return
            replica.alive = False
            jobs = list(self._jobs[replica.replica_id].values())
            self._jobs[replica.replica_id].clear()
            controls = [key for key in self._controls
                        if key[0] == replica.replica_id]
            control_futures = [self._controls.pop(key)
                               for key in controls]
            closing = self._closing
            # The slabs die with the replica: whatever it still writes
            # lands in memory nobody maps, and every collected job is
            # re-sent from the parent's own copy of its payload.
            for slab in replica.slabs:
                slab.close(unlink=True)
            replica.slabs.clear()
            if not any(self._jobs.values()):
                self._drained.notify_all()
        # Under the send lock: a sender that had already read the pipe's
        # descriptor would otherwise write its message to whatever file
        # is opened next under that number.
        with replica._send_lock:
            try:
                replica.conn.close()
            except OSError:
                pass
        # Recover the black box: a crashed child never shipped its
        # ring home, but its continuously-appended spill file is on
        # disk.  (A cleanly stopped child removed the file; adoption
        # is simply a no-op then.)
        recorder = get_flight_recorder()
        spill = os.path.join(self.spool_dir,
                             f"replica-{replica.replica_id}.json")
        adopted = recorder.adopt_spill_file(
            spill, source=f"replica-{replica.replica_id}")
        if not closing:
            recorder.record("replica.death",
                            replica=replica.replica_id,
                            pid=replica.process.pid,
                            in_flight=len(jobs),
                            black_box_recovered=adopted)
        error = ReplicaError(
            f"replica {replica.replica_id} died "
            f"(pid {replica.process.pid})")
        for job in jobs:
            job.attempts.append(replica.replica_id)
            # Close the failed attempt's transport span now; the
            # router's failover path re-parents it under a ``retry``
            # span before re-submitting, so the dead attempt stays
            # visible in the re-homed request's tree.
            job.span.finish(error)
        for future in control_futures:
            future.set_exception(error)
        # The handler hears every death outside close(), idle ones
        # (no jobs) included, so the service counts each death once.
        if self._death_handler is not None and not closing:
            self._death_handler(replica.replica_id, jobs)
        else:
            for job in jobs:
                job.future.set_exception(error)

    # ------------------------------------------------------------------
    # warmup / drills / lifecycle
    # ------------------------------------------------------------------
    def warm(self, manifest: Sequence[tuple],
             timeout: float | None = 120.0) -> dict:
        """Compile a kernel manifest here (:meth:`kernel`), send every
        live replica the kernels it does not hold yet and wait for the
        acks; returns ``{replica_id: n_kernels sent}``.  A replica that
        holds them all gets no message (replicas are never respawned,
        so what one acknowledged stays warm)."""
        kernels = self._compile(manifest)
        pending: dict[int, tuple[Future, list[tuple[Kernel, str]]]] = {}
        results = {}
        for replica in self.replicas:
            if not replica.alive:
                continue
            lacking = [(k, e) for k, e in kernels
                       if (k.key, e) not in replica.kernels]
            if not lacking:
                results[replica.replica_id] = 0
                continue
            token = next(self._tokens)
            future: Future = Future()
            with self._lock:
                self._controls[(replica.replica_id, token)] = future
            try:
                replica.send(("warm", token, lacking))
            except ReplicaError as error:
                with self._lock:
                    self._controls.pop((replica.replica_id, token), None)
                future.set_exception(error)
                self._mark_dead(replica)
            pending[replica.replica_id] = (future, lacking)
        for replica_id, (future, lacking) in pending.items():
            try:
                results[replica_id] = future.result(timeout)
            except ReplicaError:
                continue  # died mid-warm; failover covers its traffic
            self.replicas[replica_id].kernels.update(
                (k.key, e) for k, e in lacking)
        return results

    def kill(self, replica_id: int) -> None:
        """Hard-kill one replica (SIGKILL) — the failover drill.  Death
        is observed through the normal health machinery, so in-flight
        work fails over exactly as it would for a real crash."""
        self.replicas[replica_id].process.kill()

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until no job is in flight anywhere; False on timeout."""
        with self._lock:
            return self._drained.wait_for(
                lambda: not any(self._jobs.values()), timeout)

    def close(self) -> None:
        """Stop every replica process (idempotent).  In-flight jobs
        fail with :class:`ReplicaError` rather than strand callers."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
        self._stopped.set()
        for replica in self.replicas:
            if not replica.alive:
                continue
            try:
                replica.send(("stop",))
            except ReplicaError:
                pass
        for replica in self.replicas:
            replica.process.join(timeout=10.0)
            if replica.process.is_alive():
                replica.process.kill()
                replica.process.join(timeout=10.0)
            self._mark_dead(replica)
        for thread in (*self._receivers, self._monitor):
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        # Every replica is buried (spills adopted where they existed);
        # the spool directory has served its purpose.
        shutil.rmtree(self.spool_dir, ignore_errors=True)

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
