"""``SimdramCluster``: N independent SIMDRAM modules behind one API.

The cluster is the runtime's facade.  It offers the single-module
:class:`~repro.Simdram` programming interface — ``run``/``run_expr``/
``run_multi`` over resident operands, ``map``/``map_expr`` streaming
over host vectors, every door taking a catalog name, an ``Expr`` DAG
or (``run_multi``) a set of roots — but operands are
:class:`DeviceTensor` objects sharded across the member modules, and
there is one path behind the doors: :meth:`SimdramCluster.compile`
produces the :class:`~repro.core.fuse.Kernel` once at the cluster
level, the operands are bound and checked against it, and one job per
shard goes through the :class:`~repro.runtime.scheduler.JobScheduler`
to the module already holding the shard, which *adopts* the kernel
into its control unit and dispatches it exactly as the single-module
system would.  ``submit`` gives the same semantics asynchronously.
The cluster starts no thread: every verb runs where it is submitted
when the job's dependencies are settled and its modules idle, and
otherwise waits in the busy module's FIFO for the thread holding that
module (see :mod:`repro.runtime.scheduler`).

Each module's modeled busy time (command latency plus channel I/O for
transposition and paging, in simulated nanoseconds) is read from its
banks' counters.  Modules are independent channels, so the cluster's
modeled makespan is the *maximum* per-module busy time — the quantity
the scaling benchmarks gate on.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.core.expr import Expr
from repro.core.framework import Simdram, SimdramConfig, compile_for
from repro.core.fuse import (
    Kernel,
    KernelSource,
    kernel_identity,
    resident_width,
    same_length,
)
from repro.dram.commands import CommandStats
from repro.errors import OperationError
from repro.exec.engines import ExecutionEngine, get_engine
from repro.obs.tracing import span as obs_span
from repro.runtime.paging import PagingManager
from repro.runtime.scheduler import JobScheduler, Subtask
from repro.runtime.tensor import DeviceTensor, TensorShard, plan_shards


@dataclass
class JobHandle:
    """An asynchronously running cluster operation.

    ``tensor`` is the operation's output handle (usable immediately as
    an operand of further submissions — the scheduler orders them);
    ``future`` resolves when the job has executed on every shard.
    """

    future: Future
    tensor: DeviceTensor
    #: The execution engine the job was resolved to at submission —
    #: one instance carried through every shard closure, instead of a
    #: string re-interpreted per layer.
    engine: "ExecutionEngine | None" = None

    def result(self, timeout: float | None = None) -> DeviceTensor:
        """Wait for completion (re-raising failures); returns the
        output tensor."""
        self.future.result(timeout)
        return self.tensor

    def done(self) -> bool:
        return self.future.done()


class SimdramCluster:
    """N SIMDRAM modules, device-resident tensors, paging, async jobs."""

    def __init__(self, n_modules: int = 4,
                 config: SimdramConfig | None = None,
                 seed: int | None = 1) -> None:
        if n_modules < 1:
            raise OperationError(
                f"a cluster needs >= 1 module, got {n_modules}")
        self.config = config or SimdramConfig()
        self.modules = [
            Simdram(self.config,
                    seed=None if seed is None else seed + i)
            for i in range(n_modules)
        ]
        self.pagers = [PagingManager(sim) for sim in self.modules]
        self.scheduler = JobScheduler(n_modules)
        #: The kernel cache: ``kernel_identity`` -> Kernel, compiled once
        #: for every member module.
        self._kernels: dict[tuple[str, int, str], Kernel] = {}

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def n_modules(self) -> int:
        return len(self.modules)

    @property
    def lanes_per_module(self) -> int:
        return self.modules[0].module.lanes

    @property
    def lanes(self) -> int:
        """Total SIMD lanes across the cluster."""
        return self.lanes_per_module * self.n_modules

    @property
    def kernel_cache_size(self) -> int:
        """Kernels compiled at the cluster level."""
        return len(self._kernels)

    # ------------------------------------------------------------------
    # cluster-level compilation (shared across modules)
    # ------------------------------------------------------------------
    def compile(self, op: KernelSource, width: int,
                backend: str | None = None) -> Kernel:
        """Compile once (see :meth:`Simdram.compile`); member modules
        adopt the kernel on dispatch."""
        backend = backend or self.config.backend
        key = kernel_identity(op, width, backend)
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = compile_for(
                self.config, op, width, backend)
        return kernel

    def adopt(self, kernel: Kernel) -> Kernel:
        """Take a kernel compiled elsewhere into the cluster's cache
        (a replica adopts what its parent compiled); returns the cached
        kernel of that identity, which stays if one is already held.
        Member modules adopt it on dispatch."""
        return self._kernels.setdefault(kernel.key, kernel)

    def warm(self, op: KernelSource, width: int,
             engine: "str | ExecutionEngine" = "auto") -> None:
        """:meth:`compile` plus :meth:`warm_executor` — the serving
        layer's manifest warmup goes through here."""
        self.warm_executor(self.compile(op, width), engine)

    def warm_executor(self, kernel: Kernel,
                      engine: "str | ExecutionEngine" = "auto") -> None:
        """Have every member module adopt ``kernel`` and warm its
        execution plan plus the engine's compiled executor against the
        row layout a batched dispatch binds (as
        :meth:`Simdram.warm_executor`).

        Each module warms in a subtask of one job, holding its module
        like any dispatch: binding the layout allocates and frees rows,
        which must not interleave with a dispatch in flight.
        """
        engine = get_engine(engine)

        def warm_module(module_index: int) -> None:
            sim = self.modules[module_index]
            sim.adopt(kernel)
            sim.warm_executor(kernel, engine)

        self.scheduler.run(
            [(m, (lambda i=m: warm_module(i)))
             for m in range(self.n_modules)],
            label=f"warm:{kernel.op_name}@{kernel.width}")

    # ------------------------------------------------------------------
    # modeled time and traffic
    # ------------------------------------------------------------------
    def makespan_ns(self) -> float:
        """Modeled wall time so far: modules are independent channels,
        so the cluster finishes when its busiest module does."""
        return max(sim.makespan_ns() for sim in self.modules)

    def paging_stats(self) -> CommandStats:
        """Merged spill/fill accounting across all modules."""
        total = CommandStats()
        for pager in self.pagers:
            total = total.merged_with(pager.stats)
        return total

    def total_stats(self) -> CommandStats:
        """Merged DRAM command statistics across all modules."""
        total = CommandStats()
        for sim in self.modules:
            total = total.merged_with(sim.module.total_stats())
        return total.merged_with(self.paging_stats())

    # ------------------------------------------------------------------
    # tensors
    # ------------------------------------------------------------------
    def tensor(self, values, width: int,
               signed: bool = False) -> DeviceTensor:
        """Shard a host vector across the cluster and load it into DRAM.

        The load is a job: on idle modules it runs before this returns,
        on a busy module it waits in that module's FIFO; the returned
        handle is usable as an operand either way."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise OperationError(
                "SimdramCluster.tensor expects a 1-D vector")
        chunks = plan_shards(len(values), self.n_modules,
                             self.lanes_per_module)
        shards = [TensorShard(m, offset, count, width, signed)
                  for m, offset, count in chunks]
        tensor = DeviceTensor(self, shards, len(values), width, signed)

        def load(shard: TensorShard,
                 chunk: np.ndarray) -> None:
            sim = self.modules[shard.module_index]
            pager = self.pagers[shard.module_index]
            shard.array = sim.array(chunk, shard.width,
                                    signed=shard.signed)
            pager.register(shard)

        # Snapshot each chunk now: on a busy module the load waits, and
        # a caller mutating its array after tensor() returns must
        # not race with the deferred transpose-in.
        subtasks: list[Subtask] = [
            (shard.module_index,
             (lambda s=shard,
              c=values[shard.offset:shard.offset
                       + shard.n_elements].copy():
              load(s, c)))
            for shard in shards
        ]
        self.scheduler.submit(subtasks, writes=[tensor],
                              label=f"load[{len(values)}]")
        return tensor

    def read_tensor(self, tensor: DeviceTensor) -> np.ndarray:
        """Gather a tensor to the host, after all pending producers."""
        tensor.require_live()

        def gather(shard: TensorShard) -> np.ndarray:
            pager = self.pagers[shard.module_index]
            if shard.resident:
                pager.touch(shard)
                return self.modules[shard.module_index].read(shard.array)
            if shard.host is None:
                # A producing job failed before materializing this
                # shard; surface it through the dependency chain.
                raise OperationError(f"{shard!r} was never materialized")
            return shard.host.copy()

        subtasks: list[Subtask] = [
            (shard.module_index, (lambda s=shard: gather(s)))
            for shard in tensor.shards
        ]
        return self.scheduler.run(
            subtasks, reads=[tensor], finalizer=np.concatenate,
            label=f"gather[{tensor.n_elements}]")

    def free_tensor(self, tensor: DeviceTensor) -> None:
        """Release a tensor's shards, ordered after every outstanding
        job that touches it (idempotent): at once when those jobs have
        settled and the modules are idle, else queued behind them."""
        if tensor.status != "live":
            return
        tensor.status = "freed"

        def release(shard: TensorShard) -> None:
            pager = self.pagers[shard.module_index]
            pager.unregister(shard)
            if shard.array is not None:
                shard.array.free()
                shard.array = None
            shard.host = None

        subtasks: list[Subtask] = [
            (shard.module_index, (lambda s=shard: release(s)))
            for shard in tensor.shards
        ]
        self.scheduler.submit(subtasks, writes=[tensor],
                              label=f"free[{tensor.n_elements}]")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _submit(self, op: KernelSource, tensors: tuple,
                feeds: "dict[str, DeviceTensor] | None",
                width: int | None, backend: str | None,
                engine: ExecutionEngine, gather: bool = False):
        """The one resident-operand path: compile (or look up) the
        kernel, bind and check the operand tensors, and submit one job
        with a subtask per shard on the module holding it.

        Each shard job faults its operands in, pins everything the
        dispatch touches, has the module adopt the kernel and runs it
        there.  By default the packed result stays resident as the
        shards of a new output tensor and ``(future, tensor)`` is
        returned; with ``gather`` every output's slice is read back per
        shard instead and the call waits (through
        :meth:`JobScheduler.run`), returning ``({output name: host
        vector}, None)``.
        """
        if width is None:
            width = resident_width(op, tensors, feeds)
        kernel = self.compile(op, width, backend)
        operands = kernel.bind(tensors, feeds)
        kernel.check_resident(operands)
        sharding = operands[0].sharding()
        if any(t.sharding() != sharding for t in operands):
            raise OperationError(
                f"{kernel.op_name}: operands are sharded differently; "
                "create them on the same cluster with the same length")
        out = None if gather else DeviceTensor(
            self, [TensorShard(s.module_index, s.offset, s.n_elements,
                               kernel.out_width, kernel.signed)
                   for s in operands[0].shards],
            operands[0].n_elements, kernel.out_width, kernel.signed)
        label = f"{kernel.op_name}@{width}"

        def run_shard(index: int):
            in_shards = [t.shards[index] for t in operands]
            out_shard = None if gather else out.shards[index]
            module_index = in_shards[0].module_index
            sim, pager = self.modules[module_index], self.pagers[module_index]
            with obs_span("cluster.dispatch", module=module_index,
                          label=label), \
                    pager.pinning(in_shards if gather
                                  else [*in_shards, out_shard]):
                for shard in in_shards:
                    pager.ensure_resident(shard)
                sim.adopt(kernel)
                run = sim.run_multi if gather else sim.run_expr
                result = run(op, dict(zip(kernel.input_names,
                                          (s.array for s in in_shards))),
                             width=width, backend=kernel.backend,
                             engine=engine)
                if not gather:
                    out_shard.array = result
                    pager.register(out_shard)
            return result if gather else None

        def merge(parts: list[dict[str, np.ndarray]]
                  ) -> dict[str, np.ndarray]:
            return {output.name: np.concatenate(
                        [part[output.name] for part in parts])
                    for output in kernel.outputs}

        subtasks: list[Subtask] = [
            (shard.module_index, (lambda i=index: run_shard(i)))
            for index, shard in enumerate(operands[0].shards)
        ]
        # Operands may repeat (e.g. run("add", a, a)); dedupe reads.
        reads = list({id(t): t for t in operands}.values())
        if gather:
            return self.scheduler.run(subtasks, reads=reads,
                                      finalizer=merge, label=label), None
        return self.scheduler.submit(subtasks, reads=reads, writes=[out],
                                     label=label), out

    def submit(self, op: "str | Expr", *tensors: DeviceTensor,
               feeds: dict[str, DeviceTensor] | None = None,
               width: int | None = None, backend: str | None = None,
               engine: "str | ExecutionEngine" = "auto") -> JobHandle:
        """Submit a kernel; returns a handle.

        ``op`` is a catalog operation name or an :class:`Expr` DAG;
        operands are positional ``tensors`` in operand-slot order or a
        leaf-name ``feeds`` binding.  When the operands' producers have
        settled and the shards' modules are idle, the job runs on the
        calling thread and the handle is done on return; otherwise it
        is queued and this returns at once.  Either way the output
        tensor is usable as an operand of further submissions right
        away — the scheduler serializes dependent jobs and runs
        independent ones concurrently across modules.

        ``engine`` (an engine name or an
        :class:`~repro.exec.engines.ExecutionEngine`) is resolved once
        here; the resolved instance rides on the :class:`JobHandle` and
        every shard closure.
        """
        engine = get_engine(engine)
        future, out = self._submit(op, tensors, feeds, width, backend,
                                   engine)
        return JobHandle(future, out, engine)

    def run(self, op: "str | Expr", *operands: DeviceTensor,
            feeds: dict[str, DeviceTensor] | None = None,
            width: int | None = None, backend: str | None = None,
            engine: "str | ExecutionEngine" = "auto") -> DeviceTensor:
        """Synchronous :meth:`submit`: waits for the sharded execution
        and returns the output tensor."""
        return self.submit(op, *operands, feeds=feeds, width=width,
                           backend=backend, engine=engine).result()

    def run_expr(self, root: "str | Expr", feeds: dict[str, DeviceTensor],
                 *, width: int | None = None, backend: str | None = None,
                 engine: "str | ExecutionEngine" = "auto") -> DeviceTensor:
        """:meth:`run` with the operands bound by leaf name."""
        return self.submit(root, feeds=feeds, width=width,
                           backend=backend, engine=engine).result()

    def run_multi(self, roots: dict[str, Expr],
                  feeds: dict[str, DeviceTensor], *,
                  width: int | None = None, backend: str | None = None,
                  engine: "str | ExecutionEngine" = "auto"
                  ) -> dict[str, np.ndarray]:
        """Sharded :meth:`Simdram.run_multi`: one multi-output fused
        dispatch per shard, each root's slices gathered back to host.
        Returns root name -> host vector."""
        return self._submit(roots, (), feeds, width, backend,
                            get_engine(engine), gather=True)[0]

    # ------------------------------------------------------------------
    # streaming execution over host vectors of any length
    # ------------------------------------------------------------------
    def _map(self, op: "str | Expr", positional: tuple,
             feeds: "dict | None", width: int, backend: str | None,
             engine: "str | ExecutionEngine") -> np.ndarray:
        """The one host-vector path: host vectors are split into
        contiguous per-module chunks that stream through all modules
        concurrently; each module batches its chunk exactly like the
        single-module path, so plan caches hit from batch 2 on."""
        engine = get_engine(engine)
        kernel = self.compile(op, width, backend)
        vectors = [np.asarray(v) for v in kernel.bind(positional, feeds)]
        n_total = same_length(kernel.op_name, [len(v) for v in vectors])
        if kernel.declared_slots:
            kernel.check_host(vectors)
        label = f"map:{kernel.op_name}@{width}"
        # Contiguous split, one chunk per module, remainder spread over
        # the leading modules; empty chunks are skipped.
        base, rem = divmod(n_total, self.n_modules)
        bounds = [0]
        for i in range(self.n_modules):
            bounds.append(bounds[-1] + base + (1 if i < rem else 0))

        def run_module(module_index: int) -> np.ndarray:
            lo, hi = bounds[module_index], bounds[module_index + 1]
            sim = self.modules[module_index]
            sim.adopt(kernel)
            with obs_span("cluster.dispatch", module=module_index,
                          label=label, n_elements=hi - lo):
                return sim.map(op, *(v[lo:hi] for v in vectors),
                               width=width, backend=kernel.backend,
                               engine=engine)

        subtasks: list[Subtask] = [
            (m, (lambda i=m: run_module(i)))
            for m in range(self.n_modules)
            if bounds[m + 1] > bounds[m]
        ]
        return self.scheduler.run(subtasks, finalizer=np.concatenate,
                                  label=label)

    def map(self, op: "str | Expr", *host_operands,
            feeds: "dict | None" = None, width: int = 8,
            backend: str | None = None,
            engine: "str | ExecutionEngine" = "auto") -> np.ndarray:
        """Sharded :meth:`Simdram.map`."""
        return self._map(op, host_operands, feeds, width, backend, engine)

    def map_expr(self, root: "str | Expr", feeds: dict[str, np.ndarray], *,
                 width: int = 8, backend: str | None = None,
                 engine: "str | ExecutionEngine" = "auto") -> np.ndarray:
        """Sharded :meth:`Simdram.map_expr`."""
        return self._map(root, (), feeds, width, backend, engine)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def synchronize(self) -> None:
        """Wait for every outstanding job (re-raising failures)."""
        self.scheduler.barrier()

    def close(self) -> None:
        """Drain the scheduler: wait for every outstanding job."""
        self.scheduler.close()

    def __enter__(self) -> "SimdramCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
