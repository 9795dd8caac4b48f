"""The SIMDRAM control unit (Step 3 of the framework).

The control unit lives in the memory controller.  It holds the µProgram
scratchpad (programs are installed once, at boot in the paper), and on
every ``bbop`` instruction it replays the matching µProgram as a stream
of AAP/AP commands to the participating banks, transparently to the
user (paper §3, step 3).

Replay goes through the engine registry
(:mod:`repro.exec.engines`): plan-based engines (``vectorized``,
``compiled``) compile the µProgram + row layout into an
:class:`~repro.exec.plan.ExecutionPlan` (cached here) and run an
executor over the module's stacked cell state, all banks at once — the
paper's lockstep broadcast.  The ``per_bank`` engine replays the
symbolic µOps bank by bank through each :class:`Subarray` — the traced
/ fault-injection slow path, bit-identical to the fast paths on
success.  ``"auto"`` resolves per dispatch: the best available
plan-based engine when the module supports stacked execution, else
``per_bank``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.dram.bank import DramModule
from repro.dram.commands import CommandStats
from repro.dram.energy import DramEnergy
from repro.dram.subarray import Subarray
from repro.dram.timing import DramTiming
from repro.errors import EngineError, ExecutionError
from repro.exec.engines import ExecutionEngine, get_engine, resolve_engine
from repro.exec.layout import RowLayout
from repro.exec.plan import ExecutionPlan, compile_plan
from repro.obs.pmu import get_pmu
from repro.uprog.program import MicroProgram
from repro.uprog.uops import UAap, UAp

#: Reference timing/energy model for the PMU's latency/nJ samples —
#: fixed (DDR4-2400) so counters stay comparable across dispatch
#: paths that carry no timing config of their own.
_PMU_TIMING = DramTiming.ddr4_2400()
_PMU_ENERGY = DramEnergy.ddr4()

#: Default scratchpad capacity in µOps.  The paper stores each operation's
#: µProgram in a small memory inside the controller; we size it generously
#: because our µPrograms are fully unrolled (no loop registers).
DEFAULT_SCRATCHPAD_UOPS = 1 << 20

#: Execution-plan cache entries kept per control unit (LRU).  A plan is
#: (program, layout, geometry)-specific; steady-state workloads reuse a
#: handful of layouts, so a small bound suffices.
DEFAULT_PLAN_CACHE_SIZE = 256


@dataclass(frozen=True)
class ProgramKey:
    """Identity of an installed µProgram."""

    op_name: str
    element_width: int
    backend: str


class ControlUnit:
    """Holds installed µPrograms and replays them on DRAM banks."""

    def __init__(self, scratchpad_uops: int = DEFAULT_SCRATCHPAD_UOPS,
                 plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        self.scratchpad_uops = scratchpad_uops
        self.plan_cache_size = plan_cache_size
        self._programs: dict[ProgramKey, MicroProgram] = {}
        self._plan_cache: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
        # The runtime's async scheduler may install programs from the
        # submitting thread while a module worker replays others; the
        # scratchpad and plan cache are the only shared mutable state.
        self._lock = threading.Lock()
        #: Plan-cache observability (tests, benchmarks).
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # ------------------------------------------------------------------
    # µProgram installation
    # ------------------------------------------------------------------
    def install(self, program: MicroProgram) -> ProgramKey:
        """Install a µProgram into the scratchpad (checks capacity)."""
        key = ProgramKey(program.op_name, program.element_width,
                         program.backend)
        with self._lock:
            used = self.used_uops()
            existing = self._programs.get(key)
            if existing is not None:  # reinstalling replaces the old copy
                used -= len(existing.uops)
            if used + len(program.uops) > self.scratchpad_uops:
                raise ExecutionError(
                    f"µProgram scratchpad overflow: {used} + "
                    f"{len(program.uops)} µOps > {self.scratchpad_uops}")
            self._programs[key] = program
        return key

    def used_uops(self) -> int:
        """Total µOps currently installed."""
        return sum(len(p.uops) for p in self._programs.values())

    def lookup(self, key: ProgramKey) -> MicroProgram:
        program = self._programs.get(key)
        if program is None:
            raise ExecutionError(f"no µProgram installed for {key}")
        return program

    @property
    def installed(self) -> list[ProgramKey]:
        return list(self._programs)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, program: MicroProgram, subarray: Subarray,
                layout: RowLayout) -> CommandStats:
        """Replay a µProgram on one subarray; returns the command stats."""
        layout.check(program, subarray.geometry)
        before = CommandStats().merged_with(subarray.stats)
        for uop in program.uops:
            if isinstance(uop, UAp):
                subarray.ap(layout.resolve(uop.addr))
            elif isinstance(uop, UAap):
                subarray.aap(layout.resolve(uop.src),
                             layout.resolve(uop.dst))
            else:
                raise ExecutionError(f"unknown µOp {uop!r}")
        after = subarray.stats
        return CommandStats(
            n_ap=after.n_ap - before.n_ap,
            n_aap=after.n_aap - before.n_aap,
            ap_wordlines=after.ap_wordlines - before.ap_wordlines,
            aap_src_wordlines=(after.aap_src_wordlines
                               - before.aap_src_wordlines),
            aap_dst_wordlines=(after.aap_dst_wordlines
                               - before.aap_dst_wordlines),
        )

    def plan_for(self, program: MicroProgram, layout: RowLayout,
                 geometry) -> ExecutionPlan:
        """Fetch (or compile and cache) the execution plan for
        ``program`` bound to ``layout`` under ``geometry``."""
        key = (ProgramKey(program.op_name, program.element_width,
                          program.backend),
               program.fingerprint(), layout.cache_key(), geometry)
        with self._lock:
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_cache.move_to_end(key)
                self.plan_cache_hits += 1
                return plan
            self.plan_cache_misses += 1
        plan = compile_plan(program, layout, geometry)
        with self._lock:
            self._plan_cache[key] = plan
            while len(self._plan_cache) > self.plan_cache_size:
                self._plan_cache.popitem(last=False)
        return plan

    def compiled_cache_size(self) -> int:
        """Number of compiled executors memoized on cached plans."""
        with self._lock:
            return sum(len(plan.executors)
                       for plan in self._plan_cache.values())

    def executor_for(self, plan: ExecutionPlan,
                     engine: ExecutionEngine):
        """Fetch (or compile and memoize) ``engine``'s executor for a
        cached plan.  Compilation happens under the control unit's lock
        so scheduler worker threads replaying the same plan never
        duplicate codegen work."""
        executor = plan.executors.get(engine.name)
        if executor is not None:
            return executor
        with self._lock:
            return plan.executor_for(engine)

    def warm_plan(self, program: MicroProgram, layout: RowLayout,
                  geometry, engine: "str | ExecutionEngine" = "auto",
                  ) -> ExecutionPlan:
        """Precompile the plan — and, for plan-based engines, the
        compiled executor — without touching DRAM state.  The serve
        layer's manifest warmup uses this so the first real dispatch
        hits a fully warm cache."""
        plan = self.plan_for(program, layout, geometry)
        resolved = resolve_engine(engine, vectorizable=True)
        if resolved.executes_plans:
            self.executor_for(plan, resolved)
        return plan

    def execute_on_module(self, program: MicroProgram, module: DramModule,
                          layout: RowLayout,
                          n_banks: int | None = None,
                          engine: "str | ExecutionEngine" = "auto",
                          ) -> CommandStats:
        """Broadcast a µProgram to ``n_banks`` banks in lockstep.

        ``engine`` is a registry name or :class:`ExecutionEngine`
        instance.  Plan-based engines (``vectorized``, ``compiled``)
        run a compiled :class:`ExecutionPlan` over the stacked cell
        state of all participating banks at once;
        ``per_bank`` replays the µOps through each subarray in turn;
        ``"auto"`` (default) picks the best available plan-based
        engine whenever it is equivalent — i.e. no selected bank
        traces commands or injects TRA faults — and silently falls
        back to ``per_bank`` otherwise.  Explicitly requesting a
        ``vectorizable_only`` engine on a module that cannot run the
        stacked path raises :class:`~repro.errors.EngineError`.
        """
        resolved = get_engine(engine)  # fail fast on unknown names
        banks = module.banks if n_banks is None else module.banks[:n_banks]
        if not banks:
            raise ExecutionError("no banks selected for execution")

        vectorizable = module.supports_vectorized(len(banks))
        if resolved.vectorizable_only and not vectorizable:
            raise EngineError(
                f"engine {resolved.name!r} requested, but a selected "
                "bank is traced, fault-injected, or detached from the "
                "module's stacked state; use engine='per_bank' (or "
                "'auto', which falls back silently)")
        resolved = resolve_engine(resolved, vectorizable=vectorizable)
        if not resolved.executes_plans:
            stats = CommandStats()
            first = None
            for bank in banks:
                delta = self.execute(program, bank.subarray, layout)
                if first is None:
                    first = delta
                stats = stats.merged_with(delta)
            self._note_dispatch(module, len(banks), first, program)
            return stats

        plan = self.plan_for(program, layout, module.geometry)
        executor = self.executor_for(plan, resolved)
        data, b_planes = module.vector_state(len(banks))
        executor(data, b_planes)
        # Fold the per-bank stats into each bank so every engine
        # leaves identical accounting state.
        for bank in banks:
            bank.subarray.stats.accumulate(plan.per_bank_stats)
        self._note_dispatch(module, len(banks), plan.per_bank_stats,
                            program)
        return plan.per_bank_stats.scaled(len(banks))

    @staticmethod
    def _note_dispatch(module: DramModule, n_banks: int,
                       per_bank: "CommandStats | None",
                       program: MicroProgram) -> None:
        """Device-PMU dispatch sample: banks run in lockstep, so one
        bank's delta describes every participant."""
        pmu_id = getattr(module, "pmu_id", None)
        if pmu_id is None or per_bank is None:
            return
        get_pmu().record_dispatch(
            pmu_id, n_banks, per_bank,
            kernel=f"{program.op_name}@{program.element_width}",
            latency_ns=per_bank.latency_ns(_PMU_TIMING),
            energy_nj=n_banks * per_bank.energy_nj(
                _PMU_TIMING, module.geometry, _PMU_ENERGY))
