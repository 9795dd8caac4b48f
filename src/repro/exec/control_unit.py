"""The SIMDRAM control unit (Step 3 of the framework).

The control unit lives in the memory controller.  It holds the µProgram
scratchpad (programs are installed once, at boot in the paper), and on
every ``bbop`` instruction it replays the matching µProgram as a stream
of AAP/AP commands to the participating banks, transparently to the
user (paper §3, step 3).

Replay goes through one of the engines of :mod:`repro.exec.engines`:
plan-based engines (``vectorized``, ``compiled``) compile the µProgram
+ row layout into an :class:`~repro.exec.plan.ExecutionPlan` (memoized
on the µProgram, with each engine's executor memoized on the plan) and
run that executor over the module's stacked cell state, all banks at
once — the paper's lockstep broadcast.  As the paper's one control
unit broadcasts one copy of each µProgram, every module that installed
a program shares its plans and executors: a cluster's members, a lazy
device over the cluster and a replica's forked kernel build each once.
The ``per_bank`` engine replays the symbolic µOps bank by bank through
each :class:`Subarray` — the traced / fault-injection slow path,
bit-identical to the fast paths on success.
``"auto"`` resolves per dispatch: ``compiled`` when the module supports
stacked execution, else ``per_bank``.

Commands are counted once, where they are issued: every engine leaves
the same per-bank :class:`CommandStats`, and the device PMU
(:mod:`repro.obs.pmu`) reads those at scrape.  A dispatch adds only
what the banks cannot know — participating banks and kernel identity —
as one O(1) PMU tally.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.dram.bank import DramModule
from repro.dram.commands import CommandStats
from repro.dram.subarray import Subarray
from repro.errors import ExecutionError
from repro.exec.engines import ExecutionEngine, resolve_engine
from repro.exec.layout import RowLayout
from repro.exec.plan import ExecutionPlan, compile_plan
from repro.obs.pmu import get_pmu
from repro.uprog.program import MicroProgram
from repro.uprog.uops import UAap, UAp

#: Default scratchpad capacity in µOps.  The paper stores each operation's
#: µProgram in a small memory inside the controller; we size it generously
#: because our µPrograms are fully unrolled (no loop registers).
DEFAULT_SCRATCHPAD_UOPS = 1 << 20

#: Execution plans kept per µProgram (LRU, in
#: :attr:`MicroProgram.plans <repro.uprog.program.MicroProgram.plans>`).
#: A plan is (layout, geometry)-specific; steady-state workloads bind a
#: handful of layouts per program, so a small bound suffices.
PLANS_PER_PROGRAM = 256


#: Guards every µProgram's plan table and every plan's executors.  One
#: lock, because the modules that installed a program share its plans:
#: threads running different modules build a plan, and an engine's
#: executor for it, at most once.
_PLAN_LOCK = threading.Lock()


def _reset_plan_lock() -> None:
    """A replica forks with its parent's kernels (and their plans); a
    lock some parent thread held at the fork would stay held in it."""
    global _PLAN_LOCK
    _PLAN_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_plan_lock)


@dataclass(frozen=True)
class ProgramKey:
    """Identity of an installed µProgram."""

    op_name: str
    element_width: int
    backend: str


class ControlUnit:
    """Holds installed µPrograms and replays them on DRAM banks."""

    def __init__(self, scratchpad_uops: int = DEFAULT_SCRATCHPAD_UOPS
                 ) -> None:
        self.scratchpad_uops = scratchpad_uops
        self._programs: dict[ProgramKey, MicroProgram] = {}
        # The runtime's async scheduler may install programs from one
        # caller's thread while another caller's thread holding the
        # module replays others.
        self._lock = threading.Lock()
        #: Plan-cache observability (tests, benchmarks): this module's
        #: lookups.  The first module to ask for a plan counts the miss
        #: (and builds it); every later ask, from any module, is a hit.
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
        """Fetch (or compile and memoize on ``program``) the execution
        plan for ``program`` bound to ``layout`` under ``geometry``.

        The lookup builds nothing: the table is the program's own
        (:attr:`MicroProgram.plans`), keyed by what the binding fixes
        (:meth:`RowLayout.cache_key`, computed once per layout) and the
        geometry.  A plan is built under the one plan lock, so a module
        asking while another builds waits for that plan.
        """
        key = (layout.cache_key(), geometry)
        plans = program.plans
        with _PLAN_LOCK:
            plan = plans.get(key)
            if plan is not None:
                plans.move_to_end(key)
                self.plan_cache_hits += 1
                return plan
            self.plan_cache_misses += 1
            plan = plans[key] = compile_plan(program, layout, geometry)
            if len(plans) > PLANS_PER_PROGRAM:
                plans.popitem(last=False)
            return plan

    def compiled_cache_size(self) -> int:
        """Number of compiled executors memoized on the plans of the
        installed programs (those another module built included)."""
        with self._lock:
            programs = list(self._programs.values())
        with _PLAN_LOCK:
            return sum(len(plan.executors) for program in programs
                       for plan in program.plans.values())

    def executor_for(self, plan: ExecutionPlan,
                     engine: ExecutionEngine):
        """Fetch (or compile and memoize on the plan) ``engine``'s
        executor for a memoized plan.  Compilation happens under the
        plan lock, so threads replaying the same plan — on one module
        or several — never duplicate codegen work."""
        executor = plan.executors.get(engine.name)
        if executor is not None:
            return executor
        with _PLAN_LOCK:
            executor = plan.executors.get(engine.name)
            if executor is None:
                executor = plan.executors[engine.name] = \
                    engine.compile(plan)
            return executor

    def warm_plan(self, program: MicroProgram, layout: RowLayout,
                  module: DramModule,
                  engine: "str | ExecutionEngine" = "auto") -> None:
        """Precompile what a dispatch on ``module`` with ``engine`` will
        run — for plan-based engines the plan and its executor —
        without touching DRAM state.  The serve layer's manifest warmup
        uses this so the first real dispatch hits a fully warm cache."""
        resolved = resolve_engine(engine, module.supports_vectorized())
        if resolved.executes_plans:
            self.executor_for(
                self.plan_for(program, layout, module.geometry), resolved)

    def execute_on_module(self, program: MicroProgram, module: DramModule,
                          layout: RowLayout,
                          n_banks: int | None = None,
                          engine: "str | ExecutionEngine" = "auto",
                          ) -> None:
        """Broadcast a µProgram to ``n_banks`` banks in lockstep.

        ``engine`` is an engine name or :class:`ExecutionEngine`
        instance.  Plan-based engines (``vectorized``, ``compiled``)
        run a compiled :class:`ExecutionPlan` over the stacked cell
        state of all participating banks at once;
        ``per_bank`` replays the µOps through each subarray in turn;
        ``"auto"`` (default) runs ``compiled`` whenever it is
        equivalent — i.e. no selected bank traces commands or injects
        TRA faults — and silently falls back to ``per_bank``
        otherwise.  Explicitly requesting a ``vectorizable_only``
        engine on a module that cannot run the stacked path raises
        :class:`~repro.errors.EngineError`.

        The commands land in each participating bank's
        :class:`CommandStats` (every engine leaves the same counts);
        nothing is returned, so no stats object leaves the plan.
        """
        banks = module.banks if n_banks is None else module.banks[:n_banks]
        if not banks:
            raise ExecutionError("no banks selected for execution")
        resolved = resolve_engine(
            engine, module.supports_vectorized(len(banks)))
        if not resolved.executes_plans:
            for bank in banks:
                delta = self.execute(program, bank.subarray, layout)
        else:
            plan = self.plan_for(program, layout, module.geometry)
            executor = self.executor_for(plan, resolved)
            data, b_planes = module.vector_state(len(banks))
            executor(data, b_planes)
            # Fold the per-bank stats into each bank so every engine
            # leaves identical accounting state.
            delta = plan.per_bank_stats
            for bank in banks:
                bank.subarray.stats.accumulate(delta)
        # Lockstep: one bank's delta is every participant's.
        get_pmu().record_dispatch(
            module.pmu_id, len(banks),
            (program.op_name, program.element_width), delta)
