"""The three execution engines of the control unit, in a fixed table.

An engine is how the host *simulates* Step 3's lockstep replay of a
µProgram.  :class:`ExecutionEngine` is the base every engine extends:
a ``name``, two capability flags (``vectorizable_only``,
``executes_plans``) and :meth:`~ExecutionEngine.compile`, which lowers
a cached :class:`~repro.exec.plan.ExecutionPlan` to a callable executor
over the module's stacked cell state.

* :func:`get_engine` / :func:`list_engines` — the name → instance
  table, fastest first.  Every public entry point (``Simdram.run/map``,
  ``SimdramCluster.*``, ``LazyTensor.evaluate``, ``SimdramService``)
  accepts either an engine name or an engine instance.
* :func:`resolve_engine` — the ``"auto"`` policy: ``compiled`` when
  the selected banks can run the stacked fast path, ``per_bank`` when
  they cannot (tracing / fault injection).

Engines
-------

``per_bank``
    The traced / fault-injection slow path: replays symbolic µOps bank
    by bank through each :class:`~repro.dram.subarray.Subarray`.  The
    only engine that is *not* ``vectorizable_only``.
``vectorized``
    Interprets the pre-classified :class:`ExecutionPlan` steps over the
    stacked packed ``(rows, banks, row_bytes)`` state, one numpy
    bitwise op per µOp.
``compiled``
    The codegen backend (the assassyn approach: frontend IR → generated
    simulator code).  :meth:`~CompiledEngine.compile` emits specialized
    Python source with the µOp loop fully unrolled and every row /
    plane index baked in, then runs it through ``compile()``/``exec``.
    Each DRAM row becomes a *local variable holding an arbitrary-width
    Python integer* — ``int.from_bytes`` of the row's packed bytes
    across all banks, no pack stage — so a µOp is one or two native
    bigint operations instead of an interpreted numpy dispatch — the
    loop, the ``isinstance``/enum tests and the numpy call overhead
    all disappear.  Bit-identical to ``vectorized`` on success (proven
    by the differential suites); portable, no dependencies.

Executors are memoized by the control unit on the plan
(`ExecutionPlan.executors`, keyed by engine name), which its plan cache
keys by µProgram fingerprint (folding ``source_hash``) + row layout —
so a fused kernel replayed on the same layout compiles exactly once,
and eviction of a plan drops its executors with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.dram.subarray import N_B_PLANES
from repro.errors import EngineError
from repro.obs.tracing import span as obs_span

if TYPE_CHECKING:
    from repro.exec.plan import ExecutionPlan

__all__ = [
    "ExecutionEngine",
    "PerBankEngine",
    "VectorizedEngine",
    "CompiledEngine",
    "get_engine",
    "list_engines",
    "resolve_engine",
    "AUTO",
]

#: An executor: mutates ``(data, b_planes)`` stacked packed state in place.
Executor = Callable[[np.ndarray, np.ndarray], None]


class ExecutionEngine:
    """The base of every engine.

    Engines are stateless after construction: :meth:`compile` is a
    pure function of the plan, so one instance may be shared freely
    across scheduler worker threads (the cluster carries the resolved
    instance on each job).
    """

    #: Table name (what ``engine="..."`` resolves).
    name: str
    #: Requires the module's stacked cell state: the engine executes
    #: compiled plans over all banks at once and cannot model per-bank
    #: behaviours (command tracing, TRA fault injection).
    vectorizable_only = True
    #: Whether :meth:`compile` produces plan executors.  ``False`` for
    #: ``per_bank``, which the control unit routes through the symbolic
    #: per-subarray replay loop instead, and for ``"auto"``.
    executes_plans = True

    def compile(self, plan: "ExecutionPlan") -> Executor:
        """Lower a compiled plan to an executor callable."""
        raise EngineError(f"engine {self.name!r} has no plan executor "
                          "to compile")

    def __repr__(self) -> str:
        return f"<engine {self.name}>"


# ---------------------------------------------------------------------------
# row <-> bigint movement of the codegen backend
# ---------------------------------------------------------------------------
def _load_rows(state: np.ndarray, rows: tuple[int, ...]) -> list[int]:
    """Read ``state[row]`` for each row as one Python int — one fused
    gather; byte ``b * row_bytes + i`` of the int is bank ``b``, byte
    ``i`` of the packed row."""
    if not rows:
        return []
    # ``[rows, ]``: a bare tuple would index three axes, not gather rows.
    raw = state[rows, ].tobytes()
    n_bytes = len(raw) // len(rows)
    return [int.from_bytes(raw[start:start + n_bytes], "little")
            for start in range(0, len(raw), n_bytes)]


def _store_rows(state: np.ndarray, rows: tuple[int, ...],
                values: tuple[int, ...]) -> None:
    """Write integers back into ``state[row]`` per row.

    One fused scatter for the whole writeback set — the executor's
    tail calls this once for data rows and once for B planes, keeping
    the per-dispatch numpy call count independent of how many rows
    the plan writes.
    """
    if not rows:
        return
    shape = (len(rows), *state.shape[1:])
    n_bytes = shape[1] * shape[2]
    raw = b"".join([value.to_bytes(n_bytes, "little") for value in values])
    state[rows, ] = np.frombuffer(raw, dtype=np.uint8).reshape(shape)


# ---------------------------------------------------------------------------
# the engines
# ---------------------------------------------------------------------------
class PerBankEngine(ExecutionEngine):
    """The symbolic per-subarray replay path (tracing, fault injection).

    It does not compile plans at all — the control unit walks the
    µProgram through each bank's :class:`Subarray` — so its
    :meth:`compile` raises.
    """

    name = "per_bank"
    vectorizable_only = False
    executes_plans = False


class VectorizedEngine(ExecutionEngine):
    """Interpret plan steps over the stacked state."""

    name = "vectorized"

    def compile(self, plan: "ExecutionPlan") -> Executor:
        return plan.execute


class CompiledEngine(ExecutionEngine):
    """Generate and ``exec`` specialized Python source per plan.

    Every data row and B-group plane the plan touches becomes a local
    variable holding one arbitrary-precision integer (the row's packed
    bytes over the participating banks, little-endian, padding bits
    zero); the unrolled step sequence is emitted
    as straight-line bigint expressions.  A try/finally writes the
    (partial) state back even when a step raises, mirroring the
    vectorized engine's advance-all-banks-step-by-step failure shape.
    """

    name = "compiled"

    def compile(self, plan: "ExecutionPlan") -> Executor:
        with obs_span("engine.compile", engine=self.name,
                      op=plan.op_name):
            source = generate_source(plan)
            namespace = {
                "_load_rows": _load_rows,
                "_store_rows": _store_rows,
                "_ROW_ONES": plan.row_ones.tobytes(),
            }
            code = compile(source, f"<plan:{plan.op_name}>", "exec")
            exec(code, namespace)  # noqa: S102 - our own generated source
            executor = namespace["_executor"]
            executor.__source__ = source  # introspection / tests
            return executor


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------
def _plan_data_rows(plan: "ExecutionPlan") -> tuple[list[int], set[int]]:
    """All data-row indices a plan touches, and the written subset."""
    from repro.exec.plan import StepKind
    K = StepKind
    touched: set[int] = set()
    written: set[int] = set()
    for step in plan.steps:
        if step.kind in (K.COPY_DATA, K.DATA_TO_B):
            touched.add(step.src)
        if step.kind in (K.COPY_DATA, K.FILL_DATA, K.B_TO_DATA,
                         K.PAIR_TO_DATA, K.TRA_TO_DATA):
            touched.add(step.dst)
            written.add(step.dst)
    return sorted(touched), written


def _d(row: int) -> str:
    return f"_d{row}"


def _b(plane: int) -> str:
    return f"_b{plane}"


def _emit_steps(plan: "ExecutionPlan") -> list[str]:
    """Emit one line-sequence per plan step, over the row variables
    ``_d<row>`` / ``_b<plane>`` and the all-lanes mask ``_ones``."""
    from repro.exec.plan import StepKind
    K = StepKind
    indent = "        "
    lines: list[str] = []

    def read_ref(ref) -> str:
        plane, positive = ref
        return _b(plane) if positive else f"({_b(plane)} ^ _ones)"

    def write_refs(refs, value: str) -> None:
        for plane, positive in refs:
            lines.append(f"{indent}{_b(plane)} = "
                         + (value if positive else f"{value} ^ _ones"))

    for step in plan.steps:
        kind, src, dst = step.kind, step.src, step.dst
        if kind == K.COPY_DATA:
            lines.append(f"{indent}{_d(dst)} = {_d(src)}")
        elif kind == K.FILL_DATA:
            lines.append(f"{indent}{_d(dst)} = "
                         f"{'_ones' if src else '_zero'}")
        elif kind == K.DATA_TO_B:
            write_refs(dst, _d(src))
        elif kind == K.FILL_B:
            for plane, positive in dst:
                value = "_ones" if (src == positive) else "_zero"
                lines.append(f"{indent}{_b(plane)} = {value}")
        elif kind == K.B_TO_DATA:
            lines.append(f"{indent}{_d(dst)} = {read_ref(src)}")
        elif kind == K.B_TO_B:
            # Ints are immutable: snapshot once, no aliasing hazards.
            lines.append(f"{indent}_v = {read_ref(src)}")
            write_refs(dst, "_v")
        elif kind in (K.PAIR_TO_DATA, K.PAIR_TO_B):
            message = (f"activating {step.src_addr} would charge-share "
                       "two unequal rows; the sensed value is "
                       "nondeterministic")
            lines.append(f"{indent}_v = {read_ref(src[0])}")
            lines.append(f"{indent}if _v != {read_ref(src[1])}:")
            lines.append(f"{indent}    raise _CommandError({message!r})")
            if kind == K.PAIR_TO_DATA:
                lines.append(f"{indent}{_d(dst)} = _v")
            else:
                write_refs(dst, "_v")
        else:  # TRA variants: majority of three, destructive restore
            a0, a1, a2 = (read_ref(ref) for ref in src)
            lines.append(f"{indent}_v = ({a0} & {a1}) | ({a1} & {a2}) "
                         f"| ({a0} & {a2})")
            write_refs(src, "_v")
            if kind == K.TRA_TO_DATA:
                lines.append(f"{indent}{_d(dst)} = _v")
            elif kind == K.TRA_TO_B:
                write_refs(dst, "_v")
    return lines


def generate_source(plan: "ExecutionPlan") -> str:
    """Emit the bigint executor source for :class:`CompiledEngine`; it
    defines ``_executor(data, b_planes)``."""
    rows, written = _plan_data_rows(plan)
    planes = tuple(range(N_B_PLANES))
    plane_names = ", ".join(_b(p) for p in planes)

    head = [
        f"# generated executor: {plan.op_name} "
        f"({plan.backend}, w{plan.element_width}, "
        f"{plan.n_steps} steps)",
        "from repro.errors import CommandError as _CommandError",
        "def _executor(data, b_planes):",
        "    _ones = int.from_bytes(_ROW_ONES * data.shape[1], 'little')",
        "    _zero = 0",
    ]
    if rows:
        names = ", ".join(_d(r) for r in rows)
        trailing = "," if len(rows) == 1 else ""
        head.append(f"    {names}{trailing} = "
                    f"_load_rows(data, {tuple(rows)!r})")
    head.append(f"    {plane_names} = _load_rows(b_planes, {planes!r})")
    head.append("    try:")

    body = _emit_steps(plan) or ["        pass"]

    tail = ["    finally:"]
    written_rows = tuple(sorted(written))
    if written_rows:
        values = ", ".join(_d(r) for r in written_rows)
        tail.append(f"        _store_rows(data, "
                    f"{written_rows!r}, ({values},))")
    tail.append(f"        _store_rows(b_planes, "
                f"{planes!r}, ({plane_names},))")
    return "\n".join(head + body + tail) + "\n"


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------
class _AutoEngine(ExecutionEngine):
    """The ``"auto"`` selector: not a real engine, but carrying it on a
    request/job object is well-defined — it resolves per dispatch via
    :func:`resolve_engine`."""

    name = "auto"
    vectorizable_only = False
    executes_plans = False


#: The singleton ``"auto"`` selector every layer may carry.
AUTO = _AutoEngine()

#: Every engine by name, fastest first.
_ENGINES: dict[str, ExecutionEngine] = {
    engine.name: engine
    for engine in (CompiledEngine(), VectorizedEngine(), PerBankEngine())}


def list_engines(available_only: bool = False) -> list[str]:
    """Engine names, fastest first.  Every engine runs in any process,
    so ``available_only`` (read by the benchmark harness) drops none."""
    return list(_ENGINES)


def get_engine(spec: "str | ExecutionEngine") -> ExecutionEngine:
    """Look an engine name up — or pass an engine instance through.

    ``"auto"`` returns the :data:`AUTO` selector.  Anything else that
    is not a table name raises :class:`~repro.errors.EngineError`.
    """
    if isinstance(spec, ExecutionEngine):
        return spec
    if isinstance(spec, str):
        if spec == AUTO.name:
            return AUTO
        if spec in _ENGINES:
            return _ENGINES[spec]
    raise EngineError(f"unknown engine {spec!r}; engines: 'auto', "
                      f"{', '.join(map(repr, _ENGINES))}")


def resolve_engine(spec: "str | ExecutionEngine",
                   vectorizable: bool) -> ExecutionEngine:
    """The concrete engine a dispatch runs, given whether its banks
    can run the stacked fast path (``vectorizable``: no bank traced,
    fault-injected or detached).

    ``"auto"`` is ``compiled`` when they can and ``per_bank`` when they
    cannot.  A ``vectorizable_only`` engine named on banks that cannot
    raises :class:`~repro.errors.EngineError` rather than silently
    diverging.
    """
    engine = get_engine(spec)
    if engine is AUTO:
        return _ENGINES["compiled" if vectorizable else "per_bank"]
    if engine.vectorizable_only and not vectorizable:
        raise EngineError(
            f"engine {engine.name!r} requested, but a selected bank is "
            "traced, fault-injected, or detached from the module's "
            "stacked state; use engine='per_bank' (or 'auto', which "
            "falls back silently)")
    return engine
