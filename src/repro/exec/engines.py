"""First-class execution engines behind one registry.

Historically ``engine`` was a string (``"auto"`` / ``"vectorized"`` /
``"per_bank"``) threaded as a parameter through every layer of the
stack, and the control unit hard-coded what each string meant.  Adding
a backend meant touching every layer.  This module makes engines
**objects** behind a small registry instead:

* :class:`ExecutionEngine` — the protocol: a ``name``, an
  :meth:`~ExecutionEngine.available` probe, capability flags
  (``vectorizable_only``, ``executes_plans``) and
  :meth:`~ExecutionEngine.compile`, which lowers a cached
  :class:`~repro.exec.plan.ExecutionPlan` to a callable executor over
  the module's stacked cell state.
* :func:`register_engine` / :func:`get_engine` / :func:`list_engines`
  — the registry.  Every public entry point (``Simdram.run/map``,
  ``SimdramCluster.*``, ``LazyTensor.evaluate``, ``SimdramService``)
  accepts either a registry name or an engine instance; the old
  strings resolve through the registry, so existing callers keep
  working.
* :func:`resolve_engine` — the ``"auto"`` policy: pick the best
  available engine per plan (compiled > vectorized > per_bank),
  silently falling back to ``per_bank`` when the module cannot run the
  stacked fast path (tracing / fault injection).

Built-in engines
----------------

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

Compiled executors are cached *on the plan* (`ExecutionPlan.executors`,
keyed by engine name), which the control unit's plan cache keys by
µProgram fingerprint (folding ``source_hash``) + row layout — so a
fused kernel replayed on the same layout compiles exactly once, and
eviction of a plan drops its executors with it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

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
    "register_engine",
    "get_engine",
    "list_engines",
    "resolve_engine",
    "AUTO",
]

#: An executor: mutates ``(data, b_planes)`` stacked packed state in place.
Executor = Callable[[np.ndarray, np.ndarray], None]


@runtime_checkable
class ExecutionEngine(Protocol):
    """The engine protocol every registered backend satisfies.

    Implementations are stateless-after-construction: :meth:`compile`
    must be a pure function of the plan, so one engine instance may be
    shared freely across scheduler worker threads (the cluster carries
    the resolved instance on each job).
    """

    #: Registry name (also the legacy string that resolves to it).
    name: str
    #: Requires the module's stacked cell state: the engine executes
    #: compiled plans over all banks at once and cannot model per-bank
    #: behaviours (command tracing, TRA fault injection).
    vectorizable_only: bool
    #: Whether :meth:`compile` produces plan executors.  ``False`` only
    #: for ``per_bank``, which the control unit routes through the
    #: symbolic per-subarray replay loop instead.
    executes_plans: bool
    #: ``"auto"`` preference; higher wins among available engines.
    priority: int

    def available(self) -> bool:
        """Whether the engine can run in this process (deps present)."""
        ...

    def compile(self, plan: "ExecutionPlan") -> Executor:
        """Lower a compiled plan to an executor callable."""
        ...


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
# built-in engines
# ---------------------------------------------------------------------------
class PerBankEngine:
    """The symbolic per-subarray replay path (tracing, fault injection).

    It does not compile plans at all — the control unit walks the
    µProgram through each bank's :class:`Subarray` — so its
    :meth:`compile` raises.  It exists in the registry so "per_bank" is
    a first-class, introspectable engine like every other.
    """

    name = "per_bank"
    vectorizable_only = False
    executes_plans = False
    priority = 0

    def available(self) -> bool:
        return True

    def compile(self, plan: "ExecutionPlan") -> Executor:
        raise EngineError(
            "per_bank replays symbolic µOps through each subarray; it "
            "has no plan executor to compile")

    def __repr__(self) -> str:
        return f"<engine {self.name}>"


class VectorizedEngine:
    """Interpret plan steps over the stacked state (the PR-1 engine)."""

    name = "vectorized"
    vectorizable_only = True
    executes_plans = True
    priority = 10

    def available(self) -> bool:
        return True

    def compile(self, plan: "ExecutionPlan") -> Executor:
        return plan.execute

    def __repr__(self) -> str:
        return f"<engine {self.name}>"


class CompiledEngine:
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
    vectorizable_only = True
    executes_plans = True
    priority = 30

    def available(self) -> bool:
        return True

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

    def __repr__(self) -> str:
        return f"<engine {self.name}>"


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
# the registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, ExecutionEngine] = {}
_REGISTRY_LOCK = threading.Lock()


class _AutoEngine:
    """The ``"auto"`` selector: not a real engine, but carrying it on a
    request/job object is well-defined — it resolves per dispatch via
    :func:`resolve_engine`, so a traced module still falls back to
    ``per_bank`` while everything else gets the best compiled path."""

    name = "auto"
    vectorizable_only = False
    executes_plans = False
    priority = -1

    def available(self) -> bool:
        return True

    def compile(self, plan: "ExecutionPlan") -> Executor:
        raise EngineError("'auto' resolves to a concrete engine per "
                          "dispatch; it cannot compile plans itself")

    def __repr__(self) -> str:
        return "<engine auto>"


#: The singleton ``"auto"`` selector every layer may carry.
AUTO = _AutoEngine()


def register_engine(engine: ExecutionEngine,
                    replace: bool = False) -> ExecutionEngine:
    """Register an engine under ``engine.name``.

    Raises :class:`~repro.errors.EngineError` on a duplicate name
    unless ``replace=True`` (the escape hatch for tests and for
    swapping in an instrumented engine).  Returns the engine for
    decorator-ish chaining.
    """
    name = getattr(engine, "name", None)
    if not name or not isinstance(name, str):
        raise EngineError(f"engine {engine!r} has no usable .name")
    if name == AUTO.name:
        raise EngineError("'auto' is the resolver, not a registrable "
                          "engine name")
    with _REGISTRY_LOCK:
        if not replace and name in _REGISTRY:
            raise EngineError(
                f"engine {name!r} is already registered; pass "
                "replace=True to substitute it")
        _REGISTRY[name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove an engine (tests); unknown names are a no-op."""
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name, None)


def list_engines(available_only: bool = False) -> list[str]:
    """Registered engine names, highest ``"auto"`` preference first."""
    with _REGISTRY_LOCK:
        engines = sorted(_REGISTRY.values(),
                         key=lambda e: -e.priority)
    return [e.name for e in engines
            if not available_only or e.available()]


def get_engine(spec: "str | ExecutionEngine") -> ExecutionEngine:
    """Resolve a registry name — or pass an engine instance through.

    ``"auto"`` returns the :data:`AUTO` selector.  An unknown string
    raises :class:`~repro.errors.EngineError` naming
    :func:`list_engines`.
    """
    if not isinstance(spec, str):
        # A registered instance needs no structural check — the
        # Protocol isinstance costs more than a small dispatch.
        if (spec is AUTO or _REGISTRY.get(getattr(spec, "name", None))
                is spec or isinstance(spec, ExecutionEngine)):
            return spec
        raise EngineError(
            f"engine must be a registry name or an ExecutionEngine, "
            f"got {type(spec).__name__}")
    if spec == AUTO.name:
        return AUTO
    with _REGISTRY_LOCK:
        engine = _REGISTRY.get(spec)
    if engine is None:
        raise EngineError(
            f"unknown engine {spec!r}; registered engines: "
            f"{list_engines()}")
    return engine


def resolve_engine(spec: "str | ExecutionEngine",
                   vectorizable: bool = True) -> ExecutionEngine:
    """Resolve ``spec`` to the concrete engine a dispatch will use.

    ``"auto"`` (or :data:`AUTO`) picks the highest-priority available
    engine — compiled > vectorized > per_bank — restricted to engines
    whose requirements the module meets: when ``vectorizable`` is
    false (a bank is traced, fault-injected or detached) every
    ``vectorizable_only`` engine is skipped, which is exactly the old
    silent per-bank fallback.  A concrete engine resolves to itself
    but must be available.
    """
    engine = get_engine(spec)
    if engine is AUTO:
        with _REGISTRY_LOCK:
            candidates = sorted(_REGISTRY.values(),
                                key=lambda e: -e.priority)
        for candidate in candidates:
            if candidate.vectorizable_only and not vectorizable:
                continue
            if candidate.available():
                return candidate
        raise EngineError(
            f"no registered engine can execute here; registered: "
            f"{list_engines()}")
    if not engine.available():
        raise EngineError(
            f"engine {engine.name!r} is unavailable in this process; "
            f"available engines: {list_engines(available_only=True)}")
    return engine


# Built-ins register at import; user engines join via register_engine.
register_engine(PerBankEngine())
register_engine(VectorizedEngine())
register_engine(CompiledEngine())
