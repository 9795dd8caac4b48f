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
    all disappear.  Row conversion is what remains at 4 KiB rows, so a
    liveness pass over the straight-line steps loads only the rows and
    planes read before they are written and stores only those written.
    Bit-identical to ``vectorized``, on success and on a failing pair
    activation (proven by the differential suites); portable, no
    dependencies.

Executors are memoized by the control unit on the plan
(`ExecutionPlan.executors`, keyed by engine name), which its plan cache
keys by µProgram fingerprint (folding ``source_hash``) + row layout —
so a fused kernel replayed on the same layout compiles exactly once,
and eviction of a plan drops its executors with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

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

    Each data row and B-group plane the plan uses is a local variable
    holding one arbitrary-precision integer (the row's packed bytes
    over the participating banks, little-endian, padding bits zero);
    the unrolled step sequence is emitted as straight-line bigint
    expressions.  The prologue loads only the rows and planes read
    before they are written; the epilogue stores only those written.
    The one step that can raise, a pair activation over disagreeing
    cells, first stores what was written so far, mirroring the
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
                "_ONES": {},   # the all-lanes mask, per bank count
            }
            code = compile(source, f"<plan:{plan.op_name}>", "exec")
            exec(code, namespace)  # noqa: S102 - our own generated source
            executor = namespace["_executor"]
            executor.__source__ = source  # introspection / tests
            return executor


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------
def _d(row: int) -> str:
    return f"_d{row}"


def _b(plane: int) -> str:
    return f"_b{plane}"


def _transfer(rows: set[int], planes: set[int], indent: str,
              load: bool = False) -> list[str]:
    """The ``_store_rows`` (or ``_load_rows``) lines moving the given
    data rows and B planes between the state arrays and the locals."""
    lines = []
    for state, name, keys in (("data", _d, rows), ("b_planes", _b, planes)):
        if keys:
            keys = tuple(sorted(keys))
            names = ", ".join(map(name, keys))
            lines.append(f"{indent}{names}, = _load_rows({state}, {keys!r})"
                         if load else
                         f"{indent}_store_rows({state}, {keys!r}, ({names},))")
    return lines


class _Emitted:
    """The unrolled body of one plan and its exact liveness.

    One forward pass over the straight-line steps: a row or plane read
    before any step writes it is live-in (the prologue loads it), and
    every row or plane a step writes is stored by the epilogue — or,
    when a pair check raises, by the writeback emitted at that site,
    which stores exactly what was assigned so far.
    """

    def __init__(self, plan: "ExecutionPlan") -> None:
        self.lines: list[str] = []
        #: Data rows / B planes read before they are written.
        self.live_rows: set[int] = set()
        self.live_planes: set[int] = set()
        #: Data rows / B planes written.
        self.rows: set[int] = set()
        self.planes: set[int] = set()
        for step in plan.steps:
            self._step(step)

    def _emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def _data(self, row: int) -> str:
        if row not in self.rows:
            self.live_rows.add(row)
        return _d(row)

    def _plane(self, ref) -> str:
        plane, positive = ref
        if plane not in self.planes:
            self.live_planes.add(plane)
        return _b(plane) if positive else f"({_b(plane)} ^ _ones)"

    def _set_data(self, row: int, value: str) -> None:
        self._emit(f"{_d(row)} = {value}")
        self.rows.add(row)

    def _set_plane(self, plane: int, value: str) -> None:
        self._emit(f"{_b(plane)} = {value}")
        self.planes.add(plane)

    def _set_planes(self, refs, value: str) -> None:
        for plane, positive in refs:
            self._set_plane(plane,
                            value if positive else f"{value} ^ _ones")

    def _step(self, step) -> None:
        from repro.exec.plan import StepKind as K
        kind, src, dst = step.kind, step.src, step.dst
        if kind == K.COPY_DATA:
            self._set_data(dst, self._data(src))
        elif kind == K.FILL_DATA:
            self._set_data(dst, "_ones" if src else "0")
        elif kind == K.DATA_TO_B:
            self._set_planes(dst, self._data(src))
        elif kind == K.FILL_B:
            for plane, positive in dst:
                self._set_plane(plane, "_ones" if src == positive else "0")
        elif kind == K.B_TO_DATA:
            self._set_data(dst, self._plane(src))
        elif kind == K.B_TO_B:
            # Ints are immutable: snapshot once, no aliasing hazards.
            self._emit(f"_v = {self._plane(src)}")
            self._set_planes(dst, "_v")
        elif kind in (K.PAIR_TO_DATA, K.PAIR_TO_B):
            message = (f"activating {step.src_addr} would charge-share "
                       "two unequal rows; the sensed value is "
                       "nondeterministic")
            self._emit(f"_v = {self._plane(src[0])}")
            self._emit(f"if _v != {self._plane(src[1])}:")
            self.lines += _transfer(self.rows, self.planes, " " * 8)
            self._emit(f"    raise _CommandError({message!r})")
            if kind == K.PAIR_TO_DATA:
                self._set_data(dst, "_v")
            else:
                self._set_planes(dst, "_v")
        else:  # TRA variants: majority of three, destructive restore
            # Triples list a negated DCC port first: it is read once.
            a, b, c = (self._plane(ref) for ref in src)
            self._emit(f"_v = ({a} & ({b} | {c})) | ({b} & {c})")
            self._set_planes(src, "_v")
            if kind == K.TRA_TO_DATA:
                self._set_data(dst, "_v")
            elif kind == K.TRA_TO_B:
                self._set_planes(dst, "_v")


def generate_source(plan: "ExecutionPlan") -> str:
    """Emit the bigint executor source for :class:`CompiledEngine`; it
    defines ``_executor(data, b_planes)``."""
    body = _Emitted(plan)
    head = [
        f"# generated executor: {plan.op_name} "
        f"({plan.backend}, w{plan.element_width}, "
        f"{plan.n_steps} steps)",
        "from repro.errors import CommandError as _CommandError",
        "def _executor(data, b_planes):",
        "    _ones = _ONES.get(data.shape[1])",
        "    if _ones is None:",
        "        _ones = _ONES[data.shape[1]] = int.from_bytes(",
        "            _ROW_ONES * data.shape[1], 'little')",
        *_transfer(body.live_rows, body.live_planes, "    ", load=True),
    ]
    tail = _transfer(body.rows, body.planes, "    ")
    return "\n".join(head + body.lines + tail) + "\n"


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
