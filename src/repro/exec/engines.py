"""The two execution engines of the control unit, in a fixed table.

An engine is how the host *simulates* Step 3's lockstep replay of a
µProgram.  :class:`ExecutionEngine` is the base every engine extends:
a ``name``, one capability flag (``executes_plans``) and
:meth:`~ExecutionEngine.compile`, which lowers a cached
:class:`~repro.exec.plan.ExecutionPlan` to a callable executor over the
module's stacked cell state.

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
    The executable specification: replays symbolic µOps bank by bank
    through each :class:`~repro.dram.subarray.Subarray`.  The traced /
    fault-injection path, and the reference every test compares the
    fast path against.  The only engine that does not ``executes_plans``.
``compiled``
    The codegen backend (the assassyn approach: frontend IR → generated
    simulator code).  :meth:`~CompiledEngine.compile` emits specialized
    Python source for the plan's straight-line steps, with every row /
    plane index baked in, then runs it through ``compile()``/``exec``.
    A DRAM row's contents are an *arbitrary-width Python integer* —
    ``int.from_bytes`` of the row's packed bytes across all banks, no
    pack stage.  The generator value-numbers the steps: an AAP (copy,
    fill, wordline move) only renames a value and emits no code, and a
    TRA is one bigint expression, folded where an exact identity holds
    (``MAJ(x, x, y) = x``, ``MAJ(x, ~x, y) = y``, a constant operand
    makes it ``&`` or ``|``).  Locals are recycled once their value is
    dead.  The prologue loads only the rows and planes read before they
    are written; the epilogue stores only those written.  Bit-identical
    to ``per_bank`` on success (proven by the differential suites);
    portable, no dependencies.

The control unit keeps one executor per plan
(`ExecutionPlan.executor`), and the plan is memoized on its µProgram by
row layout and geometry — so a kernel replayed on the same layout
compiles exactly once, on every module that installed it, and eviction
of a plan drops its executor with it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable

import numpy as np

from repro.errors import EngineError
from repro.exec.plan import ExecutionPlan, StepKind as K
from repro.obs.tracing import span as obs_span

__all__ = [
    "ExecutionEngine",
    "PerBankEngine",
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
    across the threads that run cluster subtasks (the cluster carries
    the resolved instance on each job).
    """

    #: Table name (what ``engine="..."`` resolves).
    name: str
    #: Whether :meth:`compile` produces plan executors.  Such an engine
    #: runs over the module's stacked cell state, all banks at once, so
    #: it cannot model per-bank behaviours (command tracing, TRA fault
    #: injection).  ``False`` for ``per_bank``, which the control unit
    #: routes through the symbolic per-subarray replay loop instead,
    #: and for ``"auto"``.
    executes_plans = True

    def compile(self, plan: ExecutionPlan) -> Executor:
        """Lower a compiled plan to an executor callable."""
        raise EngineError(f"engine {self.name!r} has no plan executor "
                          "to compile")

    def __repr__(self) -> str:
        return f"<engine {self.name}>"


# ---------------------------------------------------------------------------
# row <-> bigint movement of the codegen backend
# ---------------------------------------------------------------------------
def _rows_index(rows: tuple[int, ...]) -> "slice | tuple":
    """How ``state`` is indexed for ``rows`` (sorted, distinct): one
    slice when they are a single run — a view, no gather — else a
    fancy index (``[rows, ]``: a bare tuple would index three axes)."""
    if rows[-1] - rows[0] == len(rows) - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows,


def _load_rows(state: np.ndarray, rows: tuple[int, ...]) -> list[int]:
    """Read ``state[row]`` for each of the sorted ``rows`` as one Python
    int; byte ``b * row_bytes + i`` of the int is bank ``b``, byte ``i``
    of the packed row.

    One ``tobytes`` for the whole set: of a slice when the rows are one
    run (a map's live-in operand rows and B planes usually are), else
    of a fused gather.
    """
    if not rows:
        return []
    raw = state[_rows_index(rows)].tobytes()
    n_bytes = len(raw) // len(rows)
    return [int.from_bytes(raw[start:start + n_bytes], "little")
            for start in range(0, len(raw), n_bytes)]


def _store_rows(state: np.ndarray, rows: tuple[int, ...],
                values: tuple[int, ...]) -> None:
    """Write integers back into ``state[row]`` for each of the sorted
    ``rows``.

    One assignment for the whole writeback set — a slice when the rows
    are one run (a map's output and temporary rows usually are), else a
    fused scatter — so the executor's tail costs one numpy call for
    data rows and one for B planes, however many rows the plan writes.
    """
    if not rows:
        return
    shape = (len(rows), *state.shape[1:])
    n_bytes = shape[1] * shape[2]
    raw = b"".join([value.to_bytes(n_bytes, "little") for value in values])
    state[_rows_index(rows)] = np.frombuffer(
        raw, dtype=np.uint8).reshape(shape)


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
    executes_plans = False


class CompiledEngine(ExecutionEngine):
    """Generate and ``exec`` specialized Python source per plan.

    Each value a data row or B-group plane holds is one
    arbitrary-precision integer (the row's packed bytes over the
    participating banks, little-endian, padding bits zero) in a
    recycled local.  The steps are value-numbered (:class:`_Emitted`):
    only a TRA computes, and a complement is computed at most once per
    value.  The one step that can raise, a pair activation over
    disagreeing cells, first stores what was written so far: every
    bank is left as the per-bank path leaves the bank that fails.
    """

    name = "compiled"

    def compile(self, plan: ExecutionPlan) -> Executor:
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
#: A symbolic value: ``(value id, complemented?)``.  Value 0 is the
#: all-zero row, so ``C0`` is ``(0, False)`` and ``C1`` is ``(0, True)``;
#: every other id is a row loaded by the prologue or a computed value.
Ref = tuple[int, bool]

_NOT = "{0} ^ _ones"
_AND = "{0} & {1}"
_OR = "{0} | {1}"
_MAJ = "({0} & ({1} | {2})) | ({1} & {2})"
#: Self-duality: ``op(~x, ~y, ...) == ~dual(x, y, ...)``.
_DUAL = {_AND: _OR, _OR: _AND, _MAJ: _MAJ}

#: Step kinds by what they read and where they write.
_FROM_DATA = frozenset({K.COPY_DATA, K.DATA_TO_B})
_FILLS = frozenset({K.FILL_DATA, K.FILL_B})
_FROM_WORDLINE = frozenset({K.B_TO_DATA, K.B_TO_B})
_FROM_PAIR = frozenset({K.PAIR_TO_DATA, K.PAIR_TO_B})
_TO_DATA = frozenset({K.COPY_DATA, K.FILL_DATA, K.B_TO_DATA,
                      K.PAIR_TO_DATA, K.TRA_TO_DATA})


def _flip(ref: Ref) -> Ref:
    return ref[0], not ref[1]


class _Emitted:
    """Pass 1: value numbering over one plan's straight-line steps.

    Every data row and B plane holds a symbolic :data:`Ref`; one read
    before any step writes it is live-in, a fresh value the prologue
    loads.  Copies, fills, wordline moves and pair activations only
    rebind refs.  A TRA is folded by exact identities (padding bits are
    zero) — ``MAJ(x, x, y) = x``, ``MAJ(x, ~x, y) = y``, ``MAJ(C0, x,
    y) = x & y``, ``MAJ(C1, x, y) = x | y`` — else flipped by
    self-duality so at most one operand is complemented.  A pair check
    over one value twice can never fire and is dropped.

    ``code`` is the result: ``(defined value id or None, format
    template, operand refs)`` in program order; the last entry is the
    epilogue, which stores every written row and plane.
    """

    def __init__(self, plan: ExecutionPlan) -> None:
        self.code: list[tuple[int | None, str, tuple[Ref, ...]]] = []
        self._ids = itertools.count(1)
        #: Current value of each data row / B plane read or written.
        self.rows: dict[int, Ref] = {}
        self.planes: dict[int, Ref] = {}
        #: Live-in data rows / B planes -> the value the prologue loads.
        self.live_rows: dict[int, int] = {}
        self.live_planes: dict[int, int] = {}
        #: Data rows / B planes written.
        self.written_rows: set[int] = set()
        self.written_planes: set[int] = set()
        self._complement: dict[int, int] = {}
        for step in plan.steps:
            self._step(step)
        lines, operands = self._writeback("    ")
        self.code.append((None, "\n".join(lines), operands))

    def _define(self, template: str, operands: tuple[Ref, ...]) -> int:
        value = next(self._ids)
        self.code.append((value, template, operands))
        return value

    def _operand(self, ref: Ref) -> Ref:
        """``ref`` as computed code reads it: a complement is a value of
        its own, defined at its first use."""
        value, negated = ref
        if not (value and negated):
            return ref
        if value not in self._complement:
            self._complement[value] = self._define(_NOT, ((value, False),))
        return self._complement[value], False

    def _stored(self, ref: Ref) -> Ref:
        """``ref`` as a store reads it: an uncomputed complement is
        rendered inline."""
        value, negated = ref
        if value and negated and value in self._complement:
            return self._complement[value], False
        return ref

    def _row(self, row: int) -> Ref:
        if row not in self.rows:
            self.live_rows[row] = next(self._ids)
            self.rows[row] = self.live_rows[row], False
        return self.rows[row]

    def _plane(self, port) -> Ref:
        plane, positive = port
        if plane not in self.planes:
            self.live_planes[plane] = next(self._ids)
            self.planes[plane] = self.live_planes[plane], False
        ref = self.planes[plane]
        return ref if positive else _flip(ref)

    def _set_row(self, row: int, ref: Ref) -> None:
        self.rows[row] = ref
        self.written_rows.add(row)

    def _set_planes(self, ports, ref: Ref) -> None:
        for plane, positive in ports:
            self.planes[plane] = ref if positive else _flip(ref)
            self.written_planes.add(plane)

    def _majority(self, a: Ref, b: Ref, c: Ref) -> Ref:
        if a[0] == b[0]:
            return a if a == b else c
        if a[0] == c[0]:
            return a if a == c else b
        if b[0] == c[0]:
            return b if b == c else a
        # At most one operand is a constant now (C0 and C1 are one value).
        for constant, x, y in ((a, b, c), (b, a, c), (c, a, b)):
            if not constant[0]:
                return self._compute(_OR if constant[1] else _AND, (x, y))
        return self._compute(_MAJ, (a, b, c))

    def _compute(self, template: str, operands: tuple[Ref, ...]) -> Ref:
        flip = 2 * sum(negated for _, negated in operands) > len(operands)
        if flip:
            template = _DUAL[template]
            operands = tuple(map(_flip, operands))
        operands = tuple(map(self._operand, operands))
        return self._define(template, operands), flip

    def _writeback(self, indent: str) -> tuple[list[str], tuple[Ref, ...]]:
        """The ``_store_rows`` lines of every row and plane written so
        far, and the refs they store."""
        lines, operands = [], []
        for state, keys, refs in (("data", self.written_rows, self.rows),
                                  ("b_planes", self.written_planes,
                                   self.planes)):
            if keys:
                keys = tuple(sorted(keys))
                operands += [self._stored(refs[key]) for key in keys]
                lines.append(f"{indent}_store_rows({state}, {keys!r}, "
                             f"({', '.join(['{}'] * len(keys))},))")
        return lines, tuple(operands)

    def _pair(self, step) -> Ref:
        """A double-wordline activation: both reads must agree.  A check
        that can fire stores what was written so far, then raises."""
        ref, other = map(self._plane, step.src)
        if ref != other:
            message = (f"activating {step.src_addr} would charge-share "
                       "two unequal rows; the sensed value is "
                       "nondeterministic")
            lines, operands = self._writeback(" " * 8)
            lines = ["    if {} != {}:", *lines,
                     f"        raise _CommandError({message!r})"
                     .replace("{", "{{").replace("}", "}}")]
            self.code.append((None, "\n".join(lines), (
                self._operand(ref), self._operand(other), *operands)))
        return ref

    def _step(self, step) -> None:
        kind, src = step.kind, step.src
        if kind in _FROM_DATA:
            ref = self._row(src)
        elif kind in _FILLS:
            ref = 0, src
        elif kind in _FROM_WORDLINE:
            ref = self._plane(src)
        elif kind in _FROM_PAIR:
            ref = self._pair(step)
        else:  # TRA variants: majority of three, destructive restore
            ref = self._majority(*map(self._plane, src))
            self._set_planes(src, ref)
            if kind == K.TRA:
                return
        if kind in _TO_DATA:
            self._set_row(step.dst, ref)
        else:
            self._set_planes(step.dst, ref)


def _render(ref: Ref, names: dict[int, str]) -> str:
    value, negated = ref
    if not value:
        return "_ones" if negated else "0"
    return f"({names[value]} ^ _ones)" if negated else names[value]


def generate_source(plan: ExecutionPlan) -> str:
    """Emit the bigint executor source for :class:`CompiledEngine`; it
    defines ``_executor(data, b_planes)``.

    Pass 2 names the values of :class:`_Emitted`: a value nothing reads
    is dropped, and a local returns to a free list once the last reader
    of its value has run, so the executor holds about as many bigints
    as the plan has live rows.
    """
    body = _Emitted(plan)
    readers = Counter(value for _, _, operands in body.code
                      for value, _ in operands)
    code = []
    for defined, template, operands in reversed(body.code):
        if defined is not None and not readers[defined]:
            for value, _ in operands:
                readers[value] -= 1
            continue
        code.append((defined, template, operands))

    names: dict[int, str] = {}
    free: list[str] = []
    fresh = (f"_v{n}" for n in itertools.count())

    def local(value: int) -> str:
        if not readers[value]:
            return "_"
        names[value] = free.pop() if free else next(fresh)
        return names[value]

    lines = [
        f"# generated executor: {plan.op_name} "
        f"({plan.backend}, w{plan.element_width}, "
        f"{plan.n_steps} steps)",
        "from repro.errors import CommandError as _CommandError",
        "def _executor(data, b_planes):",
        "    _ones = _ONES.get(data.shape[1])",
        "    if _ones is None:",
        "        _ones = _ONES[data.shape[1]] = int.from_bytes(",
        "            _ROW_ONES * data.shape[1], 'little')",
    ]
    for state, live in (("data", body.live_rows),
                        ("b_planes", body.live_planes)):
        if live:
            keys = tuple(sorted(live))
            targets = ", ".join(local(live[key]) for key in keys)
            lines.append(f"    {targets}, = _load_rows({state}, {keys!r})")
    for defined, template, operands in reversed(code):
        text = template.format(*(_render(ref, names) for ref in operands))
        for value, _ in operands:
            readers[value] -= 1
            if value and not readers[value]:
                free.append(names[value])
        lines.append(text if defined is None
                     else f"    {local(defined)} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------
class _AutoEngine(ExecutionEngine):
    """The ``"auto"`` selector: not a real engine, but carrying it on a
    request/job object is well-defined — it resolves per dispatch via
    :func:`resolve_engine`."""

    name = "auto"
    executes_plans = False


#: The singleton ``"auto"`` selector every layer may carry.
AUTO = _AutoEngine()

#: Every engine by name, fastest first.
_ENGINES: dict[str, ExecutionEngine] = {
    engine.name: engine
    for engine in (CompiledEngine(), PerBankEngine())}


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
    cannot.  An engine that ``executes_plans`` named on banks that
    cannot raises :class:`~repro.errors.EngineError` rather than
    silently diverging.
    """
    engine = get_engine(spec)
    if engine is AUTO:
        return _ENGINES["compiled" if vectorizable else "per_bank"]
    if engine.executes_plans and not vectorizable:
        raise EngineError(
            f"engine {engine.name!r} requested, but a selected bank is "
            "traced, fault-injected, or detached from the module's "
            "stacked state; use engine='per_bank' (or 'auto', which "
            "falls back silently)")
    return engine
