"""The benchmark's own span recorder, used only by the traced run.

``Recorder`` keeps ``[name, start, end, parent, op]`` rows in memory;
``instrument`` wraps calls into each layer's public functions so they
record a span; ``span_selfs`` turns rows into self times (a span's
duration minus the part of it its children cover).  Nothing
under ``src/`` knows about any of this, and the untraced run never
imports it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager

from measure import now

#: Row layout of :attr:`Recorder.spans`.
NAME, START, END, PARENT, OP = range(5)

#: ``(module, class or None, attribute, span name)`` — the public entry
#: points of each layer, named after the layer they belong to.
ENTRY_POINTS = (
    ("repro.core.operations", "OperationSpec", "build_circuit",
     "logic.circuit"),
    ("repro.logic.mig", "Mig", "from_circuit", "logic.mig_build"),
    ("repro.logic.optimize", None, "optimize", "logic.optimize"),
    ("repro.uprog.scheduler", None, "schedule", "uprog.schedule"),
    ("repro.core.compiler", None, "compile_operation", "core.compile"),
    ("repro.core.fuse", None, "compile_expr", "core.fuse"),
    ("repro.core.fuse", None, "compile_multi", "core.fuse"),
    ("repro.core.framework", "Simdram", "map", "core.map"),
    ("repro.core.framework", "Simdram", "map_expr", "core.map"),
    ("repro.exec.plan", None, "compile_plan", "exec.plan"),
    ("repro.exec.transposition", "TranspositionUnit", "host_to_vertical",
     "exec.transpose_in"),
    ("repro.exec.transposition", "TranspositionUnit", "vertical_to_host",
     "exec.transpose_out"),
    ("repro.exec.control_unit", "ControlUnit", "execute_on_module",
     "exec.execute"),
    ("repro.lazy.engine", "LazyDevice", "array", "lazy.capture"),
    ("repro.lazy.tensor", None, "apply", "lazy.capture"),
    ("repro.lazy.engine", "LazyDevice", "evaluate", "lazy.evaluate"),
    ("repro.runtime.cluster", "SimdramCluster", "tensor", "runtime.tensor"),
    ("repro.runtime.cluster", "SimdramCluster", "run", "runtime.run"),
    ("repro.runtime.cluster", "SimdramCluster", "run_expr", "runtime.run"),
    ("repro.runtime.cluster", "SimdramCluster", "run_multi", "runtime.run"),
    ("repro.runtime.cluster", "SimdramCluster", "read_tensor",
     "runtime.read"),
    ("repro.runtime.cluster", "SimdramCluster", "map", "runtime.map"),
    ("repro.runtime.cluster", "SimdramCluster", "map_expr", "runtime.map"),
    ("repro.serve.service", "SimdramService", "submit", "serve.submit"),
    ("repro.serve.streaming", "StreamingServer", "submit", "serve.submit"),
    ("repro.serve.batcher", None, "prepare", "serve.prepare"),
    ("repro.serve.batcher", "PackGroup", "pack", "serve.pack"),
    ("repro.serve.router", "ReplicaRouter", "place", "serve.place"),
    ("repro.runtime.replica", "ReplicaSet", "__init__",
     "runtime.replica_spawn"),
)

#: What to keep from a finished call, per span name, for the per-layer
#: counts: ``(args, result) -> value``.
KEEP = {
    # optimize() returns (mig, OptimizeStats)
    "logic.optimize": lambda args, result: result[1],
    # schedule() returns the MicroProgram (schedule_stitched calls it)
    "uprog.schedule": lambda args, result: result,
    "lazy.evaluate": lambda args, result: args[0].last_report,
}


class Recorder:
    """In-memory span log shared by every thread of the traced run."""

    def __init__(self, adopt_worker_spans: bool) -> None:
        self.spans: list[list] = []
        #: ``(op, value)`` kept from finished calls (see :data:`KEEP`).
        self.results: dict[str, list] = defaultdict(list)
        #: Operation id stamped on new spans and kept results: ``None``
        #: outside the measured phase (set-up, probes), the operation's
        #: index inside :meth:`operation`, or whatever the caller set
        #: for a phase whose operations overlap.
        self.op = None
        self._adopt = adopt_worker_spans
        self._lock = threading.Lock()
        self._stacks = threading.local()
        self._generator = threading.get_ident()
        self._generator_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._generator:
            return self._generator_stack
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif (self._adopt and stack is not self._generator_stack
              and self._generator_stack):
            # A worker thread's top-level span belongs to whatever the
            # (blocked) generator thread is inside right now.
            parent = self._generator_stack[-1]
        else:
            parent = -1
        row = [name, now(), None, parent, self.op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        stack.append(index)
        try:
            yield row
        finally:
            row[END] = now()
            stack.pop()

    @contextmanager
    def operation(self, op) -> None:
        """The root span of one measured operation."""
        self.op = op
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def measured(self, name: str) -> list:
        """Values kept under ``name`` during the measured phase."""
        return [value for op, value in self.results[name]
                if op is not None]


def span_selfs(spans) -> list:
    """Self time of every row (``None`` for unfinished spans).

    Self time is a span's duration minus the part of its interval that
    its children cover; overlapping children (parallel workers) are
    counted once, and a child sticking out of its parent only counts
    for the part inside.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for row in spans:
        if row[END] is not None and row[PARENT] >= 0:
            children[row[PARENT]].append((row[START], row[END]))
    selfs: list = []
    for index, row in enumerate(spans):
        if row[END] is None:
            selfs.append(None)
            continue
        start, end = row[START], row[END]
        covered, edge = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, edge), min(hi, end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        selfs.append((end - start) - covered)
    return selfs


def rename_first_maps(spans) -> None:
    """A ``core.map`` that compiled its kernel is a *first* map."""
    for row in spans:
        if row[NAME] not in ("core.compile", "core.fuse"):
            continue
        parent = row[PARENT]
        while parent >= 0:
            if spans[parent][NAME] == "core.map":
                spans[parent][NAME] = "core.first_map"
            parent = spans[parent][PARENT]


# ---------------------------------------------------------------------------
# wrapping the program's public entry points
# ---------------------------------------------------------------------------
def _traced(function, name: str, recorder: Recorder):
    keep = KEEP.get(name)

    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = function(*args, **kwargs)
        if keep is not None:
            recorder.results[name].append(
                (recorder.op, keep(args, result)))
        return result

    wrapper.__wrapped__ = function
    wrapper.__name__ = getattr(function, "__name__", name)
    return wrapper


@contextmanager
def instrument(recorder: Recorder):
    """Wrap every entry point for the duration of the ``with`` block.

    Methods are replaced on their class.  A module-level function is
    replaced in *every* loaded ``repro`` module that holds a reference
    to it, because callers bind it with ``from x import f``.
    """
    undo = []

    def replace(owner, attribute, value) -> None:
        undo.append((owner, attribute, inspect.getattr_static(owner,
                                                              attribute)))
        setattr(owner, attribute, value)

    from repro.exec.engines import get_engine, list_engines
    targets = list(ENTRY_POINTS)
    for engine_name in list_engines():
        engine = type(get_engine(engine_name))
        if engine.executes_plans:
            targets.append((engine.__module__, engine.__name__, "compile",
                            "exec.codegen"))

    for module_name, class_name, attribute, name in targets:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            static = inspect.getattr_static(owner, attribute)
            if isinstance(static, classmethod):
                replace(owner, attribute, classmethod(
                    _traced(static.__func__, name, recorder)))
            else:
                replace(owner, attribute, _traced(static, name, recorder))
            continue
        original = getattr(module, attribute)
        wrapped = _traced(original, name, recorder)
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    replace(other, key, wrapped)
    try:
        yield recorder
    finally:
        for owner, attribute, value in reversed(undo):
            setattr(owner, attribute, value)


# ---------------------------------------------------------------------------
# folding the program's own span trees (tracer enabled by ctor argument)
# ---------------------------------------------------------------------------
def fold_program_spans(roots) -> tuple[dict[str, float], float]:
    """``(self seconds per stage name, budget closure)`` over the
    program's finished request trees.

    Closure is the share of request latency that the named stages
    account for: one minus the roots' own (unattributed) self time over
    the summed root durations.
    """
    totals: dict[str, float] = defaultdict(float)
    latency = unattributed = 0.0
    for root in roots:
        rows: list[list] = []

        def flatten(node, parent: int) -> None:
            index = len(rows)
            rows.append([node.name, node.t0, node.t1, parent, None])
            for child in node.children:
                flatten(child, index)

        flatten(root, -1)
        selfs = span_selfs(rows)
        if selfs[0] is None:
            continue
        latency += root.duration
        unattributed += selfs[0]
        for row, own in zip(rows[1:], selfs[1:]):
            if own is not None:
                totals[row[NAME]] += own
    closure = 1.0 - unattributed / latency if latency else 0.0
    return dict(totals), closure
