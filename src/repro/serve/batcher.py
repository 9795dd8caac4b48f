"""Lane-packing request batcher.

SIMDRAM's throughput comes from amortizing one bit-serial µProgram
replay over thousands of SIMD lanes, but a serving workload arrives as
many *small* independent requests — a few lanes each.  Dispatching
each request alone wastes almost the whole subarray.  The batcher
closes that gap:

* :func:`prepare` normalizes one request (catalog op, ``Expr``, or a
  captured lazy graph) into a :class:`PreparedRequest` carrying its
  **pack key** — the kernel identity from
  :func:`repro.core.fuse.kernel_identity` plus the execution engine.
  Requests with equal pack keys replay the *same* µProgram over the
  same operand interface, so their lanes may be concatenated into one
  wide dispatch.
* :class:`PackGroup` accumulates compatible requests and, at flush
  time, concatenates their operand vectors per slot and records each
  request's ``[lo, hi)`` lane slice, so the dispatcher can scatter the
  packed result back to individual handles.
* :class:`LanePacker` holds one open group per pack key, oldest first.
  It hands a group back the moment its lanes reach ``max_lanes`` (a
  full dispatch) and otherwise only answers two questions for the
  service's flush rule: which open group is the oldest
  (:meth:`LanePacker.take_oldest`) and when ``max_wait_s`` — the upper
  bound on a group's wait while the target stays busy — runs out for
  it (:meth:`LanePacker.next_deadline`).  *When* to flush is the
  service's decision (:meth:`SimdramService._next_flush`).

The batcher is pure bookkeeping — single-threaded by design (the
service's worker owns it) and independent of the dispatch target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.expr import Expr, analyze
from repro.core.fuse import MAX_FUSED_INPUTS, kernel_identity
from repro.core.operations import get_operation
from repro.errors import OperationError
from repro.exec.engines import ExecutionEngine, get_engine
from repro.obs import clock
from repro.obs.tracing import NOOP_SPAN

if TYPE_CHECKING:
    from repro.serve.service import ServeHandle

#: A pack key: (kernel identity, engine name).  Equal keys <=>
#: lane-packable: same µProgram, same operand interface, same engine.
PackKey = tuple[tuple[str, int, str], str]


@dataclass
class PreparedRequest:
    """One validated request, normalized to slot vectors.

    ``kind`` is ``"op"`` (catalog operation, positional slots) or
    ``"expr"`` (fused DAG; ``slot_names`` binds vectors to leaf names).
    Lazy-graph requests are lowered to ``"expr"`` before they get here.
    """

    handle: "ServeHandle"
    tenant: str
    key: PackKey
    kind: str
    op_name: str | None
    root: Expr | None
    slot_names: tuple[str, ...]
    vectors: list[np.ndarray]
    n_elements: int
    width: int
    #: The resolved engine instance the dispatch will run on (its
    #: ``name`` is folded into ``key``).
    engine: ExecutionEngine
    submitted_at: float
    #: The request's trace root (``serve.request``) and its open
    #: ``serve.pack`` child; the no-op singleton when untraced.  The
    #: service attaches both after :func:`prepare` — the batcher never
    #: touches them.
    span: object = NOOP_SPAN
    pack_span: object = NOOP_SPAN
    #: Absolute monotonic deadline (SLO), or ``None`` for best-effort.
    #: Set by the service after :func:`prepare`, like the spans.
    deadline: float | None = None

    def feeds(self) -> dict[str, np.ndarray]:
        """Name -> vector binding for ``"expr"`` requests."""
        return dict(zip(self.slot_names, self.vectors))


def prepare(handle: "ServeHandle", op_or_root: "str | Expr",
            operands: Sequence, feeds: dict | None, width: int,
            tenant: str, engine: ExecutionEngine, backend: str,
            submitted_at: float) -> PreparedRequest:
    """Validate one request and normalize it into slot vectors.

    Raises :class:`~repro.errors.OperationError` on anything invalid —
    unknown operation, wrong arity, missing/extra feed names,
    inconsistent widths, mismatched lengths, empty vectors.  The
    service calls this on its worker thread so a bad request fails
    *its own handle* and never poisons a co-packed dispatch.

    ``engine`` may be a registry name (resolved here) or an already
    resolved :class:`~repro.exec.engines.ExecutionEngine` instance
    (the service resolves at submission and passes the instance).
    """
    engine = get_engine(engine)
    if isinstance(op_or_root, Expr):
        if operands:
            raise OperationError(
                "expression requests bind operands via feeds=")
        return _prepare_expr(handle, op_or_root, feeds or {}, width,
                             tenant, engine, backend, submitted_at)
    if feeds is not None:
        raise OperationError(
            "catalog requests take positional operands")
    return _prepare_op(handle, str(op_or_root), operands, width,
                       tenant, engine, backend, submitted_at)


def _as_vector(value, what: str) -> np.ndarray:
    vector = np.asarray(value)
    if vector.ndim != 1:
        raise OperationError(f"{what} must be a 1-D vector, "
                             f"got shape {vector.shape}")
    if len(vector) == 0:
        raise OperationError(f"{what} needs at least one element")
    if not np.issubdtype(vector.dtype, np.integer):
        raise OperationError(
            f"{what}: SIMDRAM operates on integer vectors, "
            f"got {vector.dtype}")
    return vector


def _check_lengths(vectors: list[np.ndarray], what: str) -> int:
    lengths = [len(v) for v in vectors]
    if any(n != lengths[0] for n in lengths):
        raise OperationError(f"{what}: operand lengths differ: {lengths}")
    return lengths[0]


def _prepare_op(handle, op_name: str, operands: Sequence, width: int,
                tenant: str, engine: ExecutionEngine, backend: str,
                submitted_at: float) -> PreparedRequest:
    spec = get_operation(op_name)
    if len(operands) != spec.arity:
        raise OperationError(
            f"{op_name} takes {spec.arity} operands, "
            f"got {len(operands)}")
    if width < 1:
        raise OperationError(f"width must be >= 1, got {width}")
    vectors = [_as_vector(v, f"{op_name} operand {i}")
               for i, v in enumerate(operands)]
    n = _check_lengths(vectors, op_name)
    return PreparedRequest(
        handle=handle, tenant=tenant,
        key=(kernel_identity(op_name, width, backend), engine.name),
        kind="op", op_name=op_name, root=None, slot_names=(),
        vectors=vectors, n_elements=n, width=width, engine=engine,
        submitted_at=submitted_at)


def _prepare_expr(handle, root: Expr, feeds: dict, width: int,
                  tenant: str, engine: ExecutionEngine, backend: str,
                  submitted_at: float) -> PreparedRequest:
    analysis = analyze(root, width)   # validates widths + structure
    names = tuple(analysis.input_widths)
    if len(names) > MAX_FUSED_INPUTS:
        raise OperationError(
            f"request binds {len(names)} distinct inputs; one dispatch "
            f"carries at most {MAX_FUSED_INPUTS} source addresses")
    missing = set(names) - set(feeds)
    extra = set(feeds) - set(names)
    if missing or extra:
        raise OperationError(
            f"expression inputs are {sorted(names)}"
            + (f"; missing {sorted(missing)}" if missing else "")
            + (f"; unexpected {sorted(extra)}" if extra else ""))
    vectors = [_as_vector(feeds[name], f"feed {name!r}")
               for name in names]
    n = _check_lengths(vectors, "expression request")
    return PreparedRequest(
        handle=handle, tenant=tenant,
        key=(kernel_identity(root, width, backend), engine.name),
        kind="expr", op_name=None, root=root, slot_names=names,
        vectors=vectors, n_elements=n, width=width, engine=engine,
        submitted_at=submitted_at)


@dataclass
class PackGroup:
    """Compatible requests awaiting one shared wide dispatch."""

    key: PackKey
    created_at: float
    requests: list[PreparedRequest] = field(default_factory=list)
    total_lanes: int = 0

    def add(self, request: PreparedRequest) -> None:
        self.requests.append(request)
        self.total_lanes += request.n_elements

    def pack(self) -> tuple[list[np.ndarray], list[tuple[int, int]]]:
        """Concatenate operand vectors per slot; per-request slices.

        Returns ``(packed_vectors, slices)`` where ``packed_vectors[s]``
        is slot ``s``'s lanes for every request back to back and
        ``slices[i]`` is request ``i``'s ``[lo, hi)`` range in the
        packed lane dimension.
        """
        n_slots = len(self.requests[0].vectors)
        packed = [np.concatenate([r.vectors[s] for r in self.requests])
                  for s in range(n_slots)]
        slices: list[tuple[int, int]] = []
        offset = 0
        for request in self.requests:
            slices.append((offset, offset + request.n_elements))
            offset += request.n_elements
        return packed, slices


class LanePacker:
    """Open pack groups, oldest first (see module docstring).

    Owned by the service's single worker thread; not itself locked.
    """

    def __init__(self, max_lanes: int, max_wait_s: float) -> None:
        if max_lanes < 1:
            raise OperationError(
                f"max_lanes must be >= 1, got {max_lanes}")
        if max_wait_s < 0:
            raise OperationError(
                f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_lanes = max_lanes
        self.max_wait_s = max_wait_s
        #: Insertion-ordered, and a group's ``created_at`` is taken
        #: when it is inserted: the first entry is the oldest group.
        self._groups: dict[PackKey, PackGroup] = {}

    @property
    def pending_requests(self) -> int:
        return sum(len(g.requests) for g in self._groups.values())

    @property
    def pending_lanes(self) -> int:
        return sum(g.total_lanes for g in self._groups.values())

    def add(self, request: PreparedRequest,
            now: float | None = None) -> PackGroup | None:
        """Admit one prepared request; returns the group if it is now
        full (caller dispatches it immediately)."""
        group = self._groups.get(request.key)
        if group is None:
            group = self._groups[request.key] = PackGroup(
                key=request.key,
                created_at=clock.now() if now is None else now)
        group.add(request)
        if group.total_lanes >= self.max_lanes:
            return self._groups.pop(request.key)
        return None

    def take_oldest(self) -> PackGroup | None:
        """Pop the open group that has waited longest."""
        key = next(iter(self._groups), None)
        return None if key is None else self._groups.pop(key)

    def next_deadline(self) -> float | None:
        """Time (``obs.clock``) by which the oldest open group must
        flush even if the target never becomes ready."""
        oldest = next(iter(self._groups.values()), None)
        return (None if oldest is None
                else oldest.created_at + self.max_wait_s)

    def drain(self) -> list[PackGroup]:
        """Pop every open group (the crash guard fails them)."""
        groups = list(self._groups.values())
        self._groups.clear()
        return groups
