"""Lane-packing request batcher.

SIMDRAM's throughput comes from amortizing one bit-serial µProgram
replay over thousands of SIMD lanes, but a serving workload arrives as
many *small* independent requests — a few lanes each.  Dispatching
each request alone wastes almost the whole subarray.  The batcher
closes that gap:

* :func:`prepare` normalizes one request (a catalog op by name, an
  ``Expr``, or a captured lazy graph lowered to one) into a
  :class:`PreparedRequest`: the kernel source, the operand vectors in
  the kernel's slot order, and the **pack key** — the kernel identity
  from :func:`repro.core.fuse.kernel_identity` plus the execution
  engine.  Requests with equal pack keys replay the *same* µProgram
  over the same operand interface, so their lanes may be concatenated
  into one wide dispatch — a by-name request and the equivalent
  one-node ``Expr`` request included.
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
from repro.core.fuse import (
    bind_operands,
    kernel_identity,
    kernel_inputs,
    same_length,
)
from repro.errors import OperationError
from repro.exec.engines import ExecutionEngine, get_engine
from repro.exec.transposition import check_host_dtype, check_host_fits
from repro.obs import clock
from repro.obs.tracing import NOOP_SPAN

if TYPE_CHECKING:
    from repro.serve.service import ServeHandle

#: A pack key: (kernel identity, engine name).  Equal keys <=>
#: lane-packable: same µProgram, same operand interface, same engine.
PackKey = tuple[tuple[str, int, str], str]


@dataclass
class PreparedRequest:
    """One validated request: a kernel source plus its operand vectors
    in the kernel's slot order.  Lazy-graph requests are lowered to an
    ``Expr`` before they get here."""

    handle: "ServeHandle"
    tenant: str
    key: PackKey
    op: "str | Expr"
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


def prepare(handle: "ServeHandle", op: "str | Expr",
            operands: Sequence, feeds: dict | None, width: int,
            tenant: str, engine: ExecutionEngine, backend: str,
            submitted_at: float) -> PreparedRequest:
    """Validate one request and normalize it into slot vectors.

    Raises :class:`~repro.errors.OperationError` on anything invalid —
    unknown operation, wrong arity, missing/extra feed names,
    inconsistent widths, mismatched lengths, empty vectors, values
    outside a declared leaf's range.  The service calls this on its
    worker thread so a bad request fails *its own handle* and never
    poisons a co-packed dispatch.  What the
    kernel source fixes — its identity and validated interface — is
    memoized on the source (:func:`~repro.core.expr.dag_hash`,
    :func:`~repro.core.expr.analyze`), so a warm request or stream step
    pays only for binding and checking its own operands.

    ``engine`` may be an engine name (resolved here) or an already
    resolved :class:`~repro.exec.engines.ExecutionEngine` instance
    (the service resolves at submission and passes the instance).
    """
    engine = get_engine(engine)
    if not isinstance(op, Expr):
        op = str(op)
    identity = kernel_identity(op, width, backend)
    names = tuple(kernel_inputs(op, width))  # validates op + structure
    vectors = [
        _as_vector(value, f"{identity[0]} input {name!r}")
        for name, value in zip(
            names, bind_operands(identity[0], names, operands, feeds))]
    analysis = analyze(op, width) if isinstance(op, Expr) else None
    if analysis is not None and analysis.declared:
        for name, vector in zip(names, vectors):
            if name in analysis.declared:  # its values must fit it
                check_host_fits(vector, analysis.input_widths[name],
                                analysis.declared[name],
                                f"{identity[0]} input {name!r}")
    return PreparedRequest(
        handle=handle, tenant=tenant, key=(identity, engine.name), op=op,
        vectors=vectors,
        n_elements=same_length(identity[0], [len(v) for v in vectors]),
        width=width, engine=engine, submitted_at=submitted_at)


def _as_vector(value, what: str) -> np.ndarray:
    vector = np.asarray(value)
    if vector.ndim != 1:
        raise OperationError(f"{what} must be a 1-D vector, "
                             f"got shape {vector.shape}")
    if len(vector) == 0:  # before the dtype check: ``[]`` is float64
        raise OperationError(f"{what} needs at least one element")
    check_host_dtype(vector, what)
    return vector


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
