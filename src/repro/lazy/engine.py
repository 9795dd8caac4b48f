"""The lazy evaluation engine: partition, fuse, dispatch, cache.

When a :class:`~repro.lazy.tensor.LazyTensor` is forced, the engine
turns the captured DAG into real SIMDRAM work:

1. **Width inference** — the pipeline element width is the widest
   *scaling* source in the graph (:func:`repro.core.expr.infer_width`);
   narrower sources widen by two's-complement re-encoding at transfer
   time, fixed-width slots (a 1-bit ``if_else`` select) are validated.
2. **Partitioning** — the ``bbop`` instruction carries at most three
   source addresses, so a graph drawing on more than three distinct
   leaves cannot be one fused kernel.  A greedy bottom-up pass walks
   the DAG in topological order and *cuts* the child subgraph with the
   most leaves whenever a node's combined leaf set would exceed the
   limit; each cut point becomes a device-resident intermediate and a
   single leaf of its consumers.  Graphs within the limit stay whole —
   one kernel, zero intermediates.
3. **Fusion + caching** — every segment compiles through
   :mod:`repro.core.fuse` and is cached by DAG content hash on the
   underlying device (:meth:`Simdram.compile` and the cluster's), so
   repeated evaluations of structurally identical pipelines reuse both
   the µProgram and, downstream, the control unit's execution plan.
4. **Dispatch** — roots requested together are packed into multi-output
   kernels (one dispatch computes several results, shared subgraphs
   stitched once) as long as they share one 3-leaf input pool; on a
   cluster every segment goes through the async job scheduler, so
   ``evaluate(wait=False)`` returns before the DRAM work ran.

Evaluated roots cache their host values per pipeline width on the
node, giving common-subexpression reuse across ``evaluate`` calls; all
device rows the engine allocated are released when the evaluation
completes (cluster frees are scheduler-ordered after their readers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import expr as E
from repro.core.expr import Expr
from repro.core.fuse import MAX_FUSED_INPUTS
from repro.core.operations import get_operation
from repro.errors import OperationError
from repro.exec.engines import ExecutionEngine, get_engine
from repro.exec.transposition import check_host_dtype
from repro.lazy.tensor import (
    KIND_CONST,
    KIND_OP,
    KIND_SOURCE,
    LazyTensor,
    canonical_values,
    min_width,
)

__all__ = ["LazyDevice", "EvalReport", "GroupReport"]


@dataclass(frozen=True)
class GroupReport:
    """What one width-group of an evaluation actually dispatched."""

    width: int          # pipeline element width
    n_nodes: int        # catalog operations evaluated
    n_segments: int     # device-resident intermediates (partition cuts)
    n_batches: int      # multi-output root dispatches (0 when async)
    n_transfers: int    # host->DRAM operand transfers performed


@dataclass(frozen=True)
class EvalReport:
    """Dispatch summary of the most recent ``LazyDevice.evaluate``."""

    groups: tuple[GroupReport, ...]

    @property
    def n_dispatches(self) -> int:
        """Fused µProgram dispatches issued (segments + batches)."""
        return sum(g.n_segments + g.n_batches for g in self.groups)


# ---------------------------------------------------------------------------
# DAG walking helpers
# ---------------------------------------------------------------------------
def _live(handle) -> bool:
    """Whether a device handle (or ``None``) still owns its rows."""
    return handle is not None and handle.status == "live"


def _build_expr(root: LazyTensor, is_leaf, names: dict[int, str],
                leaves: dict[str, LazyTensor]) -> Expr:
    """Translate a lazy (sub)graph into a :class:`~repro.core.expr.Expr`.

    Nodes for which ``is_leaf`` holds (except ``root`` itself) become
    named input leaves — named ``t0, t1, …`` in discovery order, which
    keeps structurally identical pipelines hashing identically so the
    device kernel caches hit across evaluations.  ``names``/``leaves``
    may be shared between calls to build several roots over one feed
    namespace (multi-output batches).
    """
    memo: dict[int, Expr] = {}

    def build(node: LazyTensor) -> Expr:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if node.kind == KIND_CONST:
            built = E.const(node.value)
        elif node is not root and is_leaf(node):
            name = names.get(id(node))
            if name is None:
                name = f"t{len(names)}"
                names[id(node)] = name
                leaves[name] = node
            built = E.inp(name)
        else:
            built = E.op(node.op,
                         *[build(child) for child in node.children])
        memo[id(node)] = built
        return built

    return build(root)


def _topo_ops(roots: list[LazyTensor], is_leaf) -> list[LazyTensor]:
    """Op nodes needing computation, children before parents."""
    order: list[LazyTensor] = []
    seen: set[int] = set()
    stack: list[tuple[LazyTensor, bool]] = [(r, False)
                                            for r in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if node.kind != KIND_OP or is_leaf(node):
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        stack.extend(
            (child, False) for child in reversed(node.children)
            if child.kind == KIND_OP and not is_leaf(child))
    return order


def _plan_cuts(order: list[LazyTensor], is_leaf
               ) -> tuple[set[int], dict[int, frozenset[int]]]:
    """Greedy bottom-up partitioning against the 3-input ISA limit.

    Returns the ids of the nodes to materialize as device-resident
    intermediates and every ordered node's resulting leaf set (ids of
    the distinct sources/intermediates its segment draws on).
    """
    leafset: dict[int, frozenset[int]] = {}
    cut_ids: set[int] = set()

    def leaves_of(child: LazyTensor) -> frozenset[int]:
        if child.kind == KIND_CONST:
            return frozenset()
        if (child.kind == KIND_SOURCE or is_leaf(child)
                or id(child) in cut_ids):
            return frozenset((id(child),))
        return leafset[id(child)]

    for node in order:
        combined = frozenset().union(
            *(leaves_of(child) for child in node.children))
        if len(combined) > MAX_FUSED_INPUTS:
            candidates = list({
                id(child): child for child in node.children
                if child.kind == KIND_OP and not is_leaf(child)
                and id(child) not in cut_ids
                # an all-constant subgraph cannot be materialized (and
                # cutting it would *add* a leaf, never remove one)
                and leafset[id(child)]}.values())
            candidates.sort(key=lambda c: len(leafset[id(c)]),
                            reverse=True)
            for child in candidates:
                cut_ids.add(id(child))
                combined = frozenset().union(
                    *(leaves_of(c) for c in node.children))
                if len(combined) <= MAX_FUSED_INPUTS:
                    break
        leafset[id(node)] = combined
    return cut_ids, leafset


# ---------------------------------------------------------------------------
# the device
# ---------------------------------------------------------------------------
class LazyDevice:
    """A SIMDRAM execution target for lazy tensors.

    Wraps either a single :class:`~repro.Simdram` module or a
    :class:`~repro.SimdramCluster`; sources are bound to exactly one
    device and evaluation dispatches on it.  ``last_report`` records
    what the most recent evaluation actually did (width groups,
    partition segments, batched dispatches, transfers).
    ``run_multi``, ``kernel_cache_size`` and the handles' ``to_numpy``
    / ``free`` / ``status`` are the same on both targets; host->device
    transfer and running a segment differ and are picked here, once.
    """

    def __init__(self, target) -> None:
        # Imported here: the facade imports are heavyweight and the
        # tensor module must stay import-light.
        from repro.core.framework import Simdram
        from repro.runtime.cluster import SimdramCluster
        if isinstance(target, Simdram):
            self._transfer = target.array
            self._run_segment = target.run_expr
        elif isinstance(target, SimdramCluster):
            self._transfer = target.tensor

            # Submitted: on idle modules with settled operands the
            # segment runs before submit returns, else it is queued; the
            # tensor is a usable operand either way, and the job
            # scheduler orders dependent segments per module.
            def submit_segment(root, feeds, **options):
                return target.submit(root, feeds=feeds, **options).tensor

            self._run_segment = submit_segment
        else:
            raise OperationError(
                f"a lazy device wraps a Simdram or SimdramCluster, "
                f"got {type(target).__name__}")
        self.target = target
        self.last_report: EvalReport | None = None

    @property
    def kernel_cache_size(self) -> int:
        """Compiled kernels cached on the target — fused single- and
        multi-root kernels *plus* catalog µPrograms (the target's
        whole compile cache, ``Simdram.kernel_cache_size``).  Compare
        before/after identical evaluations to prove cache hits; note
        that an interleaved first-time *eager* catalog op also grows
        the counter."""
        return self.target.kernel_cache_size

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def array(self, values, width: int | None = None,
              signed: bool | None = None) -> LazyTensor:
        """Create a lazy source from host values.

        ``width``/``signed`` default to the minimal encoding of the
        actual values (signed iff any value is negative).  Nothing is
        transferred to DRAM yet — the evaluation engine transfers each
        source at the width its consumers require, which is how
        mixed-width pipelines widen narrow operands for free.
        """
        values = np.asarray(values)
        check_host_dtype(values, "lazy source")
        if values.ndim != 1:
            raise OperationError("lazy sources are 1-D vectors")
        if values.size == 0:
            raise OperationError("lazy sources need at least one element")
        if signed is None:
            signed = bool(values.min() < 0)
        if width is None:
            width = min_width(values, signed)
        host = canonical_values(values, width, signed)
        return LazyTensor(self, KIND_SOURCE, host=host, width=width,
                          signed=signed, n_elements=len(host))

    def from_device(self, handle) -> LazyTensor:
        """Wrap an already-DRAM-resident array/tensor as a lazy source.

        The handle stays owned by the caller (the engine never frees
        it); its values are read back to host only if a consumer needs
        them at a different width.
        """
        node = LazyTensor(self, KIND_SOURCE, host=None,
                          width=handle.width, signed=handle.signed,
                          n_elements=handle.n_elements)
        node._handles[("s", handle.width)] = handle
        return node

    def _host_values(self, node: LazyTensor) -> np.ndarray:
        """A source's canonical host values (reading back a wrapped
        device handle on first need)."""
        if node.host is None:
            handle = node._handles.get(("s", node.width))
            if not _live(handle):
                raise OperationError(
                    "the device handle behind this lazy source was "
                    "freed; its values are unrecoverable")
            node.host = handle.to_numpy()
        return node.host

    # ------------------------------------------------------------------
    # evaluation entry
    # ------------------------------------------------------------------
    def evaluate(self, tensors: list[LazyTensor],
                 width: int | None = None, wait: bool = True,
                 engine: "str | ExecutionEngine" = "auto",
                 ) -> list[np.ndarray | None]:
        """Force a set of lazy tensors; returns their host values.

        Roots are grouped by inferred pipeline width (so a 4-bit
        pipeline requested alongside a 16-bit one keeps its own
        wrap-around semantics) and each group is partitioned, fused and
        dispatched together — roots sharing an input pool come back
        from a single multi-output µProgram.  With ``wait=False``
        results are submitted asynchronously and the returned entries
        are ``None``; a later :meth:`LazyTensor.numpy` gathers them.

        ``engine`` (an engine name or an
        :class:`~repro.exec.engines.ExecutionEngine`) is resolved once
        here and the instance threaded through every segment dispatch.
        """
        engine = get_engine(engine)
        outs: list[np.ndarray | None] = [None] * len(tensors)
        groups: dict[int, list[tuple[int, LazyTensor]]] = {}
        for i, tensor in enumerate(tensors):
            if not isinstance(tensor, LazyTensor):
                raise OperationError(
                    f"evaluate expects LazyTensors, got {type(tensor)}")
            if tensor.device is not self:
                raise OperationError(
                    "tensor lives on a different lazy device")
            if tensor.kind == KIND_CONST:
                raise OperationError(
                    "cannot evaluate a bare broadcast constant")
            if tensor.kind == KIND_SOURCE:
                outs[i] = self._host_values(tensor).copy()
                continue
            w = width if width is not None else self._infer(tensor)
            if w in tensor._results:
                outs[i] = tensor._results[w].copy()
                continue
            if tensor._pending is not None:
                if tensor._pending[0] == w:
                    if wait:
                        self._gather(tensor)
                        outs[i] = tensor._results[w].copy()
                    continue
                # A pending submission at a *different* width would be
                # orphaned (its live rows leaked) by a new submission;
                # resolve it into the result cache first.
                self._gather(tensor)
            groups.setdefault(w, []).append((i, tensor))

        reports = []
        for w, entries in groups.items():
            roots = list({id(t): t for _, t in entries}.values())
            reports.append(self._evaluate_group(roots, w, wait, engine))
            if wait:
                for i, tensor in entries:
                    outs[i] = tensor._results[w].copy()
        if reports:
            self.last_report = EvalReport(tuple(reports))
        return outs

    def export(self, root: LazyTensor
               ) -> tuple[Expr, dict[str, np.ndarray], int]:
        """Lower a captured graph to ``(expr, host feeds, width)``.

        The per-request lowering the serving layer uses: the graph is
        rebuilt over its *source* leaves (named ``t0, t1, …`` in
        discovery order, so structurally identical requests share one
        kernel identity and one compiled µProgram), every source's
        canonical host values become a feed vector, and the width is
        the graph's inferred pipeline width.  Graphs drawing on more
        than three distinct sources do not fit one ``bbop`` dispatch
        and are rejected — a serving request is exactly one kernel,
        there is no partitioner behind it.
        """
        if not isinstance(root, LazyTensor) or root.kind != KIND_OP:
            raise OperationError(
                "export expects a captured operation graph (a "
                "LazyTensor produced by catalog operations)")
        if root.device is not self:
            raise OperationError(
                "tensor lives on a different lazy device")
        width = self._infer(root)
        names: dict[int, str] = {}
        leaves: dict[str, LazyTensor] = {}
        built = _build_expr(root, lambda n: n.kind == KIND_SOURCE,
                            names, leaves)
        if len(leaves) > MAX_FUSED_INPUTS:
            raise OperationError(
                f"graph draws on {len(leaves)} distinct sources; one "
                f"dispatch binds at most {MAX_FUSED_INPUTS} (evaluate "
                "the graph through the lazy engine instead, which "
                "partitions it)")
        feeds = {name: self._host_values(node).copy()
                 for name, node in leaves.items()}
        return built, feeds, width

    def _infer(self, root: LazyTensor) -> int:
        """Inferred pipeline width of a root's full captured graph.

        Always derived from the original *sources* (never from cached
        intermediate results), so caching can never change a
        pipeline's wrap-around semantics.
        """
        if root._inferred_width is None:
            names: dict[int, str] = {}
            leaves: dict[str, LazyTensor] = {}
            built = _build_expr(root,
                                lambda n: n.kind == KIND_SOURCE,
                                names, leaves)
            if not leaves:
                raise OperationError(
                    "a lazy pipeline needs at least one source tensor "
                    "(all-constant graphs have nothing to stream)")
            root._inferred_width = E.infer_width(
                built, {name: node.width
                        for name, node in leaves.items()})
        return root._inferred_width

    def _gather(self, node: LazyTensor) -> None:
        """Resolve an async submission into cached host values."""
        w, handle = node._pending
        node._results[w] = handle.to_numpy()
        handle.free()
        node._handles.pop(("o", w), None)
        node._pending = None

    # ------------------------------------------------------------------
    # one width group: plan, materialize, dispatch
    # ------------------------------------------------------------------
    def _evaluate_group(self, roots: list[LazyTensor], w: int,
                        wait: bool,
                        engine: ExecutionEngine) -> GroupReport:
        def is_leaf(node: LazyTensor) -> bool:
            if node.kind == KIND_SOURCE:
                return True
            if node.kind != KIND_OP:
                return False
            if w in node._results:
                return True
            return _live(node._handles.get(("o", w)))

        order = _topo_ops(roots, is_leaf)
        cut_ids, leafset = _plan_cuts(order, is_leaf)
        index = {id(node): i for i, node in enumerate(order)}
        cuts = sorted((node for node in order if id(node) in cut_ids),
                      key=lambda n: index[id(n)])

        created: list[tuple[LazyTensor, tuple, object]] = []
        keep: set[int] = set()
        n_transfers = 0
        try:
            for node in cuts:
                self._materialize(node, w, is_leaf, created, engine)

            remaining = [r for r in roots if id(r) not in cut_ids
                         and not is_leaf(r)]
            if wait:
                needs = {id(r): self._leaf_needs(r, w, is_leaf)
                         for r in remaining}
                batches = self._batch_roots(remaining, leafset, needs)
                for batch in batches:
                    self._run_batch(batch, w, is_leaf, created, engine)
                for root in roots:
                    if w in root._results:
                        continue
                    # The root was materialized as another root's
                    # interior cut (or was already device-resident):
                    # read its handle instead of recomputing.
                    root._results[w] = root._handles[("o", w)].to_numpy()
                n_batches = len(batches)
            else:
                for root in remaining:
                    handle = self._materialize(root, w, is_leaf,
                                               created, engine)
                    root._pending = (w, handle)
                    keep.add(id(handle))
                for root in roots:
                    if (root._pending is None
                            and w not in root._results):
                        handle = root._handles[("o", w)]
                        root._pending = (w, handle)
                        keep.add(id(handle))
                n_batches = 0
            n_transfers = sum(1 for _, key, _h in created
                              if key[0] == "s")
        finally:
            for node, key, handle in created:
                if id(handle) in keep:
                    continue
                handle.free()
                if node._handles.get(key) is handle:
                    del node._handles[key]
        return GroupReport(width=w, n_nodes=len(order),
                           n_segments=len(cuts), n_batches=n_batches,
                           n_transfers=n_transfers)

    def _handle_for(self, leaf: LazyTensor, needed: int, w: int,
                    created: list) -> object:
        """A live device handle for one segment input leaf.

        Sources transfer at the width the consumer slot requires
        (keyed so one source may serve slots of different widths);
        evaluated op nodes re-transfer their cached values; both are
        reused for the rest of the evaluation.
        """
        if leaf.kind == KIND_SOURCE:
            key = ("s", needed)
            handle = leaf._handles.get(key)
            if _live(handle):
                return handle
            handle = self._transfer(self._host_values(leaf), needed,
                                    leaf.signed)
        else:
            key = ("o", w)
            handle = leaf._handles.get(key)
            if _live(handle):
                return handle
            handle = self._transfer(leaf._results[w], needed,
                                    get_operation(leaf.op).signed)
        leaf._handles[key] = handle
        created.append((leaf, key, handle))
        return handle

    def _segment_feeds(self, exprs: list[Expr], w: int,
                       leaves: dict[str, LazyTensor],
                       created: list) -> dict[str, object]:
        """Transfer/collect the device handles feeding a segment."""
        needed_widths: dict[str, int] = {}
        for built in exprs:
            for name, needed in E.analyze(built, w).input_widths.items():
                known = needed_widths.setdefault(name, needed)
                if known != needed:
                    raise OperationError(
                        f"input {name!r} is consumed at {known}-bit "
                        f"and {needed}-bit widths across fused roots")
        return {name: self._handle_for(leaves[name], needed, w, created)
                for name, needed in needed_widths.items()}

    def _materialize(self, node: LazyTensor, w: int, is_leaf,
                     created: list,
                     engine: ExecutionEngine) -> object:
        """Run one partition segment; leaves a live device handle."""
        names: dict[int, str] = {}
        leaves: dict[str, LazyTensor] = {}
        built = _build_expr(node, is_leaf, names, leaves)
        feeds = self._segment_feeds([built], w, leaves, created)
        handle = self._run_segment(built, feeds, width=w, engine=engine)
        key = ("o", w)
        node._handles[key] = handle
        created.append((node, key, handle))
        return handle

    def _leaf_needs(self, root: LazyTensor, w: int, is_leaf
                    ) -> dict[int, int]:
        """Leaf node id -> operand width this root consumes it at."""
        names: dict[int, str] = {}
        leaves: dict[str, LazyTensor] = {}
        built = _build_expr(root, is_leaf, names, leaves)
        return {id(leaves[name]): needed
                for name, needed in E.analyze(built, w)
                .input_widths.items()}

    def _batch_roots(self, roots: list[LazyTensor],
                     leafset: dict[int, frozenset[int]],
                     needs: dict[int, dict[int, int]]
                     ) -> list[list[LazyTensor]]:
        """Greedily pack roots whose combined leaf pool fits one
        multi-output kernel (three ``bbop`` source addresses).

        Roots consuming a shared leaf at *different* slot widths (one
        as an 8-bit operand, another as a 1-bit select) cannot share a
        kernel — each operand slot has one width — so they start a new
        batch instead of failing the joint compile.
        """
        batches: list[list[LazyTensor]] = []
        current: list[LazyTensor] = []
        current_leaves: set[int] = set()
        current_needs: dict[int, int] = {}
        for root in roots:
            root_leaves = leafset[id(root)]
            root_needs = needs[id(root)]
            conflict = any(current_needs.get(leaf, needed) != needed
                           for leaf, needed in root_needs.items())
            if current and (conflict or len(current_leaves | root_leaves)
                            > MAX_FUSED_INPUTS):
                batches.append(current)
                current, current_leaves = [], set()
                current_needs = {}
            current.append(root)
            current_leaves |= root_leaves
            current_needs.update(root_needs)
        if current:
            batches.append(current)
        return batches

    def _run_batch(self, batch: list[LazyTensor], w: int, is_leaf,
                   created: list,
                   engine: ExecutionEngine) -> None:
        """One multi-output dispatch computing every root in ``batch``."""
        names: dict[int, str] = {}
        leaves: dict[str, LazyTensor] = {}
        named_roots = {
            f"r{i}": _build_expr(root, is_leaf, names, leaves)
            for i, root in enumerate(batch)
        }
        feeds = self._segment_feeds(list(named_roots.values()), w,
                                    leaves, created)
        results = self.target.run_multi(named_roots, feeds, width=w,
                                        engine=engine)
        for i, root in enumerate(batch):
            root._results[w] = results[f"r{i}"]


