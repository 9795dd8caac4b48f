"""Step 2 of the SIMDRAM framework: allocate MIG nodes to DRAM rows and
emit the AAP/AP sequence that computes the operation.

The scheduler walks the optimized MIG in topological order and, for each
MAJ node, (1) picks one of the four TRA-capable wordline triples of the
Ambit B-group, (2) marshals the three operands into the triple's
wordlines with AAP copies — exploiting values already present in the
B-group, constant rows, input rows, temporaries and previously written
outputs — and (3) fires the TRA with an AP.  Complemented edges are
served by routing values through a dual-contact cell, whose negated port
yields NOT for free on read.

Because a TRA destroys its three source rows, any value that is still
live and has no other copy is spilled to a D-group temporary (or directly
to its output row when possible) before the activation.  A peephole pass
then merges each ``AP(triple)`` with an immediately following copy out of
the triple into a single ``AAP(triple, dst)``, exactly the composite
command Ambit uses.

Two scheduling modes support the paper's ablation study:

* ``reuse=True`` (default) — the full SIMDRAM Step-2 behaviour described
  above, minimizing row activations.
* ``reuse=False`` — a naive per-gate schedule (load three operands, fire,
  store) that reproduces the command streams of gate-at-a-time baselines.

Cost.  Placing a node costs the same however many values are live, so
compile time is linear in the graph (≈ 55 host µs per emitted µOp from
``add@8`` to ``mul@64`` on the development container).  That rests on a per-node index of where
each value lives instead of scans over everything live, and on pricing
a node's 24 placements from tables built once per node.  Both are pure
bookkeeping: the emitted µProgram is pinned command for command by
``tests/data/uprogram_ledger.json``, and what keeps it fixed is

* the probe order of ``_find_source`` — planes 0..5, then the node's
  temporaries, then its written output rows, then the constant row,
  then the input row — because the first hit wins a tie;
* insertion order inside each per-node entry of ``_State.temps_of`` /
  ``outs_of`` (oldest copy first), which is the order a scan of one
  global insertion-ordered table would meet that node's copies in;
* temporaries released oldest-filled first (``temp_stamp``) onto a
  LIFO free list, which decides every later ``tmp[i]`` index — only
  nodes in ``_State.touched`` can have died, and everything that can
  end a node's life or give it a temporary must add it there;
* the candidate order — triples 12..15, operand orders as
  ``itertools.permutations`` yields them — with a strict ``<``, so the
  first cheapest placement is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from repro.dram.rows import B_ADDRESS_MAP
from repro.errors import SchedulingError
from repro.logic.mig import CONST_NODE, Mig, Ref
from repro.uprog.program import MicroProgram, OperandSpec
from repro.uprog.uops import MicroOp, Space, UAap, UAp, URow

# ---------------------------------------------------------------------------
# B-group plane model: 6 storage planes behind the 8 wordlines.
# Planes 0..3 are T0..T3 (positive port only); planes 4/5 are DCC0/DCC1
# with a positive port (d-wordline) and a negated port (n-wordline).
# ---------------------------------------------------------------------------
PLANE_POS_ADDR: dict[int, int] = {0: 0, 1: 1, 2: 2, 3: 3, 4: 6, 5: 7}
PLANE_NEG_ADDR: dict[int, int] = {4: 4, 5: 5}
DCC_PLANES = (4, 5)

#: TRA triples: B-group AP address -> ((plane, port_is_negated), ...).
TRIPLES: dict[int, tuple[tuple[int, bool], ...]] = {
    12: ((0, False), (1, False), (2, False)),
    13: ((1, False), (2, False), (3, False)),
    14: ((4, True), (1, False), (2, False)),
    15: ((5, True), (0, False), (3, False)),
}

#: The six distinct (plane, port_is_negated) operand slots of the triples.
_SLOTS = tuple(sorted({slot for slots in TRIPLES.values() for slot in slots}))
#: Which child (by position) goes behind a triple's first, second and
#: third slot, in the order candidates are tried.
_OPERAND_ORDERS = tuple(permutations(range(3)))
#: B-group AP address -> the planes its TRA overwrites.
_TRIPLE_PLANES = {ap_index: frozenset(plane for plane, _ in slots)
                  for ap_index, slots in TRIPLES.items()}

#: A value: (MIG node id, negated).  A plane "content" is the value read
#: through the plane's positive port.
Value = tuple[int, bool]


@dataclass(frozen=True)
class ScheduleOptions:
    """Knobs for the Step-2 scheduler (ablation support)."""

    reuse: bool = True      # exploit values already in the B-group
    peephole: bool = True   # merge AP + copy-out into one AAP


@dataclass
class _State:
    """Mutable scheduling state: where every live value currently is.

    Temporaries and written output rows are indexed *per node*, each
    entry in insertion order, so looking a value up costs the handful
    of copies that node has rather than a scan of everything live.
    """

    plane: list[Value | None] = field(default_factory=lambda: [None] * 6)
    #: node -> {temp idx: negated}, oldest copy first.
    temps_of: dict[int, dict[int, bool]] = field(default_factory=dict)
    #: node -> {written output row: negated}, oldest copy first.
    outs_of: dict[int, dict[URow, bool]] = field(default_factory=dict)
    #: temp idx -> when it was filled (a counter over all temporaries).
    temp_stamp: dict[int, int] = field(default_factory=dict)
    #: Nodes whose temporaries may have died since the last
    #: :meth:`free_dead_temps`: they lost a use, lost a pending output
    #: or gained a temporary.
    touched: set[int] = field(default_factory=set)
    free_temps: list[int] = field(default_factory=list)
    next_temp: int = 0
    high_water: int = 0
    n_stamps: int = 0

    def alloc_temp(self) -> int:
        if self.free_temps:
            return self.free_temps.pop()
        idx = self.next_temp
        self.next_temp += 1
        self.high_water = max(self.high_water, self.next_temp)
        return idx

    def hold_temp(self, idx: int, value: Value) -> None:
        """Record that temporary ``idx`` now holds ``value``."""
        node, negated = value
        self.temps_of.setdefault(node, {})[idx] = negated
        self.temp_stamp[idx] = self.n_stamps
        self.n_stamps += 1
        self.touched.add(node)

    def free_dead_temps(self, is_live) -> None:
        """Release the temporaries of touched nodes that died, oldest
        first — the order a scan of every temporary would free them in,
        which fixes the LIFO reuse order and so every ``tmp[i]``."""
        dead = [idx for node in self.touched if not is_live(node)
                for idx in self.temps_of.pop(node, ())]
        self.touched.clear()
        dead.sort(key=self.temp_stamp.__getitem__)
        self.free_temps.extend(dead)


def cone_order(mig: Mig) -> list[int]:
    """Alternative Step-2 node order: complete each output's whole fanin
    cone (depth-first) before starting the next output's.

    Compared to the default topological order this keeps values close to
    their consumers, shortening live ranges across the six B-group
    planes — a large win for wide/deep graphs (the multiplier array,
    fused multi-operation pipelines) and a small loss for shallow ones.
    :func:`schedule` tries both orders and keeps the cheaper program.
    """
    order: list[int] = []
    seen: set[int] = set()
    for _, out_ref in mig.outputs:
        stack: list[tuple[int, bool]] = [(out_ref.node, False)]
        while stack:
            node, expanded = stack.pop()
            if node in seen:
                continue
            children = mig.children_of(node)
            if children is None:  # leaf
                seen.add(node)
                continue
            if expanded:
                seen.add(node)
                order.append(node)
                continue
            stack.append((node, True))
            stack.extend((ref.node, False) for ref in reversed(children))
    return order


class Scheduler:
    """Compiles one MIG into a :class:`MicroProgram`."""

    def __init__(self, mig: Mig, input_rows: dict[str, URow],
                 output_rows: dict[str, URow],
                 options: ScheduleOptions | None = None,
                 order: list[int] | None = None) -> None:
        self.mig = mig
        self.options = options or ScheduleOptions()
        self.input_rows = dict(input_rows)
        self.output_rows = dict(output_rows)
        self.uops: list[MicroOp] = []
        self.state = _State()

        self.input_loc: dict[int, URow] = {}
        for name in mig.input_names:
            if name not in self.input_rows:
                raise SchedulingError(f"no row binding for input {name!r}")
        missing = {name for name, _ in mig.outputs} - set(self.output_rows)
        if missing:
            raise SchedulingError(f"no row binding for outputs {missing}")

        self.order = mig.live_nodes() if order is None else order
        if order is not None and sorted(order) != sorted(mig.live_nodes()):
            raise SchedulingError(
                "explicit schedule order must be a permutation of the "
                "MIG's live nodes")
        self.remaining_uses: dict[int, int] = {}
        for node in self.order:
            for ref in mig.children_of(node):
                if not self._is_leaf(ref.node):
                    self.remaining_uses[ref.node] = (
                        self.remaining_uses.get(ref.node, 0) + 1)
        #: node -> [(out_row, negated)] still to be written.
        self.pending_out: dict[int, list[tuple[URow, bool]]] = {}
        for name, ref in mig.outputs:
            self.pending_out.setdefault(ref.node, []).append(
                (self.output_rows[name], ref.negated))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _is_leaf(self, node: int) -> bool:
        return self.mig.children_of(node) is None

    def _is_live(self, node: int) -> bool:
        return (self.remaining_uses.get(node, 0) > 0
                or node in self.pending_out)

    def _input_row(self, node: int) -> URow | None:
        name = self.mig.input_name(node)
        if name is None:
            return None
        return self.input_rows[name]

    def _find_source(self, node: int, negated: bool,
                     avoid_planes: frozenset[int] = frozenset(),
                     ) -> URow | None:
        """A row currently readable as the value (node, negated).

        Probe order (it decides ties, so it is part of the output):
        planes 0..5, the node's temporaries oldest first, its written
        output rows oldest first, the constant rows, the input row.
        """
        if self.options.reuse:
            for p, content in enumerate(self.state.plane):
                if content is None or p in avoid_planes:
                    continue
                held_node, held_neg = content
                if held_node != node:
                    continue
                if held_neg == negated:
                    return URow(Space.BGROUP, PLANE_POS_ADDR[p])
                if p in PLANE_NEG_ADDR:
                    return URow(Space.BGROUP, PLANE_NEG_ADDR[p])
        for idx, held_neg in self.state.temps_of.get(node, {}).items():
            if held_neg == negated:
                return URow(Space.TEMP, idx)
        for row, held_neg in self.state.outs_of.get(node, {}).items():
            if held_neg == negated:
                return row
        if node == CONST_NODE:
            return URow(Space.CTRL, 1 if negated else 0)
        if not negated:
            return self._input_row(node)
        return None

    def _has_copy_outside(self, node: int, planes: frozenset[int]) -> bool:
        """True if the value survives clobbering the given planes."""
        if self._is_leaf(node):
            return True  # inputs/constants always have a home row
        for p, content in enumerate(self.state.plane):
            if p in planes or content is None:
                continue
            if content[0] == node:
                return True
        return node in self.state.temps_of or node in self.state.outs_of

    # ------------------------------------------------------------------
    # emission primitives
    # ------------------------------------------------------------------
    def _emit(self, uop: MicroOp) -> None:
        self.uops.append(uop)

    def _save_to_temp(self, src: URow, value: Value) -> None:
        """Copy ``src``, which reads as ``value``, into a temporary."""
        idx = self.state.alloc_temp()
        self._emit(UAap(src, URow(Space.TEMP, idx)))
        self.state.hold_temp(idx, value)

    def _write_output(self, src: URow, node: int, out_row: URow,
                      out_neg: bool) -> None:
        """Copy ``src`` into one of ``node``'s pending output rows."""
        self._emit(UAap(src, out_row))
        self.state.outs_of.setdefault(node, {})[out_row] = out_neg
        pending = self.pending_out[node]
        pending.remove((out_row, out_neg))
        if not pending:
            del self.pending_out[node]
        self.state.touched.add(node)

    def _plane_read_addr(self, plane: int, negated: bool) -> URow | None:
        """Address reading plane ``plane`` as (node, negated) given content."""
        content = self.state.plane[plane]
        if content is None:
            return None
        if content[1] == negated:
            return URow(Space.BGROUP, PLANE_POS_ADDR[plane])
        if plane in PLANE_NEG_ADDR:
            return URow(Space.BGROUP, PLANE_NEG_ADDR[plane])
        return None

    def _spill_plane(self, plane: int) -> None:
        """Preserve a live, sole-copy plane value before it is clobbered."""
        content = self.state.plane[plane]
        node, held_neg = content
        # Prefer writing a pending output row: same cost, more progress.
        for out_row, out_neg in self.pending_out.get(node, []):
            addr = self._plane_read_addr(plane, out_neg)
            if addr is not None:
                self._write_output(addr, node, out_row, out_neg)
                return
        self._save_to_temp(URow(Space.BGROUP, PLANE_POS_ADDR[plane]),
                           (node, held_neg))

    def _install(self, plane: int, want: Value,
                 triple_planes: frozenset[int]) -> None:
        """Make plane ``plane`` hold content ``want`` (positive-port view)."""
        node, want_neg = want
        # Prefer sources outside the triple: in-triple planes are about to
        # be overwritten, so reading them creates ordering hazards.
        src = self._find_source(node, want_neg, avoid_planes=triple_planes)
        if src is None:
            src = self._find_source(node, want_neg)
        if src is not None:
            self._emit(UAap(src, URow(Space.BGROUP, PLANE_POS_ADDR[plane])))
            self.state.plane[plane] = want
            return
        src = self._find_source(node, not want_neg)
        if src is None:
            raise SchedulingError(
                f"value for node {node} unavailable during scheduling")
        if plane in PLANE_NEG_ADDR:
            # Write the complement through the negated port.
            self._emit(UAap(src, URow(Space.BGROUP, PLANE_NEG_ADDR[plane])))
            self.state.plane[plane] = want
            return
        # T-plane needing a complement: route through a free DCC first.
        dcc = self._pick_dcc(triple_planes)
        self._emit(UAap(src, URow(Space.BGROUP, PLANE_NEG_ADDR[dcc])))
        self.state.plane[dcc] = (node, want_neg)
        self._emit(UAap(URow(Space.BGROUP, PLANE_POS_ADDR[dcc]),
                        URow(Space.BGROUP, PLANE_POS_ADDR[plane])))
        self.state.plane[plane] = want

    def _pick_dcc(self, triple_planes: frozenset[int]) -> int:
        """Choose a DCC plane to use as a NOT gateway, spilling if needed."""
        candidates = [p for p in DCC_PLANES if p not in triple_planes]
        if not candidates:
            candidates = list(DCC_PLANES)
        # Prefer a dead or duplicated plane.  Copies inside the current
        # triple do not count: the TRA is about to destroy them.
        for p in candidates:
            content = self.state.plane[p]
            if content is None or not self._is_live(content[0]) \
                    or self._has_copy_outside(content[0],
                                              triple_planes | {p}):
                return p
        p = candidates[0]
        self._spill_plane(p)
        return p

    # ------------------------------------------------------------------
    # per-node scheduling
    # ------------------------------------------------------------------
    # The 24 placements of a node (4 triples x 6 operand orders) are
    # priced from two tables that nothing changes until one is chosen,
    # so each table is built once per node, not once per placement.
    def _install_costs(self, children: tuple[Ref, ...],
                       ) -> dict[tuple[int, bool], list[int]]:
        """Slot -> AAPs to put each child (by position) behind it."""
        readable = {(ref.node, negated):
                    self._find_source(ref.node, negated) is not None
                    for ref in children for negated in (False, True)}
        costs: dict[tuple[int, bool], list[int]] = {}
        for plane, port_neg in _SLOTS:
            held = self.state.plane[plane] if self.options.reuse else None
            via_negated_port = plane in PLANE_NEG_ADDR
            per_child = costs[plane, port_neg] = []
            for ref in children:
                want_neg = ref.negated ^ port_neg
                if held == (ref.node, want_neg):
                    per_child.append(0)
                elif readable[ref.node, want_neg] or (
                        via_negated_port
                        and readable[ref.node, not want_neg]):
                    per_child.append(1)
                else:
                    per_child.append(2)
        return costs

    def _spill_planes(self, children: tuple[Ref, ...],
                      ) -> dict[int, list[int]]:
        """Triple -> planes to save before its TRA: the lowest plane of
        each distinct value that exists only inside the triple and is
        still live once this node has consumed its operands."""
        if not self.options.reuse:
            return {ap_index: [] for ap_index in TRIPLES}
        consumed = [ref.node for ref in children
                    if not self._is_leaf(ref.node)]
        spills: dict[int, list[int]] = {}
        for ap_index, triple_planes in _TRIPLE_PLANES.items():
            planes = spills[ap_index] = []
            seen: set[int] = set()
            for plane in sorted(triple_planes):
                content = self.state.plane[plane]
                if content is None or content[0] in seen:
                    continue
                held = content[0]
                seen.add(held)
                live = (self.remaining_uses.get(held, 0)
                        - consumed.count(held) > 0
                        or held in self.pending_out)
                if live and not self._has_copy_outside(held, triple_planes):
                    planes.append(plane)
        return spills

    def _schedule_node(self, node: int) -> None:
        children = self.mig.children_of(node)
        install_cost = self._install_costs(children)
        spills = self._spill_planes(children)
        # First cheapest placement in (triple, operand order) order.
        best: tuple[int, int, tuple[int, int, int]] | None = None
        for ap_index, slots in TRIPLES.items():
            spill_cost = len(spills[ap_index])
            first, second, third = (install_cost[slot] for slot in slots)
            for order in _OPERAND_ORDERS:
                i, j, k = order
                cost = spill_cost + first[i] + second[j] + third[k]
                if best is None or cost < best[0]:
                    best = (cost, ap_index, order)
        _, ap_index, order = best
        perm = [children[i] for i in order]
        slots = TRIPLES[ap_index]
        triple_planes = _TRIPLE_PLANES[ap_index]

        # 1. Spill live sole-copy values out of the triple.
        for plane in spills[ap_index]:
            self._spill_plane(plane)

        # 2. Marshal operands into the triple, keeping matches in place.
        pending_installs: list[tuple[int, Value]] = []
        for (plane, port_neg), ref in zip(slots, perm):
            want = (ref.node, ref.negated ^ port_neg)
            if self.options.reuse and self.state.plane[plane] == want:
                continue
            pending_installs.append((plane, want))
        # Installs sourced from planes inside the triple must run before
        # those planes are overwritten; _install prefers outside sources,
        # so a simple greedy order suffices: install planes whose current
        # content is not needed as a source by later installs first.
        for plane, want in self._order_installs(pending_installs,
                                                triple_planes):
            self._install(plane, want, triple_planes)

        # 3. Fire the TRA.
        self._emit(UAp(URow(Space.BGROUP, ap_index)))
        for plane, port_neg in slots:
            self.state.plane[plane] = (node, port_neg)

        # 4. Update liveness.
        for ref in children:
            if not self._is_leaf(ref.node):
                self.remaining_uses[ref.node] -= 1
                self.state.touched.add(ref.node)
        self.state.free_dead_temps(self._is_live)

        # 5. Persist the result when needed.
        self._persist_result(node, triple_planes)

    def _order_installs(self, installs: list[tuple[int, Value]],
                        triple_planes: frozenset[int],
                        ) -> list[tuple[int, Value]]:
        """Order installs so in-triple sources are consumed before the
        planes holding them are overwritten.

        An install *depends on* every plane that holds the only remaining
        copy of the value it needs.  Kahn's algorithm orders the (at most
        three) installs; a dependency cycle is broken by copying one
        trapped value out to a temporary first.
        """
        if len(installs) <= 1:
            return installs

        def in_triple_only(node: int) -> set[int]:
            """Planes in the triple holding ``node`` when no copy survives
            elsewhere (empty set means the install is hazard-free)."""
            if self._is_leaf(node) or self._has_copy_outside(
                    node, triple_planes):
                return set()
            return {p for p in triple_planes
                    if self.state.plane[p] is not None
                    and self.state.plane[p][0] == node}

        def order_is_safe(order: tuple[tuple[int, Value], ...]) -> bool:
            done: set[int] = set()
            for plane, want in order:
                holders = in_triple_only(want[0])
                # An install may read its own plane before overwriting it
                # (DCC port flip), so the plane it writes never blocks it.
                if holders and not (holders - done) :
                    return False
                done.add(plane)
            return True

        for candidate in permutations(installs):
            if order_is_safe(candidate):
                return list(candidate)
        # Dependency cycle: free one trapped value via a temp copy, then
        # any order that respects the remaining constraints works.
        _, want = installs[0]
        holders = in_triple_only(want[0])
        plane = min(holders)
        self._save_to_temp(URow(Space.BGROUP, PLANE_POS_ADDR[plane]),
                           self.state.plane[plane])
        return self._order_installs(installs, triple_planes)

    def _persist_result(self, node: int, triple_planes: frozenset[int]) -> None:
        """Eagerly satisfy cheap output writes; spill in naive mode."""
        for out_row, out_neg in list(self.pending_out.get(node, [])):
            src = self._find_source(node, out_neg)
            if src is None and not self.options.reuse:
                # Naive mode keeps nothing in planes conceptually, but the
                # result is physically there right now: read it directly.
                src = self._plane_result_addr(node, out_neg, triple_planes)
            if src is not None:
                self._write_output(src, node, out_row, out_neg)

        if not self.options.reuse and self._is_live(node):
            self._save_to_temp(
                self._plane_result_addr(node, False, triple_planes),
                (node, False))
            for plane in triple_planes:
                self.state.plane[plane] = None

    def _plane_result_addr(self, node: int, negated: bool,
                           triple_planes: frozenset[int]) -> URow | None:
        for plane in sorted(triple_planes):
            content = self.state.plane[plane]
            if content is None or content[0] != node:
                continue
            addr = self._plane_read_addr(plane, negated)
            if addr is not None:
                return addr
        return None

    # ------------------------------------------------------------------
    # output flush
    # ------------------------------------------------------------------
    def _flush_outputs(self) -> None:
        for node in list(self.pending_out):
            for out_row, out_neg in list(self.pending_out[node]):
                src = self._find_source(node, out_neg)
                if src is None:
                    src = self._route_through_dcc(node, out_neg)
                self._write_output(src, node, out_row, out_neg)

    def _route_through_dcc(self, node: int, negated: bool) -> URow:
        """Materialize a complement via a dual-contact cell round trip."""
        src = self._find_source(node, not negated)
        if src is None:
            raise SchedulingError(
                f"lost value of node {node} before output flush")
        dcc = self._pick_dcc(frozenset())
        self._emit(UAap(src, URow(Space.BGROUP, PLANE_NEG_ADDR[dcc])))
        self.state.plane[dcc] = (node, negated)
        return URow(Space.BGROUP, PLANE_POS_ADDR[dcc])

    # ------------------------------------------------------------------
    # peephole: AP(triple) + AAP(member, dst) -> AAP(triple, dst)
    # ------------------------------------------------------------------
    def _peephole(self, uops: list[MicroOp]) -> list[MicroOp]:
        out: list[MicroOp] = []
        i = 0
        while i < len(uops):
            op = uops[i]
            if (isinstance(op, UAp) and i + 1 < len(uops)
                    and isinstance(uops[i + 1], UAap)):
                nxt = uops[i + 1]
                if (nxt.src.space is Space.BGROUP
                        and nxt.src.n_wordlines == 1
                        and B_ADDRESS_MAP[nxt.src.index][0]
                        in B_ADDRESS_MAP[op.addr.index]):
                    out.append(UAap(op.addr, nxt.dst))
                    i += 2
                    continue
            out.append(op)
            i += 1
        return out

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self) -> tuple[list[MicroOp], int]:
        """Schedule the whole MIG; returns (µops, temp row count)."""
        for node in self.order:
            self._schedule_node(node)
        self._flush_outputs()
        uops = self.uops
        if self.options.peephole:
            uops = self._peephole(uops)
        return uops, self.state.high_water


def schedule(mig: Mig, op_name: str, backend: str, element_width: int,
             input_specs: list[OperandSpec], output_spec: OperandSpec,
             input_rows: dict[str, URow], output_rows: dict[str, URow],
             options: ScheduleOptions | None = None,
             source_hash: str | None = None) -> MicroProgram:
    """Compile ``mig`` into a :class:`MicroProgram` (the paper's Step 2).

    Schedules the graph under both node orders (topological and
    per-output cone, see :func:`cone_order`) and keeps whichever
    produces fewer commands — compilation is offline (µPrograms are
    built once, at boot in the paper), so trying both is free at
    execution time and consistently shrinks wide programs.
    """
    topo = mig.live_nodes()
    candidates: list[list[int]] = [topo]
    cone = cone_order(mig)
    if cone != topo:
        candidates.append(cone)
    best: tuple[tuple[int, int], list[MicroOp], int] | None = None
    for order in candidates:
        scheduler = Scheduler(mig, input_rows, output_rows, options,
                              order=order)
        uops, n_temp = scheduler.run()
        key = (len(uops), n_temp)
        if best is None or key < best[0]:
            best = (key, uops, n_temp)
    _, uops, n_temp = best
    return MicroProgram(
        op_name=op_name,
        backend=backend,
        element_width=element_width,
        inputs=input_specs,
        output=output_spec,
        uops=uops,
        n_temp_rows=n_temp,
        source_hash=source_hash,
    )


def schedule_stitched(mig: Mig, op_name: str, backend: str,
                      element_width: int, input_specs: list[OperandSpec],
                      input_rows: dict[str, URow],
                      output_groups: list[tuple[str, list[str]]],
                      options: ScheduleOptions | None = None,
                      source_hash: str | None = None,
                      ) -> tuple[MicroProgram, dict[str, tuple[int, int]]]:
    """Schedule a stitched multi-operation MIG with packed outputs.

    The fusion compiler stitches several catalog operations into one MIG
    whose outputs may belong to several logical results (e.g. the roots
    of an expression DAG).  This entry packs each named *output group* —
    ``(group_name, [mig output names, bit 0 first])`` — into one
    contiguous region of the OUTPUT space, schedules the whole graph in
    a single pass (so cross-operation temp-row reuse and dead-temp
    freeing happen exactly as within one operation), and returns the
    µProgram together with each group's ``(bit offset, width)`` inside
    the OUTPUT block.
    """
    if not output_groups:
        raise SchedulingError("schedule_stitched needs >= 1 output group")
    output_rows: dict[str, URow] = {}
    group_slices: dict[str, tuple[int, int]] = {}
    offset = 0
    for group_name, bit_names in output_groups:
        if group_name in group_slices:
            raise SchedulingError(
                f"duplicate output group {group_name!r}")
        if not bit_names:
            raise SchedulingError(
                f"output group {group_name!r} has no bits")
        for i, bit_name in enumerate(bit_names):
            if bit_name in output_rows:
                raise SchedulingError(
                    f"MIG output {bit_name!r} assigned to two groups")
            output_rows[bit_name] = URow(Space.OUTPUT, offset + i)
        group_slices[group_name] = (offset, len(bit_names))
        offset += len(bit_names)
    program = schedule(
        mig, op_name=op_name, backend=backend, element_width=element_width,
        input_specs=input_specs,
        output_spec=OperandSpec(Space.OUTPUT, offset),
        input_rows=input_rows, output_rows=output_rows, options=options,
        source_hash=source_hash)
    return program, group_slices
