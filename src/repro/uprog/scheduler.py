"""Step 2 of the SIMDRAM framework: allocate MIG nodes to DRAM rows and
emit the AAP/AP sequence that computes the operation.

Placement model.  The B-group is six storage planes (T0..T3, DCC0, DCC1)
behind sixteen decoder addresses.  Four addresses raise three wordlines
and fire a TRA (a MAJ); a complemented edge is served by a dual-contact
cell, whose negated port yields NOT for free on read.  For each MAJ node
the scheduler (1) picks a triple, (2) marshals the three operands into
its wordlines with AAP copies — exploiting values already in the
B-group, constant rows, input rows, temporaries and previously written
outputs — and (3) fires the TRA with an AP.  Because a TRA destroys its
three source rows, a value that is still live and has no other copy is
spilled to a D-group temporary (or straight to its output row) first.

Sibling pairs.  Of the four triples only B14 {DCC0N,T1,T2} and B15
{DCC1N,T0,T3} are disjoint, and the decoder's two-wordline addresses
B8 {DCC0N,T0}, B9 {DCC1N,T1}, B10 {T2,T3} each raise one wordline of
either — three *positions* that cover all six slots.  Two ready nodes
that share fanins (carry/inner of a full adder, AND/OR of an XOR, the
two ANDs of a mux, relu's per-bit masks) are therefore placed as a pair:
one node on B14, the other on B15, every shared fanin on one position,
where a same-polarity operand lands behind both wordlines with **one**
AAP to the two-wordline address (a complementary one with two: into the
DCC, and its other port across to the T row).  Either node may be
computed as its self-dual ``M(!a,!b,!c) = !M(a,b,c)`` when that lines
polarities up; its planes then hold the complement.  A pair is priced
from the same per-slot tables as a single placement, plus the spill of
every live sole copy in all six planes, and taken only if it beats the
two nodes placed one after the other (the sibling priced with the first
node's result sitting in its best triple): strictly cheaper, or as
cheap when a two-wordline AAP brings a shared leaf in from its home
row.  Emission is spills, hazard-ordered installs, ``AP B14``, persist,
``AP B15``, persist.  Behind any placement the *last reader* of a value
it produced or read is scheduled at once if it is ready (a full adder's
sum behind its carry/inner pair), so a cluster is walked depth-first
whatever the node order.  A peephole pass then merges each
``AP(triple)`` with an immediately following copy out of the triple
into a single ``AAP(triple, dst)``, the composite command Ambit uses.

Two scheduling modes support the paper's ablation study:

* ``reuse=True`` (default) — the full SIMDRAM Step-2 behaviour described
  above, minimizing row activations.
* ``reuse=False`` — a naive per-gate schedule (load three operands, fire,
  store: no pairs, no followers) that reproduces the command streams of
  gate-at-a-time baselines.

Cost.  Placing a node costs the same however many values are live, so
compile time is linear in the graph.  That rests on a per-node index of
where each value lives instead of scans over everything live, on pricing
a node's 24 single placements and a pair's variants from tables built
once per node, and on looking for a sibling among the readers of the
node's own result, not among everything that reads its operands.

The emitted µProgram is pinned command for command by
``tests/data/uprogram_ledger.json``.  What keeps it fixed:

* the probe order of ``_find_source`` — planes 0..5, then the node's
  temporaries, then its written output rows, then the constant row,
  then the input row — because the first hit wins a tie;
* insertion order inside each per-node entry of ``_State.temps_of`` /
  ``outs_of`` (oldest copy first);
* temporaries released oldest-filled first (``temp_stamp``) onto a
  LIFO free list, which decides every later ``tmp[i]`` index — only
  nodes in ``_State.touched`` can have died, and everything that can
  end a node's life or give it a temporary must add it there;
* the single-placement candidate order — triples 12..15, operand orders
  as ``itertools.permutations`` yields them — keeping the first with
  the fewest AAPs and, among those, the fewest spills;
* the sibling — the node next in schedule order if it qualifies, else
  of the qualifying fanins of the node's readers the one sharing most
  fanins, then the earliest in schedule order;
* the pair variant order — the plain pair before the self-duals
  (second node's, then first node's), the scheduled node on B14 before
  its sibling on B14 (only one of the two when no fanin is in a compute
  row: the triples are mirror images) — taking the *first* variant with
  a placement that pays, and within it the first cheapest of the six
  assignments of matched fanins to positions B8, B9, B10;
* followers — last readers of the placed node's result, then of its
  fanins in fanin order (for a pair: B14's node first) — scheduled
  before the order resumes;
* which orders are run: topological first; the per-output cone order
  only if the first run used a temporary row and placed fewer than a
  third of the nodes as pairs, abandoned once it cannot win.
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

#: Single-wordline B address -> the (plane, port_is_negated) behind it.
_ADDR_SLOT = ({addr: (plane, False) for plane, addr in PLANE_POS_ADDR.items()}
              | {addr: (plane, True) for plane, addr in PLANE_NEG_ADDR.items()})

#: The two disjoint triples a sibling pair runs on.
PAIR_TRIPLES = (14, 15)


def _pair_positions() -> tuple[tuple[int, tuple[int, bool],
                                     tuple[int, bool]], ...]:
    """The two-wordline ("cross") addresses that raise one wordline of
    each pair triple: ``(address, slot in B14, slot in B15)``."""
    slot_of = {B_ADDRESS_MAP[addr][0]: slot
               for addr, slot in _ADDR_SLOT.items()}
    first, second = (TRIPLES[ap_index] for ap_index in PAIR_TRIPLES)
    positions = []
    for addr, wordlines in B_ADDRESS_MAP.items():
        if len(wordlines) != 2:
            continue
        slots = [slot_of[w] for w in wordlines]
        in_first = [slot for slot in slots if slot in first]
        in_second = [slot for slot in slots if slot in second]
        if len(in_first) == len(in_second) == 1:
            positions.append((addr, in_first[0], in_second[0]))
    return tuple(positions)


#: B8 (DCC0N+T0), B9 (DCC1N+T1), B10 (T2+T3): between them they cover
#: every slot of B14 and B15 exactly once, so an operand assignment of a
#: pair is three *positions*, each one slot of either triple.
PAIR_POSITIONS = _pair_positions()
#: How many unscheduled readers of a value are looked at.
_SIBLING_WINDOW = 8
#: (first node dual?, second node dual?) variants a pair is priced in.
_PAIR_DUALS = ((False, False), (False, True), (True, False))
_INFEASIBLE = 1 << 20

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


def _folds(op: MicroOp, nxt: MicroOp) -> bool:
    """Does the peephole merge ``op`` and the µOp behind it — an ``AP``
    and a copy out of a wordline of its triple — into one AAP?"""
    return (isinstance(op, UAp) and isinstance(nxt, UAap)
            and nxt.src.space is Space.BGROUP
            and nxt.src.n_wordlines == 1
            and B_ADDRESS_MAP[nxt.src.index][0]
            in B_ADDRESS_MAP[op.addr.index])


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

        self._leaves = frozenset(
            [CONST_NODE] + [mig.input(name).node for name in mig.input_names])
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
        #: MAJ value -> its readers, in schedule order; ``user_cursor``
        #: skips each list's scheduled prefix.
        self.users_of: dict[int, list[int]] = {}
        self.user_cursor: dict[int, int] = {}
        self.rank = {node: i for i, node in enumerate(self.order)}
        for node in self.order:
            for ref in mig.children_of(node):
                if not self._is_leaf(ref.node):
                    self.remaining_uses[ref.node] = (
                        self.remaining_uses.get(ref.node, 0) + 1)
                    self.users_of.setdefault(ref.node, []).append(node)
        #: Nodes whose TRA has been emitted, and the order they were in.
        self.done: set[int] = set()
        self.fired: list[int] = []
        #: Memo of what is readable and what installs cost, valid until
        #: the next placement changes the state.
        self._probe: dict[object, object] = {}
        # Counters ``python -m repro explain`` prints.
        self.n_siblings = 0     # nodes that had a sibling to pair with
        self.n_pairs = 0        # pairs placed
        self.n_dcc_trips = 0    # complements made by a DCC round trip
        #: node -> [(out_row, negated)] still to be written.
        self.pending_out: dict[int, list[tuple[URow, bool]]] = {}
        for name, ref in mig.outputs:
            self.pending_out.setdefault(ref.node, []).append(
                (self.output_rows[name], ref.negated))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _is_leaf(self, node: int) -> bool:
        return node in self._leaves

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

    def _save_to_temp(self, src: URow, value: Value) -> URow:
        """Copy ``src``, which reads as ``value``, into a temporary."""
        temp = URow(Space.TEMP, self.state.alloc_temp())
        self._emit(UAap(src, temp))
        self.state.hold_temp(temp.index, value)
        return temp

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
        self.n_dcc_trips += 1
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
    # A node's 24 single placements (4 triples x 6 operand orders) and
    # the placements of a sibling pair are priced from the same tables,
    # which nothing changes until a placement is chosen, so each table
    # is built once per node, not once per placement.
    def _readable(self, node: int, negated: bool) -> bool:
        """Is ``(node, negated)`` readable somewhere right now?  Memoised
        until the next µOp is emitted for a placement."""
        key = (node, negated)
        hit = self._probe.get(key)
        if hit is None:
            hit = self._probe[key] = (
                self._find_source(node, negated) is not None)
        return hit

    def _install_costs(self, node: int,
                       ) -> dict[tuple[int, bool], list[list[int]]]:
        """Slot -> per fanin of ``node`` (by position) ``[AAPs to make
        the slot see the fanin node, AAPs to make it see that node's
        complement]``: index by the edge's polarity, flipped for the
        node's self-dual.  Memoised like :meth:`_readable`."""
        table = self._probe.get(node)
        if table is not None:
            return table
        children = self.mig.children_of(node)
        position = {ref.node: i for i, ref in enumerate(children)}
        # A T row takes the polarity it is given; a DCC takes either,
        # through the matching port.
        into_row, into_dcc = [], []
        for ref in children:
            positive = self._readable(ref.node, False)
            negative = self._readable(ref.node, True)
            into_row.append((1 if positive else 2, 1 if negative else 2))
            into_dcc.append((1 if positive or negative else 2,) * 2)
        table = self._probe[node] = {}
        for plane, port_neg in _SLOTS:
            per_child = into_dcc if plane in PLANE_NEG_ADDR else into_row
            held = self.state.plane[plane] if self.options.reuse else None
            if held is not None and held[0] in position:
                at = position[held[0]]
                in_place = list(per_child[at])
                in_place[held[1] ^ port_neg] = 0
                per_child = [*per_child[:at], in_place, *per_child[at + 1:]]
            table[plane, port_neg] = per_child
        return table

    def _sole_copies(self, consumed: list[int]) -> list[tuple[int, set[int]]]:
        """``(lowest plane, every plane)`` of each distinct value that
        lives only in compute rows and is still live once the
        ``consumed`` operands have been read — what must be saved before
        *all* its planes are overwritten.  Lowest plane first."""
        if not self.options.reuse:
            return []
        planes_of: dict[int, set[int]] = {}
        for plane, content in enumerate(self.state.plane):
            if content is not None:
                planes_of.setdefault(content[0], set()).add(plane)
        return [
            (min(planes), planes) for held, planes in planes_of.items()
            if not self._is_leaf(held)
            and held not in self.state.temps_of
            and held not in self.state.outs_of
            and (self.remaining_uses.get(held, 0) - consumed.count(held) > 0
                 or held in self.pending_out)]

    def _consumed(self, *fanins: tuple[Ref, ...]) -> list[int]:
        """The MAJ values these fanins read (one entry per read)."""
        return [ref.node for children in fanins for ref in children
                if not self._is_leaf(ref.node)]

    def _price_single(self, node: int,
                      also_read: tuple[Ref, ...] = (),
                      ) -> tuple[int, int, tuple[int, int, int], list[int]]:
        """First cheapest single placement in (triple, operand order)
        order: ``(AAPs, triple, operand order, planes to spill)``.  At
        equal AAPs fewer spills win: an install costs its AAP, a spill
        also the reload.  ``also_read`` are fanins a node placed just
        before will have consumed."""
        children = self.mig.children_of(node)
        sole_copies = self._sole_copies(self._consumed(children, also_read))
        polarity = [ref.negated for ref in children]
        table = {slot: [costs[neg] for costs, neg in zip(per_child, polarity)]
                 for slot, per_child in self._install_costs(node).items()}
        best = None
        for ap_index, slots in TRIPLES.items():
            spills = [lowest for lowest, planes in sole_copies
                      if planes <= _TRIPLE_PLANES[ap_index]]
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = (
                table[slot] for slot in slots)
            # One sum per entry of _OPERAND_ORDERS, in its order.
            installs = (a0 + b1 + c2, a0 + b2 + c1, a1 + b0 + c2,
                        a1 + b2 + c0, a2 + b0 + c1, a2 + b1 + c0)
            cheapest = min(installs)
            key = (len(spills) + cheapest, len(spills))
            if best is None or key < best[0]:
                best = (key, ap_index,
                        _OPERAND_ORDERS[installs.index(cheapest)], spills)
        return (best[0][0], *best[1:])

    def _schedule_node(self, node: int) -> None:
        children = self.mig.children_of(node)
        self._probe.clear()
        cost, *single = self._price_single(node)
        pair = (self._price_pair(node, cost, single[0])
                if self.options.reuse else None)
        if pair is None:
            self._place_single(node, children, *single)
        else:
            self._place_pair(*pair)

    def _place_single(self, node: int, children: tuple[Ref, ...],
                      ap_index: int, order: tuple[int, int, int],
                      spills: list[int]) -> None:
        perm = [children[i] for i in order]
        slots = TRIPLES[ap_index]
        triple_planes = _TRIPLE_PLANES[ap_index]

        # 1. Spill live sole-copy values out of the triple.
        for plane in spills:
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

        self._fire(node, ap_index)

    def _fire(self, node: int, ap_index: int, dual: bool = False) -> None:
        """``AP`` the triple, whose slots see ``node``'s fanins (all
        complemented when ``dual``: ``M(!a,!b,!c) = !M(a,b,c)``), and
        account for the result."""
        # 3. Fire the TRA.
        self._emit(UAp(URow(Space.BGROUP, ap_index)))
        self.done.add(node)
        self.fired.append(node)
        for plane, port_neg in TRIPLES[ap_index]:
            self.state.plane[plane] = (node, port_neg ^ dual)

        # 4. Update liveness.
        for ref in self.mig.children_of(node):
            if not self._is_leaf(ref.node):
                self.remaining_uses[ref.node] -= 1
                self.state.touched.add(ref.node)
        self.state.free_dead_temps(self._is_live)

        # 5. Persist the result when needed.
        self._persist_result(node, _TRIPLE_PLANES[ap_index])

    # ------------------------------------------------------------------
    # sibling pairs
    # ------------------------------------------------------------------
    def _ready(self, node: int, but: tuple[int, ...] = ()) -> bool:
        """Has every MAJ fanin of ``node`` (those in ``but`` aside) been
        computed?"""
        done, leaves = self.done, self._leaves
        return all(ref.node in leaves or ref.node in done or ref.node in but
                   for ref in self.mig.children_of(node))

    def _unscheduled_users(self, value: int) -> list[int]:
        """The first ``_SIBLING_WINDOW`` unscheduled readers of a MAJ
        ``value``, in schedule order."""
        users, done = self.users_of.get(value, ()), self.done
        at = self.user_cursor.get(value, 0)
        while at < len(users) and users[at] in done:
            at += 1
        self.user_cursor[value] = at
        return [user for user in users[at:at + 2 * _SIBLING_WINDOW]
                if user not in done][:_SIBLING_WINDOW]

    def _last_reader(self, value: int) -> int | None:
        """The one node still to read ``value``, if it is down to one
        (no leaf is) and no output row is waiting for it."""
        if self.remaining_uses.get(value) != 1 or value in self.pending_out:
            return None
        users, done = self.users_of[value], self.done
        at = self.user_cursor.get(value, 0)
        while users[at] in done:
            at += 1
        self.user_cursor[value] = at
        return users[at]

    def _find_sibling(self, node: int) -> int | None:
        """An unscheduled *ready* node (every MAJ fanin computed) to run
        beside ``node``: one sharing at least two fanin nodes with it,
        one of them a leaf — what a pair saves is loading a shared
        operand twice.

        The node next in schedule order is taken as it comes.  Any other
        sibling is pulled forward, and its result would sit in the
        compute rows until the order reaches its readers; it is taken
        only when one node reads both results, is the last reader of one
        of them and is ready once they exist — :meth:`_followers`
        schedules it right behind the pair.  Of several, the one sharing
        the most fanins, then the earliest in schedule order."""
        fanins = {ref.node for ref in self.mig.children_of(node)}
        leaves = fanins & self._leaves
        if not leaves:
            return None

        def shared(other: int) -> int:
            """Fanins ``other`` shares, 0 unless it can be a sibling."""
            reads = [ref.node for ref in self.mig.children_of(other)]
            count = sum(n in fanins for n in reads)
            if (count < 2 or leaves.isdisjoint(reads)
                    or not self._ready(other)):
                return 0
            return count

        order, done = self.order, self.done
        for at in range(self.rank[node] + 1, len(order)):
            if order[at] not in done:
                if shared(order[at]):
                    return order[at]
                break
        best: tuple[int, int] | None = None
        mine = self._last_reader(node)
        for reader in self._unscheduled_users(node):
            for ref in self.mig.children_of(reader):
                other = ref.node
                if (other == node or other in done or other in self._leaves
                        or reader != mine
                        and reader != self._last_reader(other)):
                    continue
                key = (-shared(other), self.rank[other])
                if key[0] and (best is None or key < best) \
                        and self._ready(reader, (node, other)):
                    best = key
        return None if best is None else order[best[1]]

    def _followers(self, placed: list[int]) -> list[int]:
        """Nodes to schedule right behind ``placed`` instead of when the
        order reaches them: each *ready* last reader of a value that
        ``placed`` produced or read.  Placing it now ends that value's
        life while it is still in the compute rows (a full adder's sum
        right behind its carry/inner pair, whatever the node order)."""
        followers: list[int] = []
        for node in placed if self.options.reuse else ():
            for value in (node, *[ref.node
                                  for ref in self.mig.children_of(node)]):
                reader = self._last_reader(value)
                if (reader is not None and reader not in followers
                        and self._ready(reader)):
                    followers.append(reader)
        return followers

    def _pair_matrix(self, couples, tables, duals,
                     ) -> list[list[tuple[int, str]]]:
        """``[position][couple] -> (AAPs, how)`` to fill the position so
        that its B14 slot sees the couple's first fanin and its B15 slot
        the second (either complemented for a node run as its dual).
        A couple is ``((fanin, its place among the node's fanins),
        (same for the other node))``; ``tables`` are the two nodes'
        :meth:`_install_costs`."""
        (table_p, table_q), (dual_p, dual_q) = tables, duals
        matrix = []
        for _, slot_p, slot_q in PAIR_POSITIONS:
            row_p, row_q = table_p[slot_p], table_q[slot_q]
            has_dcc = slot_p[1] or slot_q[1]
            row = []
            for (p, i), (q, j) in couples:
                neg_p, neg_q = p.negated ^ dual_p, q.negated ^ dual_q
                cost_p, cost_q = row_p[i][neg_p], row_q[j][neg_q]
                plan = None
                if cost_p and cost_q and p.node == q.node:
                    if neg_p == neg_q:
                        # One value behind both wordlines: a single AAP
                        # to the two-wordline address — or, when only
                        # its complement can be read, into the DCC and
                        # across to the T row.
                        if self._readable(p.node, neg_p):
                            plan = 1, "cross"
                        elif has_dcc:
                            plan = 2, "via_dcc"
                    elif has_dcc and cost_p + cost_q > 2:
                        # x and !x: write the DCC, copy its other port.
                        plan = 2, "complement"
                if plan is None:
                    # Each slot on its own.  A T row needing a complement
                    # nobody holds goes through a gateway DCC, and a
                    # pair leaves no DCC free to be one.
                    plan = (_INFEASIBLE if 2 in (cost_p, cost_q)
                            else cost_p + cost_q), "split"
                row.append(plan)
            matrix.append(row)
        return matrix

    def _fuses_copy_out(self, node: int, dual: bool) -> bool:
        """Does a pending output want the value the TRA leaves on the
        bitlines, so the peephole folds its copy into the TRA?"""
        return any(out_neg == dual
                   for _, out_neg in self.pending_out.get(node, ()))

    def _price_pair(self, node: int, single_cost: int, single_triple: int):
        """The first cheapest way to run ``node`` and its sibling as a
        pair on B14/B15, if it beats placing them one after the other
        (the sibling priced with ``node``'s result in its best triple):
        strictly cheaper — or as cheap, when a two-wordline AAP brings a
        shared leaf in from its home row (the one thing a pair can do
        and two single placements cannot)."""
        sibling = self._find_sibling(node)
        if sibling is None:
            return None
        self.n_siblings += 1
        fanins = [self.mig.children_of(n) for n in (node, sibling)]
        # The sibling alone, once ``node`` sits in its best triple: what
        # is readable stays so (a placement saves what it overwrites),
        # what was in place there is not.
        table = self._install_costs(sibling)
        planes = self.state.plane[:]
        for plane, port_neg in TRIPLES[single_triple]:
            self.state.plane[plane] = (node, port_neg)
        del self._probe[sibling]
        budget = single_cost + self._price_single(sibling, fanins[0])[0]
        self.state.plane[:], self._probe[sibling] = planes, table

        # Every shared fanin node faces itself, the unshared two each
        # other: an assignment puts each couple on one position.
        facing = {ref.node: (ref, j) for j, ref in enumerate(fanins[1])}
        mine = {ref.node for ref in fanins[0]}
        unshared = [(ref, j) for j, ref in enumerate(fanins[1])
                    if ref.node not in mine]
        couples = [((ref, i), facing.get(ref.node) or unshared[0])
                   for i, ref in enumerate(fanins[0])]
        is_leaf = [self._is_leaf(ref.node) for ref in fanins[0]]
        spills = [lowest for lowest, _ in
                  self._sole_copies(self._consumed(*fanins))]
        # With none of the fanins in a compute row the two triples are
        # mirror images: which node takes B14 cannot matter.
        resident = any(content is not None
                       and (content[0] in facing or content[0] in mine)
                       for content in planes)
        folds = {n: [self._fuses_copy_out(n, dual) for dual in (False, True)]
                 for n in (node, sibling)}
        facings = [((node, sibling), couples)]
        if resident:
            facings.append(((sibling, node), [(q, p) for p, q in couples]))
        # Variants in the order they are tried — the plain pair before
        # the self-duals, ``node`` on B14 before its sibling; the first
        # variant with a placement that pays is taken.
        for duals_tried in (_PAIR_DUALS[:1], _PAIR_DUALS[1:]):
            for nodes, facing_couples in facings:
                tables = tuple(self._install_costs(n) for n in nodes)
                for duals in duals_tried:
                    matrix = self._pair_matrix(facing_couples, tables, duals)
                    fixed = len(spills) + sum(
                        folds[n][False] - folds[n][dual]
                        for n, dual in zip(nodes, duals))
                    best = None
                    for order in _OPERAND_ORDERS:
                        cost, loads_leaf = fixed, False
                        for row, i in zip(matrix, order):
                            aaps, how = row[i]
                            cost += aaps
                            loads_leaf |= how == "cross" and is_leaf[i]
                        if cost - loads_leaf < budget and (
                                best is None or cost < best[0]):
                            best = (cost, order)
                    if best is not None:
                        return (nodes, duals, best[1], facing_couples,
                                matrix, spills)
        return None

    def _dcc_write(self, plane: int, content: Value) -> tuple[Value, int]:
        """``(value to read, B address to write it to)`` that leaves DCC
        ``plane`` holding ``content``: through the positive port when
        the content itself is readable, else its complement through the
        negated port."""
        node, negated = content
        if self._readable(node, negated):
            return content, PLANE_POS_ADDR[plane]
        return (node, not negated), PLANE_NEG_ADDR[plane]

    def _place_pair(self, nodes: tuple[int, int], duals: tuple[bool, bool],
                    order: tuple[int, int, int], couples, matrix,
                    spills: list[int]) -> None:
        """Spill, install all six planes (hazard-ordered), then
        ``AP B14``, persist, ``AP B15``, persist."""
        # Spills only add copies: what was priced is still what to do.
        for plane in spills:
            self._spill_plane(plane)
        # An action: [value its first AAP reads, [(B src | None for that
        # value, B dst), ...], {plane: content afterwards}].
        actions: list[list] = []
        for (addr, slot_p, slot_q), row, i in zip(PAIR_POSITIONS, matrix,
                                                  order):
            (p, _), (q, _) = couples[i]
            p, q = ((ref.node, ref.negated ^ dual)
                    for ref, dual in zip((p, q), duals))
            _, how = row[i]
            if how == "cross":
                actions.append([p, [(None, addr)], {
                    plane: (p[0], p[1] ^ port_neg)
                    for plane, port_neg in (slot_p, slot_q)}])
            elif how == "split":
                for (plane, port_neg), seen in ((slot_p, p), (slot_q, q)):
                    content = (seen[0], seen[1] ^ port_neg)
                    if self.state.plane[plane] == content:
                        continue
                    value, dst = (self._dcc_write(plane, content)
                                  if plane in PLANE_NEG_ADDR
                                  else (content, PLANE_POS_ADDR[plane]))
                    actions.append([value, [(None, dst)], {plane: content}])
            else:
                (dcc, _), (t_row, _), in_row = (
                    (slot_p, slot_q, q) if slot_p[1] else (slot_q, slot_p, p))
                via_negated = how == "via_dcc"
                in_dcc = (in_row[0], in_row[1] ^ via_negated)
                value, dst = self._dcc_write(dcc, in_dcc)
                across = (PLANE_NEG_ADDR if via_negated
                          else PLANE_POS_ADDR)[dcc]
                actions.append([value, [(None, dst),
                                        (across, PLANE_POS_ADDR[t_row])],
                                {dcc: in_dcc, t_row: in_row}])
        written = frozenset(plane for *_, result in actions
                            for plane in result)
        for action in actions:
            src = (self._find_source(*action[0], avoid_planes=written)
                   or self._find_source(*action[0]))
            if src is None:
                raise SchedulingError(
                    f"value for node {action[0][0]} unavailable during "
                    f"scheduling")
            action.insert(0, src)
        # An action that reads a plane runs before the one overwriting it.
        while actions:
            sources = [_ADDR_SLOT[src.index][0]
                       if src.space is Space.BGROUP else None
                       for src, *_ in actions]
            ready = next(
                (n for n, action in enumerate(actions)
                 if not any(plane in action[3]
                            for m, plane in enumerate(sources) if m != n)),
                None)
            if ready is None:
                # Planes waiting on each other: park one value in a temp.
                actions[0][0] = self._save_to_temp(*actions[0][:2])
                continue
            src, _, steps, result = actions.pop(ready)
            for b_src, b_dst in steps:
                self._emit(UAap(
                    src if b_src is None else URow(Space.BGROUP, b_src),
                    URow(Space.BGROUP, b_dst)))
            for plane, content in result.items():
                self.state.plane[plane] = content
        self.n_pairs += 1
        for node, ap_index, dual in zip(nodes, PAIR_TRIPLES, duals):
            self._fire(node, ap_index, dual)

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
            if i + 1 < len(uops) and _folds(op, uops[i + 1]):
                out.append(UAap(op.addr, uops[i + 1].dst))
                i += 2
                continue
            out.append(op)
            i += 1
        return out

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self, limit: int | None = None,
            ) -> tuple[list[MicroOp], int] | None:
        """Schedule the whole MIG; returns (µops, temp row count) — or
        ``None`` as soon as the program cannot come in at ``limit``
        commands or fewer: what is emitted, less the ``AP``s the
        peephole folds (the last one maybe into a copy yet to come),
        plus one command for every node still to place."""
        n_folded = n_checked = 0
        for node in self.order:
            work = [node]
            while work:
                node = work.pop()
                if node in self.done:
                    continue
                n_fired = len(self.fired)
                self._schedule_node(node)
                work.extend(reversed(self._followers(self.fired[n_fired:])))
            if limit is None:
                continue
            if self.options.peephole:
                n_folded += sum(map(_folds, self.uops[n_checked:-1],
                                    self.uops[n_checked + 1:]))
                n_checked = max(len(self.uops) - 1, 0)
            if (len(self.uops) - n_folded - 1
                    + len(self.order) - len(self.fired)) > limit:
                return None
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
    execution time and consistently shrinks wide programs.  The cone
    order exists to shorten the live ranges of values placed one by
    one, so it is not tried when the first run kept every value in the
    compute rows (no temporary row) or ran a third of the nodes or more
    as sibling pairs (pairs and their followers already walk each
    cluster depth-first, whatever the order), and it is abandoned as
    soon as it can no longer beat the first.
    """
    candidates = {"topological": mig.live_nodes()}
    cone = cone_order(mig)
    if cone != candidates["topological"]:
        candidates["cone"] = cone
    best = None
    tried: dict[str, object] = {}
    for name, order in candidates.items():
        if best is not None:
            _, _, n_temp, first = best
            if n_temp == 0:
                tried[name] = "not tried (no temporary row to save)"
                break
            if 6 * first.n_pairs >= len(order):
                tried[name] = "not tried (a third of the nodes ran as pairs)"
                break
        scheduler = Scheduler(mig, input_rows, output_rows, options,
                              order=order)
        result = scheduler.run(limit=None if best is None else best[0][0])
        if result is None:
            tried[name] = "abandoned (could no longer win)"
            continue
        uops, n_temp = result
        tried[name] = key = (len(uops), n_temp)
        if best is None or key < best[0]:
            best = (key, uops, n_temp, scheduler)
            kept = name
    _, uops, n_temp, scheduler = best
    return MicroProgram(
        op_name=op_name,
        backend=backend,
        element_width=element_width,
        inputs=input_specs,
        output=output_spec,
        uops=uops,
        n_temp_rows=n_temp,
        source_hash=source_hash,
        report={"order_kept": kept, "orders": tried,
                "siblings": scheduler.n_siblings,
                "pairs": scheduler.n_pairs,
                "dcc_round_trips": scheduler.n_dcc_trips},
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
