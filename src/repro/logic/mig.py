"""Majority-inverter graphs (MIG) — the output representation of Step 1.

A MIG is a DAG whose internal nodes are all 3-input majority gates and
whose edges may be complemented; together MAJ + NOT are logically
complete.  SIMDRAM computes directly in this representation: each MAJ
node becomes one triple-row activation, each complemented edge is served
by a dual-contact cell.  Minimizing MIG nodes therefore minimizes DRAM
row activations, which is exactly the paper's Step 1 objective.

Construction applies local simplification rules on the fly:

* ``M(x, x, y) = x`` and ``M(x, !x, y) = y`` (majority axioms),
* constant folding (a pair of constants always hits one rule above),
* ``M(x, y, M(x, y, z)) = M(x, y, z)`` and
  ``M(x, y, !M(x, y, z)) = M(x, y, !z)`` (redundant re-vote),
* self-duality canonicalization ``M(!x, !y, !z) = !M(x, y, z)`` so at
  most one fanin edge per node is complemented where possible,
* structural hashing (identical children share one node).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SynthesisError
from repro.logic.circuit import Circuit, GateType

CONST_NODE = 0


@dataclass(frozen=True, order=True)
class Ref:
    """A (possibly complemented) edge to a MIG node."""

    node: int
    negated: bool = False

    def __invert__(self) -> "Ref":
        return Ref(self.node, not self.negated)


def _edge_key(ref: Ref) -> tuple[int, bool]:
    return ref.node, ref.negated


class Mig:
    """A majority-inverter graph with named inputs and outputs."""

    def __init__(self) -> None:
        # Parallel node arrays; node 0 is the constant-0 leaf.
        self._children: list[tuple[Ref, Ref, Ref] | None] = [None]
        self._input_names: list[str | None] = [None]
        self._input_ids: dict[str, int] = {}
        self._hash: dict[tuple[Ref, Ref, Ref], int] = {}
        self._outputs: list[tuple[str, Ref]] = []
        self._output_names: set[str] = set()
        #: Memo of :meth:`live_nodes`; dropped when the graph changes.
        self._live: list[int] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def const0(self) -> Ref:
        """The constant-0 edge."""
        return Ref(CONST_NODE, False)

    @property
    def const1(self) -> Ref:
        """The constant-1 edge."""
        return Ref(CONST_NODE, True)

    def input(self, name: str) -> Ref:
        """Declare (or fetch) the primary input called ``name``."""
        node = self._input_ids.get(name)
        if node is None:
            self._children.append(None)
            self._input_names.append(name)
            node = len(self._children) - 1
            self._input_ids[name] = node
        return Ref(node, False)

    def _validate(self, ref: Ref) -> None:
        if not 0 <= ref.node < len(self._children):
            raise SynthesisError(f"reference to unknown node {ref.node}")

    def maj(self, a: Ref, b: Ref, c: Ref) -> Ref:
        """Create (or simplify away) the majority of three edges."""
        n_known = len(self._children)
        for ref in (a, b, c):
            if not 0 <= ref.node < n_known:
                raise SynthesisError(
                    f"reference to unknown node {ref.node}")
        # Majority axioms on every pair: two edges to one node are equal
        # (the pair wins) or complementary (the third edge decides).
        if a.node == b.node:
            return a if a.negated == b.negated else c
        if a.node == c.node:
            return a if a.negated == c.negated else b
        if b.node == c.node:
            return b if b.negated == c.negated else a
        children = tuple(sorted((a, b, c), key=_edge_key))
        # Redundant re-vote: M(x, y, [!]M(x, y, z)) simplification.
        simplified = self._fold_revote(children)
        if simplified is not None:
            return simplified
        # Self-duality: keep at most one complemented fanin edge.
        if a.negated + b.negated + c.negated >= 2:
            flipped = tuple(Ref(ref.node, not ref.negated)
                            for ref in children)
            return ~self._lookup(flipped)
        return self._lookup(children)

    def _fold_revote(self, children: tuple[Ref, Ref, Ref]) -> Ref | None:
        for i, candidate in enumerate(children):
            inner = self._children[candidate.node]
            if inner is None:
                continue
            others = children[:i] + children[i + 1:]
            if others[0] in inner and others[1] in inner:
                (z,) = (ref for ref in inner if ref not in others)
                if not candidate.negated:
                    return candidate
                return self.maj(*others, ~z)
        return None

    def _lookup(self, children: tuple[Ref, Ref, Ref]) -> Ref:
        node = self._hash.get(children)
        if node is None:
            self._children.append(children)
            self._input_names.append(None)
            node = len(self._children) - 1
            self._hash[children] = node
            self._live = None
        return Ref(node, False)

    def and_(self, a: Ref, b: Ref) -> Ref:
        return self.maj(a, b, self.const0)

    def or_(self, a: Ref, b: Ref) -> Ref:
        return self.maj(a, b, self.const1)

    def xor(self, a: Ref, b: Ref) -> Ref:
        # a ^ b = AND(NAND(a, b), OR(a, b)).
        return self.and_(~self.and_(a, b), self.or_(a, b))

    def mux(self, select: Ref, if_true: Ref, if_false: Ref) -> Ref:
        return self.or_(self.and_(select, if_true),
                        self.and_(~select, if_false))

    def set_output(self, name: str, ref: Ref) -> None:
        """Mark ``ref`` as the primary output called ``name``."""
        self._validate(ref)
        if name in self._output_names:
            raise SynthesisError(f"duplicate output name {name!r}")
        self._output_names.add(name)
        self._outputs.append((name, ref))
        self._live = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def outputs(self) -> list[tuple[str, Ref]]:
        return list(self._outputs)

    @property
    def input_names(self) -> list[str]:
        return list(self._input_ids)

    def children_of(self, node: int) -> tuple[Ref, Ref, Ref] | None:
        """Fanin edges of ``node`` (None for inputs and the constant)."""
        return self._children[node]

    def input_name(self, node: int) -> str | None:
        """Input name of ``node`` when it is a primary input."""
        return self._input_names[node]

    def is_input(self, node: int) -> bool:
        return self._input_names[node] is not None

    def live_nodes(self) -> list[int]:
        """MAJ nodes reachable from the outputs, in topological order
        (a fresh list each call; the traversal itself is memoized)."""
        if self._live is not None:
            return list(self._live)
        order: list[int] = []
        seen: set[int] = set()
        stack = [ref.node for _, ref in self._outputs]
        # Iterative post-order DFS.
        visit: list[tuple[int, bool]] = [(n, False) for n in stack]
        while visit:
            node, expanded = visit.pop()
            if node in seen:
                continue
            children = self._children[node]
            if children is None:  # leaf
                seen.add(node)
                continue
            if expanded:
                seen.add(node)
                order.append(node)
                continue
            visit.append((node, True))
            visit.extend((ref.node, False) for ref in children)
        self._live = order
        return list(order)

    @property
    def n_nodes(self) -> int:
        """Number of live MAJ nodes (TRAs needed, before scheduling)."""
        return len(self.live_nodes())

    def depth(self) -> int:
        """Longest input-to-output path in MAJ levels."""
        level: dict[int, int] = {}
        for node in self.live_nodes():
            children = self._children[node]
            level[node] = 1 + max(level.get(ref.node, 0) for ref in children)
        if not self._outputs:
            return 0
        return max(level.get(ref.node, 0) for _, ref in self._outputs)

    def n_complemented_edges(self) -> int:
        """Complemented fanin edges among live nodes (NOT pressure)."""
        total = 0
        for node in self.live_nodes():
            children = self._children[node]
            total += sum(ref.negated for ref in children)
        return total

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Evaluate outputs over boolean lane vectors (like Circuit)."""
        missing = set(self._input_ids) - set(inputs)
        if missing:
            raise SynthesisError(f"missing input values for {sorted(missing)}")
        shape = None
        for name in self._input_ids:
            arr = np.asarray(inputs[name], dtype=bool)
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise SynthesisError(
                    f"input {name!r} has shape {arr.shape}, expected {shape}")
        if shape is None:
            shape = (1,)

        values: dict[int, np.ndarray] = {
            CONST_NODE: np.zeros(shape, dtype=bool)}
        for name, node in self._input_ids.items():
            values[node] = np.asarray(inputs[name], dtype=bool)

        def edge(ref: Ref) -> np.ndarray:
            val = values[ref.node]
            return ~val if ref.negated else val

        for node in self.live_nodes():
            a, b, c = (edge(ref) for ref in self._children[node])
            values[node] = (a & b) | (b & c) | (a & c)
        return {name: edge(ref) for name, ref in self._outputs}

    # ------------------------------------------------------------------
    # synthesis from a gate-level circuit (Step 1 conversion)
    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "Mig":
        """Convert an AND/OR/NOT(+XOR/MUX/MAJ) circuit into MAJ/NOT form."""
        mig = cls()
        refs: list[Ref | None] = [None] * len(circuit.gates)
        for net, gate in enumerate(circuit.gates):
            kind = gate.kind
            fanin = [refs[f] for f in gate.fanin]
            if kind is GateType.INPUT:
                refs[net] = mig.input(gate.name)
            elif kind is GateType.CONST:
                refs[net] = mig.const1 if gate.value else mig.const0
            elif kind is GateType.NOT:
                refs[net] = ~fanin[0]
            elif kind is GateType.AND:
                refs[net] = mig.and_(*fanin)
            elif kind is GateType.OR:
                refs[net] = mig.or_(*fanin)
            elif kind is GateType.NAND:
                refs[net] = ~mig.and_(*fanin)
            elif kind is GateType.NOR:
                refs[net] = ~mig.or_(*fanin)
            elif kind is GateType.XOR:
                refs[net] = mig.xor(*fanin)
            elif kind is GateType.XNOR:
                refs[net] = ~mig.xor(*fanin)
            elif kind is GateType.MAJ:
                refs[net] = mig.maj(*fanin)
            elif kind is GateType.MUX:
                refs[net] = mig.mux(*fanin)
            else:
                raise SynthesisError(f"cannot synthesize gate kind {kind}")
        for name, net in circuit.outputs:
            mig.set_output(name, refs[net])
        return mig
