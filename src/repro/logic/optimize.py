"""MIG optimization — the logic-minimization half of SIMDRAM's Step 1.

The goal (paper §3, step 1) is to minimize the number of DRAM row
activations, which is dominated by the number of MAJ nodes (one TRA each)
and, secondarily, complemented edges (DCC traffic).  The optimizer
*rebuilds* the graph bottom-up through the constructing simplifier of
:class:`~repro.logic.mig.Mig` — structural hashing, majority axioms,
constant folding, re-vote elimination and self-duality canonicalization
all re-fire on the rewritten fanins, and the pass iterates to a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.mig import CONST_NODE, Mig, Ref

_MAX_PASSES = 8


@dataclass(frozen=True)
class OptimizeStats:
    """Node/depth/edge counts before and after optimization."""

    nodes_before: int
    nodes_after: int
    depth_before: int
    depth_after: int
    complemented_before: int
    complemented_after: int
    passes: int

    @property
    def node_reduction(self) -> float:
        """Fraction of MAJ nodes removed."""
        if self.nodes_before == 0:
            return 0.0
        return 1.0 - self.nodes_after / self.nodes_before


def rebuild(mig: Mig) -> Mig:
    """One optimization pass: reconstruct the graph through the simplifier."""
    out = Mig()
    mapping: dict[int, Ref] = {CONST_NODE: out.const0}
    # Declare inputs first, in their original order, so the operand
    # interface (and thus the µProgram row binding) is stable.
    for name in mig.input_names:
        node = mig.input(name).node
        mapping[node] = out.input(name)
    for node in mig.live_nodes():
        children = mig.children_of(node)
        new_children = []
        for ref in children:
            target = mapping.get(ref.node)
            if target is None:  # a leaf seen for the first time
                name = mig.input_name(ref.node)
                target = out.input(name)
                mapping[ref.node] = target
            new_children.append(~target if ref.negated else target)
        mapping[node] = out.maj(*new_children)
    for name, ref in mig.outputs:
        target = mapping[ref.node]
        out.set_output(name, ~target if ref.negated else target)
    return out


def optimize(mig: Mig) -> tuple[Mig, OptimizeStats]:
    """Iterate :func:`rebuild` to a fixpoint; returns (optimized, stats)."""
    nodes_before = mig.n_nodes
    depth_before = mig.depth()
    complemented_before = mig.n_complemented_edges()

    current = mig
    passes = 0
    previous_nodes = None
    while passes < _MAX_PASSES:
        current = rebuild(current)
        passes += 1
        if current.n_nodes == previous_nodes:
            break
        previous_nodes = current.n_nodes

    stats = OptimizeStats(
        nodes_before=nodes_before,
        nodes_after=current.n_nodes,
        depth_before=depth_before,
        depth_after=current.depth(),
        complemented_before=complemented_before,
        complemented_after=current.n_complemented_edges(),
        passes=passes,
    )
    return current, stats
