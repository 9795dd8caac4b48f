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


def rebuild(mig: Mig, sites: "dict[int, tuple] | None" = None) -> Mig:
    """One optimization pass: reconstruct the graph through the
    simplifier — re-expressing the XOR3 ``sites`` (see
    :func:`xor3_sites`) around their new pass-through on the way."""
    sites = sites or {}
    out = Mig()
    mapping: dict[int, Ref] = {CONST_NODE: out.const0}
    # Declare inputs first, in their original order, so the operand
    # interface (and thus the µProgram row binding) is stable.
    for name in mig.input_names:
        mapping[mig.input(name).node] = out.input(name)
    for node in mig.live_nodes():
        site = sites.get(node)
        if site is None:
            mapping[node] = out.maj(*(_lift(mapping, ref)
                                      for ref in mig.children_of(node)))
            continue
        keep, (u, v, w), complement = site
        u, v, w = (_lift(mapping, ref) for ref in (u, v, w))
        total = out.maj(~mapping[keep], out.maj(u, v, ~w), w)
        mapping[node] = ~total if complement else total
    for name, ref in mig.outputs:
        out.set_output(name, _lift(mapping, ref))
    return out


def _lift(mapping: dict[int, Ref], ref: Ref) -> Ref:
    target = mapping[ref.node]
    return ~target if ref.negated else target


def _majority(a: bool, b: bool, c: bool) -> bool:
    return (a and b) or (b and c) or (a and c)


def _xor3_site(mig: Mig, children: tuple[Ref, Ref, Ref],
               fanout: dict[int, int]):
    """If the node with these fanins is a three-input XOR built as
    ``M(!M(x,y,z), M(x,y,!z), z)`` around a *computed* pass-through
    ``z`` and one of ``x``, ``y`` is a leaf, return ``(kept carry node,
    its fanins reordered so the leaf is last, complement the result?)``.
    """
    if any(mig.children_of(ref.node) is None for ref in children):
        return None  # two majorities and a *computed* pass-through
    for i, z in enumerate(children):
        p_ref, q_ref = children[:i] + children[i + 1:]
        p_kids, q_kids = (mig.children_of(r.node) for r in (p_ref, q_ref))
        p_lits = {r.node: r.negated for r in p_kids}
        q_lits = {r.node: r.negated for r in q_kids}
        if p_lits.keys() != q_lits.keys() or z.node not in p_lits:
            continue
        # Keep the majority other nodes read (the carry); the other one
        # is rebuilt around the new pass-through and must die with it.
        keep, drop = p_ref.node, q_ref.node
        if fanout[keep] == 1 and fanout[drop] > 1:
            keep, drop = drop, keep
        kept = mig.children_of(keep)
        leaves = [r for r in kept if r.node != z.node
                  and mig.children_of(r.node) is None]
        if fanout[drop] != 1 or not leaves:
            continue
        # The node is x ^ y ^ z (or its complement) on all 8 inputs?
        nodes = list(p_lits)
        parities = set()
        for bits in range(8):
            value = {n: bool(bits >> k & 1) for k, n in enumerate(nodes)}
            p, q = (_majority(*(value[n] ^ neg for n, neg in lits.items()))
                    for lits in (p_lits, q_lits))
            out = _majority(p ^ p_ref.negated, q ^ q_ref.negated,
                            value[z.node] ^ z.negated)
            parities.add(out ^ (bits.bit_count() & 1 == 1))
        if len(parities) != 1:
            continue
        rest = [r for r in kept if r != leaves[0]]
        kept_parity = sum(r.negated for r in kept) & 1 == 1
        return keep, (*rest, leaves[0]), kept_parity != parities.pop()
    return None


def xor3_sites(mig: Mig) -> dict[int, tuple]:
    """Node -> how to re-express it, for every three-input XOR whose
    pass-through operand can become a leaf (:func:`xor3_passthrough`)."""
    fanout: dict[int, int] = {}
    for node in mig.live_nodes():
        for ref in mig.children_of(node):
            fanout[ref.node] = fanout.get(ref.node, 0) + 1
    for _, ref in mig.outputs:
        fanout[ref.node] = fanout.get(ref.node, 0) + 1
    return {node: site for node in mig.live_nodes()
            if (site := _xor3_site(mig, mig.children_of(node), fanout))}


def xor3_passthrough(mig: Mig) -> Mig:
    """Pass-through selection for three-input XORs (a reshaping rewrite).

    ``x ^ y ^ z = M(!M(x,y,z), M(x,y,!z), z)`` is symmetric in its
    operands, yet ``z`` alone is read twice — by the inner majority and
    again, *after* both majorities have consumed it, by the outer one.
    A full adder hard-codes ``z = carry``, the one operand of a ripple
    chain that is never a leaf, so Step 2 must park every carry in a
    temporary row.  Wherever ``x`` or ``y`` is a leaf (a primary input
    or the constant: its home row is never destroyed) the XOR is
    re-expressed with that leaf as the pass-through; the shared carry
    ``M(x,y,z)`` is kept as it is, and the inner majority — which no
    other node may read — is replaced, so the live MAJ count cannot
    rise.  Returns ``mig`` itself when no site qualifies.
    """
    sites = xor3_sites(mig)
    if not sites:
        return mig
    out = rebuild(mig, sites)
    return out if out.n_nodes <= mig.n_nodes else mig


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
