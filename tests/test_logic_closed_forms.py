"""Step 1's size, pinned as closed forms in the element width.

The ledger's ``bound`` column is computed from the MIG Step 1 produced,
so it measures Step 2 against *that* MIG and cannot see a MIG that is
itself too big.  This table is the instrument for Step 1: the live MAJ
count of each paper operation (one triple-row activation each, on every
dispatch) as a formula in ``n``.  A generator that gets bigger fails
here by name; one that gets smaller updates its row on purpose.
"""

import pytest

from repro.core.operations import PAPER_OPERATIONS, get_operation
from repro.logic.mig import Mig
from repro.logic.optimize import optimize, xor3_passthrough

#: Operation -> live MAJ nodes of its optimized MIG at ``n`` bits.
N_MAJ = {
    "abs": lambda n: 4 * n - 6,        # flip chain n-2, n-2 XORs, 2 ANDs
    "add": lambda n: 3 * n,            # one full adder per bit
    "sub": lambda n: 3 * n,
    "mul": lambda n: 2 * n * n - n,    # n(n+1)/2 ANDs + n(n-1)/2 adders
    "div": lambda n: 3 * n * n - 3,    # step k: k+1 subtract/restore bits
    "eq": lambda n: 2 * n + 1,         # two borrow chains and a NOR
    "gt": lambda n: n,                 # one borrow chain
    "ge": lambda n: n,
    "max": lambda n: 4 * n,            # the chain + a 3-MAJ mux per bit
    "min": lambda n: 4 * n,
    "if_else": lambda n: 3 * n,
    "relu": lambda n: n - 1,           # the sign bit itself is constant 0
    "bitcount": lambda n: 3 * n - 3,   # n - 1 adders of a counter tree
    "and_red": lambda n: n - 1,
    "or_red": lambda n: n - 1,
    "xor_red": lambda n: 3 * n // 2,   # n/2 - 1 XOR3s and one XOR2
}


def test_table_covers_the_paper_operations():
    assert sorted(N_MAJ) == sorted(PAPER_OPERATIONS)


@pytest.mark.parametrize("width", (4, 8, 16, 32))
@pytest.mark.parametrize("op_name", PAPER_OPERATIONS)
def test_n_maj_closed_form(op_name, width):
    circuit = get_operation(op_name).build_circuit(width, "maj")
    mig = xor3_passthrough(optimize(Mig.from_circuit(circuit))[0])
    assert mig.n_nodes == N_MAJ[op_name](width)
