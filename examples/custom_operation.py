"""Defining a brand-new SIMDRAM operation (the paper's flexibility claim).

SIMDRAM's framework is not limited to its built-in 16 operations: any
combinational function can be registered as a circuit factory, and the
framework synthesizes the MAJ/NOT implementation (Step 1), compiles the
µProgram (Step 2), assigns a bbop opcode, and executes it (Step 3) with
no hardware change.

Here we add `clamp_add`: saturating unsigned addition, useful for image
processing (it fuses the add + compare + select of brightness adjustment
into ONE µProgram, halving command counts).

Run:  python examples/custom_operation.py
"""

import numpy as np

from repro import DramGeometry, Simdram, SimdramConfig
from repro.logic import library


def build_clamp_add(circuit, operands, style):
    """Saturating add: min(a + b, 2^n - 1), built from library pieces."""
    a, b = operands
    total, carry = library.ripple_add(circuit, a, b, style=style)
    # On carry-out, force all result bits to 1 (saturate).
    return [circuit.or_(bit, carry) for bit in total]


def golden_clamp_add(inputs, width):
    return np.minimum(inputs[0] + inputs[1], (1 << width) - 1)


def main() -> None:
    config = SimdramConfig(
        geometry=DramGeometry.sim_small(cols=128, data_rows=512, banks=2))
    sim = Simdram(config, seed=2)

    spec = sim.register_operation(
        "clamp_add", arity=2, build=build_clamp_add,
        golden=golden_clamp_add,
        description="saturating unsigned addition")
    print(f"registered operation {spec.name!r} "
          f"({len(sim.operations)} ops now in the catalog)")

    rng = np.random.default_rng(1)
    a_host = rng.integers(0, 256, 200)
    b_host = rng.integers(0, 256, 200)
    a = sim.array(a_host, width=8)
    b = sim.array(b_host, width=8)
    out = sim.run("clamp_add", a, b)
    assert np.array_equal(out.to_numpy(), golden_clamp_add(
        [a_host, b_host], 8))
    print("clamp_add(200 elements): results match the golden model")

    program = sim.compile("clamp_add", 8).program
    print(f"\ncompiled µProgram: {program.n_aap} AAPs + {program.n_ap} APs, "
          f"{program.n_temp_rows} temp rows")
    print("first µOps of the generated program:")
    print(program.listing(max_ops=10))

    # The fused op beats the 3-op sequence it replaces:
    three_op = sum(sim.compile(op, 8).program.n_commands
                   for op in ("add", "gt", "if_else"))
    print(f"\nfused: {program.n_commands} commands vs "
          f"{three_op} for separate add+gt+if_else")


if __name__ == "__main__":
    main()
