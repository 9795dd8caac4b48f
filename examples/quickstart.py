"""Quickstart: SIMD arithmetic inside simulated DRAM.

Creates a small SIMDRAM system, places two vectors into DRAM in vertical
layout (through the transposition unit), executes `add`, `mul` and `max`
µPrograms in the memory array, and reads results back — printing the
DRAM command counts and modeled latency/energy for each operation.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import DramGeometry, Simdram, SimdramConfig

def main() -> None:
    # 2 banks x 256 columns = 512 SIMD lanes; each column is one lane.
    config = SimdramConfig(
        geometry=DramGeometry.sim_small(cols=256, data_rows=512, banks=2))
    sim = Simdram(config, seed=1)

    rng = np.random.default_rng(0)
    a_host = rng.integers(0, 100, 500)
    b_host = rng.integers(0, 100, 500)

    # Host -> DRAM (vertical layout) through the transposition unit.
    a = sim.array(a_host, width=8)
    b = sim.array(b_host, width=8)

    print("operation | result check | AAP+AP cmds | latency | energy")
    print("-" * 64)
    for op, golden in (("add", (a_host + b_host) % 256),
                       ("mul", (a_host * b_host) % 256),
                       ("max", np.maximum(a_host, b_host))):
        out = sim.run(op, a, b)
        result = out.to_numpy()
        assert np.array_equal(result, golden), f"{op} mismatch!"
        program = sim.compile(op, 8).program
        print(f"{op:9s} | OK           | {program.n_aap:4d}+{program.n_ap:<4d}"
              f"    | {sim.last_latency_ns() / 1e3:6.1f}us"
              f" | {sim.last_energy_nj() / 1e3:6.2f}uJ")
        out.free()

    # The bbop instructions the "CPU" issued to the memory controller:
    print("\nbbop instructions issued:")
    for instr in sim.issued:
        print(f"  bbop_{instr.op}(dst=row {instr.dst}, "
              f"srcs=({instr.src0}, {instr.src1}), "
              f"n={instr.n_elements}, width={instr.element_width})")


if __name__ == "__main__":
    main()
