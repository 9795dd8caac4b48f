"""The packed device-state layout (README "Device state layout").

Cells are stored eight lanes to a byte, ``(rows, banks, row_bytes)``;
the transposition unit moves whole operand blocks and the plan-based
engines compute on the bytes directly.  Pinned here:

* a bank's padding bits (``cols`` not a multiple of 8) stay zero under
  every engine, whatever a µProgram does — negated dual-contact ports
  and partial bank sets included;
* block transposition is accounted exactly like the row-by-row path it
  replaced (per-bank ``host_bits_*``, the PMU's ``transposition_bits``,
  spill/fill records), and still reaches a swapped subarray;
* a warm dispatch never packs or unpacks bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dram.bank import DramModule
from repro.dram.commands import CommandStats
from repro.dram.geometry import DramGeometry
from repro.dram.rows import data_row
from repro.dram.subarray import Subarray
from repro.exec.control_unit import ControlUnit
from repro.exec.layout import RowLayout
from repro.exec.memory import RowBlock
from repro.exec.transposition import TranspositionUnit
from repro.obs.pmu import get_pmu
from repro.uprog.program import MicroProgram, OperandSpec
from repro.uprog.uops import Space, UAap, UAp, URow
from repro.util.bitops import bits_to_ints, ints_to_bits, packed_ones

ENGINES = ("per_bank", "vectorized", "compiled")

#: B-group addresses by what they raise (``rows.B_ADDRESS_MAP``):
#: 4/5 are the negated dual-contact ports, 8/9 pair one with a T row.
SINGLES = range(8)
PAIRS = range(8, 12)
TRIPLES = range(12, 16)
N_ROWS = 4
LAYOUT = RowLayout({Space.INPUT0: 0, Space.INPUT1: N_ROWS,
                    Space.OUTPUT: 2 * N_ROWS, Space.TEMP: 3 * N_ROWS})


def random_program(rng: np.random.Generator, n_uops: int) -> MicroProgram:
    """A legal random command stream over every source and destination
    kind except a double-wordline *source* (whose cells would have to
    agree)."""
    def data(spaces):
        return URow(spaces[rng.integers(len(spaces))],
                    int(rng.integers(N_ROWS)))

    def source() -> URow:
        kind = rng.integers(4)
        if kind == 0:
            return data((Space.INPUT0, Space.INPUT1, Space.OUTPUT,
                         Space.TEMP))
        if kind == 1:
            return URow(Space.CTRL, int(rng.integers(2)))
        if kind == 2:
            return URow(Space.BGROUP, int(rng.choice(SINGLES)))
        return URow(Space.BGROUP, int(rng.choice(TRIPLES)))

    def destination() -> URow:
        kind = rng.integers(3)
        if kind == 0:
            return data((Space.OUTPUT, Space.TEMP))
        pool = SINGLES if kind == 1 else (*PAIRS, *TRIPLES)
        return URow(Space.BGROUP, int(rng.choice(pool)))

    uops = [UAp(URow(Space.BGROUP, int(rng.choice(TRIPLES))))
            if rng.integers(5) == 0 else UAap(source(), destination())
            for _ in range(n_uops)]
    return MicroProgram(
        op_name=f"random{rng.integers(1 << 30)}", backend="simdram",
        element_width=N_ROWS,
        inputs=[OperandSpec(Space.INPUT0, N_ROWS),
                OperandSpec(Space.INPUT1, N_ROWS)],
        output=OperandSpec(Space.OUTPUT, N_ROWS), uops=uops,
        n_temp_rows=N_ROWS)


class TestPaddingStaysZero:
    @pytest.mark.parametrize("n_banks", [1, 2, 3])
    @pytest.mark.parametrize("cols", [4, 12, 13])
    def test_random_replay_on_every_engine(self, cols, n_banks):
        geometry = DramGeometry.sim_small(cols=cols, data_rows=32, banks=3)
        padding = ~packed_ones(cols)
        assert padding.any()  # these geometries do have padding bits
        rng = np.random.default_rng([cols, n_banks])
        for _ in range(6):
            program = random_program(rng, 60)
            seed = int(rng.integers(1 << 30))
            states = []
            for engine in ENGINES:
                module = DramModule(geometry, seed=seed)
                ControlUnit().execute_on_module(
                    program, module, LAYOUT, n_banks=n_banks,
                    engine=engine)
                data, b_planes = module.vector_state()
                assert not (data & padding).any(), engine
                assert not (b_planes & padding).any(), engine
                states.append((data.copy(), b_planes.copy()))
            for data, b_planes in states[1:]:  # and they agree
                assert np.array_equal(data, states[0][0])
                assert np.array_equal(b_planes, states[0][1])

    def test_power_up_and_host_writes_keep_padding_zero(self):
        geometry = DramGeometry.sim_small(cols=12, data_rows=16, banks=2)
        module = DramModule(geometry, seed=3)
        module.write_striped(data_row(0), np.ones(module.lanes, bool))
        TranspositionUnit().host_to_vertical(
            module, RowBlock(1, 8), np.full(module.lanes, -1), 8)
        data, b_planes = module.vector_state()
        padding = ~packed_ones(12)
        assert data.any() and b_planes.any()
        assert not (data & padding).any()
        assert not (b_planes & padding).any()


class TestHostIoAccounting:
    """The block path counts what ``width`` striped row accesses did."""

    GEOMETRY = DramGeometry.sim_small(cols=12, data_rows=64, banks=3)
    WIDTH, BASE, N = 11, 7, 29

    def _observed(self, module):
        pmu = get_pmu().snapshot()["modules"][module.pmu_id]
        return ([(bank.stats.host_bits_written, bank.stats.host_bits_read)
                 for bank in module.banks], pmu["transposition_bits"])

    def test_equals_the_row_by_row_path(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << self.WIDTH, self.N)
        unit, block = TranspositionUnit(), RowBlock(self.BASE, self.WIDTH)

        fast = DramModule(self.GEOMETRY)
        fast_stats = CommandStats()
        unit.host_to_vertical(fast, block, values, self.WIDTH)
        unit.vertical_to_host(fast, block, self.N, self.WIDTH)
        spilled = unit.spill(fast, block, self.N, self.WIDTH,
                             stats=fast_stats)
        unit.fill(fast, block, spilled, self.WIDTH, stats=fast_stats)

        slow = DramModule(self.GEOMETRY)
        slow_stats = CommandStats()
        padded = np.zeros(slow.lanes, dtype=np.int64)
        padded[:self.N] = values

        def write():
            for i, row in enumerate(ints_to_bits(padded, self.WIDTH)):
                slow.write_striped(data_row(self.BASE + i), row)

        def read():
            return bits_to_ints(np.stack([
                slow.read_striped(data_row(self.BASE + i))
                for i in range(self.WIDTH)]))[:self.N]

        write()
        read()
        assert np.array_equal(read(), spilled)
        slow_stats.record_spill(self.N * self.WIDTH)
        write()
        slow_stats.record_fill(self.N * self.WIDTH)

        assert self._observed(fast) == self._observed(slow)
        assert fast_stats == slow_stats
        assert np.array_equal(fast.vector_state()[0],
                              slow.vector_state()[0])

    def test_swapped_subarray_still_receives_its_stripe(self):
        module = DramModule(self.GEOMETRY)
        swapped = module.banks[1].subarray = Subarray(self.GEOMETRY)
        values = np.arange(module.lanes) % (1 << self.WIDTH)
        unit, block = TranspositionUnit(), RowBlock(self.BASE, self.WIDTH)
        unit.host_to_vertical(module, block, values, self.WIDTH)
        cols = self.GEOMETRY.cols
        bits = ints_to_bits(values, self.WIDTH)
        for i in range(self.WIDTH):
            assert np.array_equal(
                swapped.peek(data_row(self.BASE + i)),
                bits[i, cols:2 * cols])
        assert swapped.stats.host_bits_written == self.WIDTH * cols
        # ... and is what a read sees for that bank afterwards.
        swapped.poke(data_row(self.BASE), np.zeros(cols, dtype=bool))
        values[cols:2 * cols] &= ~1
        assert np.array_equal(
            unit.vertical_to_host(module, block, module.lanes, self.WIDTH),
            values)


class TestNoPackStagePerDispatch:
    @pytest.mark.parametrize("engine", ["auto", "vectorized", "compiled"])
    def test_warm_dispatch_never_packs_or_unpacks(self, sim, engine,
                                                  monkeypatch):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, sim.module.lanes)
        b = rng.integers(0, 256, sim.module.lanes)
        assert np.array_equal(
            sim.map("mul", a, b, width=8, engine=engine), (a * b) % 256)
        calls = []
        dispatch = ControlUnit.execute_on_module

        def guarded(*args, **kwargs):
            with monkeypatch.context() as patch:
                for name in ("packbits", "unpackbits"):
                    patch.setattr(np, name,
                                  lambda *a, _n=name, **k: calls.append(_n))
                return dispatch(*args, **kwargs)

        monkeypatch.setattr(ControlUnit, "execute_on_module", guarded)
        misses = sim.control.plan_cache_misses
        assert np.array_equal(
            sim.map("mul", a, b, width=8, engine=engine), (a * b) % 256)
        assert sim.control.plan_cache_misses == misses  # it was warm
        assert calls == []
