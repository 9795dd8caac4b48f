"""Property tests for the SIMDRAM transposition unit.

The suite previously never exercised :class:`TranspositionUnit`
directly (it was covered only through `Simdram.array`/`map`).  These
properties pin both halves of the unit:

* functional: ``host_to_vertical`` then ``vertical_to_host`` is the
  identity for random unsigned and signed vectors, including odd
  element counts (partial lanes must zero-pad, not smear);
* specification: both directions agree bit for bit with
  ``util.bitops.ints_to_bits`` / ``bits_to_ints`` moved one row at a
  time through ``write_striped`` / ``read_striped``, for every width
  1-64 on geometries whose rows do and do not fill whole bytes;
* cost model: :meth:`TranspositionUnit.transpose_cost` is monotone in
  ``n_elements`` and in ``width`` (more bits can never be cheaper),
  byte-exact (``ceil(bits / 8)``) and zero-latency only for nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import Simdram, SimdramConfig
from repro.dram.bank import DramModule
from repro.dram.geometry import DramGeometry
from repro.dram.rows import data_row
from repro.errors import AddressError, OperationError
from repro.exec.memory import RowBlock
from repro.exec.transposition import TranspositionUnit
from repro.runtime.cluster import SimdramCluster
from repro.util import bitops
from repro.util.bitops import (
    TRANSPOSE_BIGINT_WORDS,
    bits_to_ints,
    ints_to_bits,
    mask_for_width,
    to_signed,
    transpose8x8,
)

MAX_WIDTH = 16


@pytest.fixture(scope="module")
def sim() -> Simdram:
    return Simdram(SimdramConfig(
        geometry=DramGeometry.sim_small(cols=32, data_rows=256,
                                        banks=2)), seed=7)


def round_trip(sim: Simdram, values: np.ndarray, width: int,
               signed: bool) -> np.ndarray:
    """One host->vertical->host pass through a scratch row block."""
    with sim._allocator.reserve(width) as block:
        sim.transposer.host_to_vertical(sim.module, block, values, width)
        return sim.transposer.vertical_to_host(
            sim.module, block, len(values), width, signed=signed)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), width=st.integers(1, MAX_WIDTH))
    def test_unsigned_identity(self, sim, data, width):
        n = data.draw(st.integers(1, sim.module.lanes))
        values = np.asarray(data.draw(st.lists(
            st.integers(0, (1 << width) - 1), min_size=n, max_size=n)))
        assert np.array_equal(round_trip(sim, values, width, False),
                              values)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), width=st.integers(2, MAX_WIDTH))
    def test_signed_identity(self, sim, data, width):
        n = data.draw(st.integers(1, sim.module.lanes))
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
        values = np.asarray(data.draw(st.lists(
            st.integers(low, high), min_size=n, max_size=n)))
        assert np.array_equal(round_trip(sim, values, width, True),
                              values)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), width=st.integers(1, MAX_WIDTH))
    def test_out_of_range_values_wrap_to_width(self, sim, data, width):
        """Values wider than ``width`` store their low ``width`` bits —
        the same two's-complement encoding the golden models use."""
        n = data.draw(st.integers(1, sim.module.lanes))
        values = np.asarray(data.draw(st.lists(
            st.integers(-(1 << 20), 1 << 20), min_size=n, max_size=n)))
        got = round_trip(sim, values, width, False)
        assert np.array_equal(got, values & mask_for_width(width))

    @pytest.mark.parametrize("n", [1, 3, 7, 31, 33, 63])
    def test_odd_element_counts(self, sim, n):
        """Partial lanes: only the first ``n`` columns carry data and
        reading back ``n`` elements returns exactly them."""
        rng = np.random.default_rng(n)
        values = rng.integers(0, 256, n)
        assert np.array_equal(round_trip(sim, values, 8, False), values)

    def test_partial_write_zero_pads_unused_lanes(self, sim):
        with sim._allocator.reserve(8) as block:
            sim.transposer.host_to_vertical(
                sim.module, block, np.full(3, 255), 8)
            full = sim.transposer.vertical_to_host(
                sim.module, block, sim.module.lanes, 8)
        assert np.array_equal(full[:3], [255, 255, 255])
        assert not full[3:].any()


GEOMETRIES = [DramGeometry.sim_small(cols=cols, data_rows=80, banks=banks)
              for cols in (4, 12, 32) for banks in (1, 2, 3)]


@pytest.mark.parametrize(
    "geometry", GEOMETRIES, ids=lambda g: f"{g.cols}x{g.banks}")
class TestAgainstSpecification:
    """The block transposes against the executable specification:
    ``ints_to_bits`` / ``bits_to_ints`` moved row by row."""

    BASE = 5

    @staticmethod
    def _values(rng, n):
        """Full-range int64 draws, so every width sees out-of-range
        (and negative) values that must wrap to the low bits."""
        values = rng.integers(-(1 << 63), (1 << 63) - 1, n,
                              endpoint=True)
        values[:3] = (-1, 0, 1)[:n]
        return values

    def test_host_to_vertical_matches_ints_to_bits(self, geometry):
        rng = np.random.default_rng([geometry.cols, geometry.banks])
        for width in range(1, 65):
            module = DramModule(geometry, seed=width)  # stale bits
            n = int(rng.integers(1, module.lanes + 1))  # odd, partial
            values = self._values(rng, n)
            TranspositionUnit().host_to_vertical(
                module, RowBlock(self.BASE, width), values, width)
            padded = np.zeros(module.lanes, dtype=np.int64)
            padded[:n] = values
            expected = ints_to_bits(padded, width)  # zero-pads the rest
            for i in range(width):
                assert np.array_equal(
                    module.read_striped(data_row(self.BASE + i)),
                    expected[i]), f"width {width}, row {i}"

    @pytest.mark.parametrize("signed", [False, True])
    def test_vertical_to_host_matches_bits_to_ints(self, geometry, signed):
        rng = np.random.default_rng([geometry.cols, geometry.banks])
        module = DramModule(geometry)
        for width in range(1, 65):
            bits = rng.integers(0, 2, (width, module.lanes)).astype(bool)
            for i in range(width):
                module.write_striped(data_row(self.BASE + i), bits[i])
            n = int(rng.integers(1, module.lanes + 1))
            got = TranspositionUnit().vertical_to_host(
                module, RowBlock(self.BASE, width), n, width,
                signed=signed)
            assert got.dtype == np.int64
            assert np.array_equal(
                got, bits_to_ints(bits, signed=signed)[:n]), \
                f"width {width}"

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 33, 63, 64])
    def test_round_trip_wraps_to_width(self, geometry, width):
        rng = np.random.default_rng(width)
        module = DramModule(geometry, seed=1)
        values = self._values(rng, module.lanes)
        unit, block = TranspositionUnit(), RowBlock(self.BASE, width)
        unit.host_to_vertical(module, block, values, width)
        assert np.array_equal(
            unit.vertical_to_host(module, block, module.lanes, width,
                                  signed=True),
            to_signed(values, width))

    def test_block_past_the_last_data_row_is_rejected(self, geometry):
        module = DramModule(geometry)
        block = RowBlock(geometry.data_rows - 4, 8)
        with pytest.raises(AddressError):
            TranspositionUnit().host_to_vertical(
                module, block, np.arange(2), 8)
        with pytest.raises(AddressError):
            TranspositionUnit().vertical_to_host(module, block, 2, 8)


class TestRoundTripErrors:
    def test_block_too_narrow(self, sim):
        with sim._allocator.reserve(4) as block:
            with pytest.raises(OperationError, match="need 8"):
                sim.transposer.host_to_vertical(
                    sim.module, block, np.zeros(4), 8)
            with pytest.raises(OperationError, match="need 8"):
                sim.transposer.vertical_to_host(sim.module, block, 4, 8)

    def test_too_many_elements(self, sim):
        lanes = sim.module.lanes
        with sim._allocator.reserve(8) as block:
            with pytest.raises(OperationError, match="exceed"):
                sim.transposer.host_to_vertical(
                    sim.module, block, np.zeros(lanes + 1), 8)
            with pytest.raises(OperationError, match="exceed"):
                sim.transposer.vertical_to_host(
                    sim.module, block, lanes + 1, 8)

    def test_non_1d_vector_rejected(self, sim):
        with sim._allocator.reserve(8) as block:
            with pytest.raises(OperationError, match="1-D"):
                sim.transposer.host_to_vertical(
                    sim.module, block, np.zeros((2, 2)), 8)

    @pytest.mark.parametrize("bad", [np.array([1.7, 2.9]),
                                     np.array(["1", "2"])],
                             ids=["float", "str"])
    def test_non_integer_vector_rejected_at_every_door(self, bad):
        """A float or string vector is neither truncated nor parsed:
        module ``map``, cluster ``map`` and ``Simdram.array`` name its
        dtype, and leave no rows or tracked objects behind."""
        config = SimdramConfig(geometry=DramGeometry.sim_small(
            cols=32, data_rows=64, banks=2))
        sim = Simdram(config)
        free_rows = sim._allocator.free_rows()
        with pytest.raises(OperationError, match=str(bad.dtype)):
            sim.map("add", bad, np.array([1, 1]))
        with pytest.raises(OperationError, match=str(bad.dtype)):
            sim.array(bad, 8)
        assert sim._allocator.free_rows() == free_rows
        assert not len(sim.tracker)
        with SimdramCluster(2, config=config) as cluster:
            with pytest.raises(OperationError, match=str(bad.dtype)):
                cluster.map("add", bad, np.array([1, 1]))
        # Integer and bool vectors are accepted as before.
        assert sim.map("add", np.array([True, False]),
                       np.array([1, 1], dtype=np.uint8)).tolist() == [2, 1]


#: Word counts on both sides of :data:`TRANSPOSE_BIGINT_WORDS`, and
#: ``bulk_map``'s 4 096 words per plane (16 banks x 2 048 columns).
STRATEGY_WORDS = (TRANSPOSE_BIGINT_WORDS - 1, TRANSPOSE_BIGINT_WORDS,
                  TRANSPOSE_BIGINT_WORDS + 1, 4096)


def _words_geometry(words: int) -> tuple[DramGeometry, int]:
    """A geometry and width whose block transposes ``words`` words at
    once (``planes x banks x row_bytes``), varying the shape by size."""
    width, banks = {TRANSPOSE_BIGINT_WORDS: (16, 2), 4096: (8, 16)}.get(
        words, (7, 1))
    planes = -(-width // 8)
    # A last byte only partly made of lanes, except at bulk size.
    cols = words // (planes * banks) * 8 - (3 if words != 4096 else 0)
    geometry = DramGeometry.sim_small(cols=cols, data_rows=24, banks=banks)
    assert planes * banks * geometry.row_bytes == words
    return geometry, width


@pytest.mark.parametrize("words", STRATEGY_WORDS)
class TestBothTransposeStrategies:
    """Blocks big enough to reach each of :func:`transpose8x8`'s two
    strategies, against the specification and against each other."""

    BASE = 3

    def test_block_matches_specification(self, words):
        geometry, width = _words_geometry(words)
        module = DramModule(geometry, seed=words)  # stale bits
        rng = np.random.default_rng(words)
        n = module.lanes - 5                       # partial lanes
        values = rng.integers(-(1 << 62), 1 << 62, n)
        unit, block = TranspositionUnit(), RowBlock(self.BASE, width)
        unit.host_to_vertical(module, block, values, width)
        padded = np.zeros(module.lanes, dtype=np.int64)
        padded[:n] = values
        expected = ints_to_bits(padded, width)
        for i in range(width):
            assert np.array_equal(
                module.read_striped(data_row(self.BASE + i)), expected[i])

        bits = rng.integers(0, 2, (width, module.lanes)).astype(bool)
        for i in range(width):
            module.write_striped(data_row(self.BASE + i), bits[i])
        assert np.array_equal(
            unit.vertical_to_host(module, block, n, width, signed=True),
            bits_to_ints(bits, signed=True)[:n])

    def test_strategies_agree(self, words, monkeypatch):
        """Forced to one strategy and then the other, the transpose is
        the same, and both equal an 8x8 bit transpose of each word."""
        rng = np.random.default_rng(words)
        source = rng.integers(0, 1 << 64, words, dtype=np.uint64,
                              endpoint=False)
        bits = np.unpackbits(source.view(np.uint8).reshape(-1, 8, 1),
                             axis=2, bitorder="little")
        expected = np.packbits(bits.transpose(0, 2, 1), axis=2,
                               bitorder="little").reshape(-1).view("<u8")
        results = []
        for threshold in (words, words - 1):   # one int, then numpy
            monkeypatch.setattr(bitops, "TRANSPOSE_BIGINT_WORDS", threshold)
            result = source.copy()
            transpose8x8(result)
            results.append(result)
        assert np.array_equal(results[0], expected)
        assert np.array_equal(results[1], expected)


class TestCostModel:
    @settings(max_examples=80, deadline=None)
    @given(n1=st.integers(0, 4096), n2=st.integers(0, 4096),
           w1=st.integers(1, 64), w2=st.integers(1, 64))
    def test_monotone_in_elements_and_width(self, n1, n2, w1, w2):
        """More elements or wider elements can never cost less."""
        unit = TranspositionUnit()
        if n1 > n2:
            n1, n2 = n2, n1
        if w1 > w2:
            w1, w2 = w2, w1
        small = unit.transpose_cost(n1, w1)
        large = unit.transpose_cost(n2, w2)
        assert large.bytes_moved >= small.bytes_moved
        assert large.latency_ns >= small.latency_ns
        assert large.energy_nj >= small.energy_nj

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 4096), width=st.integers(1, 64))
    def test_cost_is_channel_streaming(self, n, width):
        """The unit streams bits once: ceil(bits/8) bytes at channel
        bandwidth, energy linear in bits (paper §4)."""
        unit = TranspositionUnit()
        cost = unit.transpose_cost(n, width)
        bits = n * width
        assert cost.bytes_moved == (bits + 7) // 8
        assert cost.latency_ns == pytest.approx(
            cost.bytes_moved * unit.timing.io_ns_per_byte())
        assert cost.energy_nj == pytest.approx(unit.energy.io_nj(bits))
        assert cost.latency_ns > 0 and cost.energy_nj > 0

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 2048), width=st.integers(1, 32))
    def test_strictly_increasing_across_byte_boundary(self, n, width):
        """Doubling the element count strictly increases energy (linear
        in bits) and, once a whole extra byte is added, bytes/latency."""
        unit = TranspositionUnit()
        small = unit.transpose_cost(n, width)
        large = unit.transpose_cost(2 * n, width)
        assert large.energy_nj > small.energy_nj
        if n * width >= 8:  # doubling adds at least one full byte
            assert large.bytes_moved > small.bytes_moved
            assert large.latency_ns > small.latency_ns


class TestFrameworkIntegration:
    def test_array_round_trip_uses_unit(self, sim):
        """`Simdram.array` + `to_numpy` is the same round trip, with the
        host I/O accounted on the module."""
        rng = np.random.default_rng(3)
        values = rng.integers(-128, 128, 17)
        before = sim.module.total_stats()
        handle = sim.array(values, 8, signed=True)
        got = handle.to_numpy()
        after = sim.module.total_stats()
        handle.free()
        assert np.array_equal(got, values)
        assert after.host_bits_written > before.host_bits_written
        assert after.host_bits_read > before.host_bits_read
