"""Unit tests for DRAM geometry, timing and energy models."""

import pytest

from repro.dram.commands import CommandStats
from repro.dram.energy import DramEnergy
from repro.dram.geometry import DramGeometry, N_BITWISE_ROWS, N_CONTROL_ROWS
from repro.dram.timing import DramTiming
from repro.errors import ConfigError, GeometryError


class TestGeometry:
    def test_paper_defaults(self):
        g = DramGeometry.paper()
        assert g.cols == 65536
        assert g.banks == 16
        assert g.row_bytes == 8192

    @pytest.mark.parametrize("cols, row_bytes", [
        (4, 1), (8, 1), (12, 2), (65536, 8192)])
    def test_row_bytes_rounds_up_to_whole_bytes(self, cols, row_bytes):
        """The stride of the packed cell state: a partial last byte
        still occupies one (it used to be ``cols // 8``, 0 for 4)."""
        assert DramGeometry(cols=cols).row_bytes == row_bytes

    def test_rows_include_reserved_groups(self):
        g = DramGeometry(data_rows=1014)
        assert g.rows_per_subarray == 1014 + N_BITWISE_ROWS + N_CONTROL_ROWS

    def test_lanes_scale_with_banks(self):
        g = DramGeometry.paper()
        assert g.lanes(1) == 65536
        assert g.lanes(16) == 65536 * 16
        assert g.lanes() == g.lanes(16)

    @pytest.mark.parametrize("n_banks", [0, 17, -1])
    def test_lanes_bank_bounds(self, n_banks):
        with pytest.raises(GeometryError):
            DramGeometry.paper().lanes(n_banks)

    @pytest.mark.parametrize("kwargs", [
        {"cols": 0}, {"data_rows": 0}, {"banks": 0},
        {"subarrays_per_bank": 0}, {"chips_per_rank": 0},
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(GeometryError):
            DramGeometry(**kwargs)

    def test_sim_small_is_small(self):
        g = DramGeometry.sim_small()
        assert g.cols < DramGeometry.paper().cols


class TestTiming:
    def test_ddr4_2400_derived_latencies(self):
        t = DramTiming.ddr4_2400()
        assert t.ap_ns == pytest.approx(t.t_ras_ns + t.t_rp_ns)
        assert t.aap_ns == pytest.approx(2 * t.t_ras_ns + t.t_rp_ns)
        assert t.aap_ns > t.ap_ns
        assert t.t_rc_ns == pytest.approx(45.32, abs=0.01)

    def test_io_rate(self):
        t = DramTiming.ddr4_2400()
        assert t.io_ns_per_byte() == pytest.approx(1 / 19.2)

    def test_invalid_timing_rejected(self):
        with pytest.raises(ConfigError):
            DramTiming(t_ras_ns=0)


class TestEnergy:
    def test_act_pre_energy_positive_and_small(self):
        e = DramEnergy.ddr4()
        per_chip = e.act_pre_nj_chip(DramTiming.ddr4_2400())
        assert 0.1 < per_chip < 5.0  # nJ, sanity band for DDR4

    def test_rank_energy_scales_with_chips(self):
        e = DramEnergy.ddr4()
        t = DramTiming.ddr4_2400()
        g8 = DramGeometry.paper()
        g4 = DramGeometry(chips_per_rank=4)
        assert e.act_pre_nj(t, g8) == pytest.approx(
            2 * e.act_pre_nj(t, g4))

    def test_extra_wordlines_cost_more(self):
        e = DramEnergy.ddr4()
        t = DramTiming.ddr4_2400()
        g = DramGeometry.paper()
        assert e.ap_nj(t, g, n_wordlines=3) > e.act_pre_nj(t, g, 1)

    def test_io_energy(self):
        assert DramEnergy.ddr4().io_nj(1000) == pytest.approx(7.0)

    def test_invalid_energy_rejected(self):
        with pytest.raises(ConfigError):
            DramEnergy(idd0_ma=10.0, idd3n_ma=42.0)


class TestCommandStats:
    def test_latency_accumulates(self):
        stats = CommandStats()
        stats.record_ap(3)
        stats.record_aap(1, 1)
        t = DramTiming.ddr4_2400()
        assert stats.latency_ns(t) == pytest.approx(t.ap_ns + t.aap_ns)
        assert stats.n_commands == 2
        assert stats.n_activations == 3

    def test_merge_and_scale(self):
        a = CommandStats(n_ap=1, n_aap=2, ap_wordlines=3,
                         aap_src_wordlines=2, aap_dst_wordlines=2)
        b = a.merged_with(a)
        assert b.n_ap == 2 and b.n_aap == 4
        c = a.scaled(3)
        assert c.n_ap == 3 and c.n_aap == 6

    def test_energy_includes_io(self):
        t = DramTiming.ddr4_2400()
        g = DramGeometry.paper()
        e = DramEnergy.ddr4()
        quiet = CommandStats(n_ap=1, ap_wordlines=3)
        noisy = CommandStats(n_ap=1, ap_wordlines=3, host_bits_read=8000)
        assert noisy.energy_nj(t, g, e) > quiet.energy_nj(t, g, e)

    def test_energy_matches_model_for_single_commands(self):
        t = DramTiming.ddr4_2400()
        g = DramGeometry.paper()
        e = DramEnergy.ddr4()
        ap = CommandStats()
        ap.record_ap(3)
        assert ap.energy_nj(t, g, e) == pytest.approx(e.ap_nj(t, g, 3))
        aap = CommandStats()
        aap.record_aap(1, 2)
        assert aap.energy_nj(t, g, e) == pytest.approx(
            e.aap_nj(t, g, 1, 2))
