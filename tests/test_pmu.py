"""Tests for the device PMU (per-bank counters, utilization timeline,
tenant/kernel attribution and the ``repro_pmu_*`` registry export).

Unit tests drive a private :class:`DevicePmu` directly (fake clock for
the windowed timeline); the integration tests run a real
:class:`Simdram` end to end and assert the hook sites in
``dram/bank.py``, ``exec/control_unit.py`` and ``runtime/cluster.py``
feed the process-global PMU with internally-consistent numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import Simdram, SimdramConfig
from repro.dram.commands import CommandStats
from repro.dram.geometry import DramGeometry
from repro.obs.metrics import MetricsRegistry
from repro.obs.pmu import DevicePmu, get_pmu
from repro.runtime import SimdramCluster


def one_dispatch_delta() -> CommandStats:
    delta = CommandStats()
    delta.record_ap(3)
    delta.record_aap(2, 1)
    delta.record_aap(1, 1)
    return delta


class TestDevicePmuUnits:
    def test_register_module_ids_are_unique(self):
        pmu = DevicePmu()
        first = pmu.register_module(2, 32)
        second = pmu.register_module(4, 64)
        assert first != second
        snap = pmu.snapshot()["modules"]
        assert snap[first]["n_banks"] == 2
        assert snap[second]["lanes"] == 64

    def test_dispatch_applies_lockstep_delta_to_participants(self):
        pmu = DevicePmu()
        mid = pmu.register_module(4, 32)
        pmu.record_dispatch(mid, 3, one_dispatch_delta(),
                            kernel="add@8", latency_ns=50.0,
                            energy_nj=7.0)
        row = pmu.snapshot()["modules"][mid]
        assert row["dispatches"] == 1
        assert row["energy_nj"] == 7.0
        # Banks run in lockstep: the first 3 banks get the same delta,
        # the 4th did not participate.
        for bank in row["banks"][:3]:
            assert bank["n_ap"] == 1 and bank["n_aap"] == 2
            assert bank["activations"] == 1 + 2 * 2
            assert bank["busy_ns"] == 50.0
        assert row["banks"][3]["activations"] == 0

    def test_duty_cycle_is_mean_participation(self):
        pmu = DevicePmu()
        mid = pmu.register_module(4, 32)
        delta = one_dispatch_delta()
        pmu.record_dispatch(mid, 4, delta)
        pmu.record_dispatch(mid, 2, delta)
        # (4 + 2) participating banks over 2 dispatches x 4 banks.
        assert pmu.snapshot()["modules"][mid]["duty_cycle"] == \
            pytest.approx(6 / 8)

    def test_kernel_attribution_accumulates(self):
        pmu = DevicePmu()
        mid = pmu.register_module(2, 32)
        delta = one_dispatch_delta()
        pmu.record_dispatch(mid, 2, delta, kernel="add@8")
        pmu.record_dispatch(mid, 2, delta, kernel="add@8")
        cell = pmu.snapshot()["kernels"]["add@8"]
        assert cell["dispatches"] == 2
        assert cell["activations"] == 2 * delta.n_activations * 2

    def test_transposition_traffic_counted(self):
        pmu = DevicePmu()
        mid = pmu.register_module(2, 32)
        pmu.record_transposition(mid, 256)
        pmu.record_transposition(mid, 128)
        assert pmu.snapshot()["modules"][mid]["transposition_bits"] == 384

    def test_unknown_module_is_ignored(self):
        pmu = DevicePmu()
        pmu.record_dispatch(999, 2, one_dispatch_delta())
        pmu.record_transposition(999, 64)
        pmu.record_boundary(999, 100.0)
        assert pmu.snapshot()["modules"] == {}

    def test_windowed_utilization(self, fake_clock):
        pmu = DevicePmu(window_s=1.0, n_windows=8)
        mid = pmu.register_module(2, 32)
        # 0.5e9 busy ns inside the current 1 s window over a 4-window
        # lookback = 12.5% utilization.
        pmu.record_boundary(mid, 0.5e9)
        assert pmu.utilization(lookback=4)[mid] == pytest.approx(0.125)
        # Ancient windows age out of the lookback.
        fake_clock(10.0)
        assert pmu.utilization(lookback=4)[mid] == 0.0

    def test_timeline_windows_are_bounded(self, fake_clock):
        pmu = DevicePmu(window_s=1.0, n_windows=3)
        mid = pmu.register_module(1, 8)
        for _ in range(6):
            pmu.record_boundary(mid, 1000.0)
            fake_clock(1.0)
        timeline = [e for e in pmu.timeline() if e["module"] == mid]
        assert len(timeline) == 3            # oldest windows evicted
        assert timeline == sorted(timeline, key=lambda e: e["t0"])

    def test_boundary_same_window_folds(self, fake_clock):
        pmu = DevicePmu(window_s=1.0)
        mid = pmu.register_module(1, 8)
        pmu.record_boundary(mid, 100.0)
        pmu.record_boundary(mid, 150.0)
        (entry,) = [e for e in pmu.timeline() if e["module"] == mid]
        assert entry["busy_ns"] == 250.0

    def test_tenant_attribution(self):
        pmu = DevicePmu()
        pmu.attribute("alpha", "add", lanes=32, energy_nj=5.0)
        pmu.attribute("alpha", "add", lanes=16)
        cell = pmu.snapshot()["tenants"]["alpha/add"]
        assert cell == {"requests": 2.0, "lanes": 48.0, "energy_nj": 5.0}

    def test_samples_export_all_series(self):
        pmu = DevicePmu()
        mid = pmu.register_module(2, 32)
        pmu.record_dispatch(mid, 2, one_dispatch_delta(),
                            kernel="add@8", energy_nj=3.0)
        pmu.attribute("alpha", "add", lanes=8)
        names = {s.name for s in pmu.samples()}
        assert names == {
            "repro_pmu_dispatches_total",
            "repro_pmu_transposition_bits_total",
            "repro_pmu_energy_nj_total",
            "repro_pmu_lane_duty_cycle",
            "repro_pmu_window_utilization",
            "repro_pmu_row_activations_total",
            "repro_pmu_commands_total",
            "repro_pmu_kernel_dispatches_total",
            "repro_pmu_kernel_activations_total",
            "repro_pmu_tenant_requests_total",
            "repro_pmu_tenant_lanes_total",
            "repro_pmu_tenant_energy_nj_total",
        }
        kinds = {dict(s.labels).get("kind") for s in pmu.samples()
                 if s.name == "repro_pmu_commands_total"}
        assert kinds == {"ap", "aap"}

    def test_register_attaches_named_collector(self):
        registry = MetricsRegistry()
        pmu = DevicePmu()
        mid = pmu.register_module(1, 8)
        pmu.record_dispatch(mid, 1, one_dispatch_delta())
        pmu.register(registry)
        pmu.register(registry)   # named: replaces, does not stack
        text = registry.prometheus_text()
        assert text.count("# TYPE repro_pmu_dispatches_total") == 1
        assert f'repro_pmu_dispatches_total{{module="{mid}"}} 1' in text

    def test_reset_zeroes_but_keeps_registrations(self):
        pmu = DevicePmu()
        mid = pmu.register_module(2, 32)
        pmu.record_dispatch(mid, 2, one_dispatch_delta(), kernel="k")
        pmu.attribute("t", "k")
        pmu.reset()
        snap = pmu.snapshot()
        assert snap["modules"][mid]["dispatches"] == 0
        assert snap["modules"][mid]["banks"][0]["n_ap"] == 0
        assert snap["kernels"] == {} and snap["tenants"] == {}


class TestPmuHooks:
    """The real hook sites feed the process-global PMU."""

    def make_sim(self) -> Simdram:
        config = SimdramConfig(geometry=DramGeometry.sim_small(
            cols=32, data_rows=512, banks=2))
        return Simdram(config, seed=7)

    def test_end_to_end_run_is_internally_consistent(self):
        sim = self.make_sim()
        pmu_id = sim.module.pmu_id
        before = get_pmu().snapshot()["modules"][pmu_id]
        a = sim.array(np.arange(16), width=8)
        b = sim.array(np.arange(16) * 3, width=8)
        out = sim.run("add", a, b)
        assert np.array_equal(sim.read(out), (np.arange(16) * 4) & 0xFF)
        after = get_pmu().snapshot()["modules"][pmu_id]

        assert after["dispatches"] > before["dispatches"]
        # Transposition port saw the operand writes and the result read.
        assert after["transposition_bits"] > before["transposition_bits"]
        bank0 = after["banks"][0]
        # One AAP activates two rows, an AP one: the activation count
        # must be consistent with the recorded command mix.
        d_ap = bank0["n_ap"] - before["banks"][0]["n_ap"]
        d_aap = bank0["n_aap"] - before["banks"][0]["n_aap"]
        d_act = (bank0["activations"]
                 - before["banks"][0]["activations"])
        assert d_act == d_ap + 2 * d_aap > 0
        # Lockstep: both banks advanced identically.
        assert after["banks"][0] == after["banks"][1]

    def test_kernel_identity_recorded(self):
        sim = self.make_sim()
        kernels_before = dict(get_pmu().snapshot()["kernels"])
        a = sim.array(np.arange(8), width=8)
        b = sim.array(np.arange(8), width=8)
        sim.run("min", a, b)
        cell = get_pmu().snapshot()["kernels"]["min@8"]
        before = kernels_before.get("min@8", {"dispatches": 0})
        assert cell["dispatches"] == before["dispatches"] + 1

    def test_cluster_boundary_feeds_timeline(self):
        config = SimdramConfig(geometry=DramGeometry.sim_small(
            cols=32, data_rows=256, banks=2))
        with SimdramCluster(2, config=config) as cluster:
            pmu_ids = [sim.module.pmu_id for sim in cluster.modules]
            n = cluster.lanes
            a = np.arange(n) % 17
            b = np.arange(n) % 11
            out = cluster.run("add", cluster.tensor(a, 8),
                              cluster.tensor(b, 8))
            np.testing.assert_array_equal(out.to_numpy(), (a + b) & 0xFF)
            timeline_modules = {e["module"] for e in get_pmu().timeline()}
            assert set(pmu_ids) <= timeline_modules
