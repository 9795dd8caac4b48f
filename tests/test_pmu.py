"""Tests for the device PMU (per-bank counters, utilization timeline,
kernel attribution and the ``repro_pmu_*`` registry export).

Every case runs over real small ``DramModule`` objects: the PMU reads
command counts, transposition bits and energy from the banks' own
``CommandStats`` at scrape, so there is no counter row to fake.  Unit
tests drive a private :class:`DevicePmu` where they feed its tallies by
hand (fake clock for the windowed timeline); the hook tests dispatch
through the control unit, ``Simdram`` and a cluster and read the
process-global PMU.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core import expr as E
from repro.core.framework import Simdram, SimdramConfig
from repro.dram.bank import DramModule
from repro.dram.commands import CommandStats
from repro.dram.energy import DramEnergy
from repro.dram.geometry import DramGeometry
from repro.dram.rows import data_row
from repro.dram.timing import DramTiming
from repro.exec.control_unit import ControlUnit
from repro.exec.layout import RowLayout
from repro.obs.metrics import MetricsRegistry
from repro.obs.pmu import DevicePmu, get_pmu
from repro.runtime import SimdramCluster
from repro.uprog.program import MicroProgram, OperandSpec
from repro.uprog.uops import Space, UAap, UAp, URow

#: One bank's commands for :func:`and_program`: 1 AP + 4 AAP.
AND_AP, AND_AAP = 1, 4
LAYOUT = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1, Space.OUTPUT: 2})
#: The PMU's reference timing (utilization is command time at it).
TIMING = DramTiming.ddr4_2400()


def bank_delta(n_ap: int = AND_AP, n_aap: int = AND_AAP) -> CommandStats:
    """One bank's commands, as the control unit hands them to
    ``record_dispatch``."""
    return CommandStats(n_ap=n_ap, n_aap=n_aap)


def and_program() -> MicroProgram:
    uops = [
        UAap(URow(Space.INPUT0, 0), URow(Space.BGROUP, 0)),
        UAap(URow(Space.INPUT1, 0), URow(Space.BGROUP, 1)),
        UAap(URow(Space.CTRL, 0), URow(Space.BGROUP, 2)),
        UAp(URow(Space.BGROUP, 12)),
        UAap(URow(Space.BGROUP, 0), URow(Space.OUTPUT, 0)),
    ]
    return MicroProgram(
        op_name="pmu_and", backend="simdram", element_width=1,
        inputs=[OperandSpec(Space.INPUT0, 1), OperandSpec(Space.INPUT1, 1)],
        output=OperandSpec(Space.OUTPUT, 1), uops=uops)


def small_module(banks: int = 2) -> DramModule:
    return DramModule(DramGeometry.sim_small(cols=32, data_rows=64,
                                             banks=banks))


def dispatch(module: DramModule, n_banks: "int | None" = None) -> None:
    ControlUnit().execute_on_module(and_program(), module, LAYOUT,
                                    n_banks=n_banks)


def module_row(module: DramModule) -> dict:
    return get_pmu().snapshot()["modules"][module.pmu_id]


class TestDevicePmuUnits:
    def test_register_module_ids_are_unique(self):
        pmu = DevicePmu()
        small, big = small_module(2), small_module(4)
        first = pmu.register_module(small)
        second = pmu.register_module(big)
        assert first != second
        snap = pmu.snapshot()["modules"]
        assert snap[first]["n_banks"] == 2
        assert snap[second]["lanes"] == big.lanes == 4 * 32

    def test_dispatch_applies_lockstep_delta_to_participants(self):
        module = small_module(4)
        module.write_striped(data_row(0), np.ones(module.lanes, dtype=bool))
        dispatch(module, n_banks=3)
        row = module_row(module)
        assert row["dispatches"] == 1
        timing, energy = DramTiming.ddr4_2400(), DramEnergy.ddr4()
        # Banks run in lockstep: the first 3 banks executed the same
        # stream, the 4th did not participate.
        for bank in row["banks"][:3]:
            assert bank["n_ap"] == AND_AP and bank["n_aap"] == AND_AAP
            assert bank["activations"] == AND_AP + 2 * AND_AAP
            assert bank["busy_ns"] == pytest.approx(
                AND_AP * timing.ap_ns + AND_AAP * timing.aap_ns)
        assert row["banks"][3]["activations"] == 0
        assert row["busy_ns"] == row["banks"][0]["busy_ns"]
        # Command energy at the reference model; the striped write's
        # host I/O is not device energy.
        stats = module.banks[0].stats
        assert stats.host_bits_written > 0
        assert row["energy_nj"] == pytest.approx(
            3 * stats.command_energy_nj(timing, module.geometry, energy))

    def test_duty_cycle_is_mean_participation(self):
        module = small_module(4)
        dispatch(module, n_banks=4)
        dispatch(module, n_banks=2)
        # (4 + 2) participating banks over 2 dispatches x 4 banks.
        assert module_row(module)["duty_cycle"] == pytest.approx(6 / 8)

    def test_kernel_attribution_accumulates(self):
        module = small_module(2)
        empty = {"dispatches": 0.0, "activations": 0.0}
        before = get_pmu().snapshot()["kernels"].get("pmu_and@1", empty)
        dispatch(module)
        dispatch(module)
        cell = get_pmu().snapshot()["kernels"]["pmu_and@1"]
        assert cell["dispatches"] - before["dispatches"] == 2
        assert cell["activations"] - before["activations"] == \
            2 * (AND_AP + 2 * AND_AAP) * 2

    def test_transposition_traffic_counted(self):
        module = small_module(2)
        module.write_striped(data_row(0), np.ones(module.lanes, dtype=bool))
        module.write_rows(1, module.read_rows(0, 2))
        module.read_striped(data_row(1))
        # 1 striped write + 2 block rows each way + 1 striped read.
        bits = module_row(module)["transposition_bits"]
        assert bits == 6 * module.lanes == sum(
            bank.stats.host_bits_read + bank.stats.host_bits_written
            for bank in module.banks)

    def test_unknown_module_is_ignored(self):
        pmu = DevicePmu()
        pmu.record_dispatch(999, 2, ("add", 8), bank_delta())
        snap = pmu.snapshot()
        assert snap["modules"] == {} and snap["kernels"] == {}

    def test_windowed_utilization(self, fake_clock):
        pmu = DevicePmu(window_s=1.0, n_windows=8)
        module = small_module(2)
        mid = pmu.register_module(module)
        # One bank's 5e6 AAPs (~0.39e9 busy ns) inside the current 1 s
        # window over a 4-window lookback: busy / 4e9 ns.
        pmu.record_dispatch(mid, 2, ("add", 8), bank_delta(0, 5_000_000))
        assert pmu.utilization(lookback=4)[mid] == pytest.approx(
            5_000_000 * TIMING.aap_ns / 4e9)
        # Ancient windows age out of the lookback.
        fake_clock(10.0)
        assert pmu.utilization(lookback=4)[mid] == 0.0

    def test_timeline_windows_are_bounded(self, fake_clock):
        pmu = DevicePmu(window_s=1.0, n_windows=3)
        module = small_module(1)
        mid = pmu.register_module(module)
        for _ in range(6):
            pmu.record_dispatch(mid, 1, ("add", 8), bank_delta())
            fake_clock(1.0)
        timeline = [e for e in pmu.timeline() if e["module"] == mid]
        assert len(timeline) == 3            # oldest windows evicted
        assert timeline == sorted(timeline, key=lambda e: e["t0"])

    def test_boundary_same_window_folds(self, fake_clock):
        pmu = DevicePmu(window_s=1.0)
        module = small_module(1)
        mid = pmu.register_module(module)
        pmu.record_dispatch(mid, 1, ("add", 8), bank_delta(1, 0))
        pmu.record_dispatch(mid, 1, ("add", 8), bank_delta(0, 2))
        (entry,) = [e for e in pmu.timeline() if e["module"] == mid]
        assert entry["busy_ns"] == pytest.approx(
            TIMING.ap_ns + 2 * TIMING.aap_ns)

    def test_samples_export_all_series(self):
        pmu = DevicePmu()
        module = small_module(2)
        mid = pmu.register_module(module)
        pmu.record_dispatch(mid, 2, ("add", 8), bank_delta())
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
        }
        kinds = {dict(s.labels).get("kind") for s in pmu.samples()
                 if s.name == "repro_pmu_commands_total"}
        assert kinds == {"ap", "aap"}
        kernels = {dict(s.labels)["kernel"] for s in pmu.samples()
                   if s.name == "repro_pmu_kernel_dispatches_total"}
        assert kernels == {"add@8"}

    def test_register_attaches_named_collector(self):
        registry = MetricsRegistry()
        pmu = DevicePmu()
        module = small_module(1)
        mid = pmu.register_module(module)
        pmu.record_dispatch(mid, 1, ("add", 8), bank_delta())
        pmu.register(registry)
        pmu.register(registry)   # named: replaces, does not stack
        text = registry.prometheus_text()
        assert text.count("# TYPE repro_pmu_dispatches_total") == 1
        assert f'repro_pmu_dispatches_total{{module="{mid}"}} 1' in text


class TestPmuHooks:
    """The real hook sites feed the process-global PMU."""

    def make_sim(self, trace: bool = False) -> Simdram:
        config = SimdramConfig(geometry=DramGeometry.sim_small(
            cols=32, data_rows=512, banks=2))
        return Simdram(config, trace=trace, seed=7)

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

    def test_module_map_feeds_timeline(self):
        sim = self.make_sim()
        sim.map("add", np.arange(8), np.arange(8), width=8)
        assert sim.module.pmu_id in {e["module"]
                                     for e in get_pmu().timeline()}

    def test_dropped_modules_leave_the_snapshot(self):
        gc.collect()
        baseline = len(get_pmu().snapshot()["modules"])
        for _ in range(50):
            sim = self.make_sim()
            sim.map("add", np.arange(4), np.arange(4), width=8)
        del sim
        gc.collect()
        assert len(get_pmu().snapshot()["modules"]) == baseline

    def test_rowclone_counts_in_banks_not_dispatches(self):
        sim = self.make_sim()
        a = sim.array(np.arange(20), width=8)
        before = module_row(sim.module)
        sim.copy(a)
        sim.fill(5, 20, 8)
        sim.shift_left(a, 1)
        row = module_row(sim.module)
        for pmu_bank, bank in zip(row["banks"], sim.module.banks):
            assert pmu_bank["n_aap"] == bank.stats.n_aap > 0
            assert pmu_bank["activations"] == bank.stats.n_activations
        # Three RowClone sequences of 8 AAPs each, every bank.
        assert row["banks"][0]["n_aap"] - before["banks"][0]["n_aap"] == 24
        assert row["energy_nj"] > before["energy_nj"]
        # No µProgram ran: RowClone is not a dispatch.
        assert row["dispatches"] == before["dispatches"]

    @staticmethod
    def _sequence(sim: Simdram, engine: str) -> dict:
        """One mixed ``run``/``map``/``run_multi`` sequence; returns the
        module row and the kernel-counter deltas it caused."""
        kernels_before = get_pmu().snapshot()["kernels"]
        rng = np.random.default_rng(11)
        x, y = rng.integers(0, 256, 40), rng.integers(0, 256, 40)
        a, b = sim.array(x, width=8), sim.array(y, width=8)
        sim.run("add", a, b, engine=engine)
        sim.map("mul", rng.integers(0, 256, 100),
                rng.integers(0, 256, 100), width=8, engine=engine)
        left, right = E.inp("a"), E.inp("b")
        sim.run_multi({"s": E.add(left, right), "m": E.max(left, right)},
                      {"a": a, "b": b}, width=8, engine=engine)
        snap = get_pmu().snapshot()
        kernels = {k: {f: v - kernels_before.get(k, {}).get(f, 0.0)
                       for f, v in cell.items()}
                   for k, cell in snap["kernels"].items()}
        return {"module": snap["modules"][sim.module.pmu_id],
                "kernels": {k: cell for k, cell in kernels.items()
                            if any(cell.values())}}

    def test_counters_identical_across_engines(self, fake_clock):
        # Frozen clock: every dispatch lands in one utilization window,
        # so the wall-clock utilization compares equal too.
        per_bank = self._sequence(self.make_sim(trace=True), "auto")
        compiled = self._sequence(self.make_sim(), "compiled")
        assert per_bank["module"]["dispatches"] > 0
        assert per_bank["kernels"]
        assert per_bank == compiled
