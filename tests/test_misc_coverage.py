"""Additional coverage: command traces, serialization errors, wide-width
compilation, and cross-layer consistency checks."""

import json

import numpy as np
import pytest

from repro.core.compiler import compile_cached
from repro.dram.commands import CommandTrace, TraceEntry
from repro.dram.geometry import DramGeometry
from repro.dram.rows import b_row, ctrl_row, data_row
from repro.dram.subarray import Subarray
from repro.dram.timing import DramTiming
from repro.errors import SchedulingError
from repro.uprog.program import MicroProgram


class TestCommandTrace:
    def test_trace_records_commands(self):
        sa = Subarray(DramGeometry.sim_small(cols=8, data_rows=4),
                      trace=True)
        sa.aap(ctrl_row(1), data_row(0))
        sa.aap(data_row(0), b_row(0))
        sa.aap(ctrl_row(1), b_row(1))
        sa.aap(ctrl_row(0), b_row(2))
        sa.ap(b_row(12))
        assert len(sa.trace) == 5
        kinds = [entry.kind for entry in sa.trace]
        assert kinds == ["AAP", "AAP", "AAP", "AAP", "AP"]

    def test_trace_str_readable(self):
        entry = TraceEntry("AAP", ctrl_row(0), data_row(3))
        assert str(entry) == "AAP(C0 -> D3)"
        assert str(TraceEntry("AP", b_row(12))) == "AP(B12(T0+T1+T2))"

    def test_trace_clear(self):
        trace = CommandTrace()
        trace.record(TraceEntry("AP", b_row(12)))
        trace.clear()
        assert len(trace) == 0

    def test_trace_off_by_default(self):
        sa = Subarray(DramGeometry.sim_small(cols=8, data_rows=4))
        assert sa.trace is None


class TestSerializationRobustness:
    def test_json_roundtrip_through_text(self):
        program = compile_cached("gt", 8)
        text = json.dumps(program.to_dict())
        clone = MicroProgram.from_dict(json.loads(text))
        assert clone.uops == program.uops
        assert clone.stats().n_aap == program.stats().n_aap

    def test_unknown_uop_kind_rejected(self):
        data = compile_cached("gt", 4).to_dict()
        data["uops"][0] = ["ZAP", ["ctl", 0]]
        with pytest.raises(SchedulingError):
            MicroProgram.from_dict(data)

    def test_installed_program_survives_reinstall_from_json(self):
        from repro.exec.control_unit import ControlUnit
        cu = ControlUnit()
        program = compile_cached("eq", 8)
        restored = MicroProgram.from_dict(program.to_dict())
        key = cu.install(restored)
        assert cu.lookup(key).n_commands == program.n_commands


class TestWideWidths:
    @pytest.mark.parametrize("op_name", ("add", "gt", "relu"))
    def test_width_32_compiles_and_scales(self, op_name):
        narrow = compile_cached(op_name, 8)
        wide = compile_cached(op_name, 32)
        assert wide.element_width == 32
        # Linear-cost ops grow roughly 4x from 8 to 32 bits.
        ratio = wide.n_commands / narrow.n_commands
        assert 2.0 < ratio < 6.0

    def test_mul_grows_quadratically(self):
        mul8 = compile_cached("mul", 8)
        mul16 = compile_cached("mul", 16)
        ratio = mul16.n_commands / mul8.n_commands
        assert 3.0 < ratio < 5.0  # ~4x for 2x the width

    def test_width_1_degenerate_ops(self):
        program = compile_cached("and_red", 1)
        assert program.output.width == 1
        assert program.n_commands >= 1


class TestCrossLayerConsistency:
    def test_program_latency_equals_stats_latency(self):
        timing = DramTiming.ddr4_2400()
        program = compile_cached("max", 8)
        assert program.latency_ns(timing) == pytest.approx(
            program.stats().latency_ns(timing))

    def test_executed_stats_match_static_stats(self, sim):
        """The simulator must issue exactly the commands the µProgram
        declares (per bank)."""
        a = sim.array(np.arange(10), 8)
        b = sim.array(np.arange(10), 8)
        sim.run("sub", a, b)
        program = sim.compile("sub", 8).program
        banks = sim.config.geometry.banks
        assert sim.last_stats.n_aap == program.n_aap * banks
        assert sim.last_stats.n_ap == program.n_ap * banks

    def test_tra_count_at_most_ap_plus_aap(self):
        from repro.reliability.variation import count_tras
        program = compile_cached("min", 8)
        assert count_tras(program) <= program.n_commands

    def test_temp_rows_fit_small_subarray(self):
        """Every catalog op at 8 bits fits the paper's subarray."""
        from repro.core.operations import CATALOG
        geometry = DramGeometry.paper()
        for name in CATALOG:
            program = compile_cached(name, 8)
            assert program.rows_touched() <= geometry.data_rows, name
