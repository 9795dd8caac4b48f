"""Tests for the Step-2 scheduler: MIG -> AAP/AP command streams.

Every scheduled program is validated by executing it on the bit-accurate
subarray with *randomized* initial contents, so any reliance on stale
state or mis-sequenced commands shows up as a wrong result.
"""

import numpy as np
import pytest

from repro.dram.geometry import DramGeometry
from repro.dram.rows import data_row
from repro.dram.subarray import Subarray
from repro.errors import SchedulingError
from repro.exec.control_unit import ControlUnit
from repro.exec.layout import RowLayout
from repro.logic.mig import Mig
from repro.uprog.program import OperandSpec
from repro.uprog.scheduler import ScheduleOptions, schedule
from repro.uprog.uops import Space, UAap, URow


def run_mig(mig, n_in0, n_in1, n_out, inputs0, inputs1,
            options=None, seed=0):
    """Schedule ``mig`` and execute it on a randomized subarray."""
    input_rows = {f"a{i}": URow(Space.INPUT0, i) for i in range(n_in0)}
    input_rows |= {f"b{i}": URow(Space.INPUT1, i) for i in range(n_in1)}
    output_rows = {f"y{i}": URow(Space.OUTPUT, i) for i in range(n_out)}
    input_specs = [OperandSpec(Space.INPUT0, n_in0)]
    if n_in1:
        input_specs.append(OperandSpec(Space.INPUT1, n_in1))
    program = schedule(
        mig, op_name="test", backend="simdram", element_width=max(n_in0, 1),
        input_specs=input_specs,
        output_spec=OperandSpec(Space.OUTPUT, n_out),
        input_rows=input_rows, output_rows=output_rows, options=options)

    cols = len(inputs0[0]) if n_in0 else 8
    geometry = DramGeometry.sim_small(
        cols=cols, data_rows=n_in0 + n_in1 + n_out + program.n_temp_rows + 4)
    subarray = Subarray(geometry, rng=np.random.default_rng(seed))
    layout = RowLayout({
        Space.INPUT0: 0,
        Space.INPUT1: n_in0,
        Space.OUTPUT: n_in0 + n_in1,
        Space.TEMP: n_in0 + n_in1 + n_out,
    })
    for i, bits in enumerate(inputs0):
        subarray.write_row(data_row(i), np.asarray(bits, dtype=bool))
    for i, bits in enumerate(inputs1):
        subarray.write_row(data_row(n_in0 + i), np.asarray(bits, dtype=bool))
    ControlUnit().execute(program, subarray, layout)
    outputs = [subarray.peek(data_row(n_in0 + n_in1 + i))
               for i in range(n_out)]
    return program, outputs


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestBasicNodes:
    def test_single_and(self, rng):
        m = Mig()
        a, b = m.input("a0"), m.input("b0")
        m.set_output("y0", m.and_(a, b))
        av, bv = rng.integers(0, 2, 16).astype(bool), \
            rng.integers(0, 2, 16).astype(bool)
        _, (out,) = run_mig(m, 1, 1, 1, [av], [bv])
        assert np.array_equal(out, av & bv)

    def test_single_or_and_xor(self, rng):
        m = Mig()
        a, b = m.input("a0"), m.input("b0")
        m.set_output("y0", m.or_(a, b))
        m.set_output("y1", m.xor(a, b))
        av, bv = rng.integers(0, 2, 16).astype(bool), \
            rng.integers(0, 2, 16).astype(bool)
        _, (out_or, out_xor) = run_mig(m, 1, 1, 2, [av], [bv])
        assert np.array_equal(out_or, av | bv)
        assert np.array_equal(out_xor, av ^ bv)

    def test_negated_output(self, rng):
        m = Mig()
        a, b = m.input("a0"), m.input("b0")
        m.set_output("y0", ~m.and_(a, b))  # NAND
        av, bv = rng.integers(0, 2, 16).astype(bool), \
            rng.integers(0, 2, 16).astype(bool)
        _, (out,) = run_mig(m, 1, 1, 1, [av], [bv])
        assert np.array_equal(out, ~(av & bv))

    def test_passthrough_output(self, rng):
        m = Mig()
        a = m.input("a0")
        m.input("b0")  # declared but unused
        m.set_output("y0", a)
        av = rng.integers(0, 2, 16).astype(bool)
        bv = rng.integers(0, 2, 16).astype(bool)
        _, (out,) = run_mig(m, 1, 1, 1, [av], [bv])
        assert np.array_equal(out, av)

    def test_negated_input_passthrough(self, rng):
        m = Mig()
        a = m.input("a0")
        m.input("b0")
        m.set_output("y0", ~a)  # NOT via DCC round trip
        av = rng.integers(0, 2, 16).astype(bool)
        bv = rng.integers(0, 2, 16).astype(bool)
        _, (out,) = run_mig(m, 1, 1, 1, [av], [bv])
        assert np.array_equal(out, ~av)

    def test_constant_outputs(self, rng):
        m = Mig()
        m.input("a0")
        m.input("b0")
        m.set_output("y0", m.const0)
        m.set_output("y1", m.const1)
        av = rng.integers(0, 2, 16).astype(bool)
        bv = rng.integers(0, 2, 16).astype(bool)
        _, (zero, one) = run_mig(m, 1, 1, 2, [av], [bv])
        assert not zero.any()
        assert one.all()

    def test_same_node_feeds_two_outputs(self, rng):
        m = Mig()
        a, b = m.input("a0"), m.input("b0")
        node = m.and_(a, b)
        m.set_output("y0", node)
        m.set_output("y1", ~node)
        av, bv = rng.integers(0, 2, 16).astype(bool), \
            rng.integers(0, 2, 16).astype(bool)
        _, (pos, neg) = run_mig(m, 1, 1, 2, [av], [bv])
        assert np.array_equal(pos, av & bv)
        assert np.array_equal(neg, ~(av & bv))


class TestDeepGraphs:
    @pytest.mark.parametrize("reuse", [True, False])
    def test_xor_tree(self, rng, reuse):
        n = 8
        m = Mig()
        refs = [m.input(f"a{i}") for i in range(n)]
        m.input("b0")
        acc = refs[0]
        for ref in refs[1:]:
            acc = m.xor(acc, ref)
        m.set_output("y0", acc)
        rows = [rng.integers(0, 2, 16).astype(bool) for _ in range(n)]
        bv = rng.integers(0, 2, 16).astype(bool)
        options = ScheduleOptions(reuse=reuse)
        _, (out,) = run_mig(m, n, 1, 1, rows, [bv], options=options)
        expected = rows[0].copy()
        for bits in rows[1:]:
            expected ^= bits
        assert np.array_equal(out, expected)

    def test_reuse_never_issues_more_commands_than_naive(self, rng):
        n = 6
        m = Mig()
        refs = [m.input(f"a{i}") for i in range(n)]
        acc = refs[0]
        for ref in refs[1:]:
            acc = m.maj(acc, ref, ~refs[0])
        m.set_output("y0", acc)
        rows = [rng.integers(0, 2, 8).astype(bool) for _ in range(n)]
        prog_reuse, _ = run_mig(m, n, 0, 1, rows, [],
                                options=ScheduleOptions(reuse=True))
        prog_naive, _ = run_mig(m, n, 0, 1, rows, [],
                                options=ScheduleOptions(reuse=False))
        assert prog_reuse.n_commands <= prog_naive.n_commands


class TestPeephole:
    def test_ambit_and_is_four_aaps(self):
        """The canonical Ambit bulk AND: 3 loads + fused TRA-copy."""
        m = Mig()
        a, b = m.input("a0"), m.input("b0")
        m.set_output("y0", m.and_(a, b))
        input_rows = {"a0": URow(Space.INPUT0, 0),
                      "b0": URow(Space.INPUT1, 0)}
        program = schedule(
            m, op_name="and", backend="ambit", element_width=1,
            input_specs=[OperandSpec(Space.INPUT0, 1),
                         OperandSpec(Space.INPUT1, 1)],
            output_spec=OperandSpec(Space.OUTPUT, 1),
            input_rows=input_rows,
            output_rows={"y0": URow(Space.OUTPUT, 0)})
        assert program.n_aap == 4
        assert program.n_ap == 0  # TRA fused into the copy-out AAP

    def test_peephole_can_be_disabled(self):
        m = Mig()
        a, b = m.input("a0"), m.input("b0")
        m.set_output("y0", m.and_(a, b))
        input_rows = {"a0": URow(Space.INPUT0, 0),
                      "b0": URow(Space.INPUT1, 0)}
        program = schedule(
            m, op_name="and", backend="simdram", element_width=1,
            input_specs=[OperandSpec(Space.INPUT0, 1),
                         OperandSpec(Space.INPUT1, 1)],
            output_spec=OperandSpec(Space.OUTPUT, 1),
            input_rows=input_rows,
            output_rows={"y0": URow(Space.OUTPUT, 0)},
            options=ScheduleOptions(peephole=False))
        assert program.n_ap == 1
        assert program.n_aap == 4

    def test_merged_aap_reads_triple(self):
        m = Mig()
        a, b = m.input("a0"), m.input("b0")
        m.set_output("y0", m.and_(a, b))
        program = schedule(
            m, op_name="and", backend="simdram", element_width=1,
            input_specs=[OperandSpec(Space.INPUT0, 1),
                         OperandSpec(Space.INPUT1, 1)],
            output_spec=OperandSpec(Space.OUTPUT, 1),
            input_rows={"a0": URow(Space.INPUT0, 0),
                        "b0": URow(Space.INPUT1, 0)},
            output_rows={"y0": URow(Space.OUTPUT, 0)})
        fused = [op for op in program.uops
                 if isinstance(op, UAap) and op.src.n_wordlines == 3]
        assert len(fused) == 1


class TestValidation:
    def test_missing_input_binding_rejected(self):
        m = Mig()
        a, b = m.input("a0"), m.input("b0")
        m.set_output("y0", m.and_(a, b))
        with pytest.raises(SchedulingError):
            schedule(m, op_name="bad", backend="simdram", element_width=1,
                     input_specs=[OperandSpec(Space.INPUT0, 1)],
                     output_spec=OperandSpec(Space.OUTPUT, 1),
                     input_rows={"a0": URow(Space.INPUT0, 0)},
                     output_rows={"y0": URow(Space.OUTPUT, 0)})

    def test_missing_output_binding_rejected(self):
        m = Mig()
        a = m.input("a0")
        m.set_output("y0", a)
        with pytest.raises(SchedulingError):
            schedule(m, op_name="bad", backend="simdram", element_width=1,
                     input_specs=[OperandSpec(Space.INPUT0, 1)],
                     output_spec=OperandSpec(Space.OUTPUT, 1),
                     input_rows={"a0": URow(Space.INPUT0, 0)},
                     output_rows={})


class TestTempAccounting:
    def test_temp_high_water_reported(self):
        """A multiplier keeps more values live than the six B-group
        planes can hold, so the scheduler must spill to temporaries."""
        from repro.core.compiler import compile_operation
        from repro.core.operations import get_operation
        program = compile_operation(get_operation("mul"), 8)
        assert program.n_temp_rows >= 1

    def test_temps_freed_and_reused(self):
        """High-water mark stays far below one-temp-per-node."""
        from repro.core.compiler import compile_operation
        from repro.core.operations import get_operation
        spec = get_operation("mul")
        program = compile_operation(spec, 8)
        from repro.core.compiler import build_mig
        nodes = build_mig(spec, 8).n_nodes
        assert program.n_temp_rows < nodes / 2


N_INPUTS = 4  # rows per operand of the synthetic scaling graph


def late_consumer_mig(n: int) -> Mig:
    """``n`` chained values, each read again only after the whole chain
    exists and in reverse order — so about ``n`` of them are live at
    once, whatever order the nodes are scheduled in."""
    m = Mig()
    a = [m.input(f"a{i}") for i in range(N_INPUTS)]
    b = [m.input(f"b{i}") for i in range(N_INPUTS)]
    chain = [m.and_(a[0], b[0])]
    for i in range(1, n):
        chain.append(m.maj(chain[-1], a[i % N_INPUTS], ~b[i % N_INPUTS]))
    acc = chain[-1]
    for i in range(n - 2, -1, -1):
        acc = m.maj(acc, ~chain[i], a[(i + 1) % N_INPUTS])
    m.set_output("y0", acc)
    return m


class TestScaling:
    def probe_work(self, monkeypatch, mig):
        """Schedule ``mig`` counting the location probes and the entries
        each one may walk; returns (program, outputs, calls and items
        per MIG node)."""
        from repro.uprog.scheduler import Scheduler
        counts = {"calls": 0, "items": 0}

        def counted(real):
            def probe(self, node, *args, **kwargs):
                state = self.state
                counts["calls"] += 1
                counts["items"] += (len(state.plane)
                                    + len(state.temps_of.get(node, ()))
                                    + len(state.outs_of.get(node, ())))
                return real(self, node, *args, **kwargs)
            return probe

        with monkeypatch.context() as patch:
            for name in ("_find_source", "_has_copy_outside"):
                patch.setattr(Scheduler, name,
                              counted(getattr(Scheduler, name)))
            rng = np.random.default_rng(5)
            inputs = [[rng.integers(0, 2, 16).astype(bool)
                       for _ in range(N_INPUTS)] for _ in range(2)]
            program, outputs = run_mig(mig, N_INPUTS, N_INPUTS, 1,
                                       *inputs, seed=3)
        expected = mig.evaluate(
            {f"{prefix}{i}": bits for prefix, rows in zip("ab", inputs)
             for i, bits in enumerate(rows)})
        assert np.array_equal(outputs[0], expected["y0"])
        # schedule() runs the graph under up to two node orders.
        return program, {key: value / mig.n_nodes
                         for key, value in counts.items()}

    def test_probe_work_per_node_is_flat_in_live_values(self, monkeypatch):
        small, large = late_consumer_mig(40), late_consumer_mig(160)
        assert large.n_nodes >= 3.9 * small.n_nodes
        program_s, work_s = self.probe_work(monkeypatch, small)
        program_l, work_l = self.probe_work(monkeypatch, large)
        # The graph really does keep ~4x as many values live ...
        assert program_s.n_temp_rows >= 30
        assert program_l.n_temp_rows >= 3.9 * program_s.n_temp_rows
        # ... and a node still costs the same to place.
        assert work_l["calls"] <= 1.25 * work_s["calls"]
        assert work_l["items"] <= 1.25 * work_s["items"]

    def test_live_nodes_memo_is_not_shared_with_callers(self):
        m = Mig()
        a, b, c = m.input("a0"), m.input("b0"), m.input("c0")
        first = m.and_(a, b)
        m.set_output("y0", first)
        order = m.live_nodes()
        assert order == [first.node]
        order.append(12345)  # a caller scribbling on its copy
        assert m.live_nodes() == [first.node]
        assert m.live_nodes() is not m.live_nodes()
        second = m.maj(first, ~b, c)
        assert m.live_nodes() == [first.node]  # built, not yet an output
        m.set_output("y1", second)
        assert m.live_nodes() == [first.node, second.node]
        assert m.n_nodes == 2


class TestSecondOrder:
    """``schedule`` tries the cone order only when it can pay, and
    drops it as soon as it cannot win."""

    @staticmethod
    def _scheduler(mig, order=None):
        from repro.uprog.scheduler import Scheduler
        rows = {f"a{i}": URow(Space.INPUT0, i) for i in range(N_INPUTS)}
        rows |= {f"b{i}": URow(Space.INPUT1, i) for i in range(N_INPUTS)}
        return Scheduler(mig, rows, {"y0": URow(Space.OUTPUT, 0)},
                         order=order)

    def test_run_gives_up_once_the_limit_is_out_of_reach(self):
        mig = late_consumer_mig(40)
        full, _ = self._scheduler(mig).run()
        stopped = self._scheduler(mig)
        assert stopped.run(limit=len(full) // 2) is None
        assert len(stopped.fired) < mig.n_nodes
        # It really was out of reach: what was emitted (the last AP may
        # yet fold into a copy) plus one command per node still to come.
        emitted = len(stopped._peephole(stopped.uops)) - 1
        to_come = mig.n_nodes - len(stopped.fired)
        assert emitted + to_come > len(full) // 2

    def test_a_limit_the_program_meets_changes_nothing(self):
        mig = late_consumer_mig(40)
        full, n_temp = self._scheduler(mig).run()
        assert self._scheduler(mig).run(limit=len(full)) == (full, n_temp)

    def test_report_says_what_became_of_each_order(self):
        from repro.core.compiler import compile_operation
        from repro.core.operations import get_operation
        add = compile_operation(get_operation("add"), 8).report
        assert add["order_kept"] == "topological"
        assert add["orders"]["cone"].startswith("not tried")
        mul = compile_operation(get_operation("mul"), 8).report
        assert mul["order_kept"] == "cone"
        assert mul["orders"]["cone"] < mul["orders"]["topological"]
