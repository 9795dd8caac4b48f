"""End-to-end tests for the extension operations (beyond the paper's 16)
and the transposition-unit object tracker."""

import numpy as np
import pytest

from repro.core.operations import CATALOG, PAPER_OPERATIONS, get_operation
from repro.errors import AllocationError, OperationError
from repro.exec.tracker import ObjectTracker
from repro.isa.instructions import OPCODES

from tests.conftest import stable_seed

EXTENSION_OPS = ("ne", "lt", "le", "gt_u", "add_sat")


class TestExtensionCatalog:
    def test_extensions_registered(self):
        for name in EXTENSION_OPS:
            assert name in CATALOG
            assert name not in PAPER_OPERATIONS
            assert name in OPCODES

    def test_golden_models(self):
        a = np.array([5, 200, 200, 0])
        b = np.array([5, 100, 250, 1])
        assert list(get_operation("ne").golden([a, b], 8)) == [0, 1, 1, 1]
        # signed: 200 = -56, 100 = 100, 250 = -6.
        assert list(get_operation("lt").golden([a, b], 8)) == [0, 1, 1, 1]
        assert list(get_operation("le").golden([a, b], 8)) == [1, 1, 1, 1]
        assert list(get_operation("gt_u").golden([a, b], 8)) == \
            [0, 1, 0, 0]
        assert list(get_operation("add_sat").golden([a, b], 8)) == \
            [10, 255, 255, 1]


@pytest.mark.parametrize("op_name", EXTENSION_OPS)
@pytest.mark.parametrize("backend", ("simdram", "ambit"))
def test_extension_op_end_to_end(sim, op_name, backend):
    rng = np.random.default_rng(stable_seed(op_name, backend))
    spec = get_operation(op_name)
    a_host = rng.integers(0, 256, 50)
    b_host = rng.integers(0, 256, 50)
    a = sim.array(a_host, 8)
    b = sim.array(b_host, 8)
    out = sim.run(op_name, a, b, backend=backend)
    expected = spec.golden([a_host, b_host], 8)
    assert np.array_equal(out.to_numpy(), expected)
    a.free()
    b.free()
    out.free()


class TestObjectTracker:
    def test_register_lookup_release(self):
        tracker = ObjectTracker()
        obj = tracker.register(10, 100, 8)
        assert tracker.lookup(10) is obj
        assert tracker.is_tracked(10)
        assert list(obj.rows) == list(range(10, 18))
        tracker.release(10)
        assert not tracker.is_tracked(10)

    def test_double_register_rejected(self):
        tracker = ObjectTracker()
        tracker.register(0, 10, 8)
        with pytest.raises(AllocationError):
            tracker.register(0, 10, 8)

    def test_lookup_untracked_rejected(self):
        with pytest.raises(OperationError):
            ObjectTracker().lookup(99)

    def test_release_untracked_rejected(self):
        with pytest.raises(AllocationError):
            ObjectTracker().release(99)

    def test_capacity_enforced(self):
        tracker = ObjectTracker(capacity=2)
        tracker.register(0, 1, 1)
        tracker.register(1, 1, 1)
        with pytest.raises(AllocationError):
            tracker.register(2, 1, 1)

    def test_objects_sorted(self):
        tracker = ObjectTracker()
        tracker.register(20, 1, 4)
        tracker.register(5, 1, 4)
        assert [o.base_row for o in tracker.objects] == [5, 20]


class TestTrackerFrameworkIntegration:
    def test_arrays_announce_trsp_init(self, sim):
        before = len([i for i in sim.issued if i.op == "trsp_init"])
        array = sim.array([1, 2, 3], 8)
        inits = [i for i in sim.issued if i.op == "trsp_init"]
        assert len(inits) == before + 1
        assert inits[-1].dst == array.block.base
        assert sim.tracker.is_tracked(array.block.base)
        array.free()
        assert not sim.tracker.is_tracked(array.block.base)

    def test_run_rejects_freed_operand(self, sim):
        a = sim.array([1, 2], 8)
        b = sim.array([3, 4], 8)
        a.free()
        with pytest.raises(OperationError):
            sim.run("add", a, b)
