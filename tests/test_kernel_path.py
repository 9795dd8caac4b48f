"""One kernel, every door.

A catalog operation is the one-node ``Expr`` over its canonical leaves
and a multi-root kernel is an N-output one, so whatever a caller hands
to ``compile`` / ``run`` / ``run_expr`` / ``run_multi`` / ``map`` /
``map_expr`` / ``service.submit`` — on a module, a cluster or the
replica tier — reaches the same :class:`~repro.core.fuse.Kernel`
through the same compile, bind, check and dispatch.  These tables pin
that: same object, same cache entry, same dispatch, same bits, same
error text.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from tests.conftest import edge_and_random_values, stable_seed
from repro.core import expr as E
from repro.core import fuse
from repro.core.framework import Simdram, SimdramConfig
from repro.core.operations import CATALOG, register_operation
from repro.dram.geometry import DramGeometry
from repro.errors import OperationError, SimdramError
from repro.logic import library
from repro.runtime import SimdramCluster
from repro.serve import ReplicaRouter, SimdramService
from repro.util.bitops import to_unsigned

BACKENDS = ("simdram", "ambit")


def config(cols: int = 16, backend: str = "simdram") -> SimdramConfig:
    return SimdramConfig(
        geometry=DramGeometry.sim_small(cols=cols, data_rows=768, banks=2),
        backend=backend)


def canonical(name: str) -> E.Expr:
    """``name`` applied to its canonical leaves ``a``, ``b``, ``c``."""
    spec = CATALOG[name]
    return E.op(name, *(E.inp(leaf) for leaf in spec.operand_names()))


def operands_for(name: str, width: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(stable_seed(name, width))
    return [edge_and_random_values(rng, w, n)
            for w in CATALOG[name].in_widths(width)]


def golden(name: str, vectors, width: int) -> np.ndarray:
    return CATALOG[name].golden(list(vectors), width)


def bits(values, name: str, width: int) -> np.ndarray:
    return to_unsigned(np.asarray(values), CATALOG[name].out_width(width))


# ---------------------------------------------------------------------------
# (a) compile: by name and by canonical Expr are one cache entry
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module", params=BACKENDS)
def module(request) -> Simdram:
    """One module per backend, shared by every operation of table (a):
    the cache assertions are deltas, so sharing costs nothing."""
    return Simdram(config(backend=request.param), seed=5)


@pytest.mark.parametrize("width", (8, 16))
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_name_and_canonical_expr_are_one_kernel(module, name, width):
    sim, root = module, canonical(name)
    kernel = sim.compile(name, width)
    assert sim.compile(root, width) is kernel
    assert kernel.op_name == name and kernel.program.source_hash is None
    assert fuse.kernel_identity(root, width) == (name, width, "simdram")

    vectors = operands_for(name, width, 2 * sim.module.lanes + 3)
    by_name = sim.map(name, *vectors, width=width)
    entries = sim.kernel_cache_size
    misses = sim.control.plan_cache_misses
    by_expr = sim.map_expr(
        root, dict(zip(kernel.input_names, vectors)), width=width)
    assert sim.kernel_cache_size == entries
    assert sim.control.plan_cache_misses == misses
    expected = golden(name, vectors, width)
    assert np.array_equal(bits(by_name, name, width), expected)
    assert np.array_equal(bits(by_expr, name, width), expected)


def test_near_canonical_exprs_stay_fused():
    """Only *exactly* the canonical leaves name the catalog kernel."""
    x, a, b = E.inp("x"), E.inp("a"), E.inp("b")
    assert fuse.catalog_name(E.add(a, b)) == "add"
    for root in (E.add(b, a), E.add(a, x), E.add(a, E.const(1)),
                 E.add(E.relu(a), b)):
        assert fuse.catalog_name(root) is None
        assert fuse.kernel_identity(root, 8)[0].startswith("fused_")


# ---------------------------------------------------------------------------
# (b) run / run_expr / run_multi on a module and on a cluster
# ---------------------------------------------------------------------------
@pytest.fixture(params=["module", "cluster"])
def system(request):
    if request.param == "module":
        yield Simdram(config(), seed=5)
        return
    with SimdramCluster(2, config=config(), seed=5) as cluster:
        yield cluster


def put(system, values, width: int):
    if isinstance(system, Simdram):
        return system.array(values, width)
    return system.tensor(values, width)


def n_kernels(system) -> int:
    """Kernels held (a module's ``kernel_cache_size`` also counts the
    executors compiled per row layout, and ``run`` binds a new one)."""
    if isinstance(system, Simdram):
        return len(system.control.installed)
    return system.kernel_cache_size


@pytest.mark.parametrize("name", ["add", "if_else", "relu", "bitcount"])
def test_run_doors_agree(system, name):
    width = 8
    vectors = operands_for(name, width, 20)
    spec, root = CATALOG[name], canonical(name)
    arrays = [put(system, v, w)
              for v, w in zip(vectors, spec.in_widths(width))]
    feeds = dict(zip(spec.operand_names(), arrays))

    by_name = system.run(name, *arrays)
    compiled = n_kernels(system)
    by_expr = system.run_expr(root, feeds, width=width)
    by_feeds = system.run(name, feeds=feeds, width=width)
    assert n_kernels(system) == compiled == 1
    multi = system.run_multi({"y": root}, feeds, width=width)

    expected = golden(name, vectors, width)
    for result in (by_name.to_numpy(), by_expr.to_numpy(),
                   by_feeds.to_numpy(), multi["y"]):
        assert np.array_equal(bits(result, name, width), expected)


# ---------------------------------------------------------------------------
# (c) serving: a by-name and a by-Expr request ride one dispatch
# ---------------------------------------------------------------------------
@pytest.fixture(params=["module", "cluster", "replicas"])
def service(request):
    if request.param == "module":
        with SimdramService(Simdram(config(cols=32), seed=5)) as svc:
            yield svc
    elif request.param == "cluster":
        with SimdramCluster(2, config=config(cols=32)) as cluster, \
                SimdramService(cluster) as svc:
            yield svc
    else:
        with ReplicaRouter(1, config=config(cols=32)) as router, \
                SimdramService(router) as svc:
            yield svc


def test_name_and_expr_requests_share_a_dispatch(service):
    with service.hold():
        by_name = service.submit("sub", [9, 8, 7], [1, 2, 3], width=8)
        by_expr = service.submit(canonical("sub"),
                                 feeds={"b": [4, 4], "a": [6, 5]}, width=8)
    assert np.array_equal(by_name.result(60), [8, 6, 4])
    assert np.array_equal(by_expr.result(60), [2, 1])
    assert service.stats()["packing"]["dispatches"] == 1


# ---------------------------------------------------------------------------
# (d) a user-registered operation needs no per-door code
# ---------------------------------------------------------------------------
def _build_clamp_add(circuit, operands, style):
    a, b = operands
    total, carry = library.ripple_add(circuit, a, b, style=style)
    return [circuit.or_(bit, carry) for bit in total]


def _golden_clamp_add(inputs, width):
    return np.minimum(inputs[0] + inputs[1], (1 << width) - 1)


@pytest.fixture
def clamp_add():
    """``examples/custom_operation.py``'s saturating add, registered
    for the duration of one test."""
    register_operation("clamp_add", 2, "user", "saturating add",
                       _build_clamp_add, _golden_clamp_add)
    try:
        yield "clamp_add"
    finally:
        del CATALOG["clamp_add"]


def test_user_operation_through_every_door(clamp_add):
    sim = Simdram(config(cols=32), seed=5)
    a_host, b_host = operands_for("add", 8, 40)
    saturated = _golden_clamp_add([a_host, b_host], 8)
    a, b = sim.array(a_host, 8), sim.array(b_host, 8)
    assert np.array_equal(sim.run(clamp_add, a, b).to_numpy(), saturated)
    assert np.array_equal(sim.map(clamp_add, a_host, b_host, width=8),
                          saturated)
    halved = E.op("gt_u", E.op(clamp_add, E.inp("p"), E.inp("q")),
                  E.const(127))
    assert np.array_equal(
        sim.map_expr(halved, {"p": a_host, "q": b_host}, width=8),
        saturated > 127)
    with SimdramService(sim) as svc:
        handle = svc.submit(clamp_add, a_host, b_host, width=8)
        assert np.array_equal(handle.result(60), saturated)


# ---------------------------------------------------------------------------
# (e) one error text per mistake, whatever the door
# ---------------------------------------------------------------------------
def _doors(system, svc):
    """``label -> call(op, positional, feeds)`` for every entry point
    that can take both bindings; the resident doors upload the host
    vectors first."""
    def resident(door):
        def call(op, positional, feeds):
            return door(op, *[put(system, v, 8) for v in positional],
                        feeds=(None if feeds is None else
                               {k: put(system, v, 8)
                                for k, v in feeds.items()}),
                        width=8)
        return call

    doors = {
        "run": resident(system.run),
        "map": lambda op, positional, feeds: system.map(
            op, *positional, feeds=feeds, width=8),
        "service": lambda op, positional, feeds: svc.submit(
            op, *positional, feeds=feeds, width=8).result(60),
    }
    if not isinstance(system, Simdram):
        doors["submit"] = resident(system.submit)
    return doors


MISTAKES = {
    "arity": (("add", ([1, 2],), None), "add takes 2 operands, got 1"),
    "missing feed": ((canonical("add"), (), {"a": [1, 2]}),
                     r"add inputs are \['a', 'b'\]; missing \['b'\]"),
    "extra feed": (("add", (), {"a": [1], "b": [2], "z": [3]}),
                   r"add inputs are \['a', 'b'\]; unexpected \['z'\]"),
    "lengths": (("add", ([1, 2], [3]), None),
                r"add: operand lengths differ: \[2, 1\]"),
    "both bindings": (("add", ([1],), {"b": [2]}),
                      "positionally or via feeds=, not both"),
}


@pytest.mark.parametrize("mistake", sorted(MISTAKES))
def test_one_message_per_mistake(system, mistake):
    (op, positional, feeds), message = MISTAKES[mistake]
    with SimdramService(system) as svc:
        for call in _doors(system, svc).values():
            with pytest.raises(OperationError, match=message):
                call(op, positional, feeds)


def test_resident_only_mistakes_read_the_same_on_every_door(system):
    """Wrong operand width and a freed operand only exist for
    DRAM-resident operands: ``run``, ``run_expr`` and ``submit``
    report each with one text (``run_multi`` names its own,
    content-hashed kernel in the same sentence)."""
    root = canonical("add")
    doors = [lambda f: system.run("add", f["a"], f["b"]),
             lambda f: system.run("add", feeds=f, width=8),
             lambda f: system.run_expr(root, f, width=8)]
    if not isinstance(system, Simdram):
        doors.append(lambda f: system.submit("add", feeds=f, width=8))
    good, narrow = put(system, [1, 2], 8), put(system, [1, 2], 4)
    stale = put(system, [3, 4], 8)
    stale.free()
    for feeds, error in (
            ({"a": narrow, "b": good},
             "add input 'a' must be 8-bit, got 4-bit"),
            ({"a": good, "b": stale}, None)):
        texts = set()
        for door in doors:
            with pytest.raises(SimdramError) as caught:
                door(feeds)
            texts.add(f"{type(caught.value).__name__}: {caught.value}")
        assert len(texts) == 1, texts
        if error is not None:
            assert texts == {f"OperationError: {error}"}


# ---------------------------------------------------------------------------
# the two bugs the three-path design had grown
# ---------------------------------------------------------------------------
def test_member_module_caches_what_a_plain_module_caches():
    """A cluster member holds each kernel once (it used to adopt a
    fused kernel as a program *and* as a kernel)."""
    def work(system):
        system.map_expr(E.add(E.inp("x"), E.const(3)),
                        {"x": np.arange(5)}, width=8)
        system.map("sub", [5, 6], [1, 2], width=8)
        system.map_expr(canonical("sub"), {"a": [5], "b": [1]}, width=8)

    sim = Simdram(config(), seed=1)
    work(sim)
    with SimdramCluster(1, config=config(), seed=1) as cluster:
        work(cluster)
        member = cluster.modules[0]
        assert member.kernel_cache_size == sim.kernel_cache_size
        assert len(member.control.installed) == 2
        assert cluster.kernel_cache_size == 2
    assert len(sim.control.installed) == 2


@pytest.mark.parametrize("clustered", [False, True])
def test_warmed_kernels_are_never_compiled_again(clustered, monkeypatch):
    """``warmup()`` promises the first real request pays no Steps 1+2 —
    on the dispatch *or* on the completion path (energy pricing used to
    recompile every kernel on the serve worker)."""
    step = E.relu(E.add(E.mul(E.inp("x"), E.inp("w")), E.inp("b")))
    compiles, lock = [], threading.Lock()
    real = fuse.compile_kernel

    def counting(op, *args, **kwargs):
        with lock:
            compiles.append(op)
        return real(op, *args, **kwargs)

    monkeypatch.setattr(fuse, "compile_kernel", counting)
    target = (SimdramCluster(2, config=config(cols=32)) if clustered
              else Simdram(config(cols=32), seed=1))
    try:
        with SimdramService(target) as svc:
            svc.warmup([(step, 16), ("mul", 16)])
            assert len(compiles) == 2
            for _ in range(3):
                fused = svc.submit(step, width=16, feeds={
                    "x": [1, 2], "w": [3, 4], "b": [5, 6]})
                named = svc.submit("mul", [7, 8], [9, 10], width=16)
                assert np.array_equal(fused.result(60), [8, 14])
                assert np.array_equal(named.result(60), [63, 80])
                assert fused.energy_nj > 0 and named.energy_nj > 0
            assert len(compiles) == 2
    finally:
        if clustered:
            target.close()


def test_a_dag_is_hashed_once_per_request(monkeypatch):
    """The kernel's identity is asked for at the cluster, on each member
    module and by the plan cache; the digest is computed once."""
    root = E.relu(E.add(E.mul(E.inp("x"), E.inp("w")), E.const(3)))
    n_nodes = len(E.post_order(root))
    digests = []
    real = E.hashlib.sha256

    def counting(data):
        digests.append(data)
        return real(data)

    monkeypatch.setattr(E.hashlib, "sha256", counting)
    rng = np.random.default_rng(0)
    x, w = rng.integers(0, 256, (2, 100))
    with SimdramCluster(2, config=config()) as cluster:
        assert np.array_equal(
            cluster.map(root, feeds={"x": x, "w": w}, width=8),
            E.golden(root, {"x": x, "w": w}, 8))
        assert len(digests) == n_nodes
        cluster.map(root, feeds={"x": x, "w": w}, width=8)
        assert len(digests) == n_nodes
    assert E.dag_hash(root) == E.dag_hash(
        E.relu(E.add(E.mul(E.inp("x"), E.inp("w")), E.const(3))))
