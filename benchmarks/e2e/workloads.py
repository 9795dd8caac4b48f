"""The seven workloads of the end-to-end benchmark.

Each workload knows how to make its seeded inputs (with numpy
goldens), construct and warm a *fresh* target, run one measured block
of a frozen number of operations, read the simulated-DRAM counters,
and close the target.  ``run.py`` owns the protocol around these
(blocks, medians, tracing); see ``README.md`` for why each workload
exists and what an *operation* is on it.

The program receives only generated inputs — never the seed, never the
workload's name.
"""

from __future__ import annotations

from dataclasses import dataclass
import sys

import numpy as np

from measure import closed_loop, closed_loop_fifo, now, same_bits

from repro import lazy
from repro.apps.bitweaving import (BitSlicedColumn, range_scan_golden,
                                   range_scan_simdram)
from repro.apps.brightness import (adjust_brightness_golden,
                                   adjust_brightness_lazy, brightness_expr)
from repro.apps.cnn import (conv2d_relu_cluster, conv2d_relu_lazy,
                            madd_expr, madd_relu_expr)
from repro.apps.knn import knn_classify_golden, knn_classify_simdram
from repro.apps.tpch import (LineitemTable, filtered_sum_golden,
                             filtered_sum_simdram)
from repro.core import expr
from repro.core.compiler import compile_operation
from repro.core.framework import Simdram, SimdramConfig
from repro.core.operations import PAPER_OPERATIONS, get_operation
from repro.dram.geometry import DramGeometry
from repro.runtime import SimdramCluster, WorkDescriptor
from repro.serve import (ReplicaRouter, SimdramService, StreamingServer,
                         affine_relu_step, stream_golden)

#: Passes a warm-up may take before "a pass compiles nothing" must hold.
MAX_WARM_PASSES = 6


def small_config(cols: int, data_rows: int = 512,
                 banks: int = 2) -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=cols, data_rows=data_rows, banks=banks))


# ---------------------------------------------------------------------------
# simulated-clock accounting
# ---------------------------------------------------------------------------
def module_sim(sims) -> np.ndarray:
    """Cumulative ``[busy ns, energy nJ, AAP+AP commands]`` of a set
    of modules, from their ``CommandStats``.

    Busy time is per module (banks run in lockstep, so one bank's
    command stream plus the module's channel I/O) and summed over
    modules: module-nanoseconds, not a makespan, so the figure does not
    depend on which module happened to be busiest.
    """
    total = np.zeros(3)
    for sim in sims:
        stats = sim.module.total_stats()
        timing, geometry = sim.config.timing, sim.config.geometry
        host_bits = stats.host_bits_read + stats.host_bits_written
        total += (
            (stats.n_ap * timing.ap_ns + stats.n_aap * timing.aap_ns)
            / geometry.banks
            + ((host_bits + 7) // 8) * timing.io_ns_per_byte(),
            stats.energy_nj(timing, geometry, sim.config.energy),
            stats.n_ap + stats.n_aap,
        )
    return total


def module_counts(sims) -> dict[str, float]:
    """Cumulative per-layer counters readable from in-process modules."""
    out = {"dram.aap": 0, "dram.ap": 0, "dram.activations": 0,
           "exec.plan_cache_hits": 0, "exec.plan_cache_misses": 0}
    for sim in sims:
        stats = sim.module.total_stats()
        out["dram.aap"] += stats.n_aap
        out["dram.ap"] += stats.n_ap
        out["dram.activations"] += stats.n_activations
        out["exec.plan_cache_hits"] += sim.control.plan_cache_hits
        out["exec.plan_cache_misses"] += sim.control.plan_cache_misses
    return out


def cache_signature(sims) -> tuple:
    """Changes whenever any module compiled a kernel, a plan or an
    executor — the warm-up loop runs passes until it stops changing."""
    return tuple((sim.kernel_cache_size, sim.control.plan_cache_misses)
                 for sim in sims)


def warm(one_pass, signature) -> int:
    """Run ``one_pass()`` until a pass leaves ``signature()`` unchanged
    (i.e. compiled nothing); returns the passes taken."""
    before = signature()
    for n in range(1, MAX_WARM_PASSES + 1):
        one_pass()
        after = signature()
        if after == before:
            return n
        before = after
    raise RuntimeError(
        f"warm-up still compiling after {MAX_WARM_PASSES} passes")


def encoded_golden(op_name: str, operands, width: int
                   ) -> tuple[np.ndarray, int]:
    """``(numpy golden, result width)`` of one catalog operation."""
    spec = get_operation(op_name)
    return spec.golden(list(operands), width), spec.out_width(width)


def expr_golden(root, feeds: dict, width: int) -> tuple[np.ndarray, int]:
    return (expr.golden(root, feeds, width),
            expr.analyze(root, width).out_width)


NAN = float("nan")


@dataclass
class Outcome:
    """One measured block, one entry per operation in issue order.

    ``latencies_s`` is NaN for an operation that raised or gave a wrong
    answer (it counts as missing any latency); ``done_s`` is every
    operation's completion time since the block started (its largest
    entry is the block's wall time).  A workload that runs one
    operation at a time gives ``cpu_s``, the CPU time each took; a
    closed loop gives ``laps``, its ``(wall, CPU)`` clocks read at the
    start of every slice of ``slice_ops`` operations and at the end.
    """

    latencies_s: list[float]
    done_s: list[float]
    failed: int
    cpu_s: list[float] | None = None
    laps: list[tuple[float, float]] | None = None

    @property
    def wall_s(self) -> float:
        return max(self.done_s)


class Workload:
    """Interface ``run.py`` drives; see the module docstring."""

    name = ""
    #: Operations in one measured block (frozen; never tuned per run).
    block_ops = 0
    #: Fewest blocks in a run, whatever ``--seconds`` says.
    min_blocks = 3
    #: Synchronous workloads: a block repeats the same ``kinds``
    #: operations in the same order, so operation ``i`` is of kind
    #: ``i % kinds`` and a kind's repeats are comparable.
    kinds = 0
    #: Requests kept in flight (1 = the caller waits for each reply).
    outstanding = 1
    #: Closed loops: a block is read in slices of this many operations
    #: (it divides ``block_ops``), so that a slice at the same place in
    #: another block is a repeat of it.
    slice_ops = 0
    #: Whether the operation runs synchronously on the generator thread
    #: (then spans recorded on the program's worker threads belong to
    #: the operation the generator is blocked in).
    synchronous = True
    #: Requests the serving layer sees per operation (a stream's steps).
    steps_per_op = 1
    #: Direct dispatches a traced run's probe times.
    PROBES = 100

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict, tracer=None):
        raise NotImplementedError

    def run(self, state, inputs: dict, meter, op_span=None) -> Outcome:
        """One measured block; ``meter`` is a :class:`measure.Meter`."""
        raise NotImplementedError

    def modules(self, state) -> list:
        """In-process ``Simdram`` modules doing this workload's DRAM work."""
        return []

    def sim(self, state, inputs: dict) -> np.ndarray:
        return module_sim(self.modules(state))

    def counts(self, state) -> dict[str, float]:
        return module_counts(self.modules(state))

    def child_pids(self, state) -> list[int]:
        return []

    def probe(self, state, inputs: dict) -> dict[str, float]:
        """Traced run only: time a layer that serves requests on the
        program's own threads by calling its public function directly,
        on the same inputs, after the measured phase."""
        return {}

    def close(self, state) -> None:
        pass


def median_seconds(calls) -> float:
    """Median wall time of calling each of ``calls`` once."""
    samples = []
    for call in calls:
        start = now()
        call()
        samples.append(now() - start)
    return float(np.median(samples))


def report_failure(index: int, error) -> None:
    print(f"operation {index} failed: "
          f"{error if error is not None else 'wrong result'!r}",
          file=sys.stderr)


def map_op(sim, kernel, width, operands, golden, out_width):
    """``(call, check)`` of one ``map`` (catalog operation, by name) or
    ``map_expr`` (fused expression) on ``sim``."""
    if isinstance(kernel, str):
        def call():
            return sim.map(kernel, *operands, width=width)
    else:
        def call():
            return sim.map_expr(kernel, operands, width=width)
    return call, lambda result: same_bits(result, golden, out_width)


def timed_ops(ops, meter, op_span) -> Outcome:
    """Run ``(call, check)`` pairs one after the other on this thread,
    each once the box is quiet.  The wait and the check (golden
    comparison) are outside the timed interval, and the block's wall
    time is the sum of the timed intervals."""
    latencies, done, cpu_s, failed, clock = [], [], [], 0, 0.0
    for index, (call, check) in enumerate(ops):
        meter.wait_quiet()
        cpu_start = meter.cpu()
        start = now()
        try:
            if op_span is None:
                result = call()
            else:
                with op_span(index):
                    result = call()
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            result, error = None, exc
        elapsed = now() - start
        cpu_s.append(meter.cpu() - cpu_start)
        clock += elapsed
        done.append(clock)
        if error is None and check(result):
            latencies.append(elapsed)
        else:
            latencies.append(NAN)
            failed += 1
            if failed == 1:
                report_failure(index, error)
    return Outcome(latencies, done, failed, cpu_s)


def run_loop(driver, workload, meter, submit, check) -> Outcome:
    """One block of a closed loop: ``driver`` is one of the two
    closed-loop drivers, ``submit(i)`` issues operation ``i`` and
    ``check(i, result)`` compares its result with the golden."""
    laps: list = []
    latencies, done, handles = driver(
        workload.block_ops, workload.outstanding, submit,
        workload.slice_ops, lambda: laps.append((now(), meter.cpu())))
    failed = 0
    for i, handle in enumerate(handles):
        error = handle.exception()
        if error is None and check(i, handle.result()):
            continue
        latencies[i] = NAN
        failed += 1
        if failed == 1:
            report_failure(i, error)
    return Outcome(latencies, done, failed, laps=laps)


# ---------------------------------------------------------------------------
# compile_cold
# ---------------------------------------------------------------------------
class CompileCold(Workload):
    """First ``map`` of each kernel on a fresh module."""

    name = "compile_cold"
    WIDTHS = (8, 16)
    ELEMENTS = 512
    block_ops = kinds = len(PAPER_OPERATIONS) * len(WIDTHS) + 4

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        kernels = []
        for width in self.WIDTHS:
            for op_name in PAPER_OPERATIONS:
                spec = get_operation(op_name)
                operands = [rng.integers(0, 1 << w, self.ELEMENTS)
                            for w in spec.in_widths(width)]
                if op_name == "div":
                    operands[1] = np.maximum(operands[1], 1)
                kernels.append((op_name, width, operands,
                                *encoded_golden(op_name, operands, width)))
        # The constants fold into the MIG, so they are inputs too.
        roots = [brightness_expr(int(rng.integers(8, 120))),
                 madd_expr(int(rng.integers(2, 8))),
                 madd_relu_expr(-int(rng.integers(2, 8))),
                 affine_relu_step(int(rng.integers(1, 8)))]
        for root in roots:
            feeds = {name: rng.integers(0, 1 << 12, self.ELEMENTS)
                     for name in expr.input_names(root)}
            kernels.append((root, 16, feeds,
                            *expr_golden(root, feeds, 16)))
        return {"kernels": kernels}

    def setup(self, inputs, tracer=None):
        config = small_config(cols=256)
        return [Simdram(config) for _ in inputs["kernels"]]

    def modules(self, state):
        return state

    def run(self, state, inputs, meter, op_span=None) -> Outcome:
        ops = [map_op(sim, *kernel)
               for sim, kernel in zip(state, inputs["kernels"])]
        return timed_ops(ops, meter, op_span)


# ---------------------------------------------------------------------------
# bulk_map
# ---------------------------------------------------------------------------
class BulkMap(Workload):
    """Warm bulk ``map`` over four lane batches of a 32768-lane module.

    Sized to stay in this box's 4 MiB of L2 per CPU: at the issue's
    8192 columns and 524288 elements the maps are bound by the host's
    memory bandwidth, which its other tenants take up to half of for
    minutes at a time (10.2 to 15.1 maps/s over ten runs; 54.3 to 56.2
    at this size).
    """

    name = "bulk_map"
    COLS = 2048
    ELEMENTS = 4 * COLS * 16
    ROUNDS = 12
    CASES = (("add", 8), ("mul", 8), ("ge", 16), ("add", 32))
    kinds = len(CASES) + 1
    block_ops = kinds * ROUNDS

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        calls = []
        for op_name, width in self.CASES:
            operands = [rng.integers(0, 1 << width, self.ELEMENTS)
                        for _ in range(2)]
            calls.append((op_name, width, operands,
                          *encoded_golden(op_name, operands, width)))
        root = brightness_expr(int(rng.integers(8, 120)))
        feeds = {"px": rng.integers(0, 256, self.ELEMENTS)}
        calls.append((root, 16, feeds, *expr_golden(root, feeds, 16)))
        return {"calls": calls}

    def _ops(self, sim, inputs):
        return [map_op(sim, *call) for call in inputs["calls"]]

    def setup(self, inputs, tracer=None):
        sim = Simdram(small_config(cols=self.COLS, data_rows=512,
                                   banks=16))
        ops = self._ops(sim, inputs)
        warm(lambda: [call() for call, _ in ops],
             lambda: cache_signature([sim]))
        return sim

    def modules(self, state):
        return [state]

    def run(self, state, inputs, meter, op_span=None) -> Outcome:
        return timed_ops(self._ops(state, inputs) * self.ROUNDS, meter,
                         op_span)


# ---------------------------------------------------------------------------
# cluster_apps
# ---------------------------------------------------------------------------
class ClusterApps(Workload):
    """Warm application kernels: many small device-resident dispatches."""

    name = "cluster_apps"
    ROUNDS = 16
    kinds = 6
    block_ops = kinds * ROUNDS
    #: The tap weights fold into the MIG as constants, so which weights
    #: occur decides how many kernels compile and how many commands
    #: they issue: the seed only permutes this fixed set (the taps of
    #: the 3x3 binomial blur, whose kernels compile in 1.5 s; general
    #: weights in -3..3 take 2.4 to 6.8 s per set-up).
    WEIGHTS = (1, 2, 1, 2, 4, 2, 1, 2, 1)

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        image = rng.integers(0, 256, (34, 34)).astype(np.uint8)
        weights = rng.permutation(self.WEIGHTS).reshape(3, 3)
        frame = rng.integers(0, 256, (64, 64)).astype(np.uint8)
        delta = int(rng.integers(8, 120))
        table = LineitemTable.synthetic(500, seed=int(rng.integers(1 << 30)))
        below = int(rng.integers(10, 40))
        column = BitSlicedColumn.synthetic(500,
                                           seed=int(rng.integers(1 << 30)))
        low, high = sorted(int(v) for v in rng.integers(0, 1 << 12, 2))
        refs = rng.integers(0, 256, (200, 8)).astype(np.uint8)
        labels = rng.integers(0, 10, 200)
        queries = rng.integers(0, 256, (4, 8)).astype(np.uint8)
        # The im2col convolution golden: valid correlation + relu,
        # accumulated in 16 bits like the kernel.
        windows = np.lib.stride_tricks.sliding_window_view(
            image.astype(np.int64), (3, 3))
        conv = np.maximum((windows * weights).sum(axis=(2, 3)), 0)
        return {
            "image": image, "weights": weights, "frame": frame,
            "delta": delta, "table": table, "below": below,
            "column": column, "low": low, "high": high, "refs": refs,
            "labels": labels, "queries": queries,
            "golden": {
                "conv": conv,
                "bright": adjust_brightness_golden(frame, delta),
                "sum": filtered_sum_golden(table, below),
                "scan": range_scan_golden(column, low, high),
                "knn": knn_classify_golden(refs, labels, queries),
            },
        }

    def _ops(self, state, inputs):
        cluster, sim, device = state
        i, g = inputs, inputs["golden"]

        def equal(want):
            return lambda got: bool(np.array_equal(got, want))

        return [
            (lambda: conv2d_relu_cluster(cluster, i["image"], i["weights"]),
             equal(g["conv"])),
            (lambda: conv2d_relu_lazy(device, i["image"], i["weights"]),
             equal(g["conv"])),
            (lambda: adjust_brightness_lazy(i["frame"], i["delta"],
                                            device=device),
             equal(g["bright"])),
            (lambda: filtered_sum_simdram(sim, i["table"], i["below"]),
             equal(g["sum"])),
            (lambda: range_scan_simdram(sim, i["column"], i["low"],
                                        i["high"]),
             equal(g["scan"])),
            (lambda: knn_classify_simdram(sim, i["refs"], i["labels"],
                                          i["queries"]),
             equal(g["knn"])),
        ]

    def setup(self, inputs, tracer=None):
        cluster = SimdramCluster(
            4, small_config(cols=128, data_rows=256))
        sim = Simdram(small_config(cols=256))
        state = (cluster, sim, lazy.device(cluster))
        ops = self._ops(state, inputs)
        warm(lambda: [call() for call, _ in ops],
             lambda: cache_signature(self.modules(state)))
        return state

    def modules(self, state):
        cluster, sim, _ = state
        return [*cluster.modules, sim]

    def counts(self, state) -> dict[str, float]:
        cluster, _, device = state
        paging = cluster.paging_stats()
        return {**super().counts(state),
                "runtime.spills": paging.n_spills,
                "runtime.fills": paging.n_fills,
                "runtime.paged_bits": paging.spill_bits + paging.fill_bits,
                "lazy.kernels_compiled": device.kernel_cache_size}

    def run(self, state, inputs, meter, op_span=None) -> Outcome:
        return timed_ops(self._ops(state, inputs) * self.ROUNDS, meter,
                         op_span)

    def close(self, state) -> None:
        state[0].close()


# ---------------------------------------------------------------------------
# serving tiers
# ---------------------------------------------------------------------------
SERVE_OPS = ("add", "sub", "min", "max")
SERVE_WIDTHS = (8, 16)
SERVE_LANES = (1, 4, 16)
SERVE_MANIFEST = [(op, width) for op in SERVE_OPS for width in SERVE_WIDTHS]
TENANTS = 4


def serve_config() -> SimdramConfig:
    """The 64-lane module every serve-tier workload runs on, small so
    the execution layer does little and serving does the work."""
    return small_config(cols=32, data_rows=256)


class ServeRequests(Workload):
    """Single requests through ``SimdramService``, closed loop."""

    synchronous = False

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 4])
        # Every (op, width, lanes) combination equally often, so the
        # modeled cost of the mix does not depend on the seed; the seed
        # draws the few left over, the order and the operand values.
        shapes = [(op, width, lanes) for op in SERVE_OPS
                  for width in SERVE_WIDTHS for lanes in SERVE_LANES]
        mix = shapes * (self.block_ops // len(shapes))
        mix += [shapes[i] for i in rng.integers(
            len(shapes), size=self.block_ops - len(mix))]
        requests = []
        for index in rng.permutation(len(mix)):
            op_name, width, lanes = mix[index]
            operands = [rng.integers(0, 1 << width, lanes)
                        for _ in range(2)]
            requests.append((op_name, width, operands,
                             *encoded_golden(op_name, operands, width)))
        return {"requests": requests}

    def _target(self):
        return SimdramCluster(1, config=serve_config())

    def setup(self, inputs, tracer=None):
        target = self._target()
        service = SimdramService(target, tracer=tracer)
        service.warmup(SERVE_MANIFEST)
        one = np.ones(1, dtype=np.int64)

        def one_pass():
            handles = [service.submit(op, one, one, width=width)
                       for op, width in SERVE_MANIFEST]
            for handle in handles:
                handle.result(timeout=60)

        warm(one_pass, lambda: self._signature(target))
        return target, service

    def _signature(self, target):
        return cache_signature(target.modules)

    def modules(self, state):
        return state[0].modules

    def counts(self, state) -> dict[str, float]:
        return {**super().counts(state), **service_counts(state[1])}

    def run(self, state, inputs, meter, op_span=None) -> Outcome:
        service = state[1]
        requests = inputs["requests"]

        def submit(i):
            op_name, width, operands, _, _ = requests[i]
            return service.submit(op_name, *operands, width=width,
                                  tenant=f"tenant{i % TENANTS}")

        return run_loop(
            closed_loop, self, meter, submit,
            lambda i, result: same_bits(result, *requests[i][3:]))

    def probe(self, state, inputs) -> dict[str, float]:
        """The same requests dispatched straight on the cluster: what a
        request costs without admission, packing and the flush policy."""
        cluster = state[0]
        return {"direct_s": median_seconds(
            (lambda r=request: cluster.map(r[0], *r[2], width=r[1]))
            for request in inputs["requests"][:self.PROBES])}

    def close(self, state) -> None:
        target, service = state
        service.close()
        target.close()


def service_counts(service) -> dict[str, float]:
    """Cumulative serving-layer counters from ``service.stats()``
    (ratios are rebuilt from these per block, so warm-up traffic does
    not dilute them)."""
    stats = service.stats()
    packing, paging = stats["packing"], stats["paging"]
    return {
        "serve.dispatches": packing["dispatches"],
        "serve.packed_requests": packing["packed_requests"],
        "serve.occupancy_sum": (packing["lane_occupancy"]
                                * packing["dispatches"]),
        "serve.shed": stats["requests"]["shed"],
        "serve.requeued": stats["failover"]["requeued_requests"],
        "runtime.spills": paging["n_spills"],
        "runtime.fills": paging["n_fills"],
        "runtime.paged_bits": paging["spill_bits"] + paging["fill_bits"],
    }


class ServeSolo(ServeRequests):
    name = "serve_solo"
    block_ops = 150
    slice_ops = 50
    min_blocks = 5
    outstanding = 1


class ServePacked(ServeRequests):
    name = "serve_packed"
    block_ops = 2000
    slice_ops = 500
    min_blocks = 8
    outstanding = 64


class ServeReplicas(ServeRequests):
    """The same traffic with two replica processes as the target."""

    name = "serve_replicas"
    block_ops = 400
    slice_ops = 100
    min_blocks = 4
    outstanding = 64

    def _target(self):
        return ReplicaRouter(2, config=serve_config(),
                             manifest=SERVE_MANIFEST)

    def _signature(self, target):
        return tuple(stats["kernels_cached"]
                     for stats in target.replicas.stats().values())

    def modules(self, state):
        return []  # the modules live in the replica processes

    def child_pids(self, state) -> list[int]:
        return [replica.process.pid
                for replica in state[0].replicas.replicas]

    def probe(self, state, inputs) -> dict[str, float]:
        """Sequential round trips to replica 0 through the transport
        (pickle + shared memory), with nothing else in flight."""
        replicas = state[0].replicas
        trips = []
        for op_name, width, operands, *_ in inputs["requests"][:self.PROBES]:
            desc = WorkDescriptor(kind="op", op_name=op_name, root=None,
                                  slot_names=(), width=width, engine="auto")
            start = now()
            replicas.submit(0, desc, operands, len(operands[0])).result(60)
            trips.append(now() - start)
        tenth = max(1, len(trips) // 10)
        rtt = float(np.median(trips))
        return {"direct_s": rtt,
                "runtime.replica_rtt_s": rtt,
                "runtime.replica_rtt_drift": float(
                    np.mean(trips[-tenth:]) / np.mean(trips[:tenth]))}

    def sim(self, state, inputs) -> np.ndarray:
        """Replicas report only modeled busy time to the parent, so
        energy and commands are *estimated*: every dispatch replays its
        kernel's µProgram once on each bank, with the dispatches' kernel
        mix taken from the requests' (transposition I/O left out)."""
        router, service = state
        busy_ns = sum(stats["busy_ns"]
                      for stats in router.replicas.stats().values())
        config = serve_config()
        per_dispatch = np.mean(
            [_program_cost(op_name, width, config)
             for op_name, width, *_ in inputs["requests"]], axis=0)
        dispatches = service.stats()["packing"]["dispatches"]
        return np.array([busy_ns, *(dispatches * per_dispatch)])


_PROGRAM_COSTS: dict = {}


def _program_cost(op_name: str, width: int,
                  config: SimdramConfig) -> np.ndarray:
    """``[energy nJ, commands]`` of one all-bank replay of a catalog
    µProgram (compiled once per process, outside every timed region)."""
    key = (op_name, width)
    if key not in _PROGRAM_COSTS:
        program = compile_operation(get_operation(op_name), width)
        stats = program.stats().scaled(config.geometry.banks)
        _PROGRAM_COSTS[key] = np.array([
            stats.energy_nj(config.timing, config.geometry, config.energy),
            stats.n_commands])
    return _PROGRAM_COSTS[key]


class StreamSteps(Workload):
    """Eight-step streams through ``StreamingServer``, 16 in flight."""

    name = "stream_steps"
    block_ops = 300
    slice_ops = 100
    min_blocks = 6
    outstanding = 16
    synchronous = False
    STEPS = steps_per_op = 8
    WIDTH = 16
    LANES = 8

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 5])
        # The bias folds into the MIG, so it is an input too; odd
        # biases cost 377 to 380 commands, even ones as few as 333.
        step = affine_relu_step(2 * int(rng.integers(8)) + 1)
        streams = []
        for _ in range(self.block_ops):
            x0 = rng.integers(0, 1 << 12, self.LANES)
            weights = rng.integers(0, 1 << 12, self.LANES)
            streams.append((x0, weights, stream_golden(
                step, x0, self.STEPS, {"w": weights}, self.WIDTH)))
        return {"step": step, "streams": streams}

    def setup(self, inputs, tracer=None):
        cluster = SimdramCluster(1, config=serve_config())
        service = SimdramService(cluster, tracer=tracer)
        service.warmup([(inputs["step"], self.WIDTH)])
        server = StreamingServer(service)
        one = np.ones(1, dtype=np.int64)
        warm(lambda: server.submit(inputs["step"], one, n_steps=1,
                                   width=self.WIDTH, feeds={"w": one}
                                   ).result(timeout=60),
             lambda: cache_signature(cluster.modules))
        return cluster, service, server

    def modules(self, state):
        return state[0].modules

    def counts(self, state) -> dict[str, float]:
        return {**super().counts(state), **service_counts(state[1])}

    def run(self, state, inputs, meter, op_span=None) -> Outcome:
        server = state[2]
        streams = inputs["streams"]

        def submit(i):
            x0, weights, _ = streams[i]
            return server.submit(inputs["step"], x0, n_steps=self.STEPS,
                                 width=self.WIDTH, feeds={"w": weights},
                                 tenant=f"tenant{i % TENANTS}")

        return run_loop(
            closed_loop_fifo, self, meter, submit,
            lambda i, result: same_bits(result, streams[i][2], self.WIDTH))

    def probe(self, state, inputs) -> dict[str, float]:
        """One step dispatched straight on the cluster."""
        cluster = state[0]
        return {"direct_s": median_seconds(
            (lambda s=stream: cluster.map_expr(
                inputs["step"], {"x": s[0], "w": s[1]}, width=self.WIDTH))
            for stream in inputs["streams"][:self.PROBES])}

    def close(self, state) -> None:
        cluster, service, server = state
        server.close()
        service.close()
        cluster.close()


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CompileCold(), BulkMap(), ClusterApps(),
                        ServeSolo(), ServePacked(), ServeReplicas(),
                        StreamSteps())
}
