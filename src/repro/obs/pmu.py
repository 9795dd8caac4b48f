"""Device performance-monitoring unit (PMU) for the simulated DRAM.

Real PuD evaluation needs hardware-counter-style introspection of the
memory device itself, not just the serving pipeline: row activations,
the ACT/PRE vs AAP command mix, per-bank occupancy, transposition
traffic and modeled energy.  This module is that counter file.

A command is counted once, where it is issued: every bank's
:class:`~repro.dram.commands.CommandStats` is exact on every engine,
RowClone included, and counts the host bits through the transposition
unit's port.  The PMU holds each registered module weakly (a dropped
module's row goes with it) and reads those at scrape: per-bank AP/AAP
counts, activations and busy time, transposition bits, and command
energy at a fixed DDR4-2400 reference (host I/O excluded).  It tallies
only what banks cannot know, at three hook sites:

* ``DramModule.__init__`` registers the module (its ``pmu_id``);
* ``ControlUnit.execute_on_module`` tallies one µProgram dispatch —
  participating banks and kernel identity, O(1);
* ``SimdramCluster._account`` folds each dispatch boundary's modeled
  busy time into a windowed utilization timeline (the heatmap source)
  and emits a ``pmu.delta`` flight-recorder event.

The PMU sees only the device: tenants, requests and failovers belong
to the serve store (:class:`~repro.serve.metrics.ServeMetrics`).
Everything exports through a registry collector named ``"pmu"``
(``repro_pmu_*``; :meth:`DevicePmu.register`).
One compute subarray is modeled per bank, so bank rows double as
subarray rows.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import deque
from dataclasses import dataclass, field

from repro.dram.energy import DramEnergy
from repro.dram.timing import DramTiming
from repro.obs import clock
from repro.obs.flightrec import get_flight_recorder
from repro.obs.metrics import MetricsRegistry, Sample, get_registry

#: Process-wide module id source: ids stay unique even when tests
#: build several DevicePmu instances.
_module_ids = itertools.count()

#: Reference timing/energy model for busy time and energy — fixed
#: (DDR4-2400) so counters stay comparable across modules whatever
#: timing config their owners carry.
_TIMING = DramTiming.ddr4_2400()
_ENERGY = DramEnergy.ddr4()

#: Default size of the utilization timeline: 240 windows of 250 ms
#: covers the last minute of device activity.
DEFAULT_WINDOW_S = 0.25
DEFAULT_N_WINDOWS = 240


#: The exported series per scope: (name, counter field, extra labels,
#: kind, help).
_MODULE_SERIES = (
    ("repro_pmu_dispatches_total", "dispatches", (), "counter",
     "uProgram dispatches sampled by the device PMU"),
    ("repro_pmu_transposition_bits_total", "transposition_bits", (),
     "counter", "bits moved through the transposition unit's striped "
     "I/O port"),
    ("repro_pmu_energy_nj_total", "energy_nj", (), "counter",
     "modeled device command energy"),
    ("repro_pmu_lane_duty_cycle", "duty_cycle", (), "gauge",
     "mean fraction of banks participating per dispatch"),
    ("repro_pmu_window_utilization", "utilization", (), "gauge",
     "modeled busy fraction over the recent utilization windows"),
)
_BANK_SERIES = (
    ("repro_pmu_row_activations_total", "activations", (), "counter",
     "row activations (ACT/PRE pairs) per bank"),
    ("repro_pmu_commands_total", "n_ap", (("kind", "ap"),), "counter",
     "AP / AAP commands issued per bank"),
    ("repro_pmu_commands_total", "n_aap", (("kind", "aap"),), "counter",
     "AP / AAP commands issued per bank"),
)
_KERNEL_SERIES = (
    ("repro_pmu_kernel_dispatches_total", "dispatches", (), "counter",
     "device dispatches per kernel identity"),
    ("repro_pmu_kernel_activations_total", "activations", (), "counter",
     "row activations per kernel identity"),
)


@dataclass
class ModuleCounters:
    """What the PMU tallies for one registered module: only what its
    banks cannot count themselves."""

    module: weakref.ref
    dispatches: float = 0.0
    #: Sum over dispatches of participating-bank count — the
    #: numerator of the lane-occupancy duty cycle.
    bank_dispatches: float = 0.0
    #: Utilization timeline: (window index, modeled busy ns) pairs.
    windows: deque = field(default_factory=deque)


def _read_banks(module) -> dict:
    """A module's counter row, read from its banks' command stats."""
    banks = []
    bits = energy_nj = 0.0
    for bank in module.banks:
        stats = bank.stats
        banks.append({"n_ap": stats.n_ap, "n_aap": stats.n_aap,
                      "activations": stats.n_activations,
                      "busy_ns": stats.latency_ns(_TIMING)})
        bits += stats.host_bits_read + stats.host_bits_written
        energy_nj += stats.command_energy_nj(_TIMING, module.geometry,
                                             _ENERGY)
    # Lockstep: the module is busy as long as its busiest bank (bank 0,
    # which joins every broadcast).
    return {"n_banks": len(banks), "lanes": module.lanes,
            "transposition_bits": bits, "energy_nj": energy_nj,
            "busy_ns": max(bank["busy_ns"] for bank in banks),
            "banks": banks}


class DevicePmu:
    """Per-bank device counters with a windowed utilization timeline.

    Thread-safe; every record is a short critical section over plain
    float adds so the hooks stay cheap enough for the always-on
    ``bench_obs`` overhead gate.
    """

    def __init__(self, *, window_s: float = DEFAULT_WINDOW_S,
                 n_windows: int = DEFAULT_N_WINDOWS) -> None:
        self.window_s = float(window_s)
        self.n_windows = int(n_windows)
        self._lock = threading.Lock()
        self._modules: "dict[int, ModuleCounters]" = {}
        #: Device-level per-(op, width) counts (control-unit attribution).
        self._kernels: "dict[tuple, dict]" = {}

    # ------------------------------------------------------------------
    # recording (the hook API)
    # ------------------------------------------------------------------
    def register_module(self, module) -> int:
        """Register a :class:`~repro.dram.bank.DramModule` (held
        weakly); returns its ``pmu_id``."""
        module_id = next(_module_ids)
        with self._lock:
            self._live()
            self._modules[module_id] = ModuleCounters(weakref.ref(module))
        return module_id

    def record_dispatch(self, module_id: int, n_banks: int,
                        kernel: "tuple[str, int]",
                        activations: int) -> None:
        """One µProgram dispatch of ``kernel`` (``(op, width)``) on
        ``n_banks`` banks; ``activations`` is one bank's share (banks
        run in lockstep)."""
        with self._lock:
            row = self._modules.get(module_id)
            if row is None:
                return
            row.dispatches += 1
            row.bank_dispatches += n_banks
            cell = self._kernels.get(kernel)
            if cell is None:
                cell = self._kernels[kernel] = {"dispatches": 0.0,
                                                "activations": 0.0}
            cell["dispatches"] += 1
            cell["activations"] += activations * n_banks

    def record_boundary(self, module_id: int, busy_ns: float,
                        io_bits: int = 0) -> None:
        """Cluster dispatch boundary: fold the modeled busy-time delta
        into the utilization timeline and flight-record the delta."""
        bucket = int(clock.now() / self.window_s)
        with self._lock:
            row = self._modules.get(module_id)
            if row is None:
                return
            if row.windows and row.windows[-1][0] == bucket:
                row.windows[-1][1] += busy_ns
            else:
                row.windows.append([bucket, busy_ns])
                while len(row.windows) > self.n_windows:
                    row.windows.popleft()
        get_flight_recorder().record(
            "pmu.delta", module=module_id, busy_ns=busy_ns,
            io_bits=io_bits)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _live(self) -> "list[tuple]":
        """``(module_id, tally, module)`` for every live module,
        forgetting the dropped ones.  Caller holds the lock."""
        live = []
        for module_id, row in list(self._modules.items()):
            module = row.module()
            if module is None:
                del self._modules[module_id]
            else:
                live.append((module_id, row, module))
        return live

    def utilization(self, lookback: int = 4) -> "dict[int, float]":
        """Recent modeled utilization per module: busy-ns over the
        last ``lookback`` wall windows / that much wall time."""
        horizon = int(clock.now() / self.window_s) - lookback
        span_ns = lookback * self.window_s * 1e9
        out: "dict[int, float]" = {}
        with self._lock:
            for module_id, row, _ in self._live():
                busy = sum(ns for bucket, ns in row.windows
                           if bucket > horizon)
                out[module_id] = min(1.0, busy / span_ns)
        return out

    def timeline(self) -> "list[dict]":
        """The windowed heatmap source: one entry per (module, window)
        with the window's start time and modeled busy ns."""
        out = []
        with self._lock:
            for module_id, row, _ in self._live():
                for bucket, ns in row.windows:
                    out.append({"module": module_id,
                                "t0": bucket * self.window_s,
                                "busy_ns": ns})
        out.sort(key=lambda e: (e["t0"], e["module"]))
        return out

    def _read(self) -> "tuple[dict, dict]":
        """``(modules, kernels)``: the tallies joined with what the
        live banks say."""
        util = self.utilization()
        with self._lock:
            live = [(module_id, module, row.dispatches,
                     row.bank_dispatches)
                    for module_id, row, module in self._live()]
            kernels = {f"{op}@{width}": dict(cell)
                       for (op, width), cell in self._kernels.items()}
        modules = {}
        for module_id, module, dispatches, bank_dispatches in live:
            row = modules[module_id] = _read_banks(module)
            row["dispatches"] = dispatches
            row["duty_cycle"] = (bank_dispatches
                                 / (dispatches * row["n_banks"])
                                 if dispatches else 0.0)
            row["utilization"] = util.get(module_id, 0.0)
        return modules, kernels

    def snapshot(self) -> dict:
        """Structured copy of every counter (dashboard / JSON food)."""
        modules, kernels = self._read()
        return {"modules": modules, "kernels": kernels}

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def samples(self) -> "list[Sample]":
        """Registry-collector payload (``repro_pmu_*`` series)."""
        modules, kernels = self._read()
        out: "list[Sample]" = []

        def emit(series, cell: dict, labels: tuple) -> None:
            out.extend(Sample(name, cell[key], labels + extra, kind, text)
                       for name, key, extra, kind, text in series)

        for module_id, row in modules.items():
            labels = (("module", str(module_id)),)
            emit(_MODULE_SERIES, row, labels)
            for index, bank in enumerate(row["banks"]):
                emit(_BANK_SERIES, bank, labels + (("bank", str(index)),))
        for kernel, cell in kernels.items():
            emit(_KERNEL_SERIES, cell, (("kernel", kernel),))
        return out

    def register(self, registry: "MetricsRegistry | None" = None
                 ) -> None:
        """Attach the PMU collector (named ``"pmu"``, so repeated
        registration replaces rather than stacks)."""
        (registry or get_registry()).register_collector(
            self.samples, name="pmu")


_GLOBAL_PMU = DevicePmu()
_GLOBAL_PMU.register(get_registry())


def get_pmu() -> DevicePmu:
    """The process-global device PMU (what the hooks feed)."""
    return _GLOBAL_PMU
