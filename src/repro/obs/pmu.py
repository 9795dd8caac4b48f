"""Device performance-monitoring unit (PMU) for the simulated DRAM.

Real PuD evaluation needs hardware-counter-style introspection of the
memory device itself, not just the serving pipeline: row activations,
the ACT/PRE vs AAP command mix, per-bank occupancy, transposition
traffic and modeled energy.  This module is that counter file.

Three hook sites feed it, all on dispatch boundaries (never inside the
bit-serial inner loops):

* :meth:`DramModule.__init__ <repro.dram.bank.DramModule>` registers
  each module with the process-global PMU and tags it with a
  ``pmu_id``; the module's host-I/O paths (``write_rows`` /
  ``read_rows`` — the transposition unit's data port — and the
  row-at-a-time ``write_striped`` / ``read_striped``) record
  transposition traffic.
* :meth:`ControlUnit.execute_on_module
  <repro.exec.control_unit.ControlUnit>` records one *dispatch
  sample* per µProgram execution: the per-bank command-stream delta,
  how many banks participated, and the kernel identity.  Banks run in
  lockstep, so one bank's delta describes every participating bank.
* :meth:`SimdramCluster._account <repro.runtime.cluster.SimdramCluster>`
  records the modeled busy-time delta of each dispatch boundary into a
  windowed utilization timeline (the heatmap source) and emits a
  ``pmu.delta`` flight-recorder event.

The serve layer attributes device work to tenants and kernel
identities via :meth:`DevicePmu.attribute` when a request finishes.

Everything is exported through a registry collector named ``"pmu"``
(``repro_pmu_*`` series) — call :meth:`DevicePmu.register` to attach
it to any :class:`~repro.obs.metrics.MetricsRegistry`.

One compute subarray is modeled per bank, so the per-bank counter rows
double as per-subarray rows.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.obs import clock
from repro.obs.flightrec import get_flight_recorder
from repro.obs.metrics import MetricsRegistry, Sample, get_registry

#: Process-wide module id source: ids stay unique even when tests
#: build several DevicePmu instances.
_module_ids = itertools.count()

#: Default size of the utilization timeline: 240 windows of 250 ms
#: covers the last minute of device activity.
DEFAULT_WINDOW_S = 0.25
DEFAULT_N_WINDOWS = 240


@dataclass
class BankCounters:
    """One bank's (== one compute subarray's) counter row."""

    n_ap: float = 0.0
    n_aap: float = 0.0
    activations: float = 0.0
    busy_ns: float = 0.0

    def as_dict(self) -> dict:
        return {"n_ap": self.n_ap, "n_aap": self.n_aap,
                "activations": self.activations, "busy_ns": self.busy_ns}


@dataclass
class ModuleCounters:
    """Counter bank for one registered :class:`DramModule`."""

    module_id: int
    n_banks: int
    lanes: int
    banks: "list[BankCounters]" = field(default_factory=list)
    dispatches: float = 0.0
    #: Sum over dispatches of participating-bank count — the
    #: numerator of the lane-occupancy duty cycle.
    bank_dispatches: float = 0.0
    transposition_bits: float = 0.0
    energy_nj: float = 0.0
    busy_ns: float = 0.0
    #: Utilization timeline: (window index, modeled busy ns) pairs.
    windows: deque = field(default_factory=deque)

    def duty_cycle(self) -> float:
        """Mean fraction of banks participating per dispatch."""
        if not self.dispatches:
            return 0.0
        return self.bank_dispatches / (self.dispatches * self.n_banks)


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
        #: Device-level per-kernel counts (control-unit attribution).
        self._kernels: "dict[str, dict]" = {}
        #: Serve-level per-(tenant, kernel) attribution.
        self._tenants: "dict[tuple, dict]" = {}

    # ------------------------------------------------------------------
    # recording (the hook API)
    # ------------------------------------------------------------------
    def register_module(self, n_banks: int, lanes: int) -> int:
        """Register a DRAM module; returns its ``pmu_id``."""
        module_id = next(_module_ids)
        row = ModuleCounters(module_id=module_id, n_banks=int(n_banks),
                             lanes=int(lanes),
                             banks=[BankCounters()
                                    for _ in range(int(n_banks))])
        with self._lock:
            self._modules[module_id] = row
        return module_id

    def record_dispatch(self, module_id: int, n_banks: int, per_bank,
                        *, kernel: "str | None" = None,
                        latency_ns: float = 0.0,
                        energy_nj: float = 0.0) -> None:
        """One µProgram dispatch: ``per_bank`` is a single bank's
        :class:`~repro.dram.commands.CommandStats` delta (banks run
        in lockstep, so it describes all ``n_banks`` participants)."""
        with self._lock:
            row = self._modules.get(module_id)
            if row is None:
                return
            row.dispatches += 1
            row.bank_dispatches += n_banks
            row.energy_nj += energy_nj
            row.busy_ns += latency_ns * 1.0
            for bank in row.banks[:n_banks]:
                bank.n_ap += per_bank.n_ap
                bank.n_aap += per_bank.n_aap
                bank.activations += per_bank.n_activations
                bank.busy_ns += latency_ns
            if kernel is not None:
                cell = self._kernels.setdefault(
                    kernel, {"dispatches": 0.0, "activations": 0.0})
                cell["dispatches"] += 1
                cell["activations"] += per_bank.n_activations * n_banks

    def record_transposition(self, module_id: int, bits: int) -> None:
        """Striped-I/O traffic through the transposition unit."""
        with self._lock:
            row = self._modules.get(module_id)
            if row is not None:
                row.transposition_bits += bits

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

    def attribute(self, tenant: str, kernel: str, *, lanes: int = 0,
                  energy_nj: "float | None" = None,
                  requests: int = 1) -> None:
        """Serve-layer attribution of device work to a tenant and a
        kernel identity (called once per finished request)."""
        with self._lock:
            cell = self._tenants.setdefault(
                (tenant, kernel),
                {"requests": 0.0, "lanes": 0.0, "energy_nj": 0.0})
            cell["requests"] += requests
            cell["lanes"] += lanes
            if energy_nj:
                cell["energy_nj"] += energy_nj

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def utilization(self, lookback: int = 4) -> "dict[int, float]":
        """Recent modeled utilization per module: busy-ns over the
        last ``lookback`` wall windows / that much wall time."""
        horizon = int(clock.now() / self.window_s) - lookback
        span_ns = lookback * self.window_s * 1e9
        out: "dict[int, float]" = {}
        with self._lock:
            for module_id, row in self._modules.items():
                busy = sum(ns for bucket, ns in row.windows
                           if bucket > horizon)
                out[module_id] = min(1.0, busy / span_ns)
        return out

    def timeline(self) -> "list[dict]":
        """The windowed heatmap source: one entry per (module, window)
        with the window's start time and modeled busy ns."""
        out = []
        with self._lock:
            for module_id, row in self._modules.items():
                for bucket, ns in row.windows:
                    out.append({"module": module_id,
                                "t0": bucket * self.window_s,
                                "busy_ns": ns})
        out.sort(key=lambda e: (e["t0"], e["module"]))
        return out

    def snapshot(self) -> dict:
        """Structured copy of every counter (dashboard / JSON food)."""
        util = self.utilization()
        with self._lock:
            modules = {}
            for module_id, row in self._modules.items():
                modules[module_id] = {
                    "n_banks": row.n_banks,
                    "lanes": row.lanes,
                    "dispatches": row.dispatches,
                    "duty_cycle": row.duty_cycle(),
                    "utilization": util.get(module_id, 0.0),
                    "transposition_bits": row.transposition_bits,
                    "energy_nj": row.energy_nj,
                    "busy_ns": row.busy_ns,
                    "banks": [bank.as_dict() for bank in row.banks],
                }
            kernels = {k: dict(v) for k, v in self._kernels.items()}
            tenants = {f"{t}/{k}": dict(v)
                       for (t, k), v in self._tenants.items()}
        return {"modules": modules, "kernels": kernels,
                "tenants": tenants}

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def samples(self) -> "list[Sample]":
        """Registry-collector payload (``repro_pmu_*`` series)."""
        util = self.utilization()
        out: "list[Sample]" = []
        with self._lock:
            for module_id, row in self._modules.items():
                mod = str(module_id)
                out.append(Sample(
                    "repro_pmu_dispatches_total", row.dispatches,
                    (("module", mod),), "counter",
                    "uProgram dispatches sampled by the device PMU"))
                out.append(Sample(
                    "repro_pmu_transposition_bits_total",
                    row.transposition_bits, (("module", mod),),
                    "counter", "bits moved through the transposition "
                    "unit's striped I/O port"))
                out.append(Sample(
                    "repro_pmu_energy_nj_total", row.energy_nj,
                    (("module", mod),), "counter",
                    "modeled device energy sampled at dispatch"))
                out.append(Sample(
                    "repro_pmu_lane_duty_cycle", row.duty_cycle(),
                    (("module", mod),), "gauge",
                    "mean fraction of banks participating per "
                    "dispatch"))
                out.append(Sample(
                    "repro_pmu_window_utilization",
                    util.get(module_id, 0.0), (("module", mod),),
                    "gauge", "modeled busy fraction over the recent "
                    "utilization windows"))
                for index, bank in enumerate(row.banks):
                    labels = (("module", mod), ("bank", str(index)))
                    out.append(Sample(
                        "repro_pmu_row_activations_total",
                        bank.activations, labels, "counter",
                        "row activations (ACT/PRE pairs) per bank"))
                    out.append(Sample(
                        "repro_pmu_commands_total", bank.n_ap,
                        labels + (("kind", "ap"),), "counter",
                        "AP / AAP commands issued per bank"))
                    out.append(Sample(
                        "repro_pmu_commands_total", bank.n_aap,
                        labels + (("kind", "aap"),), "counter",
                        "AP / AAP commands issued per bank"))
            for kernel, cell in self._kernels.items():
                labels = (("kernel", kernel),)
                out.append(Sample(
                    "repro_pmu_kernel_dispatches_total",
                    cell["dispatches"], labels, "counter",
                    "device dispatches per kernel identity"))
                out.append(Sample(
                    "repro_pmu_kernel_activations_total",
                    cell["activations"], labels, "counter",
                    "row activations per kernel identity"))
            for (tenant, kernel), cell in self._tenants.items():
                labels = (("tenant", tenant), ("kernel", kernel))
                out.append(Sample(
                    "repro_pmu_tenant_requests_total",
                    cell["requests"], labels, "counter",
                    "finished requests attributed per tenant/kernel"))
                out.append(Sample(
                    "repro_pmu_tenant_lanes_total", cell["lanes"],
                    labels, "counter",
                    "device lanes attributed per tenant/kernel"))
                out.append(Sample(
                    "repro_pmu_tenant_energy_nj_total",
                    cell["energy_nj"], labels, "counter",
                    "modeled energy attributed per tenant/kernel"))
        return out

    def register(self, registry: "MetricsRegistry | None" = None
                 ) -> None:
        """Attach the PMU collector (named ``"pmu"``, so repeated
        registration replaces rather than stacks)."""
        (registry or get_registry()).register_collector(
            self.samples, name="pmu")

    def reset(self) -> None:
        """Zero every counter but keep module registrations."""
        with self._lock:
            for row in self._modules.values():
                row.dispatches = 0.0
                row.bank_dispatches = 0.0
                row.transposition_bits = 0.0
                row.energy_nj = 0.0
                row.busy_ns = 0.0
                row.windows.clear()
                for bank in row.banks:
                    bank.n_ap = bank.n_aap = 0.0
                    bank.activations = bank.busy_ns = 0.0
            self._kernels.clear()
            self._tenants.clear()


_GLOBAL_PMU = DevicePmu()
_GLOBAL_PMU.register(get_registry())


def get_pmu() -> DevicePmu:
    """The process-global device PMU (what the hooks feed)."""
    return _GLOBAL_PMU
