"""SIMDRAM: a framework for bit-serial SIMD processing using DRAM.

Full reproduction of Hajinazar, Oliveira, et al. (ASPLOS 2021).  The
public API centres on :class:`repro.Simdram`:

    >>> from repro import Simdram
    >>> sim = Simdram()
    >>> a = sim.array([1, 2, 3], width=8)
    >>> b = sim.array([10, 20, 30], width=8)
    >>> sim.run("add", a, b).to_numpy()
    array([11, 22, 33])

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.dram` — the DRAM substrate simulator (Ambit B/C/D row
  groups, triple-row activation, RowClone, dual-contact cells);
* :mod:`repro.logic` — circuits, the arithmetic library and
  majority-inverter graphs (framework Step 1);
* :mod:`repro.uprog` — the µProgram scheduler (Step 2);
* :mod:`repro.exec` + :mod:`repro.isa` — control unit, transposition
  unit and the bbop ISA (Step 3 and system integration);
* :mod:`repro.core` — the operation catalog and the Simdram facade;
* :mod:`repro.lazy` — the programmer-transparent lazy tensor frontend
  (ordinary array code captured into fused µPrograms);
* :mod:`repro.ambit` — the Ambit baseline;
* :mod:`repro.perf` — throughput/energy/area models for SIMDRAM, Ambit,
  CPU and GPU;
* :mod:`repro.reliability` — process-variation Monte Carlo;
* :mod:`repro.apps` — the seven application kernels of the paper;
* :mod:`repro.runtime` — the sharded multi-module runtime: clusters,
  device-resident tensors, the paging allocator and the async job
  scheduler;
* :mod:`repro.serve` — the multi-tenant serving layer: lane-packing
  request batcher, admission control, weighted fair scheduling and
  serving telemetry;
* :mod:`repro.obs` — observability: the monotonic clock shim,
  request span tracing with Chrome-trace (Perfetto) export, and the
  unified metrics registry with Prometheus text exposition.
"""

from repro.core.framework import Simdram, SimdramArray, SimdramConfig
from repro.core.operations import CATALOG, PAPER_OPERATIONS, get_operation
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTiming
from repro.errors import SimdramError
from repro.exec.engines import ExecutionEngine, get_engine, list_engines
from repro.runtime import DeviceTensor, SimdramCluster
from repro.serve import ServeConfig, SimdramService

__version__ = "1.2.0"

__all__ = [
    "Simdram",
    "SimdramArray",
    "SimdramConfig",
    "SimdramCluster",
    "SimdramService",
    "ServeConfig",
    "DeviceTensor",
    "ExecutionEngine",
    "get_engine",
    "list_engines",
    "CATALOG",
    "PAPER_OPERATIONS",
    "get_operation",
    "DramGeometry",
    "DramTiming",
    "SimdramError",
    "__version__",
]
