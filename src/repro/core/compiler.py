"""The SIMDRAM three-step compilation pipeline (paper §3, Fig. 1).

``compile_operation`` chains:

* **Step 1** — instantiate the operation's gate-level circuit, convert it
  to a majority-inverter graph, and optimize it to minimize row
  activations (:mod:`repro.logic`);
* **Step 2** — allocate operands/temporaries to row spaces and schedule
  the MIG into an AAP/AP µProgram (:mod:`repro.uprog`).

Both steps live in :func:`repro.core.fuse.compile_kernel`, the one
compile body behind every kind of kernel; this module keeps the
per-operation entry points.  Step 3 (execution) is performed by the
control unit at ``bbop`` time (:mod:`repro.exec`).  The ``backend``
argument selects the substrate style (see
:data:`repro.core.operations.BACKENDS`).
"""

from __future__ import annotations

from functools import lru_cache

from repro.core import fuse
from repro.core.expr import Expr
from repro.core.operations import OperationSpec, backend_style
from repro.logic.mig import Mig
from repro.logic.optimize import optimize
from repro.uprog.program import MicroProgram
from repro.uprog.scheduler import ScheduleOptions


def build_mig(spec: OperationSpec, width: int, backend: str = "simdram",
              optimize_mig: bool = True) -> Mig:
    """Step 1: circuit -> (optimized) MIG for one operation/width."""
    circuit = spec.build_circuit(width, backend_style(backend))
    mig = Mig.from_circuit(circuit)
    if optimize_mig:
        mig, _ = optimize(mig)
    return mig


def compile_operation(spec: OperationSpec, width: int,
                      backend: str = "simdram",
                      options: ScheduleOptions | None = None,
                      optimize_mig: bool = True) -> MicroProgram:
    """Steps 1+2: produce the µProgram for one operation at one width.

    A catalog operation is the one-node expression applying it to its
    canonical leaves, so this is :func:`repro.core.fuse.compile_kernel`
    on ``spec`` (which need not be registered), keeping the µProgram.
    """
    return fuse.compile_kernel(spec, width, backend, options,
                               optimize_mig).program


@lru_cache(maxsize=512)
def compile_cached(op: "str | Expr", width: int,
                   backend: str = "simdram") -> MicroProgram:
    """Memoized µProgram of a kernel compiled with default options.

    µProgram compilation is deterministic, so the evaluation harness,
    the application models and the replica router's energy metering
    (the one serving tier that holds no kernels of its own) share one
    compiled program per (kernel, width, backend) — exactly like the
    control unit's scratchpad at boot.  ``Simdram``/``SimdramCluster``
    never consult it: their caches compile under their own
    configuration.
    """
    return fuse.compile_kernel(op, width, backend).program
