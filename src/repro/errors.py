"""Exception hierarchy for the SIMDRAM reproduction.

All exceptions raised by :mod:`repro` derive from :class:`SimdramError` so
callers can catch framework failures with a single ``except`` clause while
still being able to distinguish the layer that failed.
"""

from __future__ import annotations


class SimdramError(Exception):
    """Base class for every error raised by this library."""


class GeometryError(SimdramError):
    """A DRAM geometry parameter is inconsistent or out of range."""


class AddressError(SimdramError):
    """A row/column address does not exist or is illegal for the command."""


class CommandError(SimdramError):
    """A DRAM command sequence violates the substrate's protocol."""


class SynthesisError(SimdramError):
    """Step 1 failed: a circuit could not be converted to MAJ/NOT form."""


class SchedulingError(SimdramError):
    """Step 2 failed: a MIG could not be mapped to legal AAP/AP sequences."""


class AllocationError(SimdramError):
    """The vertical-layout memory allocator ran out of rows or misaligned."""


class IsaError(SimdramError):
    """A bbop instruction is malformed or cannot be decoded."""


class ExecutionError(SimdramError):
    """Step 3 failed: the control unit could not execute a µProgram."""


class EngineError(ExecutionError):
    """An execution engine is unknown, unavailable, or cannot run the
    requested program (e.g. ``compiled`` on a traced module).
    Subclasses :class:`ExecutionError` so legacy callers that catch
    engine-selection failures keep working."""


class ReplicaError(ExecutionError):
    """The multi-process replica tier failed a request: a replica
    process died with no survivor to fail over to, a payload could not
    cross the process boundary, or the replica set is shutting down.
    Subclasses :class:`ExecutionError` because from the caller's view a
    replicated dispatch is just an execution that could not complete."""


class OperationError(SimdramError):
    """An operation is unknown, or its operands are invalid."""


class AdmissionError(SimdramError):
    """The serving layer rejected a request (queue full or closed)."""


class DeadlineExceeded(SimdramError):
    """A request's SLO deadline lapsed before it could be served, so
    the serving scheduler shed it without executing — or a failover
    found the request's remaining budget already spent.  Distinct from
    :class:`AdmissionError` (never admitted) and from execution
    failures (ran and broke): a shed request consumed no lanes."""


class ConfigError(SimdramError):
    """A performance/energy/reliability model was configured inconsistently."""
