"""Execution layer (Step 3): control unit, execution engines and
compiled plans, row layout binding, vertical memory allocation and the
transposition unit."""

from repro.exec.control_unit import ControlUnit, ProgramKey
from repro.exec.engines import (
    AUTO,
    CompiledEngine,
    ExecutionEngine,
    PerBankEngine,
    VectorizedEngine,
    get_engine,
    list_engines,
    resolve_engine,
)
from repro.exec.layout import RowLayout
from repro.exec.memory import RowBlock, VerticalAllocator
from repro.exec.plan import ExecutionPlan, PlanStep, StepKind, compile_plan
from repro.exec.tracker import ObjectTracker, TrackedObject
from repro.exec.transposition import TranspositionCost, TranspositionUnit

__all__ = [
    "ControlUnit",
    "ProgramKey",
    "AUTO",
    "ExecutionEngine",
    "PerBankEngine",
    "VectorizedEngine",
    "CompiledEngine",
    "get_engine",
    "list_engines",
    "resolve_engine",
    "RowLayout",
    "RowBlock",
    "VerticalAllocator",
    "ExecutionPlan",
    "PlanStep",
    "StepKind",
    "compile_plan",
    "ObjectTracker",
    "TrackedObject",
    "TranspositionCost",
    "TranspositionUnit",
]
