"""Core SIMDRAM framework: operation catalog, compilation pipeline, and
the end-to-end :class:`Simdram` facade."""

from repro.core.compiler import build_mig, compile_operation
from repro.core.framework import Simdram, SimdramArray, SimdramConfig
from repro.core.operations import (
    BACKENDS,
    CATALOG,
    PAPER_OPERATIONS,
    OperationSpec,
    backend_style,
    get_operation,
    register_operation,
)

__all__ = [
    "BACKENDS",
    "backend_style",
    "build_mig",
    "compile_operation",
    "Simdram",
    "SimdramArray",
    "SimdramConfig",
    "CATALOG",
    "PAPER_OPERATIONS",
    "OperationSpec",
    "get_operation",
    "register_operation",
]
