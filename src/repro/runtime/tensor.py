"""Device-resident tensors sharded across a SIMDRAM cluster.

A :class:`DeviceTensor` is the runtime's handle to a host vector that
lives in DRAM between operations: it is cut into contiguous
:class:`TensorShard` chunks of at most one module's SIMD lanes each,
assigned round-robin to the cluster's modules.  Shards of equally-sized
tensors therefore line up module-by-module, which is what lets a
cluster operation dispatch each shard to the module that already holds
its operands — no host round trips between operations.

A shard is *resident* (``array`` set, rows allocated in its module) or
*spilled* (``host`` holds the values; the paging layer faults it back
in on next use).  Exactly one of the two is set for a live shard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExecutionError, OperationError

if TYPE_CHECKING:
    from concurrent.futures import Future

    from repro.core.framework import SimdramArray
    from repro.runtime.cluster import SimdramCluster


def plan_shards(n_total: int, n_modules: int,
                lanes: int) -> list[tuple[int, int, int]]:
    """Cut ``n_total`` elements into ``(module_index, offset, count)``
    chunks of at most ``lanes`` elements, round-robin over modules."""
    if n_total < 1:
        raise OperationError("a DeviceTensor needs at least one element")
    chunks = []
    offset = 0
    j = 0
    while offset < n_total:
        count = min(lanes, n_total - offset)
        chunks.append((j % n_modules, offset, count))
        offset += count
        j += 1
    return chunks


class TensorShard:
    """One module-sized chunk of a :class:`DeviceTensor`."""

    def __init__(self, module_index: int, offset: int, n_elements: int,
                 width: int, signed: bool) -> None:
        self.module_index = module_index
        self.offset = offset
        self.n_elements = n_elements
        self.width = width
        self.signed = signed
        #: Resident handle (rows allocated in the module), or ``None``.
        self.array: "SimdramArray | None" = None
        #: Spilled values on the host, or ``None`` while resident.
        self.host: np.ndarray | None = None
        #: Pin count; the paging layer never evicts a pinned shard.
        self.pins = 0

    @property
    def resident(self) -> bool:
        return self.array is not None and self.array.status == "live"

    @property
    def rows(self) -> int:
        """D-group rows this shard occupies while resident."""
        return self.width

    def __repr__(self) -> str:
        state = ("resident" if self.resident
                 else "spilled" if self.host is not None else "empty")
        return (f"TensorShard(module={self.module_index}, "
                f"[{self.offset}, {self.offset + self.n_elements}), "
                f"{state})")


class DeviceTensor:
    """A host vector resident in a cluster's DRAM, sharded over modules.

    Handles are returned by cluster operations before their values need
    exist: the values materialize when the scheduler runs the producing
    job, on the submitting thread or, behind a busy module, on the
    thread holding that module.
    :meth:`to_numpy` and :meth:`free` are themselves scheduled jobs, so
    they observe every previously submitted operation on this tensor.
    """

    def __init__(self, cluster: "SimdramCluster",
                 shards: list[TensorShard], n_elements: int, width: int,
                 signed: bool) -> None:
        self._cluster = cluster
        self.shards = shards
        self.n_elements = n_elements
        self.width = width
        self.signed = signed
        self.status = "live"  # "live" | "freed"
        # Scheduler bookkeeping (guarded by the scheduler's lock): the
        # job that last wrote this tensor and the jobs currently
        # reading it.  A new reader depends on the writer; a new writer
        # depends on both.
        self.last_writer: "Future | None" = None
        self.reader_futures: list["Future"] = []

    def require_live(self) -> None:
        if self.status != "live":
            raise ExecutionError(
                f"DeviceTensor of {self.n_elements} elements is "
                f"{self.status}")

    def sharding(self) -> list[tuple[int, int]]:
        """The ``(module_index, n_elements)`` layout, for alignment
        checks between operands of one operation."""
        return [(s.module_index, s.n_elements) for s in self.shards]

    def to_numpy(self) -> np.ndarray:
        """Gather the tensor back to the host (waits for producers)."""
        return self._cluster.read_tensor(self)

    def free(self) -> None:
        """Release every shard's rows (idempotent, ordered after all
        outstanding jobs touching this tensor)."""
        if self.status == "live":
            self._cluster.free_tensor(self)

    @property
    def shape(self) -> tuple[int]:
        """Numpy-style shape (tensors are 1-D vectors)."""
        return (self.n_elements,)

    @property
    def dtype(self) -> str:
        """Logical element type, numpy-flavored (``u8``/``i16``/…)."""
        return f"{'i' if self.signed else 'u'}{self.width}"

    def __len__(self) -> int:
        return self.n_elements

    def __repr__(self) -> str:
        resident = sum(1 for s in self.shards if s.resident)
        return (f"DeviceTensor(shape={self.shape}, {self.dtype}, "
                f"{len(self.shards)} shards, {resident} resident, "
                f"{self.status})")
