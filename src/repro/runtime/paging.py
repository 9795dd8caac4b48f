"""Paging layer: spill cold shards to host, fault them back on use.

Each cluster module gets one :class:`PagingManager`.  It registers
itself as the module allocator's ``reclaim`` hook, so any row
allocation that would fail — an operand, an output, or a µProgram's
scratch reservation — first evicts least-recently-used *unpinned*
resident shards (through the transposition unit, like any other host
traffic) and retries.  Working sets larger than a subarray's D-group
therefore run to completion; only a request that cannot be satisfied
even with every evictable shard spilled raises
:class:`~repro.errors.AllocationError`.

Spills and fills are counted in a per-module
:class:`~repro.dram.commands.CommandStats` (``n_spills``/``spill_bits``
etc.); the raw channel traffic additionally lands in the subarrays'
host-I/O counters, so the perf model's I/O time and energy include
paging automatically.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable

from repro.dram.commands import CommandStats
from repro.errors import ExecutionError

if TYPE_CHECKING:
    from repro.core.framework import Simdram
    from repro.runtime.tensor import TensorShard


class PagingManager:
    """LRU eviction of device-resident tensor shards for one module.

    Not thread-safe by itself: the cluster touches each manager (and
    its module) only from subtasks holding that module's scheduler
    lock.
    """

    def __init__(self, sim: "Simdram") -> None:
        self.sim = sim
        #: Spill/fill accounting for this module.
        self.stats = CommandStats()
        #: Resident shards in LRU order (oldest first).
        self._resident: "OrderedDict[TensorShard, None]" = OrderedDict()
        sim._allocator.set_reclaim(self._reclaim)

    # ------------------------------------------------------------------
    # residency bookkeeping
    # ------------------------------------------------------------------
    def register(self, shard: "TensorShard") -> None:
        """Start managing a shard that just became resident."""
        self._resident[shard] = None
        self._resident.move_to_end(shard)

    def touch(self, shard: "TensorShard") -> None:
        """Mark a shard most-recently-used."""
        if shard in self._resident:
            self._resident.move_to_end(shard)

    def unregister(self, shard: "TensorShard") -> None:
        """Stop managing a shard (freed or evicted)."""
        self._resident.pop(shard, None)

    @property
    def resident_shards(self) -> list["TensorShard"]:
        return list(self._resident)

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def pinning(self, shards: Iterable["TensorShard"]):
        """Pin ``shards`` for the duration of one operation, so the
        allocations it performs (outputs, µProgram scratch) can never
        evict its own operands."""
        shards = list(shards)
        for shard in shards:
            shard.pins += 1
        try:
            yield
        finally:
            for shard in shards:
                shard.pins -= 1

    # ------------------------------------------------------------------
    # eviction (the allocator's reclaim hook)
    # ------------------------------------------------------------------
    def _reclaim(self, width: int) -> bool:
        """Evict the least-recently-used unpinned shard; one at a time,
        the allocator retries after every successful eviction."""
        for shard in self._resident:
            if shard.pins == 0:
                self.evict(shard)
                return True
        return False

    def evict(self, shard: "TensorShard") -> None:
        """Spill one resident shard to host memory."""
        self.unregister(shard)
        shard.host = self.sim.spill(shard.array, stats=self.stats)
        shard.array = None

    def ensure_resident(self, shard: "TensorShard") -> None:
        """Fault a shard in if it was evicted; touch it either way."""
        if shard.resident:
            self.touch(shard)
            return
        if shard.host is None:
            raise ExecutionError(
                f"{shard!r} has neither resident rows nor a spilled "
                "host copy (tensor freed?)")
        values = shard.host
        shard.array = self.sim.array(values, shard.width,
                                     signed=shard.signed)
        shard.host = None
        self.stats.record_fill(shard.n_elements * shard.width)
        self.register(shard)
