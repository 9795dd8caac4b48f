"""Spill/fill accounting under the serving path.

A packed serve dispatch reserves operand/output/temp rows on each
module; on an over-capacity cluster that reservation must page out
resident :class:`~repro.runtime.DeviceTensor` shards (counted in
``CommandStats.n_spills``/``spill_bits``), the dispatch must still
produce bit-exact results, and reading the evicted tensors afterwards
must fault them back in (``n_fills``/``fill_bits``) with their values
intact.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.runtime import SimdramCluster
from repro.serve import SimdramService

WIDTH = 8
COLS = 32
BANKS = 2
LANES = COLS * BANKS


def tiny_cluster(data_rows: int = 64) -> SimdramCluster:
    """One module with so few D-rows that serving must page."""
    config = SimdramConfig(geometry=DramGeometry.sim_small(
        cols=COLS, data_rows=data_rows, banks=BANKS))
    return SimdramCluster(1, config=config, seed=9)


class TestServePagingCounters:
    def test_packed_dispatch_pages_and_counts(self):
        """Packed serving on a nearly-full module evicts resident
        shards, counts the traffic, and stays bit-exact."""
        rng = np.random.default_rng(4)
        with tiny_cluster(data_rows=64) as cluster:
            # Fill most of the 64 D-rows with resident tensors
            # (6 x 8 rows = 48), leaving too little for the serve
            # dispatch's operand + output + temp reservation.
            hosts = [rng.integers(0, 256, LANES) for _ in range(6)]
            residents = [cluster.tensor(h, WIDTH) for h in hosts]
            cluster.synchronize()
            assert cluster.paging_stats().n_spills == 0

            with SimdramService(cluster) as service:
                requests = []
                with service.hold():   # one pack of four
                    for _ in range(4):
                        a = rng.integers(0, 256, 16)
                        b = rng.integers(0, 256, 16)
                        requests.append(
                            (service.submit("add", a, b, width=WIDTH),
                             (a + b) % 256))
                for handle, golden in requests:
                    assert np.array_equal(handle.result(60), golden)

                stats = service.stats()
                # One packed dispatch carried all four requests...
                assert stats["packing"]["dispatches"] == 1
                assert stats["packing"]["packed_requests"] == 4
                # ...and its row reservation had to evict residents.
                paging = stats["paging"]
                assert paging["n_spills"] > 0
                assert paging["spill_bits"] == paging["n_spills"] \
                    * LANES * WIDTH

            # Gathers serve spilled shards straight from the host
            # copy (no fill)...
            for host, tensor in zip(hosts, residents):
                assert np.array_equal(tensor.to_numpy(), host)
            assert cluster.paging_stats().n_fills == 0
            # ...but *computing* on an evicted tensor faults it back
            # in, bit-exactly, and counts the fill traffic.
            doubled = cluster.run("add", residents[0], residents[0])
            assert np.array_equal(doubled.to_numpy(),
                                  (2 * hosts[0]) % 256)
            paging = cluster.paging_stats()
            assert paging.n_fills > 0
            assert paging.fill_bits == paging.n_fills * LANES * WIDTH
            doubled.free()
            for tensor in residents:
                tensor.free()

    def test_unpressured_serving_never_spills(self):
        """The same workload with ample rows pages nothing (the
        counter baseline for the over-capacity case)."""
        rng = np.random.default_rng(4)
        with tiny_cluster(data_rows=512) as cluster:
            residents = [cluster.tensor(rng.integers(0, 256, LANES),
                                        WIDTH) for _ in range(6)]
            with SimdramService(cluster) as service:
                a = rng.integers(0, 256, 16)
                b = rng.integers(0, 256, 16)
                handle = service.submit("add", a, b, width=WIDTH)
                assert np.array_equal(handle.result(60),
                                      (a + b) % 256)
                paging = service.stats()["paging"]
                assert paging["n_spills"] == 0
                assert paging["n_fills"] == 0
            for tensor in residents:
                tensor.free()
