#!/usr/bin/env python
"""Scale-out serving: replica processes, consistent hashing, failover.

Everything below the serving layer shares one Python process, so the
GIL caps served throughput no matter how many modules a cluster has.
This example runs the replication tier end to end:

* a :class:`repro.serve.router.ReplicaRouter` spawns 3 **replica
  processes** — each a full :class:`repro.SimdramCluster` — and places
  packed dispatches by consistent-hashing the kernel identity, so a
  given kernel keeps hitting the replica whose caches are hot for it;
* tensors travel through POSIX shared memory; work descriptors (op
  name or expression DAG + width + engine name) travel over pipes;
* mid-run, replica 0 is SIGKILLed.  The router's death handler
  re-homes its in-flight dispatches onto survivors, reusing each
  dispatch's original future — callers never see the crash;
* every result is verified bit-exact against numpy.

Run with::

    PYTHONPATH=src python examples/replicated_serving.py
"""

import time

import numpy as np

from repro import DramGeometry, SimdramConfig
from repro.serve import SimdramService
from repro.serve.router import ReplicaRouter

WIDTH = 8
LANES = 512
N_REQUESTS = 36
OPS = {
    "add": lambda a, b: (a + b) % 256,
    "sub": lambda a, b: (a - b) % 256,
    "min": np.minimum,
    "max": np.maximum,
}


def main() -> int:
    rng = np.random.default_rng(7)
    config = SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=256, banks=2))
    requests = []
    for i in range(N_REQUESTS):
        op = list(OPS)[i % len(OPS)]
        a = rng.integers(0, 128, LANES)
        b = rng.integers(0, 128, LANES)
        requests.append((op, a, b))

    manifest = [(op, WIDTH) for op in OPS]
    with ReplicaRouter(3, config=config, manifest=manifest) as router, \
            SimdramService(router) as service:
        # No batching window to tune: a pack goes out as soon as a
        # replica can take it (fewer than two outstanding per live
        # replica), and groups fill while the replicas are busy.
        handles = [service.submit(op, a, b, width=WIDTH)
                   for op, a, b in requests]

        # Put one replica down while its work is in flight.
        deadline = time.monotonic() + 30
        while (time.monotonic() < deadline
               and router.replicas.n_inflight(0) == 0
               and not all(h.done() for h in handles)):
            time.sleep(0)  # yield, do not nap: a pack is in flight ~1 ms
        router.kill(0)

        n_ok = sum(
            bool(np.array_equal(handle.result(300) % 256,
                                OPS[op](a, b)))
            for handle, (op, a, b) in zip(handles, requests))
        stats = service.stats()

    tier = stats["replica_tier"]
    print("scale-out serving with a mid-run replica kill")
    print(f"  requests verified : {n_ok} / {N_REQUESTS}")
    print(f"  replicas alive    : {tier['alive']} of 3 spawned")
    print(f"  replica deaths    : {stats['failover']['replica_deaths']}")
    print(f"  requeued          : "
          f"{stats['failover']['requeued_requests']} dispatches "
          f"re-homed onto survivors")
    for rid, counters in sorted(stats["replicas"].items()):
        print(f"  replica {rid}         : "
              f"{counters['dispatches']} dispatches, "
              f"{counters['requests']} requests")
    print(f"  result            : "
          f"{'OK — failover is invisible to callers' if n_ok == N_REQUESTS else 'MISMATCH'}")
    return 0 if n_ok == N_REQUESTS else 1


if __name__ == "__main__":
    raise SystemExit(main())
