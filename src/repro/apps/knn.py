"""k-nearest-neighbour digit classification (paper §5).

Distance computation between the query and every reference vector is the
PIM-friendly bulk of kNN: each reference is one SIMD lane, and the L1
distance accumulates |x_d - q_d| over the feature dimensions.  The
paper's op mix (:func:`knn_kernel`) is ``sub``/``abs``/``add`` at
``DIST_BITS``.  On the simulator each (query, feature) step is one fused
kernel, ``add(acc, abs(sub(x, q)))`` at ``DIST_BITS``
(:func:`knn_step_expr`), whose feature leaves ``x`` and ``q`` declare
their 8-bit unsigned data: they occupy 8 rows, are transposed at 8 bits,
and are zero-extended inside the circuit, so the upper half of the
subtractor computes nothing.  Each reference column is transposed once
per call, not once per query.  The final top-k selection is a
cross-lane operation done on the host after reading the distance vector
back (charged as host work in the kernel model).
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import KernelModel, OpInvocation
from repro.core import expr
from repro.core.framework import Simdram
from repro.errors import OperationError
from repro.exec.transposition import check_host_fits

FEATURE_BITS = 8
DIST_BITS = 16


def knn_kernel(n_references: int = 60_000, n_features: int = 64,
               n_queries: int = 100) -> KernelModel:
    """Op mix of classifying ``n_queries`` against the reference set."""
    per_query = n_references * n_features
    total = per_query * n_queries
    return KernelModel(
        name="kNN",
        description=(f"kNN: {n_queries} queries x {n_references} refs "
                     f"x {n_features} features (L1 distance)"),
        invocations=(
            OpInvocation("sub", DIST_BITS, total),
            OpInvocation("abs", DIST_BITS, total),
            OpInvocation("add", DIST_BITS, total),
        ),
        transposed_bits=n_references * n_features * FEATURE_BITS,
        host_bytes=n_queries * n_references * 2,  # distance readback
    )


def knn_step_expr() -> expr.Expr:
    """One accumulation step, ``acc + |x - q|`` at ``DIST_BITS``, with
    the reference feature ``x`` and the broadcast query feature ``q``
    declared ``FEATURE_BITS``-bit unsigned."""
    x = expr.inp("x", width=FEATURE_BITS)
    q = expr.inp("q", width=FEATURE_BITS)
    return expr.add(expr.inp("acc"), expr.abs(expr.sub(x, q)))


def knn_classify_simdram(sim: Simdram, references: np.ndarray,
                         labels: np.ndarray, queries: np.ndarray,
                         k: int = 3) -> np.ndarray:
    """Classify ``queries`` by majority label of the k L1-nearest refs.

    ``references`` is (n_refs, n_features) uint8, ``queries`` is
    (n_queries, n_features) uint8.  Distances are computed lane-parallel
    with one fused SIMDRAM kernel per (query, feature); the top-k vote
    happens on the host.
    """
    references = np.asarray(references)
    queries = np.asarray(queries)
    labels = np.asarray(labels)
    if references.ndim != 2 or queries.ndim != 2:
        raise OperationError("references and queries must be 2-D")
    if len(labels) != len(references):
        raise OperationError("one label per reference required")
    for name, values in (("references", references), ("queries", queries)):
        check_host_fits(values, FEATURE_BITS, False, f"kNN {name}")
    n_refs, n_features = references.shape
    step = knn_step_expr()

    columns = [sim.array(references[:, d], FEATURE_BITS)
               for d in range(n_features)]
    predictions = []
    try:
        for query in queries:
            distances = sim.array(np.zeros(n_refs, dtype=np.int64),
                                  DIST_BITS)
            for column, feature in zip(columns, query):
                broadcast = sim.array(np.full(n_refs, feature),
                                      FEATURE_BITS)
                new_distances = sim.run(
                    step, feeds={"x": column, "q": broadcast,
                                 "acc": distances}, width=DIST_BITS)
                broadcast.free()
                distances.free()
                distances = new_distances
            host_distances = distances.to_numpy()
            distances.free()
            nearest = np.argsort(host_distances, kind="stable")[:k]
            votes = np.bincount(labels[nearest])
            predictions.append(int(np.argmax(votes)))
    finally:
        for column in columns:
            column.free()
    return np.asarray(predictions)


def knn_classify_golden(references: np.ndarray, labels: np.ndarray,
                        queries: np.ndarray, k: int = 3) -> np.ndarray:
    """Reference host implementation for tests."""
    predictions = []
    for query in np.asarray(queries):
        dist = np.abs(references.astype(np.int64)
                      - query.astype(np.int64)).sum(axis=1)
        nearest = np.argsort(dist, kind="stable")[:k]
        predictions.append(int(np.argmax(np.bincount(labels[nearest]))))
    return np.asarray(predictions)
