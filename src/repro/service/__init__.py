"""In-process solve service for high-throughput constrained-matrix workloads.

Real workloads (census updates, IO-table revisions, Sinkhorn-style
rebalancing streams) arrive as *streams of closely-related problems*.
This package amortizes everything that a one-shot ``solve()`` call pays
per problem:

* a job queue + scheduler (:class:`SolveService`) dispatching every
  problem kind over one shared, long-lived
  :class:`~repro.parallel.executor.ParallelKernel` worker pool;
* request batching (:mod:`repro.service.batching`) that fuses the
  independent row/column equilibrations of same-shape fixed, elastic or
  SAM problems into single kernel fan-outs;
* a warm-start cache (:mod:`repro.service.cache`) keyed by the problem
  fingerprint of :func:`repro.core.api.fingerprint`, seeding ``mu0``
  from the nearest previously-solved problem;
* a metrics surface (:class:`~repro.service.metrics.ServiceStats`);
* a fault-tolerance layer: classified errors (:mod:`repro.errors`),
  per-request deadlines and retries of transient errors, a kind+shape
  circuit breaker, and a deterministic fault-injection harness
  (:mod:`repro.service.faults`) that proves results stay bit-identical
  under injected chaos;
* a durability layer: a write-ahead journal
  (:mod:`repro.service.journal`) giving crash-safe, exactly-once
  request replay via :meth:`SolveService.recover`, warm-state
  snapshots (cache duals + breaker state),
  admission control with bounded queues and overload policies
  (:mod:`repro.service.admission`), and graceful shutdown drains.

Drive it from Python::

    from repro.service import SolveService

    with SolveService(workers=4, backend="thread") as svc:
        for problem in stream:
            svc.submit(problem)
        responses = svc.drain()
        print(svc.stats().as_dict())

or end-to-end over JSONL: ``python -m repro serve --jsonl``.
"""

from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.batching import solve_batch
from repro.service.cache import WarmStartCache
from repro.service.faults import (
    CRASH_POINTS,
    CrashPlan,
    FaultPlan,
    FaultyKernel,
    SimulatedCrash,
)
from repro.service.journal import Journal, derive_request_id
from repro.service.metrics import ServiceStats
from repro.service.request import SolveRequest, SolveResponse
from repro.service.service import SolveService

__all__ = [
    "SolveService",
    "SolveRequest",
    "SolveResponse",
    "ServiceStats",
    "WarmStartCache",
    "Journal",
    "derive_request_id",
    "AdmissionConfig",
    "AdmissionController",
    "FaultPlan",
    "FaultyKernel",
    "CrashPlan",
    "SimulatedCrash",
    "CRASH_POINTS",
    "solve_batch",
]
