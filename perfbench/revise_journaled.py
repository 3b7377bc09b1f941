"""revise-journaled: a journaled solve service under drifting revisions.

One caller, closed loop: each operation is one ``SolveService.solve``
of a revised table, with the service's defaults (serial
``ParallelKernel``, warm-start cache, workspace LRU, batching, stop
rules per kind) plus a write-ahead journal at the default fsync.

The revisions come from 8 structure families — 3 fixed-totals, 3 SAM,
2 elastic — built on gravity-model migration tables (vintage 6570)
with family ``f`` at n = 112 + 2f; calibration seed 7, rows and columns
relabelled by ``SEED``.  Requests cycle through the families; every
revision moves each total of its family by a uniform step in ±1%
(a seeded random walk), so consecutive revisions of a family stay warm
-start neighbours.

The stream runs in journaled passes of ``PASS`` requests: a fresh
service and journal per pass, closed at the end of the pass, then
``SolveService.recover(journal)`` is timed on it and every recovered
response must equal the delivered one bit for bit.  A pass is a fixed
amount of journal, so recovery time and memory do not grow with
throughput.

Why: the warm-start cache, workspace reuse and the journal codec do
the work, with both writes and reads of the same layer.
"""

from __future__ import annotations

import contextlib
import time

import perflib

NAME = "revise-journaled"
KINDS = ("fixed",) * 3 + ("sam",) * 3 + ("elastic",) * 2
BASE_N = 112
TINY_N = 12
PASS = 48
TINY_PASS = 16
DRIFT = 0.01
CALIBRATION_SEED = 7
SETUP_RUNS = 7
# At least MIN_PASSES untraced passes leave ten requests beyond p90.
TAIL_Q = 90.0
MIN_PASSES = 3


class RevisionStream:
    """Seeded drifting revisions of the ``KINDS`` families, in turn."""

    def __init__(self, seed: int, base_n: int) -> None:
        import numpy as np
        from repro.datasets.migration import base_migration_table
        from solve_large import relabel

        from repro import ElasticProblem, FixedTotalsProblem, SAMProblem

        self._rng = np.random.default_rng(seed)
        calib = np.random.default_rng(CALIBRATION_SEED)
        self.families = []
        for f, kind in enumerate(KINDS):
            n = base_n + 2 * f
            flows = base_migration_table(6570, n=n)
            mask = ~np.eye(n, dtype=bool)
            gamma = (
                np.ones_like(flows) if kind == "elastic"
                else np.where(mask, 10.0 ** calib.uniform(-1.5, 1.5, (n, n)),
                              1.0)
            )
            s0 = flows.sum(1) * (1.0 + calib.uniform(0.0, 1.0, n))
            d0 = flows.sum(0) * (1.0 + calib.uniform(0.0, 1.0, n))
            if kind == "fixed":
                d0 *= s0.sum() / d0.sum()
                base = FixedTotalsProblem(x0=flows, gamma=gamma, s0=s0,
                                          d0=d0, mask=mask)
            elif kind == "sam":
                base = SAMProblem(x0=flows, gamma=gamma, s0=s0,
                                  alpha=np.ones(n), mask=mask)
            else:
                base = ElasticProblem(x0=flows, gamma=gamma, s0=s0, d0=d0,
                                      alpha=np.ones(n), beta=np.ones(n),
                                      mask=mask)
            self.families.append(relabel(base, self._rng))
        self._next = 0

    def next(self):
        from dataclasses import replace

        f = self._next % len(self.families)
        self._next += 1
        base = self.families[f]

        def step(totals):
            return totals * (1.0 + self._rng.uniform(-DRIFT, DRIFT, totals.size))

        if type(base).__name__ == "SAMProblem":
            revised = replace(base, s0=step(base.s0))
        else:
            s0, d0 = step(base.s0), step(base.d0)
            if type(base).__name__ == "FixedTotalsProblem":
                d0 *= s0.sum() / d0.sum()
            revised = replace(base, s0=s0, d0=d0)
        self.families[f] = revised
        return revised


class _TracedKernel:
    """``ParallelKernel`` with every ``__call__`` recorded as a span;
    everything else (counters, ``close``) reads through."""

    accepts_workspace = True

    def __init__(self, kernel, tracer) -> None:
        self._kernel = kernel
        self._call = tracer.wrap("parallel", kernel.__call__)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._kernel, name)


def _same(a, b) -> bool:
    """Delivered and recovered responses agree bit for bit."""
    import numpy as np

    if (a.id, a.ok, a.error_kind) != (b.id, b.ok, b.error_kind):
        return False
    if not a.ok:
        return True
    ra, rb = a.result, b.result
    if (ra.converged, ra.iterations) != (rb.converged, rb.iterations):
        return False
    scalars = np.array([ra.residual, ra.objective])
    if scalars.tobytes() != np.array([rb.residual, rb.objective]).tobytes():
        return False
    for key in ("x", "s", "d", "lam", "mu"):
        va, vb = getattr(ra, key), getattr(rb, key)
        if (va is None) != (vb is None):
            return False
        if va is not None and (
            va.shape != vb.shape or va.dtype != vb.dtype
            or np.ascontiguousarray(va).tobytes()
            != np.ascontiguousarray(vb).tobytes()
        ):
            return False
    return True


def _setup_probe() -> float:
    import sys

    journal = perflib.WORK / "revise-probe.journal"
    journal.unlink(missing_ok=True)
    seconds = perflib.probe_setup(
        [sys.executable, str(perflib.ROOT / "perfbench" / "probe.py"), NAME,
         str(journal)],
        "perfbench ready",
    )
    journal.unlink(missing_ok=True)
    return seconds


@contextlib.contextmanager
def _traced_entry_points(tracer):
    """Spans around the kernel as ``ParallelKernel`` calls it and the
    journal replay as ``SolveService.recover`` calls it."""
    from repro.parallel import executor
    from repro.service import service as service_module

    kernel, replay = executor.solve_piecewise_linear, service_module.journal_replay
    executor.solve_piecewise_linear = tracer.wrap("equilibration", kernel)
    service_module.journal_replay = tracer.wrap("journal.replay", replay)
    try:
        yield
    finally:
        executor.solve_piecewise_linear = kernel
        service_module.journal_replay = replay


def _run_pass(stream, journal, size, tracer, traced):
    """One journaled pass; returns its measurements and failed ids."""
    from repro.parallel.executor import ParallelKernel
    from repro.service import SolveService
    from repro.service.request import SolveRequest

    journal.unlink(missing_ok=True)
    tracer.enabled = traced
    kwargs = {}
    if traced:
        kwargs["kernel"] = _TracedKernel(
            ParallelKernel(workers=1, backend="serial"), tracer
        )
    service = SolveService(journal=journal, **kwargs)
    if traced:
        for name in ("append_request", "append_response"):
            setattr(service.journal, name, tracer.wrap(
                "journal.append", getattr(service.journal, name)))
    latencies, delivered, failed = [], {}, set()
    solve_time = model_ops = 0.0
    wall0 = time.perf_counter()
    for _ in range(size):
        request = SolveRequest(problem=stream.next())
        with tracer.span("service"):
            t0 = time.perf_counter()
            response = service.solve(request)
            latencies.append(time.perf_counter() - t0)
        if not response.converged:
            failed.add(response.id)
        else:
            solve_time += response.result.elapsed
            model_ops += response.result.counts.parallel_ops
        delivered[response.id] = response
    stats = service.stats()
    service.close()
    service.journal.close()
    journal_bytes = journal.stat().st_size

    with tracer.span("service.recover"):
        t0 = time.perf_counter()
        recovered = SolveService.recover(journal)
        recover_s = time.perf_counter() - t0
    for rid, response in delivered.items():
        again = recovered.recovered.get(rid)
        if again is None or not _same(response, again):
            failed.add(rid)
    # Exactly once: nothing answered may come back as pending work.
    failed.update(recovered.journal.pending_ids())
    recovered.close()
    recovered.journal.close()
    journal.unlink()
    return {
        "latencies": latencies, "failed": len(failed), "stats": stats,
        "recover_s": recover_s, "journal_bytes": journal_bytes,
        "solve_time": solve_time, "model_ops": model_ops,
        "wall": time.perf_counter() - wall0,
    }


def run(seed: int, seconds: float, trace: bool, tiny: bool = False):
    from repro.equilibration.backends import get_backend

    size = TINY_PASS if tiny else PASS
    base_n = TINY_N if tiny else BASE_N
    stream = RevisionStream(seed, base_n)
    out = perflib.Outcome()
    out.notes.append(
        f"# {NAME} seed={seed} families={len(KINDS)} "
        f"(3 fixed, 3 sam, 2 elastic) n={base_n}..{base_n + 2 * (len(KINDS) - 1)}"
        f" drift=+-{DRIFT:.0%} pass={size} backend={get_backend().name}"
    )
    tracer = perflib.Tracer()
    journal = perflib.WORK / "revise.journal"
    journal.parent.mkdir(parents=True, exist_ok=True)
    plain, traced = [], []
    start = time.perf_counter()
    k = 0
    # Trace runs alternate untraced and traced passes.
    while k < (2 if trace else MIN_PASSES) or (
            time.perf_counter() - start < seconds):
        is_traced = trace and k % 2 == 1
        with _traced_entry_points(tracer) if is_traced else contextlib.nullcontext():
            result = _run_pass(stream, journal, size, tracer, is_traced)
        (traced if is_traced else plain).append(result)
        out.attempted += size
        out.failed += result["failed"]
        k += 1

    rates = [size / sum(p["latencies"]) for p in plain]
    samples = [t for p in plain for t in p["latencies"]]
    q, tail_s, beyond = perflib.tail(samples, TAIL_Q)
    recover_s = perflib.median([p["recover_s"] for p in plain])
    out.notes.append(
        f"{len(plain)} untraced passes; pass rates "
        + ", ".join(f"{r:.2f}" for r in rates) + " req/s; recover "
        + ", ".join(f"{p['recover_s']:.3f}" for p in plain) + " s"
    )
    out.notes.append(
        f"latency tail = p{q:g} with {beyond} of {len(samples)} samples beyond"
    )
    if not trace:
        setup_s, setups = perflib.setup_median(
            _setup_probe, 2 if tiny else SETUP_RUNS
        )
        out.notes.append(
            "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups)
        )
        out.metrics.update({
            "ops_per_s": perflib.median(rates),
            "latency_p50_ms": perflib.median(samples) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": perflib.self_peak_rss_mb(),
        })
        return out

    spans = tracer.spans
    ops = size * len(traced)

    def stat(name):
        return sum(getattr(p["stats"], name) for p in traced)

    solve_time = sum(p["solve_time"] for p in traced)
    dispatch = perflib.total(spans, "parallel")
    appends = perflib.total(spans, "journal.append")
    lookups = stat("cache_hits") + stat("cache_misses")
    sorts = stat("sort_rows_reused") + stat("sort_rows_resorted")
    traced_rate = perflib.median([size / sum(p["latencies"]) for p in traced])
    out.notes.append(
        f"tracing overhead: {traced_rate:.2f} req/s traced vs "
        f"{perflib.median(rates):.2f} untraced"
    )
    traced_wall = sum(p["wall"] for p in traced)
    out.metrics.update({
        "core.iterations_per_op": perflib.per_op(stat("total_iterations"),
                                                 stat("completed")),
        "core.self_ms_per_op": perflib.per_op(solve_time - dispatch, ops) * 1e3,
        "equilibration.calls_per_op": perflib.per_op(stat("sort_sweeps"), ops),
        "equilibration.ops_computed": perflib.per_op(
            sum(p["model_ops"] for p in traced), ops) / 1e6,
        "equilibration.sort_reuse_rate": (
            stat("sort_rows_reused") / sorts if sorts else 0.0),
        "equilibration.rows_skipped_per_op": perflib.per_op(
            stat("sort_rows_skipped"), ops),
        "equilibration.perm_repairs_per_op": perflib.per_op(
            stat("sort_perm_repairs"), ops),
        "equilibration.full_resorts_per_op": perflib.per_op(
            stat("sort_full_resorts"), ops),
        "parallel.calls_per_op": perflib.per_op(
            perflib.count(spans, "parallel"), ops),
        "parallel.dispatch_ms_per_op": perflib.per_op(dispatch, ops) * 1e3,
        "equilibration.kernel_ms_per_op": perflib.per_op(
            perflib.total(spans, "equilibration"), ops) * 1e3,
        "service.self_ms_per_op": perflib.per_op(
            perflib.total(spans, "service") - appends - solve_time, ops) * 1e3,
        "service.cache_hit_rate": stat("cache_hits") / lookups if lookups else 0.0,
        "service.batched_share": perflib.per_op(stat("batched_requests"),
                                                stat("completed")),
        "journal.append_ms_per_op": perflib.per_op(appends, ops) * 1e3,
        "journal.bytes_per_op": perflib.per_op(
            sum(p["journal_bytes"] for p in traced), ops) / 1024.0,
        "journal.records_per_op": perflib.per_op(stat("journal_records"), ops),
        "journal.replay_ms_per_op": perflib.per_op(
            perflib.total(spans, "journal.replay"), ops) * 1e3,
        "journal.recover_ms_per_op": recover_s / size * 1e3,
        "trace.overhead_pct": (perflib.median(rates) / traced_rate - 1.0) * 100,
        "trace.unattributed_share": 1.0 - perflib.covered(spans) / traced_wall,
    })
    return out
