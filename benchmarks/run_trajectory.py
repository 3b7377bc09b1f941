#!/usr/bin/env python
"""Sweep-workspace performance trajectory → ``BENCH_sweeps.json``.

Measures, for each (kind, size) on the calibrated gravity-model
instance family, a *cold* solve (a kernel that ignores the driver's
workspace, so every sweep runs the cold argsort path) against a *warm*
solve (driver-managed :class:`SweepWorkspace` pair with sort-permutation
reuse), and a warm-service-traffic block (workspace kernel vs an
identical service whose kernel ignores the workspaces it is handed).
Both cold baselines still run inside drivers that own a workspace
pair, so they share its breakpoint-shift and primal-recovery buffers
and isolate the kernel's own workspace fast path.

Why this instance family: balanced Table-1 style instances converge in
two sweeps at any tolerance, which leaves no settled tail for the
permutation cache to exploit — they benchmark the *kernel*, not the
*cache*.  Gravity-model migration tables (``base_migration_table``)
with growth-perturbed totals iterate for tens to hundreds of sweeps
under a tight ``delta-x`` stop, which is exactly the regime the
workspace layer targets: as the duals settle, within-row breakpoint
order stabilises and sorts collapse into an O(mn) verification pass.

Output schema (one JSON document, written to ``--out``)::

    {
      "generated": "...", "numpy": "...",
      "backend": "...", "backend_versions": {...},
      "stop": {...}, "sizes": [...],
      "solo": [{kind, size, iterations, converged, cold_s, warm_s,
                speedup, sweeps, sweeps_per_s_cold, sweeps_per_s_warm,
                sort_reuse_rate}, ...],
      "allocations": [{kind, size, cold_peak_mb, warm_peak_mb}, ...],
      "service": {kind, size, requests, baseline_s, workspace_s,
                  speedup, sort_reuse_rate},
      "durability": {kind, size, requests, in_memory_s, admission_s,
                     journal_s, journal_fsync_s, *_overhead_pct,
                     journal_records, journal_mb}
    }

``--check-reuse`` exits 1 if any converging solo solve reports a zero
sort-reuse hit rate — the CI smoke job uses this to catch a silently
disabled permutation cache.

Caveat for anyone extending this: bit-identity between cold and warm
only holds for *matched* ``mu0``.  A warm-started (cached ``mu0``)
solve legitimately differs from a cold-started one — different dual
trajectory — so the service block compares wall time, not arrays.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from _util import write_sweeps
from repro.core.convergence import StoppingRule
from repro.core.problems import ElasticProblem, FixedTotalsProblem, SAMProblem
from repro.core.sea import solve_elastic, solve_fixed, solve_sam
from repro.datasets.migration import base_migration_table
from repro.equilibration.backends import backend_versions, get_backend
from repro.equilibration.exact import solve_piecewise_linear
from repro.equilibration.workspace import SweepWorkspace
from repro.service.request import SolveRequest
from repro.service.service import SolveService

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

STOP = StoppingRule(eps=1e-4, criterion="delta-x", max_iterations=5000)


def cold_kernel(b, s, t, a=None, c=None, workspace=None):
    """The cold kernel: ignores the driver's workspace on every sweep."""
    return solve_piecewise_linear(b, s, t, a=a, c=c)


# -- calibrated instance family --------------------------------------------


def _grav(n: int, seed: int = 7):
    flows = base_migration_table(6570, n=n)
    mask = ~np.eye(n, dtype=bool)
    rng = np.random.default_rng(seed)
    return flows, mask, rng


def mk_fixed(n: int, decades: float = 3.0) -> FixedTotalsProblem:
    flows, mask, rng = _grav(n)
    gamma = np.where(
        mask, 10.0 ** rng.uniform(-decades / 2, decades / 2, flows.shape), 1.0
    )
    s0 = flows.sum(1) * (1.0 + rng.uniform(0.0, 1.0, n))
    d0 = flows.sum(0) * (1.0 + rng.uniform(0.0, 1.0, n))
    d0 *= s0.sum() / d0.sum()  # fixed-totals feasibility
    return FixedTotalsProblem(x0=flows, gamma=gamma, s0=s0, d0=d0, mask=mask)


def mk_elastic(n: int) -> ElasticProblem:
    flows, mask, rng = _grav(n)
    return ElasticProblem(
        x0=flows,
        gamma=np.ones_like(flows),
        s0=flows.sum(1) * (1.0 + rng.uniform(0.0, 1.0, n)),
        d0=flows.sum(0) * (1.0 + rng.uniform(0.0, 1.0, n)),
        alpha=np.ones(n),
        beta=np.ones(n),
        mask=mask,
    )


def mk_sam(n: int, decades: float = 3.0) -> SAMProblem:
    flows, mask, rng = _grav(n)
    gamma = np.where(
        mask, 10.0 ** rng.uniform(-decades / 2, decades / 2, flows.shape), 1.0
    )
    s0 = flows.sum(1) * (1.0 + rng.uniform(0.0, 1.0, n))
    return SAMProblem(x0=flows, gamma=gamma, s0=s0, alpha=np.ones(n), mask=mask)


KINDS = {
    "fixed": (mk_fixed, solve_fixed),
    "elastic": (mk_elastic, solve_elastic),
    "sam": (mk_sam, solve_sam),
}


# -- measurements -----------------------------------------------------------


def bench_solo(kind: str, n: int, reps: int) -> dict:
    mk, solver = KINDS[kind]
    problem = mk(n)

    # Counter pass: explicit pair so the reuse rate is observable.
    ws = (SweepWorkspace(n, n), SweepWorkspace(n, n))
    res = solver(problem, stop=STOP, workspaces=ws)
    sweeps = ws[0].sweeps + ws[1].sweeps

    cold_s = min(
        _timed(lambda: solver(problem, stop=STOP, kernel=cold_kernel))
        for _ in range(reps)
    )
    warm_s = min(
        _timed(lambda: solver(problem, stop=STOP)) for _ in range(reps)
    )
    return {
        "kind": kind,
        "size": n,
        "iterations": res.iterations,
        "converged": bool(res.converged),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 3),
        "sweeps": sweeps,
        "sweeps_per_s_cold": round(sweeps / cold_s, 1),
        "sweeps_per_s_warm": round(sweeps / warm_s, 1),
        "sort_reuse_rate": round(ws[0].sort_reuse_rate, 4),
    }


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_allocations(kind: str, n: int) -> dict:
    """Peak traced allocation during the sweep loop, cold vs warm.

    Measured separately from the timing passes: tracemalloc slows the
    interpreter, so these numbers never enter the speedup columns.  The
    warm pass pre-builds its workspace pair — the point is steady-state
    per-sweep allocation, not one-time buffer setup.  The cold pass's
    peak includes the fresh pair its driver builds.
    """
    mk, solver = KINDS[kind]
    problem = mk(n)

    tracemalloc.start()
    solver(problem, stop=STOP, kernel=cold_kernel)
    _, cold_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    ws = (SweepWorkspace(n, n), SweepWorkspace(n, n))
    solver(problem, stop=STOP, workspaces=ws)  # bind + settle the pair
    tracemalloc.start()
    solver(problem, stop=STOP, workspaces=ws)
    _, warm_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "kind": kind,
        "size": n,
        "cold_peak_mb": round(cold_peak / 2**20, 2),
        "warm_peak_mb": round(warm_peak / 2**20, 2),
    }


class _WorkspaceKernel:
    """In-process kernel that sweeps on the service's persistent pairs
    and their cached permutations."""

    def __call__(self, breakpoints, slopes, target, a=None, c=None,
                 timeout=None, workspace=None):
        return solve_piecewise_linear(
            breakpoints, slopes, target, a=a, c=c, workspace=workspace
        )


class _NoWorkspaceKernel:
    """Baseline service kernel: same math, ignores its workspace.

    The service still hands it its persistent pairs (the driver shifts
    breakpoints and recovers flows in their buffers), but every sweep
    runs the cold kernel: no hoisted validation, no cached permutation.
    This times the cold kernel inside a driver that owns a workspace,
    isolating the kernel's workspace fast path on warm service traffic.
    """

    def __call__(self, breakpoints, slopes, target, a=None, c=None,
                 timeout=None, workspace=None):
        return solve_piecewise_linear(breakpoints, slopes, target, a=a, c=c)


def _service_traffic(service: SolveService, problems) -> float:
    # Populate the warm-start cache with the first (cold) request, then
    # time the remaining warm traffic.
    service.solve(SolveRequest(problem=problems[0], batchable=False))
    t0 = time.perf_counter()
    for problem in problems[1:]:
        service.solve(SolveRequest(problem=problem, batchable=False))
    return time.perf_counter() - t0


def _bucket_stream(kind: str, n: int, requests: int) -> list:
    """``requests`` bucket-mate problems over one structure."""
    mk, _ = KINDS[kind]
    base = mk(n)
    rng = np.random.default_rng(11)
    problems = [base]
    for _ in range(requests - 1):
        scale = 1.0 + rng.uniform(-0.02, 0.02, n)
        if kind == "fixed":
            s0 = base.s0 * scale
            d0 = base.d0 * (s0.sum() / base.d0.sum())
            problems.append(
                FixedTotalsProblem(
                    x0=base.x0, gamma=base.gamma, s0=s0, d0=d0, mask=base.mask
                )
            )
        elif kind == "elastic":
            problems.append(
                ElasticProblem(
                    x0=base.x0, gamma=base.gamma, s0=base.s0 * scale,
                    d0=base.d0, alpha=base.alpha, beta=base.beta,
                    mask=base.mask,
                )
            )
        else:
            problems.append(
                SAMProblem(
                    x0=base.x0, gamma=base.gamma, s0=base.s0 * scale,
                    alpha=base.alpha, mask=base.mask,
                )
            )
    return problems


def bench_service(kind: str, n: int, requests: int) -> dict:
    """Warm service traffic: bucket-mate requests over one structure."""
    problems = _bucket_stream(kind, n, requests)

    baseline = SolveService(kernel=_NoWorkspaceKernel(), batching=False)
    baseline_s = _service_traffic(baseline, problems)

    warm = SolveService(kernel=_WorkspaceKernel(), batching=False)
    workspace_s = _service_traffic(warm, problems)
    stats = warm.stats()

    return {
        "kind": kind,
        "size": n,
        "requests": requests - 1,
        "baseline_s": round(baseline_s, 4),
        "workspace_s": round(workspace_s, 4),
        "speedup": round(baseline_s / workspace_s, 3),
        "sort_reuse_rate": round(stats.sort_reuse_rate, 4),
    }


def bench_durability(kind: str, n: int, requests: int) -> dict:
    """Durability/overload overhead on identical warm service traffic.

    Four passes over the same bucket-mate stream: in-memory (no
    durability features), admission-controlled (bounded queue, never
    actually full — pure ``decide()`` overhead), journaled (write-ahead
    log, OS-buffered), journaled + ``fsync=1`` (classic WAL
    durability).  Overheads are reported relative to the in-memory
    pass; the journal byte count shows what the durability bought.
    """
    import tempfile

    problems = _bucket_stream(kind, n, requests)

    def _pass(**kwargs) -> tuple[float, SolveService]:
        service = SolveService(batching=False, **kwargs)
        elapsed = _service_traffic(service, problems)
        service.close()
        return elapsed, service

    in_memory_s, _ = _pass()
    admission_s, _ = _pass(max_queue=4 * requests,
                           admission_policy="reject-newest")
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = pathlib.Path(tmp) / "bench.journal"
        journal_s, journaled = _pass(journal=journal_path)
        journal_bytes = journal_path.stat().st_size
        records = journaled.stats().journal_records
        fsync_path = pathlib.Path(tmp) / "bench-fsync.journal"
        fsync_s, _ = _pass(journal=fsync_path, fsync=1)

    def _pct(t: float) -> float:
        return round(100.0 * (t - in_memory_s) / in_memory_s, 1)

    return {
        "kind": kind,
        "size": n,
        "requests": requests - 1,
        "in_memory_s": round(in_memory_s, 4),
        "admission_s": round(admission_s, 4),
        "journal_s": round(journal_s, 4),
        "journal_fsync_s": round(fsync_s, 4),
        "admission_overhead_pct": _pct(admission_s),
        "journal_overhead_pct": _pct(journal_s),
        "journal_fsync_overhead_pct": _pct(fsync_s),
        "journal_records": records,
        "journal_mb": round(journal_bytes / 2**20, 2),
    }


# -- CLI --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[100, 200, 300, 500])
    parser.add_argument("--kinds", nargs="+", default=list(KINDS),
                        choices=list(KINDS))
    parser.add_argument("--reps", type=int, default=1,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_sweeps.json")
    parser.add_argument("--service-size", type=int, default=None,
                        help="size for the service block "
                             "(default: second-largest solo size)")
    parser.add_argument("--service-requests", type=int, default=13)
    parser.add_argument("--skip-service", action="store_true")
    parser.add_argument("--skip-alloc", action="store_true")
    parser.add_argument("--skip-durability", action="store_true")
    parser.add_argument("--check-reuse", action="store_true",
                        help="exit 1 if a converging solve reports zero "
                             "sort-reuse (CI smoke guard)")
    args = parser.parse_args(argv)

    sizes = sorted(args.sizes)
    doc = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "backend": get_backend().name,
        "backend_versions": backend_versions(),
        "instances": "gravity-model migration tables (vintage 6570), "
                     "growth-perturbed totals, seed 7",
        "stop": {"eps": STOP.eps, "criterion": STOP.criterion,
                 "max_iterations": STOP.max_iterations},
        "sizes": sizes,
        "solo": [],
        "allocations": [],
        "service": None,
        "durability": None,
    }
    failures = []
    for n in sizes:
        for kind in args.kinds:
            row = bench_solo(kind, n, args.reps)
            doc["solo"].append(row)
            print(
                f"solo {kind:8s} n={n:5d}  iters={row['iterations']:5d}  "
                f"reuse={row['sort_reuse_rate']:.3f}  "
                f"cold={row['cold_s']:.3f}s warm={row['warm_s']:.3f}s  "
                f"speedup={row['speedup']:.2f}x",
                flush=True,
            )
            if row["converged"] and row["sort_reuse_rate"] == 0.0:
                failures.append(f"{kind} n={n}: converged with zero reuse")

    if not args.skip_alloc:
        n = sizes[0]
        for kind in args.kinds:
            row = bench_allocations(kind, n)
            doc["allocations"].append(row)
            print(
                f"alloc {kind:8s} n={n:5d}  cold peak "
                f"{row['cold_peak_mb']:.2f} MiB -> warm peak "
                f"{row['warm_peak_mb']:.2f} MiB",
                flush=True,
            )

    if not args.skip_service:
        n = args.service_size or (sizes[-2] if len(sizes) > 1 else sizes[0])
        row = bench_service("elastic", n, args.service_requests)
        doc["service"] = row
        print(
            f"service elastic n={n}  {row['requests']} warm requests  "
            f"baseline={row['baseline_s']:.3f}s "
            f"workspace={row['workspace_s']:.3f}s  "
            f"speedup={row['speedup']:.2f}x  "
            f"reuse={row['sort_reuse_rate']:.3f}",
            flush=True,
        )

    if not args.skip_durability:
        n = args.service_size or (sizes[-2] if len(sizes) > 1 else sizes[0])
        row = bench_durability("elastic", n, args.service_requests)
        doc["durability"] = row
        print(
            f"durability elastic n={n}  {row['requests']} warm requests  "
            f"in-memory={row['in_memory_s']:.3f}s  "
            f"admission=+{row['admission_overhead_pct']}%  "
            f"journal=+{row['journal_overhead_pct']}%  "
            f"fsync=+{row['journal_fsync_overhead_pct']}%  "
            f"({row['journal_records']} records, {row['journal_mb']} MiB)",
            flush=True,
        )

    # Blocks other benchmarks own (cluster, edge, chaos, kernel) survive
    # a trajectory regeneration, and so does a block this run skipped.
    write_sweeps(args.out, {k: v for k, v in doc.items() if v is not None})
    print(f"wrote {args.out}")

    if args.check_reuse and failures:
        for line in failures:
            print(f"REUSE CHECK FAILED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
