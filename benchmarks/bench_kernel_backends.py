#!/usr/bin/env python
"""Kernel-backend comparison → ``kernel`` block.

Benchmarks the sort-dominated hot path of the sweep workspace across
the registered kernel backends (``numpy`` reference and compiled
``cnative``), on the same gravity-table instance family as
``run_trajectory.py``:

* **solo rows** — end-to-end warm solves per (kind, backend) at
  ``--size``, directly comparable to the ``solo`` warm rows of
  ``BENCH_sweeps.json`` (same solver call, same stop rule).  Each row
  reports its speedup against the frozen PR 4 warm baselines below.
* **cold-phase rows** — a fresh workspace's first sweep on a random
  ``(n, n)`` matrix per (size, backend), median of 7: every row is
  sorted from scratch and scanned once, the scrambled-row regime of
  early sweeps (``cnative``'s radix against NumPy's stable argsort).
* **bit identity** — every available backend must reproduce the
  ``numpy`` trajectory bit for bit (``--check`` fails on any mismatch).

The results are written into the ``kernel`` block of ``--out``
(default ``BENCH_sweeps.json``), leaving every other block untouched.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.equilibration.backends import (  # noqa: E402
    BACKEND_ENV,
    available_backends,
    backend_versions,
)
from repro.equilibration.exact import solve_piecewise_linear  # noqa: E402
from repro.equilibration.workspace import SweepWorkspace  # noqa: E402

from _util import write_sweeps  # noqa: E402
from run_trajectory import KINDS, STOP, _timed  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# Frozen warm solo baselines (seconds) from the PR 4 trajectory run of
# BENCH_sweeps.json (n=500, same instances, same stop rule) — the
# reference the compiled hot path is gated against.
PR4_WARM_S = {"fixed": 0.5896, "elastic": 15.0106, "sam": 0.5984}

COLD_SIZES = (250, 500, 1000)
COLD_REPS = 7


class _forced_backend:
    """Context manager pinning ``REPRO_KERNEL_BACKEND`` for a solve."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._saved = None

    def __enter__(self):
        self._saved = os.environ.get(BACKEND_ENV)
        os.environ[BACKEND_ENV] = self.name
        return self

    def __exit__(self, *exc):
        if self._saved is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = self._saved


def bench_solo_backend(kind: str, n: int, backend: str, reps: int) -> dict:
    """One warm solo row under ``backend`` (driver-managed workspaces)."""
    mk, solver = KINDS[kind]
    problem = mk(n)
    with _forced_backend(backend):
        # Counter pass with an explicit pair so the sort counters are
        # observable; timing passes use the driver-managed pair exactly
        # like run_trajectory's warm rows.
        ws = (SweepWorkspace(n, n), SweepWorkspace(n, n))
        res = solver(problem, stop=STOP, workspaces=ws)
        warm_s = min(
            _timed(lambda: solver(problem, stop=STOP)) for _ in range(reps)
        )
    baseline = PR4_WARM_S.get(kind)
    return {
        "kind": kind,
        "size": n,
        "backend": ws[0].backend_name,
        "iterations": res.iterations,
        "converged": bool(res.converged),
        "warm_s": round(warm_s, 4),
        "speedup_vs_pr4": (
            round(baseline / warm_s, 3) if baseline and n == 500 else None
        ),
        "sort_reuse_rate": round(ws[0].sort_reuse_rate, 4),
        "full_resorts": ws[0].full_resorts + ws[1].full_resorts,
    }


def bench_cold_phase(n: int, backend: str) -> dict:
    """First sweep of fresh workspaces on one random ``(n, n)`` phase."""
    rng = np.random.default_rng(n)
    breakpoints = rng.uniform(-5.0, 5.0, (n, n))
    slopes = rng.uniform(0.5, 2.0, (n, n))
    target = rng.uniform(5.0, 20.0, n) * n
    times = []
    for _ in range(COLD_REPS):
        ws = SweepWorkspace(n, n, backend=backend)
        t0 = time.perf_counter()
        solve_piecewise_linear(breakpoints, slopes, target, workspace=ws)
        times.append(time.perf_counter() - t0)
    return {
        "size": n,
        "backend": backend,
        "cold_phase_ms": round(1e3 * statistics.median(times), 3),
    }


def check_bit_identity(kinds, n: int, backends) -> dict:
    """Full-trajectory bitwise equality of every backend against numpy."""
    mismatches = []
    cases = 0
    for kind in kinds:
        mk, solver = KINDS[kind]
        problem = mk(n)
        with _forced_backend("numpy"):
            ref = solver(
                problem, stop=STOP,
                workspaces=(SweepWorkspace(n, n), SweepWorkspace(n, n)),
            )
        for backend in backends:
            cases += 1
            ws = (
                SweepWorkspace(n, n, backend=backend),
                SweepWorkspace(n, n, backend=backend),
            )
            res = solver(problem, stop=STOP, workspaces=ws)
            if res.x.tobytes() != ref.x.tobytes():
                mismatches.append(f"{kind} backend={backend}")
    return {
        "size": n,
        "cases": cases,
        "mismatches": mismatches,
        "backends": list(backends),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=500,
                        help="solo instance size (500 matches the PR 4 rows)")
    parser.add_argument("--kinds", nargs="+", default=list(KINDS),
                        choices=list(KINDS))
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--identity-size", type=int, default=60)
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_sweeps.json")
    parser.add_argument("--skip-solo", action="store_true",
                        help="bit-identity matrix only, no timed rows "
                             "(CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on any bit-identity mismatch")
    parser.add_argument("--check-pr4", type=int, default=None, metavar="K",
                        help="require >= K kinds at >= 2x over the PR 4 "
                             "warm baselines (needs --size 500)")
    args = parser.parse_args(argv)

    avail = available_backends()
    backends = [name for name in ("numpy", "cnative") if avail.get(name)]
    print(f"backends available: {avail}", flush=True)

    block: dict = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "backends_available": avail,
        "backend_versions": backend_versions(),
        "pr4_baseline_warm_s": PR4_WARM_S,
        "solo": [],
        "cold_phase": [],
        "bit_identity": None,
    }

    failures: list[str] = []

    identity = check_bit_identity(args.kinds, args.identity_size, backends)
    block["bit_identity"] = identity
    print(
        f"bit-identity  n={identity['size']}  {identity['cases']} cases  "
        f"{len(identity['mismatches'])} mismatches",
        flush=True,
    )
    failures.extend(
        f"bit-identity mismatch: {case}" for case in identity["mismatches"]
    )

    if not args.skip_solo:
        for kind in args.kinds:
            for backend in backends:
                row = bench_solo_backend(kind, args.size, backend, args.reps)
                block["solo"].append(row)
                vs = row["speedup_vs_pr4"]
                print(
                    f"solo {kind:8s} n={args.size:5d} backend={backend:8s} "
                    f"warm={row['warm_s']:.3f}s  "
                    f"vs-pr4={'--' if vs is None else f'{vs:.2f}x'}  "
                    f"reuse={row['sort_reuse_rate']:.3f}",
                    flush=True,
                )
        for n in COLD_SIZES:
            for backend in backends:
                row = bench_cold_phase(n, backend)
                block["cold_phase"].append(row)
                print(
                    f"cold phase n={n:5d} backend={backend:8s} "
                    f"{row['cold_phase_ms']:.2f} ms",
                    flush=True,
                )

    if args.check_pr4 is not None:
        best_by_kind: dict[str, float] = {}
        for row in block["solo"]:
            vs = row["speedup_vs_pr4"]
            if vs is not None:
                best_by_kind[row["kind"]] = max(
                    best_by_kind.get(row["kind"], 0.0), vs
                )
        cleared = [k for k, v in best_by_kind.items() if v >= 2.0]
        print(f"pr4 gate: >=2x for {sorted(cleared)}", flush=True)
        if len(cleared) < args.check_pr4:
            failures.append(
                f"only {len(cleared)} kind(s) at >=2x over PR 4 "
                f"(need {args.check_pr4}): {best_by_kind}"
            )

    write_sweeps(args.out, {"kernel": block})
    print(f"wrote kernel block to {args.out}")

    if args.check and failures:
        for line in failures:
            print(f"KERNEL CHECK FAILED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
