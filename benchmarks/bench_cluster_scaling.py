#!/usr/bin/env python
"""Cluster scaling curve → the ``cluster`` block of ``BENCH_sweeps.json``.

Measures end-to-end throughput of the sharded solve tier
(:class:`repro.cluster.ClusterService`) against a single
:class:`~repro.service.SolveService` on steady mixed traffic, for 1, 2,
4 and 8 shards.

What the curve measures — and what it doesn't
---------------------------------------------

This box is a single CPU, so the win is **not** parallel compute: it is
*cache affinity*.  The workload is K structure families (gravity-model
migration tables sharing shape but with distinct ``gamma`` draws, i.e.
distinct warm-start buckets) revisited round-robin with slightly
drifting totals — the rolling-revision traffic the warm-start cache was
built for.  One service's bounded dual cache cannot hold all K
families' working set, so steady revisits LRU-thrash and nearly every
solve runs cold.  The consistent-hash router partitions the keyspace:
each shard sees K/N families, its working set fits, and revisits
warm-start from a near-converged dual (a handful of sweeps instead of
dozens).  The official curve therefore uses the *inline* shard backend
— same routing, admission and stats plumbing, no IPC — so the numbers
isolate the affinity effect honestly; add ``--backend process`` to see
the pipe tax on this machine.

Output schema (merged into ``--out`` under ``"cluster"``)::

    {
      "generated": "...", "note": "...",
      "workload": {kind, size, families, cycles, requests, drift,
                   eps, cache_size},
      "single": {wall_s, rps, hit_rate, mean_iterations},
      "curve": [{shards, wall_s, rps, speedup, hit_rate,
                 hit_rates, sort_reuse_rates, mean_iterations}, ...]
    }

``--check`` exits 1 unless the 4-shard point is >= 2.5x the single
service — the acceptance gate; ``--smoke`` shrinks the workload and the
curve to 1-vs-2 shards for CI.

Network mode (``--net``)
------------------------

``--net`` benches the TCP shard tier instead of the affinity curve and
writes a ``netcluster`` block.  Both measurements run against real
``repro shard-serve`` subprocesses on loopback with journal shipping on
(``fsync=1`` on both sides), so the numbers include the full durability
tax — serialize, ship, fsync the replica, ack:

* **throughput** — the same drifting-family workload through an
  N-shard :class:`ClusterService` on the ``process`` backend vs the
  ``net`` backend, both journaled; ``ratio`` is net/process, i.e. the
  wire + shipping tax on one box.
* **failover** — repeated drills: warm the cluster, submit a full
  cycle, SIGKILL one shard-serve host *and delete its journal
  directory*, then time ``drain()`` until every response is back.
  Recovery runs solely from the router-side replica journals.
  ``recovery_p50_s``/``recovery_p95_s`` summarise the drills;
  ``lost``/``doubled`` must be zero.

``--net --check`` exits 1 if any drill loses or double-answers a
request, skips failover, or leaks failover-lost records; with
``--smoke`` the workload and drill count shrink for CI.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from _util import write_sweeps
from repro.cluster import ClusterService
from repro.core.problems import FixedTotalsProblem
from repro.datasets.migration import base_migration_table
from repro.service.request import SolveRequest
from repro.service.service import SolveService

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

EPS = 1e-4
DRIFT = 1e-6


class Workload:
    """K structure families over one flow table, revisited with drift.

    Families share ``x0`` and shape but draw distinct ``gamma`` —
    distinct structure digests, so each is its own warm-start bucket
    *and* its own routing key on the hash ring.  Revisits perturb the
    totals by ``drift`` (relative), far inside ``EPS``: a warm start
    from the family's last converged dual closes the gap in a few
    sweeps, while a cold solve pays the full dozens-of-sweeps run.
    """

    def __init__(self, size: int, families: int) -> None:
        self.flows = base_migration_table(6570, n=size)
        self.mask = ~np.eye(size, dtype=bool)
        self.size = size
        self.families = families
        self._fams: dict[int, tuple] = {}

    def _family(self, fam: int) -> tuple:
        if fam not in self._fams:
            rng = np.random.default_rng(fam)
            gamma = np.where(
                self.mask,
                10.0 ** rng.uniform(-1.5, 1.5, self.flows.shape),
                1.0,
            )
            s0 = self.flows.sum(1) * (1.0 + rng.uniform(0.0, 1.0, self.size))
            d0 = self.flows.sum(0) * (1.0 + rng.uniform(0.0, 1.0, self.size))
            d0 *= s0.sum() / d0.sum()
            self._fams[fam] = (gamma, s0, d0)
        return self._fams[fam]

    def request(self, fam: int, drift_rng) -> SolveRequest:
        gamma, s0, d0 = self._family(fam)
        s = s0 * (1.0 + drift_rng.uniform(-DRIFT, DRIFT, self.size))
        d = d0 * (s.sum() / d0.sum())
        problem = FixedTotalsProblem(
            x0=self.flows, gamma=gamma, s0=s, d0=d, mask=self.mask
        )
        return SolveRequest(
            problem=problem, eps=EPS, criterion="delta-x",
            max_iterations=20000,
        )


def drive(workload: Workload, svc, cycles: int) -> float:
    """Round-robin the families through ``svc``, one drain per cycle."""
    drift = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(cycles):
        for fam in range(workload.families):
            svc.submit(workload.request(fam, drift))
        responses = svc.drain()
        bad = [r for r in responses if not (r.ok and r.converged)]
        if bad:
            raise SystemExit(f"benchmark solve failed: {bad[0].error}")
    return time.perf_counter() - t0


def bench_single(workload: Workload, cycles: int, cache_size: int) -> dict:
    svc = SolveService(
        warm_start=True, batching=False, cache_size=cache_size
    )
    wall = drive(workload, svc, cycles)
    stats = svc.stats()
    requests = workload.families * cycles
    return {
        "wall_s": round(wall, 3),
        "rps": round(requests / wall, 1),
        "hit_rate": round(stats.hit_rate, 3),
        "mean_iterations": round(stats.mean_iterations, 1),
    }


def bench_cluster(
    workload: Workload, shards: int, cycles: int, cache_size: int,
    backend: str,
) -> dict:
    svc = ClusterService(
        shards=shards, shard_backend=backend,
        warm_start=True, batching=False, cache_size=cache_size,
    )
    try:
        wall = drive(workload, svc, cycles)
        stats = svc.stats()
    finally:
        svc.shutdown(deadline_s=5.0)
    requests = workload.families * cycles
    return {
        "shards": shards,
        "wall_s": round(wall, 3),
        "rps": round(requests / wall, 1),
        "hit_rate": round(stats.aggregate.hit_rate, 3),
        "hit_rates": {
            sid: round(s.hit_rate, 3) for sid, s in stats.shards.items()
        },
        "sort_reuse_rates": {
            sid: round(s.sort_reuse_rate, 3)
            for sid, s in stats.shards.items()
        },
        "mean_iterations": round(stats.aggregate.mean_iterations, 1),
    }


# -- network mode -------------------------------------------------------------

NET_OPTS = dict(
    connect_timeout=5.0, max_reconnects=2,
    backoff_base=0.05, backoff_max=0.2, seed=0,
)


class _Host:
    """One ``repro shard-serve`` subprocess on a loopback port."""

    def __init__(self, scratch: pathlib.Path, name: str) -> None:
        self.journal_dir = scratch / name
        self.journal_dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "shard-serve",
             "--tcp", "127.0.0.1:0", "--shard-id", name,
             "--journal", str(self.journal_dir / "local.journal"),
             "--fsync", "1", "--no-batch"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stderr.readline()
        m = re.search(r"shard listening on ([\d.]+:\d+)", line)
        if not m:
            self.proc.kill()
            raise SystemExit(f"shard-serve did not announce: {line!r}")
        self.spec = m.group(1)

    def die(self, *, lose_disk: bool = False) -> None:
        """SIGKILL the host; optionally take its journal disk with it."""
        self.proc.kill()
        self.proc.wait(timeout=10)
        if lose_disk:
            shutil.rmtree(self.journal_dir, ignore_errors=True)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stderr:
            self.proc.stderr.close()


def bench_net_throughput(
    workload: Workload, shards: int, cycles: int, cache_size: int,
) -> dict:
    """Journaled ``process`` cluster vs journaled ``net`` cluster."""
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench-net-tp-"))
    requests = workload.families * cycles
    try:
        svc = ClusterService(
            shards=shards, shard_backend="process",
            journal_dir=scratch / "process", fsync=1,
            warm_start=True, batching=False, cache_size=cache_size,
        )
        try:
            process_wall = drive(workload, svc, cycles)
        finally:
            svc.shutdown(deadline_s=5.0)

        hosts = [_Host(scratch, f"tp-{i}") for i in range(shards)]
        try:
            svc = ClusterService(
                shards=shards, shard_backend="net",
                shard_specs=[h.spec for h in hosts],
                journal_dir=scratch / "replicas", fsync=1,
                net_options=dict(NET_OPTS),
                warm_start=True, batching=False, cache_size=cache_size,
            )
            try:
                net_wall = drive(workload, svc, cycles)
                shipped = svc.stats().router["shipped_records"]
            finally:
                svc.close()
        finally:
            for host in hosts:
                host.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "shards": shards,
        "process_rps": round(requests / process_wall, 1),
        "net_rps": round(requests / net_wall, 1),
        "ratio": round(process_wall / net_wall, 3),
        "shipped_records": shipped,
    }


def bench_net_failover(
    workload: Workload, shards: int, drills: int, cache_size: int,
) -> dict:
    """SIGKILL-a-host drills: time drain-to-recovery off the replicas."""
    recoveries, lost, doubled, failovers = [], 0, 0, 0
    for drill in range(drills):
        scratch = pathlib.Path(
            tempfile.mkdtemp(prefix=f"bench-net-fo{drill}-")
        )
        hosts = [_Host(scratch, f"fo-{i}") for i in range(shards)]
        svc = None
        try:
            svc = ClusterService(
                shards=shards, shard_backend="net",
                shard_specs=[h.spec for h in hosts],
                journal_dir=scratch / "replicas", fsync=1,
                net_options=dict(NET_OPTS),
                warm_start=True, batching=False, cache_size=cache_size,
            )
            drive(workload, svc, 1)  # warm every family once
            drift = np.random.default_rng(1000 + drill)
            expect = {
                svc.submit(workload.request(fam, drift))
                for fam in range(workload.families)
            }
            hosts[0].die(lose_disk=True)
            t0 = time.perf_counter()
            responses = svc.drain()
            recoveries.append(time.perf_counter() - t0)
            got = [r.id for r in responses]
            doubled += len(got) - len(set(got))
            lost += len(expect - set(got))
            bad = [r for r in responses if not (r.ok and r.converged)]
            if bad:
                raise SystemExit(f"failover drill solve failed: {bad[0].error}")
            router = svc.stats().router
            failovers += router["failovers"]
            lost += router["failover_lost"]
        finally:
            if svc is not None:
                svc.close()
            for host in hosts:
                host.close()
            shutil.rmtree(scratch, ignore_errors=True)
        print(
            f"drill {drill}: recovery {recoveries[-1]:.3f}s  "
            f"lost={lost} doubled={doubled}",
            flush=True,
        )
    return {
        "drills": drills,
        "shards": shards,
        "requests_per_drill": workload.families,
        "recovery_p50_s": round(float(np.percentile(recoveries, 50)), 3),
        "recovery_p95_s": round(float(np.percentile(recoveries, 95)), 3),
        "failovers": failovers,
        "lost": lost,
        "doubled": doubled,
    }


def run_net(args) -> int:
    workload = Workload(args.size, args.families)

    throughput = bench_net_throughput(
        workload, args.net_shards, args.cycles, args.cache_size
    )
    print(
        f"net tp    n={args.size} K={args.families}  "
        f"process={throughput['process_rps']:.1f} rps  "
        f"net={throughput['net_rps']:.1f} rps  "
        f"ratio={throughput['ratio']:.3f}",
        flush=True,
    )

    failover = bench_net_failover(
        workload, args.net_shards, args.drills, args.cache_size
    )
    print(
        f"failover  drills={failover['drills']}  "
        f"p50={failover['recovery_p50_s']:.3f}s  "
        f"p95={failover['recovery_p95_s']:.3f}s  "
        f"lost={failover['lost']} doubled={failover['doubled']}",
        flush=True,
    )

    block = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "note": (
            "loopback shard-serve hosts with journal shipping on "
            "(fsync=1 both sides): ratio is the wire+shipping tax vs "
            "the process backend; failover drills SIGKILL a host and "
            "delete its journal dir, recovery replays solely from the "
            "router-side replicas"
        ),
        "workload": {
            "kind": "fixed",
            "size": args.size,
            "families": args.families,
            "cycles": args.cycles,
            "drift": DRIFT,
            "eps": EPS,
            "cache_size": args.cache_size,
        },
        "throughput": throughput,
        "failover": failover,
    }

    if not args.smoke:
        write_sweeps(args.out, {"netcluster": block})
        print(f"wrote netcluster block -> {args.out}")

    if args.check:
        problems = []
        if failover["lost"]:
            problems.append(f"{failover['lost']} request(s) lost")
        if failover["doubled"]:
            problems.append(f"{failover['doubled']} double answer(s)")
        if failover["failovers"] < args.drills:
            problems.append(
                f"only {failover['failovers']} failover(s) across "
                f"{args.drills} drills — kills did not exercise recovery"
            )
        if throughput["net_rps"] <= 0:
            problems.append("net throughput is zero")
        if problems:
            print("check: " + "; ".join(problems), file=sys.stderr)
            return 1
        print(
            f"check: {args.drills} drills exactly-once "
            f"(ratio={throughput['ratio']:.3f}, "
            f"p95={failover['recovery_p95_s']:.3f}s)"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=80,
                        help="table dimension n (n x n flows)")
    parser.add_argument("--families", type=int, default=48,
                        help="distinct structure families (routing keys)")
    parser.add_argument("--cycles", type=int, default=8,
                        help="round-robin revisits of every family")
    parser.add_argument("--cache-size", type=int, default=48,
                        help="warm-start cache entries per service")
    parser.add_argument("--shards", type=int, nargs="+",
                        default=[1, 2, 4, 8])
    parser.add_argument("--backend", default="inline",
                        choices=("inline", "process"),
                        help="shard backend for the curve (official: "
                             "inline — isolates cache affinity from IPC)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_sweeps.json")
    parser.add_argument("--net", action="store_true",
                        help="bench the TCP shard tier (loopback "
                             "shard-serve hosts, journal shipping on) "
                             "instead of the affinity curve; writes "
                             "the netcluster block")
    parser.add_argument("--net-shards", type=int, default=2,
                        help="host count for --net throughput and "
                             "failover drills")
    parser.add_argument("--drills", type=int, default=5,
                        help="--net: SIGKILL-a-host failover drills")
    parser.add_argument("--smoke", action="store_true",
                        help="CI: tiny workload, 1-vs-2-shard curve, "
                             "no JSON write")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the 4-shard point reaches "
                             "2.5x single-service throughput (with "
                             "--net: unless every drill is exactly-once)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.size, args.families, args.cycles = 40, 12, 3
        args.cache_size, args.shards = 12, [1, 2]
        args.drills = 2

    if args.net:
        return run_net(args)

    workload = Workload(args.size, args.families)
    requests = args.families * args.cycles

    single = bench_single(workload, args.cycles, args.cache_size)
    print(
        f"single    n={args.size} K={args.families}  "
        f"{single['wall_s']:7.2f}s  {single['rps']:6.1f} rps  "
        f"hit={single['hit_rate']:.3f}  "
        f"iters={single['mean_iterations']:.1f}",
        flush=True,
    )

    curve = []
    for shards in args.shards:
        row = bench_cluster(
            workload, shards, args.cycles, args.cache_size, args.backend
        )
        row["speedup"] = round(row["rps"] / single["rps"], 2)
        curve.append(row)
        hit_lo = min(row["hit_rates"].values())
        hit_hi = max(row["hit_rates"].values())
        print(
            f"{shards:2d}-shard   n={args.size} K={args.families}  "
            f"{row['wall_s']:7.2f}s  {row['rps']:6.1f} rps  "
            f"speedup={row['speedup']:.2f}x  "
            f"hit={hit_lo:.2f}..{hit_hi:.2f}  "
            f"iters={row['mean_iterations']:.1f}",
            flush=True,
        )

    block = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "note": (
            "single-CPU box: the speedup is warm-cache affinity from "
            "consistent-hash keyspace partitioning (per-shard working "
            "set fits the bounded dual cache), not parallel compute; "
            f"{args.backend} shard backend"
        ),
        "workload": {
            "kind": "fixed",
            "size": args.size,
            "families": args.families,
            "cycles": args.cycles,
            "requests": requests,
            "drift": DRIFT,
            "eps": EPS,
            "cache_size": args.cache_size,
        },
        "single": single,
        "curve": curve,
    }

    if not args.smoke:
        write_sweeps(args.out, {"cluster": block})
        print(f"wrote cluster block -> {args.out}")

    if args.check:
        four = next((r for r in curve if r["shards"] == 4), None)
        if four is None:
            print("check: no 4-shard point in the curve", file=sys.stderr)
            return 1
        if four["speedup"] < 2.5:
            print(
                f"check: 4-shard speedup {four['speedup']:.2f}x < 2.5x",
                file=sys.stderr,
            )
            return 1
        print(f"check: 4-shard speedup {four['speedup']:.2f}x >= 2.5x")
    if args.smoke and len(curve) > 1:
        # The smoke gate is deliberately loose — CI boxes are noisy;
        # it guards "sharding does not make things slower", the full
        # curve guards the 2.5x affinity win.
        if curve[-1]["rps"] < 0.8 * curve[0]["rps"]:
            print(
                f"smoke: {curve[-1]['shards']}-shard throughput "
                f"{curve[-1]['rps']} rps fell below 80% of 1-shard "
                f"{curve[0]['rps']} rps",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
