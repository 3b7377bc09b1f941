"""Chaos soak: cluster + edge + proxy + supervisor under seeded faults.

One :class:`~repro.chaos.ChaosSchedule` drives every fault layer at
once: the :class:`~repro.chaos.ChaosProxy` injects latency, heavy-tailed
jitter, byte corruption, mid-frame truncation, connection resets and two
full partition windows between a fleet of
:class:`~repro.edge.ResilientEdgeClient` sessions and the
:class:`~repro.edge.EdgeServer`; the schedule's ``shard_kills`` rider
SIGKILLs process replicas of the :class:`~repro.cluster.ClusterService`
behind it; and a :class:`~repro.supervisor.Supervisor` runs the whole
time, respawning dead shards and logging every action it takes to a
JSONL journal.

The soak is a *gate*, not a dice roll — the schedule is seeded and
replayable — and the pass criteria are the durability contract end to
end through the hostile network:

- **zero lost**: every request resolves within its (generous) deadline;
- **zero double-answered**: the per-shard write-ahead journals, the
  ground truth for what was solved, record exactly one response per id
  no matter how many times the client resubmitted it;
- **availability >= 99%**: the fraction of requests answered ``ok``.

Artifacts (written even on failure — a failing soak ships its own
evidence): the proxy's fault event log and the supervisor's action
journal, both under ``benchmarks/results/``.

Usage::

    python benchmarks/bench_chaos_soak.py                 # full soak,
                                                          # writes the
                                                          # ``chaos``
                                                          # BENCH block
    python benchmarks/bench_chaos_soak.py --smoke --check # CI gate
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from _util import write_sweeps
from repro.chaos import ChaosProxy, ChaosSchedule
from repro.cluster import ClusterService
from repro.core.problems import FixedTotalsProblem
from repro.edge import EdgeServer, ResilientEdgeClient
from repro.errors import DeadlineExceededError
from repro.supervisor import Supervisor

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
EVENTS_PATH = RESULTS_DIR / "chaos_proxy_events.jsonl"
ACTIONS_PATH = RESULTS_DIR / "chaos_soak_actions.jsonl"

EPS = 1e-4


def build_problems(n: int, families: int, seed=7):
    """Drifting fixed-totals families (warm-start-friendly stream)."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(families):
        x0 = rng.uniform(1.0, 10.0, (n, n))
        problems.append(FixedTotalsProblem(
            x0=x0, gamma=np.ones_like(x0),
            s0=x0.sum(axis=1), d0=x0.sum(axis=0),
        ))
    return problems


def make_schedule(duration: float, shards: int, seed: int) -> ChaosSchedule:
    """Everything at once, scaled to the soak length: latency + Pareto
    jitter on every chunk, ~1% corruption/truncation and ~2% resets,
    two partition windows, and kills touching >= 20% of the shards.
    ``start_after_chunks=1`` exempts each connection's first chunk (the
    hello + resubmission burst), so a reconnect is never strangled at
    birth — later traffic gets no such mercy."""
    kills = max(1, -(-shards // 4))  # ceil(shards/4) -> >= 25% of shards
    return ChaosSchedule(
        seed=seed,
        latency_s=0.002,
        jitter_s=0.002,
        jitter_alpha=1.5,
        corrupt_fraction=0.01,
        truncate_fraction=0.01,
        reset_fraction=0.02,
        partitions=(
            (0.30 * duration, 0.30 * duration + 0.12 * duration),
            (0.70 * duration, 0.70 * duration + 0.08 * duration),
        ),
        start_after_chunks=1,
        shard_kills=tuple(
            (duration * (0.45 + 0.2 * k / max(1, kills)), k % shards)
            for k in range(kills)
        ),
    )


async def run_soak(args):
    problems = build_problems(args.size, args.families)
    schedule = make_schedule(args.duration, args.shards, args.seed)
    per_client = args.requests
    total = per_client * args.clients
    gap = args.duration / max(1, per_client)
    latencies: dict[str, float] = {}
    ok = errors = 0
    lost_ids: list[str] = []

    cluster = ClusterService(
        shards=args.shards, shard_backend="process",
        journal_dir=args.journal_dir, workers=1,
    )
    with cluster:
        server = EdgeServer(
            cluster, port=0, window=8, flush_interval=0.005,
            include_matrix=False,
        )
        await server.start()
        supervisor = Supervisor(
            cluster, interval_s=0.3, journal=ACTIONS_PATH,
            queue_high=4.0 * total,  # only the dead-shard rule should fire
        )
        supervisor.attach_edge(server)
        async with ChaosProxy(
            "127.0.0.1", server.port, schedule
        ) as proxy:
            sup_task = asyncio.ensure_future(
                supervisor.run_async(call=server._svc)
            )
            kills_executed = []

            async def killer():
                """Execute the schedule's shard_kills rider: SIGKILL
                process replicas at their appointed instants.  The
                supervisor's dead-shard rule (and the router's own
                revive-on-error path) brings them back."""
                for t, idx in schedule.shard_kills:
                    delay = t - proxy.elapsed()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    sid = f"shard-{idx % args.shards}"
                    shard = cluster._shards[sid]
                    if hasattr(shard, "kill"):
                        await asyncio.get_running_loop().run_in_executor(
                            None, shard.kill
                        )
                        kills_executed.append(
                            {"t": round(proxy.elapsed(), 3), "shard": sid}
                        )
                        print(f"  killed {sid} at t={proxy.elapsed():.2f}s",
                              flush=True)

            async def client_load(c: int, client: ResilientEdgeClient):
                nonlocal ok, errors
                for i in range(per_client):
                    t0 = time.perf_counter()
                    try:
                        resp = await client.request(
                            problems[(c + i) % len(problems)],
                            eps=EPS, timeout=args.request_timeout,
                        )
                    except (DeadlineExceededError, ConnectionError):
                        lost_ids.append(f"s:{client.session}:q{i + 1}")
                        continue
                    rid = f"s:{client.session}:{resp['id']}"
                    latencies[rid] = time.perf_counter() - t0
                    if resp.get("status") == "ok":
                        ok += 1
                    else:
                        errors += 1
                    if gap > 0:
                        await asyncio.sleep(gap * 0.9)

            kill_task = asyncio.ensure_future(killer())
            clients = [
                ResilientEdgeClient(
                    "127.0.0.1", proxy.port, session=f"soak-{c}",
                    connect_timeout=2.0, attempt_timeout=1.0,
                    seed=args.seed + c,
                )
                for c in range(args.clients)
            ]
            try:
                await asyncio.gather(*(
                    client_load(c, client)
                    for c, client in enumerate(clients)
                ))
            finally:
                await kill_task
                sup_task.cancel()
                try:
                    await sup_task
                except asyncio.CancelledError:
                    pass
                client_stats = [cl.stats.as_dict() for cl in clients]
                for client in clients:
                    await client.close()
            proxy.write_events(args.events)
        await server.drain(30.0)
        supervisor.journal.close()
        # drain() snapshotted the cluster stats before shutting the
        # shard children down; calling cluster.stats() here would
        # respawn every shard just to count them.
        cluster_stats = server.final_service_stats_obj

    # Ground truth: one journaled response per id, cluster-wide.
    response_counts: dict[str, int] = {}
    request_counts: dict[str, int] = {}
    for path in sorted(pathlib.Path(args.journal_dir).glob("shard-*.journal")):
        for line in path.read_text().splitlines():
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # a torn tail record is the journal's problem
            if not isinstance(obj, dict):
                continue
            if obj.get("type") == "response":
                rid = obj.get("id")
                response_counts[rid] = response_counts.get(rid, 0) + 1
            elif obj.get("type") == "request":
                rid = obj.get("id")
                request_counts[rid] = request_counts.get(rid, 0) + 1
    doubles = {r: c for r, c in response_counts.items() if c > 1}
    for rid in lost_ids:
        print(f"  LOST {rid}: journal requests="
              f"{request_counts.get(rid, 0)} responses="
              f"{response_counts.get(rid, 0)}", flush=True)
    if lost_ids:
        print(f"  edge stats: {server.stats.as_dict()}", flush=True)
        for c, s in enumerate(client_stats):
            print(f"  soak-{c}: {s}", flush=True)

    fleet = {
        key: sum(s[key] for s in client_stats)
        for key in client_stats[0]
    }
    samples = np.array(sorted(latencies.values()))
    p50, p99 = (
        (np.percentile(samples, [50, 99]) * 1e3).tolist()
        if samples.size else (float("nan"),) * 2
    )
    actions = [e for e in supervisor.journal.entries if e["phase"] == "apply"]
    outcomes = [e.get("outcome") for e in supervisor.journal.entries
                if e["phase"] == "verify"]
    return {
        "requests": total,
        "ok": ok,
        "errors": errors,
        "lost": len(lost_ids),
        "double_answered": len(doubles),
        "availability": round(ok / total, 4) if total else 0.0,
        "p50_ms": round(p50, 3),
        "p99_ms": round(p99, 3),
        "max_ms": round(float(samples.max() * 1e3), 3)
        if samples.size else None,
        "client_fleet": fleet,
        "faults": dict(proxy.injected),
        "shard_kills": kills_executed,
        "respawns": dict(cluster_stats.router["respawns"]),
        "supervisor": {
            "actions": len(actions),
            "by_action": sorted({e["action"] for e in actions}),
            "outcomes": {o: outcomes.count(o) for o in sorted(set(outcomes))},
        },
    }, schedule


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=20.0,
                        help="soak length the fault schedule is scaled to")
    parser.add_argument("--clients", type=int, default=4,
                        help="resilient session clients")
    parser.add_argument("--requests", type=int, default=40,
                        help="requests per client")
    parser.add_argument("--shards", type=int, default=4,
                        help="cluster process replicas")
    parser.add_argument("--size", type=int, default=6,
                        help="problem dimension n (n x n totals)")
    parser.add_argument("--families", type=int, default=8,
                        help="distinct drifting problem families")
    parser.add_argument("--seed", type=int, default=2026,
                        help="schedule + client jitter seed")
    parser.add_argument("--request-timeout", type=float, default=60.0,
                        help="hard per-request deadline; expiry = lost")
    parser.add_argument("--journal-dir", type=pathlib.Path,
                        default=RESULTS_DIR / "chaos_soak_journal",
                        help="cluster write-ahead journal directory "
                             "(wiped at start: it is the doubles oracle)")
    parser.add_argument("--events", type=pathlib.Path, default=EVENTS_PATH,
                        help="proxy fault event log (JSONL artifact)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_sweeps.json")
    parser.add_argument("--smoke", action="store_true",
                        help="CI: short soak, no BENCH_sweeps write")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless zero lost, zero "
                             "double-answered and availability >= 99%%")
    args = parser.parse_args(argv)

    if args.smoke:
        args.duration = min(args.duration, 8.0)
        args.clients = min(args.clients, 3)
        args.requests = min(args.requests, 12)
        args.request_timeout = min(args.request_timeout, 30.0)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    # Fresh journals: stale response records would count as doubles.
    args.journal_dir.mkdir(parents=True, exist_ok=True)
    for stale in args.journal_dir.glob("shard-*.journal"):
        stale.unlink()
    if ACTIONS_PATH.exists():
        ACTIONS_PATH.unlink()

    results, schedule = asyncio.run(run_soak(args))

    print(
        f"soak: {results['requests']} requests  ok={results['ok']}  "
        f"errors={results['errors']}  lost={results['lost']}  "
        f"doubles={results['double_answered']}  "
        f"availability={results['availability']:.2%}\n"
        f"      p50={results['p50_ms']:.1f}ms  p99={results['p99_ms']:.1f}ms  "
        f"faults={results['faults']}  kills={len(results['shard_kills'])}  "
        f"respawns={results['respawns']}\n"
        f"      fleet reconnects={results['client_fleet']['reconnects']}  "
        f"resubmissions={results['client_fleet']['resubmissions']}  "
        f"replayed={results['client_fleet']['replayed_answers']}  "
        f"supervisor actions={results['supervisor']['actions']}",
        flush=True,
    )
    print(f"wrote proxy events -> {args.events}")
    print(f"wrote supervisor actions -> {ACTIONS_PATH}")

    if not args.smoke:
        block = {
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "note": (
                "seeded chaos soak on loopback: resilient session "
                "clients through a fault-injection proxy (latency + "
                "Pareto jitter, corruption, truncation, resets, two "
                "partition windows) into a process-sharded cluster "
                "with SIGKILLed replicas and a self-healing "
                "supervisor; doubles counted from the per-shard "
                "write-ahead journals"
            ),
            "workload": {
                "kind": "fixed", "size": args.size,
                "families": args.families, "eps": EPS,
                "clients": args.clients,
                "requests_per_client": args.requests,
                "shards": args.shards, "window": 8,
                "duration_s": args.duration,
            },
            "schedule": schedule.to_jsonable(),
            "results": results,
            "gates": {
                "zero_lost": results["lost"] == 0,
                "zero_double_answered": results["double_answered"] == 0,
                "availability_floor": 0.99,
                "availability_ok": results["availability"] >= 0.99,
            },
        }
        write_sweeps(args.out, {"chaos": block})
        print(f"wrote chaos block -> {args.out}")

    if args.check:
        failures = []
        if results["lost"]:
            failures.append(f"{results['lost']} lost requests")
        if results["double_answered"]:
            failures.append(
                f"{results['double_answered']} double-answered ids"
            )
        if results["availability"] < 0.99:
            failures.append(
                f"availability {results['availability']:.2%} < 99%"
            )
        if failures:
            print(f"CHECK FAILED: {'; '.join(failures)}")
            return 1
        print("check ok: zero lost, zero double-answered, "
              f"availability {results['availability']:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
