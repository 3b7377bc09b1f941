"""Open-loop TCP edge latency → the ``edge`` block of ``BENCH_sweeps.json``.

Drives an in-process :class:`repro.edge.EdgeServer` (real loopback
sockets, real framing) with an **open-loop** load generator: arrivals
follow a fixed schedule — Poisson (exponential inter-arrivals) and
bursty (back-to-back groups at the same average rate) — and are sent at
their scheduled instants whether or not earlier responses have come
back.  Closed-loop benchmarks hide queueing collapse (a slow server
slows its own clients); open-loop is how tail latency is actually
experienced.

Latency is measured from the *scheduled* arrival to response receipt,
so schedule slip (coordinated omission) is charged to the server, and
reported as p50/p99/p999 alongside the sustained RPS.  A log-bucketed
histogram is written as a machine-readable artifact for CI.

Usage::

    python benchmarks/bench_edge_latency.py              # full sweep
    python benchmarks/bench_edge_latency.py --smoke --check   # CI gate
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from _util import write_sweeps
from repro.edge import EdgeClient, EdgeServer
from repro.service.service import SolveService

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
HIST_PATH = REPO_ROOT / "benchmarks" / "results" / "edge_latency_hist.json"

EPS = 1e-4
DRIFT = 1e-4


def build_request_lines(n: int, families: int, count: int, seed=7):
    """``count`` pre-serialized request lines cycling ``families``
    drifting fixed-totals families of size n x n (warm-start friendly:
    revisits hit the dual cache, like a production totals stream)."""
    rng = np.random.default_rng(seed)
    payloads = []
    for k in range(families):
        x0 = rng.uniform(1.0, 10.0, (n, n))
        payloads.append({
            "kind": "fixed",
            "x0": x0.tolist(),
            "gamma": np.ones_like(x0).tolist(),
            "s0": x0.sum(axis=1).tolist(),
            "d0": x0.sum(axis=0).tolist(),
        })
    lines = []
    for i in range(count):
        problem = dict(payloads[i % families])
        drift = 1.0 + DRIFT * (i // families)
        problem["s0"] = [v * drift for v in problem["s0"]]
        problem["d0"] = [v * drift for v in problem["d0"]]
        lines.append(json.dumps(
            {"id": f"q{i}", "problem": problem, "eps": EPS},
            separators=(",", ":"),
        ).encode() + b"\n")
    return lines


def schedule(mode: str, rps: float, count: int, seed=11) -> np.ndarray:
    """Arrival offsets (seconds from start) for ``count`` requests."""
    rng = np.random.default_rng(seed)
    if mode == "poisson":
        return np.cumsum(rng.exponential(1.0 / rps, size=count))
    if mode == "bursty":
        # Groups of `burst` arrive back-to-back; groups are spaced to
        # the same average rate, so the instantaneous rate is ~10x.
        burst = 10
        starts = np.repeat(
            np.arange(math.ceil(count / burst)) * (burst / rps), burst
        )[:count]
        return starts + np.tile(
            np.linspace(0.0, 1e-4, burst), math.ceil(count / burst)
        )[:count]
    raise ValueError(f"unknown arrival mode {mode!r}")


async def run_mode(server, mode, rps, count, lines, conns):
    offsets = schedule(mode, rps, count)
    clients = [
        await EdgeClient.connect("127.0.0.1", server.port)
        for _ in range(conns)
    ]
    latencies = np.full(count, np.nan)
    errors = 0

    async def reader(client):
        nonlocal errors
        while True:
            resp = await client.recv()
            if resp is None:
                return
            i = int(resp["id"][1:])
            latencies[i] = time.perf_counter() - t0 - offsets[i]
            if resp["status"] != "ok":
                errors += 1

    readers = [asyncio.ensure_future(reader(c)) for c in clients]

    async def sender(conn_idx):
        client = clients[conn_idx]
        for i in range(conn_idx, count, conns):
            delay = t0 + offsets[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            # Open loop: write at the scheduled instant regardless of
            # outstanding responses (drain() only yields under socket
            # backpressure, which is then charged to the latency).
            client.writer.write(lines[i])
            await client.writer.drain()

    t0 = time.perf_counter()
    await asyncio.gather(*(sender(c) for c in range(conns)))
    deadline = time.perf_counter() + 60.0
    while np.isnan(latencies).any() and time.perf_counter() < deadline:
        await asyncio.sleep(0.01)
    wall = time.perf_counter() - t0
    for task in readers:
        task.cancel()
    for client in clients:
        await client.close()

    done = latencies[~np.isnan(latencies)]
    lost = int(count - done.size)
    p50, p99, p999 = (
        (np.percentile(done, [50, 99, 99.9]) * 1e3).tolist()
        if done.size else (float("nan"),) * 3
    )
    return {
        "mode": mode,
        "offered_rps": rps,
        "requests": count,
        "completed": int(done.size),
        "lost": lost,
        "errors": int(errors),
        "sustained_rps": round(done.size / wall, 1),
        "p50_ms": round(p50, 3),
        "p99_ms": round(p99, 3),
        "p999_ms": round(p999, 3),
        "max_ms": round(float(done.max() * 1e3), 3) if done.size else None,
        "connections": conns,
    }, done


def histogram(samples_by_mode: dict) -> dict:
    """Log-bucketed latency histogram (ms), one series per mode."""
    edges = np.logspace(-1, 4, 51)  # 0.1 ms .. 10 s
    out = {"bucket_edges_ms": edges.tolist(), "modes": {}}
    for mode, samples in samples_by_mode.items():
        counts, _ = np.histogram(samples * 1e3, bins=edges)
        out["modes"][mode] = counts.tolist()
    return out


async def bench(args):
    rows, samples = [], {}
    with SolveService(max_batch=args.window) as svc:
        server = EdgeServer(
            svc, port=0, window=args.window, flush_interval=0.002,
            include_matrix=not args.no_matrix,
        )
        await server.start()
        # Warm the dual cache once per family so the measured window
        # sees the steady state, not the cold ramp.
        warm = build_request_lines(args.size, args.families, args.families)
        async with await EdgeClient.connect(
            "127.0.0.1", server.port
        ) as client:
            for line in warm:
                client.writer.write(line)
            await client.writer.drain()
            for _ in warm:
                await client.recv()
        count = int(args.rps * args.duration)
        lines = build_request_lines(args.size, args.families, count)
        for mode in args.modes:
            row, done = await run_mode(
                server, mode, args.rps, count, lines, args.conns
            )
            rows.append(row)
            samples[mode] = done
            print(
                f"{mode:8s} offered={row['offered_rps']:6.0f} rps  "
                f"sustained={row['sustained_rps']:6.1f} rps  "
                f"p50={row['p50_ms']:7.2f}ms  p99={row['p99_ms']:7.2f}ms  "
                f"p999={row['p999_ms']:8.2f}ms  "
                f"lost={row['lost']}  errors={row['errors']}",
                flush=True,
            )
        await server.drain(30.0)
    return rows, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rps", type=float, default=600.0,
                        help="offered open-loop arrival rate")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="seconds of offered load per mode")
    parser.add_argument("--size", type=int, default=8,
                        help="problem dimension n (n x n totals)")
    parser.add_argument("--families", type=int, default=16,
                        help="distinct drifting problem families")
    parser.add_argument("--conns", type=int, default=8,
                        help="concurrent client connections")
    parser.add_argument("--window", type=int, default=32,
                        help="edge batching window")
    parser.add_argument("--no-matrix", action="store_true",
                        help="suppress x/s/d payloads in responses "
                             "(summary-stream clients; roughly halves "
                             "p50 at the same sustained rate)")
    parser.add_argument("--modes", nargs="+",
                        default=["poisson", "bursty"],
                        choices=("poisson", "bursty"))
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_sweeps.json")
    parser.add_argument("--hist", type=pathlib.Path, default=HIST_PATH,
                        help="latency histogram artifact (JSON)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI: 3s per mode, no BENCH_sweeps write")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless >= 500 RPS is sustained "
                             "with zero lost requests in every mode")
    args = parser.parse_args(argv)

    if args.smoke:
        args.duration = 3.0

    rows, samples = asyncio.run(bench(args))

    args.hist.parent.mkdir(parents=True, exist_ok=True)
    args.hist.write_text(json.dumps({
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rows": rows,
        "histogram": histogram(samples),
    }, indent=1) + "\n")
    print(f"wrote latency histogram -> {args.hist}")

    if not args.smoke:
        block = {
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "note": (
                "open-loop TCP edge on loopback, latency from scheduled "
                "arrival (coordinated omission charged to the server); "
                f"n={args.size} drifting fixed-totals, "
                f"{args.families} families, window={args.window}, "
                f"matrix payloads {'off' if args.no_matrix else 'on'}"
            ),
            "workload": {
                "kind": "fixed", "size": args.size,
                "families": args.families, "eps": EPS, "drift": DRIFT,
                "connections": args.conns, "window": args.window,
            },
            "modes": rows,
        }
        write_sweeps(args.out, {"edge": block})
        print(f"wrote edge block -> {args.out}")

    if args.check:
        bad = [r for r in rows
               if r["sustained_rps"] < 500.0 or r["lost"] or r["errors"]]
        if bad:
            print(f"CHECK FAILED: {[r['mode'] for r in bad]} under 500 "
                  "sustained RPS or lost/errored requests")
            return 1
        print("check ok: >= 500 RPS sustained, zero lost, zero errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
