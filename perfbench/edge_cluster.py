"""edge-cluster: the TCP edge in front of a two-shard cluster.

The program runs as ``python -m repro serve --tcp 127.0.0.1:0 --cluster
2 --journal DIR --stats`` (process shards, default window and fsync,
matrix payloads on).  The benchmark process is the load generator: two
connections sending pipelined n = 8 fixed-totals requests (``eps =
1e-4``) drawn in turn from 16 families whose totals drift by a uniform
±1% step per revision (seeded random walk), each request pre-encoded
before it is timed.

Phases, after one untimed warm-up request per family:

* closed loop — ``IN_FLIGHT`` requests kept in flight (half per
  connection), each answer triggering the next send; the capacity is
  the median of the per-second completion counts;
* open loop — Poisson arrivals at the fixed ``OPEN_RATE`` (about half
  the capacity this workload was calibrated at), alternating
  connections, each latency timed from the request's *scheduled* send,
  so a stall is charged to every request it delays; the tail is the
  median over chunks of consecutive arrivals of each chunk's p95.  How
  late the generator itself sent is reported; a run whose generator
  fell behind by more than ``LAG_LIMIT_MS`` at its p95 is repeated, and
  fails when it keeps falling behind.

Every response must answer its request exactly once, in order on its
connection, with ``status: ok``, a converged solve and row sums within
``ROW_TOL`` (relative) of the request's ``s0``.

Why: edge framing, the wire codec, routing, the pipe transport,
batching and many small journal records do the work; the kernel does
almost none.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import sys
import time
from collections import deque

import perflib

NAME = "edge-cluster"
N = 8
TINY_N = 4
FAMILIES = 16
CONNECTIONS = 2
IN_FLIGHT = 32
OPEN_RATE = 100.0  # requests per second
EPS = 1e-4
ROW_TOL = 1e-3
DRIFT = 0.01
CLOSED_SHARE, OPEN_SHARE = 0.4, 0.5  # of the measured seconds
LAG_LIMIT_MS = 20.0
LAG_Q = 95.0  # half-length traced phases still leave 37 sends beyond it
# The latency tail is the median over chunks of TAIL_CHUNK consecutive
# arrivals of each chunk's p95 (15 requests beyond it per chunk).  A
# whole-phase p99 has only ~15 requests beyond it at this rate, and on
# a shared two-core host one stall episode moved it by a third between
# otherwise identical runs.
TAIL_Q = 95.0
TAIL_CHUNK = 300
ANSWER_TIMEOUT_S = 120.0
OPEN_ATTEMPTS = 3
SETUP_RUNS = 5
LINE_LIMIT = 2**24
# Closed-loop requests encoded ahead per measured second, so the
# generator spends its time on the sockets; more are encoded on demand.
POOL_RATE = 1000


class Requests:
    """Seeded drifting fixed-totals requests, encoded on demand; keeps
    every issued request's row totals for verification."""

    def __init__(self, seed: int, n: int) -> None:
        import numpy as np
        from repro.io import problem_to_jsonable

        from repro import FixedTotalsProblem

        self._rng = np.random.default_rng(seed)
        self._families = []
        for _ in range(FAMILIES):
            x0 = self._rng.uniform(1.0, 10.0, (n, n))
            s0 = x0.sum(1) * (1.0 + self._rng.uniform(0.0, 0.5, n))
            d0 = x0.sum(0) * (1.0 + self._rng.uniform(0.0, 0.5, n))
            d0 *= s0.sum() / d0.sum()
            problem = FixedTotalsProblem(x0=x0, gamma=1.0 / x0, s0=s0, d0=d0)
            self._families.append([problem_to_jsonable(problem), s0, d0])
        self.s0 = []

    def take(self) -> tuple[int, bytes]:
        i = len(self.s0)
        family = self._families[i % FAMILIES]
        payload, s0, d0 = family
        s0 = s0 * (1.0 + self._rng.uniform(-DRIFT, DRIFT, s0.size))
        d0 = d0 * (1.0 + self._rng.uniform(-DRIFT, DRIFT, d0.size))
        d0 *= s0.sum() / d0.sum()
        family[1], family[2] = s0, d0
        self.s0.append(s0)
        problem = dict(payload, s0=s0.tolist(), d0=d0.tolist())
        line = json.dumps({"id": f"q{i}", "problem": problem, "eps": EPS},
                          separators=(",", ":"))
        return i, line.encode() + b"\n"

    def verified(self, i: int, line: bytes) -> bool:
        import numpy as np

        try:
            obj = json.loads(line)
            if (obj["id"], obj["status"], obj["converged"]) != (
                    f"q{i}", "ok", True):
                return False
            rows = np.asarray(obj["x"], dtype=np.float64).sum(axis=1)
        except (ValueError, KeyError, TypeError):
            return False
        s0 = self.s0[i]
        return rows.shape == s0.shape and bool(
            np.max(np.abs(rows - s0)) <= ROW_TOL * np.max(s0))


class Server:
    """One launched ``serve --tcp --cluster 2`` process; ``spans`` set
    runs it through the traced launcher."""

    def __init__(self, journal_dir, spans=None) -> None:
        shutil.rmtree(journal_dir, ignore_errors=True)
        serve = ["serve", "--tcp", "127.0.0.1:0", "--cluster", "2",
                 "--journal", str(journal_dir), "--stats"]
        if spans is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable,
                    str(perflib.ROOT / "perfbench" / "edge_launcher.py"),
                    str(spans), *serve]
        self.journal_dir = journal_dir
        self.child = perflib.ChildProcess(argv)
        try:
            stamp, line = self.child.wait_line("edge listening on", 120.0)
        except BaseException:
            self.child.stop()
            raise
        self.setup_s = stamp - self.child.started
        self.port = int(line.rsplit(":", 1)[1])
        self.peak_rss_mb = 0.0

    def stop(self) -> dict:
        """Read the process tree's peak memory, SIGTERM, and return the
        ``--stats`` document the drained server prints."""
        self.peak_rss_mb = perflib.tree_peak_rss_mb(self.child.proc.pid)
        code = self.child.stop()
        if code != 0:
            raise RuntimeError(
                f"server exited {code}:\n{self.child.stderr_text()[-2000:]}")
        for _, line in reversed(self.child.lines):
            if line.startswith("{"):
                return json.loads(line)
        raise RuntimeError("server printed no --stats document")

    def journal_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.journal_dir.rglob("*")
                   if p.is_file())


async def _connect(port: int):
    return [
        await asyncio.open_connection("127.0.0.1", port, limit=LINE_LIMIT)
        for _ in range(CONNECTIONS)
    ]


async def _close(streams) -> None:
    for _, writer in streams:
        writer.close()
        await writer.wait_closed()


async def closed_loop(port, reqs, duration: float, in_flight: int):
    """Returns ``(t0, t_end, records, sent)`` with one ``(index, line,
    received)`` record per answer; the caller counts requests ``sent``
    but never answered as failed."""
    pool = deque(reqs.take() for _ in range(int(duration * POOL_RATE)))
    streams = await _connect(port)
    records, sent = [], [0]
    t0 = time.perf_counter()
    t_end = t0 + duration

    async def drive(reader, writer):
        pending = deque()

        def send():
            i, line = pool.popleft() if pool else reqs.take()
            pending.append(i)
            writer.write(line)
            sent[0] += 1

        for _ in range(in_flight // CONNECTIONS):
            send()
        while pending:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            records.append((pending.popleft(), line, now))
            if now < t_end:
                send()

    try:
        await asyncio.wait_for(
            asyncio.gather(*(drive(r, w) for r, w in streams)),
            duration + ANSWER_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    await _close(streams)
    return t0, t_end, records, sent[0]


async def open_loop(port, reqs, rate: float, duration: float, rng) -> dict:
    """Poisson arrivals at ``rate`` for ``duration`` seconds.  Per
    arrival: scheduled offset from ``t0``, request, generator lag,
    latency from the scheduled send (``None`` when unanswered) and the
    response line."""
    count = max(1, int(rate * duration))
    offsets = rng.exponential(1.0 / rate, count).cumsum()
    items = [reqs.take() for _ in range(count)]
    lag = [0.0] * count
    received = [None] * count
    lines = [None] * count
    streams = await _connect(port)
    t0 = time.perf_counter() + 0.05

    async def sender(c, writer):
        for k in range(c, count, CONNECTIONS):
            due = t0 + offsets[k]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag[k] = time.perf_counter() - due
            writer.write(items[k][1])

    async def reader(c, stream_reader):
        for k in range(c, count, CONNECTIONS):
            line = await stream_reader.readline()
            if not line:
                return
            received[k] = time.perf_counter()
            lines[k] = line

    tasks = [sender(c, w) for c, (_, w) in enumerate(streams)]
    tasks += [reader(c, r) for c, (r, _) in enumerate(streams)]
    try:
        await asyncio.wait_for(asyncio.gather(*tasks),
                               duration + ANSWER_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    await _close(streams)
    latency = [
        None if received[k] is None else received[k] - (t0 + offsets[k])
        for k in range(count)
    ]
    return {"t0": t0, "end": t0 + float(offsets[-1]), "items": items,
            "lag": lag, "latency": latency, "lines": lines}


def _capacity(t0: float, t_end: float, records) -> float:
    """Median of the completion counts of the whole seconds in
    ``[t0, t_end)`` (the plain rate when the phase is under a second)."""
    windows = int(t_end - t0)
    if windows < 1:
        return sum(1 for r in records if r[2] < t_end) / (t_end - t0)
    counts = [0] * windows
    for _, _, received in records:
        w = int(received - t0)
        if 0 <= w < windows:
            counts[w] += 1
    return perflib.median(counts)


def _chunked_tail(latency) -> tuple[float, float, int]:
    """``(q, value, chunks)``: the median over consecutive chunks of
    ``TAIL_CHUNK`` arrivals of each chunk's ``TAIL_Q`` latency.  One
    stall episode moves one chunk's tail, not the median of them."""
    chunks = [latency[i:i + TAIL_CHUNK]
              for i in range(0, len(latency), TAIL_CHUNK)]
    if len(chunks) > 1 and len(chunks[-1]) < TAIL_CHUNK:
        chunks.pop()  # a partial last chunk has too few samples beyond
    tails = [perflib.tail([x for x in c if x is not None], TAIL_Q)
             for c in chunks]
    return tails[0][0], perflib.median([t[1] for t in tails]), len(tails)


def _phases(port, reqs, seconds: float, rng, out) -> dict:
    """Warm-up, closed loop and open loop against one server; every
    answer is verified, whichever phase or attempt it belongs to."""

    async def main():
        # One answered request per family before anything is timed.
        warm = await closed_loop(port, reqs, 0.0, FAMILIES)
        closed = await closed_loop(port, reqs, CLOSED_SHARE * seconds,
                                   IN_FLIGHT)
        attempts = []
        while len(attempts) < OPEN_ATTEMPTS:
            attempts.append(await open_loop(port, reqs, OPEN_RATE,
                                            OPEN_SHARE * seconds, rng))
            _, lag_tail, _ = perflib.tail(attempts[-1]["lag"], LAG_Q)
            if lag_tail * 1e3 <= LAG_LIMIT_MS:
                return warm, closed, attempts
            out.notes.append(
                f"open loop attempt {len(attempts)} invalid: generator lag "
                f"p{LAG_Q:g} {lag_tail * 1e3:.1f} ms > {LAG_LIMIT_MS} ms")
        raise RuntimeError("load generator kept falling behind its "
                           "schedule; the measurement is invalid")

    warm, closed, attempts = asyncio.run(main())
    checked = [(i, line) for loop in (warm, closed) for i, line, _ in loop[2]]
    attempted = warm[3] + closed[3]
    for opened in attempts:
        attempted += len(opened["items"])
        checked += [(item[0], line)
                    for item, line in zip(opened["items"], opened["lines"])
                    if line is not None]
    out.attempted += attempted
    out.failed += sum(1 for i, line in checked if not reqs.verified(i, line))
    out.failed += attempted - len(checked)
    c0, c_end, records, _ = closed
    opened = attempts[-1]
    done = [x for x in opened["latency"] if x is not None]
    return {
        "capacity": _capacity(c0, c_end, records),
        "latency": done, "tail": _chunked_tail(opened["latency"]),
        "lag": opened["lag"], "window": (c0, opened["end"]),
        "ops": len(records) + len(done),
    }


def _server_dir(k: int):
    return perflib.WORK / "edge" / f"journal-{k}"


def run(seed: int, seconds: float, trace: bool, tiny: bool = False):
    import numpy as np
    from repro.equilibration.backends import get_backend

    n = TINY_N if tiny else N
    reqs = Requests(seed, n)
    rng = np.random.default_rng(seed)
    out = perflib.Outcome()
    out.notes.append(
        f"# {NAME} seed={seed} n={n} families={FAMILIES} drift=+-{DRIFT:.0%}"
        f" connections={CONNECTIONS} in_flight={IN_FLIGHT} "
        f"open_rate={OPEN_RATE:g}/s eps={EPS} backend={get_backend().name}"
    )
    if not trace:
        setups = []
        for k in range((2 if tiny else SETUP_RUNS) - 1):
            probe = Server(_server_dir(k))
            setups.append(probe.setup_s)
            probe.stop()
        server = Server(_server_dir(SETUP_RUNS))
        setups.append(server.setup_s)
        try:
            phase = _phases(server.port, reqs, seconds, rng, out)
        finally:
            server.stop()
        _report(out, phase)
        out.notes.append(
            "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
        out.metrics.update({
            "ops_per_s": phase["capacity"],
            "latency_p50_ms": perflib.median(phase["latency"]) * 1e3,
            "latency_tail_ms": phase["tail"][1] * 1e3,
            "setup_s": perflib.median(setups),
            "peak_rss_mb": server.peak_rss_mb,
        })
        return out

    # Trace run: an untraced server, then the traced launcher, each for
    # half the measured time.
    server = Server(_server_dir(0))
    try:
        plain = _phases(server.port, reqs, seconds / 2, rng, out)
    finally:
        server.stop()
    spans_path = perflib.WORK / "edge" / "spans.json"
    server = Server(_server_dir(1), spans=spans_path)
    try:
        traced = _phases(server.port, reqs, seconds / 2, rng, out)
    finally:
        stats = server.stop()
    _report(out, plain, "untraced")
    _report(out, traced, "traced")
    t0, t1 = traced["window"]
    spans = perflib.window(perflib.load_spans(spans_path), t0, t1)
    ops = traced["ops"]
    service = stats["service"]
    completed = service["completed"]
    drain = (perflib.total(spans, "cluster.drain")
             + perflib.total(spans, "cluster.collect"))
    shard_solve = perflib.per_op(service["total_solve_time"], completed)
    lookups = service["cache_hits"] + service["cache_misses"]
    sorts = service["sort_rows_reused"] + service["sort_rows_resorted"]
    _, lag_tail, _ = perflib.tail(plain["lag"], LAG_Q)
    out.metrics.update({
        "core.iterations_per_op": perflib.per_op(
            service["total_iterations"], completed),
        "equilibration.calls_per_op": perflib.per_op(
            service["sort_sweeps"], completed),
        "equilibration.sort_reuse_rate": (
            service["sort_rows_reused"] / sorts if sorts else 0.0),
        "equilibration.rows_skipped_per_op": perflib.per_op(
            service["sort_rows_skipped"], completed),
        "equilibration.perm_repairs_per_op": perflib.per_op(
            service["sort_perm_repairs"], completed),
        "equilibration.full_resorts_per_op": perflib.per_op(
            service["sort_full_resorts"], completed),
        "service.cache_hit_rate": (
            service["cache_hits"] / lookups if lookups else 0.0),
        "service.batched_share": perflib.per_op(
            service["batched_requests"], completed),
        "journal.bytes_per_op": perflib.per_op(
            server.journal_bytes(), completed) / 1024.0,
        "journal.records_per_op": perflib.per_op(
            service["journal_records"], completed),
        "wire.decode_ms_per_op": perflib.per_op(
            perflib.total(spans, "wire.decode"), ops) * 1e3,
        "wire.encode_ms_per_op": perflib.per_op(
            perflib.total(spans, "wire.encode"), ops) * 1e3,
        "cluster.submit_ms_per_op": perflib.per_op(
            perflib.total(spans, "cluster.submit"), ops) * 1e3,
        "cluster.drain_ms_per_op": perflib.per_op(drain, ops) * 1e3,
        "cluster.shard_solve_ms_per_op": shard_solve * 1e3,
        "edge.responses_per_drain": perflib.per_op(
            stats["responses"], stats["drains"]),
        "gen.lag_p50_ms": perflib.median(plain["lag"]) * 1e3,
        "gen.lag_tail_ms": lag_tail * 1e3,
        "trace.overhead_pct": (
            plain["capacity"] / traced["capacity"] - 1.0) * 100.0,
        "trace.unattributed_share": (
            1.0 - perflib.covered(spans, t0, t1) / (t1 - t0)),
    })
    return out


def _report(out, phase, label: str = "") -> None:
    q, tail_s, chunks = phase["tail"]
    lq, lag_tail, _ = perflib.tail(phase["lag"], LAG_Q)
    prefix = f"{label} " if label else ""
    out.notes.append(
        f"{prefix}closed-loop capacity {phase['capacity']:.1f} req/s; open "
        f"loop at {OPEN_RATE:g}/s: p50 "
        f"{perflib.median(phase['latency']) * 1e3:.2f} ms, tail = median "
        f"over {chunks} chunks of {TAIL_CHUNK} of p{q:g} {tail_s * 1e3:.2f} "
        f"ms (whole-phase p99 "
        f"{perflib.percentile(phase['latency'], 99) * 1e3:.2f} ms); "
        f"generator lag p50 {perflib.median(phase['lag']) * 1e3:.3f} ms, "
        f"p{lq:g} {lag_tail * 1e3:.3f} ms"
    )
