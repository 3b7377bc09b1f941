#!/usr/bin/env python
"""Concurrent clients over the TCP edge: `repro.edge` end to end.

The stdin JSONL session of ``serve --jsonl`` is one pipe, one client.
The TCP edge lifts the same wire format onto sockets: many concurrent
connections, each pipelining requests and reading responses back in
its own request order, multiplexed onto one batching `SolveService`.

This example starts an :class:`~repro.edge.EdgeServer` in-process
(exactly what ``python -m repro serve --tcp HOST:PORT`` runs), then:

1. connects three clients that each pipeline a burst of drifting
   fixed-totals revisions without waiting for responses — the service
   fuses the concurrent arrivals into batched kernel runs;
2. shows connection-scoped request ids: every client names its
   requests ``rev-0 .. rev-N``, and nothing collides;
3. demonstrates a deadline propagated from socket arrival (an
   impossible budget is answered ``deadline-exceeded`` without ever
   touching the solver) and a malformed frame answered in stream
   position while the connection lives on.

Run:  python examples/edge_stream.py
"""

import asyncio
import time

import numpy as np

from repro.core.problems import FixedTotalsProblem
from repro.edge import EdgeClient, EdgeServer
from repro.service import SolveService

SIZE = 12
REVISIONS = 20
CLIENTS = 3
DRIFT = 0.02


def revisions(rng, count):
    """One table, ``count`` drifting totals revisions."""
    x0 = rng.uniform(1.0, 20.0, (SIZE, SIZE))
    gamma = rng.uniform(1.0, 10.0, (SIZE, SIZE))
    for _ in range(count):
        scale = rng.uniform(1.0 - DRIFT, 1.0 + DRIFT)
        yield FixedTotalsProblem(
            x0=x0, gamma=gamma,
            s0=x0.sum(axis=1) * scale, d0=x0.sum(axis=0) * scale,
        )


async def client_burst(port, name, seed):
    """One client: pipeline every revision, then read the answers."""
    rng = np.random.default_rng(seed)
    async with await EdgeClient.connect("127.0.0.1", port) as client:
        for i, problem in enumerate(revisions(rng, REVISIONS)):
            # send() returns as soon as the line is written — the
            # whole burst is on the wire before any response arrives.
            await client.send(problem, id=f"rev-{i}")
        answered = 0
        for i in range(REVISIONS):
            resp = await client.recv()
            assert resp["id"] == f"rev-{i}", "responses arrive in order"
            answered += resp["status"] == "ok"
        print(f"  {name}: {answered}/{REVISIONS} revisions answered, "
              f"in request order")


async def edge_demo():
    rng = np.random.default_rng(0)
    with SolveService(max_batch=16) as service:
        server = EdgeServer(service, port=0, window=16)
        await server.start()
        print(f"edge listening on 127.0.0.1:{server.port}")

        t0 = time.perf_counter()
        await asyncio.gather(*(
            client_burst(server.port, f"client-{c}", seed=c)
            for c in range(CLIENTS)
        ))
        wall = time.perf_counter() - t0
        total = CLIENTS * REVISIONS
        print(f"{total} requests across {CLIENTS} pipelined connections "
              f"in {wall:.2f}s ({total / wall:.0f} rps)")

        # -- deadlines and malformed frames ------------------------------
        async with await EdgeClient.connect("127.0.0.1", server.port) as c:
            problem = next(revisions(rng, 1))
            # A budget that expired before dispatch never reaches the
            # solver: the edge answers from its intake queue.
            resp = await c.request(problem, id="late", deadline_s=1e-9)
            print(f"expired deadline -> {resp['error']['kind']}")
            # A malformed frame is answered in stream position; the
            # connection (and everything pipelined behind it) lives on.
            await c.send_raw('{"this is": not json')
            await c.send(problem, id="after-garbage")
            bad, good = await c.recv(), await c.recv()
            print(f"malformed frame  -> {bad['error']['kind']} "
                  f"(line {bad['line']}), next request still "
                  f"{good['status']!r}")

        await server.drain(10.0)
        stats = server.stats
    print(f"edge stats: {stats.requests} accepted, "
          f"{stats.responses} answered, {stats.edge_errors} frame errors, "
          f"{stats.deadline_expired} expired in intake")


if __name__ == "__main__":
    asyncio.run(edge_demo())
