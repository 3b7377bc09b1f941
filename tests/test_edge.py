"""The asyncio TCP edge: pipelining, ordering, backpressure, chaos.

In-process tests drive :class:`repro.edge.EdgeServer` directly on an
event loop (port 0, real sockets on loopback); the chaos tests run the
full ``python -m repro serve --tcp`` CLI in a subprocess and kill it
mid-pipeline.  The invariants under test are the edge's contract:

* the k-th response line answers the k-th request line, per connection;
* request ids are connection-scoped (two clients may both use ``"r1"``);
* deadlines are measured from socket arrival, so time spent queued in
  the edge counts against the budget;
* under the ``block`` policy the service queue never exceeds its bound
  — the burst is absorbed by ``pause_reading`` backpressure;
* no request is ever lost or double-answered, not by a client
  disconnect mid-pipeline and not by a SIGTERM drain.
"""

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys

import numpy as np

from conftest import random_fixed_problem
from repro.edge import EdgeClient, EdgeServer
from repro.io import problem_to_jsonable
from repro.service import SolveService
from repro.service.journal import replay
from repro.service.request import SolveRequest
from repro.service.wire import request_to_jsonable


def _line(problem, rid=None, **options) -> dict:
    return request_to_jsonable(
        SolveRequest(problem=problem, id=rid, **options)
    )


async def _start(svc, **kw) -> EdgeServer:
    server = EdgeServer(svc, port=0, **kw)
    await server.start()
    return server


class TestRoundTrip:
    def test_matches_direct_solve(self, rng):
        problem = random_fixed_problem(rng, 5, 4)
        direct = SolveService().solve(problem)

        async def scenario():
            with SolveService() as svc:
                server = await _start(svc, window=1)
                async with await EdgeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    resp = await client.request(_line(problem, "r1"))
                await server.close()
            return resp

        resp = asyncio.run(scenario())
        assert resp["id"] == "r1" and resp["status"] == "ok"
        assert resp["converged"]
        np.testing.assert_allclose(
            np.array(resp["x"]), direct.result.x, rtol=1e-8
        )

    def test_pipelined_responses_arrive_in_request_order(self, rng):
        problems = [random_fixed_problem(rng, 3 + i % 4, 3)
                    for i in range(9)]

        async def scenario():
            with SolveService() as svc:
                server = await _start(svc, window=3)
                async with await EdgeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    for i, p in enumerate(problems):
                        await client.send(_line(p, f"r{i}"))
                    got = [await client.recv() for _ in problems]
                await server.close()
            return got

        got = asyncio.run(scenario())
        assert [r["id"] for r in got] == [f"r{i}" for i in range(9)]
        assert all(r["status"] == "ok" for r in got)
        for resp, problem in zip(got, problems):
            assert np.array(resp["x"]).shape == problem.x0.shape

    def test_malformed_and_oversized_frames_answer_in_order(self, rng):
        small = random_fixed_problem(rng, 3, 3)

        async def scenario():
            with SolveService() as svc:
                server = await _start(svc, window=1, max_line_bytes=2_000)
                async with await EdgeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    await client.send(_line(small, "a"))
                    # An oversized frame (well past max_line_bytes) is
                    # answered without ever being buffered or decoded.
                    await client.send_raw("x" * 10_000)
                    await client.send_raw("{not json")
                    await client.send_raw("")  # blank keepalive: no reply
                    await client.send(_line(small, "b"))
                    got = [await client.recv() for _ in range(4)]
                stats = server.stats
                await server.close()
            return got, stats

        got, stats = asyncio.run(scenario())
        assert [r["status"] for r in got] == ["ok", "error", "error", "ok"]
        assert got[0]["id"] == "a" and got[3]["id"] == "b"
        assert "exceeds" in got[1]["error"]["message"]
        assert got[1]["error"]["kind"] == "invalid-request"
        assert got[2]["error"]["kind"] == "invalid-request"
        # Line numbers in errors count physical wire lines.
        assert got[1]["line"] == 2 and got[2]["line"] == 3
        assert stats.edge_errors == 2 and stats.requests == 2

    def test_deeply_nested_frame_answers_and_keeps_the_connection(
        self, rng
    ):
        """A line nested deeper than the JSON parser's stack is one more
        malformed frame: it gets its error, and the request behind it
        on the same connection is still answered.  The first line also
        names a session, so the session-hello parse sees it too."""
        small = random_fixed_problem(rng, 3, 3)

        async def scenario():
            with SolveService() as svc:
                server = await _start(svc, window=1)
                async with await EdgeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    await client.send_raw('{"session":' + "[" * 100_000)
                    await client.send_raw("[" * 100_000)
                    await client.send(_line(small, "after"))
                    got = [await client.recv(timeout=30) for _ in range(3)]
                await server.close()
            return got

        got = asyncio.run(scenario())
        assert [r["status"] for r in got] == ["error", "error", "ok"]
        assert all(r["error"]["kind"] == "invalid-request" for r in got[:2])
        assert [r["line"] for r in got[:2]] == [1, 2]
        assert got[2]["id"] == "after"

    def test_duplicate_inflight_id_answers_structured_error(self, rng):
        """Reusing an id while the first use is still in flight is
        refused at the edge — a journal-less service would otherwise
        accept it and the connection's ordering would stall forever."""
        problem = random_fixed_problem(rng, 3, 3)

        async def scenario():
            with SolveService() as svc:
                server = await _start(svc, window=64, flush_interval=0.01)
                async with await EdgeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    await client.send(_line(problem, "dup"))
                    await client.send(_line(problem, "dup"))
                    got = [await client.recv() for _ in range(2)]
                await server.close()
            return got

        first, second = asyncio.run(scenario())
        assert first["id"] == "dup" and first["status"] == "ok"
        assert second["status"] == "error"
        assert second["error"]["kind"] == "duplicate-request"
        assert second["id"] == "dup"


class TestNamespacing:
    def test_same_id_on_two_connections(self, rng, tmp_path):
        """Two clients both call their request ``"a"``; each gets its
        own answer and the journal keeps the ids apart."""
        journal = tmp_path / "edge.journal"
        p_small = random_fixed_problem(rng, 3, 3)
        p_big = random_fixed_problem(rng, 6, 5)

        async def scenario():
            with SolveService(journal=journal) as svc:
                server = await _start(svc, window=1)
                c1 = await EdgeClient.connect("127.0.0.1", server.port)
                c2 = await EdgeClient.connect("127.0.0.1", server.port)
                r1 = await c1.request(_line(p_small, "a"))
                r2 = await c2.request(_line(p_big, "a"))
                await c1.close()
                await c2.close()
                await server.close()
            return r1, r2

        r1, r2 = asyncio.run(scenario())
        # The wire echoes the client's own id, un-namespaced.
        assert r1["id"] == "a" and r2["id"] == "a"
        assert np.array(r1["x"]).shape == p_small.x0.shape
        assert np.array(r2["x"]).shape == p_big.x0.shape
        journaled = [json.loads(l)["id"] for l in
                     journal.read_text().splitlines()
                     if json.loads(l).get("type") == "request"]
        assert len(set(journaled)) == 2
        assert all(re.fullmatch(r"c\d+:a", rid) for rid in journaled)


class TestDeadlinePropagation:
    def test_budget_runs_from_socket_arrival(self, rng):
        """A request whose deadline expires while queued in the edge is
        answered ``deadline-exceeded`` without touching the service."""
        problem = random_fixed_problem(rng, 3, 3)

        async def scenario():
            with SolveService() as svc:
                server = await _start(svc, window=1)
                async with await EdgeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    resp = await client.request(
                        _line(problem, "late", deadline_s=1e-9)
                    )
                touched = svc.stats().requests
                stats = server.stats
                await server.close()
            return resp, touched, stats

        resp, touched, stats = asyncio.run(scenario())
        assert resp["status"] == "error"
        assert resp["error"]["kind"] == "deadline-exceeded"
        assert "edge intake" in resp["error"]["message"]
        assert touched == 0 and stats.deadline_expired == 1

    def test_server_default_deadline_applies(self, rng):
        problem = random_fixed_problem(rng, 3, 3)

        async def scenario():
            with SolveService() as svc:
                server = await _start(
                    svc, window=1, default_deadline_s=1e-9
                )
                async with await EdgeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    return await client.request(_line(problem, "d"))

        resp = asyncio.run(scenario())
        assert resp["error"]["kind"] == "deadline-exceeded"

    def test_generous_deadline_solves(self, rng):
        problem = random_fixed_problem(rng, 3, 3)

        async def scenario():
            with SolveService() as svc:
                server = await _start(svc, window=1)
                async with await EdgeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    resp = await client.request(
                        _line(problem, "ok", deadline_s=60.0)
                    )
                await server.close()
            return resp

        assert asyncio.run(scenario())["status"] == "ok"


class TestClientDisconnect:
    def test_disconnect_mid_pipeline_answers_exactly_once(
        self, rng, tmp_path
    ):
        """A vanished client's in-flight requests are still solved (and
        journaled) exactly once; their responses are dropped at
        dispatch, never lost by the service."""
        journal = tmp_path / "edge.journal"
        problems = [random_fixed_problem(rng, 4, 3) for _ in range(4)]

        async def scenario():
            with SolveService(journal=journal) as svc:
                server = await _start(svc, window=64, flush_interval=30.0)
                client = await EdgeClient.connect("127.0.0.1", server.port)
                for i, p in enumerate(problems):
                    await client.send(_line(p, f"r{i}"))
                # Wait until all four are accepted into the service,
                # then vanish without reading a single response.
                for _ in range(400):
                    if server.stats.requests == 4:
                        break
                    await asyncio.sleep(0.01)
                assert server.stats.requests == 4
                client.writer.transport.abort()
                await client.close()
                await server.drain(30.0)
                stats = server.stats
            return stats

        stats = asyncio.run(scenario())
        assert stats.dropped_responses == 4 and stats.responses == 0
        unanswered, recorded = replay(journal)
        assert unanswered == []
        assert len(recorded) == 4
        assert all(resp.ok for resp in recorded.values())


class TestBackpressure:
    def test_block_policy_bounds_queue_under_burst(self, rng):
        """A 10x burst against ``--max-queue 4`` + block: every request
        is answered in order, the service queue never exceeds its
        bound, and the edge paused reading at least once."""
        problems = [random_fixed_problem(rng, 3, 3) for _ in range(40)]

        async def scenario():
            with SolveService(
                max_queue=4, admission_policy="block", warm_start=False
            ) as svc:
                depths = []
                orig_submit = svc.submit

                def spying_submit(request, **options):
                    rid = orig_submit(request, **options)
                    depths.append(svc.pending)
                    return rid

                svc.submit = spying_submit
                # window > max_queue so the edge does not voluntarily
                # drain before admission sees a full queue: the block
                # verdict (and the pause) must do the bounding.
                server = await _start(
                    svc, window=16, line_buffer=8, flush_interval=0.002
                )
                async with await EdgeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    for i, p in enumerate(problems):
                        await client.send(_line(p, f"r{i}"))
                    got = [await client.recv() for _ in problems]
                stats = server.stats
                await server.close()
            return got, depths, stats

        got, depths, stats = asyncio.run(scenario())
        assert [r["id"] for r in got] == [f"r{i}" for i in range(40)]
        assert all(r["status"] == "ok" for r in got)
        assert max(depths) <= 4, "block policy overran the queue bound"
        assert stats.backpressure_pauses > 0
        assert stats.requests == 40 and stats.responses == 40

    def test_shed_oldest_answers_victims_on_their_connection(self, rng):
        problems = [random_fixed_problem(rng, 3, 3) for _ in range(4)]

        async def scenario():
            with SolveService(
                max_queue=2, admission_policy="shed-oldest",
                warm_start=False,
            ) as svc:
                server = await _start(
                    svc, window=64, flush_interval=0.05
                )
                async with await EdgeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    for i, p in enumerate(problems):
                        await client.send(_line(p, f"r{i}"))
                    got = [await client.recv() for _ in problems]
                await server.close()
            return got

        got = asyncio.run(scenario())
        assert [r["id"] for r in got] == ["r0", "r1", "r2", "r3"]
        assert [r["status"] for r in got] == [
            "error", "error", "ok", "ok"]
        assert all(r["error"]["kind"] == "overloaded" for r in got[:2])


def _env():
    import pathlib

    import repro
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_edge(tmp_path, extra=()):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--tcp", "127.0.0.1:0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_env(), text=True, cwd=tmp_path,
    )
    line = proc.stderr.readline()
    m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
    assert m, f"no listening banner, got {line!r}"
    return proc, int(m.group(1))


class TestDrainChaosCLI:
    """Full ``serve --tcp`` subprocess killed mid-pipeline."""

    def test_sigterm_drains_every_request_exactly_once(
        self, rng, tmp_path
    ):
        journal = tmp_path / "j.jsonl"
        proc, port = _spawn_edge(
            tmp_path,
            ["--journal", str(journal), "--drain-deadline", "30",
             "--window", "2", "--stats"],
        )
        try:
            sock = socket.create_connection(("127.0.0.1", port))
            stream = sock.makefile("rw")
            sent = [f"r{i}" for i in range(6)]
            for i, rid in enumerate(sent):
                stream.write(json.dumps(
                    {"id": rid,
                     "problem": problem_to_jsonable(
                         random_fixed_problem(rng, 4, 3))}
                ) + "\n")
            stream.flush()
            first = json.loads(stream.readline())
            proc.send_signal(signal.SIGTERM)
            # The drain answers everything already accepted, flushes the
            # sockets, then closes them; read to EOF.
            rest = [json.loads(l) for l in stream if l.strip()]
            sock.close()
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        answered = [first] + rest
        wire_ids = [r["id"] for r in answered]
        assert len(wire_ids) == len(set(wire_ids)), "double-answered id"
        assert all(r["status"] == "ok" for r in answered)
        # Zero lost, zero double-answered: every *accepted* request
        # (it reached the journal) is either answered exactly once or
        # stays pending for the next --recover; never both, never
        # neither.  Lines still unread in the socket buffer at SIGTERM
        # were never accepted — the client owns resubmitting those.
        unanswered, recorded = replay(journal)
        recorded_ids = {rid.split(":", 1)[1] for rid in recorded}
        pending_ids = {req.id.split(":", 1)[1] for req in unanswered}
        assert set(wire_ids) <= recorded_ids
        assert recorded_ids | pending_ids <= set(sent)
        assert recorded_ids & pending_ids == set()
        accepted = len(recorded_ids) + len(pending_ids)
        assert accepted >= len(wire_ids) >= 1
        stats = json.loads(err.strip().splitlines()[-1])
        assert stats["requests"] == accepted
        assert stats["responses"] == len(answered)

    def test_client_disconnect_does_not_kill_the_server(
        self, rng, tmp_path
    ):
        proc, port = _spawn_edge(tmp_path, ["--window", "2"])
        try:
            sock = socket.create_connection(("127.0.0.1", port))
            payload = json.dumps(
                {"id": "gone",
                 "problem": problem_to_jsonable(
                     random_fixed_problem(rng, 4, 3))}) + "\n"
            sock.sendall(payload.encode())
            sock.setsockopt(  # RST on close: an abortive disconnect
                socket.SOL_SOCKET, socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )
            sock.close()
            # The server survives and still answers a fresh connection.
            sock2 = socket.create_connection(("127.0.0.1", port))
            stream = sock2.makefile("rw")
            stream.write(payload)
            stream.flush()
            resp = json.loads(stream.readline())
            sock2.close()
            assert resp["id"] == "gone" and resp["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
