"""The network shard transport: replicated journals, host-loss failover.

Three layers of proof:

1. **Interface parity** — the router-facing cluster suites from
   test_cluster.py re-run verbatim against thread-hosted
   :class:`ShardServer` replicas (``TestNetClusterService`` /
   ``TestNetEdgeAdmission``): NetShard is a drop-in shard backend.
2. **Shipping semantics** — synchronous journal shipping keeps the
   router-side replica byte-for-byte equal to the remote WAL, catch-up
   heals any replica after reconnect, and service errors cross the
   wire with their taxonomy intact.
3. **Host loss** — killing a remote host (thread-hosted here; real
   SIGKILLed subprocesses behind chaos proxies in
   ``TestNetChaosMatrix``) loses nothing, double-answers nothing, and
   reproduces every matrix bit-identically from the shipped replica
   alone — the dead host's own journal is deleted first.
"""

from __future__ import annotations

import asyncio
import math
import os
import pathlib
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import test_cluster as tc
from conftest import random_fixed_problem
from repro.chaos import ChaosProxy, ChaosSchedule
from repro.cluster import (
    ClusterService,
    NetShard,
    ProcessShard,
    ShardServer,
    parse_host_port,
)
from repro.cluster.transport import FrameSocket
from repro.cluster.worker import ShardCrashedError
from repro.core.api import solve
from repro.core.problems import FixedTotalsProblem
from repro.errors import DuplicateRequestError
from repro.service import SolveService
from repro.service.journal import replay, request_to_record
from repro.service.request import SolveRequest

# The durability idiom, network-wide: deterministic replay needs no
# warm state and no fusion (both entangle answers with history).
SVC_KW = dict(workers=1, backend="serial", warm_start=False, batching=False)

# Loopback connects either succeed or refuse instantly, so failover
# tests can keep the reconnect budget tight.
FAST_NET = dict(connect_timeout=2.0, max_reconnects=2, backoff_base=0.02,
                backoff_max=0.1, seed=1)


def nonfinite_problem() -> FixedTotalsProblem:
    """A fixed problem with ``NaN`` in ``x0`` and ``inf`` in ``gamma``
    on its one masked-out cell.  Valid — the cell never enters the
    solve, nor its objective, which is finite — yet non-finite on every
    hop it crosses.  Its zero pattern routes it to shard-0 of a 2- or
    3-shard ring."""
    cell = (2, 1)
    mask = np.ones((4, 5), dtype=bool)
    mask[cell] = False
    x0 = np.arange(1.0, 21.0).reshape(4, 5)
    x0[cell] = np.nan
    gamma = np.full((4, 5), 2.0)
    gamma[cell] = np.inf
    rows = np.where(mask, x0, 0.0).sum(axis=1) * np.linspace(1.2, 0.8, 4)
    cols = np.where(mask, x0, 0.0).sum(axis=0)
    return FixedTotalsProblem(
        x0=x0, gamma=gamma, s0=rows, d0=cols * rows.sum() / cols.sum(),
        mask=mask,
    )


def assert_same_answer(got, want) -> None:
    """Bit-identical solution, duals and objective."""
    for key in ("x", "lam", "mu"):
        assert getattr(got.result, key).tobytes() == \
            getattr(want, key).tobytes(), key
    assert np.float64(got.result.objective).tobytes() == \
        np.float64(want.objective).tobytes()


class _Host:
    """One thread-hosted 'remote machine': a SolveService + ShardServer.
    ``recover=True`` restarts the host from the journal it left."""

    def __init__(self, tmp_path, name, *, fsync=1, recover=False):
        self.name = name
        self.journal_path = pathlib.Path(tmp_path) / f"{name}-local.journal"
        if recover:
            self.service = SolveService.recover(
                self.journal_path, fsync=fsync, **SVC_KW
            )
        else:
            self.service = SolveService(
                journal=self.journal_path, fsync=fsync, **SVC_KW
            )
        self.server = ShardServer(self.service, shard_id=name)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True, name=name
        )
        self.thread.start()

    @property
    def spec(self) -> str:
        return self.server.address

    def die(self, *, lose_disk=False) -> None:
        """Host loss: the listener and any live connection drop hard —
        no drain, no graceful close; optionally the disk goes with it."""
        self.server.stop()
        self.thread.join(timeout=10)
        if lose_disk:
            self.journal_path.unlink(missing_ok=True)

    def close(self) -> None:
        self.server.stop()
        self.thread.join(timeout=10)
        self.service.close()


def net_cluster(tmp_path, shards=3, **kwargs):
    """A net-backed cluster over fresh thread-hosted replicas; the
    signature mirrors test_cluster.inline_cluster so those suites can
    run against it unchanged."""
    # Remote-service knobs live on the _Host services, not the router.
    kwargs.pop("warm_start", None)
    kwargs.pop("batching", None)
    hosts = kwargs.pop("hosts", None)
    if hosts is None:
        hosts = [_Host(tmp_path, f"remote-{i}") for i in range(shards)]
    kwargs.setdefault("journal_dir", pathlib.Path(tmp_path) / "replicas")
    kwargs.setdefault("net_options", dict(FAST_NET))
    kwargs.setdefault("fsync", 1)
    svc = ClusterService(
        shards=shards, shard_backend="net",
        shard_specs=[h.spec for h in hosts], **kwargs,
    )
    svc._test_hosts = hosts
    return svc


class _NetBackendFixture:
    """Re-run a test_cluster suite with inline_cluster swapped for the
    network transport (unique tmp dir per test via the fixture)."""

    @pytest.fixture(autouse=True)
    def _swap_backend(self, tmp_path, monkeypatch):
        calls = [0]

        def factory(shards=3, **kwargs):
            calls[0] += 1
            base = tmp_path / f"net-{calls[0]}"
            base.mkdir(parents=True, exist_ok=True)
            return net_cluster(base, shards=shards, **kwargs)

        monkeypatch.setattr(tc, "inline_cluster", factory)


class TestNetClusterService(_NetBackendFixture, tc.TestClusterService):
    """test_cluster.TestClusterService over real TCP shards."""


class TestNetEdgeAdmission(_NetBackendFixture, tc.TestEdgeAdmission):
    """test_cluster.TestEdgeAdmission over real TCP shards."""


class TestTransport:
    def test_parse_host_port(self):
        assert parse_host_port("10.0.0.7:7800") == ("10.0.0.7", 7800)
        for bad in ("nonsense", "host:", "host:0", "host:70000", ":12",
                    "host:x2"):
            with pytest.raises(ValueError):
                parse_host_port(bad)

    def test_connect_refused_fails_fast(self, tmp_path):
        with pytest.raises(ShardCrashedError, match="cannot reach"):
            NetShard("s0", "127.0.0.1", 1, connect_timeout=0.5,
                     replica_path=tmp_path / "r.journal")

    def test_bad_spec_start_leaves_remote_hosts_alive(self, tmp_path, rng):
        """Fail-fast construction severs sockets only: the surviving
        remote services belong to their hosts and must stay up."""
        host = _Host(tmp_path, "survivor")
        try:
            with pytest.raises(ShardCrashedError):
                ClusterService(
                    shards=2, shard_backend="net",
                    shard_specs=[host.spec, "127.0.0.1:1"],
                    journal_dir=tmp_path / "replicas",
                    net_options=dict(FAST_NET),
                )
            # The healthy host still answers a fresh router.
            with net_cluster(tmp_path, shards=1, hosts=[host]) as svc:
                assert svc.solve(random_fixed_problem(rng, 5, 5)).ok
        finally:
            host.close()


    def test_nested_frame_drops_only_its_connection(self, tmp_path, rng):
        """A frame nested deeper than the JSON parser's stack is an
        undecodable frame: the server drops that connection and keeps
        listening, so a fresh router still gets its hello."""
        host = _Host(tmp_path, "remote-a")
        try:
            with socket.create_connection(
                parse_host_port(host.spec), timeout=10
            ) as raw:
                raw.sendall(b"[" * 100_000 + b"\n")
                assert raw.recv(1) == b""  # dropped, never answered
            shard = NetShard("shard-0", *parse_host_port(host.spec),
                             replica_path=tmp_path / "r.journal",
                             **FAST_NET)
            try:
                assert shard.hello["shard"] == "remote-a"
                assert shard.submit(SolveRequest(
                    problem=random_fixed_problem(rng, 5, 5), id="n0"
                )) == "n0"
            finally:
                shard.close()
        finally:
            host.close()


class TestJournalShipping:
    def test_replica_mirrors_remote_journal_bytes(self, tmp_path, rng):
        problems = [random_fixed_problem(rng, 6, 5) for _ in range(5)]
        # One more input with non-finite cells: NaN/inf cross the hop
        # in the request; the masked-out cell leaves the objective finite.
        problems.append(nonfinite_problem())
        with tc.inline_cluster(
            shards=2, journal_dir=tmp_path / "baseline"
        ) as base:
            for problem in problems:
                base.submit(problem)
            baseline = {r.id: r for r in base.drain()}
        with net_cluster(tmp_path, shards=2) as svc:
            for problem in problems:
                svc.submit(problem)
            responses = svc.drain()
            assert len(responses) == 6 and all(r.ok for r in responses)
            router = svc.stats().router
            assert router["shipped_records"] == 12  # 6 requests + 6 responses
            hosts = svc._test_hosts
        # Byte-for-byte: shard-i's shipped replica equals remote-i's
        # local WAL (specs were passed in order).
        for i, host in enumerate(hosts):
            replica = tmp_path / "replicas" / f"shard-{i}.journal"
            assert replica.read_bytes() == host.journal_path.read_bytes()
        # Every answer is the inline backend's, bit for bit.
        assert [r.id for r in responses] == list(baseline)
        for resp in responses:
            assert_same_answer(resp, baseline[resp.id].result)
        assert math.isfinite(responses[-1].result.objective)

    def test_restarted_remote_hello_returns_the_recorded_answer(
        self, tmp_path
    ):
        """A remote that answered, then restarted, hands the recorded
        response back through its hello's ``recovered`` list — bit for
        bit, from a problem with non-finite masked-out cells."""
        problem = nonfinite_problem()
        host = _Host(tmp_path, "remote-a")
        first = NetShard("shard-0", *parse_host_port(host.spec),
                         replica_path=tmp_path / "r.journal", fsync=1)
        first.submit(SolveRequest(problem=problem, id="nf"))
        host.service.drain()  # answered and journaled, never delivered
        first.kill()
        first.close()
        host.close()
        revived = _Host(tmp_path, "remote-a", recover=True)
        try:
            second = NetShard("shard-0", *parse_host_port(revived.spec),
                              replica_path=tmp_path / "r.journal", fsync=1)
            (resp,) = second.hello["recovered"]
            assert resp.id == "nf" and second.hello["replayed"] == []
            assert_same_answer(resp, solve(problem))
            assert math.isfinite(resp.result.objective)
            assert (tmp_path / "r.journal").read_bytes() == \
                revived.journal_path.read_bytes()
            second.close()
        finally:
            revived.close()

    def test_submit_carries_arrays_bit_for_bit(self, tmp_path):
        """The router's ``submit`` reaches the shard's journal with
        every input bit intact, a sign-negative ``NaN`` in the
        masked-out cell included."""
        base = nonfinite_problem()
        x0 = base.x0.copy()
        x0[~base.mask] = -np.nan
        problem = FixedTotalsProblem(x0=x0, gamma=base.gamma, s0=base.s0,
                                     d0=base.d0, mask=base.mask)
        host = _Host(tmp_path, "remote-a")
        try:
            shard = NetShard("shard-0", *parse_host_port(host.spec),
                             replica_path=tmp_path / "r.journal", **FAST_NET)
            try:
                assert shard.submit(
                    SolveRequest(problem=problem, id="nf")) == "nf"
            finally:
                shard.close()
            (got,) = replay(host.journal_path)[0]
            for key in ("x0", "gamma", "s0", "d0", "mask"):
                assert getattr(got.problem, key).tobytes() == \
                    getattr(problem, key).tobytes(), key
        finally:
            host.close()

    def test_fresh_replica_catches_up_on_connect(self, tmp_path, rng):
        host = _Host(tmp_path, "remote-a")
        try:
            first = NetShard("shard-0", *parse_host_port(host.spec),
                             replica_path=tmp_path / "r1.journal", fsync=1)
            rid = first.submit(SolveRequest(
                problem=random_fixed_problem(rng, 5, 5), id="cu-0"))
            (resp,) = first.call("drain")
            assert resp.ok and rid == "cu-0"
            first.kill()  # sever without touching the remote
            # A brand-new router with an empty replica: the hello
            # catch-up must ship the full WAL before commands flow.
            second = NetShard("shard-0", *parse_host_port(host.spec),
                              replica_path=tmp_path / "r2.journal", fsync=1)
            assert second.hello["journal_lines"] == 2
            assert (tmp_path / "r2.journal").read_bytes() == \
                host.journal_path.read_bytes()
            assert second.replica.answered("cu-0")
            second.close()
        finally:
            host.close()

    def test_malformed_packed_submit_is_an_invalid_request(
        self, tmp_path, rng
    ):
        """A ``submit`` whose packed ``x0`` lost bytes is answered with
        a structured ``invalid-request`` error, and the same connection
        keeps serving."""
        records = [
            request_to_record(SolveRequest(
                problem=random_fixed_problem(rng, 5, 5), id=rid))
            for rid in ("bad", "good")
        ]
        x0 = records[0]["problem"]["x0"]
        x0["b64"] = x0["b64"][:-8]  # still base64, five bytes short
        host = _Host(tmp_path, "remote-a")
        try:
            fs = FrameSocket(socket.create_connection(
                parse_host_port(host.spec), timeout=10))
            try:
                fs.send({"op": "hello", "have": None})
                assert "hello" in fs.recv(time.monotonic() + 10)
                fs.send({"op": "submit", "args": [records[0], 0]})
                kind, message = fs.recv(time.monotonic() + 10)["error"]
                assert kind == "invalid-request" and "bytes" in message
                fs.send({"op": "submit", "args": [records[1], 1]})
                assert fs.recv(time.monotonic() + 10) == {"ok": "good"}
                fs.send({"op": "drain", "args": []})
                (answer,) = fs.recv(time.monotonic() + 60)["ok"]
                assert answer["id"] == "good" and "error" not in answer
            finally:
                fs.close()
        finally:
            host.close()

    def test_reconnect_resumes_at_the_replica_cursor(self, tmp_path, rng):
        with net_cluster(tmp_path, shards=1) as svc:
            svc.solve(random_fixed_problem(rng, 5, 5))
            shard = svc._shards["shard-0"]
            before = shard.replica.lines
            shard._drop()  # connection lost, host alive
            hello = shard.reconnect()
            # Nothing re-shipped: the cursor already covered the WAL.
            assert shard.replica.lines == before == hello["journal_lines"]
            assert svc.solve(random_fixed_problem(rng, 6, 4)).ok

    def test_service_errors_cross_the_wire(self, tmp_path, rng):
        with net_cluster(tmp_path, shards=1) as svc:
            p = random_fixed_problem(rng, 5, 5)
            svc.submit(SolveRequest(problem=p, id="dup"))
            with pytest.raises(DuplicateRequestError):
                svc.submit(SolveRequest(problem=p, id="dup"))
            # The connection survives the error: the shard still works.
            assert len(svc.drain()) == 1


class TestProcessShardPing:
    def test_hung_child_is_killed_and_raises(self, tmp_path):
        """A child that is alive but unresponsive must not stay in the
        pipe: its late pong would desynchronize every later command.
        The regression: ping used to time out and leave it running."""
        shard = ProcessShard("s0", dict(SVC_KW),
                             journal_path=tmp_path / "s0.journal")
        try:
            os.kill(shard.pid, signal.SIGSTOP)  # wedge, don't kill
            assert shard._proc.is_alive()
            with pytest.raises(ShardCrashedError, match="unresponsive"):
                shard.ping(timeout=0.3)
            assert not shard._proc.is_alive()  # the probe reaped it
        finally:
            shard.close()

    def test_cluster_ping_respawns_hung_child(self, tmp_path, rng):
        with ClusterService(
            shards=2, shard_backend="process",
            journal_dir=tmp_path / "j", ping_timeout=0.5,
            **SVC_KW,
        ) as svc:
            rid = svc.submit(random_fixed_problem(rng, 5, 5))
            target = svc._pending[rid].shard
            os.kill(svc._shards[target].pid, signal.SIGSTOP)
            health = svc.ping()
            assert health[target] == "respawned"
            responses = svc.drain()
            assert [r.id for r in responses] == [rid] and responses[0].ok


class TestHostLossFailover:
    def test_failover_mid_traffic_is_exactly_once_bit_identical(
        self, tmp_path, rng
    ):
        problems = [random_fixed_problem(rng, 6, 5) for _ in range(10)]
        # Baseline: the same stream through an undisturbed inline
        # cluster of the same shape (same ring; journaled so the
        # derived ids match the journaled net run).
        with tc.inline_cluster(
            shards=3, journal_dir=tmp_path / "baseline"
        ) as base:
            base_ids = [base.submit(p) for p in problems]
            baseline = {r.id: r for r in base.drain()}
        with net_cluster(tmp_path, shards=3) as svc:
            ids = [svc.submit(p) for p in problems]
            assert ids == base_ids
            victim_host = svc._test_hosts[0]
            # The host dies mid-traffic AND its disk is lost: recovery
            # can only come from the shipped replica.
            victim_host.die(lose_disk=True)
            responses = {r.id: r for r in svc.drain()}
            router = svc.stats().router
            health = svc.shard_health()
        assert sorted(responses) == sorted(ids)  # zero lost, zero doubled
        for rid in ids:
            np.testing.assert_array_equal(
                responses[rid].result.x, baseline[rid].result.x
            )
        assert router["failovers"] == 1
        assert router["failover_lost"] == 0
        assert health["shard-0"] == "failed-over"
        # The consumed replica is archived, not destroyed.
        archive = tmp_path / "replicas" / "failover-000" / "shard-0.journal"
        assert archive.exists()

    def test_answered_but_undelivered_comes_from_the_replica(
        self, tmp_path, rng
    ):
        """The narrowest window: the remote solved and journaled a
        response, shipping put it in the replica, but the host died
        before the router drained it.  Failover must deliver the
        recorded response verbatim — never re-solve it."""
        with net_cluster(tmp_path, shards=2) as svc:
            problems = [random_fixed_problem(rng, 6, 5) for _ in range(6)]
            # One more input, on shard-0: a non-finite answer must come
            # back from the replica bit for bit too.
            problems.append(nonfinite_problem())
            ids = [svc.submit(p) for p in problems]
            on_zero = [rid for rid in ids
                       if svc._pending[rid].shard == "shard-0"]
            assert on_zero  # 6 draws always spread over 2 shards
            assert ids[-1] in on_zero
            host = svc._test_hosts[0]
            # The remote answers internally (its own drain loop)...
            host.service.drain()
            # ...and the next router command ships the response records
            # into the replica before its reply (ship-before-reply).
            svc.ping()
            # Host loss before the router ever drains those responses.
            host.die(lose_disk=True)
            responses = {r.id: r for r in svc.drain()}
            router = svc.stats().router
        assert sorted(responses) == sorted(ids)
        assert router["failover_recovered"] == len(on_zero)
        assert router["failover_resubmitted"] == 0
        for rid, problem in zip(ids, problems):
            np.testing.assert_array_equal(
                responses[rid].result.x, solve(problem).x
            )
        assert_same_answer(responses[ids[-1]], solve(problems[-1]))

    def test_failover_without_survivors_raises(self, tmp_path, rng):
        with net_cluster(tmp_path, shards=1) as svc:
            svc.submit(random_fixed_problem(rng, 5, 5))
            svc._test_hosts[0].die()
            with pytest.raises(ShardCrashedError, match="no shards survive"):
                svc.drain()

    def test_failover_unreachable_probe(self, tmp_path, rng):
        with net_cluster(tmp_path, shards=2, ping_timeout=0.5) as svc:
            assert svc.failover_unreachable() == []
            svc._test_hosts[1].die()
            assert svc.failover_unreachable() == ["shard-1"]
            assert svc.shard_health()["shard-1"] == "failed-over"
            # The survivor still serves the whole keyspace.
            assert svc.solve(random_fixed_problem(rng, 5, 5)).ok

    def test_supervisor_escalates_unreachable_to_failover(
        self, tmp_path, rng
    ):
        """The dead-shard rule must pick FailoverShard (not a respawn,
        which cannot cross hosts) when a net replica is unreachable."""
        from repro.supervisor import Supervisor

        with net_cluster(tmp_path, shards=2, ping_timeout=0.5) as svc:
            svc._test_hosts[0].die()
            sup = Supervisor(svc, interval_s=0.1)
            # Tick 1 discovers: the stats probe fails, drops the
            # connection, and stays passive (no reconnect, no action).
            assert sup.tick() is None
            assert svc.shard_health()["shard-0"] == "unreachable"
            entry = sup.tick()  # dead-shard rule has sustain=1
            assert entry["phase"] == "apply"
            assert entry["action"] == "failover-shard"
            assert entry["params"]["failed_over"] == ["shard-0"]
            assert svc.shard_health()["shard-0"] == "failed-over"

    def test_prometheus_text_reports_failover_counters(self, tmp_path, rng):
        with net_cluster(tmp_path, shards=2) as svc:
            svc.solve(random_fixed_problem(rng, 5, 5))
            svc._test_hosts[0].die()
            svc.failover_unreachable()
            text = svc.stats().metrics_text()
        assert "repro_cluster_failovers_total 1" in text
        assert "repro_cluster_failover_lost_total 0" in text
        assert re.search(r'repro_shard_up\{shard="shard-0"\} 0', text)
        assert re.search(r'repro_shard_up\{shard="shard-1"\} 1', text)
        assert re.search(
            r'repro_shard_requests_total\{shard="shard-1"\} \d+', text
        )


class _ProxyThread:
    """A ChaosProxy on its own asyncio loop in a daemon thread."""

    def __init__(self, upstream: str, schedule: ChaosSchedule):
        host, port = parse_host_port(upstream)
        self.proxy = ChaosProxy(host, port, schedule)
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(10), "chaos proxy failed to start"

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        async with self.proxy:
            self._ready.set()
            await self._stop.wait()

    @property
    def spec(self) -> str:
        return f"127.0.0.1:{self.proxy.port}"

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop.set)
        self.thread.join(timeout=10)


def _spawn_shard_serve(tmp_path, name):
    """A real shard-serve subprocess (the SIGKILL target)."""
    journal_dir = pathlib.Path(tmp_path) / f"{name}-disk"
    journal_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "shard-serve",
         "--tcp", "127.0.0.1:0", "--shard-id", name,
         "--journal", str(journal_dir / "local.journal"), "--fsync", "1",
         "--no-warm-start", "--no-batch"],
        env=dict(os.environ,
                 PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src")),
        stderr=subprocess.PIPE, text=True,
    )
    line = proc.stderr.readline()
    match = re.search(r"shard listening on ([\d.]+:\d+)", line)
    assert match, f"{name} never announced: {line!r}"
    return proc, match.group(1), journal_dir


class TestNetChaosMatrix:
    """The acceptance soak: real subprocess hosts behind chaos proxies,
    a timed partition, a SIGKILL with disk loss — and exactly-once,
    bit-identical answers at the end of it."""

    def test_partition_sigkill_disk_loss_exactly_once(self, tmp_path, rng):
        problems = [random_fixed_problem(rng, 6, 5) for _ in range(12)]
        with tc.inline_cluster(
            shards=2, journal_dir=tmp_path / "baseline"
        ) as base:
            base_ids = [base.submit(p) for p in problems]
            baseline = {r.id: r for r in base.drain()}

        proc0, addr0, disk0 = _spawn_shard_serve(tmp_path, "host-0")
        proc1, addr1, disk1 = _spawn_shard_serve(tmp_path, "host-1")
        # host-0's proxy: clean relay (the fault there is the SIGKILL).
        # host-1's proxy: a timed full partition mid-traffic; the
        # router must ride it out with reconnect backoff, not failover.
        proxy0 = _ProxyThread(addr0, ChaosSchedule(seed=11))
        proxy1 = _ProxyThread(
            addr1, ChaosSchedule(seed=13, partitions=((0.4, 0.9),))
        )
        svc = None
        try:
            svc = ClusterService(
                shards=2, shard_backend="net",
                shard_specs=[proxy0.spec, proxy1.spec],
                journal_dir=tmp_path / "replicas", fsync=1,
                net_options=dict(connect_timeout=2.0, max_reconnects=8,
                                 backoff_base=0.05, backoff_max=0.3,
                                 seed=7),
            )
            ids = []
            for i, problem in enumerate(problems):
                if i == 6:
                    # Host loss mid-traffic: SIGKILL, then the whole
                    # disk goes — recovery must come from the shipped
                    # replica alone.
                    proc0.kill()
                    proc0.wait(timeout=10)
                    shutil.rmtree(disk0)
                ids.append(svc.submit(problem))
                time.sleep(0.08)  # stretch traffic across the partition
            assert ids == base_ids
            answered: dict = {}
            deadline = time.monotonic() + 60
            while len(answered) < len(ids) and time.monotonic() < deadline:
                for resp in svc.collect() + svc.drain():
                    assert resp.id not in answered, "double answer"
                    answered[resp.id] = resp
            router = svc.stats().router
            health = svc.shard_health()
        finally:
            for proxy, name in ((proxy0, "host-0"), (proxy1, "host-1")):
                proxy.proxy.write_events(
                    tmp_path / f"chaos-events-{name}.jsonl"
                )
                proxy.stop()
            if svc is not None:
                svc.close()
            for proc in (proc0, proc1):
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=10)

        assert sorted(answered) == sorted(ids)  # zero lost, zero doubled
        for rid in ids:
            np.testing.assert_array_equal(
                answered[rid].result.x, baseline[rid].result.x
            )
        assert router["failovers"] == 1 and router["failover_lost"] == 0
        assert health["shard-0"] == "failed-over"
        assert health["shard-1"] == "ok"  # partition ≠ host loss
        archive = tmp_path / "replicas" / "failover-000" / "shard-0.journal"
        assert archive.exists()
