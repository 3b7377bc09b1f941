"""Network shard transport: remote replicas with replicated journals.

This is the multi-host generalization of the cluster tier.  A
:class:`NetShard` is the router-side handle of a replica running on
*another machine* as a ``python -m repro shard-serve --tcp host:port``
process; it is a :class:`~repro.cluster.worker.ShardHandle` with the
same surface as :class:`~repro.cluster.worker.ProcessShard`
(``start``/``finish``/``call``/``submit``/``ping``/``stats``/``close``,
``alive``, ``hello``) so :class:`ClusterService`, admission, stats
merge and ``serve --cluster`` work unchanged.

The protocol is the shard command table of
:mod:`repro.cluster.worker` (:func:`~repro.cluster.worker.run_op`) as
JSON lines: ``{"op": ..., "args": [...]}`` goes out, one ``{"ok":
value}`` or ``{"error": [kind, message]}`` frame comes back, and the
router decodes ``value`` by the op it sent.  Payloads are the
write-ahead journal's internal records — requests as
:func:`~repro.service.journal.request_to_record`, responses as
:func:`~repro.service.journal.response_to_record` dicts, every array
as its raw bytes — so nothing the router re-delivers is rounded or
dropped on the way, and nothing the shard decodes differs by a bit
from what the router sent.  Neither side negotiates a version: a
router and its ``shard-serve`` hosts must run the same one.
The hop adds one crucial thing, **synchronous journal shipping**:

* the remote service's :class:`~repro.service.journal.Journal` is
  subscribed at server start, so every WAL record it appends is
  captured as raw line text;
* before *any* command reply is sent, the server ships the captured
  lines (``{"journal": "<raw line>"}`` — the record rides inside a
  JSON string, byte for byte), then ``{"flush": N}``, and **waits for
  the router's ``{"ack": N}``** before replying;
* the router appends each shipped line to its replica — a
  :class:`~repro.service.journal.Journal` (same fsync cadence knob)
  fed through :meth:`~repro.service.journal.Journal.append_line`,
  which refuses anything but one whole record — and acks.

The consequence is the failover guarantee: every journal record is on
the router's disk *before* the response it durably promises can be
delivered, so when the shard's host dies — process, disk and all — the
replica alone suffices to re-route the keyspace onto surviving shards
with zero lost and zero double-answered requests, bit-identical to an
undisturbed run (the solvers are deterministic fixed-point iterations;
see :meth:`ClusterService.failover`).

Reconnection follows the ``ResilientEdgeClient`` discipline via
:class:`~repro.cluster.transport.Backoff` — capped exponential with
decorrelated jitter, and a black-holed connect (TCP accepted, no hello)
counts as a failed attempt.  On reconnect the router sends how many
replica lines it holds (``have``) and the server re-ships only the
tail — catch-up — so a partition never desynchronizes the replica.
"""

from __future__ import annotations

import pathlib
import selectors
import socket
import time

from repro.cluster.transport import Backoff, FrameSocket
from repro.cluster.worker import (
    FINAL_OPS,
    ShardCrashedError,
    ShardHandle,
    as_reply,
    run_op,
    shard_hello,
    unwrap_reply,
)
from repro.service.journal import (
    Journal,
    request_from_record,
    request_to_record,
    response_from_record,
    response_to_record,
)
from repro.service.metrics import ServiceStats

__all__ = ["NetShard", "ShardServer"]

_ACK_TIMEOUT_S = 30.0


def _each(fn):
    return lambda values: [fn(v) for v in values]


def _optional(fn):
    return lambda value: None if value is None else fn(value)


_RESPONSES = (_each(response_to_record), _each(response_from_record))

# Result codec per op: (server encode, router decode).  Ops not listed
# return plain JSON values (submit's id, ping's count, close's None).
_RESULT_CODEC = {
    "drain": _RESPONSES,
    "collect": _RESPONSES,
    "shutdown": _RESPONSES,
    "shed": (_optional(response_to_record), _optional(response_from_record)),
    "stats": (ServiceStats.as_dict, ServiceStats.from_dict),
}


class NetShard(ShardHandle):
    """Router-side handle of one remote replica over TCP.

    Same synchronous single-outstanding-command surface as
    :class:`~repro.cluster.worker.ProcessShard`.  Transport trouble of
    any kind — connect refusal, reset, timeout, a frame that fails to
    decode, a shipped journal line the replica rejects —
    surfaces as :class:`ShardCrashedError`, which is exactly the signal
    the router's recovery machinery already speaks.

    Parameters
    ----------
    replica_path:
        Router-side replica journal file; ``None`` disables shipping
        (the remote still journals locally — process-loss durability
        without host-loss durability).
    connect_timeout:
        Per-attempt TCP connect budget *and* the per-frame progress
        deadline while waiting for the hello (black-hole recycling: a
        peer that accepts but never speaks is recycled this fast).
    op_timeout:
        Default ``finish`` deadline when the caller passes none.
    max_reconnects:
        Connect attempts per :meth:`reconnect` before the shard is
        declared unreachable (the router then fails it over).
    """

    backend = "net"

    def __init__(
        self,
        shard_id: str,
        host: str,
        port: int,
        *,
        replica_path=None,
        fsync: int = 0,
        connect_timeout: float = 5.0,
        op_timeout: float = 300.0,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 2.0,
        backoff_jitter: float = 0.5,
        max_reconnects: int = 4,
        seed: int | None = None,
    ) -> None:
        self.id = shard_id
        self.host = host
        self.port = port
        self.journal_path = (
            None if replica_path is None else pathlib.Path(replica_path)
        )
        self.snapshot_path = None
        self.replica = (
            None if replica_path is None
            else Journal(replica_path, fsync=fsync)
        )
        self.connect_timeout = connect_timeout
        self.op_timeout = op_timeout
        self.max_reconnects = max_reconnects
        self._backoff = Backoff(
            base=backoff_base, factor=backoff_factor,
            max_delay=backoff_max, jitter=backoff_jitter, seed=seed,
        )
        self._fs: FrameSocket | None = None
        self._op: str | None = None  # the command awaiting its reply
        self._dead = False
        self.hello: dict = {}
        self.shipped_records = 0
        self.reconnects = 0
        self._connect()

    # -- connection lifecycle ------------------------------------------------

    def _connect(self) -> dict:
        """One connect attempt: TCP, hello handshake, replica catch-up.

        Raises :class:`ShardCrashedError` on any failure; on success
        ``self.hello`` holds the :func:`~repro.cluster.worker
        .shard_hello` dict (recovered responses decoded, replayed pairs
        as tuples)."""
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise ShardCrashedError(
                f"{self.id} cannot reach {self.host}:{self.port} ({exc})"
            ) from exc
        fs = FrameSocket(sock)
        try:
            have = None if self.replica is None else self.replica.lines
            fs.send({"op": "hello", "have": have})
            while True:
                # Progress-based deadline: each frame restarts the
                # clock, so a long catch-up never times out as long as
                # the peer keeps talking, while a black hole is
                # recycled within one connect_timeout.
                frame = fs.recv(time.monotonic() + self.connect_timeout)
                if "journal" in frame:
                    self._append_replica(frame["journal"])
                elif "hello" in frame:
                    hello = frame["hello"]
                    break
                else:
                    raise ConnectionError(
                        f"unexpected pre-hello frame {sorted(frame)}"
                    )
            remote_lines = hello.get("journal_lines")
            if (
                self.replica is not None
                and remote_lines is not None
                and self.replica.lines != remote_lines
            ):
                # replica > remote: the host came back *without its
                # data* — reconnecting would fork history.  replica <
                # remote: catch-up under-shipped.  Either way the
                # replica is the ground truth the router must act on.
                raise ConnectionError(
                    f"replica holds {self.replica.lines} lines but remote "
                    f"journal has {remote_lines} after catch-up"
                )
            hello["recovered"] = [
                response_from_record(rec) for rec in hello["recovered"]
            ]
            hello["replayed"] = [tuple(pair) for pair in hello["replayed"]]
        except (TimeoutError, ConnectionError, OSError) as exc:
            fs.close()
            raise ShardCrashedError(
                f"{self.id} handshake with {self.host}:{self.port} "
                f"failed ({exc})"
            ) from exc
        self._fs = fs
        self._dead = False
        self.hello = hello
        return hello

    def reconnect(self) -> dict:
        """Reconnect with the edge-client backoff discipline.

        Up to ``max_reconnects`` attempts with capped-exponential
        jittered sleeps between them; exhaustion marks the shard dead
        and raises — the router's cue to fail the keyspace over."""
        self._drop()
        failures = 0
        while True:
            try:
                hello = self._connect()
                self.reconnects += 1
                return hello
            except ShardCrashedError:
                failures += 1
                if failures >= self.max_reconnects:
                    self._dead = True
                    raise ShardCrashedError(
                        f"{self.id} unreachable at {self.host}:{self.port} "
                        f"after {failures} attempts"
                    )
                self._backoff.sleep(failures - 1)

    def _drop(self) -> None:
        if self._fs is not None:
            self._fs.close()
            self._fs = None

    def _append_replica(self, line: str) -> None:
        if self.replica is None:
            return
        try:
            self.replica.append_line(line)
        except ValueError as exc:
            # A corrupted ship must never poison the replica: drop the
            # connection, reconnect, and catch-up re-ships it intact.
            raise ConnectionError(str(exc)) from exc
        self.shipped_records += 1

    # -- liveness ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._fs is not None and not self._dead

    @property
    def pid(self) -> int | None:
        return self.hello.get("pid")

    def kill(self) -> None:
        """Sever the connection and mark the handle dead (the remote
        process is not touched — the router cannot SIGKILL across
        hosts; failover is how a dead host's keyspace moves on)."""
        self._drop()
        self._dead = True

    # -- protocol ------------------------------------------------------------

    def start(self, op: str, *args) -> None:
        """Send a command without waiting for its reply."""
        if self._fs is None:
            raise ShardCrashedError(f"{self.id} is not connected")
        if op == "submit":
            request = args[0]
            args = (
                request_to_record(request), getattr(request, "_order", 0)
            )
        self._op = op
        try:
            self._fs.send({"op": op, "args": list(args)})
        except (ConnectionError, OSError) as exc:
            self._drop()
            raise ShardCrashedError(
                f"{self.id} is gone mid-send ({exc})"
            ) from exc

    def finish(self, timeout: float | None = None):
        """Receive (and unwrap) the pending command's reply, appending
        any journal frames shipped ahead of it to the replica and
        acking the server's flush barrier."""
        if self._fs is None:
            raise ShardCrashedError(f"{self.id} is not connected")
        budget = self.op_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        try:
            while True:
                frame = self._fs.recv(deadline)
                if "journal" in frame:
                    self._append_replica(frame["journal"])
                elif "flush" in frame:
                    n = frame["flush"]
                    if self.replica is not None and self.replica.lines != n:
                        raise ConnectionError(
                            f"replica out of sync: holds "
                            f"{self.replica.lines} lines, remote flushed "
                            f"at {n}"
                        )
                    self._fs.send({"ack": n})
                elif "ok" in frame or "error" in frame:
                    tag = "ok" if "ok" in frame else "error"
                    result = unwrap_reply(tag, frame[tag])
                    codec = _RESULT_CODEC.get(self._op)
                    return result if codec is None else codec[1](result)
                else:
                    raise ConnectionError(
                        f"unexpected reply frame {sorted(frame)}"
                    )
        except (TimeoutError, ConnectionError, OSError) as exc:
            self._drop()
            raise ShardCrashedError(
                f"{self.id} at {self.host}:{self.port} failed "
                f"mid-command ({exc})"
            ) from exc

    def close(self) -> None:
        """Best-effort remote close, then release local resources."""
        if self._fs is not None and not self._dead:
            try:
                self.call("close", timeout=10.0)
            except Exception:  # noqa: BLE001 — dying peer; nothing to save
                pass
        self._drop()
        if self.replica is not None:
            self.replica.close()


class ShardServer:
    """The remote side: one :class:`SolveService` behind a TCP socket.

    Dispatches every command through
    :func:`repro.cluster.worker.run_op` and answers it as JSON frames,
    with the shipping discipline described in the module docstring.
    One router connection at a time, **latest wins**: a new accept
    supersedes the old socket (a router reconnecting around a
    black-holed connection must not wait for the corpse to time out).

    Run via ``python -m repro shard-serve --tcp host:port``; tests run
    :meth:`serve_forever` on a thread and :meth:`stop` it.
    """

    def __init__(
        self, service, host: str = "127.0.0.1", port: int = 0,
        shard_id: str = "shard",
    ) -> None:
        self.service = service
        self.shard_id = shard_id
        self._journal_buf: list[str] = []
        if service.journal is not None:
            service.journal.subscribe(self._journal_buf.append)
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._stop = False
        self._shipping = False

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        self._stop = True

    def serve_forever(self) -> None:
        """Accept-and-dispatch loop; returns after :meth:`stop` or a
        ``shutdown``/``close`` command (whose reply is sent first)."""
        sel = selectors.DefaultSelector()
        self._sock.setblocking(False)
        sel.register(self._sock, selectors.EVENT_READ, "accept")
        conn: FrameSocket | None = None
        awaiting_hello = False
        try:
            while not self._stop:
                for key, _ in sel.select(timeout=0.2):
                    if key.data == "accept":
                        try:
                            raw, _addr = self._sock.accept()
                        except OSError:
                            continue
                        if conn is not None:  # latest connection wins
                            sel.unregister(conn.sock)
                            conn.close()
                        raw.setblocking(False)
                        conn = FrameSocket(raw)
                        awaiting_hello = True
                        self._shipping = False
                        sel.register(conn.sock, selectors.EVENT_READ, "conn")
                        continue
                    if conn is None or key.fileobj is not conn.sock:
                        continue  # stale event of a superseded socket
                    ok = conn.fill()
                    dropped = False
                    while not dropped:
                        try:
                            frame = conn.take_line()
                        except ConnectionError:
                            dropped = True
                            break
                        if frame is None:
                            break
                        try:
                            if awaiting_hello:
                                self._handshake(conn, frame)
                                awaiting_hello = False
                            else:
                                self._handle(conn, frame)
                        except (TimeoutError, ConnectionError, OSError):
                            # Send failure, reset, or an ack that never
                            # came: this connection is beyond saving —
                            # the journal has everything, reconnect
                            # catch-up makes the router whole.
                            dropped = True
                        if self._stop:
                            break
                    if dropped or not ok:
                        sel.unregister(conn.sock)
                        conn.close()
                        conn = None
        finally:
            if conn is not None:
                conn.close()
            sel.close()
            self._sock.close()

    # -- handshake -----------------------------------------------------------

    def _handshake(self, conn: FrameSocket, frame: dict) -> None:
        if frame.get("op") != "hello":
            raise ConnectionError("first frame must be hello")
        have = frame.get("have")
        journal = self.service.journal
        self._shipping = have is not None and journal is not None
        conn.sock.setblocking(True)
        try:
            if self._shipping:
                # Catch-up supersedes anything buffered while no router
                # was attached: read_tail covers it all from disk.
                self._journal_buf.clear()
                for line in journal.read_tail(have):
                    conn.send({"journal": line})
            hello = shard_hello(self.shard_id, self.service)
            hello["recovered"] = [
                response_to_record(r) for r in hello["recovered"]
            ]
            conn.send({"hello": hello})
        finally:
            conn.sock.setblocking(False)

    # -- command dispatch ----------------------------------------------------

    def _handle(self, conn: FrameSocket, frame: dict) -> None:
        if "ack" in frame:
            return  # stray ack of an abandoned flush; harmless
        op = frame.get("op")
        tag, payload = as_reply(self._run, op, frame.get("args"))
        # Ship-before-reply: every record this op journaled must be
        # acked into the replica before the reply exists on the wire.
        # A failed ship raises ConnectionError -> the caller drops the
        # connection, the reply is never sent, and reconnect catch-up
        # re-ships; the command's effects stay journaled (exactly-once
        # comes from the journal, not the transport).
        conn.sock.setblocking(True)
        try:
            self._ship(conn)
            conn.send({tag: payload})
        finally:
            conn.sock.setblocking(False)
        if tag == "ok" and op in FINAL_OPS:
            self._stop = True

    def _run(self, op, args):
        """One wire command: decode its arguments, run it through the
        shared command table, encode its result."""
        if op == "submit":
            request = request_from_record(args[0])
            request._order = args[1]
            args = [request]
        result = run_op(self.service, op, args)
        codec = _RESULT_CODEC.get(op)
        return result if codec is None else codec[0](result)

    def _ship(self, conn: FrameSocket) -> None:
        if not self._shipping or not self._journal_buf:
            return
        for line in self._journal_buf:
            conn.send({"journal": line})
        self._journal_buf.clear()
        total = self.service.journal.lines
        conn.send({"flush": total})
        ack = conn.recv(time.monotonic() + _ACK_TIMEOUT_S)
        if ack.get("ack") != total:
            raise ConnectionError(
                f"router acked {ack.get('ack')!r}, expected {total}"
            )
