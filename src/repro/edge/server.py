"""The asyncio TCP edge: thousands of sockets, one solve service.

``EdgeServer`` is the network front door of the system: a stdlib-only
``asyncio`` server that multiplexes many concurrent client connections
onto one :class:`~repro.service.service.SolveService` (or
:class:`~repro.cluster.cluster.ClusterService` — anything with the
``submit`` / ``drain`` / ``collect`` / ``shutdown`` /
``admission_decision`` surface).  The wire format is exactly the JSONL
of :mod:`repro.service.wire` — one request object per line in, one
response object per line out — decoded through the same
:func:`~repro.service.wire.decode_request_line` as the stdin session,
so both wires accept and reject identical frames.

Design
------

* **One event loop, one service thread.**  The service is synchronous
  and CPU-bound, so every service call (``submit``, ``drain``, ...)
  is dispatched to a dedicated single-thread executor.  The single
  thread serializes all service access (the service is not
  thread-safe); the event loop never blocks on a solve.

* **Per-connection pipelining with in-order responses.**  A client may
  write any number of request lines without waiting.  Each accepted
  line gets a connection-local sequence number, and responses — solve
  results *and* edge-level errors — are flushed strictly in that
  order, so the k-th response line always answers the k-th request
  line (the stdin contract, per connection).

* **Connection-scoped request ids.**  A client-supplied id is
  namespaced ``c<N>:<id>`` before it reaches the service, so two
  connections may both use ``"r1"`` without colliding in the journal
  or the dedup index; the response echoes the client's original id.

* **Sessions survive reconnects.**  A connection whose *first* line is
  a hello frame ``{"session": "<sid>"}`` joins a server-side session:
  its ids are namespaced ``s:<sid>:<id>`` instead of the ephemeral
  ``c<N>:``, so a client that reconnects (resets, partitions) and
  resubmits an unanswered id under the same session is recognized.  A
  resubmitted id that is still in flight is *re-bound* to the new
  connection (the original solve answers it — never submitted twice);
  one already answered after the old socket died is re-delivered from
  a bounded per-session answered cache.  This is what makes
  :class:`~repro.edge.client.ResilientEdgeClient`'s blind resubmission
  exactly-once even without a journal; with one, the journal's dedup
  backstops cache eviction.

* **Deadline propagation from socket metadata.**  Every complete line
  is stamped with its socket arrival time.  A request's
  ``deadline_s`` (or the server default) is measured *from that
  stamp*: time spent queued behind a paused reader or a busy service
  is charged against the budget, and a request whose budget is
  already exhausted at dispatch answers ``deadline-exceeded`` without
  touching the service.

* **Backpressure into admission control.**  Before submitting, the
  edge probes ``service.admission_decision``.  A ``block`` verdict
  pauses that connection's transport (``transport.pause_reading()``)
  while the queue drains — the kernel's TCP receive window, not a
  server-side buffer, absorbs the burst — then resumes and retries.
  ``reject-newest`` / ``shed-oldest`` answer structured
  ``overloaded`` errors on the wire (the shed victim's error is
  delivered to *its* connection).  Independently, a connection whose
  decoded-line backlog exceeds ``line_buffer`` is paused until the
  intake loop catches up, so edge memory stays bounded under any
  burst.

* **Graceful drain.**  :meth:`EdgeServer.drain` (wired to
  SIGTERM/SIGINT by :func:`serve_tcp`) stops accepting connections,
  answers in-flight work via the service's own
  :meth:`~repro.service.service.SolveService.shutdown` path under the
  drain deadline, flushes every connection and closes.  Unanswered
  requests stay journaled for the next ``--recover``.

* **Client death is survivable.**  A disconnect mid-pipeline cancels
  that connection's intake; already-submitted requests are still
  solved (and journaled) exactly once — their responses are dropped
  at dispatch, never lost by the service.
"""

from __future__ import annotations

import asyncio
import functools
import json
import re
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import (
    DeadlineExceededError,
    DuplicateRequestError,
    ReproError,
    error_kind,
)
from repro.service.request import SolveResponse
from repro.service.wire import (
    RequestError,
    decode_request_line,
    dump_response,
    error_line,
)

__all__ = ["EdgeServer", "EdgeStats", "serve_tcp"]

# Sentinel queued in place of a line that overflowed max_line_bytes.
_OVERSIZED = object()

# Session ids stay out of the namespacing delimiter and control chars.
_SESSION_ID = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


@dataclass
class EdgeStats:
    """Counters only the network tier can know."""

    connections: int = 0          # total accepted
    connections_open: int = 0     # currently open
    requests: int = 0             # accepted into the service
    responses: int = 0            # delivered on a socket
    edge_errors: int = 0          # malformed/oversized frames answered
    overload_rejections: int = 0  # reject-policy / duplicate answers
    deadline_expired: int = 0     # budget exhausted in the edge queue
    backpressure_pauses: int = 0  # block-policy pause_reading events
    intake_pauses: int = 0        # line-backlog pause_reading events
    dropped_responses: int = 0    # answered after the client vanished
    orphan_responses: int = 0     # no in-flight entry (recovered ids)
    drains: int = 0               # service drain round-trips
    sessions: int = 0             # distinct sessions registered
    session_resumes: int = 0      # hello frames joining a known session
    session_rebinds: int = 0      # in-flight ids re-bound to a new conn
    session_replays: int = 0      # answers re-delivered from the cache
    parked_responses: int = 0     # answered after a session conn died

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def metrics_text(self, prefix: str = "repro_edge_") -> str:
        """Prometheus text exposition of the edge counters (the
        ``connections_open`` gauge aside, everything is a counter)."""
        lines = []
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if name == "connections_open":
                lines.append(f"# TYPE {prefix}{name} gauge")
                lines.append(f"{prefix}{name} {value}")
            else:
                lines.append(f"# TYPE {prefix}{name}_total counter")
                lines.append(f"{prefix}{name}_total {value}")
        return "\n".join(lines) + "\n"


class _EdgeConnection(asyncio.Protocol):
    """One client socket: line framing, ordering, flow control."""

    def __init__(self, server: "EdgeServer") -> None:
        self.server = server
        self.transport = None
        self.name = ""
        self.session: str | None = None
        self.closed = False
        self._eof = False
        self._discard = False      # swallowing the tail of an oversized line
        self._buf = bytearray()
        self._lines: deque[tuple[object, float]] = deque()
        self._line_ready = asyncio.Event()
        self._pauses: set[str] = set()
        self.lineno = 0            # 1-based wire line counter (blanks count)
        self._next_seq = 0         # next sequence to allocate
        self._next_write = 0       # next sequence to flush
        self._ready: dict[int, bytes] = {}
        self.task: asyncio.Task | None = None

    # -- protocol callbacks --------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.name = self.server._register(self)
        self.task = self.server._loop.create_task(
            self.server._intake_loop(self)
        )

    def data_received(self, data: bytes) -> None:
        now = time.monotonic()
        self._buf += data
        while True:
            i = self._buf.find(b"\n")
            if i < 0:
                if self._discard:
                    self._buf.clear()
                elif len(self._buf) > self.server.max_line_bytes:
                    # Unterminated giant line: answer once, swallow the
                    # rest — the buffer never outgrows the cap.
                    self._discard = True
                    self._buf.clear()
                    self._lines.append((_OVERSIZED, now))
                break
            line = bytes(self._buf[:i])
            del self._buf[: i + 1]
            if self._discard:
                self._discard = False  # tail of the oversized line
                continue
            if len(line) > self.server.max_line_bytes:
                self._lines.append((_OVERSIZED, now))
            else:
                self._lines.append((line, now))
        self._line_ready.set()
        if len(self._lines) > self.server.line_buffer:
            self.pause("intake")
            self.server.stats.intake_pauses += 1

    def eof_received(self) -> bool:
        self._eof = True
        self._line_ready.set()
        return False  # let the transport close

    def connection_lost(self, exc) -> None:
        self.closed = True
        self._lines.clear()
        self._line_ready.set()
        if self.task is not None:
            self.task.cancel()
        self.server._unregister(self)

    # -- intake --------------------------------------------------------------

    async def next_line(self) -> tuple[object, float] | None:
        """The next complete line, or ``None`` at end of stream."""
        while not self._lines:
            if self.closed or self._eof:
                return None
            self._line_ready.clear()
            await self._line_ready.wait()
        item = self._lines.popleft()
        if (
            "intake" in self._pauses
            and len(self._lines) <= self.server.line_buffer // 2
        ):
            self.resume("intake")
        return item

    def alloc_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    # -- flow control ---------------------------------------------------------

    def pause(self, reason: str) -> None:
        if self.closed:
            return
        if not self._pauses:
            try:
                self.transport.pause_reading()
            except RuntimeError:  # pragma: no cover — racing a close
                return
        self._pauses.add(reason)

    def resume(self, reason: str) -> None:
        self._pauses.discard(reason)
        if self.closed or self._pauses:
            return
        try:
            self.transport.resume_reading()
        except RuntimeError:  # pragma: no cover — racing a close
            pass

    # -- delivery -------------------------------------------------------------

    def deliver(self, seq: int, payload: bytes) -> None:
        """Queue one response line; flush everything now contiguous.

        Responses may complete out of order (an edge error is ready
        instantly, the solve ahead of it is not); the wire only ever
        sees them in request order."""
        self._ready[seq] = payload
        while self._next_write in self._ready:
            data = self._ready.pop(self._next_write)
            self._next_write += 1
            if not self.closed:
                self.transport.write(data + b"\n")


class EdgeServer:
    """Asyncio TCP front end over one solve (or cluster) service.

    Parameters
    ----------
    service:
        A :class:`~repro.service.service.SolveService` or
        :class:`~repro.cluster.cluster.ClusterService`.  The server
        owns its lifecycle from :meth:`start` to :meth:`drain` /
        :meth:`close`.
    host, port:
        Bind address; port ``0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    window:
        Requests accumulated before a service drain is forced; smaller
        windows trade throughput for latency.
    flush_interval:
        Seconds a partial window may wait before draining anyway.
    default_deadline_s:
        Deadline applied to requests that carry none, measured from
        socket arrival (``None`` = unbounded).
    max_line_bytes:
        Longest accepted request line; longer frames answer a
        structured ``invalid-request`` without buffering the payload.
    line_buffer:
        Decoded lines a connection may queue ahead of the intake loop
        before its transport is paused.
    include_matrix:
        Forward ``x``/``s``/``d`` payloads in responses.
    session_cache:
        Answered responses retained per session for re-delivery to a
        resubmitting reconnect (oldest evicted first).
    max_sessions:
        Distinct sessions retained (least recently joined evicted).
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        window: int = 32,
        flush_interval: float = 0.005,
        default_deadline_s: float | None = None,
        max_line_bytes: int = 8_000_000,
        line_buffer: int = 64,
        include_matrix: bool = True,
        session_cache: int = 256,
        max_sessions: int = 1024,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if max_line_bytes < 1:
            raise ValueError("max_line_bytes must be >= 1")
        if line_buffer < 1:
            raise ValueError("line_buffer must be >= 1")
        if session_cache < 1:
            raise ValueError("session_cache must be >= 1")
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self.window = window
        self.flush_interval = flush_interval
        self.default_deadline_s = default_deadline_s
        self.max_line_bytes = max_line_bytes
        self.line_buffer = line_buffer
        self.include_matrix = include_matrix
        self.session_cache = session_cache
        self.max_sessions = max_sessions
        self.stats = EdgeStats()
        # Service stats snapshot taken at drain (the CLI's --stats).
        self.final_service_stats: dict | None = None
        # The same snapshot as its stats object (the CLI's --prometheus).
        self.final_service_stats_obj = None
        admission = getattr(service, "_admission", None)
        self._bounded = (
            admission is not None and admission.config.bounded
        )
        self._exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="edge-svc"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_EdgeConnection] = set()
        self._conn_seq = 0
        # session id -> namespaced request id -> encoded response line.
        # OrderedDict at both levels: LRU over sessions, FIFO eviction
        # over each session's answered cache.
        self._sessions: "OrderedDict[str, OrderedDict[str, bytes]]" = (
            OrderedDict()
        )
        # service request id -> (conn, conn seq, client id, session id)
        self._inflight: dict[
            str, tuple[_EdgeConnection, int, str | None, str | None]
        ] = {}
        self._submitted = 0          # submits since the last drain
        self._drain_lock = asyncio.Lock()
        self._flush_handle: asyncio.TimerHandle | None = None
        self._draining = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "EdgeServer":
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _EdgeConnection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def drain(self, deadline_s: float | None = 30.0) -> None:
        """Graceful shutdown: stop accepting, answer in-flight work
        under the deadline (the service's own drain path — unanswered
        requests stay journaled), flush and close every connection."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        async with self._drain_lock:
            responses = await self._svc(self._shutdown_service, deadline_s)
            self._dispatch(responses)
        for conn in list(self._conns):
            if conn.task is not None:
                conn.task.cancel()
            if not conn.closed:
                conn.transport.close()  # flushes queued writes first
        self._exec.shutdown(wait=True)

    async def close(self) -> None:
        """Abort without draining (tests; the service is left to the
        caller)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        for conn in list(self._conns):
            if conn.task is not None:
                conn.task.cancel()
            if not conn.closed:
                conn.transport.abort()
        self._exec.shutdown(wait=True)

    def _shutdown_service(self, deadline_s: float | None) -> list:
        # collect() first: block-policy backpressure drains park
        # responses in the completed buffer; shutdown() does not return
        # them.  (Runs on the service thread.)
        responses = list(self.service.collect())
        # Snapshot stats before shutdown: a ClusterService closes its
        # shards during shutdown, after which stats() would respawn
        # them just to be counted.
        try:
            self.final_service_stats_obj = self.service.stats()
            self.final_service_stats = self.final_service_stats_obj.as_dict()
        except Exception:  # pragma: no cover — stats are best-effort
            self.final_service_stats = None
            self.final_service_stats_obj = None
        responses += self.service.shutdown(deadline_s)
        return responses

    def set_window(self, window: int) -> None:
        """Resize the batching window (the supervisor's widen/narrow
        action; safe mid-serve — the next accept sees the new value)."""
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window

    # -- connection registry ---------------------------------------------------

    def _register(self, conn: _EdgeConnection) -> str:
        self._conns.add(conn)
        self._conn_seq += 1
        self.stats.connections += 1
        self.stats.connections_open += 1
        return f"c{self._conn_seq}"

    def _unregister(self, conn: _EdgeConnection) -> None:
        if conn in self._conns:
            self._conns.discard(conn)
            self.stats.connections_open -= 1

    # -- service thread --------------------------------------------------------

    def _svc(self, fn, *args):
        """Run one service call on the dedicated service thread."""
        return self._loop.run_in_executor(
            self._exec, functools.partial(fn, *args)
        )

    def _probe_and_submit(self, request):
        """Admission probe + submit in one service-thread hop.

        Returns ``("block", scope)`` — the caller pauses the transport
        and drains — or ``("ok", rid)`` / ``("error", exc)``."""
        if self._bounded:
            action, scope = self.service.admission_decision(request)
            if action == "block":
                return ("block", scope)
        try:
            return ("ok", self.service.submit(request))
        except Exception as exc:  # noqa: BLE001 — answered on the wire
            return ("error", exc)

    # -- sessions --------------------------------------------------------------

    def _try_hello(self, line: bytes) -> dict | None:
        """Parse a first-line session hello; ``None`` for anything else
        (which then flows through normal request decoding)."""
        if b'"session"' not in line[:256]:
            return None
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            return None
        if not isinstance(obj, dict) or "session" not in obj \
                or "problem" in obj:
            return None
        return obj

    def _join_session(self, conn: _EdgeConnection, hello: dict) -> bytes:
        """Bind the connection to its session; returns the ack line."""
        sid = hello["session"]
        if not isinstance(sid, str) or not _SESSION_ID.match(sid):
            self.stats.edge_errors += 1
            return json.dumps({
                "session": sid if isinstance(sid, str) else None,
                "status": "error",
                "error": {
                    "kind": "invalid-request",
                    "message": "session id must match "
                               "[A-Za-z0-9._-]{1,64}",
                },
            }, separators=(",", ":")).encode()
        cache = self._sessions.get(sid)
        if cache is None:
            cache = self._sessions[sid] = OrderedDict()
            self.stats.sessions += 1
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
        else:
            self._sessions.move_to_end(sid)
            self.stats.session_resumes += 1
        conn.session = sid
        return json.dumps(
            {"session": sid, "status": "ok", "cached": len(cache)},
            separators=(",", ":"),
        ).encode()

    def _park(self, session: str, rid: str, payload: bytes) -> None:
        """Retain one answered line for re-delivery to a reconnect."""
        cache = self._sessions.get(session)
        if cache is None:  # session evicted since the submit
            return
        cache[rid] = payload
        while len(cache) > self.session_cache:
            cache.popitem(last=False)

    # -- intake ----------------------------------------------------------------

    async def _intake_loop(self, conn: _EdgeConnection) -> None:
        try:
            while True:
                item = await conn.next_line()
                if item is None:
                    break
                line, t_arrival = item
                await self._handle_line(conn, line, t_arrival)
        except asyncio.CancelledError:
            raise
        except Exception:  # pragma: no cover — defensive: kill the conn
            if not conn.closed:
                conn.transport.close()
            raise

    async def _handle_line(
        self, conn: _EdgeConnection, line, t_arrival: float
    ) -> None:
        conn.lineno += 1
        if line is _OVERSIZED:
            seq = conn.alloc_seq()
            self.stats.edge_errors += 1
            err = RequestError(
                conn.lineno,
                f"line {conn.lineno}: frame exceeds "
                f"{self.max_line_bytes} bytes",
            )
            conn.deliver(seq, error_line(err).encode())
            return
        if conn.lineno == 1:
            hello = self._try_hello(line)
            if hello is not None:
                conn.deliver(conn.alloc_seq(), self._join_session(conn, hello))
                return
        decoded = decode_request_line(
            line.decode("utf-8", errors="replace"), conn.lineno
        )
        if decoded is None:  # blank keepalive line
            return
        if isinstance(decoded, RequestError):
            seq = conn.alloc_seq()
            self.stats.edge_errors += 1
            conn.deliver(seq, error_line(decoded).encode())
            return
        seq = conn.alloc_seq()
        client_id = decoded.id
        if client_id is not None:
            # Namespacing: session-scoped ids survive reconnects, plain
            # connection-scoped ids only need to be unique per
            # connection; either way the journal/dedup key is the
            # namespaced id.  (``s:`` and ``c<N>:`` cannot collide.)
            if conn.session is not None:
                decoded.id = f"s:{conn.session}:{client_id}"
            else:
                decoded.id = f"{conn.name}:{client_id}"
        if conn.session is not None and client_id is not None:
            cache = self._sessions.get(conn.session)
            if cache is not None and decoded.id in cache:
                # Already answered after the previous socket died —
                # re-deliver the parked line, never re-solve.
                self.stats.session_replays += 1
                conn.deliver(seq, cache[decoded.id])
                return
        if decoded.id is not None and decoded.id in self._inflight:
            entry = self._inflight[decoded.id]
            if (
                conn.session is not None
                and entry[3] == conn.session
                and entry[0].closed
            ):
                # Resubmission of an id still in flight whose original
                # socket is gone: re-bind the pending solve to this
                # connection — exactly-once without touching the
                # service.
                self._inflight[decoded.id] = (
                    conn, seq, client_id, conn.session
                )
                self.stats.session_rebinds += 1
                return
            # A journal-less service accepts duplicate ids, which would
            # silently clobber the earlier in-flight entry and stall
            # this connection's ordering forever — refuse at the edge.
            self.stats.overload_rejections += 1
            conn.deliver(seq, json.dumps({
                "id": client_id,
                "status": "error",
                "error": {
                    "kind": DuplicateRequestError.kind,
                    "message": f"request id {client_id!r} is already in "
                               "flight on this connection",
                },
            }, separators=(",", ":")).encode())
            return
        # Deadline propagation: the budget runs from socket arrival, so
        # time queued behind a paused reader or a busy service counts.
        deadline_s = (
            decoded.deadline_s
            if decoded.deadline_s is not None
            else self.default_deadline_s
        )
        if deadline_s is not None:
            remaining = deadline_s - (time.monotonic() - t_arrival)
            if remaining <= 0:
                self.stats.deadline_expired += 1
                conn.deliver(seq, json.dumps({
                    "id": client_id,
                    "status": "error",
                    "error": {
                        "kind": DeadlineExceededError.kind,
                        "message": "deadline expired in the edge intake "
                                   "queue",
                    },
                }, separators=(",", ":")).encode())
                return
            decoded.deadline_s = remaining
        while True:
            outcome, value = await self._svc(self._probe_and_submit, decoded)
            if outcome != "block":
                break
            # Full queue under the block policy: socket-level
            # backpressure instead of unbounded buffering — stop
            # reading this transport, make room, retry.
            self.stats.backpressure_pauses += 1
            conn.pause("admission")
            try:
                await self._drain_now()
            finally:
                conn.resume("admission")
        if outcome == "error":
            exc = value
            self.stats.overload_rejections += 1
            if not isinstance(exc, ReproError):  # pragma: no cover
                self.stats.overload_rejections -= 1
                self.stats.edge_errors += 1
            conn.deliver(seq, json.dumps({
                "id": client_id,
                "status": "error",
                "error": {"kind": error_kind(exc), "message": str(exc)},
            }, separators=(",", ":")).encode())
            return
        self._inflight[value] = (conn, seq, client_id, conn.session)
        self.stats.requests += 1
        self._submitted += 1
        if self._submitted >= self.window:
            await self._drain_now()
        else:
            self._schedule_flush()

    # -- drain & dispatch ------------------------------------------------------

    def _schedule_flush(self) -> None:
        if self._flush_handle is not None or self._draining:
            return
        self._flush_handle = self._loop.call_later(
            self.flush_interval, self._flush_cb
        )

    def _flush_cb(self) -> None:
        self._flush_handle = None
        if self._submitted and not self._draining:
            self._loop.create_task(self._drain_now())

    def _service_drain(self) -> list:
        return self.service.collect() + self.service.drain()

    async def _drain_now(self) -> None:
        async with self._drain_lock:
            if self._draining:
                return
            self._submitted = 0
            responses = await self._svc(self._service_drain)
            if responses:
                self.stats.drains += 1
            self._dispatch(responses)

    def _dispatch(self, responses: list[SolveResponse]) -> None:
        for resp in responses:
            entry = self._inflight.pop(resp.id, None)
            if entry is None:
                self.stats.orphan_responses += 1
                continue
            conn, seq, client_id, session = entry
            namespaced = resp.id
            if client_id is not None:
                resp.id = client_id  # strip the namespace
            if session is not None and client_id is not None:
                # Park a copy whether or not the socket is still up: a
                # delivered line can die in flight (RST drops buffered
                # writes), and the reconnect's resubmission must find
                # the answer here rather than re-reach the service.
                payload = dump_response(
                    resp, include_matrix=self.include_matrix
                ).encode()
                self._park(session, namespaced, payload)
                if conn.closed:
                    self.stats.parked_responses += 1
                    continue
                conn.deliver(seq, payload)
                self.stats.responses += 1
                continue
            if conn.closed:
                # The client vanished mid-pipeline.  The service has
                # already answered (and journaled) exactly once; the
                # wire just has no one left to tell.
                self.stats.dropped_responses += 1
                continue
            conn.deliver(
                seq,
                dump_response(
                    resp, include_matrix=self.include_matrix
                ).encode(),
            )
            self.stats.responses += 1


async def serve_tcp(
    service,
    host: str = "127.0.0.1",
    port: int = 8377,
    *,
    drain_deadline_s: float | None = 30.0,
    ready: "asyncio.Future | None" = None,
    supervisor=None,
    **edge_kwargs,
) -> EdgeServer:
    """Run an :class:`EdgeServer` until SIGTERM/SIGINT, then drain.

    The CLI entry point behind ``python -m repro serve --tcp
    HOST:PORT``.  ``ready`` (a future) resolves to the bound port once
    the socket is listening — tests use it to connect to port ``0``
    servers.  A :class:`~repro.supervisor.Supervisor` passed as
    ``supervisor`` is attached to the edge and ticked on the service
    thread (its ``stats()`` polls and corrective actions serialize with
    all other service access) until the drain begins.  Returns the
    drained server (its :attr:`~EdgeServer.stats` still readable)."""
    import signal

    server = EdgeServer(service, host, port, **edge_kwargs)
    await server.start()
    if ready is not None and not ready.done():
        ready.set_result(server.port)
    sup_task = None
    if supervisor is not None:
        supervisor.attach_edge(server)
        sup_task = asyncio.ensure_future(
            supervisor.run_async(call=server._svc)
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread / platform without signal support
    try:
        await stop.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        if sup_task is not None:
            # Stop ticking before the drain tears the executor down.
            sup_task.cancel()
            try:
                await sup_task
            except asyncio.CancelledError:
                pass
    await server.drain(drain_deadline_s)
    return server
