"""Framing and connection plumbing for the network shard transport.

The router↔shard hop is internal, so it speaks the write-ahead
journal's format rather than the public edge's strict JSON: one JSON
object per ``\\n``-terminated line, encoded with the same ``json.dumps``
settings the journal writes (finite floats exact through ``repr``,
non-finite ones as the ``NaN``/``Infinity`` tokens the stdlib parses
back).  The router side
is a plain blocking TCP socket (the router is single-threaded per
shard; a blocking request/response socket with deadlines is the
simplest correct thing) and the server side a ``selectors``-driven loop
(:class:`repro.cluster.net.ShardServer` must notice a *new* connection
while an old black-holed one is still open).

:class:`Backoff` mirrors the ``ResilientEdgeClient`` reconnect
discipline — capped exponential growth with decorrelated jitter — so
both network tiers probe a dead peer with the same cadence.
"""

from __future__ import annotations

import json
import random
import socket
import time

__all__ = [
    "encode_frame",
    "parse_host_port",
    "Backoff",
    "FrameSocket",
]

_MAX_FRAME = 64 * 1024 * 1024  # runaway-peer guard, far above any real frame
_RECV_CHUNK = 1 << 16


def encode_frame(obj: dict) -> bytes:
    """One protocol object as a JSON line (bytes, newline kept)."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def parse_host_port(spec: str) -> tuple[str, int]:
    """Validate and split a ``host:port`` shard spec (fail-fast).

    Raises ``ValueError`` with a message naming the offending spec —
    this is what makes ``serve --cluster --shard`` reject a typo at
    startup instead of hanging on connect."""
    spec = spec.strip()
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"shard spec {spec!r} is not host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"shard spec {spec!r} has a non-integer port {port_text!r}"
        )
    if not 1 <= port <= 65535:
        raise ValueError(
            f"shard spec {spec!r} has out-of-range port {port} (1-65535)"
        )
    return host, port


class Backoff:
    """Capped exponential backoff with decorrelated jitter.

    ``delay(attempt)`` for attempt ``0, 1, 2, ...`` grows as
    ``base * factor**attempt`` up to ``max_delay``, then multiplies by
    ``1 + U(0, jitter)`` so a fleet of routers reconnecting to the same
    revived host doesn't stampede in lockstep — the same discipline as
    :class:`repro.edge.client.ResilientEdgeClient`."""

    def __init__(
        self,
        base: float = 0.05,
        factor: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        seed: int | None = None,
    ) -> None:
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        raw = min(self.base * self.factor ** attempt, self.max_delay)
        return raw * (1.0 + self._rng.random() * self.jitter)

    def sleep(self, attempt: int) -> None:
        time.sleep(self.delay(attempt))


class FrameSocket:
    """Line-framed JSON messaging over one TCP socket.

    Blocking, deadline-aware reads for the router side (``recv``), and
    non-blocking buffer feeding for the server's selector loop
    (``fill`` + ``take_line``).  All transport-level trouble surfaces
    as ``ConnectionError``/``TimeoutError`` so callers have exactly two
    failure modes to map onto shard-crash semantics."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buf = bytearray()
        try:
            self.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        except OSError:
            pass  # not a TCP socket (tests may use socketpairs)

    # -- blocking side (router) ---------------------------------------------

    def send(self, obj: dict) -> None:
        try:
            self.sock.sendall(encode_frame(obj))
        except OSError as exc:
            raise ConnectionError(f"send failed: {exc}") from exc

    def recv(self, deadline: float | None = None) -> dict:
        """Next frame, decoded; raises ``TimeoutError`` past ``deadline``
        (an absolute ``time.monotonic`` instant) and ``ConnectionError``
        on EOF, reset, or an unparseable frame."""
        while True:
            line = self._pop_line()
            if line is not None:
                return self._decode(line)
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("frame read timed out")
                self.sock.settimeout(remaining)
            else:
                self.sock.settimeout(None)
            try:
                chunk = self.sock.recv(_RECV_CHUNK)
            except socket.timeout:
                raise TimeoutError("frame read timed out")
            except OSError as exc:
                raise ConnectionError(f"recv failed: {exc}") from exc
            if not chunk:
                raise ConnectionError("peer closed the connection")
            self._buf.extend(chunk)
            if len(self._buf) > _MAX_FRAME:
                raise ConnectionError("frame exceeds size limit")

    # -- non-blocking side (server selector loop) ---------------------------

    def fill(self) -> bool:
        """Read whatever is available; ``False`` means EOF."""
        try:
            chunk = self.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return True
        except OSError:
            return False
        if not chunk:
            return False
        self._buf.extend(chunk)
        if len(self._buf) > _MAX_FRAME:
            return False
        return True

    def take_line(self) -> dict | None:
        """Next buffered frame without touching the socket."""
        line = self._pop_line()
        return None if line is None else self._decode(line)

    # -- shared -------------------------------------------------------------

    def _pop_line(self) -> bytes | None:
        idx = self._buf.find(b"\n")
        if idx < 0:
            return None
        line = bytes(self._buf[:idx])
        del self._buf[: idx + 1]
        return line

    def _decode(self, line: bytes) -> dict:
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad JSON and bad UTF-8; RecursionError
            # a frame nested deeper than the parser's stack.
            raise ConnectionError(f"undecodable frame: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConnectionError("frame is not a JSON object")
        return obj

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
