"""The shard protocol: one command table, one hello, three transports.

A shard replica owns a complete, independent
:class:`~repro.service.service.SolveService` — its own
:class:`~repro.parallel.executor.ParallelKernel`, warm-start cache,
workspace LRU, write-ahead journal and admission queue — and answers a
tiny synchronous command protocol, dispatched in exactly one place,
:func:`run_op`::

    submit(request)      -> request id
    drain()              -> [SolveResponse, ...]
    collect()            -> [SolveResponse, ...]
    shed()               -> SolveResponse | None
    stats()              -> ServiceStats
    ping()               -> pending count
    shutdown(deadline)   -> [SolveResponse, ...], then the replica stops
    close()              -> None, then the replica stops

A serving loop wraps each result with :func:`as_reply` into one reply,
``("ok", value)`` or ``("error", [kind, message])``, and the router
side unwraps it with :func:`unwrap_reply`, re-raising the error as its
:mod:`repro.errors` taxonomy class.  On start every replica announces
itself with the dict :func:`shard_hello` builds: its pid plus — when it
recovered a journal — the recorded responses of answered ids and the
``(id, order)`` pairs it re-enqueued, which is everything the router
needs to reconcile its in-flight map after a replica death.

Three transports share the protocol through :class:`ShardHandle`:

* :class:`ProcessShard` forks a child that serves the commands over a
  ``multiprocessing`` pipe.  Objects cross it pickled, and pickling
  preserves float64 bit patterns, so the journal's bit-identity
  contract survives the hop.
* :class:`InlineShard` executes them in-process (the bottom rung of
  the cluster's degradation ladder, and the zero-IPC test backend).
* :class:`~repro.cluster.net.NetShard` reaches a ``shard-serve`` host
  over TCP (:mod:`repro.cluster.net`).
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import time

from repro.errors import (
    InvalidRequestError,
    ReproError,
    WorkerCrashError,
    error_class,
)
from repro.service.journal import Journal
from repro.service.service import SolveService

__all__ = [
    "ProcessShard",
    "InlineShard",
    "ShardCrashedError",
    "ShardHandle",
    "as_reply",
    "run_op",
    "shard_hello",
    "shard_journal",
    "unwrap_reply",
]

_HELLO_TIMEOUT_S = 60.0
_POLL_S = 0.05

# Commands after whose successful reply the replica stops serving.
FINAL_OPS = ("shutdown", "close")


class ShardCrashedError(WorkerCrashError):
    """A shard replica died mid-conversation (its journal survives)."""

    kind = "worker-crash"


def shard_journal(journal_dir, shard_id: str) -> pathlib.Path:
    """Journal path of one shard under the cluster's journal directory."""
    return pathlib.Path(journal_dir) / f"{shard_id}.journal"


def _open_service(service_kwargs: dict, journal_path=None,
                  snapshot_path=None, recover: bool = False) -> SolveService:
    """A replica's service: recovered from its journal when asked and
    the journal exists, fresh otherwise."""
    if (
        recover
        and journal_path is not None
        and pathlib.Path(journal_path).exists()
    ):
        return SolveService.recover(
            journal_path, snapshot_path=snapshot_path, **service_kwargs
        )
    return SolveService(
        journal=journal_path, snapshot_path=snapshot_path, **service_kwargs
    )


def shard_hello(shard_id: str, svc: SolveService) -> dict:
    """The hello a started replica sends its router.

    ``journal_lines`` is the replica's journal length; a network router
    checks its shipped replica against it after catch-up."""
    journal = svc.journal
    return {
        "shard": shard_id,
        "pid": os.getpid(),
        "recovered": list(svc.recovered.values()),
        "replayed": [
            (req.id, getattr(req, "_order", 0)) for req in svc._queue
        ],
        "journal_lines": None if journal is None else journal.lines,
    }


def run_op(svc: SolveService, op: str, args) -> object:
    """Execute one shard command against the replica's service."""
    if op == "submit":
        return svc.submit(args[0])
    if op == "drain":
        return svc.collect() + svc.drain()
    if op == "collect":
        return svc.collect()
    if op == "shed":
        return svc.shed_oldest()
    if op == "stats":
        return svc.stats()
    if op == "ping":
        return svc.pending
    if op == "shutdown":
        responses = svc.shutdown(deadline_s=args[0])
        return svc.collect() + responses
    if op == "close":
        svc.close()
        return None
    raise InvalidRequestError(f"unknown shard op {op!r}")


def as_reply(fn, *args) -> tuple[str, object]:
    """``fn(*args)`` as a reply: ``("ok", result)``, or ``("error",
    [kind, message])`` for any exception — a failing command never
    kills the serving loop."""
    try:
        return "ok", fn(*args)
    except ReproError as exc:
        return "error", [exc.kind, str(exc)]
    except Exception as exc:  # noqa: BLE001 — isolate, never kill the loop
        return "error", ["internal", f"{type(exc).__name__}: {exc}"]


def unwrap_reply(tag: str, payload):
    """Router side of :func:`as_reply`: the result, or the error
    re-raised as its taxonomy class."""
    if tag == "error":
        kind, message = payload
        raise error_class(kind)(message)
    return payload


def _shard_main(conn, shard_id, recover, journal_path, snapshot_path,
                service_kwargs) -> None:
    """Child-process entry: build the shard's service, serve commands."""
    # The router owns signal policy: Ctrl-C lands on the whole process
    # group, but only the router should act on it (it drains shards via
    # the protocol, not via signals racing the drain).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover — non-main thread (tests)
        pass
    try:
        svc = _open_service(service_kwargs, journal_path, snapshot_path,
                            recover)
    except Exception as exc:  # pragma: no cover — config errors surface up
        conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    conn.send(("hello", shard_hello(shard_id, svc)))
    while True:
        try:
            op, *args = conn.recv()
        except (EOFError, OSError):  # router died: flush and stop
            svc.close()
            return
        tag, payload = as_reply(run_op, svc, op, args)
        conn.send((tag, payload))
        if tag == "ok" and op in FINAL_OPS:
            conn.close()
            return


class ShardHandle:
    """The router-side command surface every shard transport shares.

    Synchronous and single-outstanding-command: :meth:`start` sends one
    command and :meth:`finish` returns its result (or raises its
    error).  The split lets the router broadcast ``drain`` to every
    shard and *then* gather — the replicas compute concurrently.
    """

    def call(self, op: str, *args, timeout: float | None = None):
        self.start(op, *args)
        return self.finish(timeout=timeout)

    def submit(self, request) -> str:
        return self.call("submit", request)

    def ping(self, timeout: float | None = 5.0) -> int:
        """Liveness probe: the replica's pending count.  A hung or
        unreachable replica surfaces as :class:`ShardCrashedError`."""
        return self.call("ping", timeout=timeout)

    def stats(self):
        return self.call("stats")


class ProcessShard(ShardHandle):
    """Router-side handle of one worker replica (child process)."""

    backend = "process"

    def __init__(self, shard_id: str, service_kwargs: dict,
                 journal_path=None, snapshot_path=None,
                 recover: bool = False) -> None:
        self.id = shard_id
        self.journal_path = (
            None if journal_path is None else pathlib.Path(journal_path)
        )
        self.snapshot_path = snapshot_path
        ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_main,
            args=(child, shard_id, recover, journal_path, snapshot_path,
                  dict(service_kwargs)),
            daemon=True,
            name=f"repro-{shard_id}",
        )
        self._proc.start()
        child.close()
        frame = self._recv(timeout=_HELLO_TIMEOUT_S)
        if frame[0] == "fatal":  # pragma: no cover — bad service config
            self._proc.join(timeout=5)
            raise RuntimeError(f"{shard_id} failed to start: {frame[1]}")
        self.hello = frame[1]

    # -- liveness ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._proc.is_alive()

    @property
    def pid(self) -> int:
        return self._proc.pid

    def kill(self) -> None:
        """SIGKILL the replica — the chaos hook.  No drain, no flush;
        only the journal survives."""
        self._proc.kill()
        self._proc.join(timeout=10)

    # -- protocol ------------------------------------------------------------

    def start(self, op: str, *args) -> None:
        """Send a command without waiting for its reply."""
        try:
            self._conn.send((op, *args))
        except (BrokenPipeError, OSError) as exc:
            raise ShardCrashedError(
                f"{self.id} is gone mid-send ({type(exc).__name__})"
            ) from exc

    def finish(self, timeout: float | None = None):
        """Receive (and unwrap) the pending command's reply."""
        return unwrap_reply(*self._recv(timeout=timeout))

    def _recv(self, timeout: float | None = None):
        """Receive one frame, detecting replica death instead of
        blocking forever: a SIGKILLed child closes its pipe end (EOF)
        and ``is_alive()`` flips, either of which aborts the wait."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if self._conn.poll(_POLL_S):
                    return self._conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardCrashedError(
                    f"{self.id} died (pid {self._proc.pid}, exitcode "
                    f"{self._proc.exitcode})"
                ) from exc
            if not self._proc.is_alive() and not self._conn.poll(0):
                raise ShardCrashedError(
                    f"{self.id} died (pid {self._proc.pid}, exitcode "
                    f"{self._proc.exitcode})"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise ShardCrashedError(
                    f"{self.id} unresponsive after {timeout:g}s"
                )

    # -- convenience ---------------------------------------------------------

    def ping(self, timeout: float | None = 5.0) -> int:
        """Liveness probe.  A child that is *alive but unresponsive*
        (wedged in a fault-plan delay, a runaway solve, a deadlocked
        pool) is as lost to the router as a dead one — and worse: its
        late pong would desynchronize the single-outstanding-command
        pipe.  So a timed-out ping kills the child before raising,
        which both restores pipe discipline and routes the caller into
        the ordinary respawn path."""
        try:
            return self.call("ping", timeout=timeout)
        except ShardCrashedError:
            if self._proc.is_alive():
                self.kill()
            raise

    def close(self) -> None:
        """Graceful child exit; escalate to SIGKILL if it won't die."""
        if self._proc.is_alive():
            try:
                self.call("close", timeout=30.0)
            except ShardCrashedError:
                pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover — stuck child
            self._proc.kill()
            self._proc.join(timeout=10)
        self._conn.close()


class InlineShard(ShardHandle):
    """The shard protocol executed in-process (no child, no IPC).

    Serves two roles: the deterministic test/sandbox backend
    (``ClusterService(shard_backend="inline")``) and the terminal rung
    of the replica degradation ladder — when a shard's respawns keep
    dying, the router rebuilds it inline from its journal so the
    keyspace slice stays served (an in-process shard has no process to
    lose).  Command errors raise directly.
    """

    backend = "inline"

    def __init__(self, shard_id: str, service_kwargs: dict,
                 journal_path=None, snapshot_path=None,
                 recover: bool = False) -> None:
        self.id = shard_id
        self.journal_path = (
            None if journal_path is None else pathlib.Path(journal_path)
        )
        self.snapshot_path = snapshot_path
        self.service = _open_service(service_kwargs, journal_path,
                                    snapshot_path, recover)
        self.hello = shard_hello(shard_id, self.service)
        self._pending_op: tuple | None = None

    @property
    def alive(self) -> bool:
        return True

    @property
    def pid(self) -> int:
        return os.getpid()

    def start(self, op: str, *args) -> None:
        self._pending_op = (op, args)

    def finish(self, timeout: float | None = None):  # noqa: ARG002
        op, args = self._pending_op
        self._pending_op = None
        return run_op(self.service, op, args)

    def close(self) -> None:
        self.service.close()


def journal_seq_base(journal_dir) -> int:
    """Total request records across a cluster journal directory.

    The router's derived request ids embed a monotonically growing
    sequence (mirroring the single service's journal-global seq); after
    a restart the base must clear every id already journaled, or a
    replayed stream could collide with its own history.

    Archived failover replicas (``failover-NNN/``) count too: their
    records were re-routed into live journals as *responses* but the
    sequence numbers they consumed must stay burned.  Over-counting is
    harmless (ids skip ahead); under-counting risks collision.  Remap
    archives (``remap-NNN/``) are excluded — the coordinator rewrites
    those records into the live journals, which already count them.
    """
    base = 0
    journal_dir = pathlib.Path(journal_dir)
    if not journal_dir.exists():
        return 0
    paths = sorted(journal_dir.glob("shard-*.journal"))
    paths += sorted(journal_dir.glob("failover-*/shard-*.journal"))
    for path in paths:
        journal = Journal(path)
        base += journal.request_records
        journal.close()
    return base
