"""Write-ahead journal: crash-safe, exactly-once request accounting.

The durability contract of :class:`~repro.service.service.SolveService`
rests on one invariant: **a request is journaled before it is solved,
and its response is journaled before it is delivered**.  The journal is
a JSONL file of two record types::

    {"type": "request",  "id": "r1", "seq": 0, "request":  {...}}
    {"type": "response", "id": "r1", "response": {...}}

so at any instant the set of *unanswered* requests (request record, no
response record) is exactly the work a crashed service lost, and the
set of answered ones carries the full responses — duals included — at
bit-exact fidelity.  Every array in a record (the problem's ``x0``,
``gamma``, totals and mask; the result's ``x``, ``s``, ``d``, ``lam``,
``mu``, and its ``residual`` and ``objective`` as 0-d arrays) is
written by :func:`repro.io.pack_array` as its raw C-order bytes::

    "x0": {"dtype": "<f8", "shape": [3, 4], "b64": "AAAAAAAA8D8..."}

so every bit of every value survives, a ``NaN``'s sign and payload
included.  Base64 holds no line break, so a record stays one line.
Journals written before arrays were packed hold nested lists (and
scalar floats) in those places; the decoders still read them.

This record format is the one internal format of the stack: the
router's replica of a remote shard's journal is a :class:`Journal` fed
the shipped lines verbatim (:meth:`Journal.append_line`), and the
network shard wire carries requests as :func:`request_to_record` and
responses as :func:`response_to_record` dicts.  Strict JSON, with its
lossy non-finite sidecar, lives only at the public edge
(:mod:`repro.service.wire`).

Recovery (:func:`replay`, used by ``SolveService.recover``) returns the
unanswered requests in their original submission order plus the
recorded responses by id, enabling exactly-once semantics across
process death: re-solve what was never answered, return what was
answered verbatim, never answer anything twice.  A torn tail — the
partial line a crash mid-``write`` leaves behind — is detected on open
and truncated, so a restarted journal is always append-consistent.

``fsync`` policy is an integer interval: ``0`` never fsyncs (the OS
flushes; fastest, loses the tail on *machine* crash but never on mere
process death since every record is flushed to the kernel), ``1``
fsyncs every record (classic WAL durability), ``N`` every ``N``
records.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import numpy as np

from repro.core.result import SolveResult
from repro.errors import DuplicateRequestError, InvalidRequestError
from repro.io import canonical_array, pack_array, unpack_array
from repro.service.request import SolveRequest, SolveResponse
from repro.service.wire import request_from_jsonable, request_to_jsonable

__all__ = [
    "Journal",
    "replay",
    "replay_full",
    "derive_request_id",
    "request_to_record",
    "request_from_record",
    "response_to_record",
    "response_from_record",
]


def derive_request_id(request: SolveRequest, seq: int) -> str:
    """Stable id for a request the client did not name.

    The payload digest makes the id content-addressed (a resubmitted
    identical payload is *visible* as such in the journal) while the
    journal-global ``seq`` suffix keeps legitimately repeated payloads
    distinct — dedup is only *enforced* for client-supplied ids, which
    are the ones a retrying client reuses on purpose.

    The digest is SHA-1 over the sorted JSON of the request record with
    each array replaced by ``[dtype, shape]``, then over each array's
    raw C-order bytes in the order the record lists them: equal content
    gives one id whatever the arrays' memory layout.
    """
    arrays: list[np.ndarray] = []

    def header(a) -> list:
        a = canonical_array(a)
        arrays.append(a)
        return [a.dtype.str, list(a.shape)]

    digest = hashlib.sha1(
        json.dumps(request_to_jsonable(request, header), sort_keys=True)
        .encode()
    )
    for a in arrays:
        digest.update(a)
    return f"{digest.hexdigest()[:12]}-{seq}"


def request_to_record(request: SolveRequest) -> dict:
    """The internal request encoding: the fields of
    :func:`~repro.service.wire.request_to_jsonable`, arrays packed."""
    return request_to_jsonable(request, pack_array)


def request_from_record(obj: dict) -> SolveRequest:
    """Inverse of :func:`request_to_record`; also reads the nested-list
    requests of journals written before arrays were packed."""
    return request_from_jsonable(obj, unpack_array)


def _maybe_pack(arr) -> dict | None:
    return None if arr is None else pack_array(arr)


def _maybe_array(obj) -> np.ndarray | None:
    return None if obj is None else unpack_array(obj, np.float64)


def _scalar(obj) -> float:
    return float(unpack_array(obj, np.float64))


def _result_to_record(result: SolveResult) -> dict:
    return {
        "algorithm": result.algorithm,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "inner_iterations": int(result.inner_iterations),
        "residual": pack_array(result.residual),
        "objective": pack_array(result.objective),
        "elapsed": float(result.elapsed),
        "x": _maybe_pack(result.x),
        "s": _maybe_pack(result.s),
        "d": _maybe_pack(result.d),
        "lam": _maybe_pack(result.lam),
        "mu": _maybe_pack(result.mu),
    }


def _result_from_record(rec: dict) -> SolveResult:
    return SolveResult(
        x=_maybe_array(rec["x"]),
        s=_maybe_array(rec["s"]),
        d=_maybe_array(rec["d"]),
        lam=_maybe_array(rec["lam"]),
        mu=_maybe_array(rec["mu"]),
        converged=rec["converged"],
        iterations=rec["iterations"],
        inner_iterations=rec.get("inner_iterations", 0),
        residual=_scalar(rec["residual"]),
        objective=_scalar(rec["objective"]),
        elapsed=rec["elapsed"],
        algorithm=rec["algorithm"],
    )


def response_to_record(response: SolveResponse) -> dict:
    """Full-fidelity response encoding (duals included, floats exact).

    Unlike the public edge codec (:func:`repro.service.wire
    .response_to_jsonable`) nothing is rounded, nulled or dropped: the
    journal must reproduce the response *bit-identically* on replay,
    and the router re-delivers the responses a network shard sends in
    this form verbatim.
    """
    rec: dict = {
        "id": response.id,
        "kind": response.kind,
        "elapsed": response.elapsed,
        "warm_started": response.warm_started,
        "cache_exact": response.cache_exact,
        "batched": response.batched,
        "retries": response.retries,
        "submitted_at": response.submitted_at,
    }
    if response.result is not None:
        rec["result"] = _result_to_record(response.result)
    if response.error is not None:
        rec["error"] = response.error
        rec["error_kind"] = response.error_kind
    return rec


def response_from_record(rec: dict) -> SolveResponse:
    """Inverse of :func:`response_to_record`."""
    return SolveResponse(
        id=rec["id"],
        result=(
            _result_from_record(rec["result"]) if "result" in rec else None
        ),
        error=rec.get("error"),
        error_kind=rec.get("error_kind"),
        kind=rec.get("kind", ""),
        elapsed=rec.get("elapsed", 0.0),
        warm_started=rec.get("warm_started", False),
        cache_exact=rec.get("cache_exact", False),
        batched=rec.get("batched", False),
        retries=rec.get("retries", 0),
        submitted_at=rec.get("submitted_at", 0),
    )


def _parse_record(line) -> dict | None:
    """The journal record ``line`` holds, or ``None`` when it holds none.

    The one predicate behind the scan on open, replay, and shipped
    replica lines: a record is a JSON object with a ``type`` and a
    string ``id``, and a ``request`` or ``response`` record also
    carries that payload as an object.  Any decode failure — invalid
    JSON, invalid UTF-8, nesting too deep for the parser — means "not a
    record", never an exception.
    """
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if (
        not isinstance(obj, dict)
        or "type" not in obj
        or not isinstance(obj.get("id"), str)
    ):
        return None
    kind = obj["type"]
    if kind in ("request", "response") and not isinstance(obj.get(kind), dict):
        return None
    return obj


def _scan(path: pathlib.Path):
    """Yield ``(record, end_offset)`` for every intact record.

    Stops (without raising) at the first torn line or non-record — by
    construction only the *last* line can be torn, so everything before
    it is trusted and everything from it on is garbage a crash left
    behind.
    """
    offset = 0
    with path.open("rb") as fh:
        for raw in fh:
            end = offset + len(raw)
            if not raw.endswith(b"\n"):
                return  # torn tail: the crash interrupted this write
            obj = _parse_record(raw)
            if obj is None:
                return
            yield obj, end
            offset = end


class Journal:
    """Append-only write-ahead log of requests and responses.

    Opening an existing path replays its index (which ids are pending
    vs answered, how many request records exist) and truncates any torn
    tail, so the same ``Journal`` object serves a fresh service, a
    restarted one, and the router-side replica of a remote shard's
    journal (fed through :meth:`append_line`).

    Parameters
    ----------
    path:
        JSONL file; created (with parents) when missing.
    fsync:
        ``0`` = never fsync (flush only), ``1`` = fsync every record,
        ``N`` = fsync every ``N`` records.
    """

    def __init__(self, path, fsync: int = 0) -> None:
        if fsync < 0:
            raise ValueError("fsync must be >= 0")
        self.path = pathlib.Path(path)
        self.fsync = int(fsync)
        # id -> answered?  (False = request journaled, response pending)
        self._seen: dict[str, bool] = {}
        self.request_records = 0  # total request records ever journaled
        self.appended = 0         # records appended by *this* process
        self.lines = 0            # total intact records currently on disk
        self._unsynced = 0
        self._subscribers: list = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        good_end = 0
        if self.path.exists():
            for obj, end in _scan(self.path):
                good_end = end
                self.lines += 1
                self._index(obj)
            if good_end < self.path.stat().st_size:
                with self.path.open("rb+") as fh:
                    fh.truncate(good_end)
        self._fh = self.path.open("a", encoding="utf-8")

    # -- index ---------------------------------------------------------------

    def _index(self, obj: dict) -> None:
        if obj["type"] == "request":
            self._seen.setdefault(obj["id"], False)
            self.request_records += 1
        elif obj["type"] == "response":
            self._seen[obj["id"]] = True

    def __contains__(self, request_id: str) -> bool:
        return request_id in self._seen

    def answered(self, request_id: str) -> bool:
        return self._seen.get(request_id) is True

    def pending_ids(self) -> list[str]:
        """Ids journaled as requests but never answered."""
        return [rid for rid, done in self._seen.items() if not done]

    # -- appends -------------------------------------------------------------

    def append_request(self, request: SolveRequest) -> None:
        """Journal an accepted request; must precede its solve.

        Raises :class:`~repro.errors.DuplicateRequestError` when the id
        was already accepted — the caller never gets to double-journal.
        """
        if not isinstance(request.id, str):
            # The scan on reopen treats a record without a string id
            # as garbage, so one must never be written.
            raise InvalidRequestError("journaled requests need a string id")
        if request.id in self._seen:
            raise DuplicateRequestError(
                f"request id {request.id!r} already journaled "
                f"({'answered' if self._seen[request.id] else 'pending'})"
            )
        obj = {
            "type": "request",
            "id": request.id,
            "seq": getattr(request, "_order", self.request_records),
            "request": request_to_record(request),
        }
        self._write(json.dumps(obj, separators=(",", ":")), obj)

    def append_response(self, response: SolveResponse) -> None:
        """Journal a response; must precede its delivery."""
        obj = {
            "type": "response",
            "id": response.id,
            "response": response_to_record(response),
        }
        self._write(json.dumps(obj, separators=(",", ":")), obj)

    def append_line(self, line: str) -> None:
        """Append one shipped record line verbatim (validated first).

        The replica side of journal shipping: the network shard server
        ships every record its journal appends as the raw line text,
        and the router's replica appends it here byte-for-byte.
        Raises ``ValueError`` when the line is not one whole record —
        not a record by :func:`_parse_record`, or carrying a ``\\n``
        or ``\\r`` that would split it on disk — so a corrupted ship
        is rejected *before* it poisons the replica and the transport
        can drop the connection and re-fetch the line on reconnect.
        """
        obj = (
            None if "\n" in line or "\r" in line else _parse_record(line)
        )
        if obj is None:
            raise ValueError(
                f"shipped journal line is not a whole record: {line[:80]!r}"
            )
        self._write(line, obj)

    # -- streaming -----------------------------------------------------------

    def subscribe(self, fn) -> None:
        """Register ``fn(raw_line)`` to observe every appended record.

        Called after the record is flushed to the kernel, with the raw
        JSON text (no trailing newline) exactly as written — the hook
        the network shard server uses to ship its WAL to the router's
        replica byte-for-byte.  Subscriber exceptions propagate to the
        appender: shipping is *synchronous* durability, so a failed
        ship must fail the operation that produced the record.
        """
        self._subscribers.append(fn)

    def read_tail(self, start: int) -> list[str]:
        """Raw record lines from index ``start`` (0-based) to the end.

        Used for replica catch-up after a reconnect: the router says
        how many lines it already holds and the server re-ships the
        rest.  Safe to call on a live journal — every ``_write`` ends
        with a flush, so the file always contains whole lines up to
        ``self.lines``.
        """
        if start >= self.lines:
            return []
        self._fh.flush()
        # Split on "\n" alone, as the scan does: a record is one line
        # of the file, whatever other line breaks its text may hold.
        with self.path.open("r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        return lines[start:self.lines]

    def _write(self, text: str, obj: dict) -> None:
        self._fh.write(text + "\n")
        self._fh.flush()
        self.appended += 1
        self.lines += 1
        self._index(obj)
        self._unsynced += 1
        if self.fsync and self._unsynced >= self.fsync:
            self.sync()
        for fn in self._subscribers:
            fn(text)

    def sync(self) -> None:
        """Force the appended records onto stable storage."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._unsynced = 0

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay(path) -> tuple[list[SolveRequest], dict[str, SolveResponse]]:
    """Read a journal into recovery inputs.

    Returns ``(unanswered, recorded)``: the requests that were accepted
    but never answered (original submission order preserved via their
    journaled ``seq``, re-attached as ``_order``), and the recorded
    responses of answered ids, decoded verbatim.  A request answered
    *after* a duplicate-looking crash replay appears only once — the
    index keeps the latest state per id.
    """
    requests, responses = replay_full(path)
    unanswered = [
        request for rid, request in requests.items() if rid not in responses
    ]
    unanswered.sort(key=lambda r: r._order)
    return unanswered, responses


def replay_full(
    path,
) -> tuple[dict[str, SolveRequest], dict[str, SolveResponse]]:
    """Read a journal into *complete* id-indexed maps.

    Unlike :func:`replay` — which drops the request objects of answered
    ids because a recovering service only re-solves the unanswered —
    this keeps every request, answered or not (``_order`` re-attached).
    The cluster's :class:`~repro.cluster.recovery.RecoveryCoordinator`
    needs both sides: when a ring remap moves an *answered* id to a new
    shard it must rewrite the request **and** response records into the
    new shard's journal, or a second crash would re-solve work that was
    already answered once.
    """
    path = pathlib.Path(path)
    requests: dict[str, SolveRequest] = {}
    responses: dict[str, SolveResponse] = {}
    if not path.exists():
        return {}, {}
    for obj, _ in _scan(path):
        rid = obj["id"]
        if obj["type"] == "request":
            request = request_from_record(obj["request"])
            request.id = rid
            request._order = obj.get("seq", len(requests))
            requests[rid] = request
        elif obj["type"] == "response":
            responses[rid] = response_from_record(obj["response"])
    return requests, responses
