"""JSONL framing of service requests and responses at the public edge.

One JSON object per line.  A request line carries the problem payload
of :func:`repro.io.problem_to_jsonable` plus per-request options::

    {"id": "r1", "problem": {"kind": "fixed", "x0": [[...]], ...},
     "eps": 1e-4, "max_iterations": 5000, "warm_start": true,
     "batch": true, "engine": "dense", "deadline_s": 2.0, "retries": 1}

A response line echoes the id and reports the outcome; ``x``/``s``/``d``
are included unless suppressed (``include_matrix=False`` /
``serve --no-matrix``).  **Every** non-finite float — scalar
``residual``/``objective`` *and* matrix entries — is encoded as
``null`` so the stream stays strict JSON (``json.loads`` in strict
mode, no bare ``NaN``/``Infinity`` tokens; :func:`dump_response`
enforces this with ``allow_nan=False``).  Losslessness is preserved by
a ``nonfinite`` sidecar recording where the nulls came from::

    {"id": "r1", ..., "residual": null, "x": [[1.0, null], ...],
     "nonfinite": {"residual": "nan", "x": [[0, 1, "inf"]]}}

so :func:`response_from_jsonable` rebuilds the exact NaN/±inf values
(the decode-side inverse; round-trip is bit-lossless for every field
the wire carries).

Failures are structured, never stringified tracebacks::

    {"id": "r1", "status": "error", "kind": "fixed",
     "error": {"kind": "infeasible", "message": "..."}}

where ``error.kind`` is the stable taxonomy tag of :mod:`repro.errors`.
A line that cannot even be decoded into a request yields a
:class:`RequestError` from :func:`read_requests` instead of killing the
stream; :func:`error_line` turns it into an
``error.kind: "invalid-request"`` response carrying the line number.

This response codec is for clients only: it rounds ``elapsed`` and
drops the duals.  Internal hops — the write-ahead journal, replica
shipping and the router↔shard wire — carry the full-fidelity records
of :mod:`repro.service.journal` instead, and need no sidecar.  The
request codec (:func:`request_to_jsonable`) is shared by every hop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.result import SolveResult
from repro.errors import InvalidRequestError
from repro.io import problem_from_jsonable, problem_to_jsonable
from repro.service.request import SolveRequest, SolveResponse

__all__ = [
    "RequestError",
    "decode_request_line",
    "request_from_jsonable",
    "request_to_jsonable",
    "response_to_jsonable",
    "response_from_jsonable",
    "read_requests",
    "dump_response",
    "error_line",
]

# Wire tags for the three non-finite doubles JSON cannot carry.
_NONFINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


def _nonfinite_tag(value: float) -> str:
    if np.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _encode_scalar(value: float) -> tuple[float | None, str | None]:
    """One float as ``(wire value, nonfinite tag)``."""
    value = float(value)
    if np.isfinite(value):
        return value, None
    return None, _nonfinite_tag(value)


def _encode_array(arr) -> tuple[list, list | None]:
    """An array as ``(nested lists, nonfinite spots)``.

    Non-finite entries become ``null`` in the lists; ``spots`` records
    each as ``[i, tag]`` / ``[i, j, tag]`` so the decoder can restore
    the exact value.  ``spots`` is ``None`` when everything is finite
    (the overwhelmingly common case — one fast vectorised check)."""
    a = np.asarray(arr, dtype=np.float64)
    finite = np.isfinite(a)
    if finite.all():
        return a.tolist(), None
    data = a.tolist()
    spots = []
    for idx in np.argwhere(~finite):
        tag = _nonfinite_tag(float(a[tuple(idx)]))
        ref = data
        for i in idx[:-1]:
            ref = ref[int(i)]
        ref[int(idx[-1])] = None
        spots.append([*(int(i) for i in idx), tag])
    return data, spots


def _decode_array(data, spots=None) -> np.ndarray | None:
    """Inverse of :func:`_encode_array` (``None`` passes through)."""
    if data is None:
        return None
    if data and isinstance(data[0], list):
        filled = [
            [np.nan if v is None else v for v in row] for row in data
        ]
    else:
        filled = [np.nan if v is None else v for v in data]
    a = np.array(filled, dtype=np.float64)
    for *idx, tag in spots or ():
        a[tuple(idx)] = _NONFINITE[tag]
    return a


@dataclass
class RequestError:
    """A JSONL line that failed to decode into a :class:`SolveRequest`.

    Yielded by :func:`read_requests` in place of the request so one
    malformed line cannot abort the rest of the stream; carries enough
    context (line number, echoed id when the envelope was readable) for
    the client to correlate the error response."""

    lineno: int
    message: str
    id: str | None = None


def _coerce_id(rid) -> str | None:
    """Normalise a request id to ``str`` (or ``None``).

    A numeric id is coerced to its decimal string so the id the service
    echoes, journals and dedups against has one stable JSON type — an
    ``int`` id echoed back as an ``int`` would never correlate with the
    journal's string index on replay.  Any other non-string type is an
    :class:`~repro.errors.InvalidRequestError`."""
    if rid is None or isinstance(rid, str):
        return rid
    if isinstance(rid, (int, float)) and not isinstance(rid, bool):
        return str(rid)
    raise InvalidRequestError(
        f"request id must be a string, got {type(rid).__name__}"
    )


def request_from_jsonable(obj: dict) -> SolveRequest:
    """Decode one request object."""
    if not isinstance(obj, dict):
        raise InvalidRequestError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    if "problem" not in obj:
        raise InvalidRequestError("request is missing the 'problem' payload")
    return SolveRequest(
        problem=problem_from_jsonable(obj["problem"]),
        id=_coerce_id(obj.get("id")),
        eps=obj.get("eps"),
        max_iterations=obj.get("max_iterations"),
        criterion=obj.get("criterion"),
        warm_start=bool(obj.get("warm_start", True)),
        batchable=bool(obj.get("batch", True)),
        engine=obj.get("engine", "dense"),
        deadline_s=obj.get("deadline_s"),
        retries=obj.get("retries"),
        strict=bool(obj.get("strict", False)),
    )


def request_to_jsonable(request: SolveRequest) -> dict:
    """Encode a request (the inverse of :func:`request_from_jsonable`)."""
    obj: dict = {
        "id": request.id,
        "problem": problem_to_jsonable(request.problem),
        "warm_start": request.warm_start,
        "batch": request.batchable,
        "engine": request.engine,
    }
    for field in ("eps", "max_iterations", "criterion", "deadline_s",
                  "retries"):
        value = getattr(request, field)
        if value is not None:
            obj[field] = value
    if request.strict:
        obj["strict"] = True
    return obj


def response_to_jsonable(
    response: SolveResponse, include_matrix: bool = True
) -> dict:
    """Encode one response object."""
    if not response.ok:
        return {
            "id": response.id,
            "status": "error",
            "kind": response.kind,
            "retries": response.retries,
            "error": {
                "kind": response.error_kind or "internal",
                "message": response.error,
            },
        }
    result = response.result
    nonfinite: dict = {}
    residual, tag = _encode_scalar(result.residual)
    if tag:
        nonfinite["residual"] = tag
    objective, tag = _encode_scalar(result.objective)
    if tag:
        nonfinite["objective"] = tag
    obj = {
        "id": response.id,
        "status": "ok",
        "kind": response.kind,
        "algorithm": result.algorithm,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "inner_iterations": int(result.inner_iterations),
        "residual": residual,
        "objective": objective,
        "elapsed": round(response.elapsed, 6),
        "warm_started": response.warm_started,
        "cache_exact": response.cache_exact,
        "batched": response.batched,
        "retries": response.retries,
    }
    if include_matrix:
        # Matrix payloads go through the same non-finite -> null
        # encoding as the scalars: a non-converged solve full of NaN
        # must still emit strict JSON on the wire.
        for key, arr in (("x", result.x), ("s", result.s), ("d", result.d)):
            obj[key], spots = _encode_array(arr)
            if spots:
                nonfinite[key] = spots
    if nonfinite:
        obj["nonfinite"] = nonfinite
    return obj


def response_from_jsonable(obj: dict) -> SolveResponse:
    """Decode one response object (inverse of
    :func:`response_to_jsonable`).

    Every field the wire carries round-trips losslessly — non-finite
    matrix entries and scalars are restored from the ``nonfinite``
    sidecar.  Fields the wire never carries (``lam``/``mu`` duals,
    suppressed matrices) decode as ``None``."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"response must be a JSON object, got {type(obj).__name__}"
        )
    if obj.get("status") != "ok":
        err = obj.get("error") or {}
        return SolveResponse(
            id=obj.get("id"),
            error=err.get("message") or "error",
            error_kind=err.get("kind"),
            kind=obj.get("kind", ""),
            retries=obj.get("retries", 0),
        )
    nonfinite = obj.get("nonfinite") or {}

    def scalar(key: str) -> float:
        value = obj.get(key)
        if value is None:
            return _NONFINITE[nonfinite.get(key, "nan")]
        return float(value)

    result = SolveResult(
        x=_decode_array(obj.get("x"), nonfinite.get("x")),
        s=_decode_array(obj.get("s"), nonfinite.get("s")),
        d=_decode_array(obj.get("d"), nonfinite.get("d")),
        lam=None,
        mu=None,
        converged=bool(obj.get("converged", False)),
        iterations=int(obj.get("iterations", 0)),
        inner_iterations=int(obj.get("inner_iterations", 0)),
        residual=scalar("residual"),
        objective=scalar("objective"),
        elapsed=float(obj.get("elapsed", 0.0)),
        algorithm=obj.get("algorithm", ""),
    )
    return SolveResponse(
        id=obj.get("id"),
        result=result,
        kind=obj.get("kind", ""),
        elapsed=float(obj.get("elapsed", 0.0)),
        warm_started=bool(obj.get("warm_started", False)),
        cache_exact=bool(obj.get("cache_exact", False)),
        batched=bool(obj.get("batched", False)),
        retries=int(obj.get("retries", 0)),
    )


def decode_request_line(
    line: str, lineno: int = 0
) -> SolveRequest | RequestError | None:
    """Decode one JSONL frame into a request.

    Returns ``None`` for a blank line, a :class:`RequestError` for a
    malformed one (invalid JSON — nesting too deep to parse included —
    a non-object, a missing or undecodable problem payload).  This is
    the single framing decoder shared by the stdin JSONL session
    (:func:`read_requests`) and the TCP edge (:mod:`repro.edge`), so
    both wires accept and reject exactly the same frames."""
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack.
        return RequestError(lineno, f"line {lineno}: invalid JSON ({exc})")
    try:
        return request_from_jsonable(obj)
    except Exception as exc:  # noqa: BLE001 — classify, don't crash
        rid = obj.get("id") if isinstance(obj, dict) else None
        if not isinstance(rid, str):
            rid = (
                str(rid)
                if isinstance(rid, (int, float))
                and not isinstance(rid, bool)
                else None
            )
        return RequestError(
            lineno, f"line {lineno}: {type(exc).__name__}: {exc}", id=rid
        )


def read_requests(
    lines: Iterable[str],
) -> Iterator[SolveRequest | RequestError]:
    """Parse a JSONL stream (blank lines ignored) into requests.

    A malformed line yields a :class:`RequestError` in stream position
    instead of raising, so the session survives any input and every
    line gets exactly one response."""
    for lineno, line in enumerate(lines, start=1):
        decoded = decode_request_line(line, lineno)
        if decoded is not None:
            yield decoded


def dump_response(response: SolveResponse, include_matrix: bool = True) -> str:
    """One response as a compact, *strict* JSON line.

    ``allow_nan=False`` is the enforcement of the module contract: any
    code path that lets a bare ``NaN``/``Infinity`` reach the encoder
    fails loudly here instead of emitting a frame spec-compliant
    clients cannot parse."""
    return json.dumps(
        response_to_jsonable(response, include_matrix=include_matrix),
        separators=(",", ":"),
        allow_nan=False,
    )


def error_line(err: RequestError) -> str:
    """The structured error response for a malformed request line."""
    return json.dumps(
        {
            "id": err.id,
            "status": "error",
            "line": err.lineno,
            "error": {"kind": InvalidRequestError.kind, "message": err.message},
        },
        separators=(",", ":"),
        allow_nan=False,
    )
