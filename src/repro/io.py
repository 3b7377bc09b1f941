"""Problem and table serialization.

Practitioners exchange constrained-matrix inputs as labeled CSV tables
(the classic I/O-table layout: first row = column labels, first column
= row labels, optional ``total`` margins) and archive solved problems
as NPZ bundles.  This module provides both, for every problem class in
the library, plus the JSON problem codec of the solve service and the
raw-byte array codec its internal records use.
"""

from __future__ import annotations

import base64
import binascii
import csv
import math
import pathlib

import numpy as np

from repro.core.problems import (
    ElasticProblem,
    FixedTotalsProblem,
    GeneralProblem,
    SAMProblem,
)
from repro.errors import InvalidRequestError

__all__ = [
    "read_table_csv",
    "write_table_csv",
    "save_problem",
    "load_problem",
    "problem_to_jsonable",
    "problem_from_jsonable",
    "canonical_array",
    "pack_array",
    "unpack_array",
]

_KINDS = {
    "fixed": FixedTotalsProblem,
    "elastic": ElasticProblem,
    "sam": SAMProblem,
    "general": GeneralProblem,
}


def read_table_csv(path) -> tuple[np.ndarray, list[str], list[str]]:
    """Read a labeled table: header row of column labels, label-leading
    data rows.  Returns ``(matrix, row_labels, col_labels)``."""
    path = pathlib.Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one data row")
    col_labels = [c.strip() for c in rows[0][1:]]
    row_labels = []
    data = []
    for row in rows[1:]:
        row_labels.append(row[0].strip())
        values = row[1:]
        if len(values) != len(col_labels):
            raise ValueError(
                f"{path}: row {row[0]!r} has {len(values)} cells, "
                f"expected {len(col_labels)}"
            )
        data.append([float(v) for v in values])
    return np.array(data, dtype=np.float64), row_labels, col_labels


def write_table_csv(
    path,
    matrix: np.ndarray,
    row_labels: list[str] | None = None,
    col_labels: list[str] | None = None,
    fmt: str = "%.6g",
) -> None:
    """Write a labeled table in the same layout ``read_table_csv`` reads."""
    matrix = np.asarray(matrix)
    m, n = matrix.shape
    row_labels = row_labels or [f"r{i}" for i in range(m)]
    col_labels = col_labels or [f"c{j}" for j in range(n)]
    if len(row_labels) != m or len(col_labels) != n:
        raise ValueError("label counts must match the matrix shape")
    path = pathlib.Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(col_labels))
        for label, row in zip(row_labels, matrix):
            writer.writerow([label] + [fmt % v for v in row])


def save_problem(path, problem) -> None:
    """Archive a problem instance as an NPZ bundle."""
    kind = next(
        (k for k, cls in _KINDS.items() if type(problem) is cls), None
    )
    if kind is None:
        raise TypeError(f"cannot serialize {type(problem).__name__}")
    payload: dict[str, np.ndarray] = {
        "kind": np.array(kind),
        "name": np.array(problem.name),
        "x0": problem.x0,
        "mask": problem.mask,
    }
    if kind == "general":
        payload["general_kind"] = np.array(problem.kind)
        payload["G"] = problem.G
        payload["s0"] = problem.s0
        if problem.d0 is not None:
            payload["d0"] = problem.d0
        if problem.A is not None:
            payload["A"] = problem.A
        if problem.B is not None:
            payload["B"] = problem.B
    else:
        payload["gamma"] = problem.gamma
        payload["s0"] = problem.s0
        if kind in ("fixed", "elastic"):
            payload["d0"] = problem.d0
        if kind in ("elastic", "sam"):
            payload["alpha"] = problem.alpha
        if kind == "elastic":
            payload["beta"] = problem.beta
    np.savez_compressed(path, **payload)


def load_problem(path):
    """Restore a problem saved by :func:`save_problem`."""
    with np.load(path, allow_pickle=False) as bundle:
        kind = str(bundle["kind"])
        name = str(bundle["name"])
        if kind == "fixed":
            return FixedTotalsProblem(
                x0=bundle["x0"], gamma=bundle["gamma"],
                s0=bundle["s0"], d0=bundle["d0"],
                mask=bundle["mask"], name=name,
            )
        if kind == "elastic":
            return ElasticProblem(
                x0=bundle["x0"], gamma=bundle["gamma"],
                s0=bundle["s0"], d0=bundle["d0"],
                alpha=bundle["alpha"], beta=bundle["beta"],
                mask=bundle["mask"], name=name,
            )
        if kind == "sam":
            return SAMProblem(
                x0=bundle["x0"], gamma=bundle["gamma"],
                s0=bundle["s0"], alpha=bundle["alpha"],
                mask=bundle["mask"], name=name,
            )
        if kind == "general":
            files = set(bundle.files)
            return GeneralProblem(
                kind=str(bundle["general_kind"]),
                x0=bundle["x0"], G=bundle["G"], s0=bundle["s0"],
                d0=bundle["d0"] if "d0" in files else None,
                A=bundle["A"] if "A" in files else None,
                B=bundle["B"] if "B" in files else None,
                mask=bundle["mask"], name=name,
            )
    raise ValueError(f"unknown problem kind {kind!r} in {path}")


# ---------------------------------------------------------------------------
# JSON wire format (the solve service's request/response payloads)
# ---------------------------------------------------------------------------

def problem_to_jsonable(problem, encode_array=np.ndarray.tolist) -> dict:
    """Encode a core problem as a JSON-serializable dict.

    The layout mirrors the NPZ bundle of :func:`save_problem`, each
    array written by ``encode_array``: nested lists by default (the
    public wire), :func:`pack_array` objects in the service's internal
    records.  An all-``True`` mask is omitted.
    """
    kind = next((k for k, cls in _KINDS.items() if type(problem) is cls), None)
    if kind is None:
        raise TypeError(f"cannot encode {type(problem).__name__}")

    def maybe(arr):
        return None if arr is None else encode_array(arr)

    obj: dict = {
        "kind": kind,
        "name": problem.name,
        "x0": encode_array(problem.x0),
        "s0": encode_array(problem.s0),
    }
    if not problem.mask.all():
        obj["mask"] = encode_array(problem.mask)
    if kind == "general":
        obj["general_kind"] = problem.kind
        obj["G"] = encode_array(problem.G)
        obj["d0"] = maybe(problem.d0)
        obj["A"] = maybe(problem.A)
        obj["B"] = maybe(problem.B)
    else:
        obj["gamma"] = encode_array(problem.gamma)
        if kind in ("fixed", "elastic"):
            obj["d0"] = encode_array(problem.d0)
        if kind in ("elastic", "sam"):
            obj["alpha"] = encode_array(problem.alpha)
        if kind == "elastic":
            obj["beta"] = encode_array(problem.beta)
    return obj


def problem_from_jsonable(obj: dict, decode_array=np.asarray):
    """Decode a dict produced by :func:`problem_to_jsonable`.

    ``decode_array(value, dtype)`` builds each array: ``np.asarray`` of
    nested lists by default, :func:`unpack_array` for internal records.
    """
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")

    def maybe(key, dtype=np.float64):
        return None if obj.get(key) is None else decode_array(obj[key], dtype)

    common = {
        "x0": decode_array(obj["x0"], np.float64),
        "s0": decode_array(obj["s0"], np.float64),
        "mask": maybe("mask", bool),
        "name": obj.get("name", kind),
    }
    if kind == "general":
        return GeneralProblem(
            kind=obj["general_kind"], G=decode_array(obj["G"], np.float64),
            d0=maybe("d0"), A=maybe("A"), B=maybe("B"), **common,
        )
    gamma = decode_array(obj["gamma"], np.float64)
    if kind == "fixed":
        return FixedTotalsProblem(
            gamma=gamma, d0=decode_array(obj["d0"], np.float64), **common
        )
    if kind == "elastic":
        return ElasticProblem(
            gamma=gamma, d0=decode_array(obj["d0"], np.float64),
            alpha=decode_array(obj["alpha"], np.float64),
            beta=decode_array(obj["beta"], np.float64), **common,
        )
    return SAMProblem(
        gamma=gamma, alpha=decode_array(obj["alpha"], np.float64), **common
    )


# ---------------------------------------------------------------------------
# Raw-byte array codec (the internal records: journal, replica, shard wire)
# ---------------------------------------------------------------------------

# Every array a record carries: float64 or bool, at most a matrix.
_PACKED_TAGS = {np.dtype(np.float64): "<f8", np.dtype(bool): "|b1"}
_PACKED_KEYS = {"dtype", "shape", "b64"}
_MAX_NDIM = 2


def canonical_array(a) -> np.ndarray:
    """``a`` as the C-ordered little-endian ``<f8`` (or ``|b1``) array
    whose bytes a record carries: equal content gives equal bytes
    whatever the layout (transposed, Fortran-ordered, strided) of ``a``.
    No copy when ``a`` already is one."""
    a = np.asarray(a)
    return a.astype("|b1" if a.dtype == bool else "<f8", order="C", copy=False)


def pack_array(a) -> dict:
    """``a`` as ``{"dtype", "shape", "b64"}``: its C-order bytes,
    base64-encoded.  The inverse is :func:`unpack_array`; every bit of
    every value (a ``NaN``'s sign and payload included) survives."""
    a = canonical_array(a)
    return {
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "b64": base64.b64encode(a).decode("ascii"),
    }


def unpack_array(value, dtype) -> np.ndarray:
    """An owned, writable ``dtype`` array from a :func:`pack_array`
    object, or from the nested list or number records held before
    arrays were packed.

    The packed object is checked before anything is built — a known
    dtype equal to ``dtype``, a shape of at most two non-negative ints,
    strict base64 of exactly ``prod(shape) * itemsize`` bytes, and only
    ``0``/``1`` bytes in a bool array — and any failure raises
    :class:`~repro.errors.InvalidRequestError`.
    """
    want = np.dtype(dtype)
    if not isinstance(value, dict):
        try:
            return np.array(value, dtype=want)
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError(f"bad array payload: {exc}") from exc
    tag = _PACKED_TAGS[want]
    spec, shape, b64 = value.get("dtype"), value.get("shape"), value.get("b64")
    if set(value) != _PACKED_KEYS or spec != tag:
        raise InvalidRequestError(
            f"packed array must be {{dtype, shape, b64}} with dtype {tag!r}, "
            f"got keys {sorted(value)} and dtype {spec!r}"
        )
    if not (
        isinstance(shape, list)
        and len(shape) <= _MAX_NDIM
        and all(type(k) is int and k >= 0 for k in shape)
    ):
        raise InvalidRequestError(
            f"packed array shape must be at most {_MAX_NDIM} non-negative "
            f"ints, got {shape!r}"
        )
    if not isinstance(b64, str):
        raise InvalidRequestError("packed array b64 must be a string")
    try:
        raw = base64.b64decode(b64, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise InvalidRequestError(f"packed array b64 is invalid: {exc}") from exc
    if len(raw) != math.prod(shape) * want.itemsize:
        raise InvalidRequestError(
            f"packed array holds {len(raw)} bytes, shape {shape} of "
            f"{spec} needs {math.prod(shape) * want.itemsize}"
        )
    if spec == "|b1" and raw.translate(None, b"\x00\x01"):
        raise InvalidRequestError("packed bool array holds bytes other than 0 and 1")
    return np.frombuffer(raw, dtype=spec).reshape(shape).astype(want)
