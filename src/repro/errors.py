"""Structured error taxonomy for the whole library.

Failure is routine, not exceptional, for constrained matrix problems:
iterative scaling stalls on matrices with zero-pattern/support defects,
masked transportation polytopes are empty despite balanced totals, and
worker pools die under real traffic.  Every failure the library can
classify is raised as a :class:`ReproError` subclass carrying a stable
machine-readable ``kind`` tag, so the solve service (and its JSONL wire
format) can report ``error.kind`` instead of a stringified traceback
and apply kind-specific policy — retry transient faults, fail fast on
deterministic ones.

Each subclass also inherits the closest builtin exception
(``ValueError``, ``RuntimeError``, ``TimeoutError``) so existing
``except ValueError`` call sites keep working unchanged.

==========================  ===================  =======================
Class                       ``kind``             Retryable?
==========================  ===================  =======================
InvalidProblemError         invalid-problem      no — deterministic
InfeasibleProblemError      infeasible           no — deterministic
NonConvergenceError         non-convergence      no — raise budget/eps
WorkerCrashError            worker-crash         yes — transient
DeadlineExceededError       deadline-exceeded    no — budget consumed
InvalidRequestError         invalid-request      no — fix the payload
CircuitOpenError            circuit-open         later — breaker cooloff
OverloadedError             overloaded           later — shed load first
DuplicateRequestError       duplicate-request    no — already accepted
==========================  ===================  =======================
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidProblemError",
    "InfeasibleProblemError",
    "NonConvergenceError",
    "WorkerCrashError",
    "DeadlineExceededError",
    "InvalidRequestError",
    "CircuitOpenError",
    "OverloadedError",
    "DuplicateRequestError",
    "error_kind",
    "error_class",
    "is_transient",
]


class ReproError(Exception):
    """Base of every classified library error.

    ``kind`` is the stable wire tag (``error.kind`` in JSONL responses);
    subclasses override it.  Unclassified exceptions map to
    ``"internal"`` via :func:`error_kind`.
    """

    kind: str = "internal"


class InvalidProblemError(ReproError, ValueError):
    """The problem (or a solver option) fails validation: bad shapes,
    non-finite data, non-positive weights, ``eps <= 0``, ...  The same
    input will always fail — never retried."""

    kind = "invalid-problem"


class InfeasibleProblemError(ReproError, ValueError):
    """The constraint polytope is empty: the zero pattern (or cell
    bounds) cannot route the required totals — e.g. a row with a
    positive total but every cell masked to zero.  Deterministic."""

    kind = "infeasible"


class NonConvergenceError(ReproError, RuntimeError):
    """The iteration budget ran out before the stopping rule was met.
    Only raised on request (``SolveRequest.strict``); solvers normally
    return a ``SolveResult`` with ``converged=False`` instead."""

    kind = "non-convergence"


class WorkerCrashError(ReproError, RuntimeError):
    """A dispatch's worker died: raised by injected faults
    (:class:`~repro.service.faults.FaultyKernel`) and by dead cluster
    shards (:class:`~repro.cluster.worker.ShardCrashedError`).
    Transient — the service retries these."""

    kind = "worker-crash"


class DeadlineExceededError(ReproError, TimeoutError):
    """The per-request deadline elapsed before the solve finished."""

    kind = "deadline-exceeded"


class InvalidRequestError(ReproError, ValueError):
    """A wire-level request could not be decoded (malformed JSON, bad
    problem payload).  Carries the JSONL line number when known."""

    kind = "invalid-request"


class CircuitOpenError(ReproError, RuntimeError):
    """The circuit breaker for this request's kind+shape group is open
    after repeated failures; the request was rejected without touching
    the worker pool.  Resubmit after the cooldown."""

    kind = "circuit-open"


class OverloadedError(ReproError, RuntimeError):
    """Admission control refused the request: the bounded queue (or the
    request kind's fair share of it) is full, or the service is
    draining for shutdown.  Deterministic *now* but not forever — back
    off and resubmit once the backlog clears."""

    kind = "overloaded"


class DuplicateRequestError(ReproError, ValueError):
    """A request with this ``request_id`` was already accepted into the
    write-ahead journal.  The original will be answered exactly once
    (or already was); resubmitting cannot produce a second answer."""

    kind = "duplicate-request"


def error_kind(exc: BaseException) -> str:
    """Stable wire tag for any exception (``"internal"`` when unknown)."""
    return exc.kind if isinstance(exc, ReproError) else "internal"


# kind tag -> class, for re-raising a classified error that crossed a
# process boundary as (kind, message) — the cluster's shard pipes do
# this so router-side callers see the same exception types an
# in-process SolveService would raise.
_KIND_CLASSES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        InvalidProblemError,
        InfeasibleProblemError,
        NonConvergenceError,
        WorkerCrashError,
        DeadlineExceededError,
        InvalidRequestError,
        CircuitOpenError,
        OverloadedError,
        DuplicateRequestError,
    )
}


def error_class(kind: str) -> type:
    """Exception class for a wire ``kind`` tag (base ``ReproError``
    for ``"internal"`` and anything unknown)."""
    return _KIND_CLASSES.get(kind, ReproError)


# Kinds worth a retry: worker crashes are transient by nature, and
# "internal" covers unclassified faults (e.g. corrupted intermediate
# state from a sick worker) where a clean re-run can succeed.
# Deterministic kinds (invalid/infeasible/non-convergence) and consumed
# budgets (deadline) are never retried.
_TRANSIENT_KINDS = frozenset({"worker-crash", "internal"})


def is_transient(exc: BaseException) -> bool:
    """Whether the service's retry policy should re-attempt this error."""
    return error_kind(exc) in _TRANSIENT_KINDS
