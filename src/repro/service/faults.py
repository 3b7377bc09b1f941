"""Deterministic fault injection for the solve service.

A :class:`FaultyKernel` wraps any kernel (usually the service's shared
:class:`~repro.parallel.executor.ParallelKernel`) and, following a
seeded :class:`FaultPlan`, makes a configured fraction of fork/join
dispatches misbehave:

``raise``
    The dispatch raises :class:`~repro.errors.WorkerCrashError` before
    touching the pool — exercising the *service-level* retry policy.
``delay``
    The dispatch sleeps ``delay_s`` first — exercising deadlines.
``corrupt``
    The dispatch returns an all-NaN result — exercising detection (the
    next kernel call rejects non-finite inputs) and clean re-solve via
    service retries.

Everything is driven by one ``random.Random(seed)`` stream, so a given
plan injects an identical fault schedule on every run — chaos you can
put in a regression test.  The harness proves the headline guarantee:
with a seeded plan raising or corrupting in >=20% of dispatches, every
service response stays bit-identical to the fault-free serial solve
(see ``tests/test_fault_injection.py``, which also breaks the kernel's
pool itself to drive its rebuild and degradation ladder).

Crash points — :class:`CrashPlan` — complement the kernel-level chaos
with *process-death* chaos at the durability layer's three critical
windows (see :mod:`repro.service.journal`):

``kill-after-journal``
    Die right after a request is journaled, before it is solved — the
    request must be replayed on recovery.
``kill-before-response``
    Die after a solve completes but before its response is journaled —
    the work is lost and must be re-done, yet the answer must come out
    identical and single.
``kill-mid-drain``
    Die between requests of a graceful shutdown drain — the drained
    prefix is answered, the rest must survive as journaled pending.

A crash plan raises :class:`SimulatedCrash` (a ``BaseException``, so no
fault-isolating ``except Exception`` in the service can swallow it) at
the armed point; the test then abandons the service object exactly as
``SIGKILL`` would abandon the process — the journal file on disk is all
that survives — and asserts that ``SolveService.recover`` restores
exactly-once semantics (``tests/test_durability.py``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkerCrashError

__all__ = [
    "FaultPlan",
    "FaultyKernel",
    "CrashPlan",
    "SimulatedCrash",
    "CRASH_POINTS",
]

CRASH_POINTS = (
    "kill-after-journal",
    "kill-before-response",
    "kill-mid-drain",
)


class SimulatedCrash(BaseException):
    """Stand-in for ``SIGKILL``: unwinds through *every* ``except
    Exception`` fault-isolation layer, exactly as sudden process death
    would bypass them.  Only the chaos harness raises or catches it."""


@dataclass
class CrashPlan:
    """Deterministic process-death schedule for the durability layer.

    Fires :class:`SimulatedCrash` on the ``(after + 1)``-th time the
    service passes the configured crash ``point`` (see
    :data:`CRASH_POINTS`); fires at most once, so a recovered service
    carrying the same plan object is not re-killed.
    """

    point: str
    after: int = 0
    fired: bool = False
    hits: int = 0

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {self.point!r}; "
                f"expected one of {CRASH_POINTS}"
            )
        if self.after < 0:
            raise ValueError("after must be >= 0")

    def observe(self, point: str) -> None:
        """Called by the service at each crash point; raises when armed."""
        if self.fired or point != self.point:
            return
        self.hits += 1
        if self.hits > self.after:
            self.fired = True
            raise SimulatedCrash(
                f"injected process death at {self.point} "
                f"(occurrence {self.hits})"
            )


@dataclass
class FaultPlan:
    """Seeded schedule of which dispatches misbehave and how.

    Each fraction is the independent probability (per dispatch, drawn
    from the seeded stream) of that fault firing; at most one fault
    fires per dispatch, tested in the order raise, delay, corrupt.
    ``max_faults`` caps the *total* injected faults so a bounded-retry
    pipeline is guaranteed to eventually see a clean dispatch (``None``
    = unlimited).
    """

    seed: int = 0
    raise_fraction: float = 0.0
    delay_fraction: float = 0.0
    delay_s: float = 0.05
    corrupt_fraction: float = 0.0
    max_faults: int | None = None

    def __post_init__(self) -> None:
        for name in ("raise_fraction", "delay_fraction", "corrupt_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be >= 0")


class FaultyKernel:
    """Chaos wrapper around a kernel: same call signature, scheduled
    misbehavior, full attribute pass-through.

    The wrapper is transparent to everything that isn't a dispatch:
    counters (``worker_crashes``, ``pool_rebuilds``, ...), ``close()``
    and ``healthy()`` delegate to the wrapped kernel, so a
    ``SolveService(kernel=FaultyKernel(...))`` behaves exactly like the
    clean service apart from the injected faults.

    ``injected`` counts what actually fired, per fault mode.
    """

    def __init__(self, kernel, plan: FaultPlan) -> None:
        self.kernel = kernel
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.injected: dict[str, int] = {"raise": 0, "delay": 0, "corrupt": 0}

    @property
    def faults_injected(self) -> int:
        return sum(self.injected.values())

    def _draw(self) -> str | None:
        """Which fault (if any) fires on this dispatch."""
        plan = self.plan
        if (
            plan.max_faults is not None
            and self.faults_injected >= plan.max_faults
        ):
            return None
        roll = self._rng.random()
        threshold = 0.0
        for mode, fraction in (
            ("raise", plan.raise_fraction),
            ("delay", plan.delay_fraction),
            ("corrupt", plan.corrupt_fraction),
        ):
            threshold += fraction
            if roll < threshold:
                return mode
        return None

    def __call__(self, breakpoints, slopes, target, a=None, c=None,
                 timeout=None, workspace=None):
        mode = self._draw()
        if mode == "raise":
            self.injected["raise"] += 1
            raise WorkerCrashError(
                f"injected worker crash (fault #{self.faults_injected})"
            )
        if mode == "delay":
            self.injected["delay"] += 1
            time.sleep(self.plan.delay_s)
        # The workspace rides through untouched: a "corrupt" dispatch
        # poisons the *result*, so the next sweep's NaN breakpoints fail
        # the workspace's stable-order check, force a resort, and raise
        # exactly the error a cold kernel would.
        result = self.kernel(
            breakpoints, slopes, target, a=a, c=c, timeout=timeout,
            workspace=workspace,
        )
        if mode == "corrupt":
            # The whole block of duals goes NaN, so the *next* dispatch
            # is guaranteed to see non-finite inputs and raise (a partial
            # corruption can wash out of the dual iteration silently).
            self.injected["corrupt"] += 1
            result = np.full_like(np.asarray(result, dtype=np.float64), np.nan)
        return result

    def __getattr__(self, name):
        # Transparent pass-through for counters, close(), healthy(), ...
        return getattr(self.kernel, name)
