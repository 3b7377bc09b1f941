"""Worker-pool kernel for the equilibration phases.

``ParallelKernel`` is a drop-in replacement for
:func:`repro.equilibration.exact.solve_piecewise_linear`: the SEA
solvers accept it through their ``kernel`` argument and never know how
the independent subproblems were scheduled — mirroring the paper's
Parallel FORTRAN task allocation (Figure 2), where each row/column
equilibration is dispatched to a distinct processor and the serial
convergence check runs between the fork/join phases.

Backends
--------
``serial``
    Loop over the blocks in-process.  Deterministic baseline; also the
    honest way to *measure* 1-worker time for speedup ratios.
``thread``
    ``concurrent.futures.ThreadPoolExecutor``.  NumPy's sort/prefix
    kernels and the compiled backend's calls release the GIL for most
    of their runtime, so blocks overlap on a multicore host.

Each block sweeps on its own row-block workspace, which the caller's
workspace owns (``SweepWorkspace.blocks``): the blocks keep their sort
permutations across sweeps and die with the caller's workspace pair.

Fault tolerance
---------------
A broken pool must not take the kernel down for the life of the
service.  When a fork/join phase hits one (``BrokenExecutor``), the
kernel discards the pool, rebuilds it, and re-dispatches the phase —
bounded retries with exponential backoff.  When rebuilds keep failing
it *degrades* down the backend ladder ``thread -> serial`` so a
dispatch always completes; the serial rung cannot crash.  Every backend
computes bit-identical results (asserted in the tests), so degradation
trades throughput, never correctness.  ``pool_rebuilds``,
``worker_crashes`` and ``degraded_dispatches`` count what happened and
:meth:`ParallelKernel.healthy` probes the live pool.

Whether two threads beat one depends on the host and the instance; the
reproduction of the paper's Tables 6/9 uses the deterministic
:mod:`repro.parallel.costmodel`, and EXPERIMENTS.md records measured
1- and 2-thread times next to it.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Executor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

import numpy as np

from repro.equilibration.exact import solve_piecewise_linear
from repro.errors import DeadlineExceededError, WorkerCrashError
from repro.parallel.partition import partition_blocks

__all__ = ["ParallelKernel"]

# Degradation ladder per configured backend: every rung is bit-identical,
# and the final rung (serial, in-process) cannot break.
_LADDERS = {
    "thread": ("thread", "serial"),
    "serial": ("serial",),
}

# Patchable pool constructors (tests substitute broken factories here to
# exercise the recovery paths without real worker carnage).
_POOL_TYPES: dict[str, type[Executor]] = {
    "thread": ThreadPoolExecutor,
}


def _solve_block(task):
    """Solve one row block on its workspace (``None``: the cold kernel)."""
    breakpoints, slopes, target, a, c, workspace = task
    return solve_piecewise_linear(
        breakpoints, slopes, target, a=a, c=c, workspace=workspace
    )


def _probe() -> int:
    """No-op task for :meth:`ParallelKernel.healthy` round-trips."""
    return 42


class ParallelKernel:
    """Row-partitioned piecewise-linear kernel.

    Parameters
    ----------
    workers:
        Number of processors to emulate (``p`` in the paper, ``p <= n``).
    backend:
        ``'serial'`` or ``'thread'``.
    max_retries:
        Pool rebuild + re-dispatch attempts per ladder rung after a
        worker crash, before degrading to the next rung.
    retry_backoff_s:
        Initial sleep before a rebuilt pool is retried (doubles per
        consecutive crash).

    The kernel is a *long-lived* resource: the underlying pool is
    created lazily on first parallel dispatch and then reused across as
    many solves as you like, so a thread pool starts its workers once
    per kernel, not once per solve.  ``close()`` releases the pool
    (cancelling any queued work); the kernel stays usable afterwards
    (the next dispatch transparently builds a fresh pool), which lets
    services keep one kernel for their whole lifetime and still reclaim
    workers during quiet periods.

    Use as a context manager (or call :meth:`close`) to release pool
    resources::

        with ParallelKernel(workers=4, backend='thread') as kernel:
            result = solve_fixed(problem, kernel=kernel)
    """

    def __init__(
        self,
        workers: int,
        backend: str = "serial",
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in _LADDERS:
            raise ValueError(f"unknown backend {backend!r}")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.workers = workers
        self.backend = backend
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self._ladder = _LADDERS[backend]
        self._rung = 0
        self._pool: Executor | None = None
        self.dispatches = 0  # fork/join phases executed (diagnostics)
        self.pool_rebuilds = 0  # broken pools replaced by fresh ones
        self.worker_crashes = 0  # BrokenExecutor faults observed
        self.degraded_dispatches = 0  # dispatches run below the configured backend

    # -- pool lifecycle -----------------------------------------------------

    @property
    def effective_backend(self) -> str:
        """The ladder rung dispatches currently run on (== ``backend``
        until crashes force a degradation)."""
        return self._ladder[self._rung]

    def _ensure_pool(self) -> Executor | None:
        """Create the worker pool on demand (and after a ``close()``)."""
        if self._pool is None:
            factory = _POOL_TYPES.get(self.effective_backend)
            if factory is not None:
                self._pool = factory(max_workers=self.workers)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop the pool without waiting (it is broken or abandoned)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def healthy(self) -> bool:
        """Round-trip a probe task through the live pool.

        ``True`` for the serial rung (nothing to break) and for a pool
        that answers within 5 seconds; ``False`` for a broken or hung
        pool.  Never raises.
        """
        if self.effective_backend == "serial":
            return True
        try:
            pool = self._ensure_pool()
            return pool.submit(_probe).result(timeout=5.0) == 42
        except Exception:
            return False

    def reset(self) -> None:
        """Forgive past crashes: climb back to the configured backend."""
        if self._rung != 0:
            self._discard_pool()
            self._rung = 0

    # -- dispatch -----------------------------------------------------------

    def __call__(
        self, breakpoints, slopes, target, a=None, c=None, timeout=None,
        workspace=None,
    ) -> np.ndarray:
        """One fork/join phase over the row blocks.

        ``timeout`` (seconds) bounds the whole phase on the pooled
        backends; a phase that overruns raises
        :class:`~repro.errors.DeadlineExceededError` and abandons its
        pool so stragglers cannot occupy fresh dispatches.  The output
        array is assembled only after *every* block solved, so a partial
        failure can never leak a half-written result.

        ``workspace`` is the caller's
        :class:`~repro.equilibration.workspace.SweepWorkspace`.  A
        single-block phase sweeps on it; a multi-block phase sweeps each
        block on one of its row blocks
        (:meth:`~repro.equilibration.workspace.SweepWorkspace.blocks`),
        whose counters add to the caller's.  Without a workspace the
        blocks run the cold kernel.  A flat sparse sweep also runs as
        one in-process block: a row partition would split cells, not
        rows.
        """
        blocks = partition_blocks(breakpoints.shape[0], self.workers)
        self.dispatches += 1
        if breakpoints.ndim == 1 or len(blocks) < 2:
            return solve_piecewise_linear(
                breakpoints, slopes, target, a=a, c=c, workspace=workspace
            )
        owned = (
            [None] * len(blocks) if workspace is None
            else workspace.blocks(blocks)
        )
        tasks = [
            (
                breakpoints[lo:hi],
                slopes[lo:hi],
                target[lo:hi],
                None if a is None else a[lo:hi],
                None if c is None else c[lo:hi],
                block,
            )
            for (lo, hi), block in zip(blocks, owned)
        ]
        try:
            return np.concatenate(self._run_tasks(tasks, timeout))
        except BaseException:
            # A failed phase can leave block tasks running (a timed-out
            # one abandons them; a block that raised does not wait for
            # its siblings), so the next phase gets fresh blocks.
            if workspace is not None:
                workspace.drop_blocks()
            raise

    def _run_tasks(self, tasks, timeout):
        """Run the block tasks with crash recovery and degradation.

        Ordinary task exceptions (e.g. an infeasible subproblem)
        propagate unchanged — they are deterministic and would recur on
        any backend.  Only *pool* failures are retried/degraded.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        attempts = 0
        delay = self.retry_backoff_s
        while True:
            if self.effective_backend == "serial":
                if self.effective_backend != self.backend:
                    self.degraded_dispatches += 1
                return [_solve_block(task) for task in tasks]
            futures = []
            try:
                # submit() itself raises BrokenExecutor on a pool whose
                # workers died since the last dispatch, so it lives
                # inside the recovery block too.
                pool = self._ensure_pool()
                futures = [pool.submit(_solve_block, task) for task in tasks]
                results = []
                for future in futures:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise FuturesTimeoutError()
                    results.append(future.result(timeout=remaining))
                if self.effective_backend != self.backend:
                    self.degraded_dispatches += 1
                return results
            except FuturesTimeoutError:
                # Running pool tasks cannot be interrupted; abandon the
                # pool so the stragglers die with it instead of eating
                # the next dispatch's workers.
                self._discard_pool()
                raise DeadlineExceededError(
                    f"kernel dispatch exceeded its {timeout:.3f}s budget "
                    f"on the {self.effective_backend!r} backend"
                ) from None
            except BrokenExecutor as exc:
                self.worker_crashes += 1
                self._discard_pool()
                attempts += 1
                if attempts > self.max_retries:
                    if self._rung + 1 < len(self._ladder):
                        # Degrade one rung and start its retry budget
                        # afresh; the ladder ends at serial, which
                        # cannot break, so the dispatch always lands.
                        self._rung += 1
                        attempts = 0
                        delay = self.retry_backoff_s
                        continue
                    raise WorkerCrashError(
                        f"worker pool kept breaking after {self.max_retries} "
                        f"rebuilds on every backend down from "
                        f"{self.backend!r}: {exc}"
                    ) from exc
                self.pool_rebuilds += 1
                time.sleep(delay)
                delay *= 2.0

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelKernel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
