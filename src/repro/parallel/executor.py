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

A phase fails only when one of its blocks fails or it overruns its
``timeout``.  A running block cannot be interrupted, so a failed pooled
phase abandons its pool without waiting: the stragglers finish on the
old workers, and the next dispatch starts on fresh ones.  Retrying a
failed request is the service's policy (:mod:`repro.errors`), not the
kernel's.

Whether two threads beat one depends on the host and the instance; the
reproduction of the paper's Tables 6/9 uses the deterministic
:mod:`repro.parallel.costmodel`, and EXPERIMENTS.md records measured
1- and 2-thread times next to it.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

import numpy as np

from repro.equilibration.exact import solve_piecewise_linear
from repro.errors import DeadlineExceededError
from repro.parallel.partition import partition_blocks

__all__ = ["ParallelKernel"]


def _solve_block(task):
    """Solve one row block on its workspace (``None``: the cold kernel)."""
    breakpoints, slopes, target, a, c, workspace = task
    return solve_piecewise_linear(
        breakpoints, slopes, target, a=a, c=c, workspace=workspace
    )


class ParallelKernel:
    """Row-partitioned piecewise-linear kernel.

    Parameters
    ----------
    workers:
        Number of processors to emulate (``p`` in the paper, ``p <= n``).
    backend:
        ``'serial'`` or ``'thread'``.

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

    def __init__(self, workers: int, backend: str = "serial") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in ("serial", "thread"):
            raise ValueError(f"unknown backend {backend!r}")
        self.workers = workers
        self.backend = backend
        self._pool: ThreadPoolExecutor | None = None
        self.dispatches = 0  # fork/join phases executed (diagnostics)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """Create the thread pool on demand (and after a ``close()``)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    # -- dispatch -----------------------------------------------------------

    def __call__(
        self, breakpoints, slopes, target, a=None, c=None, timeout=None,
        workspace=None,
    ) -> np.ndarray:
        """One fork/join phase over the row blocks.

        ``timeout`` (seconds) bounds the whole phase on the ``thread``
        backend; a phase that overruns raises
        :class:`~repro.errors.DeadlineExceededError`.  A failed pooled
        phase, timed out or raised, abandons its pool so stragglers
        cannot occupy fresh dispatches.  The output array is assembled
        only after *every* block solved, so a partial failure can never
        leak a half-written result.

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
        """Run the block tasks; a block's exception fails the phase."""
        if self.backend == "serial":
            return [_solve_block(task) for task in tasks]
        deadline = None if timeout is None else time.monotonic() + timeout
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(_solve_block, task) for task in tasks]
            results = []
            for future in futures:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise FuturesTimeoutError()
                results.append(future.result(timeout=remaining))
            return results
        except BaseException as exc:
            # Running blocks cannot be interrupted: abandon the pool so
            # the stragglers die with it instead of eating the next
            # dispatch's workers.
            self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
            if isinstance(exc, FuturesTimeoutError):
                raise DeadlineExceededError(
                    f"kernel dispatch exceeded its {timeout:.3f}s budget "
                    f"on the {self.backend!r} backend"
                ) from None
            raise

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelKernel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
