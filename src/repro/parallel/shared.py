"""Shared-memory process backend.

The plain ``process`` backend of :class:`repro.parallel.executor.
ParallelKernel` pickles each block's arrays on every dispatch — cheap
for long rows, wasteful for many short sweeps.  ``SharedMemoryKernel``
instead maps the breakpoint/slope/target buffers into
``multiprocessing.shared_memory`` blocks, so workers attach and slice
without copying the payload (only the small metadata travels).  This is
the Python analog of the paper's shared-memory 3090 architecture, where
every processor addressed the same arrays.

Segment lifecycle
-----------------
Segments are *persistent*: one per argument role (breakpoints, slopes,
target, ``a``, ``c``), created on first use, grown when a call needs
more capacity, and rewritten in place on every dispatch.  A sweep loop
therefore maps its shared memory exactly once instead of five
create/unlink round-trips per kernel call, and a worker that raises
mid-attach can no longer leak a half-registered segment — every segment
is owned and unlinked by :meth:`close` (also invoked by the context
manager and the finalizer) via try/finally, on success and error paths
alike.  Workers cache their attachments by segment name for the same
reason, which also keeps their per-block sweep workspaces warm: the
sort permutation cached for block ``i`` survives from one sweep to the
next exactly as in ``ParallelKernel``'s process backend.

Crash-degradation parity with ``ParallelKernel``
------------------------------------------------
``ParallelKernel`` retries broken pools and degrades down its
``process -> thread -> serial`` ladder; a shared-memory kernel cannot —
its whole point is the process-shared mapping, which neither threads
nor in-process serial execution exercise, and a crashed worker may die
holding an attachment, leaving segment contents suspect.  A broken pool
here therefore raises :class:`~repro.errors.WorkerCrashError` (same
taxonomy tag the service retries/breakers key on) instead of degrading;
callers that need rung-by-rung degradation should fall back to
``ParallelKernel``, which is bit-identical on every backend.

Usable exactly like ``ParallelKernel``::

    with SharedMemoryKernel(workers=4) as kernel:
        result = solve_fixed(problem, kernel=kernel)
"""

from __future__ import annotations

import itertools
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.equilibration.exact import solve_piecewise_linear
from repro.errors import WorkerCrashError
from repro.parallel.partition import partition_blocks

__all__ = ["SharedMemoryKernel"]

_SHM_TOKENS = itertools.count()

# Worker-side attachment cache: segment name -> SharedMemory handle.
# Keeping handles open across calls avoids a map/unmap per dispatch and
# keeps views into reused segments valid.  Bounded: stale names (from a
# parent that grew a segment) are evicted oldest-first.
_ATTACHMENTS: dict[str, shared_memory.SharedMemory] = {}
_ATTACHMENTS_MAX = 16


def _attach_cached(name: str, shape: tuple[int, ...]) -> np.ndarray:
    shm = _ATTACHMENTS.pop(name, None)
    if shm is None:
        if len(_ATTACHMENTS) >= _ATTACHMENTS_MAX:
            _ATTACHMENTS.pop(next(iter(_ATTACHMENTS))).close()
        shm = shared_memory.SharedMemory(name=name)
    _ATTACHMENTS[name] = shm  # reinsert = most recently used
    return np.ndarray(shape, dtype=np.float64, buffer=shm.buf)


def _solve_shared_block(args):
    (token, idx, b_name, sl_name, t_name, a_name, c_name, shape, m,
     lo, hi) = args
    B = _attach_cached(b_name, shape)
    SL = _attach_cached(sl_name, shape)
    target = _attach_cached(t_name, (m,))
    a = None if a_name is None else _attach_cached(a_name, (m,))
    c = None if c_name is None else _attach_cached(c_name, (m,))
    # Reuse ParallelKernel's per-block workspace machinery: same module-
    # global cache, same counter deltas back to the parent.  The slopes
    # view changes identity every call but not content, so the
    # workspace's content-equality bind keeps the permutation — but it
    # must own its copy of the slopes (a view into a segment the parent
    # may grow/unlink later is not safe to retain), which bind() does
    # via ``np.asarray`` only for non-contiguous inputs; slice views are
    # contiguous here, so hand bind() an owned copy explicitly.
    from repro.parallel.executor import _solve_block

    return _solve_block((
        token, idx, B[lo:hi], np.array(SL[lo:hi]), target[lo:hi],
        None if a is None else a[lo:hi],
        None if c is None else c[lo:hi],
    ))


class SharedMemoryKernel:
    """Zero-copy process-pool kernel over persistent shared segments."""

    # Same capability flag as ParallelKernel: tells the service this
    # kernel understands the ``workspace=`` kwarg.
    accepts_workspace = True

    def __init__(self, workers: int, use_workspaces: bool = True) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.use_workspaces = use_workspaces
        self._ws_token = (
            f"shm-{next(_SHM_TOKENS)}" if use_workspaces else None
        )
        self._pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
        # role -> (SharedMemory, capacity_bytes); see "Segment lifecycle".
        self._segments: dict[str, tuple[shared_memory.SharedMemory, int]] = {}
        self.dispatches = 0
        self.segment_creates = 0  # segments allocated (first use or growth)
        self.segment_reuses = 0  # writes into an already-mapped segment
        self.sort_sweeps = 0
        self.sort_rows_reused = 0
        self.sort_rows_resorted = 0
        self.sort_full_resorts = 0
        self.backend_solves: dict[str, int] = {}
        # Belt and braces: unlink segments even if close() is never
        # called explicitly (e.g. a kernel dropped without the context
        # manager).
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )

    @property
    def sort_reuse_rate(self) -> float:
        total = self.sort_rows_reused + self.sort_rows_resorted
        return self.sort_rows_reused / total if total else 0.0

    def _share(self, role: str, arr: np.ndarray) -> str:
        """Write ``arr`` into the persistent segment for ``role``.

        Same-shape sweeps hit the cached segment (one memcpy, no mmap);
        a larger array retires the old segment — close + unlink inside
        try/finally so an allocation failure cannot leak it — and
        allocates fresh capacity.
        """
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        entry = self._segments.get(role)
        if entry is not None and entry[1] >= arr.nbytes:
            shm = entry[0]
            self.segment_reuses += 1
        else:
            if entry is not None:
                old = entry[0]
                self._segments.pop(role, None)
                try:
                    old.close()
                finally:
                    old.unlink()
            shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
            self._segments[role] = (shm, arr.nbytes)
            self.segment_creates += 1
        np.ndarray(arr.shape, dtype=np.float64, buffer=shm.buf)[...] = arr
        return shm.name

    def __call__(
        self, breakpoints, slopes, target, a=None, c=None, workspace=None
    ) -> np.ndarray:
        self.dispatches += 1
        m = breakpoints.shape[0]
        blocks = partition_blocks(m, self.workers)
        if self._pool is None or len(blocks) <= 1:
            return solve_piecewise_linear(
                breakpoints, slopes, target, a=a, c=c, workspace=workspace
            )

        b_name = self._share("b", breakpoints)
        sl_name = self._share("sl", slopes)
        t_name = self._share("t", target)
        a_name = None if a is None else self._share("a", a)
        c_name = None if c is None else self._share("c", c)
        tasks = [
            (self._ws_token, idx, b_name, sl_name, t_name, a_name, c_name,
             breakpoints.shape, m, lo, hi)
            for idx, (lo, hi) in enumerate(blocks)
        ]
        try:
            parts = list(self._pool.map(_solve_shared_block, tasks))
        except BrokenExecutor as exc:
            # No degradation ladder here (see module docstring): surface
            # the crash under the taxonomy tag the service understands.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            raise WorkerCrashError(
                f"shared-memory worker pool broke mid-dispatch: {exc}"
            ) from exc
        out = np.empty(m)
        for (lo, hi), (block, stats) in zip(blocks, parts):
            out[lo:hi] = block
            if stats is not None:
                self.sort_rows_reused += stats["reused"]
                self.sort_rows_resorted += stats["resorted"]
                self.sort_full_resorts += stats["full_resorts"]
                name = stats["backend"]
                self.backend_solves[name] = self.backend_solves.get(name, 0) + 1
        if self._ws_token is not None:
            self.sort_sweeps += 1
        return out

    def close(self) -> None:
        try:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
        finally:
            _release_segments(self._segments)

    def __enter__(self) -> "SharedMemoryKernel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _release_segments(segments: dict) -> None:
    """Close + unlink every owned segment; never leaves one behind.

    Module-level (not a method) so the ``weakref.finalize`` callback
    holds no reference back to the kernel.
    """
    while segments:
        _, (shm, _) = segments.popitem()
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
