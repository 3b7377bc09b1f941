"""Persistent sweep workspace for the exact-equilibration kernel.

Every SEA sweep calls :func:`repro.equilibration.exact.
solve_piecewise_linear` with the *same* slope matrix and a breakpoint
matrix that is a constant base shifted by the opposite multipliers
(``base - mu``).  The cold kernel pays, per call, a full ``O(mn log n)``
stable argsort plus roughly ten fresh ``(m, n)`` temporaries and an
``O(mn)`` validation scan — yet as the alternating-scaling duals settle
(cf. Aas and Nathanson in PAPERS.md, on iterative scaling limits) the
within-row sort order stops changing, so late sweeps re-derive a
permutation they already know.

:class:`SweepWorkspace` removes all three costs for a fixed ``(m, n)``
shape:

* **validation hoisting** — slope nonnegativity, the inert-cell mask
  and per-row active counts are computed once per :meth:`bind`, not
  per sweep (only the O(m) right-hand-side feasibility checks stay
  per-call);
* **sort-permutation reuse** — the previous sweep's per-row order is
  re-applied and verified in one ``O(mn)`` pass; only rows that went
  out of order are re-sorted;
* **no per-sweep ``(m, n)`` allocation** — every buffer a sweep
  writes is preallocated.

How a sweep runs depends on the :mod:`repro.equilibration.backends`
backend, chosen per workspace or via ``REPRO_KERNEL_BACKEND`` (by
default the compiled ``cnative`` wherever a C compiler exists, else the
``numpy`` reference):

* a **compiled** backend (one with ``sweep_rows``) runs the whole phase
  in one call — gather, order check, stale-row re-sort and scan, row by
  row — so the workspace holds only what that call reads: the cached
  order, the shift buffer, the inert-cell mask and the active counts;
* the **reference** path gathers with ``np.take``, checks the order
  vectorized, re-``argsort``-s the stale rows and runs the NumPy tail
  with ``out=`` ufunc calls, so it also holds the effective and sorted
  breakpoints, the sorted slopes, the tail's prefix-sum / candidate /
  mask scratch, the flat gather index and the tie-direction bits.

Bit-identity
------------
``np.argsort(..., kind="stable")`` output is *unique*: it sorts
positions by the key ``(value, original index)``, a strict total order.
The reuse check accepts a cached permutation for a row only when the
permuted values are nondecreasing **and** every tie keeps its original
indices in increasing order — exactly the characterization of that
unique stable permutation.  A reused permutation therefore produces the
very same sorted arrays the cold kernel would, and every downstream
value (prefix sums, candidates, selected multiplier) is bit-identical;
the selection tail itself is the cold kernel's
(:func:`repro.equilibration.exact._select` via the ``numpy`` backend;
compiled backends sort to that same unique order, replay its IEEE
operations and are gated against it).

Counters
--------
``sweeps`` counts kernel calls through the workspace, ``rows_reused`` /
``rows_resorted`` count per-row permutation outcomes (a bind or the
first sweep resorts everything), ``full_resorts`` counts cold sweeps
and sweeps in which at least half the rows went stale, and
:attr:`sort_reuse_rate` is the reuse ratio.  Both backends count
alike.  All are surfaced by ``ServiceStats`` and recorded
in ``BENCH_sweeps.json`` by ``benchmarks/run_trajectory.py``.
:meth:`counters_extended` adds the counters of the workspace's pool
row blocks (:meth:`SweepWorkspace.blocks`) and still reports the
retired ``rows_skipped`` / ``perm_repairs`` keys; both read 0.
"""

from __future__ import annotations

import numpy as np

from repro.equilibration.backends import KernelBackend, get_backend
from repro.equilibration.backends.numpy_backend import select_rows_numpy
from repro.equilibration.exact import (
    _BIG,
    _check_feasible,
    _coerce_terms,
)

__all__ = ["SweepWorkspace"]

# Counters a row block folds into its owner (see SweepWorkspace.blocks).
_BLOCK_COUNTERS = (
    "sweeps", "rows_reused", "rows_resorted", "full_resorts", "binds",
)


class _LayoutWorkspace:
    """Kernel backend and sort counters, one vocabulary for the dense
    workspace and :class:`repro.sparse.kernel.SparseSweepWorkspace`."""

    def __init__(self, backend: "KernelBackend | str | None") -> None:
        if isinstance(backend, KernelBackend):
            self._backend = backend
        else:
            self._backend = get_backend(backend)
        self.sweeps = 0
        self.rows_reused = 0
        self.rows_resorted = 0
        self.full_resorts = 0
        self.binds = 0

    @property
    def backend_name(self) -> str:
        """Name of the kernel backend this workspace delegates to."""
        return self._backend.name

    @property
    def sort_reuse_rate(self) -> float:
        """Fraction of row-sorts answered by the cached permutation."""
        total = self.rows_reused + self.rows_resorted
        return self.rows_reused / total if total else 0.0

    def counters_extended(self) -> dict:
        """All counters plus the backend name.

        ``rows_skipped`` and ``perm_repairs`` are retired (every sweep
        takes the full path) and always read 0; the keys stay for
        readers that report them.
        """
        return {
            "sweeps": self.sweeps,
            "rows_reused": self.rows_reused,
            "rows_resorted": self.rows_resorted,
            "rows_skipped": 0,
            "perm_repairs": 0,
            "full_resorts": self.full_resorts,
            "binds": self.binds,
            "backend": self._backend.name,
        }


class SweepWorkspace(_LayoutWorkspace):
    """Preallocated buffers + cached sort permutation for one ``(m, n)``.

    The workspace is *bound* to a slope matrix (:meth:`bind`, called
    automatically by ``solve_piecewise_linear(..., workspace=...)``) and
    then drives any number of sweeps over shifting breakpoints.  Binding
    is cheap when the slopes are the same object (identity) or equal in
    content (one ``O(mn)`` compare — the case for a pool kernel's row
    blocks, which receive a fresh slice of the same matrix every
    dispatch); only a genuinely new slope matrix re-validates and drops
    the cached permutation.

    ``m`` is a row *capacity*: the SEA driver binds a stack of ``k``
    problems' ``k*m`` rows and then :meth:`retain`-s the surviving
    subset as problems retire, so one workspace serves the whole
    batch's lifetime.

    ``backend`` is a backend name, a
    :class:`~repro.equilibration.backends.KernelBackend` instance, or
    ``None`` for ``REPRO_KERNEL_BACKEND`` or, unset, the ``auto``
    default (``cnative`` where it builds, else ``numpy``).
    """

    def __init__(
        self,
        m: int,
        n: int,
        backend: "KernelBackend | str | None" = None,
    ) -> None:
        if m < 1 or n < 1:
            raise ValueError("workspace shape must be at least (1, 1)")
        super().__init__(backend)
        self.m = int(m)
        self.n = int(n)
        shape = (self.m, self.n)
        # A compiled backend runs a whole phase in one call that reads
        # only the bound slopes, the breakpoints, the cached order and
        # the inert-cell mask; the NumPy reference keeps its scratch.
        self._sweep = getattr(self._backend, "sweep_rows", None)
        self._shift = np.empty(shape)
        self._inactive = np.empty(shape, dtype=bool)
        self._order = np.empty(shape, dtype=np.int64)
        self._order_valid = False
        self._counts = np.empty(self.m, dtype=np.intp)
        # Per-row state retain() carries over when stacked problems retire.
        self._row_state = [self._order, self._inactive, self._counts]
        if self._sweep is None:
            self._alloc_reference(shape)
        # Binding state.
        self._rows = self.m
        self._slopes_ref = None  # object identity of the bound slopes
        self._slopes = None  # float64 view/copy of the bound slopes
        self._slopes_flat = None
        self._has_inactive = True
        self._zeros = np.zeros(self.m)
        # Row blocks of a pool kernel's phases (see blocks()).
        self._blocks: list[SweepWorkspace] = []
        self._block_bounds = None

    def _alloc_reference(self, shape) -> None:
        """Buffers of the NumPy reference path: effective and sorted
        breakpoints, sorted slopes, the tail's prefix-sum / candidate /
        mask scratch, the flat gather index and the tie-direction bits
        of the order check."""
        pair = (self.m, max(self.n - 1, 0))
        self._b_eff = np.empty(shape)
        self._bs = np.empty(shape)
        self._ss = np.empty(shape)
        self._mul = np.empty(shape)
        self._cum_slope = np.empty(shape)
        self._cum_sb = np.empty(shape)
        self._denom = np.empty(shape)
        self._cand = np.empty(shape)
        self._hi = np.empty(shape)
        self._valid = np.empty(shape, dtype=bool)
        self._vtmp = np.empty(shape, dtype=bool)
        self._pair1 = np.empty(pair, dtype=bool)
        self._pair2 = np.empty(pair, dtype=bool)
        self._flat_idx = np.empty(shape, dtype=np.intp)
        self._offsets = (np.arange(self.m, dtype=np.intp) * self.n)[:, None]
        self._ord_incr = np.empty(pair, dtype=bool)
        # A warm sweep re-gathers only stale rows' slopes.
        self._row_state += [self._ord_incr, self._ss]

    # -- introspection ------------------------------------------------------

    @property
    def rows(self) -> int:
        """Currently bound row count (``<= m`` after :meth:`retain`)."""
        return self._rows

    # -- pool row blocks -----------------------------------------------------

    def blocks(self, bounds) -> list["SweepWorkspace"]:
        """One workspace per ``(lo, hi)`` row block of a pool kernel's
        phase (:class:`~repro.parallel.executor.ParallelKernel`).

        This workspace owns them: they are kept while the bounds repeat,
        so each block reuses its own sort permutation, and replaced when
        the bounds change (a batch retirement shrinks the stacked rows).
        They die with this workspace.
        """
        bounds = list(bounds)
        if bounds != self._block_bounds:
            self.drop_blocks()
            self._blocks = [
                SweepWorkspace(hi - lo, self.n, self._backend)
                for lo, hi in bounds
            ]
            self._block_bounds = bounds
        return self._blocks

    def drop_blocks(self) -> None:
        """Forget the row blocks, folding their counters into this
        workspace's first so that :meth:`counters_extended` never goes
        backwards.  Dispatches after a drop sweep on fresh blocks, which
        is how a pool kernel keeps the stragglers of a failed dispatch
        off the next dispatch's buffers."""
        for block in self._blocks:
            for key in _BLOCK_COUNTERS:
                setattr(self, key, getattr(self, key) + getattr(block, key))
        self._blocks = []
        self._block_bounds = None

    def counters_extended(self) -> dict:
        """All counters plus the backend name, the live row blocks'
        included."""
        out = super().counters_extended()
        for block in self._blocks:
            for key in _BLOCK_COUNTERS:
                out[key] += getattr(block, key)
        return out

    # -- binding ------------------------------------------------------------

    def bind(self, slopes: np.ndarray) -> None:
        """Bind the workspace to a slope matrix, hoisting validation.

        Same object: no-op.  Same content (a fresh slice or restack of
        the same matrix): adopt the new reference, keep the cached
        permutation.  New content: full re-validation, permutation
        dropped.
        """
        if slopes is self._slopes_ref:
            return
        SL = np.asarray(slopes, dtype=np.float64)
        if SL.ndim != 2 or SL.shape[1] != self.n or SL.shape[0] > self.m:
            raise ValueError(
                f"slopes shape {SL.shape} does not fit workspace "
                f"capacity ({self.m}, {self.n})"
            )
        if (
            self._slopes is not None
            and SL.shape == self._slopes.shape
            and np.array_equal(SL, self._slopes)
        ):
            self._adopt(slopes, SL)
            return
        if np.any(SL < 0.0):
            raise ValueError("slopes must be nonnegative")
        r = SL.shape[0]
        self._rows = r
        self._adopt(slopes, SL)
        inactive = self._inactive[:r]
        np.greater(SL, 0.0, out=inactive)  # active, until inverted below
        self._counts[:r] = np.count_nonzero(inactive, axis=1)
        np.logical_not(inactive, out=inactive)
        self._has_inactive = bool(inactive.any())
        self._order_valid = False
        self.binds += 1

    def retain(self, keep: np.ndarray) -> None:
        """Keep only the rows ``keep`` (sorted ascending) of the binding.

        Used by the SEA driver when stacked problems retire: the
        surviving rows' per-row state (cached order, inert mask, counts,
        and on the reference path the tie bits and sorted slopes) and
        slopes are gathered in place, so no re-validation or re-sort is
        paid.  The kept slopes are a copy and the bound
        object is forgotten, so the next :meth:`bind` accepts the
        caller's restacked survivors by content, or re-validates them if
        the binding was another stack's.  A workspace with no binding
        that covers ``keep`` has nothing to retain: one whose phases a
        pool kernel split into row :meth:`blocks` was never bound, and
        the smaller stack gives its next phase fresh blocks.
        """
        keep = np.asarray(keep, dtype=np.intp)
        if self._slopes is None or (keep.size and keep[-1] >= self._rows):
            return
        r = keep.size
        for buf in self._row_state:
            buf[:r] = buf[keep]
        if self._sweep is None:
            np.add(self._order[:r], self._offsets[:r], out=self._flat_idx[:r])
        self._rows = r
        self._has_inactive = bool(self._inactive[:r].any())
        self._adopt(None, self._slopes[keep])

    def _adopt(self, ref, SL: np.ndarray) -> None:
        """Record ``SL`` (float64) as the bound slopes of object ``ref``."""
        self._slopes_ref = ref
        self._slopes = SL
        self._slopes_flat = (
            SL.reshape(-1) if SL.flags.c_contiguous
            else np.ascontiguousarray(SL).reshape(-1)
        )

    # -- layout hooks of the SEA driver --------------------------------------
    # The dense layout: problem-major ``(k, m, n)`` stacks of ``(m, n)``
    # matrices, transposed for the column phase, which alone is asked to
    # orient and recover.

    #: Algorithm-name suffix of results solved on this layout.
    tag = ""

    @property
    def segment_length(self) -> int:
        """Cells per row: the op-count model's row length."""
        return self.n

    @staticmethod
    def prepare(problem):
        """Row-major ``(base, slopes, starting iterate)`` of one solve:
        breakpoints are ``base - mu`` (``base.T - lam``) with ``base =
        -2*gamma*x0``; inactive cells are inert and start at 0."""
        mask = problem.mask
        gamma_safe = np.where(mask, problem.gamma, 1.0)
        x0_safe = np.where(mask, problem.x0, 0.0)
        base = np.where(mask, -2.0 * gamma_safe * x0_safe, 0.0)
        slopes = np.where(mask, 1.0 / (2.0 * gamma_safe), 0.0)
        x = np.where(mask, np.maximum(problem.x0, 0.0), 0.0)
        return base, slopes, x

    @staticmethod
    def orient(values: np.ndarray) -> np.ndarray:
        """Row-major cell values of a ``(k, m, n)`` stack in the column
        phase's layout, ``(k, n, m)``."""
        return values.swapaxes(-1, -2).copy()

    @staticmethod
    def recover(lam, breakpoints, slopes, out: np.ndarray) -> np.ndarray:
        """Column-phase primal recovery (eqs. 23a / 40a) of a stack into
        ``out``; returns the row-major iterates, transposed views of
        ``out``."""
        np.subtract(lam[..., None], breakpoints, out=out)
        np.maximum(out, 0.0, out=out)
        np.multiply(out, slopes, out=out)
        return out.swapaxes(-1, -2)

    @staticmethod
    def row_sums(x: np.ndarray) -> np.ndarray:
        return x.sum(axis=1)

    @staticmethod
    def densify(x: np.ndarray) -> np.ndarray:
        return x

    def shift(self, base: np.ndarray, opposite: np.ndarray) -> np.ndarray:
        """``base - opposite[..., None, :]`` into a reusable buffer.

        The per-sweep breakpoint matrix of every diagonal SEA phase has
        this form; routing it through the workspace removes the last
        per-sweep ``(m, n)`` allocation of the drivers.  ``base`` is one
        ``(m, n)`` matrix with ``opposite`` of shape ``(n,)``, or a
        ``(k, m, n)`` stack with ``(k, n)``.  The result is
        workspace-owned and overwritten by the next shift.
        """
        out = self._shift.reshape(-1)[: base.size].reshape(base.shape)
        return np.subtract(base, opposite[..., None, :], out=out)

    # -- the kernel fast path -----------------------------------------------

    def solve(
        self,
        breakpoints: np.ndarray,
        target: np.ndarray,
        a: np.ndarray | None = None,
        c: np.ndarray | None = None,
    ) -> np.ndarray:
        """One sweep over the bound rows; bit-identical to the cold kernel."""
        if self._slopes is None:
            raise RuntimeError("workspace is not bound; call bind(slopes) first")
        r = self._rows
        B = np.asarray(breakpoints, dtype=np.float64)
        if B.shape != (r, self.n):
            raise ValueError(
                "breakpoints and slopes must be equal-shape 2-D arrays"
            )
        target, a_arr, c_arr = _coerce_terms(r, target, a, c)
        if a is None:
            a_arr = self._zeros[:r]

        rhs = target - c_arr
        fixed = a_arr == 0.0
        counts = self._counts[:r]
        _check_feasible(rhs, fixed, counts)

        cold = not self._order_valid
        if self._sweep is not None:
            lam, stale, deferred = self._sweep(
                B, self._inactive[:r] if self._has_inactive else None,
                self._slopes_flat, self._order[:r], cold, rhs, a_arr,
                fixed, counts,
            )
            self._order_valid = True
            self._count_sorts(r, stale, cold)
            if deferred.size:
                lam[deferred] = self._reference_rows(
                    deferred, B, rhs, a_arr, fixed, counts
                )
            return lam

        be = self._effective(B, r)
        bs = self._bs[:r]
        ss = self._ss[:r]
        order = self._order[:r]
        if cold:
            self._sort_all(be, bs, ss, order)
            self._order_valid = True
            stale = r
        else:
            np.take(be.reshape(-1), self._flat_idx[:r], out=bs)
            bad = self._out_of_order_rows(bs, r)
            if bad.size:
                self._resort(be, bs, ss, order, bad)
            stale = bad.size
        self._count_sorts(r, stale, cold)
        return self._backend.select(bs, ss, rhs, a_arr, fixed, counts, ws=self)

    def _reference_rows(self, rows, B, rhs, a_arr, fixed, counts):
        """The reference tail over the ``rows`` a compiled scan could not
        finish: their sorted breakpoints (inert cells at ``_BIG``) and
        slopes are rebuilt from the fresh order, and an error names the
        global row."""
        idx = self._order[rows]
        be = B[rows]
        if self._has_inactive:
            be = np.where(self._inactive[rows], _BIG, be)
        slopes = self._slopes_flat.reshape(self._rows, self.n)[rows]
        return select_rows_numpy(
            rows, np.take_along_axis(be, idx, axis=1),
            np.take_along_axis(slopes, idx, axis=1),
            rhs[rows], a_arr[rows], fixed[rows], counts[rows],
        )

    def _count_sorts(self, r: int, stale: int, cold: bool) -> None:
        """Fold one sweep's sort outcome into the counters: a cold
        sweep sorts every row (one full resort); a warm one reuses the
        rows whose cached order held and counts a full resort when at
        least half went stale."""
        if cold:
            self.rows_resorted += r
            self.full_resorts += 1
        else:
            if stale and 2 * stale >= r:
                self.full_resorts += 1
            self.rows_reused += r - stale
            self.rows_resorted += stale
        self.sweeps += 1

    def _effective(self, B: np.ndarray, r: int) -> np.ndarray:
        """Effective breakpoints: inert cells pinned to the _BIG sentinel."""
        if self._has_inactive:
            be = self._b_eff[:r]
            np.copyto(be, B)
            np.copyto(be, _BIG, where=self._inactive[:r])
        elif B.flags.c_contiguous:
            be = B  # fully active: read the caller's buffer directly
        else:
            be = self._b_eff[:r]
            np.copyto(be, B)
        return be

    # -- permutation internals ----------------------------------------------

    def _refresh_perm(self, rows: np.ndarray) -> None:
        """Recompute flat indices and tie-stability bits for ``rows``.

        Fancy assignment (not ``out=``) on purpose: ``self._flat_idx[rows]``
        with an index array is a copy, so an ``out=`` into it would be lost.
        """
        self._flat_idx[rows] = self._order[rows] + self._offsets[rows]
        if self.n > 1:
            self._ord_incr[rows] = (
                self._order[rows, 1:] > self._order[rows, :-1]
            )

    def _refresh_perm_all(self) -> None:
        """Full-range :meth:`_refresh_perm` without the fancy-index copies."""
        r = self._rows
        np.add(self._order[:r], self._offsets[:r], out=self._flat_idx[:r])
        if self.n > 1:
            np.greater(
                self._order[:r, 1:], self._order[:r, :-1],
                out=self._ord_incr[:r],
            )

    def _out_of_order_rows(self, bs: np.ndarray, r: int) -> np.ndarray:
        """Rows whose cached permutation is no longer the stable order.

        A pair ``(k, k+1)`` is in stable order iff ``bs`` strictly
        increases, or ties with the original indices increasing.  Rows
        where every pair passes reproduce ``argsort(kind="stable")``
        exactly (the stable permutation is unique), so reusing them is
        bit-identical; nan breakpoints fail every comparison and force a
        resort, never a silent reuse.
        """
        if self.n <= 1:
            return np.empty(0, dtype=np.intp)
        p1 = self._pair1[:r]
        p2 = self._pair2[:r]
        np.greater(bs[:, 1:], bs[:, :-1], out=p1)
        np.equal(bs[:, 1:], bs[:, :-1], out=p2)
        np.logical_and(p2, self._ord_incr[:r], out=p2)
        np.logical_or(p1, p2, out=p1)
        return np.flatnonzero(~p1.all(axis=1))

    def _sort_all(self, be, bs, ss, order) -> None:
        """Stable argsort of every bound row, then gather both sorted
        arrays through it."""
        r = order.shape[0]
        order[:] = np.argsort(be, axis=1, kind="stable")
        self._refresh_perm_all()
        np.take(be.reshape(-1), self._flat_idx[:r], out=bs)
        np.take(self._slopes_flat, self._flat_idx[:r], out=ss)

    def _resort(self, be, bs, ss, order, bad) -> None:
        """Re-argsort the rows that went out of order.

        Below half the rows, only the stale subset is touched; above
        it, the fancy-indexed gather/scatter per row costs more than
        one contiguous whole-matrix argsort, so the full path wins (and
        recomputing a still-valid row reproduces its cached permutation
        exactly — the stable order is unique — so both paths stay
        bit-identical).
        """
        if 2 * bad.size >= order.shape[0]:
            self._sort_all(be, bs, ss, order)
            return
        order[bad] = np.argsort(be[bad], axis=1, kind="stable")
        self._refresh_perm(bad)
        idx = self._flat_idx[bad]
        bs[bad] = np.take(be.reshape(-1), idx)
        ss[bad] = np.take(self._slopes_flat, idx)
