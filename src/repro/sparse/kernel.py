"""Segmented exact equilibration over ragged (CSR) rows.

Solves, for every row ``i`` with active cells ``j in J_i``::

    g_i(lam) = sum_{j in J_i} slope_ij (lam - b_ij)_+ + a_i lam + c_i
             = target_i

without materializing the dense breakpoint matrix.  The dense kernel's
per-row sort + prefix sums become a single ``lexsort`` by (row,
breakpoint) and segment-reset cumulative sums over the flat nnz-length
arrays — the classic segmented-scan formulation, all NumPy.  The
per-row constants go through the dense kernel's own coercion and
feasibility check, so an infeasible row raises the same
:class:`~repro.errors.InfeasibleProblemError` on both layouts.

Like the dense kernel, the sparse one has a persistent-sweep fast path:
:class:`SparseSweepWorkspace` hoists the per-call validation and reuses
the previous sweep's lexsort permutation.  ``lexsort((b, row_ids))`` is
a stable sort whose primary key ``row_ids`` is already nondecreasing, so
the sorted row ids, segment boundaries and segment indices are constant
per binding; only the within-row order can drift, and a cached
permutation is accepted exactly when every within-segment pair is
nondecreasing with ties in increasing original index — the unique
stable order, hence bit-identical reuse.  Sparse reuse is whole-or-
nothing (ragged segments make per-row resorts not worth the
bookkeeping): one out-of-order pair re-lexsorts the full nnz array.
"""

from __future__ import annotations

import numpy as np

from repro.equilibration.exact import _check_feasible, _coerce_terms

__all__ = ["solve_piecewise_linear_sparse", "SparseSweepWorkspace"]


def _segment_cumsum(values: np.ndarray, starts_flags: np.ndarray) -> np.ndarray:
    """Cumulative sum that resets wherever ``starts_flags`` is True.

    Works for signed values: subtract, from the global running total,
    the total accumulated before the current segment's start.
    """
    total = np.cumsum(values)
    seg_index = np.cumsum(starts_flags) - 1
    start_offsets = (total - values)[starts_flags]
    return total - start_offsets[seg_index]


def _select_sparse(
    m, nnz, bs, ss, rid, seg_start, seg_end, rhs, a_arr, fixed, target
):
    """Candidate construction + segment selection over sorted cells.

    Shared tail of the cold kernel and the workspace fast path — both
    hand it identically sorted arrays, so the paths cannot diverge.
    """
    lam = np.zeros(m)
    S = _segment_cumsum(ss, seg_start)
    T = _segment_cumsum(ss * bs, seg_start)

    denom = S + a_arr[rid]
    cand = (rhs[rid] + T) / denom
    lo = bs
    hi = np.empty(nnz)
    hi[:-1] = bs[1:]
    hi[seg_end] = np.inf
    valid = (cand >= lo) & (cand <= hi)

    # First valid candidate per row: minimum flat position among valid.
    pos = np.where(valid, np.arange(nnz), nnz)
    first = np.full(m, nnz, dtype=np.int64)
    np.minimum.at(first, rid, pos)

    has = first < nnz
    lam[has] = cand[first[has]]

    # Rows with no valid interior segment: elastic rows may solve below
    # every breakpoint; fixed rows with target == c sit at their first
    # breakpoint; anything left falls back to least-violation.
    missing = ~has
    if np.any(missing):
        first_bp = np.full(m, np.inf)
        np.minimum.at(first_bp, rid, bs)
        elastic = missing & ~fixed
        if np.any(elastic):
            lam0 = rhs[elastic] / a_arr[elastic]
            ok = lam0 <= first_bp[elastic]
            idx = np.flatnonzero(elastic)
            lam[idx[ok]] = lam0[ok]
            missing[idx[ok]] = False
        degenerate = missing & fixed & (np.abs(rhs) <= 1e-15 * np.abs(target + 1.0))
        lam[degenerate] = np.where(
            np.isfinite(first_bp[degenerate]), first_bp[degenerate], 0.0
        )
        missing &= ~degenerate
    if np.any(missing):
        viol = np.maximum(np.maximum(lo - cand, cand - hi), 0.0)
        best_viol = np.full(m, np.inf)
        np.minimum.at(best_viol, rid, viol)
        is_best = viol <= best_viol[rid] * (1 + 1e-12)
        pos2 = np.where(is_best, np.arange(nnz), nnz)
        pick = np.full(m, nnz, dtype=np.int64)
        np.minimum.at(pick, rid, pos2)
        fix_rows = missing & (pick < nnz)
        lam[fix_rows] = cand[pick[fix_rows]]
    return lam


def solve_piecewise_linear_sparse(
    row_ids: np.ndarray,
    breakpoints: np.ndarray,
    slopes: np.ndarray,
    m: int,
    target: np.ndarray,
    a: np.ndarray | None = None,
    c: np.ndarray | None = None,
    workspace: "SparseSweepWorkspace | None" = None,
) -> np.ndarray:
    """Solve ``m`` independent subproblems stored as flat active cells.

    Parameters
    ----------
    row_ids, breakpoints, slopes:
        ``(nnz,)`` arrays; ``row_ids`` must be nondecreasing (CSR row-
        major order).  Slopes must be strictly positive (structural
        zeros simply are not present).
    m:
        Number of rows (some may own zero cells).
    target, a, c:
        Per-row equation constants, as in the dense kernel.
    workspace:
        Optional :class:`SparseSweepWorkspace`: hoists the per-call
        validation and reuses the previous sweep's lexsort permutation
        (bit-identical results).

    Returns
    -------
    ``(m,)`` exact multipliers.
    """
    if workspace is not None:
        workspace.bind(row_ids, slopes, m)
        return workspace.solve(breakpoints, target, a=a, c=c)

    row_ids = np.asarray(row_ids)
    b = np.asarray(breakpoints, dtype=np.float64)
    s = np.asarray(slopes, dtype=np.float64)
    nnz = b.size
    target, a_arr, c_arr = _coerce_terms(m, target, a, c)
    if np.any(s <= 0.0):
        raise ValueError("sparse cells must carry strictly positive slopes")
    if np.any(np.diff(row_ids) < 0):
        raise ValueError("row_ids must be in row-major (nondecreasing) order")

    rhs = target - c_arr
    fixed = a_arr == 0.0
    counts = np.bincount(row_ids, minlength=m) if nnz else np.zeros(m, int)
    _check_feasible(rhs, fixed, counts)

    if nnz == 0:
        lam = np.zeros(m)
        elastic = ~fixed
        lam[elastic] = rhs[elastic] / a_arr[elastic]
        return lam

    # Sort by (row, breakpoint); stable so ties keep deterministic order.
    order = np.lexsort((b, row_ids))
    bs = b[order]
    ss = s[order]
    rid = row_ids[order]
    seg_start = np.empty(nnz, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = rid[1:] != rid[:-1]
    seg_end = np.empty(nnz, dtype=bool)
    seg_end[:-1] = seg_start[1:]
    seg_end[-1] = True

    return _select_sparse(
        m, nnz, bs, ss, rid, seg_start, seg_end, rhs, a_arr, fixed, target
    )


class SparseSweepWorkspace:
    """Persistent lexsort-permutation cache for the sparse kernel.

    Bound to one ``(row_ids, slopes, m)`` pattern (identity-checked per
    call, content-checked on new objects), it keeps the sorted row ids
    and segment boundary masks — constant because ``lexsort``'s primary
    key is already sorted — plus the previous sweep's permutation and
    permuted slopes.  A sweep whose breakpoints still sort the same way
    skips the ``O(nnz log nnz)`` lexsort entirely (``perm_hits``); one
    out-of-order pair triggers a full re-lexsort (``perm_misses``).
    """

    def __init__(
        self, nnz: int, m: int, backend: "object | str | None" = None
    ) -> None:
        from repro.equilibration.backends import KernelBackend, get_backend

        self.nnz = int(nnz)
        self.m = int(m)
        if isinstance(backend, KernelBackend):
            self._backend = backend
        else:
            self._backend = get_backend(backend)
        # A backend accelerates the sparse tail only when it both claims
        # sparse support and ships a segmented kernel; the reference
        # NumPy backend intentionally resolves to None here so the
        # in-module `_select_sparse` stays the code path it documents.
        self._select_backend = (
            getattr(self._backend, "select_sparse", None)
            if self._backend.supports_sparse
            else None
        )
        self._bs = np.empty(self.nnz)
        self._order = None
        self._ord_incr = None  # within-segment tie stability bits
        self._ss_sorted = None
        self._rid_ref = None
        self._slopes_ref = None
        self._rid = None
        self._slopes = None
        self._counts = None
        self._seg_start = None
        self._seg_end = None
        self._not_start = None
        self.sweeps = 0
        self.perm_hits = 0
        self.perm_misses = 0
        self.binds = 0

    @property
    def backend_name(self) -> str:
        """Name of the kernel backend serving the segmented tail."""
        return self._backend.name

    @property
    def sort_reuse_rate(self) -> float:
        total = self.perm_hits + self.perm_misses
        return self.perm_hits / total if total else 0.0

    def counters(self) -> tuple[int, int, int]:
        return (self.sweeps, self.perm_hits, self.perm_misses)

    def bind(self, row_ids: np.ndarray, slopes: np.ndarray, m: int) -> None:
        if (
            row_ids is self._rid_ref
            and slopes is self._slopes_ref
            and m == self.m
        ):
            return
        rid = np.asarray(row_ids)
        s = np.asarray(slopes, dtype=np.float64)
        if rid.shape != (self.nnz,) or s.shape != (self.nnz,):
            raise ValueError(
                f"pattern size {rid.shape} does not match workspace "
                f"nnz={self.nnz}"
            )
        if m != self.m:
            raise ValueError(f"row count {m} != workspace m={self.m}")
        same = (
            self._rid is not None
            and np.array_equal(rid, self._rid)
            and np.array_equal(s, self._slopes)
        )
        self._rid_ref = row_ids
        self._slopes_ref = slopes
        if same:
            self._rid = rid
            self._slopes = s
            return
        if np.any(s <= 0.0):
            raise ValueError("sparse cells must carry strictly positive slopes")
        if np.any(np.diff(rid) < 0):
            raise ValueError(
                "row_ids must be in row-major (nondecreasing) order"
            )
        self._rid = rid
        self._slopes = s
        self._counts = (
            np.bincount(rid, minlength=m) if self.nnz else np.zeros(m, int)
        )
        if self.nnz:
            seg_start = np.empty(self.nnz, dtype=bool)
            seg_start[0] = True
            seg_start[1:] = rid[1:] != rid[:-1]
            seg_end = np.empty(self.nnz, dtype=bool)
            seg_end[:-1] = seg_start[1:]
            seg_end[-1] = True
            self._seg_start = seg_start
            self._seg_end = seg_end
            self._not_start = ~seg_start[1:]
        self._order = None
        self._ss_sorted = None
        self.binds += 1

    def solve(self, breakpoints, target, a=None, c=None) -> np.ndarray:
        if self._rid is None:
            raise RuntimeError("workspace is not bound; call bind() first")
        m = self.m
        b = np.asarray(breakpoints, dtype=np.float64)
        target, a_arr, c_arr = _coerce_terms(m, target, a, c)

        rhs = target - c_arr
        fixed = a_arr == 0.0
        _check_feasible(rhs, fixed, self._counts)

        if self.nnz == 0:
            lam = np.zeros(m)
            elastic = ~fixed
            lam[elastic] = rhs[elastic] / a_arr[elastic]
            return lam

        bs = self._bs
        if self._order is not None:
            np.take(b, self._order, out=bs)
            if self._stable_order(bs):
                self.perm_hits += 1
            else:
                self._relex(b, bs)
                self.perm_misses += 1
        else:
            self._relex(b, bs)
            self.perm_misses += 1
        self.sweeps += 1

        if self._select_backend is not None:
            return self._select_backend(
                bs, self._ss_sorted, self._rid, rhs, a_arr, fixed, target, m
            )
        return _select_sparse(
            m, self.nnz, bs, self._ss_sorted, self._rid, self._seg_start,
            self._seg_end, rhs, a_arr, fixed, target,
        )

    def _relex(self, b: np.ndarray, bs: np.ndarray) -> None:
        self._order = np.lexsort((b, self._rid))
        np.take(b, self._order, out=bs)
        self._ss_sorted = self._slopes[self._order]
        if self.nnz > 1:
            self._ord_incr = self._order[1:] > self._order[:-1]

    def _stable_order(self, bs: np.ndarray) -> bool:
        """True iff the cached permutation is still the lexsort order.

        Within-segment pairs must be nondecreasing, with ties keeping
        increasing original indices (lexsort is stable, so its order is
        that unique one); segment-boundary pairs are unconstrained.
        Any nan fails every comparison and forces a re-lexsort.
        """
        if self.nnz <= 1:
            return True
        left, right = bs[:-1], bs[1:]
        ok = (right > left) | ((right == left) & self._ord_incr)
        return bool(ok[self._not_start].all())
