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
:class:`~repro.errors.InfeasibleProblemError` on both layouts, and a
row left with no finite candidate (inf/nan inputs) raises the dense
kernel's ``ValueError``.

:func:`solve_piecewise_linear_sparse` is the cold kernel, the tests'
reference.  The SEA drivers sweep on a pattern-bound
:class:`SparseSweepWorkspace` pair instead, through the dense kernel's
call ``solve_piecewise_linear(..., workspace=ws)``: sparse is a layout
of the one driver of :mod:`repro.core.sea`, not a second engine.

The fast path hoists the per-call validation and reuses the previous
sweep's lexsort permutation.  ``lexsort((b, seg))`` is a stable sort
whose primary key ``seg`` is already nondecreasing, so the sorted
segment ids, segment boundaries and segment indices are constant per
pattern; only the within-segment order can drift, and a cached
permutation is accepted exactly when every within-segment pair is
nondecreasing with ties in increasing original index — the unique
stable order, hence bit-identical reuse.  Sparse reuse is whole-or-
nothing (ragged segments make per-row resorts not worth the
bookkeeping): one out-of-order pair re-lexsorts the full nnz array.
"""

from __future__ import annotations

import numpy as np

from repro.equilibration.exact import (
    _check_feasible,
    _coerce_terms,
    _no_candidate,
)
from repro.equilibration.workspace import _LayoutWorkspace
from repro.sparse.structure import SparsePattern

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


def _segments(rid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end flags of the segments of nondecreasing ids."""
    seg_start = np.ones(rid.size, dtype=bool)
    seg_start[1:] = rid[1:] != rid[:-1]
    seg_end = np.ones(rid.size, dtype=bool)
    seg_end[:-1] = seg_start[1:]
    return seg_start, seg_end


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
        # A row no candidate fixed saw only nan (the global running sums
        # carry one poisoned row's nan into every later row).
        missing &= ~fix_rows
        if np.any(missing):
            raise _no_candidate(int(np.flatnonzero(missing)[0]))
    return lam


def solve_piecewise_linear_sparse(
    row_ids: np.ndarray,
    breakpoints: np.ndarray,
    slopes: np.ndarray,
    m: int,
    target: np.ndarray,
    a: np.ndarray | None = None,
    c: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``m`` independent subproblems stored as flat active cells.

    The cold kernel: the reference the tests compare the
    :class:`SparseSweepWorkspace` fast path against.

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

    Returns
    -------
    ``(m,)`` exact multipliers.
    """
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

    # Sort by (row, breakpoint); stable so ties keep deterministic order.
    order = np.lexsort((b, row_ids))
    bs = b[order]
    ss = s[order]
    rid = row_ids[order]
    seg_start, seg_end = _segments(rid)

    return _select_sparse(
        m, nnz, bs, ss, rid, seg_start, seg_end, rhs, a_arr, fixed, target
    )


class SparseSweepWorkspace(_LayoutWorkspace):
    """One phase of the sparse layout: lexsort-permutation cache plus
    the SEA driver's layout hooks.

    Bound to one :class:`~repro.sparse.structure.SparsePattern`, whose
    rows in row-major order are the segments, or with ``columns=True``
    its columns in column-major order; :meth:`pair` builds both.  Reuse
    is whole-or-nothing: a sweep counts every segment as reused, or as
    resorted plus one ``full_resorts``.
    """

    #: Algorithm-name suffix of results solved on this layout.
    tag = "-sparse"

    def __init__(
        self,
        pattern: SparsePattern,
        columns: bool = False,
        backend: "object | str | None" = None,
    ) -> None:
        super().__init__(backend)
        self.pattern = pattern
        # Segment and opposite ids per cell, and the cells' positions in
        # row-major order.
        if columns:
            self._seg, self._opp = pattern.cols_c, pattern.rows_c
            self._perm = pattern.csc_perm
            self.m = pattern.shape[1]
        else:
            self._seg, self._opp = pattern.rows, pattern.cols
            self._perm = slice(None)
            self.m = pattern.shape[0]
        self.nnz = pattern.nnz
        # A backend accelerates the sparse tail only if it ships a
        # segmented kernel; the reference NumPy backend has none, so the
        # in-module `_select_sparse` stays the code path it documents.
        self._select_backend = getattr(self._backend, "select_sparse", None)
        self._counts = np.bincount(self._seg, minlength=self.m)
        self._seg_start, self._seg_end = _segments(self._seg)
        self._not_start = ~self._seg_start[1:]
        self._bs = np.empty(self.nnz)
        self._shift = np.empty(self.nnz)
        self._order = None
        self._ord_incr = None  # within-segment tie stability bits
        self._ss_sorted = None
        self._slopes_ref = None
        self._slopes = None

    @classmethod
    def pair(cls, pattern: SparsePattern, backend=None) -> tuple:
        """The ``(row, column)`` workspace pair of one pattern."""
        return cls(pattern, backend=backend), cls(pattern, True, backend)

    # -- layout hooks of the SEA driver --------------------------------------
    # ``run_diagonal``'s stacks hold one problem: ``(1, nnz)`` flat cells.

    @property
    def segment_length(self) -> int:
        """Mean cells per segment: the op-count model's row length."""
        return max(int(self.nnz / max(self.m, 1)), 1)

    def prepare(self, problem):
        """Flat row-major ``(base, slopes, starting iterate)`` of one
        solve on this pattern."""
        p, mask = self.pattern, problem.mask
        same = mask.shape == p.shape and mask.sum() == p.nnz
        if not (same and mask[p.rows, p.cols].all()):
            raise ValueError("problem mask does not match the pattern")
        gamma = problem.gamma[p.rows, p.cols]
        x0 = problem.x0[p.rows, p.cols]
        return -2.0 * gamma * x0, 1.0 / (2.0 * gamma), np.maximum(x0, 0.0)

    def orient(self, values: np.ndarray) -> np.ndarray:
        """Row-major cell values in this phase's cell order."""
        return values[..., self._perm]

    def shift(self, base: np.ndarray, opposite: np.ndarray) -> np.ndarray:
        """``base`` minus each cell's opposite multiplier (reused buffer)."""
        out = self._shift.reshape(base.shape)
        return np.subtract(base, opposite[..., self._opp], out=out)

    def recover(self, lam, breakpoints, slopes, out: np.ndarray) -> np.ndarray:
        """Primal recovery (eq. 23a) into the row-major iterate ``out``."""
        out[..., self._perm] = slopes * np.maximum(
            lam[..., self._seg] - breakpoints, 0.0
        )
        return out

    def row_sums(self, x: np.ndarray) -> np.ndarray:
        return self.pattern.row_sums(x)

    def densify(self, x: np.ndarray) -> np.ndarray:
        return self.pattern.to_dense(x)

    # -- the kernel fast path --------------------------------------------------

    def bind(self, slopes: np.ndarray) -> None:
        """Bind the flat slopes: same object or content keeps the cached
        permutation; new content re-validates and drops it."""
        if slopes is self._slopes_ref:
            return
        s = np.asarray(slopes, dtype=np.float64)
        if s.shape != (self.nnz,):
            raise ValueError(f"slopes shape {s.shape} != ({self.nnz},)")
        if self._slopes is None or not np.array_equal(s, self._slopes):
            if np.any(s <= 0.0):
                raise ValueError(
                    "sparse cells must carry strictly positive slopes"
                )
            self._order = None
            self.binds += 1
        self._slopes_ref = slopes
        self._slopes = s

    def solve(self, breakpoints, target, a=None, c=None) -> np.ndarray:
        if self._slopes is None:
            raise RuntimeError("workspace is not bound; call bind() first")
        m = self.m
        b = np.asarray(breakpoints, dtype=np.float64)
        target, a_arr, c_arr = _coerce_terms(m, target, a, c)

        rhs = target - c_arr
        fixed = a_arr == 0.0
        _check_feasible(rhs, fixed, self._counts)

        bs = self._bs
        if self._order is not None and self._stable_order(
            np.take(b, self._order, out=bs)
        ):
            self.rows_reused += m
        else:
            self._relex(b, bs)
            self.rows_resorted += m
            self.full_resorts += 1
        self.sweeps += 1

        if self._select_backend is not None:
            return self._select_backend(
                bs, self._ss_sorted, self._seg, rhs, a_arr, fixed, target, m
            )
        return _select_sparse(
            m, self.nnz, bs, self._ss_sorted, self._seg, self._seg_start,
            self._seg_end, rhs, a_arr, fixed, target,
        )

    def _relex(self, b: np.ndarray, bs: np.ndarray) -> None:
        self._order = np.lexsort((b, self._seg))
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
