"""Vectorized exact equilibration.

The splitting equilibration algorithm's row (column) step solves ``m``
(``n``) *independent* single-market equilibrium subproblems — the paper
allocates each to a distinct processor.  Here the same independence is
exploited by solving all of them at once with array-wide NumPy kernels:
one sort of the full breakpoint matrix, two prefix sums, and a masked
segment selection.  This is the NumPy analog of the paper's
processor-per-subproblem decomposition and is also the unit that the
parallel backends in :mod:`repro.parallel` split across workers.

Each subproblem ``i`` is: find ``lam_i`` with

    g_i(lam) = sum_j slope_ij * max(lam - b_ij, 0) + a_i*lam + c_i = target_i

with the primal recovered as ``x_ij = slope_ij * max(lam_i - b_ij, 0)``
(paper eqs. 23a / 40a).

Hot-loop variant
----------------
SEA calls this kernel once per row phase and once per column phase,
*every sweep*, with the same slopes and only the breakpoints shifting
by the opposite multipliers.  The diagonal drivers therefore always
pass a :class:`repro.equilibration.workspace.SweepWorkspace` that
hoists the per-call validation, preallocates every ``(m, n)``
temporary, and reuses the previous sweep's sort permutation — see that
module for the bit-identity argument.  Called without one, the kernel
runs the cold path: the reference the tests compare against, and the
pool kernel's fallback when two dispatches want the same block
workspace.  The two paths share the segment-selection tail below, so
they cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InfeasibleProblemError

__all__ = ["solve_piecewise_linear", "equilibrate_rows", "recover_flows"]

# Sentinel breakpoint for inert (zero-slope) cells: sorts after every real
# breakpoint but stays finite so 0 * _BIG == 0 in the prefix sums.
_BIG = np.finfo(np.float64).max / 8.0


def _coerce_terms(m, target, a, c):
    """Validate and broadcast the per-row equation constants."""
    target = np.asarray(target, dtype=np.float64)
    a_arr = np.zeros(m) if a is None else np.asarray(a, dtype=np.float64)
    c_arr = np.zeros(m) if c is None else np.asarray(c, dtype=np.float64)
    if target.shape != (m,) or a_arr.shape != (m,) or c_arr.shape != (m,):
        raise ValueError("target, a, c must be (m,) vectors")
    if a is not None and np.any(a_arr < 0.0):
        raise ValueError("elastic slopes a must be nonnegative")
    return target, a_arr, c_arr


def _check_feasible(rhs, fixed, active_counts):
    """Per-call feasibility of the fixed-totals rows (O(m))."""
    if np.any(fixed & (rhs < 0.0)):
        bad = int(np.flatnonzero(fixed & (rhs < 0.0))[0])
        raise InfeasibleProblemError(
            f"fixed-totals subproblem {bad} infeasible: target below g(-inf)"
        )
    empty_fixed = fixed & (active_counts == 0)
    if np.any(empty_fixed & (rhs > 0.0)):
        bad = int(np.flatnonzero(empty_fixed & (rhs > 0.0))[0])
        raise InfeasibleProblemError(
            f"fixed-totals subproblem {bad} has no active cell but positive target"
        )


def _no_candidate(row: int) -> ValueError:
    """Every kernel's error for a row with no finite candidate segment."""
    return ValueError(
        f"equilibration subproblem {row} has no finite candidate "
        "segment — its breakpoints, slopes or target contain "
        "inf/nan or the equation is unsolvable"
    )


def _select(m, bs, denom, cand, lo, hi, valid, rhs, a_arr, fixed, active_counts):
    """Pick each row's multiplier from its candidate segments.

    Shared tail of the cold kernel and the workspace fast path: both
    compute bit-identical inputs, so sharing this selection logic keeps
    the two paths from ever diverging.
    """
    lam = np.empty(m)
    any_valid = valid.any(axis=1)
    first = np.argmax(valid, axis=1)
    rows = np.arange(m)
    lam[any_valid] = cand[rows[any_valid], first[any_valid]]

    # Segment 0 — lam below every breakpoint — exists only for elastic rows.
    elastic = ~fixed
    if np.any(elastic):
        with np.errstate(divide="ignore"):
            lam0 = rhs / np.where(elastic, a_arr, 1.0)
        seg0 = elastic & (lam0 <= bs[:, 0])
        lam[seg0] = lam0[seg0]
        any_valid |= seg0

    # Degenerate fixed rows with target == c: every flow zero; any lam at
    # or below the first breakpoint solves the equation.
    degenerate = fixed & (rhs == 0.0) & ~any_valid
    if np.any(degenerate):
        lam[degenerate] = np.where(
            active_counts[degenerate] > 0, bs[degenerate, 0], 0.0
        )
        any_valid |= degenerate

    # Fallback for rows where floating-point ties defeated every strict
    # segment test: take the candidate with the smallest violation.
    missing = ~any_valid
    if np.any(missing):
        viol = np.maximum(np.maximum(lo - cand, cand - hi), 0.0)
        viol = np.where(np.isfinite(cand) & (denom > 0.0), viol, np.inf)
        rows_missing = np.flatnonzero(missing)
        # A row whose violations are all inf has no finite candidate at
        # all (e.g. nan/inf leaked into its inputs); argmin would pick
        # index 0 and silently hand back a non-finite multiplier.
        has_candidate = (viol[rows_missing] < np.inf).any(axis=1)
        if not has_candidate.all():
            raise _no_candidate(
                int(rows_missing[np.flatnonzero(~has_candidate)[0]])
            )
        best = np.argmin(viol[missing], axis=1)
        lam[missing] = cand[rows_missing, best]
    return lam


def solve_piecewise_linear(
    breakpoints: np.ndarray,
    slopes: np.ndarray,
    target: np.ndarray,
    a: np.ndarray | None = None,
    c: np.ndarray | None = None,
    workspace=None,
) -> np.ndarray:
    """Solve ``m`` independent piecewise-linear equations exactly.

    Parameters
    ----------
    breakpoints, slopes:
        ``(m, n)`` arrays.  ``slopes`` must be nonnegative; zero-slope
        cells are inert (their flow is pinned to zero).
    target:
        ``(m,)`` right-hand sides.
    a, c:
        ``(m,)`` elastic slope/offset terms (``a >= 0``).  Omitting them
        gives the fixed-totals subproblem ``a = c = 0``.
    workspace:
        Optional :class:`~repro.equilibration.workspace.SweepWorkspace`
        bound (or bindable) to ``slopes``: runs the preallocated,
        sort-permutation-caching fast path.  Results are bit-identical
        to the cold path (``workspace=None``).  On a
        :class:`~repro.sparse.kernel.SparseSweepWorkspace` both arrays
        are its pattern's flat ``(nnz,)`` active cells.

    This signature is the kernel contract of every diagonal driver
    (:data:`repro.core.sea.Kernel`): they pass ``workspace=`` on every
    phase, and a substitute kernel may ignore it but must accept the
    keyword (one without it raises :class:`TypeError` on first call).

    Returns
    -------
    numpy.ndarray
        ``(m,)`` exact multipliers ``lam``.

    Raises
    ------
    ValueError
        If a fixed-totals row (``a_i == 0``) has ``target_i - c_i < 0``
        (no ``lam`` can reach a negative total of nonnegative flows) or
        has no active cell with a strictly positive target.
    """
    if workspace is not None:
        workspace.bind(slopes)
        return workspace.solve(breakpoints, target, a=a, c=c)

    B = np.asarray(breakpoints, dtype=np.float64)
    SL = np.asarray(slopes, dtype=np.float64)
    if B.shape != SL.shape or B.ndim != 2:
        raise ValueError("breakpoints and slopes must be equal-shape 2-D arrays")
    m, n = B.shape
    target, a_arr, c_arr = _coerce_terms(m, target, a, c)
    if np.any(SL < 0.0):
        raise ValueError("slopes must be nonnegative")

    rhs = target - c_arr
    fixed = a_arr == 0.0
    active_counts = np.count_nonzero(SL > 0.0, axis=1)
    _check_feasible(rhs, fixed, active_counts)

    b_eff = np.where(SL > 0.0, B, _BIG)
    order = np.argsort(b_eff, axis=1, kind="stable")
    bs = np.take_along_axis(b_eff, order, axis=1)
    ss = np.take_along_axis(SL, order, axis=1)
    cum_slope = np.cumsum(ss, axis=1)
    cum_sb = np.cumsum(ss * bs, axis=1)

    denom = cum_slope + a_arr[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = (rhs[:, None] + cum_sb) / denom
    lo = bs
    hi = np.concatenate([bs[:, 1:], np.full((m, 1), np.inf)], axis=1)
    valid = (cand >= lo) & (cand <= hi) & (denom > 0.0) & np.isfinite(cand)

    return _select(
        m, bs, denom, cand, lo, hi, valid, rhs, a_arr, fixed, active_counts
    )


def recover_flows(
    lam: np.ndarray, breakpoints: np.ndarray, slopes: np.ndarray
) -> np.ndarray:
    """Primal recovery ``x_ij = slope_ij * (lam_i - b_ij)_+`` (eq. 23a)."""
    return slopes * np.maximum(lam[:, None] - breakpoints, 0.0)


def equilibrate_rows(
    x0: np.ndarray,
    gamma: np.ndarray,
    opposite_multipliers: np.ndarray,
    target: np.ndarray,
    a: np.ndarray | None = None,
    c: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one exact row-equilibration phase for all rows at once.

    Builds the breakpoints ``b_ij = -(2*gamma_ij*x0_ij + mu_j)`` and
    slopes ``1/(2*gamma_ij)`` from the problem data, solves every row's
    subproblem, and recovers the flow matrix.

    Parameters
    ----------
    x0, gamma:
        ``(m, n)`` base matrix and diagonal weights (``gamma > 0`` on
        active cells).
    opposite_multipliers:
        ``(n,)`` multipliers of the *other* constraint family (``mu``
        when equilibrating rows, ``lam`` when equilibrating columns —
        pass transposed arrays for columns).
    target, a, c:
        Per-row constants of the piecewise-linear equation; see
        :func:`solve_piecewise_linear`.
    mask:
        Optional ``(m, n)`` boolean; ``False`` cells are pinned to zero
        (structural zeros of sparse tables).

    Returns
    -------
    (lam, X):
        ``(m,)`` multipliers and the ``(m, n)`` equilibrated flows.
    """
    mu = np.asarray(opposite_multipliers, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if mask is None:
        active = np.ones(x0.shape, dtype=bool)
    else:
        active = np.asarray(mask, dtype=bool)
    # Masked min instead of `gamma[active]` fancy indexing: the latter
    # materialized an O(mn) float copy per call just for validation.
    if np.amin(gamma, where=active, initial=np.inf) <= 0.0:
        raise ValueError("gamma must be strictly positive on active cells")

    # Inactive cells may carry arbitrary (even zero) gamma/x0; neutralize
    # them before any arithmetic so no inf/nan leaks into the kernel.
    gamma_safe = np.where(active, gamma, 1.0)
    x0_safe = np.where(active, x0, 0.0)
    slopes = np.where(active, 1.0 / (2.0 * gamma_safe), 0.0)
    breakpoints = np.where(
        active, -(2.0 * gamma_safe * x0_safe + mu[None, :]), 0.0
    )

    lam = solve_piecewise_linear(breakpoints, slopes, target, a=a, c=c)
    X = recover_flows(lam, breakpoints, slopes)
    return lam, X
