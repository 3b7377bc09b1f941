"""Reference NumPy backend — the bit-identity baseline.

This is the exact array pipeline of the cold kernel's tail
(:func:`repro.equilibration.exact.solve_piecewise_linear`), factored so
the workspace can hand it preallocated buffers.  Every other backend is
gated against it, and the workspace runs it on the rows a compiled
scan cannot prove.
"""

from __future__ import annotations

import re

import numpy as np

from repro.equilibration.backends import KernelBackend
from repro.equilibration.exact import _select

__all__ = ["NumpyBackend", "select_rows_numpy"]

_SUBPROBLEM_RE = re.compile(r"subproblem (\d+)")


def select_rows_numpy(rows, bs, ss, rhs, a_arr, fixed, counts):
    """Reference tail over a row subset, with global error indices.

    The tail names the offending row in its ValueError by its position
    in the subset; the error is rewritten to name the original row, as
    a full-matrix call would.
    """
    try:
        return _tail(bs, ss, rhs, a_arr, fixed, counts)
    except ValueError as exc:
        match = _SUBPROBLEM_RE.search(str(exc))
        if match is None:
            raise
        row = int(rows[int(match.group(1))])
        raise ValueError(
            _SUBPROBLEM_RE.sub(f"subproblem {row}", str(exc))
        ) from None


def _tail(bs, ss, rhs, a_arr, fixed, counts, ws=None):
    """The cold kernel's selection tail over sorted arrays.

    The prefix sums, candidates and masks are built with the cold
    kernel's exact operations; ``ws`` (a
    :class:`~repro.equilibration.workspace.SweepWorkspace`) supplies
    preallocated scratch for the zero-allocation path.
    """
    r, n = bs.shape
    if ws is not None:
        cum_slope = np.cumsum(ss, axis=1, out=ws._cum_slope[:r])
        mul = np.multiply(ss, bs, out=ws._mul[:r])
        cum_sb = np.cumsum(mul, axis=1, out=ws._cum_sb[:r])
        denom = np.add(cum_slope, a_arr[:, None], out=ws._denom[:r])
        cand = ws._cand[:r]
        hi = ws._hi[:r]
        valid = ws._valid[:r]
        vtmp = ws._vtmp[:r]
    else:
        cum_slope = np.cumsum(ss, axis=1)
        cum_sb = np.cumsum(ss * bs, axis=1)
        denom = cum_slope + a_arr[:, None]
        cand = np.empty((r, n))
        hi = np.empty((r, n))
        valid = np.empty((r, n), dtype=bool)
        vtmp = np.empty((r, n), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.add(rhs[:, None], cum_sb, out=cand)
        np.divide(cand, denom, out=cand)
    lo = bs
    np.copyto(hi[:, : n - 1], bs[:, 1:])
    hi[:, n - 1] = np.inf

    np.greater_equal(cand, lo, out=valid)
    np.less_equal(cand, hi, out=vtmp)
    np.logical_and(valid, vtmp, out=valid)
    np.greater(denom, 0.0, out=vtmp)
    np.logical_and(valid, vtmp, out=valid)
    np.isfinite(cand, out=vtmp)
    np.logical_and(valid, vtmp, out=valid)

    return _select(
        r, bs, denom, cand, lo, hi, valid, rhs, a_arr, fixed, counts
    )


class NumpyBackend(KernelBackend):
    """The always-available reference backend."""

    name = "numpy"
    compiled = False

    def select(self, bs, ss, rhs, a_arr, fixed, counts, *, ws=None):
        return _tail(bs, ss, rhs, a_arr, fixed, counts, ws=ws)
