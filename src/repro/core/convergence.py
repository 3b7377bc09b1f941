"""Stopping rules (Step 3 of each SEA variant).

The paper uses two criteria: elementwise change of the iterates,
``|x^t - x^{t-1}| <= eps`` (fixed/elastic, Section 3.1.1 Step 3), and
relative row imbalance ``|sum_j x_ij - s_i| / s_i <= eps'`` (SAM,
Section 3.1.2 Step 3).  Equation (27) legitimizes a third: the dual
gradient norm equals the constraint residual, so checking feasibility of
the untied constraint family is checking dual stationarity.

``check_every`` mirrors the paper's parallel experiments, where
convergence was verified only every other iteration to shrink the serial
phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import InvalidProblemError

__all__ = ["StoppingRule", "delta_x_residual", "relative_imbalance"]


def delta_x_residual(x_new: np.ndarray, x_old: np.ndarray) -> float:
    """Max elementwise change ``max |x^t - x^{t-1}|``."""
    return float(np.max(np.abs(x_new - x_old))) if x_new.size else 0.0


def relative_imbalance(
    x: np.ndarray, totals: np.ndarray, axis: int, floor: float = 1e-12
) -> float:
    """Max relative constraint violation ``|sum x - s| / max(s, floor)``."""
    sums = x.sum(axis=1 - axis) if axis == 0 else x.sum(axis=0)
    return _relative_violation(sums, totals, floor)


def _relative_violation(
    sums: np.ndarray, totals: np.ndarray, floor: float = 1e-12
) -> float:
    denom = np.maximum(np.abs(totals), floor)
    return float(np.max(np.abs(sums - totals) / denom)) if totals.size else 0.0


@dataclass
class StoppingRule:
    """Configuration of the convergence check.

    Parameters
    ----------
    eps:
        Tolerance.
    criterion:
        ``'delta-x'`` — elementwise iterate change (paper default for
        fixed/elastic); ``'imbalance'`` — relative row-constraint
        violation (paper default for SAM); ``'dual-gradient'`` — max
        absolute constraint residual of the family not enforced by the
        last equilibration phase (eq. 27).
    check_every:
        Verify only every k-th iteration (>= 1).
    max_iterations:
        Hard iteration budget.
    """

    eps: float = 1e-2
    criterion: str = "delta-x"
    check_every: int = 1
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise InvalidProblemError("eps must be positive")
        if self.check_every < 1:
            raise InvalidProblemError("check_every must be >= 1")
        if self.max_iterations < 1:
            raise InvalidProblemError("max_iterations must be >= 1")
        if self.criterion not in ("delta-x", "imbalance", "dual-gradient"):
            raise InvalidProblemError(f"unknown criterion {self.criterion!r}")

    def due(self, iteration: int) -> bool:
        """Whether the check runs at this (1-based) iteration."""
        return iteration % self.check_every == 0 or iteration >= self.max_iterations

    def residual(
        self,
        x_new: np.ndarray,
        x_old: np.ndarray,
        row_totals: np.ndarray,
        col_totals: np.ndarray,
        row_sums: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> float:
        """Evaluate the monitored quantity for the configured criterion.

        ``row_sums`` maps the iterate to its row sums; by default the
        iterate is a dense matrix summed along axis 1.  The sparse layout
        passes a flat cell vector with its pattern's O(nnz) CSR row sums.
        It is called only by the criteria that read row sums, so the
        ``delta-x`` check never pays for it.
        """
        if self.criterion == "delta-x":
            return delta_x_residual(x_new, x_old)
        sums = x_new.sum(axis=1) if row_sums is None else row_sums(x_new)
        if self.criterion == "imbalance":
            return _relative_violation(sums, row_totals)
        # 'dual-gradient': after a column phase the column constraints hold
        # exactly; the dual gradient that remains is the row residual (25).
        return float(np.max(np.abs(sums - row_totals)))

    def stalled(
        self,
        residual: float,
        x: np.ndarray,
        row_totals: np.ndarray,
        n: int,
        row_sums: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> bool:
        """Whether a passing ``delta-x`` check is a stall, not a stop.

        The column-phase iterate can repeat to roundoff while the duals
        still drift: when every cell their drift reaches sits at its zero
        bound, ``x`` does not show it, and a 2x2 problem whose optimum
        needs an off-diagonal cell the sweeps have not lifted yet would
        stop with a row far from its total.  An iterate that did not move
        beyond roundoff therefore stops only if its rows also balance to
        ``n`` per-cell moves of ``eps`` (or of that roundoff).  An
        iterate that still moves is left to the paper's rule, as are the
        criteria that read the rows themselves.  ``n`` is the column
        count; ``row_sums`` as for :meth:`residual`.
        """
        if self.criterion != "delta-x" or x.size == 0:
            return False
        roundoff = _FROZEN_ULPS * np.finfo(np.float64).eps * max(
            float(x.max()), -float(x.min()), 1.0
        )
        if residual > roundoff:
            return False
        sums = x.sum(axis=1) if row_sums is None else row_sums(x)
        imbalance = float(np.max(np.abs(sums - row_totals)))
        return imbalance > n * max(self.eps, roundoff)


# A frozen iterate: at most this many units in the last place of its
# largest entry away from the previous one.  The stalls seen on small
# fixed-totals problems repeat to 1 ulp; tolerance-level stops of the
# paper's rule move by many orders of magnitude more.
_FROZEN_ULPS = 256
