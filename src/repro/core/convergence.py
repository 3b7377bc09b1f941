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
