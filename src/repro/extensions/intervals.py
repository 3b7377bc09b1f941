"""Interval constraints on the row and column totals.

Harrigan & Buchanan (1984) estimate I/O tables with the totals known
only up to intervals — ``s_lo <= sum_j x_ij <= s_hi`` — rather than
exactly (the paper's Section 2 cites this as the model its diagonal
case specializes).  The splitting scheme handles it through
complementarity: for each row,

* solve the *unconstrained* row (multiplier ``lam = 0``) and keep it if
  its total already lies inside the interval;
* otherwise pin the total to the violated endpoint and solve the
  fixed-total subproblem for it with the standard one-breakpoint
  kernel (``lam > 0`` at the lower endpoint, ``lam < 0`` at the upper).

Both branches are vectorized across all rows at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.result import PhaseCounts, SolveResult
from repro.equilibration.exact import solve_piecewise_linear

__all__ = ["IntervalTotalsProblem", "solve_intervals"]


@dataclass(frozen=True)
class IntervalTotalsProblem:
    """Quadratic constrained matrix problem with interval totals.

    Minimize ``sum gamma (x - x0)^2`` subject to
    ``s_lo_i <= sum_j x_ij <= s_hi_i``, ``d_lo_j <= sum_i x_ij <= d_hi_j``
    and ``x >= 0``.  Degenerate intervals (``lo == hi``) recover the
    fixed-totals model.
    """

    x0: np.ndarray
    gamma: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray
    d_lo: np.ndarray
    d_hi: np.ndarray
    name: str = "interval"

    def __post_init__(self) -> None:
        x0 = np.asarray(self.x0, dtype=np.float64)
        m, n = x0.shape
        gamma = np.asarray(self.gamma, dtype=np.float64)
        s_lo = np.asarray(self.s_lo, dtype=np.float64)
        s_hi = np.asarray(self.s_hi, dtype=np.float64)
        d_lo = np.asarray(self.d_lo, dtype=np.float64)
        d_hi = np.asarray(self.d_hi, dtype=np.float64)
        if gamma.shape != (m, n):
            raise ValueError("gamma must match x0")
        if s_lo.shape != (m,) or s_hi.shape != (m,):
            raise ValueError("row intervals must be (m,)")
        if d_lo.shape != (n,) or d_hi.shape != (n,):
            raise ValueError("column intervals must be (n,)")
        if np.any(gamma <= 0.0):
            raise ValueError("gamma must be strictly positive")
        if np.any(s_lo > s_hi) or np.any(d_lo > d_hi):
            raise ValueError("interval lower ends must not exceed upper ends")
        if np.any(s_lo < 0.0) or np.any(d_lo < 0.0):
            raise ValueError("totals of nonnegative flows cannot be negative")
        # Necessary joint feasibility: the interval boxes must overlap.
        if s_lo.sum() > d_hi.sum() + 1e-9 or d_lo.sum() > s_hi.sum() + 1e-9:
            raise ValueError("row and column interval sums are incompatible")
        for attr, val in (("x0", x0), ("gamma", gamma), ("s_lo", s_lo),
                          ("s_hi", s_hi), ("d_lo", d_lo), ("d_hi", d_hi)):
            object.__setattr__(self, attr, val)

    @property
    def shape(self) -> tuple[int, int]:
        return self.x0.shape

    def objective(self, x: np.ndarray) -> float:
        return float(np.sum(self.gamma * (x - self.x0) ** 2))

    def total_violation(self, x: np.ndarray) -> float:
        """Worst interval violation of a candidate (0 when feasible)."""
        rows = x.sum(axis=1)
        cols = x.sum(axis=0)
        return max(
            float(np.max(np.maximum(self.s_lo - rows, 0.0), initial=0.0)),
            float(np.max(np.maximum(rows - self.s_hi, 0.0), initial=0.0)),
            float(np.max(np.maximum(self.d_lo - cols, 0.0), initial=0.0)),
            float(np.max(np.maximum(cols - self.d_hi, 0.0), initial=0.0)),
        )


def _interval_sweep(x0, gamma, mu, lo, hi):
    """One interval-total equilibration over all rows.

    Returns ``(lam, x)`` where per row: ``lam = 0`` if the unconstrained
    total falls inside ``[lo, hi]``; otherwise the exact fixed-total
    multiplier for the violated endpoint.
    """
    slopes = 1.0 / (2.0 * gamma)
    b = -(2.0 * gamma * x0 + mu[None, :])

    free_total = (slopes * np.maximum(-b, 0.0)).sum(axis=1)  # g(0)
    target = np.where(free_total < lo, lo, np.where(free_total > hi, hi, free_total))
    # Solving for the clipped target returns lam == 0 on interior rows
    # automatically, so one vectorized kernel call covers all branches.
    lam = solve_piecewise_linear(b, slopes, target)
    interior = (free_total >= lo) & (free_total <= hi)
    lam = np.where(interior, 0.0, lam)
    x = slopes * np.maximum(lam[:, None] - b, 0.0)
    return lam, x


def solve_intervals(
    problem: IntervalTotalsProblem,
    stop: StoppingRule | None = None,
    record_history: bool = False,
) -> SolveResult:
    """Splitting equilibration with interval totals (Harrigan-Buchanan).

    Alternates the row and column interval sweeps; each sweep solves its
    whole constraint family exactly in closed form, as in classical SEA.
    """
    stop = stop or StoppingRule(eps=1e-2, criterion="delta-x")
    t0 = time.perf_counter()
    m, n = problem.shape
    mu = np.zeros(n)
    lam = np.zeros(m)
    x_prev = np.maximum(problem.x0, 0.0)
    counts = PhaseCounts(cells=m * n)
    history: list[float] = []
    converged = False
    residual = np.inf
    x = x_prev

    for t in range(1, stop.max_iterations + 1):
        lam, _ = _interval_sweep(
            problem.x0, problem.gamma, mu, problem.s_lo, problem.s_hi
        )
        counts.add_equilibration(m, n)
        mu, x_t = _interval_sweep(
            problem.x0.T, problem.gamma.T, lam, problem.d_lo, problem.d_hi
        )
        x = x_t.T
        counts.add_equilibration(n, m)

        if stop.due(t):
            # Rows are measured against their nearest feasible totals, so
            # a row inside its interval counts as balanced.
            rows = np.clip(x.sum(axis=1), problem.s_lo, problem.s_hi)
            residual = stop.residual(x, x_prev, rows, problem.d_hi)
            counts.add_convergence_check(m, n)
            if record_history:
                history.append(residual)
            if residual <= stop.eps and not stop.stalled(
                residual, x, rows, n
            ):
                converged = True
                break
        x_prev = x

    return SolveResult(
        x=x,
        s=x.sum(axis=1),
        d=x.sum(axis=0),
        lam=lam,
        mu=mu,
        converged=converged,
        iterations=t,
        residual=residual,
        objective=problem.objective(x),
        elapsed=time.perf_counter() - t0,
        algorithm="SEA-interval",
        history=history,
        counts=counts,
    )
