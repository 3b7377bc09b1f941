"""Constrained matrix problems with cell bounds ``l <= x <= u``.

Ohuchi & Kaji (1984) studied the Bachem-Korte problem with upper and
lower bounds; the paper's Section 2 cites it as one of the published
variants its framework covers.  Exact equilibration extends naturally:
with bounds, the single-row stationarity condition becomes

    x_ij(lam) = clip(x0_ij + (lam + mu_j) / (2 gamma_ij), l_ij, u_ij)

so the row response ``g_i(lam) = sum_j x_ij(lam)`` is piecewise linear
and nondecreasing with *two* breakpoints per cell — the slope of cell
``j`` switches on at ``b_lo = 2 gamma (l - x0) - mu`` and off at
``b_hi = 2 gamma (u - x0) - mu``.  The closed-form solve is the same
sort-plus-prefix-sums routine over the merged event list, vectorized
across all rows exactly like the one-breakpoint kernel.

Setting ``l = 0, u = inf`` recovers the classical problem (asserted in
the tests), so this module is a strict generalization of
:mod:`repro.equilibration.exact`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.result import PhaseCounts, SolveResult

__all__ = ["solve_piecewise_linear_bounded", "BoundedProblem", "solve_bounded"]

_BIG = np.finfo(np.float64).max / 8.0


def solve_piecewise_linear_bounded(
    b_lo: np.ndarray,
    b_hi: np.ndarray,
    slopes: np.ndarray,
    lower_sum: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Solve ``m`` independent bounded-cell equations exactly.

    Find ``lam_i`` such that::

        g_i(lam) = lower_sum_i
                 + sum_j slope_ij * (min(lam, b_hi_ij) - b_lo_ij)_+ = target_i

    Parameters
    ----------
    b_lo, b_hi:
        ``(m, n)`` per-cell activation/saturation breakpoints
        (``b_lo <= b_hi``; infinite ``b_hi`` = unbounded above).
    slopes:
        ``(m, n)`` nonnegative slopes (0 = inert cell).
    lower_sum:
        ``(m,)`` value of ``g`` at ``lam = -inf`` (the sum of lower
        bounds over active cells).
    target:
        ``(m,)`` required row totals; must lie within
        ``[g(-inf), g(+inf)]`` per row.

    Returns
    -------
    ``(m,)`` multipliers.  Rows where ``target`` equals an attainable
    endpoint return the corresponding extreme segment's multiplier.
    """
    b_lo = np.asarray(b_lo, dtype=np.float64)
    b_hi = np.asarray(b_hi, dtype=np.float64)
    slopes = np.asarray(slopes, dtype=np.float64)
    m, n = b_lo.shape
    target = np.asarray(target, dtype=np.float64)
    lower_sum = np.asarray(lower_sum, dtype=np.float64)
    if np.any(slopes < 0.0):
        raise ValueError("slopes must be nonnegative")
    if np.any(b_hi < b_lo):
        raise ValueError("b_hi must dominate b_lo")

    rhs = target - lower_sum
    if np.any(rhs < -1e-9 * np.maximum(np.abs(target), 1.0)):
        bad = int(np.argmin(rhs))
        raise ValueError(
            f"row {bad} infeasible: target below the lower-bound sum"
        )
    upper_gain = np.where(
        np.isfinite(b_hi), slopes * (b_hi - b_lo), np.where(slopes > 0, np.inf, 0.0)
    ).sum(axis=1)
    if np.any(rhs > upper_gain * (1 + 1e-12) + 1e-9 * np.maximum(np.abs(target), 1.0)):
        bad = int(np.argmax(rhs - upper_gain))
        raise ValueError(
            f"row {bad} infeasible: target above the upper-bound sum"
        )

    # Event list: slope turns on at b_lo (+slope), off at b_hi (-slope).
    # Inert and infinite events are parked at _BIG with zero delta.
    on_b = np.where(slopes > 0, b_lo, _BIG)
    off_b = np.where((slopes > 0) & np.isfinite(b_hi), b_hi, _BIG)
    events = np.concatenate([on_b, off_b], axis=1)
    deltas = np.concatenate(
        [np.where(slopes > 0, slopes, 0.0),
         np.where((slopes > 0) & np.isfinite(b_hi), -slopes, 0.0)],
        axis=1,
    )
    order = np.argsort(events, axis=1, kind="stable")
    ev = np.take_along_axis(events, order, axis=1)
    dl = np.take_along_axis(deltas, order, axis=1)

    # After event k: slope S_k = cumsum(dl), offset T_k = cumsum(dl * ev);
    # on segment [ev_k, ev_{k+1}]: g(lam) - lower_sum = S_k*lam - T_k.
    S = np.cumsum(dl, axis=1)
    T = np.cumsum(dl * ev, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = (rhs[:, None] + T) / S
    lo = ev
    hi = np.concatenate([ev[:, 1:], np.full((m, 1), np.inf)], axis=1)
    valid = (cand >= lo) & (cand <= hi) & (S > 0.0) & np.isfinite(cand)

    lam = np.empty(m)
    any_valid = valid.any(axis=1)
    first = np.argmax(valid, axis=1)
    rows = np.arange(m)
    lam[any_valid] = cand[rows[any_valid], first[any_valid]]

    # Degenerate rows: target at the lower-bound sum (lam below every
    # event) or floating-point ties defeating the strict tests.
    missing = ~any_valid
    if np.any(missing):
        at_bottom = missing & (np.abs(rhs) <= 1e-9 * np.maximum(np.abs(target), 1.0))
        lam[at_bottom] = ev[at_bottom, 0] - 1.0
        missing &= ~at_bottom
    if np.any(missing):
        viol = np.maximum(np.maximum(lo - cand, cand - hi), 0.0)
        viol = np.where(np.isfinite(cand) & (S > 0.0), viol, np.inf)
        best = np.argmin(viol[missing], axis=1)
        lam[missing] = cand[np.flatnonzero(missing), best]
    return lam


@dataclass(frozen=True)
class BoundedProblem:
    """Fixed-totals constrained matrix problem with cell bounds.

    Minimize ``sum gamma (x - x0)^2`` subject to ``sum_j x_ij = s0_i``,
    ``sum_i x_ij = d0_j`` and ``l <= x <= u`` (Ohuchi & Kaji 1984's
    setting; ``l = 0, u = inf`` recovers
    :class:`~repro.core.problems.FixedTotalsProblem`).
    """

    x0: np.ndarray
    gamma: np.ndarray
    s0: np.ndarray
    d0: np.ndarray
    lower: np.ndarray = field(default=None)  # type: ignore[assignment]
    upper: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = "bounded"

    def __post_init__(self) -> None:
        x0 = np.asarray(self.x0, dtype=np.float64)
        m, n = x0.shape
        gamma = np.asarray(self.gamma, dtype=np.float64)
        s0 = np.asarray(self.s0, dtype=np.float64)
        d0 = np.asarray(self.d0, dtype=np.float64)
        lower = (np.zeros((m, n)) if self.lower is None
                 else np.asarray(self.lower, dtype=np.float64))
        upper = (np.full((m, n), np.inf) if self.upper is None
                 else np.asarray(self.upper, dtype=np.float64))
        if gamma.shape != (m, n) or lower.shape != (m, n) or upper.shape != (m, n):
            raise ValueError("gamma, lower, upper must match x0's shape")
        if s0.shape != (m,) or d0.shape != (n,):
            raise ValueError("totals must be (m,) and (n,)")
        if np.any(gamma <= 0.0):
            raise ValueError("gamma must be strictly positive")
        if np.any(lower > upper):
            raise ValueError("lower bounds must not exceed upper bounds")
        if not np.isclose(s0.sum(), d0.sum(), rtol=1e-9, atol=1e-6):
            raise ValueError("totals must balance")
        # Necessary feasibility: bounds can carry the totals.  (Summing
        # +inf entries is well-defined and warning-free; a huge finite
        # sentinel would overflow instead.)
        if np.any(lower.sum(axis=1) > s0 + 1e-9) or np.any(
            upper.sum(axis=1) < s0 - 1e-9
        ):
            raise ValueError("row totals incompatible with the cell bounds")
        for attr, val in (("x0", x0), ("gamma", gamma), ("s0", s0),
                          ("d0", d0), ("lower", lower), ("upper", upper)):
            object.__setattr__(self, attr, val)

    @property
    def shape(self) -> tuple[int, int]:
        return self.x0.shape

    def objective(self, x: np.ndarray) -> float:
        return float(np.sum(self.gamma * (x - self.x0) ** 2))


def _bounded_sweep(problem, mu, transpose: bool):
    """One bounded exact-equilibration phase over rows (or columns)."""
    gamma = problem.gamma.T if transpose else problem.gamma
    x0 = problem.x0.T if transpose else problem.x0
    lower = problem.lower.T if transpose else problem.lower
    upper = problem.upper.T if transpose else problem.upper
    target = problem.d0 if transpose else problem.s0

    b_lo = 2.0 * gamma * (lower - x0) - mu[None, :]
    b_hi = np.where(
        np.isfinite(upper), 2.0 * gamma * (upper - x0) - mu[None, :], np.inf
    )
    slopes = 1.0 / (2.0 * gamma)
    lam = solve_piecewise_linear_bounded(
        b_lo, b_hi, slopes, lower.sum(axis=1), target
    )
    x = np.clip(x0 + (lam[:, None] + mu[None, :]) * slopes, lower, upper)
    return lam, (x.T if transpose else x)


def solve_bounded(
    problem: BoundedProblem,
    stop: StoppingRule | None = None,
    record_history: bool = False,
) -> SolveResult:
    """SEA with cell bounds: the same row/column dual splitting, with
    the two-breakpoint kernel replacing the one-breakpoint one."""
    stop = stop or StoppingRule(eps=1e-2, criterion="delta-x")
    t0 = time.perf_counter()
    m, n = problem.shape
    mu = np.zeros(n)
    lam = np.zeros(m)
    x_prev = np.clip(problem.x0, problem.lower, problem.upper)
    counts = PhaseCounts(cells=m * n)
    history: list[float] = []
    converged = False
    residual = np.inf
    x = x_prev

    for t in range(1, stop.max_iterations + 1):
        lam, _ = _bounded_sweep(problem, mu, transpose=False)
        counts.add_equilibration(m, 2 * n)  # two events per cell
        mu, x = _bounded_sweep(problem, lam, transpose=True)
        counts.add_equilibration(n, 2 * m)

        if stop.due(t):
            residual = stop.residual(x, x_prev, problem.s0, problem.d0)
            counts.add_convergence_check(m, n)
            if record_history:
                history.append(residual)
            if residual <= stop.eps and not stop.stalled(
                residual, x, problem.s0, n
            ):
                converged = True
                break
        x_prev = x

    return SolveResult(
        x=x,
        s=problem.s0.copy(),
        d=problem.d0.copy(),
        lam=lam,
        mu=mu,
        converged=converged,
        iterations=t,
        residual=residual,
        objective=problem.objective(x),
        elapsed=time.perf_counter() - t0,
        algorithm="SEA-bounded",
        history=history,
        counts=counts,
    )
