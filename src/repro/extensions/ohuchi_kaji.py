"""Ohuchi-Kaji (1984): Lagrangean dual coordinatewise maximization.

The paper cites Ohuchi & Kaji's dual method as a predecessor for the
fixed-totals model.  It maximizes the same dual ``zeta_3`` as SEA, but
*one multiplier at a time* with immediate (Gauss-Seidel) effect,
interleaving rows and columns — whereas SEA updates each constraint
family as one parallel block.  The comparison isolates the paper's
architectural point: per sweep, the interleaved scheme can make more
progress (fresher information), but every single update depends on the
previous one, so the method is inherently serial; SEA's block structure
is what buys the processor-per-subproblem parallelism of Tables 6/9.

Each coordinate update is one scalar exact equilibration; all work is
charged to the *serial* phase of the cost model accordingly.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.problems import FixedTotalsProblem
from repro.core.result import PhaseCounts, SolveResult
from repro.equilibration.scalar import solve_piecewise_linear_scalar

__all__ = ["solve_ohuchi_kaji"]


def solve_ohuchi_kaji(
    problem: FixedTotalsProblem,
    stop: StoppingRule | None = None,
    record_history: bool = False,
) -> SolveResult:
    """Dual coordinatewise maximization for the fixed-totals problem.

    Cycles ``lam_1, mu_1, lam_2, mu_2, ...`` (then the tail of the
    longer family), each update being the exact scalar maximization of
    ``zeta_3`` in that coordinate.  Converges to the same optimum as
    SEA (asserted in the tests).
    """
    stop = stop or StoppingRule(eps=1e-2, criterion="delta-x")
    t0 = time.perf_counter()
    m, n = problem.shape
    mask = problem.mask
    gamma_safe = np.where(mask, problem.gamma, 1.0)
    x0_safe = np.where(mask, problem.x0, 0.0)
    base = np.where(mask, -2.0 * gamma_safe * x0_safe, 0.0)
    slopes = np.where(mask, 1.0 / (2.0 * gamma_safe), 0.0)

    lam = np.zeros(m)
    mu = np.zeros(n)
    counts = PhaseCounts(cells=m * n)
    history: list[float] = []
    converged = False
    residual = np.inf
    x_prev = np.where(mask, np.maximum(problem.x0, 0.0), 0.0)
    x = x_prev

    for t in range(1, stop.max_iterations + 1):
        for k in range(max(m, n)):
            if k < m:
                lam[k] = solve_piecewise_linear_scalar(
                    base[k] - mu, slopes[k], problem.s0[k]
                )
            if k < n:
                mu[k] = solve_piecewise_linear_scalar(
                    base[:, k] - lam, slopes[:, k], problem.d0[k]
                )
        # Every coordinate update consumed the previous one's output:
        # the whole sweep is serial work.
        counts.serial_ops += m * (9.0 * n + n * np.log(max(n, 2)))
        counts.serial_ops += n * (9.0 * m + m * np.log(max(m, 2)))

        x = slopes * np.maximum(lam[:, None] + mu[None, :] - base, 0.0)
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
        algorithm="Ohuchi-Kaji",
        history=history,
        counts=counts,
    )
