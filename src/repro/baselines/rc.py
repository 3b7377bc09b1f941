"""The RC equilibration algorithm (Nagurney, Kim & Robinson 1990).

For *diagonal* fixed-totals problems RC coincides with SEA (the paper
notes the fixed-totals diagonal SEA "is equivalent to the diagonal RC
algorithm"); :func:`repro.core.sea.solve_fixed` is that algorithm.

For *general* problems the two differ in where the projection
(diagonalization) loop sits — the source of the Table 7/9 gap:

* **SEA** runs ONE projection loop outside the row/column splitting;
  each projection step is a full diagonal SEA solve and projection
  convergence is verified once per outer iteration (Figure 4).
* **RC** first minimizes the general objective subject to the *row*
  constraints only, running a projection loop to convergence (each
  inner step = m independent exact row equilibrations), then does the
  same for the *column* constraints, and cycles (Figure 6).  Every
  row-stage/column-stage carries its own serial projection-convergence
  verification — the extra serial phase that hurts its parallel
  efficiency in Table 9.

The cross-constraint coupling is carried by the dual multipliers exactly
as in diagonal SEA: the row stage minimizes
``F(x) - sum_j mu_j (sum_i x_ij - d0_j)`` and yields fresh ``lam``; the
column stage the reverse.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.problems import GeneralProblem
from repro.core.result import PhaseCounts, SolveResult
from repro.equilibration.exact import recover_flows, solve_piecewise_linear

__all__ = ["solve_rc_general"]


def _stage(
    problem: GeneralProblem,
    x_start: np.ndarray,
    opposite_mu: np.ndarray,
    targets: np.ndarray,
    transpose: bool,
    inner_stop: StoppingRule,
    kernel,
    counts: PhaseCounts,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One RC stage: minimize the general objective under one constraint
    family only, via the projection method.

    Returns the stage-optimal flows, the fresh multipliers of the
    enforced family, and the number of projection iterations used.
    """
    m, n = problem.shape
    mask = problem.mask
    gamma_diag = np.diag(problem.G).reshape(m, n)
    x0 = np.where(mask, problem.x0, 0.0)
    gamma_eff = gamma_diag.T if transpose else gamma_diag
    mask_eff = mask.T if transpose else mask
    slopes = np.where(mask_eff, 1.0 / (2.0 * np.where(mask_eff, gamma_eff, 1.0)), 0.0)

    x = x_start
    lam = np.zeros(n if transpose else m)
    for k in range(1, inner_stop.max_iterations + 1):
        dx = np.where(mask, x - x0, 0.0).ravel()
        coupled = (problem.G @ dx - np.diag(problem.G) * dx).reshape(m, n)
        x_hat = x0 - coupled / gamma_diag
        counts.add_matvec(m * n)
        if transpose:
            x_hat = x_hat.T
        base = np.where(mask_eff, -2.0 * gamma_eff * x_hat, 0.0)
        b = base - opposite_mu[None, :]
        lam = kernel(b, slopes, targets)
        x_new = recover_flows(lam, b, slopes)
        if transpose:
            x_new = x_new.T
        counts.add_equilibration(*((n, m) if transpose else (m, n)))
        resid = float(np.max(np.abs(x_new - x)))
        counts.add_convergence_check(m, n)  # per-stage serial verification
        x = x_new
        if resid <= inner_stop.eps:
            break
    return x, lam, k


def solve_rc_general(
    problem: GeneralProblem,
    stop: StoppingRule | None = None,
    inner_stop: StoppingRule | None = None,
    kernel=solve_piecewise_linear,
    record_history: bool = False,
) -> SolveResult:
    """RC for the general fixed-totals constrained matrix problem.

    Parameters mirror :func:`repro.core.sea_general.solve_general`; only
    ``kind='fixed'`` problems are supported (RC and B-K were designed
    for that class, which is also where the paper compares them).
    """
    if problem.kind != "fixed":
        raise ValueError("RC is defined for fixed-totals problems")
    stop = stop or StoppingRule(eps=1e-3, criterion="delta-x")
    inner_stop = inner_stop or StoppingRule(eps=1e-4, criterion="delta-x", max_iterations=200)
    t0 = time.perf_counter()
    m, n = problem.shape

    x = np.where(problem.mask, np.maximum(problem.x0, 0.0), 0.0)
    lam = np.zeros(m)
    mu = np.zeros(n)
    counts = PhaseCounts(cells=m * n)
    history: list[float] = []
    converged = False
    residual = np.inf
    inner_total = 0

    for t in range(1, stop.max_iterations + 1):
        x_prev = x
        # Row stage: rows enforced, columns priced through mu.
        x, lam, k_row = _stage(
            problem, x, mu, problem.s0, False, inner_stop, kernel, counts
        )
        # Column stage: columns enforced, rows priced through lam.
        x, mu, k_col = _stage(
            problem, x, lam, problem.d0, True, inner_stop, kernel, counts
        )
        inner_total += k_row + k_col

        residual = float(np.max(np.abs(x - x_prev)))
        counts.add_convergence_check(m, n)
        if record_history:
            history.append(residual)
        if residual <= stop.eps and not stop.stalled(
            residual, x, problem.s0, n
        ):
            converged = True
            break

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
        algorithm="RC-general",
        inner_iterations=inner_total,
        history=history,
        counts=counts,
    )
