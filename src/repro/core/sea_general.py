"""SEA for general (dense-weight) problems — Section 3.2, eq. (79).

The general quadratic constrained matrix problem couples all variables
through full positive definite weight matrices ``A``, ``B``, ``G``.  The
projection (diagonalization) method of Dafermos (1982, 1983) freezes the
off-diagonal couplings at the previous iterate and solves a *diagonal*
constrained matrix problem each outer iteration:

    minimize  sum_i  D_ii (z_i - c_i)^2   s.t. the original constraints,

    with  D = diag(M),  c = z0 - D^{-1} (M - D) (z^{t-1} - z0)

per weight block ``M in {A, G, B}``.  (Completing the square in the
paper's eq. (79) yields exactly this ``c``.)  Each diagonal subproblem
is solved by diagonal SEA — this nesting is what distinguishes SEA from
RC, which runs a projection loop *inside* each row/column stage instead
(see :mod:`repro.baselines.rc`).

Convergence of the outer loop requires the diagonal of each weight block
to dominate its off-diagonal part (strict diagonal dominance suffices,
and is how the paper generates its G matrices).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.problems import (
    ElasticProblem,
    FixedTotalsProblem,
    GeneralProblem,
    SAMProblem,
)
from repro.core.result import PhaseCounts, SolveResult
from repro.core.sea import solve_elastic, solve_fixed, solve_sam
from repro.equilibration.exact import solve_piecewise_linear
from repro.equilibration.workspace import SweepWorkspace

__all__ = ["solve_general", "diagonalized_bases", "default_stop"]


def default_stop() -> StoppingRule:
    """Outer stopping rule of :func:`solve_general` when given none."""
    return StoppingRule(eps=1e-3, criterion="delta-x")


def diagonalized_bases(
    M: np.ndarray, z_prev: np.ndarray, z0: np.ndarray
) -> np.ndarray:
    """Shifted bases ``c = z0 - D^{-1} (M - D)(z_prev - z0)`` for one block."""
    diag = np.diag(M)
    coupled = M @ (z_prev - z0) - diag * (z_prev - z0)
    return z0 - coupled / diag


def solve_general(
    problem: GeneralProblem,
    stop: StoppingRule | None = None,
    inner_stop: StoppingRule | None = None,
    mu0: np.ndarray | None = None,
    kernel=solve_piecewise_linear,
    record_history: bool = False,
    workspaces=None,
) -> SolveResult:
    """General SEA: projection outer loop around diagonal SEA.

    Parameters
    ----------
    problem:
        A :class:`~repro.core.problems.GeneralProblem` of any kind.
    stop:
        Outer stopping rule on ``|x^t - x^{t-1}|`` (paper Step 2);
        defaults to ``eps = 1e-3``.
    inner_stop:
        Stopping rule handed to the diagonal SEA subsolver.
    mu0:
        Initial column multipliers seeding the *first* projection
        step's diagonal solve (later steps chain their own warm
        starts); gives the general solver the same warm-start surface
        as the diagonal ones.
    kernel:
        Piecewise-linear kernel forwarded to diagonal SEA (lets the
        parallel executor drive the inner row/column sweeps); it meets
        the :data:`repro.core.sea.Kernel` contract.
    workspaces:
        ``(row, column)`` :class:`~repro.equilibration.workspace.
        SweepWorkspace` pair shared by *every* projection step's inner
        diagonal solve; a fresh pair by default.  ``gamma`` (hence the
        kernel's slopes) is constant across projections, so the
        workspaces' content-equality bind keeps the cached sort
        permutations alive from one projection to the next.
    """
    stop = stop or default_stop()
    t0 = time.perf_counter()
    m, n = problem.shape
    if workspaces is None:
        workspaces = (SweepWorkspace(m, n), SweepWorkspace(n, m))
    mask = problem.mask
    gamma_diag = np.diag(problem.G).reshape(m, n)
    x0 = np.where(mask, problem.x0, 0.0)

    x_prev = np.where(mask, np.maximum(problem.x0, 0.0), 0.0)
    s_prev = problem.s0.copy()
    d_prev = problem.d0.copy() if problem.d0 is not None else None

    counts = PhaseCounts(cells=m * n)
    history: list[float] = []
    converged = False
    residual = np.inf
    inner_total = 0
    inner = None
    warm_mu = None if mu0 is None else np.asarray(mu0, dtype=np.float64).copy()

    for t in range(1, stop.max_iterations + 1):
        dx = np.where(mask, x_prev - x0, 0.0).ravel()
        coupled = (problem.G @ dx - np.diag(problem.G) * dx).reshape(m, n)
        x_hat = x0 - coupled / gamma_diag
        counts.add_matvec(m * n)

        if problem.kind == "fixed":
            sub = FixedTotalsProblem(
                x0=x_hat,
                gamma=gamma_diag,
                s0=problem.s0,
                d0=problem.d0,
                mask=mask,
                name=f"{problem.name}/proj{t}",
            )
            inner = solve_fixed(
                sub, stop=inner_stop, mu0=warm_mu, kernel=kernel,
                workspaces=workspaces,
            )
        elif problem.kind == "elastic":
            s_hat = diagonalized_bases(problem.A, s_prev, problem.s0)
            d_hat = diagonalized_bases(problem.B, d_prev, problem.d0)
            sub = ElasticProblem(
                x0=x_hat,
                gamma=gamma_diag,
                s0=s_hat,
                d0=d_hat,
                alpha=np.diag(problem.A).copy(),
                beta=np.diag(problem.B).copy(),
                mask=mask,
                name=f"{problem.name}/proj{t}",
            )
            inner = solve_elastic(
                sub, stop=inner_stop, mu0=warm_mu, kernel=kernel,
                workspaces=workspaces,
            )
        else:  # sam
            s_hat = diagonalized_bases(problem.A, s_prev, problem.s0)
            sub = SAMProblem(
                x0=x_hat,
                gamma=gamma_diag,
                s0=s_hat,
                alpha=np.diag(problem.A).copy(),
                mask=mask,
                name=f"{problem.name}/proj{t}",
            )
            inner = solve_sam(
                sub, stop=inner_stop, mu0=warm_mu, kernel=kernel,
                workspaces=workspaces,
            )

        inner_total += inner.iterations
        counts = counts.merged_with(inner.counts)
        warm_mu = inner.mu

        x = inner.x
        s = inner.s
        d = inner.d
        residual = float(np.max(np.abs(x - x_prev)))
        counts.add_convergence_check(m, n)
        if record_history:
            history.append(residual)
        x_prev, s_prev, d_prev = x, s, d
        if residual <= stop.eps:
            converged = True
            break

    objective = problem.objective(
        x_prev,
        s=s_prev if problem.kind in ("elastic", "sam") else None,
        d=d_prev if problem.kind == "elastic" else None,
    )
    return SolveResult(
        x=x_prev,
        s=s_prev,
        d=d_prev if d_prev is not None else s_prev.copy(),
        lam=inner.lam,
        mu=inner.mu,
        converged=converged,
        iterations=t,
        residual=residual,
        objective=objective,
        elapsed=time.perf_counter() - t0,
        algorithm="SEA-general",
        inner_iterations=inner_total,
        history=history,
        counts=counts,
    )
