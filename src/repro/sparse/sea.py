"""SEA over the sparse execution path.

``solve_fixed_sparse`` / ``solve_elastic_sparse`` / ``solve_sam_sparse``
run the dense drivers' rule set — the same
:class:`~repro.core.sea.DiagonalVariant` kernel terms, recovered totals,
objective and default stopping rule, and the same
:meth:`~repro.core.convergence.StoppingRule.residual` — over one CSR
sweep loop that keeps only the active cells in memory: per sweep it
shifts the constant flat breakpoints by the opposite multipliers (a
gather), runs the segmented kernel, and recovers the flat flows.  On the
paper's IO72 family (16% dense) the per-sweep work drops by ~6x.  The
segmented kernel sums in another order than the dense one, so answers
agree with the dense path to floating-point roundoff, not bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.problems import ElasticProblem, FixedTotalsProblem, SAMProblem
from repro.core.result import PhaseCounts, SolveResult
from repro.core.sea import (
    DiagonalVariant,
    _ElasticVariant,
    _FixedVariant,
    _SAMVariant,
)
from repro.sparse.kernel import (
    SparseSweepWorkspace,
    solve_piecewise_linear_sparse,
)
from repro.sparse.structure import SparsePattern

__all__ = ["solve_fixed_sparse", "solve_elastic_sparse", "solve_sam_sparse"]


def _run_sparse(
    problem,
    spec: type[DiagonalVariant],
    stop: StoppingRule | None,
    record_history: bool,
    workspaces,
) -> SolveResult:
    """One CSR driver for all three diagonal variants.

    The iterate is the flat row-major vector of active cells; the
    convergence check hands :meth:`StoppingRule.residual` the pattern's
    O(nnz) row sums, so no check densifies the matrix.
    """
    stop = stop or spec.default_stop()
    t0 = time.perf_counter()
    m, n = problem.shape
    p = SparsePattern(problem.mask)
    nnz = p.nnz
    if workspaces is None:
        workspaces = (SparseSweepWorkspace(nnz, m), SparseSweepWorkspace(nnz, n))
    row_ws, col_ws = workspaces

    gamma = problem.gamma[p.rows, p.cols]
    x0 = problem.x0[p.rows, p.cols]
    base = -2.0 * gamma * x0  # flat, row-major
    slopes = 1.0 / (2.0 * gamma)
    # Column-major copies for the column sweep.
    base_c = base[p.csc_perm]
    slopes_c = slopes[p.csc_perm]
    data = spec.pack(problem)

    lam = np.zeros(m)
    mu = np.zeros(n)
    x_prev = np.maximum(x0, 0.0)
    x_flat = x_prev
    counts = PhaseCounts(cells=m * n)
    history: list[float] = []
    converged = False
    residual = np.inf
    row_len = max(int(nnz / max(m, 1)), 1)
    col_len = max(int(nnz / max(n, 1)), 1)

    for t in range(1, stop.max_iterations + 1):
        # Row sweep on row-major flats.
        target_r, a_r, c_r = spec.row_terms(data, mu)
        row_b = base - mu[p.cols]
        lam = solve_piecewise_linear_sparse(
            p.rows, row_b, slopes, m, target_r, a=a_r, c=c_r, workspace=row_ws
        )
        counts.add_equilibration(m, row_len)

        # Column sweep on column-major flats, then flows back to row-major.
        target_c, a_c, c_c = spec.col_terms(data, lam)
        col_b = base_c - lam[p.rows_c]
        mu = solve_piecewise_linear_sparse(
            p.cols_c, col_b, slopes_c, n, target_c, a=a_c, c=c_c,
            workspace=col_ws,
        )
        x_flat = np.empty(nnz)
        x_flat[p.csc_perm] = slopes_c * np.maximum(mu[p.cols_c] - col_b, 0.0)
        counts.add_equilibration(n, col_len)

        if stop.due(t):
            s, d = spec.totals(data, lam, mu)
            residual = stop.residual(x_flat, x_prev, s, d, row_sums=p.row_sums)
            counts.add_convergence_check(m, n)
            if record_history:
                history.append(residual)
            if residual <= stop.eps:
                converged = True
                break
        x_prev = x_flat

    s, d = spec.totals(data, lam, mu)
    s = np.array(s, dtype=np.float64)
    d = np.array(d, dtype=np.float64)
    x = p.to_dense(x_flat)
    return SolveResult(
        x=x,
        s=s,
        d=d,
        lam=lam,
        mu=mu,
        converged=converged,
        iterations=t,
        residual=residual,
        objective=spec.objective(problem, x, s, d),
        elapsed=time.perf_counter() - t0,
        algorithm=f"{spec.algorithm}-sparse",
        history=history,
        counts=counts,
    )


def solve_fixed_sparse(
    problem: FixedTotalsProblem,
    stop: StoppingRule | None = None,
    record_history: bool = False,
    workspaces=None,
) -> SolveResult:
    """Sparse-path SEA for masked fixed-totals problems."""
    return _run_sparse(problem, _FixedVariant, stop, record_history, workspaces)


def solve_elastic_sparse(
    problem: ElasticProblem,
    stop: StoppingRule | None = None,
    record_history: bool = False,
    workspaces=None,
) -> SolveResult:
    """Sparse-path SEA for masked elastic problems (unknown totals)."""
    return _run_sparse(
        problem, _ElasticVariant, stop, record_history, workspaces
    )


def solve_sam_sparse(
    problem: SAMProblem,
    stop: StoppingRule | None = None,
    record_history: bool = False,
    workspaces=None,
) -> SolveResult:
    """Sparse-path SEA for masked SAM problems (balanced totals)."""
    return _run_sparse(problem, _SAMVariant, stop, record_history, workspaces)
