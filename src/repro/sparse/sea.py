"""SEA on the sparse layout.

Sparse is a workspace layout of the one SEA driver, not a second
engine: ``solve_fixed_sparse`` / ``solve_elastic_sparse`` /
``solve_sam_sparse`` are the drivers of :mod:`repro.core.sea` on a
:class:`~repro.sparse.kernel.SparseSweepWorkspace` pair bound to the
problem's mask pattern, which keeps only the active cells: per sweep it
gathers the opposite multipliers into the flat breakpoints, runs the
segmented kernel and recovers the flat flows, and the convergence
check takes the pattern's O(nnz) row sums.  On the paper's IO72 family
(16% dense) the per-sweep work drops by ~6x.  The segmented kernel sums
in another order than the dense one, so answers agree with the dense
layout to roundoff, not bit for bit.  Passing such a pair as
``workspaces=`` to any diagonal driver (or :func:`repro.solve`) runs
the sparse layout with a warm start ``mu0`` or another kernel too.
"""

from __future__ import annotations

from repro.core.convergence import StoppingRule
from repro.core.problems import ElasticProblem, FixedTotalsProblem, SAMProblem
from repro.core.result import SolveResult
from repro.core.sea import solve_elastic, solve_fixed, solve_sam
from repro.sparse.kernel import SparseSweepWorkspace
from repro.sparse.structure import SparsePattern

__all__ = ["solve_fixed_sparse", "solve_elastic_sparse", "solve_sam_sparse"]


def _pair(problem, workspaces):
    """The caller's sparse pair, or a fresh one on the problem's mask."""
    if workspaces is None:
        return SparseSweepWorkspace.pair(SparsePattern(problem.mask))
    return workspaces


def solve_fixed_sparse(
    problem: FixedTotalsProblem,
    stop: StoppingRule | None = None,
    record_history: bool = False,
    workspaces=None,
) -> SolveResult:
    """Sparse-layout SEA for masked fixed-totals problems.

    :func:`~repro.core.sea.solve_fixed` on ``workspaces``, a
    :class:`~repro.sparse.kernel.SparseSweepWorkspace` pair bound to the
    problem's mask (a fresh one by default).
    """
    return solve_fixed(
        problem, stop=stop, record_history=record_history,
        workspaces=_pair(problem, workspaces),
    )


def solve_elastic_sparse(
    problem: ElasticProblem,
    stop: StoppingRule | None = None,
    record_history: bool = False,
    workspaces=None,
) -> SolveResult:
    """Sparse-layout SEA for masked elastic problems (unknown totals);
    ``workspaces`` as for :func:`solve_fixed_sparse`."""
    return solve_elastic(
        problem, stop=stop, record_history=record_history,
        workspaces=_pair(problem, workspaces),
    )


def solve_sam_sparse(
    problem: SAMProblem,
    stop: StoppingRule | None = None,
    record_history: bool = False,
    workspaces=None,
) -> SolveResult:
    """Sparse-layout SEA for masked SAM problems (balanced totals);
    ``workspaces`` as for :func:`solve_fixed_sparse`."""
    return solve_sam(
        problem, stop=stop, record_history=record_history,
        workspaces=_pair(problem, workspaces),
    )
