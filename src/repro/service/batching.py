"""Fused batch solving of same-shape, same-kind diagonal problems.

The SEA row phase solves ``m`` independent piecewise-linear equations;
for ``k`` problems of one shape the ``k*m`` equations are *still*
independent, so a batch is one stack for the one SEA driver,
:func:`repro.core.sea.run_diagonal`, which solo solves run as a stack
of one: each phase is one ``(k*m, n)`` or ``(k*n, m)`` kernel call —
one sort + prefix-sum fan-out where a per-request loop would pay ``k``
of them.  The argument is kind-agnostic (the variants' kernel terms
and total recoveries, 23b/23c/40b, are elementwise), so fixed, elastic
and SAM problems go through the same
:class:`~repro.core.sea.DiagonalVariant` specs as solo solves.

Because the kernel is exact and row-separable, and Step 3 checks each
problem on its own iterate, every problem's answer is bit-identical to
what a solo :func:`repro.core.sea.solve_fixed` /
:func:`~repro.core.sea.solve_elastic` / :func:`~repro.core.sea.solve_sam`
would give from the same ``mu0``.  Problems retire from the batch
individually as they meet the stopping rule, so a slow straggler never
pads the others' iteration counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.result import SolveResult
from repro.core.sea import run_diagonal, variant_spec
from repro.equilibration.exact import solve_piecewise_linear

__all__ = ["solve_batch"]


def solve_batch(
    problems: list,
    stop: StoppingRule | None = None,
    mu0s: list[np.ndarray | None] | None = None,
    kernel=solve_piecewise_linear,
    workspaces=None,
) -> list[SolveResult]:
    """Solve a batch of same-shape, same-kind diagonal problems in lockstep.

    Parameters
    ----------
    problems:
        :class:`~repro.core.problems.FixedTotalsProblem`,
        :class:`~repro.core.problems.ElasticProblem` or
        :class:`~repro.core.problems.SAMProblem` instances — all of one
        kind and one ``(m, n)`` shape (masks and weights may differ
        freely).
    stop:
        One stopping rule applied to every problem (the batch scheduler
        only fuses requests whose rules agree); defaults to the kind's
        paper rule.
    mu0s:
        Optional per-problem warm starts, aligned with ``problems``.
    kernel:
        Piecewise-linear solver meeting the :data:`repro.core.sea.Kernel`
        contract; stacked phases go through it in one call, so a
        :class:`~repro.parallel.executor.ParallelKernel` splits the
        fused fan-out across its workers.
    workspaces:
        ``(row, column)`` :class:`~repro.equilibration.workspace.
        SweepWorkspace` pair with row capacities ``k*m`` and ``k*n``
        (e.g. retained by the service per kind+shape group); a fresh
        pair by default.  The whole batch shares one persistent buffer
        set per phase, and the cached sort permutations survive problem
        retirements via :meth:`~repro.equilibration.workspace.
        SweepWorkspace.retain`.

    Returns
    -------
    list[SolveResult]
        Aligned with ``problems``; every array is an owned copy (never a
        view into the batch stacks), and ``elapsed`` is each problem's
        time to retirement, so the values overlap rather than add up.
    """
    if not problems:
        return []
    spec = variant_spec(problems[0])
    cls = type(problems[0])
    shape = problems[0].shape
    for p in problems:
        if type(p) is not cls:
            raise TypeError("all problems in a batch must share one kind")
        if p.shape != shape:
            raise ValueError("all problems in a batch must share one shape")
    if mu0s is None:
        mu0s = [None] * len(problems)
    if len(mu0s) != len(problems):
        raise ValueError("mu0s must align with problems")
    return run_diagonal(problems, spec, stop, mu0s, kernel, False, workspaces)
