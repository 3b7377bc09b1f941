"""Fused batch solving of same-shape, same-kind diagonal problems.

The SEA row phase solves ``m`` independent piecewise-linear equations;
for ``k`` problems of one shape the ``k*m`` equations are *still*
independent, so the batch stacks every problem's breakpoint rows into
one ``(k*m, n)`` kernel call per phase — one sort + prefix-sum fan-out
where a per-request loop would pay ``k`` of them.  Column phases stack
to ``(k*n, m)`` the same way.  All per-iteration state lives in 3-D
``(k, m, n)`` arrays, so the hot path is pure vectorized NumPy with no
per-problem Python loop.

The independence argument is kind-agnostic: the elastic terms the
variants feed the kernel (``a``, ``c``, total-recovery formulas
23b/23c/40b) are elementwise, so :func:`solve_batch` handles fixed,
elastic and SAM problems through the *same*
:class:`~repro.core.sea.DiagonalVariant` specs the solo solvers use —
one source of truth for the variant constants.  Because the kernel is
exact and row-separable, every problem's iterates are bit-identical to
what a solo :func:`repro.core.sea.solve_fixed` /
:func:`~repro.core.sea.solve_elastic` / :func:`~repro.core.sea.solve_sam`
would produce from the same ``mu0`` (asserted in the tests).  Problems
retire from the batch individually as they meet the stopping rule, so a
slow straggler never pads the others' iteration counts.  Finalized
results copy out of the shared stacks, so every returned array owns its
memory.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.result import PhaseCounts, SolveResult
from repro.core.sea import variant_spec
from repro.equilibration.exact import solve_piecewise_linear
from repro.equilibration.workspace import SweepWorkspace

__all__ = ["solve_batch"]


def _ravel(v: np.ndarray | None) -> np.ndarray | None:
    return None if v is None else v.reshape(-1)


def _shrink_workspace(ws, act_prev, act, blk):
    """Retain the surviving problems' rows of a stacked workspace.

    ``act`` is a subset of ``act_prev`` (retirement only removes);
    problem ``i``'s rows sit at block ``pos`` of the previous stack,
    where ``pos`` is ``i``'s position within ``act_prev``.
    """
    pos = np.searchsorted(act_prev, act)
    keep = (pos[:, None] * blk + np.arange(blk)).ravel()
    ws.retain(keep)


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
    stop = stop or spec.default_stop()
    t0 = time.perf_counter()
    m, n = problems[0].shape
    for p in problems:
        if type(p) is not cls:
            raise TypeError("all problems in a batch must share one kind")
        if p.shape != (m, n):
            raise ValueError("all problems in a batch must share one shape")
    k = len(problems)
    if mu0s is None:
        mu0s = [None] * k
    if len(mu0s) != k:
        raise ValueError("mu0s must align with problems")

    if workspaces is None:
        workspaces = (SweepWorkspace(k * m, n), SweepWorkspace(k * n, m))
    row_ws, col_ws = workspaces
    # Problem-major 3-D stacks: axis 0 is the batch dimension.
    base = np.empty((k, m, n))
    slopes = np.empty((k, m, n))
    x = np.empty((k, m, n))
    for i, p in enumerate(problems):
        base[i], slopes[i], x[i] = row_ws.prepare(p)
    base_t = np.ascontiguousarray(base.transpose(0, 2, 1))
    slopes_t = np.ascontiguousarray(slopes.transpose(0, 2, 1))
    packed = [spec.pack(p) for p in problems]
    data = {key: np.stack([pk[key] for pk in packed]) for key in packed[0]}
    mu = np.stack([
        np.zeros(n) if w is None else np.asarray(w, dtype=np.float64)
        for w in mu0s
    ])
    lam = np.zeros((k, m))
    x_prev = x.copy()

    iterations = np.zeros(k, dtype=int)
    checks = np.zeros(k, dtype=int)
    residual = np.full(k, np.inf)
    results: list[SolveResult | None] = [None] * k
    active = np.arange(k)

    # Gathered per-active-set stacks: plain views of the full stacks
    # while every problem is live (zero copies per sweep), regathered
    # once per retirement instead of once per iteration.
    g_base, g_base_t = base, base_t
    g_row_slopes = slopes.reshape(k * m, n)
    g_col_slopes = slopes_t.reshape(k * n, m)
    xbuf = np.empty((k * n, m))

    def _row(i: int) -> dict:
        return {key: v[i] for key, v in data.items()}

    def _finalize(i: int, converged: bool) -> None:
        p = problems[i]
        counts = PhaseCounts(cells=m * n)
        for _ in range(int(iterations[i])):
            counts.add_equilibration(m, n)
            counts.add_equilibration(n, m)
        for _ in range(int(checks[i])):
            counts.add_convergence_check(m, n)
        # Copy out of the shared stacks: a result must own its arrays —
        # returning views would pin the whole batch buffer alive and let
        # a caller's in-place edit corrupt its batch-mates' results.
        x_i, lam_i, mu_i = x[i].copy(), lam[i].copy(), mu[i].copy()
        s_i, d_i = spec.totals(_row(i), lam_i, mu_i)
        s_i = np.array(s_i, dtype=np.float64)
        d_i = np.array(d_i, dtype=np.float64)
        results[i] = SolveResult(
            x=x_i,
            s=s_i,
            d=d_i,
            lam=lam_i,
            mu=mu_i,
            converged=converged,
            iterations=int(iterations[i]),
            residual=float(residual[i]),
            objective=spec.objective(p, x_i, s_i, d_i),
            elapsed=time.perf_counter() - t0,
            algorithm=spec.algorithm,
            counts=counts,
        )

    for t in range(1, stop.max_iterations + 1):
        a = active.size
        iterations[active] = t
        sub = {key: v[active] for key, v in data.items()}

        # Fused row phase: one kernel call over a*m subproblems.
        target_r, a_r, c_r = spec.row_terms(sub, mu[active])
        row_b = row_ws.shift_stack(g_base, mu[active])
        lam[active] = kernel(
            row_b, g_row_slopes, _ravel(target_r),
            a=_ravel(a_r), c=_ravel(c_r), workspace=row_ws,
        ).reshape(a, m)

        # Fused column phase plus vectorized primal recovery (eq. 23a).
        target_c, a_c, c_c = spec.col_terms(sub, lam[active])
        col_b = col_ws.shift_stack(g_base_t, lam[active])
        mu_flat = kernel(
            col_b, g_col_slopes, _ravel(target_c), a=_ravel(a_c),
            c=_ravel(c_c), workspace=col_ws,
        )
        xv = xbuf[: a * n]
        np.subtract(mu_flat[:, None], col_b, out=xv)
        np.maximum(xv, 0.0, out=xv)
        np.multiply(xv, g_col_slopes, out=xv)
        mu[active] = mu_flat.reshape(a, n)
        x[active] = xv.reshape(a, n, m).transpose(0, 2, 1)

        # Serial phase: per-problem convergence check and retirement.
        if stop.due(t):
            if stop.criterion == "delta-x":
                # Vectorized across the batch (same math as stop.residual).
                residual[active] = np.abs(
                    x[active] - x_prev[active]
                ).reshape(a, -1).max(axis=1)
            else:
                for i in active:
                    s_i, d_i = spec.totals(_row(i), lam[i], mu[i])
                    residual[i] = stop.residual(x[i], x_prev[i], s_i, d_i)
            checks[active] += 1
            done = residual[active] <= stop.eps
            for j in np.flatnonzero(done):
                i = active[j]
                s_i, _ = spec.totals(_row(i), lam[i], mu[i])
                done[j] = not stop.stalled(residual[i], x[i], s_i, n)
            retired = active[done]
            if retired.size:
                for i in retired:
                    _finalize(i, converged=True)
                survivors = active[~done]
                if survivors.size:
                    # Regather the stacks once per retirement and keep
                    # the survivors' cached permutations (no re-sort).
                    g_base = np.ascontiguousarray(base[survivors])
                    g_base_t = np.ascontiguousarray(base_t[survivors])
                    g_row_slopes = slopes[survivors].reshape(-1, n)
                    g_col_slopes = slopes_t[survivors].reshape(-1, m)
                    _shrink_workspace(row_ws, active, survivors, m)
                    _shrink_workspace(col_ws, active, survivors, n)
                active = survivors
        x_prev[active] = x[active]
        if active.size == 0:
            break

    for i in active:
        _finalize(i, converged=False)
    return results  # type: ignore[return-value]
