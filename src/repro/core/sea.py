"""The Splitting Equilibration Algorithm — diagonal problems (Section 3.1).

All three variants share one skeleton, the dual block-coordinate ascent

    lam^{t+1} -> max_lam  zeta(lam, mu^t)      (row equilibration)
    mu^{t+1}  -> max_mu   zeta(lam^{t+1}, mu)  (column equilibration)

where each block maximization decomposes into independent single-market
exact equilibrations (one per row, one per column).  The variants differ
only in the constants fed to the piecewise-linear kernel:

=========  =====================  ==========================================
Variant    Kernel elastic terms   Total recovery
=========  =====================  ==========================================
fixed      a = 0, c = 0,          s = s0, d = d0 (given)
           target = s0 / d0
elastic    a = 1/(2 alpha),       s_i = s0_i - lam_i/(2 alpha_i)      (23b)
           c = -s0, target = 0    d_j = d0_j - mu_j /(2 beta_j)       (23c)
sam        a = 1/(2 alpha),       s_i = s0_i - (lam_i+mu_i)/(2 alpha_i)
           c = mu_i/(2 alpha_i)                                        (40b)
               - s0_i, target = 0
=========  =====================  ==========================================

That table is code here: each variant is a :class:`DiagonalVariant` whose
static methods produce the kernel terms and recovered totals from the
problem's constant vectors.  The term formulas are elementwise, so they
apply unchanged to problem-major stacks of ``k`` same-shape problems:
the ``k*m`` row and ``k*n`` column equilibrations are as independent as
one problem's.  :func:`run_diagonal` is the one driver: a solo solve
(:func:`solve_fixed`, :func:`solve_elastic`, :func:`solve_sam`) is a
stack of one, and :func:`repro.service.batching.solve_batch` a stack of
``k``, so batch and solo solves run the same sweeps and the same Step 3
per problem, and agree bit for bit by construction.

Every solve sweeps on a ``(row, column)`` workspace pair that carries
the data layout: dense ``(m, n)`` matrices, or (:mod:`repro.sparse`) a
mask pattern's active cells, which agree with dense to roundoff.

The ``kernel`` argument lets the parallel executor substitute a
row-partitioned solver for the default whole-matrix vectorized one; the
algorithm is oblivious to how the independent subproblems are scheduled,
exactly as in the paper's processor allocation.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.problems import ElasticProblem, FixedTotalsProblem, SAMProblem
from repro.core.result import PhaseCounts, SolveResult
from repro.equilibration.exact import solve_piecewise_linear
from repro.equilibration.workspace import SweepWorkspace

__all__ = [
    "solve_fixed",
    "solve_elastic",
    "solve_sam",
    "variant_spec",
    "run_diagonal",
]

# The one kernel contract, that of ``solve_piecewise_linear``:
# ``kernel(breakpoints, slopes, target, a=None, c=None, workspace=None)``
# returns the ``(m,)`` row multipliers.  The drivers pass ``workspace=``
# on every phase; a kernel may ignore it on dense ``(m, n)`` matrices,
# not on a sparse pattern's flat cells, but must accept the keyword.
Kernel = Callable[..., np.ndarray]


class DiagonalVariant:
    """Variant constants of one diagonal SEA member (see module table).

    ``pack`` extracts the per-problem constant vectors; ``row_terms`` /
    ``col_terms`` turn them plus the opposite multipliers into the
    piecewise-linear kernel's ``(target, a, c)``; ``totals`` recovers
    the (estimated) row/column totals from the multipliers.  All term
    formulas are elementwise over the leading axes, so
    :func:`run_diagonal`'s problem-major ``(k, m)`` stacks and one
    problem's ``(m,)`` vectors go through the same code paths.
    """

    kind: str
    algorithm: str

    @staticmethod
    def default_stop() -> StoppingRule:
        return StoppingRule(eps=1e-2, criterion="delta-x")

    @staticmethod
    def pack(problem) -> dict[str, np.ndarray]:
        raise NotImplementedError

    @staticmethod
    def row_terms(data, mu):
        raise NotImplementedError

    @staticmethod
    def col_terms(data, lam):
        raise NotImplementedError

    @staticmethod
    def totals(data, lam, mu):
        raise NotImplementedError

    @staticmethod
    def objective(problem, x, s, d) -> float:
        raise NotImplementedError


class _FixedVariant(DiagonalVariant):
    kind = "fixed"
    algorithm = "SEA-fixed"

    @staticmethod
    def pack(problem):
        return {"s0": problem.s0, "d0": problem.d0}

    @staticmethod
    def row_terms(data, mu):
        return data["s0"], None, None

    @staticmethod
    def col_terms(data, lam):
        return data["d0"], None, None

    @staticmethod
    def totals(data, lam, mu):
        return data["s0"], data["d0"]

    @staticmethod
    def objective(problem, x, s, d):
        return problem.objective(x)


class _ElasticVariant(DiagonalVariant):
    kind = "elastic"
    algorithm = "SEA-elastic"

    @staticmethod
    def pack(problem):
        # The per-sweep kernel terms are constant for this variant, so
        # they are materialized once here instead of allocating fresh
        # zero/negated vectors on every sweep of the hot loop.
        return {
            "s0": problem.s0,
            "d0": problem.d0,
            "a_row": 1.0 / (2.0 * problem.alpha),
            "a_col": 1.0 / (2.0 * problem.beta),
            "zero_row": np.zeros_like(problem.s0),
            "zero_col": np.zeros_like(problem.d0),
            "neg_s0": -problem.s0,
            "neg_d0": -problem.d0,
        }

    @staticmethod
    def row_terms(data, mu):
        return data["zero_row"], data["a_row"], data["neg_s0"]

    @staticmethod
    def col_terms(data, lam):
        return data["zero_col"], data["a_col"], data["neg_d0"]

    @staticmethod
    def totals(data, lam, mu):
        s = data["s0"] - lam * data["a_row"]  # (23b)
        d = data["d0"] - mu * data["a_col"]  # (23c)
        return s, d

    @staticmethod
    def objective(problem, x, s, d):
        return problem.objective(x, s, d)


class _SAMVariant(DiagonalVariant):
    kind = "sam"
    algorithm = "SEA-sam"

    @staticmethod
    def default_stop() -> StoppingRule:
        return StoppingRule(eps=1e-3, criterion="imbalance")

    @staticmethod
    def pack(problem):
        # Cached zero target plus one scratch buffer per side: the c
        # term depends on the current duals, so it is rebuilt in place
        # each sweep (row and col keep separate buffers — the row term
        # must survive the column half of the sweep).
        s0 = np.asarray(problem.s0)
        return {
            "s0": s0,
            "a_el": 1.0 / (2.0 * problem.alpha),
            "zero": np.zeros_like(s0),
            "c_row": np.empty_like(s0),
            "c_col": np.empty_like(s0),
        }

    @staticmethod
    def row_terms(data, mu):
        # Constraint sum_j x_ij = S_i(lam_i; mu_i): the elastic offset
        # carries the *current* mu_i (eq. 40b couples the families).
        c = data["c_row"]
        np.multiply(mu, data["a_el"], out=c)
        np.subtract(c, data["s0"], out=c)
        return data["zero"], data["a_el"], c

    @staticmethod
    def col_terms(data, lam):
        c = data["c_col"]
        np.multiply(lam, data["a_el"], out=c)
        np.subtract(c, data["s0"], out=c)
        return data["zero"], data["a_el"], c

    @staticmethod
    def totals(data, lam, mu):
        s = data["s0"] - (lam + mu) * data["a_el"]  # (40b)
        return s, s

    @staticmethod
    def objective(problem, x, s, d):
        return problem.objective(x, s)


_SPECS: dict[type, type[DiagonalVariant]] = {
    FixedTotalsProblem: _FixedVariant,
    ElasticProblem: _ElasticVariant,
    SAMProblem: _SAMVariant,
}


def variant_spec(problem) -> type[DiagonalVariant]:
    """The :class:`DiagonalVariant` for a diagonal core problem."""
    spec = _SPECS.get(type(problem))
    if spec is None:
        raise TypeError(
            f"no diagonal SEA variant for {type(problem).__name__}"
        )
    return spec


def _stack(arrays) -> np.ndarray:
    """Problem-major stack of per-problem arrays; a lone one's is a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _flat(v: np.ndarray | None) -> np.ndarray | None:
    """A stack as the kernel sees it: problems merged into the rows."""
    return None if v is None else v.reshape((-1,) + v.shape[2:])


def run_diagonal(
    problems: list,
    spec: type[DiagonalVariant],
    stop: StoppingRule | None,
    mu0s: list,
    kernel: Kernel,
    record_history: bool,
    workspaces=None,
) -> list[SolveResult]:
    """One SEA driver for ``k >= 1`` same-kind, same-shape problems.

    The ``k*m`` row and ``k*n`` column equilibrations of a stack are as
    independent as one problem's, so each phase is one kernel call over
    the problem-major stacks (axis 0; a lone problem's stacks view its
    arrays).  Step 3 checks each problem on its own iterate, as a solo
    solve would, and retires it when it stops; the stacks and the
    workspaces' cached permutations shrink to the survivors
    (:meth:`~repro.equilibration.workspace.SweepWorkspace.retain`), so
    a straggler never pads the others' iteration counts.

    The sweeps run on a ``(row, column)`` workspace pair (``workspaces``,
    or a fresh dense one) that carries the layout: the row workspace
    supplies the row-major cell constants, row sums and final matrix,
    each one shifts its phase's breakpoints and runs the kernel's fast
    path, and the column one recovers the primal into the row-major
    iterate.  Results align with ``problems``; a lone problem's ``x``
    views its recovery buffer, every other array is owned.
    """
    stop = stop or spec.default_stop()
    t0 = time.perf_counter()
    k = len(problems)
    m, n = problems[0].shape
    if workspaces is None:
        workspaces = (SweepWorkspace(k * m, n), SweepWorkspace(k * n, m))
    row_ws, col_ws = workspaces
    row_len, col_len = row_ws.segment_length, col_ws.segment_length
    base, slopes, x_prev = map(_stack, zip(*map(row_ws.prepare, problems)))
    base_t, slopes_t = col_ws.orient(base), col_ws.orient(slopes)
    packed = [spec.pack(p) for p in problems]
    data = {key: _stack([pk[key] for pk in packed]) for key in packed[0]}
    mu = _stack([
        np.zeros(n) if w is None else np.asarray(w, dtype=np.float64)
        for w in mu0s
    ])
    # Double-buffered primal recovery: x and x_prev must be distinct
    # arrays for the delta-x residual, so recovery alternates buffers.
    xbufs = (np.empty_like(base_t), np.empty_like(base_t))
    ids = list(range(k))  # problem index of each stack member
    residual = [np.inf] * k
    history: list[list[float]] = [[] for _ in range(k)]
    results: list[SolveResult | None] = [None] * k
    checks = 0

    def finish(j: int, converged: bool) -> None:
        i = ids[j]
        counts = PhaseCounts(cells=m * n)
        for _ in range(t):
            counts.add_equilibration(m, row_len)
            counts.add_equilibration(n, col_len)
        for _ in range(checks):
            counts.add_convergence_check(m, n)
        s, d = spec.totals(packed[i], lam[j], mu[j])
        s = np.array(s, dtype=np.float64)
        d = np.array(d, dtype=np.float64)
        # A batch member copies out of the shared stacks: a view would
        # pin them alive and expose its batch-mates to in-place edits.
        x_i = row_ws.densify(x[j] if k == 1 else x[j].copy())
        results[i] = SolveResult(
            x=x_i,
            s=s,
            d=d,
            lam=lam[j].copy(),
            mu=mu[j].copy(),
            converged=converged,
            iterations=t,
            residual=residual[i],
            objective=spec.objective(problems[i], x_i, s, d),
            elapsed=time.perf_counter() - t0,
            algorithm=spec.algorithm + row_ws.tag,
            history=history[i],
            counts=counts,
        )

    row_slopes, col_slopes = _flat(slopes), _flat(slopes_t)
    for t in range(1, stop.max_iterations + 1):
        a = len(ids)
        # Step 1: row equilibration — a*m independent subproblems.
        target_r, a_r, c_r = spec.row_terms(data, mu)
        row_b = row_ws.shift(base, mu)
        lam = kernel(
            _flat(row_b), row_slopes, _flat(target_r), a=_flat(a_r),
            c=_flat(c_r), workspace=row_ws,
        ).reshape(a, -1)

        # Step 2: column equilibration — a*n independent subproblems,
        # plus primal recovery (eq. 23a / 40a).
        target_c, a_c, c_c = spec.col_terms(data, lam)
        col_b = col_ws.shift(base_t, lam)
        mu = kernel(
            _flat(col_b), col_slopes, _flat(target_c), a=_flat(a_c),
            c=_flat(c_c), workspace=col_ws,
        ).reshape(a, -1)
        x = col_ws.recover(mu, col_b, slopes_t, xbufs[t % 2][:a])

        # Step 3: convergence verification (the serial phase), per
        # problem on its own iterate.
        if stop.due(t):
            checks += 1
            keep = []
            for j, i in enumerate(ids):
                s, d = spec.totals(packed[i], lam[j], mu[j])
                r = stop.residual(x[j], x_prev[j], s, d,
                                  row_sums=row_ws.row_sums)
                residual[i] = r
                if record_history:
                    history[i].append(r)
                if r <= stop.eps and not stop.stalled(
                    r, x[j], s, n, row_sums=row_ws.row_sums
                ):
                    finish(j, converged=True)
                else:
                    keep.append(j)
            if not keep:
                break
            if len(keep) < a:
                # Regather the survivors' stacks once per retirement and
                # keep their cached permutations (no re-sort).
                ids = [ids[j] for j in keep]
                base, base_t = base[keep], base_t[keep]
                slopes, slopes_t = slopes[keep], slopes_t[keep]
                row_slopes, col_slopes = _flat(slopes), _flat(slopes_t)
                data = {key: v[keep] for key, v in data.items()}
                lam, mu, x = lam[keep], mu[keep], x[keep]
                for ws, rows in ((row_ws, m), (col_ws, n)):
                    block = np.arange(a * rows).reshape(a, rows)
                    ws.retain(block[keep].ravel())
        x_prev = x
    else:
        for j in range(len(ids)):
            finish(j, converged=False)
    return results  # type: ignore[return-value]


def solve_fixed(
    problem: FixedTotalsProblem,
    stop: StoppingRule | None = None,
    mu0: np.ndarray | None = None,
    kernel: Kernel = solve_piecewise_linear,
    record_history: bool = False,
    workspaces=None,
) -> SolveResult:
    """SEA for the fixed-totals problem (Section 3.1.3, eqs. 45-48).

    Parameters
    ----------
    problem:
        The problem instance.
    stop:
        Stopping rule; defaults to the paper's ``|x^t - x^{t-1}| <= .01``.
    mu0:
        Initial column multipliers (Step 0 sets ``mu^1 = 0``).
    kernel:
        Piecewise-linear solver meeting the :data:`Kernel` contract;
        override to run subproblems on a worker pool (see
        :mod:`repro.parallel.executor`).
    record_history:
        Keep the per-iteration residual trace in ``result.history``.
    workspaces:
        ``(row, column)`` :class:`~repro.equilibration.workspace.
        SweepWorkspace` pair of shapes ``(m, n)`` and ``(n, m)`` to
        sweep on, e.g. one the caller keeps across solves so cached
        sort permutations carry over; a fresh pair by default.  A
        :class:`~repro.sparse.kernel.SparseSweepWorkspace` pair bound to
        the problem's mask pattern runs the sparse layout instead.
    """
    return run_diagonal(
        [problem], _FixedVariant, stop, [mu0], kernel, record_history,
        workspaces,
    )[0]


def solve_elastic(
    problem: ElasticProblem,
    stop: StoppingRule | None = None,
    mu0: np.ndarray | None = None,
    kernel: Kernel = solve_piecewise_linear,
    record_history: bool = False,
    workspaces=None,
) -> SolveResult:
    """SEA for unknown row and column totals (Section 3.1.1, eqs. 14-17).

    Row step: minimize ``Theta_1 - sum_j mu_j (sum_i x_ij - d_j)`` over
    the row constraints; multipliers ``lam_i = 2 alpha_i (s0_i - S_i)``
    (eq. 29b) come straight out of the kernel.  Column step symmetric
    with ``mu_j = 2 beta_j (d0_j - D_j)`` (eq. 30b).  ``kernel`` and
    ``workspaces`` as for :func:`solve_fixed`.
    """
    return run_diagonal(
        [problem], _ElasticVariant, stop, [mu0], kernel, record_history,
        workspaces,
    )[0]


def solve_sam(
    problem: SAMProblem,
    stop: StoppingRule | None = None,
    mu0: np.ndarray | None = None,
    kernel: Kernel = solve_piecewise_linear,
    record_history: bool = False,
    workspaces=None,
) -> SolveResult:
    """SEA for the SAM estimation problem (Section 3.1.2, eqs. 31-35).

    The balanced totals couple the two constraint families: the total of
    account ``i`` satisfies ``S_i = s0_i - (lam_i + mu_i)/(2 alpha_i)``
    (eq. 40b), so each row subproblem's elastic offset carries the
    *current* ``mu_i`` and vice versa.  Default stopping rule is the
    paper's relative row imbalance at ``eps' = .001``.  ``kernel`` and
    ``workspaces`` as for :func:`solve_fixed`.
    """
    return run_diagonal(
        [problem], _SAMVariant, stop, [mu0], kernel, record_history,
        workspaces,
    )[0]
