"""Equilibration operators (Nagurney & Robinson 1989).

The companion working paper the article builds on formulates SEA's
phases as composable *equilibration operators*: a row operator ``R``
maps a dual state onto the row-optimal state, a column operator ``C``
likewise, and algorithms are words over {R, C} — SEA is ``(C R)^T``,
but other schedules (``C R R``, randomized orders, Southwell-style
most-violated-first) live in the same algebra.  This module provides
that operator layer over the library's kernels, for algorithm
experimentation and for expressing custom schedules without touching
the solvers.

Every operator acts on an immutable :class:`DualState` and returns a
new one; since each application is an exact block dual maximization,
any word of operators is monotone in the dual (asserted in the tests),
and any schedule that applies both operators infinitely often converges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dual import zeta_fixed
from repro.core.problems import FixedTotalsProblem
from repro.equilibration.exact import solve_piecewise_linear

__all__ = ["DualState", "RowEquilibration", "ColumnEquilibration",
           "Schedule", "sea_schedule"]


@dataclass(frozen=True)
class DualState:
    """Immutable dual iterate ``(lam, mu)`` for a fixed-totals problem."""

    lam: np.ndarray
    mu: np.ndarray

    def flows(self, problem: FixedTotalsProblem) -> np.ndarray:
        """Primal recovery (eq. 23a) at this state."""
        mask = problem.mask
        gamma = np.where(mask, problem.gamma, 1.0)
        x0 = np.where(mask, problem.x0, 0.0)
        x = np.maximum(
            2.0 * gamma * x0 + self.lam[:, None] + self.mu[None, :], 0.0
        ) / (2.0 * gamma)
        return np.where(mask, x, 0.0)

    def dual_value(self, problem: FixedTotalsProblem) -> float:
        return zeta_fixed(problem, self.lam, self.mu)

    def residual(self, problem: FixedTotalsProblem) -> float:
        """Max constraint violation = dual gradient norm (eq. 27)."""
        x = self.flows(problem)
        return max(
            float(np.max(np.abs(x.sum(axis=1) - problem.s0))),
            float(np.max(np.abs(x.sum(axis=0) - problem.d0))),
        )


class _Equilibration:
    """Shared machinery of the row/column operators."""

    def __init__(self, problem: FixedTotalsProblem) -> None:
        self.problem = problem
        mask = problem.mask
        gamma = np.where(mask, problem.gamma, 1.0)
        x0 = np.where(mask, problem.x0, 0.0)
        self._base = np.where(mask, -2.0 * gamma * x0, 0.0)
        self._slopes = np.where(mask, 1.0 / (2.0 * gamma), 0.0)


class RowEquilibration(_Equilibration):
    """``R``: exact maximization of the dual over the row multipliers."""

    def __call__(self, state: DualState) -> DualState:
        b = self._base - state.mu[None, :]
        lam = solve_piecewise_linear(b, self._slopes, self.problem.s0)
        return DualState(lam=lam, mu=state.mu)


class ColumnEquilibration(_Equilibration):
    """``C``: exact maximization of the dual over the column multipliers."""

    def __call__(self, state: DualState) -> DualState:
        b = self._base.T - state.lam[None, :]
        mu = solve_piecewise_linear(b, self._slopes.T.copy(), self.problem.d0)
        return DualState(lam=state.lam, mu=mu)


class Schedule:
    """A word over equilibration operators, applied until convergence.

    Parameters
    ----------
    operators:
        The sequence applied per sweep, e.g. ``[R, C]`` for SEA or
        ``[R, R, C]`` for a row-biased schedule.
    """

    def __init__(self, operators: list) -> None:
        if not operators:
            raise ValueError("a schedule needs at least one operator")
        self.operators = list(operators)

    def run(
        self,
        problem: FixedTotalsProblem,
        eps: float = 1e-6,
        max_sweeps: int = 10_000,
        state: DualState | None = None,
        record_dual: bool = False,
    ) -> tuple[DualState, int, list[float]]:
        """Apply the word repeatedly until the residual drops below
        ``eps`` (scaled by the totals) or the sweep budget runs out.

        Returns ``(final_state, sweeps_used, dual_trace)``.
        """
        m, n = problem.shape
        state = state or DualState(lam=np.zeros(m), mu=np.zeros(n))
        scale = max(float(problem.s0.max()), 1.0)
        trace: list[float] = []
        for sweep in range(1, max_sweeps + 1):
            for op in self.operators:
                state = op(state)
                if record_dual:
                    trace.append(state.dual_value(problem))
            if state.residual(problem) <= eps * scale:
                return state, sweep, trace
        return state, max_sweeps, trace


def sea_schedule(problem: FixedTotalsProblem) -> Schedule:
    """The canonical SEA word ``[R, C]`` for a problem."""
    return Schedule([RowEquilibration(problem), ColumnEquilibration(problem)])
