"""Interval-totals, entropy and Ohuchi-Kaji extensions."""

import numpy as np
import pytest

from conftest import random_fixed_problem
from repro.baselines.ras import solve_ras
from repro.baselines.rc import solve_rc_general
from repro.core.convergence import StoppingRule
from repro.core.problems import GeneralProblem
from repro.core.sea import solve_fixed
from repro.extensions.bounded import BoundedProblem, solve_bounded
from repro.extensions.entropy import EntropyProblem, solve_entropy
from repro.extensions.intervals import IntervalTotalsProblem, solve_intervals
from repro.extensions.ohuchi_kaji import solve_ohuchi_kaji

TIGHT = StoppingRule(eps=1e-9, max_iterations=20_000)


class TestIntervals:
    def _base(self, rng, m=5, n=6):
        x0 = rng.uniform(1.0, 30.0, (m, n))
        gamma = rng.uniform(0.5, 3.0, (m, n))
        return x0, gamma

    def test_wide_intervals_leave_base_unchanged(self, rng):
        x0, gamma = self._base(rng)
        p = IntervalTotalsProblem(
            x0=x0, gamma=gamma,
            s_lo=0.5 * x0.sum(axis=1), s_hi=2.0 * x0.sum(axis=1),
            d_lo=0.5 * x0.sum(axis=0), d_hi=2.0 * x0.sum(axis=0),
        )
        r = solve_intervals(p, stop=TIGHT)
        np.testing.assert_allclose(r.x, x0, atol=1e-9 * x0.max())
        assert r.objective < 1e-12 * x0.max() ** 2

    def test_degenerate_intervals_equal_fixed_solution(self, rng):
        problem = random_fixed_problem(rng, 5, 5, total_factor_low=0.4)
        p = IntervalTotalsProblem(
            x0=problem.x0, gamma=problem.gamma,
            s_lo=problem.s0, s_hi=problem.s0,
            d_lo=problem.d0, d_hi=problem.d0,
        )
        ri = solve_intervals(p, stop=TIGHT)
        rf = solve_fixed(problem, stop=TIGHT)
        np.testing.assert_allclose(ri.x, rf.x, atol=1e-7 * problem.s0.max())

    def test_solution_feasible_for_intervals(self, rng):
        x0, gamma = self._base(rng)
        p = IntervalTotalsProblem(
            x0=x0, gamma=gamma,
            s_lo=1.2 * x0.sum(axis=1), s_hi=1.5 * x0.sum(axis=1),
            d_lo=0.9 * x0.sum(axis=0), d_hi=1.6 * x0.sum(axis=0),
        )
        r = solve_intervals(p, stop=TIGHT)
        assert r.converged
        assert p.total_violation(r.x) < 1e-6 * x0.sum()

    def test_interval_objective_no_worse_than_fixed_endpoints(self, rng):
        """Widening the feasible set can only lower the optimum."""
        problem = random_fixed_problem(rng, 5, 5, total_factor_low=0.4)
        widened = IntervalTotalsProblem(
            x0=problem.x0, gamma=problem.gamma,
            s_lo=0.9 * problem.s0, s_hi=1.1 * problem.s0,
            d_lo=0.9 * problem.d0, d_hi=1.1 * problem.d0,
        )
        ri = solve_intervals(widened, stop=TIGHT)
        rf = solve_fixed(problem, stop=TIGHT)
        assert ri.objective <= rf.objective + 1e-6 * rf.objective

    @pytest.mark.parametrize("criterion", ["imbalance", "dual-gradient"])
    def test_row_criteria_stop_on_an_interior_solution(self, criterion):
        """Rows inside their intervals are balanced: the row criteria
        measure them against the nearest feasible totals, not ``s_hi``."""
        problem = random_fixed_problem(np.random.default_rng(0), 5, 6)
        rows, cols = problem.x0.sum(axis=1), problem.x0.sum(axis=0)
        p = IntervalTotalsProblem(
            x0=problem.x0, gamma=problem.gamma,
            s_lo=0.8 * rows, s_hi=1.5 * rows, d_lo=0.8 * cols, d_hi=1.5 * cols,
        )
        r = solve_intervals(p, stop=StoppingRule(
            eps=1e-6, criterion=criterion, max_iterations=2000
        ))
        assert r.converged and r.iterations < 10
        assert p.total_violation(r.x) == 0.0
        np.testing.assert_allclose(r.x, p.x0, atol=1e-9 * p.x0.max())

    def test_incompatible_intervals_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            IntervalTotalsProblem(
                x0=np.ones((2, 2)), gamma=np.ones((2, 2)),
                s_lo=np.array([10.0, 10.0]), s_hi=np.array([11.0, 11.0]),
                d_lo=np.array([1.0, 1.0]), d_hi=np.array([2.0, 2.0]),
            )

    def test_crossed_interval_rejected(self):
        with pytest.raises(ValueError, match="lower ends"):
            IntervalTotalsProblem(
                x0=np.ones((2, 2)), gamma=np.ones((2, 2)),
                s_lo=np.array([3.0, 1.0]), s_hi=np.array([2.0, 2.0]),
                d_lo=np.array([1.0, 1.0]), d_hi=np.array([2.0, 2.0]),
            )


class TestEntropy:
    def test_fixed_totals_entropy_is_ras(self, rng):
        """The headline equivalence: entropy SEA's iterates are RAS's."""
        x0 = rng.uniform(1.0, 30.0, (6, 5))
        s0 = x0.sum(axis=1) * rng.uniform(0.7, 1.4, 6)
        d0 = x0.sum(axis=0)
        d0 *= s0.sum() / d0.sum()
        p = EntropyProblem(x0=x0, s0=s0, d0=d0)
        r = solve_entropy(
            p, stop=StoppingRule(eps=1e-11, criterion="imbalance",
                                 max_iterations=50_000)
        )
        ras = solve_ras(x0, s0, d0, eps=1e-13, max_iterations=50_000)
        np.testing.assert_allclose(r.x, ras.x, rtol=1e-6)
        # Multiplier exponentials are the RAS scaling factors (up to the
        # usual constant shift between the factor families).
        ratio = np.exp(r.lam) / ras.r
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-5)

    def test_elastic_entropy_estimates_totals(self, rng):
        x0 = rng.uniform(1.0, 30.0, (5, 5))
        p = EntropyProblem(
            x0=x0, s0=1.3 * x0.sum(axis=1), d0=0.8 * x0.sum(axis=0),
            alpha=np.ones(5), beta=np.ones(5),
        )
        r = solve_entropy(p)
        assert r.converged
        scale = p.s0.max()
        assert np.max(np.abs(r.x.sum(axis=1) - r.s)) < 1e-3 * scale
        assert np.max(np.abs(r.x.sum(axis=0) - r.d)) < 1e-3 * scale
        # Estimated totals compromise between the priors.
        assert r.s.sum() == pytest.approx(r.d.sum(), rel=1e-3)

    def test_stronger_penalty_pins_totals_harder(self, rng):
        x0 = rng.uniform(1.0, 30.0, (4, 4))
        s0 = 1.5 * x0.sum(axis=1)
        d0 = 0.8 * x0.sum(axis=0)
        soft = solve_entropy(EntropyProblem(
            x0=x0, s0=s0, d0=d0, alpha=np.full(4, 0.1), beta=np.full(4, 0.1)))
        hard = solve_entropy(EntropyProblem(
            x0=x0, s0=s0, d0=d0, alpha=np.full(4, 100.0), beta=np.full(4, 100.0)))
        assert np.abs(hard.s - s0).sum() < np.abs(soft.s - s0).sum()

    def test_objective_zero_at_base(self, rng):
        x0 = rng.uniform(1.0, 10.0, (3, 3))
        p = EntropyProblem(x0=x0, s0=x0.sum(axis=1), d0=x0.sum(axis=0))
        assert p.objective(x0) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EntropyProblem(x0=-np.ones((2, 2)), s0=np.ones(2), d0=np.ones(2))
        with pytest.raises(ValueError, match="strictly positive"):
            EntropyProblem(x0=np.ones((2, 2)), s0=np.zeros(2), d0=np.ones(2))
        with pytest.raises(ValueError, match="both"):
            EntropyProblem(x0=np.ones((2, 2)), s0=np.ones(2), d0=np.ones(2),
                           alpha=np.ones(2))
        with pytest.raises(ValueError, match="balanced"):
            EntropyProblem(x0=np.ones((2, 2)), s0=np.ones(2), d0=2 * np.ones(2))


class TestOhuchiKaji:
    def test_reaches_sea_optimum(self, rng):
        problem = random_fixed_problem(rng, 6, 6, total_factor_low=0.4)
        ok = solve_ohuchi_kaji(problem, stop=TIGHT)
        sea = solve_fixed(problem, stop=TIGHT)
        assert ok.converged
        assert ok.objective == pytest.approx(sea.objective, rel=1e-6)

    def test_feasible_and_nonnegative(self, rng):
        problem = random_fixed_problem(rng, 7, 5, total_factor_low=0.4)
        ok = solve_ohuchi_kaji(problem, stop=TIGHT)
        assert np.all(ok.x >= 0)
        scale = problem.s0.max()
        assert np.max(np.abs(ok.x.sum(axis=0) - problem.d0)) < 1e-6 * scale

    def test_all_work_is_serial(self, rng):
        """The architectural contrast with SEA: coordinatewise updates
        are sequential, so the cost model sees no parallel phase."""
        problem = random_fixed_problem(rng, 5, 5)
        ok = solve_ohuchi_kaji(problem)
        assert ok.counts.parallel_ops == 0.0
        assert ok.counts.serial_ops > 0.0

    def test_respects_mask(self, rng):
        problem = random_fixed_problem(rng, 6, 6, density=0.5)
        ok = solve_ohuchi_kaji(problem, stop=TIGHT)
        assert np.all(ok.x[~problem.mask] == 0.0)


class TestFrozenIterate:
    """``delta-x`` must not stop the loops that recover the fixed-totals
    problem on a frozen iterate whose rows do not balance: on these 2x2
    problems the sweeps leave ``x`` unchanged to roundoff while the
    duals still drift toward an off-diagonal cell at its zero bound."""

    @pytest.mark.parametrize("seed", [8447, 6867, 7196, 525])
    def test_fixed_totals_loops_reach_solve_fixed(self, seed):
        problem = random_fixed_problem(
            np.random.default_rng(seed), 2, 2, total_factor_low=0.3
        )
        stop = StoppingRule(eps=1e-9, criterion="delta-x", max_iterations=10_000)
        want = solve_fixed(problem, stop=stop)
        results = {
            "bounded": solve_bounded(BoundedProblem(
                x0=problem.x0, gamma=problem.gamma,
                s0=problem.s0, d0=problem.d0,
            ), stop=stop),
            "intervals": solve_intervals(IntervalTotalsProblem(
                x0=problem.x0, gamma=problem.gamma,
                s_lo=problem.s0, s_hi=problem.s0,
                d_lo=problem.d0, d_hi=problem.d0,
            ), stop=stop),
            "ohuchi-kaji": solve_ohuchi_kaji(problem, stop=stop),
            "rc": solve_rc_general(GeneralProblem(
                kind="fixed", x0=problem.x0,
                G=np.diag(problem.gamma.ravel()),
                s0=problem.s0, d0=problem.d0, mask=problem.mask,
            ), stop=stop),
        }
        scale = problem.s0.max()
        for name, r in results.items():
            assert r.converged, name
            row_error = np.max(np.abs(r.x.sum(axis=1) - problem.s0))
            assert row_error <= 1e-7 * scale, name
            np.testing.assert_allclose(
                r.x, want.x, atol=1e-7 * scale, err_msg=name
            )
