"""SEA SAM solver (balanced, estimated totals)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sam_problem
from repro.core.convergence import StoppingRule
from repro.core.dual import grad_zeta_sam, zeta_sam
from repro.core.kkt import kkt_violations
from repro.core.problems import SAMProblem
from repro.core.sea import solve_sam

TIGHT = StoppingRule(eps=1e-10, criterion="imbalance", max_iterations=20_000)


class TestBalance:
    def test_accounts_balance(self, rng):
        """The defining SAM property: receipts == expenditures per account."""
        problem = random_sam_problem(rng, 7)
        result = solve_sam(problem, stop=TIGHT)
        assert result.converged
        np.testing.assert_allclose(
            result.x.sum(axis=1), result.x.sum(axis=0), rtol=1e-8
        )
        np.testing.assert_allclose(result.x.sum(axis=0), result.s, rtol=1e-8)

    def test_totals_recovered_from_multipliers(self, rng):
        """(40b): s_i = s0_i - (lam_i + mu_i) / (2 alpha_i)."""
        problem = random_sam_problem(rng, 6)
        result = solve_sam(problem, stop=TIGHT)
        np.testing.assert_allclose(
            result.s,
            problem.s0 - (result.lam + result.mu) / (2 * problem.alpha),
            rtol=1e-10,
        )

    def test_d_equals_s(self, rng):
        problem = random_sam_problem(rng, 5)
        result = solve_sam(problem, stop=TIGHT)
        np.testing.assert_array_equal(result.s, result.d)


class TestOptimality:
    def test_kkt_conditions_hold(self, rng):
        problem = random_sam_problem(rng, 8)
        result = solve_sam(problem, stop=TIGHT)
        v = kkt_violations(
            problem, result.x, result.lam, result.mu, s=result.s
        )
        scale = float(problem.s0.max())
        assert max(v.values()) < 1e-5 * scale

    def test_balanced_base_is_fixed_point(self):
        """A balanced base table with matching s0 does not move."""
        x0 = np.array([[0.0, 2.0], [2.0, 0.0]])
        problem = SAMProblem(
            x0=x0, gamma=np.ones((2, 2)), s0=np.array([2.0, 2.0]),
            alpha=np.ones(2), mask=x0 > 0,
        )
        result = solve_sam(problem, stop=TIGHT)
        np.testing.assert_allclose(result.x, x0, atol=1e-9)

    def test_structural_zeros_respected(self, rng):
        n = 6
        x0 = rng.uniform(1.0, 20.0, (n, n))
        mask = rng.random((n, n)) < 0.6
        np.fill_diagonal(mask, False)
        mask[np.arange(n), (np.arange(n) + 1) % n] = True  # keep connected
        mask[(np.arange(n) + 1) % n, np.arange(n)] = True
        problem = SAMProblem(
            x0=np.where(mask, x0, 0.0), gamma=np.ones((n, n)),
            s0=np.where(mask, x0, 0.0).sum(axis=1), alpha=np.ones(n), mask=mask,
        )
        result = solve_sam(problem, stop=TIGHT)
        assert np.all(result.x[~mask] == 0.0)
        assert result.converged


class TestDualAscent:
    def test_zeta2_monotone(self, rng):
        problem = random_sam_problem(rng, 6)
        from repro.equilibration.exact import solve_piecewise_linear

        n = problem.n
        mask = problem.mask
        gamma_safe = np.where(mask, problem.gamma, 1.0)
        base = np.where(mask, -2.0 * gamma_safe * problem.x0, 0.0)
        slopes = np.where(mask, 1.0 / (2.0 * gamma_safe), 0.0)
        a_el = 1.0 / (2.0 * problem.alpha)
        mu = np.zeros(n)
        values = []
        for _ in range(15):
            lam = solve_piecewise_linear(
                base - mu[None, :], slopes, np.zeros(n),
                a=a_el, c=mu * a_el - problem.s0,
            )
            values.append(zeta_sam(problem, lam, mu))
            mu = solve_piecewise_linear(
                base.T - lam[None, :], slopes.T.copy(), np.zeros(n),
                a=a_el, c=lam * a_el - problem.s0,
            )
            values.append(zeta_sam(problem, lam, mu))
        diffs = np.diff(values)
        assert np.all(diffs > -1e-6 * max(abs(values[0]), 1.0))

    def test_gradient_vanishes_at_convergence(self, rng):
        problem = random_sam_problem(rng, 7)
        result = solve_sam(problem, stop=TIGHT)
        g_lam, g_mu = grad_zeta_sam(problem, result.lam, result.mu)
        scale = float(problem.s0.max())
        assert np.max(np.abs(g_lam)) < 1e-6 * scale
        assert np.max(np.abs(g_mu)) < 1e-6 * scale


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 9))
def test_sam_solution_properties(seed, n):
    rng = np.random.default_rng(seed)
    problem = random_sam_problem(rng, n)
    result = solve_sam(problem, stop=TIGHT)
    assert result.converged
    assert np.all(result.x >= 0)
    scale = float(problem.s0.max()) + 1.0
    np.testing.assert_allclose(
        result.x.sum(axis=1), result.x.sum(axis=0), atol=1e-6 * scale
    )
    v = kkt_violations(problem, result.x, result.lam, result.mu, s=result.s)
    assert max(v.values()) < 2e-5 * scale
