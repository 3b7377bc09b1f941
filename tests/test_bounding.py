"""The Modified Algorithm: componentwise multiplier translation."""

import numpy as np
import pytest

from conftest import random_fixed_problem
from repro.core.bounding import bound_multipliers, d_max_bound
from repro.core.convergence import StoppingRule
from repro.core.dual import zeta_fixed
from repro.core.sea import solve_fixed


class TestBoundMultipliers:
    def test_noop_when_within_radius(self):
        x = np.ones((3, 3))
        lam = np.array([1.0, -2.0, 0.5])
        mu = np.array([0.0, 3.0, -1.0])
        lam2, mu2, changed = bound_multipliers(x, lam, mu, radius=10.0)
        assert not changed
        np.testing.assert_array_equal(lam2, lam)

    def test_translation_preserves_edge_sums(self, rng):
        x = rng.uniform(0.0, 1.0, (5, 5))
        x[x < 0.5] = 0.0
        lam = rng.normal(0, 100, 5)
        mu = rng.normal(0, 100, 5)
        lam2, mu2, changed = bound_multipliers(x, lam, mu, radius=10.0)
        edges = x > 0
        before = lam[:, None] + mu[None, :]
        after = lam2[:, None] + mu2[None, :]
        np.testing.assert_allclose(after[edges], before[edges], rtol=1e-12)

    def test_dual_value_invariant_fixed(self, rng):
        """zeta_3 is unchanged by the translation (the paper's key fact)."""
        problem = random_fixed_problem(rng, 6, 6)
        result = solve_fixed(problem, stop=StoppingRule(eps=1e-8, max_iterations=5000))
        lam = result.lam + 500.0  # push out of any reasonable radius
        mu = result.mu - 500.0
        z_before = zeta_fixed(problem, lam, mu)
        lam2, mu2, changed = bound_multipliers(result.x, lam, mu, radius=100.0)
        assert changed
        z_after = zeta_fixed(problem, lam2, mu2)
        assert z_after == pytest.approx(z_before, rel=1e-10)

    def test_offending_multiplier_zeroed(self):
        x = np.ones((2, 2))  # single component
        lam = np.array([1000.0, 999.0])
        mu = np.array([0.0, 0.0])
        lam2, mu2, changed = bound_multipliers(x, lam, mu, radius=100.0)
        assert changed
        assert lam2[0] == pytest.approx(0.0)
        np.testing.assert_allclose(mu2, 1000.0)

    def test_components_translated_independently(self):
        x = np.zeros((4, 4))
        x[:2, :2] = 1.0
        x[2:, 2:] = 1.0
        lam = np.array([1000.0, 1001.0, 1.0, 2.0])
        mu = np.zeros(4)
        lam2, mu2, changed = bound_multipliers(x, lam, mu, radius=100.0)
        assert changed
        # Second component untouched.
        np.testing.assert_array_equal(lam2[2:], lam[2:])
        np.testing.assert_array_equal(mu2[2:], mu[2:])
        # First component shifted by its first offender.
        np.testing.assert_allclose(mu2[:2], 1000.0)


class TestDMax:
    def test_positive_and_data_dependent(self, rng):
        problem = random_fixed_problem(rng, 4, 4)
        d1 = d_max_bound(problem)
        assert d1 > 0
        bigger = random_fixed_problem(rng, 4, 4, weight_spread=1000.0)
        assert d_max_bound(bigger) != d1
