"""Bounded-cells extension (Ohuchi & Kaji 1984 variant)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_fixed_problem
from repro.core.convergence import StoppingRule
from repro.core.sea import solve_fixed
from repro.extensions.bounded import (
    BoundedProblem,
    solve_bounded,
    solve_piecewise_linear_bounded,
)

TIGHT = StoppingRule(eps=1e-9, max_iterations=10_000)


def _bounded_eval(lam, b_lo, b_hi, slopes, lower_sum):
    gain = slopes * (np.minimum(lam, b_hi) - b_lo).clip(min=0.0)
    return lower_sum + gain.sum()


class TestBoundedKernel:
    def test_matches_unbounded_kernel_when_bounds_inactive(self, rng):
        from repro.equilibration.exact import solve_piecewise_linear

        m, n = 10, 8
        B = rng.uniform(-20, 20, (m, n))
        SL = rng.uniform(0.1, 5.0, (m, n))
        target = rng.uniform(5.0, 60.0, m)
        lam_classic = solve_piecewise_linear(B, SL, target)
        lam_bounded = solve_piecewise_linear_bounded(
            B, np.full((m, n), np.inf), SL, np.zeros(m), target
        )
        for i in range(m):
            g = _bounded_eval(lam_bounded[i], B[i], np.full(n, np.inf), SL[i], 0.0)
            assert g == pytest.approx(target[i], abs=1e-8 * max(target[i], 1.0))
        np.testing.assert_allclose(lam_bounded, lam_classic, rtol=1e-10)

    def test_root_property_with_finite_bounds(self, rng):
        m, n = 12, 9
        b_lo = rng.uniform(-20, 0, (m, n))
        b_hi = b_lo + rng.uniform(0.5, 10, (m, n))
        slopes = rng.uniform(0.1, 5.0, (m, n))
        lower_sum = rng.uniform(0, 5, m)
        max_gain = (slopes * (b_hi - b_lo)).sum(axis=1)
        target = lower_sum + max_gain * rng.uniform(0.1, 0.9, m)
        lam = solve_piecewise_linear_bounded(b_lo, b_hi, slopes, lower_sum, target)
        for i in range(m):
            g = _bounded_eval(lam[i], b_lo[i], b_hi[i], slopes[i], lower_sum[i])
            assert g == pytest.approx(target[i], abs=1e-8 * max(target[i], 1.0))

    def test_target_below_lower_sum_rejected(self):
        with pytest.raises(ValueError, match="below the lower-bound sum"):
            solve_piecewise_linear_bounded(
                np.zeros((1, 2)), np.ones((1, 2)), np.ones((1, 2)),
                np.array([5.0]), np.array([1.0]),
            )

    def test_target_above_upper_sum_rejected(self):
        with pytest.raises(ValueError, match="above the upper-bound sum"):
            solve_piecewise_linear_bounded(
                np.zeros((1, 2)), np.ones((1, 2)), np.ones((1, 2)),
                np.array([0.0]), np.array([10.0]),
            )

    def test_target_at_lower_sum(self):
        lam = solve_piecewise_linear_bounded(
            np.zeros((1, 3)), np.ones((1, 3)), np.ones((1, 3)),
            np.array([2.0]), np.array([2.0]),
        )
        g = _bounded_eval(lam[0], np.zeros(3), np.ones(3), np.ones(3), 2.0)
        assert g == pytest.approx(2.0, abs=1e-10)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="dominate"):
            solve_piecewise_linear_bounded(
                np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1)),
                np.zeros(1), np.zeros(1),
            )


class TestBoundedProblem:
    def test_default_bounds_recover_classic_solution(self, rng):
        classic = random_fixed_problem(rng, 6, 7, total_factor_low=0.4)
        bounded = BoundedProblem(
            x0=classic.x0, gamma=classic.gamma, s0=classic.s0, d0=classic.d0
        )
        rb = solve_bounded(bounded, stop=TIGHT)
        rf = solve_fixed(classic, stop=TIGHT)
        np.testing.assert_allclose(rb.x, rf.x, atol=1e-8 * classic.s0.max())

    def test_upper_bounds_respected(self, rng):
        x0 = rng.uniform(1.0, 20.0, (5, 5))
        s0 = 2.0 * x0.sum(axis=1)
        d0 = 2.0 * x0.sum(axis=0)
        cap = np.full((5, 5), np.quantile(x0, 0.9) * 2.2)
        problem = BoundedProblem(
            x0=x0, gamma=np.ones((5, 5)), s0=s0, d0=d0, upper=cap,
        )
        result = solve_bounded(problem, stop=TIGHT)
        assert result.converged
        assert np.all(result.x <= cap + 1e-9)
        scale = s0.max()
        assert np.max(np.abs(result.x.sum(axis=0) - d0)) < 1e-7 * scale

    def test_lower_bounds_respected(self, rng):
        x0 = rng.uniform(5.0, 20.0, (4, 4))
        floor = np.full((4, 4), 2.0)
        s0 = x0.sum(axis=1)
        d0 = x0.sum(axis=0)
        problem = BoundedProblem(
            x0=x0, gamma=np.ones((4, 4)), s0=s0, d0=d0,
            lower=floor,
        )
        result = solve_bounded(problem, stop=TIGHT)
        assert np.all(result.x >= floor - 1e-9)

    def test_binding_caps_change_solution(self, rng):
        x0 = rng.uniform(1.0, 20.0, (5, 5))
        s0 = 1.5 * x0.sum(axis=1)
        d0 = 1.5 * x0.sum(axis=0)
        free = BoundedProblem(x0=x0, gamma=np.ones((5, 5)), s0=s0, d0=d0)
        r_free = solve_bounded(free, stop=TIGHT)
        cap_val = float(np.quantile(r_free.x, 0.7))
        capped = BoundedProblem(
            x0=x0, gamma=np.ones((5, 5)), s0=s0, d0=d0,
            upper=np.full((5, 5), max(cap_val, s0.max() / 5 * 1.05)),
        )
        r_capped = solve_bounded(capped, stop=TIGHT)
        assert r_capped.objective >= r_free.objective - 1e-9

    def test_kkt_with_bounds(self, rng):
        """Bound-constrained stationarity: grad - lam - mu is >= 0 at the
        lower bound, <= 0 at the upper bound, = 0 strictly between."""
        x0 = rng.uniform(1.0, 20.0, (6, 6))
        gamma = rng.uniform(0.5, 3.0, (6, 6))
        s0 = 1.4 * x0.sum(axis=1)
        d0 = 1.4 * x0.sum(axis=0)
        upper = np.full((6, 6), float(np.quantile(x0, 0.8)) * 1.9)
        problem = BoundedProblem(
            x0=x0, gamma=gamma, s0=s0, d0=d0, upper=upper
        )
        result = solve_bounded(problem, stop=TIGHT)
        grad = 2 * gamma * (result.x - x0) - result.lam[:, None] - result.mu[None, :]
        scale = float(np.abs(grad).max()) + 1.0
        at_lower = result.x <= 1e-9
        at_upper = result.x >= upper - 1e-9 * upper
        interior = ~at_lower & ~at_upper
        assert np.max(np.abs(grad[interior])) < 1e-6 * scale
        assert np.min(grad[at_lower], initial=0.0) > -1e-6 * scale
        assert np.max(grad[at_upper], initial=0.0) < 1e-6 * scale

    def test_infeasible_bounds_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            BoundedProblem(
                x0=np.ones((2, 2)), gamma=np.ones((2, 2)),
                s0=np.array([10.0, 10.0]), d0=np.array([10.0, 10.0]),
                upper=np.ones((2, 2)),
            )

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower bounds"):
            BoundedProblem(
                x0=np.ones((2, 2)), gamma=np.ones((2, 2)),
                s0=np.array([2.0, 2.0]), d0=np.array([2.0, 2.0]),
                lower=np.full((2, 2), 3.0), upper=np.ones((2, 2)),
            )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 7), n=st.integers(2, 7))
def test_bounded_solution_feasible(seed, m, n):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(1.0, 20.0, (m, n))
    s0 = x0.sum(axis=1) * rng.uniform(0.8, 1.6, m)
    d0 = x0.sum(axis=0) * rng.uniform(0.8, 1.6, n)
    d0 *= s0.sum() / d0.sum()
    upper = np.maximum(np.full((m, n), 1.2 * s0.max() / n * 3), x0 * 1.5)
    problem = BoundedProblem(
        x0=x0, gamma=rng.uniform(0.5, 3.0, (m, n)), s0=s0, d0=d0, upper=upper
    )
    result = solve_bounded(problem, stop=TIGHT)
    assert np.all(result.x >= -1e-12)
    assert np.all(result.x <= upper + 1e-9 * upper)
    scale = s0.max()
    assert np.max(np.abs(result.x.sum(axis=0) - d0)) < 1e-6 * scale
