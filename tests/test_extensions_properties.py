"""Property-based tests for the extension solvers (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convergence import StoppingRule
from repro.extensions.bounded import BoundedProblem, solve_bounded
from repro.extensions.entropy import EntropyProblem, solve_entropy
from repro.extensions.intervals import IntervalTotalsProblem, solve_intervals
from repro.extensions.three_dim import ThreeWayProblem, solve_three_way

TIGHT = StoppingRule(eps=1e-8, max_iterations=20_000)
seeds = st.integers(0, 50_000)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, width=st.floats(0.02, 0.5))
def test_interval_objective_monotone_in_width(seed, width):
    """Wider total intervals can only lower the optimal objective."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(1.0, 20.0, (5, 5))
    gamma = rng.uniform(0.5, 3.0, (5, 5))
    s_mid = x0.sum(axis=1) * rng.uniform(1.1, 1.4, 5)
    d_mid = x0.sum(axis=0) * rng.uniform(1.1, 1.4, 5)
    d_mid *= s_mid.sum() / d_mid.sum()

    def solve_width(w):
        p = IntervalTotalsProblem(
            x0=x0, gamma=gamma,
            s_lo=s_mid * (1 - w), s_hi=s_mid * (1 + w),
            d_lo=d_mid * (1 - w), d_hi=d_mid * (1 + w),
        )
        return solve_intervals(p, stop=TIGHT).objective

    narrow = solve_width(width / 2)
    wide = solve_width(width)
    assert wide <= narrow * (1 + 1e-6) + 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=seeds, cap_factor=st.floats(1.05, 3.0))
def test_bounded_objective_monotone_in_cap(seed, cap_factor):
    """Loosening a uniform cap can only lower the optimum."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(1.0, 20.0, (4, 4))
    witness = x0 * rng.uniform(0.8, 1.8, (4, 4))
    s0 = witness.sum(axis=1)
    d0 = witness.sum(axis=0)
    base_cap = float(witness.max())

    def solve_cap(factor):
        p = BoundedProblem(
            x0=x0, gamma=np.ones((4, 4)), s0=s0, d0=d0,
            upper=np.full((4, 4), base_cap * factor),
        )
        return solve_bounded(p, stop=TIGHT).objective

    tight_obj = solve_cap(cap_factor)
    loose_obj = solve_cap(cap_factor * 1.5)
    assert loose_obj <= tight_obj * (1 + 1e-6) + 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_entropy_solution_preserves_support_and_positivity(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.5, 20.0, (5, 6))
    x0[rng.random((5, 6)) < 0.3] = 0.0
    x0[:, 0] = np.maximum(x0[:, 0], 0.5)
    x0[0, :] = np.maximum(x0[0, :], 0.5)
    witness = x0 * rng.uniform(0.7, 1.5, (5, 6))
    p = EntropyProblem(
        x0=x0, s0=witness.sum(axis=1), d0=witness.sum(axis=0)
    )
    result = solve_entropy(p, stop=StoppingRule(
        eps=1e-9, criterion="imbalance", max_iterations=100_000))
    assert result.converged
    # Zero cells stay zero, positive cells stay positive (RAS property).
    assert np.all(result.x[x0 == 0.0] == 0.0)
    assert np.all(result.x[x0 > 0.0] > 0.0)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, m=st.integers(2, 5), n=st.integers(2, 5), p=st.integers(1, 4))
def test_three_way_feasibility_property(seed, m, n, p):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(1.0, 10.0, (m, n, p))
    witness = x0 * rng.uniform(0.6, 1.7, (m, n, p))
    problem = ThreeWayProblem(
        x0=x0, gamma=rng.uniform(0.5, 3.0, (m, n, p)),
        a=witness.sum(axis=(1, 2)),
        b=witness.sum(axis=(0, 2)),
        c=witness.sum(axis=(0, 1)),
    )
    result = solve_three_way(problem, stop=TIGHT)
    assert result.converged
    assert np.all(result.x >= 0)
    scale = problem.a.max()
    for value in problem.residuals(result.x).values():
        assert value < 1e-5 * scale
