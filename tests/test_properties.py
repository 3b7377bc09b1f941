"""Property-based invariants of the solver family (hypothesis).

These encode the mathematical structure the paper proves:

* scaling invariance of the optimizer (objective scaling does not move
  the solution; data scaling moves it linearly),
* permutation equivariance (rows/columns carry no hidden order),
* projection identity (a feasible base is its own estimate),
* monotone dual ascent and primal feasibility at every exit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_fixed_problem
from repro.core.convergence import StoppingRule
from repro.core.problems import FixedTotalsProblem
from repro.core.sea import solve_fixed

TIGHT = StoppingRule(eps=1e-9, max_iterations=5000)

seeds = st.integers(0, 100_000)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, scale=st.floats(0.1, 100.0))
def test_objective_scaling_invariance(seed, scale):
    """Multiplying every weight by a constant leaves the optimizer fixed."""
    rng = np.random.default_rng(seed)
    p1 = random_fixed_problem(rng, 5, 5, total_factor_low=0.4)
    p2 = FixedTotalsProblem(
        x0=p1.x0, gamma=p1.gamma * scale, s0=p1.s0, d0=p1.d0, mask=p1.mask
    )
    r1 = solve_fixed(p1, stop=TIGHT)
    r2 = solve_fixed(p2, stop=TIGHT)
    np.testing.assert_allclose(r1.x, r2.x, atol=1e-6 * p1.s0.max())


@settings(max_examples=25, deadline=None)
@given(seed=seeds, scale=st.floats(0.1, 50.0))
def test_data_scaling_equivariance(seed, scale):
    """Scaling x0 and the totals by c scales the solution by c (the
    objective is a squared norm: homogeneous of degree 2)."""
    rng = np.random.default_rng(seed)
    p1 = random_fixed_problem(rng, 4, 6, total_factor_low=0.4)
    p2 = FixedTotalsProblem(
        x0=p1.x0 * scale, gamma=p1.gamma,
        s0=p1.s0 * scale, d0=p1.d0 * scale, mask=p1.mask,
    )
    r1 = solve_fixed(p1, stop=TIGHT)
    r2 = solve_fixed(p2, stop=TIGHT)
    np.testing.assert_allclose(
        r2.x, r1.x * scale, atol=1e-6 * scale * p1.s0.max()
    )


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_permutation_equivariance(seed):
    """Permuting rows and columns permutes the solution identically."""
    rng = np.random.default_rng(seed)
    p = random_fixed_problem(rng, 5, 6, total_factor_low=0.4)
    pr = rng.permutation(5)
    pc = rng.permutation(6)
    permuted = FixedTotalsProblem(
        x0=p.x0[np.ix_(pr, pc)], gamma=p.gamma[np.ix_(pr, pc)],
        s0=p.s0[pr], d0=p.d0[pc], mask=p.mask[np.ix_(pr, pc)],
    )
    r = solve_fixed(p, stop=TIGHT)
    rp = solve_fixed(permuted, stop=TIGHT)
    np.testing.assert_allclose(
        rp.x, r.x[np.ix_(pr, pc)], atol=1e-6 * p.s0.max()
    )


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_feasible_base_is_projection_fixed_point(seed):
    """If x0 already satisfies the constraints, the estimate is x0."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.5, 20.0, (4, 5))
    p = FixedTotalsProblem(
        x0=x0, gamma=rng.uniform(0.5, 5.0, (4, 5)),
        s0=x0.sum(axis=1), d0=x0.sum(axis=0),
    )
    r = solve_fixed(p, stop=TIGHT)
    np.testing.assert_allclose(r.x, x0, atol=1e-8 * x0.max())
    assert r.objective < 1e-10 * (x0.max() ** 2)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, shrink=st.floats(0.1, 0.9))
def test_objective_monotone_in_constraint_distance(seed, shrink):
    """Pulling the targets toward feasibility of x0 can only decrease
    the optimal objective (the feasible set moves toward x0)."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.5, 20.0, (5, 5))
    gamma = rng.uniform(0.5, 5.0, (5, 5))
    s_base, d_base = x0.sum(axis=1), x0.sum(axis=0)
    delta_s = rng.uniform(-0.4, 0.4, 5) * s_base
    delta_d = rng.uniform(-0.4, 0.4, 5) * d_base
    delta_d += (delta_s.sum() - delta_d.sum()) / 5  # keep balance

    def solve_with(t):
        p = FixedTotalsProblem(
            x0=x0, gamma=gamma, s0=s_base + t * delta_s, d0=d_base + t * delta_d
        )
        return solve_fixed(p, stop=TIGHT).objective

    far = solve_with(1.0)
    near = solve_with(shrink)
    assert near <= far * (1 + 1e-7) + 1e-9
