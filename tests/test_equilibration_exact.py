"""Tests for the vectorized exact-equilibration kernel.

The key property: the vectorized solver agrees with the scalar
reference on every row, for fixed and elastic subproblems, with and
without inert (masked) cells.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equilibration.exact import (
    equilibrate_rows,
    recover_flows,
    solve_piecewise_linear,
)
from repro.equilibration.scalar import (
    evaluate_piecewise_linear,
    solve_piecewise_linear_scalar,
)


def _random_instance(rng, m, n, elastic, density=1.0):
    B = rng.uniform(-50.0, 50.0, (m, n))
    SL = rng.uniform(0.01, 20.0, (m, n))
    inert = rng.random((m, n)) >= density
    SL[inert] = 0.0
    # Keep at least one active cell per row in the fixed case.
    for i in np.flatnonzero((SL > 0).sum(axis=1) == 0):
        SL[i, rng.integers(n)] = 1.0
    if elastic:
        a = rng.uniform(0.01, 10.0, m)
        c = rng.uniform(-50.0, 50.0, m)
        target = rng.uniform(-100.0, 100.0, m)
    else:
        a = np.zeros(m)
        c = np.zeros(m)
        target = rng.uniform(0.0, 200.0, m)
    return B, SL, target, a, c


class TestAgainstScalar:
    @pytest.mark.parametrize("elastic", [False, True])
    @pytest.mark.parametrize("density", [1.0, 0.6])
    def test_matches_scalar_reference(self, rng, elastic, density):
        B, SL, target, a, c = _random_instance(rng, 40, 17, elastic, density)
        lam = solve_piecewise_linear(B, SL, target, a=a, c=c)
        for i in range(40):
            ref = solve_piecewise_linear_scalar(
                B[i], SL[i], target[i], a=a[i], c=c[i]
            )
            g_vec = evaluate_piecewise_linear(lam[i], B[i], SL[i], a[i], c[i])
            g_ref = evaluate_piecewise_linear(ref, B[i], SL[i], a[i], c[i])
            # lam itself may differ on flat segments; the g-values must agree.
            assert g_vec == pytest.approx(g_ref, abs=1e-7 * max(abs(target[i]), 1.0))

    def test_single_row_single_cell(self):
        lam = solve_piecewise_linear(
            np.array([[2.0]]), np.array([[4.0]]), np.array([8.0])
        )
        # g = 4 (lam - 2) = 8 -> lam = 4.
        assert lam[0] == pytest.approx(4.0)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal-shape"):
            solve_piecewise_linear(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(2))

    def test_negative_slopes(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_piecewise_linear(
                np.zeros((1, 2)), np.array([[1.0, -1.0]]), np.zeros(1)
            )

    def test_negative_elastic_slope(self):
        with pytest.raises(ValueError, match="elastic"):
            solve_piecewise_linear(
                np.zeros((1, 2)), np.ones((1, 2)), np.zeros(1), a=np.array([-1.0])
            )

    def test_fixed_negative_target_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            solve_piecewise_linear(
                np.zeros((1, 2)), np.ones((1, 2)), np.array([-5.0])
            )

    def test_fixed_empty_row_positive_target(self):
        with pytest.raises(ValueError, match="no active cell"):
            solve_piecewise_linear(
                np.zeros((1, 2)), np.zeros((1, 2)), np.array([5.0])
            )

    def test_fixed_empty_row_zero_target_ok(self):
        lam = solve_piecewise_linear(
            np.zeros((1, 2)), np.zeros((1, 2)), np.array([0.0])
        )
        assert np.isfinite(lam[0])

    def test_all_invalid_row_raises_instead_of_nan(self):
        """Regression: a nan target (e.g. a diverged upstream multiplier)
        made every candidate non-finite; the tie fallback's argmin then
        picked index 0 and silently returned nan.  Now it names the row."""
        with pytest.raises(ValueError, match="subproblem 1"):
            solve_piecewise_linear(
                np.zeros((2, 2)), np.ones((2, 2)), np.array([1.0, np.nan])
            )

    def test_nan_breakpoints_raise(self):
        with pytest.raises(ValueError, match="no finite candidate"):
            solve_piecewise_linear(
                np.full((1, 2), np.nan), np.ones((1, 2)), np.array([1.0])
            )


class TestRecoverFlows:
    def test_flows_nonnegative_and_match_formula(self, rng):
        B, SL, target, a, c = _random_instance(rng, 10, 8, elastic=False)
        lam = solve_piecewise_linear(B, SL, target)
        x = recover_flows(lam, B, SL)
        assert np.all(x >= 0.0)
        np.testing.assert_allclose(
            x, SL * np.maximum(lam[:, None] - B, 0.0)
        )

    def test_fixed_rows_meet_targets(self, rng):
        B, SL, target, a, c = _random_instance(rng, 25, 12, elastic=False)
        lam = solve_piecewise_linear(B, SL, target)
        x = recover_flows(lam, B, SL)
        np.testing.assert_allclose(x.sum(axis=1), target, rtol=1e-10, atol=1e-8)


class TestEquilibrateRows:
    def test_row_constraints_hold(self, rng):
        m, n = 12, 9
        x0 = rng.uniform(0.1, 50.0, (m, n))
        gamma = rng.uniform(0.5, 4.0, (m, n))
        mu = rng.uniform(-5.0, 5.0, n)
        s0 = x0.sum(axis=1) * rng.uniform(0.5, 1.5, m)
        lam, X = equilibrate_rows(x0, gamma, mu, target=s0)
        np.testing.assert_allclose(X.sum(axis=1), s0, rtol=1e-10, atol=1e-8)
        assert np.all(X >= 0.0)

    def test_masked_cells_stay_zero(self, rng):
        m, n = 8, 8
        x0 = rng.uniform(0.1, 50.0, (m, n))
        gamma = rng.uniform(0.5, 4.0, (m, n))
        mask = rng.random((m, n)) < 0.7
        mask[:, 0] = True  # keep every row feasible
        s0 = np.where(mask, x0, 0.0).sum(axis=1)
        lam, X = equilibrate_rows(
            x0, gamma, np.zeros(n), target=s0, mask=mask
        )
        assert np.all(X[~mask] == 0.0)

    def test_kkt_of_single_row_subproblem(self, rng):
        """The kernel's lam is the Lagrange multiplier: on the solution,
        2 gamma (x - x0) - mu_j - lam  is 0 where x > 0, >= 0 at x = 0."""
        m, n = 6, 10
        x0 = rng.uniform(0.1, 50.0, (m, n))
        gamma = rng.uniform(0.5, 4.0, (m, n))
        mu = rng.uniform(-20.0, 20.0, n)
        s0 = x0.sum(axis=1) * 0.5  # force some cells to the bound
        lam, X = equilibrate_rows(x0, gamma, mu, target=s0)
        grad = 2.0 * gamma * (X - x0) - mu[None, :] - lam[:, None]
        positive = X > 1e-10
        assert np.max(np.abs(grad[positive])) < 1e-7
        assert np.min(grad[~positive]) > -1e-7

    def test_nonpositive_gamma_rejected(self, rng):
        x0 = np.ones((2, 2))
        gamma = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="strictly positive"):
            equilibrate_rows(x0, gamma, np.zeros(2), target=np.ones(2))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 15),
    n=st.integers(1, 15),
    elastic=st.booleans(),
)
def test_vectorized_roots_property(seed, m, n, elastic):
    """Every row's lam is an exact root of its piecewise-linear equation."""
    rng = np.random.default_rng(seed)
    B, SL, target, a, c = _random_instance(rng, m, n, elastic, density=0.8)
    lam = solve_piecewise_linear(B, SL, target, a=a, c=c)
    for i in range(m):
        g = evaluate_piecewise_linear(lam[i], B[i], SL[i], a[i], c[i])
        scale = max(abs(target[i]), float(np.sum(SL[i]) * 50.0), 1.0)
        assert abs(g - target[i]) < 1e-7 * scale


class TestWorkspaceBitIdentity:
    """Workspace-driven sweeps are bit-identical to the cold kernel.

    The permutation cache relies on stable-sort uniqueness: a cached
    order is accepted only if it is exactly the order a fresh stable
    argsort would produce, so every dual trajectory — and therefore
    every lam/mu/x — must match the cold path to the last bit.  Note
    the comparisons always use *matched* ``mu0``: a warm-started solve
    (different ``mu0``) legitimately follows a different trajectory.
    """

    @staticmethod
    def _cold_kernel(b, s, t, a=None, c=None, workspace=None):
        # Ignores the driver's workspace: the cold path is the oracle.
        return solve_piecewise_linear(b, s, t, a=a, c=c)

    def _assert_same(self, cold, warm):
        np.testing.assert_array_equal(cold.lam, warm.lam)
        np.testing.assert_array_equal(cold.mu, warm.mu)
        np.testing.assert_array_equal(cold.x, warm.x)
        assert cold.iterations == warm.iterations
        assert cold.converged == warm.converged

    @pytest.mark.parametrize("kind", ["fixed", "elastic", "sam"])
    def test_solo_drivers(self, rng, kind):
        from repro.core.convergence import StoppingRule
        from repro.core.sea import solve_elastic, solve_fixed, solve_sam
        from repro.equilibration.workspace import SweepWorkspace
        from tests.conftest import (
            random_elastic_problem,
            random_fixed_problem,
            random_sam_problem,
        )

        if kind == "fixed":
            problem, solver = random_fixed_problem(rng, 19, 13), solve_fixed
        elif kind == "elastic":
            problem, solver = random_elastic_problem(rng, 19, 13), solve_elastic
        else:
            problem, solver = random_sam_problem(rng, 17), solve_sam
        stop = StoppingRule(eps=1e-6, criterion="delta-x", max_iterations=500)

        cold = solver(problem, stop=stop, kernel=self._cold_kernel)
        m, n = problem.shape
        ws = (SweepWorkspace(m, n), SweepWorkspace(n, m))
        warm = solver(problem, stop=stop, workspaces=ws)
        self._assert_same(cold, warm)
        if warm.iterations > 1:
            assert ws[0].rows_reused > 0  # the cache actually engaged

    @pytest.mark.parametrize("kind", ["fixed", "elastic", "sam"])
    def test_solo_drivers_matched_mu0(self, rng, kind):
        """Warm-start path: same cached mu0 on both sides stays exact."""
        from repro.core.convergence import StoppingRule
        from repro.core.sea import solve_elastic, solve_fixed, solve_sam
        from tests.conftest import (
            random_elastic_problem,
            random_fixed_problem,
            random_sam_problem,
        )

        if kind == "fixed":
            problem, solver = random_fixed_problem(rng, 11, 9), solve_fixed
        elif kind == "elastic":
            problem, solver = random_elastic_problem(rng, 11, 9), solve_elastic
        else:
            problem, solver = random_sam_problem(rng, 10), solve_sam
        stop = StoppingRule(eps=1e-6, criterion="delta-x", max_iterations=500)
        mu0 = solver(problem, stop=stop).mu  # a realistic cached dual

        cold = solver(problem, stop=stop, mu0=mu0, kernel=self._cold_kernel)
        warm = solver(problem, stop=stop, mu0=mu0)
        self._assert_same(cold, warm)

    def test_sparse_driver_cross_solve_reuse(self, rng):
        """A retained sparse pair stays exact across repeated solves."""
        from repro.core.convergence import StoppingRule
        from repro.sparse.kernel import SparseSweepWorkspace
        from repro.sparse.sea import solve_fixed_sparse
        from repro.sparse.structure import SparsePattern
        from tests.conftest import random_fixed_problem

        problem = random_fixed_problem(rng, 15, 12, density=0.5)
        stop = StoppingRule(eps=1e-6, criterion="delta-x", max_iterations=500)
        fresh = solve_fixed_sparse(problem, stop=stop)

        pair = SparseSweepWorkspace.pair(SparsePattern(problem.mask))
        solve_fixed_sparse(problem, stop=stop, workspaces=pair)
        before = pair[0].counters_extended()
        again = solve_fixed_sparse(problem, stop=stop, workspaces=pair)
        self._assert_same(fresh, again)
        if again.iterations > 1:
            after = pair[0].counters_extended()
            assert after["rows_reused"] > before["rows_reused"]

    def test_solve_batch(self, rng):
        from repro.core.convergence import StoppingRule
        from repro.equilibration.workspace import SweepWorkspace
        from repro.service.batching import solve_batch
        from tests.conftest import random_fixed_problem

        k, m, n = 3, 9, 7
        problems = [random_fixed_problem(rng, m, n) for _ in range(k)]
        stop = StoppingRule(eps=1e-6, criterion="delta-x", max_iterations=500)

        cold = solve_batch(problems, stop=stop, kernel=self._cold_kernel)
        ws = (SweepWorkspace(k * m, n), SweepWorkspace(k * n, m))
        warm = solve_batch(problems, stop=stop, workspaces=ws)
        for c, w in zip(cold, warm):
            self._assert_same(c, w)
