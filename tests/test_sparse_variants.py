"""Sparse elastic/SAM solvers and the feasibility certifier."""

import numpy as np
import pytest

from conftest import (
    masked_elastic_problem,
    masked_sam_problem,
    random_fixed_problem,
    random_sam_problem,
)
from repro.core.convergence import StoppingRule
from repro.core.problems import FixedTotalsProblem
from repro.core.sea import solve_elastic, solve_sam
from repro.feasibility import assert_feasible, certify_feasible, max_flow_bipartite
from repro.sparse.sea import solve_elastic_sparse, solve_sam_sparse

TIGHT = StoppingRule(eps=1e-8, max_iterations=20_000)


class TestSparseElastic:
    def test_agrees_with_dense(self, rng):
        problem = masked_elastic_problem(rng, 15, 12)
        dense = solve_elastic(problem, stop=TIGHT)
        sparse = solve_elastic_sparse(problem, stop=TIGHT)
        np.testing.assert_allclose(
            sparse.x, dense.x, atol=1e-7 * problem.s0.max()
        )
        np.testing.assert_allclose(sparse.s, dense.s, rtol=1e-6)
        np.testing.assert_allclose(sparse.d, dense.d, rtol=1e-6)

    def test_spe_through_sparse_path(self):
        from repro.datasets.spe_data import spe_instance
        from repro.spe.isomorphism import spe_to_elastic

        elastic = spe_to_elastic(spe_instance(20))
        stop = StoppingRule(eps=1e-6, criterion="delta-x", max_iterations=50_000)
        dense = solve_elastic(elastic, stop=stop)
        sparse = solve_elastic_sparse(elastic, stop=stop)
        assert sparse.converged
        np.testing.assert_allclose(sparse.x, dense.x, atol=1e-5)


class TestSparseSAM:
    def test_agrees_with_dense(self, rng):
        problem = masked_sam_problem(rng, 10)
        stop = StoppingRule(eps=1e-9, criterion="imbalance",
                            max_iterations=20_000)
        dense = solve_sam(problem, stop=stop)
        sparse = solve_sam_sparse(problem, stop=stop)
        np.testing.assert_allclose(
            sparse.x, dense.x, atol=1e-6 * problem.s0.max()
        )
        np.testing.assert_allclose(sparse.s, dense.s, rtol=1e-6)

    def test_balance_holds(self, rng):
        problem = random_sam_problem(rng, 8)
        sparse = solve_sam_sparse(problem, stop=StoppingRule(
            eps=1e-9, criterion="imbalance", max_iterations=20_000))
        assert sparse.converged
        np.testing.assert_allclose(
            sparse.x.sum(axis=1), sparse.x.sum(axis=0),
            atol=1e-5 * problem.s0.max(),
        )


class TestFeasibility:
    def test_dense_pattern_always_feasible(self, rng):
        problem = random_fixed_problem(rng, 5, 5)
        assert certify_feasible(problem.mask, problem.s0, problem.d0)
        assert_feasible(problem)  # no raise

    def test_blocked_pattern_detected(self):
        # x00 must carry all of row 0 AND all of column 0, but the
        # targets conflict.
        mask = np.eye(2, dtype=bool)
        s0 = np.array([3.0, 1.0])
        d0 = np.array([1.0, 3.0])
        assert not certify_feasible(mask, s0, d0)

    def test_unbalanced_totals_detected(self):
        mask = np.ones((2, 2), bool)
        assert not certify_feasible(mask, np.array([1.0, 1.0]),
                                    np.array([3.0, 3.0]))

    def test_max_flow_value(self):
        mask = np.ones((2, 2), bool)
        s0 = np.array([2.0, 3.0])
        d0 = np.array([4.0, 1.0])
        assert max_flow_bipartite(mask, s0, d0) == pytest.approx(5.0)

    def test_upper_bounds_restrict_flow(self):
        mask = np.ones((2, 2), bool)
        s0 = np.array([2.0, 2.0])
        d0 = np.array([2.0, 2.0])
        tight = np.full((2, 2), 0.5)
        assert not certify_feasible(mask, s0, d0, upper=tight)
        loose = np.full((2, 2), 2.0)
        assert certify_feasible(mask, s0, d0, upper=loose)

    def test_assert_feasible_raises_with_diagnostic(self):
        problem = FixedTotalsProblem(
            x0=np.eye(2) + 0.0, gamma=np.ones((2, 2)),
            s0=np.array([3.0, 1.0]), d0=np.array([1.0, 3.0]),
            mask=np.eye(2, dtype=bool),
        )
        with pytest.raises(ValueError, match="max-flow certificate"):
            assert_feasible(problem)

    def test_zero_totals_trivially_feasible(self):
        mask = np.zeros((2, 2), bool)
        assert certify_feasible(mask, np.zeros(2), np.zeros(2))

    def test_sparse_random_patterns_agree_with_solver_success(self, rng):
        """Whenever the certificate says feasible, SEA converges (the
        contrapositive guards the certificate against false positives)."""
        from repro.core.sea import solve_fixed

        for seed in range(5):
            local = np.random.default_rng(seed)
            problem = random_fixed_problem(local, 8, 8, density=0.3,
                                           total_factor_low=0.5)
            assert certify_feasible(problem.mask, problem.s0, problem.d0)
            result = solve_fixed(problem, stop=StoppingRule(
                eps=1e-6, max_iterations=20_000))
            assert result.converged
