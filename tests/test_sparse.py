"""Sparse execution path: structure, segmented kernel, SEA agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_fixed_problem
from repro.core.convergence import StoppingRule
from repro.core.sea import solve_fixed
from repro.datasets.io_tables import io_instance
from repro.equilibration.scalar import (
    evaluate_piecewise_linear,
    solve_piecewise_linear_scalar,
)
from repro.errors import InfeasibleProblemError
from repro.sparse.kernel import _segment_cumsum, solve_piecewise_linear_sparse
from repro.sparse.sea import solve_fixed_sparse
from repro.sparse.structure import SparsePattern

TIGHT = StoppingRule(eps=1e-8, max_iterations=5000)


class TestSparsePattern:
    def test_round_trip(self, rng):
        mask = rng.random((6, 9)) < 0.5
        x = np.where(mask, rng.uniform(1, 5, (6, 9)), 0.0)
        pattern, vals = SparsePattern.from_dense(x, mask)
        np.testing.assert_array_equal(pattern.to_dense(vals), x)

    def test_row_and_col_sums(self, rng):
        mask = rng.random((7, 5)) < 0.6
        x = np.where(mask, rng.uniform(1, 5, (7, 5)), 0.0)
        pattern, vals = SparsePattern.from_dense(x, mask)
        np.testing.assert_allclose(pattern.row_sums(vals), x.sum(axis=1))
        np.testing.assert_allclose(pattern.col_sums(vals), x.sum(axis=0))

    def test_empty_rows_and_cols(self):
        mask = np.zeros((3, 3), bool)
        mask[0, 0] = True
        pattern = SparsePattern(mask)
        vals = np.array([2.0])
        np.testing.assert_array_equal(pattern.row_sums(vals), [2.0, 0.0, 0.0])
        np.testing.assert_array_equal(pattern.col_sums(vals), [2.0, 0.0, 0.0])

    def test_csc_permutation_consistent(self, rng):
        mask = rng.random((5, 8)) < 0.5
        pattern = SparsePattern(mask)
        np.testing.assert_array_equal(
            pattern.cols[pattern.csc_perm], pattern.cols_c
        )
        assert np.all(np.diff(pattern.cols_c) >= 0)


class TestSegmentCumsum:
    def test_resets_at_segment_starts(self):
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        starts = np.array([True, False, True, False, False])
        np.testing.assert_allclose(
            _segment_cumsum(v, starts), [1.0, 3.0, 3.0, 7.0, 12.0]
        )

    def test_signed_values(self):
        v = np.array([-1.0, 2.0, -3.0, 4.0])
        starts = np.array([True, False, True, False])
        np.testing.assert_allclose(
            _segment_cumsum(v, starts), [-1.0, 1.0, -3.0, 1.0]
        )


class TestSparseKernel:
    def test_matches_scalar_reference(self, rng):
        m, n = 20, 12
        mask = rng.random((m, n)) < 0.5
        for i in np.flatnonzero(~mask.any(axis=1)):
            mask[i, rng.integers(n)] = True
        pattern = SparsePattern(mask)
        b = rng.uniform(-20, 20, pattern.nnz)
        s = rng.uniform(0.1, 5.0, pattern.nnz)
        target = rng.uniform(1.0, 50.0, m)
        lam = solve_piecewise_linear_sparse(
            pattern.rows, b, s, m, target
        )
        for i in range(m):
            sel = pattern.rows == i
            ref = solve_piecewise_linear_scalar(b[sel], s[sel], target[i])
            g_ref = evaluate_piecewise_linear(ref, b[sel], s[sel])
            g = evaluate_piecewise_linear(lam[i], b[sel], s[sel])
            assert g == pytest.approx(g_ref, abs=1e-8 * max(target[i], 1.0))

    def test_elastic_rows(self, rng):
        m = 8
        rows = np.repeat(np.arange(m), 4)
        b = rng.uniform(-10, 10, rows.size)
        s = rng.uniform(0.1, 3.0, rows.size)
        a = rng.uniform(0.1, 2.0, m)
        c = rng.uniform(-5, 5, m)
        target = np.zeros(m)
        lam = solve_piecewise_linear_sparse(rows, b, s, m, target, a=a, c=c)
        for i in range(m):
            sel = rows == i
            g = evaluate_piecewise_linear(lam[i], b[sel], s[sel], a[i], c[i])
            assert g == pytest.approx(0.0, abs=1e-8 * (np.abs(c[i]) + 1.0) * 20)

    def test_empty_rows_fixed_zero_target(self):
        lam = solve_piecewise_linear_sparse(
            np.array([0, 0]), np.array([1.0, 2.0]), np.array([1.0, 1.0]),
            3, np.array([3.0, 0.0, 0.0]),
        )
        assert lam.shape == (3,)

    def test_empty_row_positive_target_rejected(self):
        with pytest.raises(InfeasibleProblemError, match="no active cell"):
            solve_piecewise_linear_sparse(
                np.array([0]), np.array([1.0]), np.array([1.0]),
                2, np.array([1.0, 1.0]),
            )

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            solve_piecewise_linear_sparse(
                np.array([0]), np.array([1.0]), np.array([0.0]),
                1, np.array([1.0]),
            )

    def test_unsorted_rows_rejected(self):
        with pytest.raises(ValueError, match="row-major"):
            solve_piecewise_linear_sparse(
                np.array([1, 0]), np.ones(2), np.ones(2), 2, np.ones(2)
            )


class TestSparseSEA:
    @pytest.mark.parametrize("density", [0.15, 0.4, 0.8])
    def test_agrees_with_dense_path(self, rng, density):
        problem = random_fixed_problem(
            rng, 25, 20, density=density, total_factor_low=0.4
        )
        dense = solve_fixed(problem, stop=TIGHT)
        sparse = solve_fixed_sparse(problem, stop=TIGHT)
        assert sparse.iterations == dense.iterations
        np.testing.assert_allclose(
            sparse.x, dense.x, atol=1e-8 * problem.s0.max()
        )

    def test_io_instance(self):
        problem = io_instance("IOC72a")
        dense = solve_fixed(problem)
        sparse = solve_fixed_sparse(problem)
        assert sparse.converged
        assert sparse.objective == pytest.approx(dense.objective, rel=1e-6)

    def test_pair_serves_only_its_own_mask(self, rng):
        """A pattern-bound pair refuses a problem on another mask, even
        one with the same shape and cell count."""
        from repro.sparse.kernel import SparseSweepWorkspace

        problem = random_fixed_problem(rng, 6, 5, density=0.5)
        pair = SparseSweepWorkspace.pair(SparsePattern(problem.mask))
        moved = problem.mask.copy()
        i, j = np.argwhere(moved)[0]
        k, l = np.argwhere(~moved)[0]
        moved[i, j], moved[k, l] = False, True
        other = random_fixed_problem(rng, 6, 5)
        for mask in (moved, np.ones((6, 5), dtype=bool)):
            shifted = type(other)(x0=other.x0, gamma=other.gamma,
                                  s0=other.s0, d0=other.d0, mask=mask)
            with pytest.raises(ValueError, match="does not match"):
                solve_fixed_sparse(shifted, stop=TIGHT, workspaces=pair)
        assert solve_fixed_sparse(problem, stop=TIGHT, workspaces=pair).converged

    def test_fully_dense_mask_still_works(self, rng):
        problem = random_fixed_problem(rng, 10, 10, density=1.0)
        sparse = solve_fixed_sparse(problem, stop=TIGHT)
        dense = solve_fixed(problem, stop=TIGHT)
        np.testing.assert_allclose(
            sparse.x, dense.x, atol=1e-8 * problem.s0.max()
        )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), density=st.floats(0.2, 0.9))
def test_sparse_dense_equivalence_property(seed, density):
    rng = np.random.default_rng(seed)
    problem = random_fixed_problem(
        rng, 8, 9, density=density, total_factor_low=0.4
    )
    dense = solve_fixed(problem, stop=TIGHT)
    sparse = solve_fixed_sparse(problem, stop=TIGHT)
    np.testing.assert_allclose(sparse.x, dense.x, atol=1e-7 * problem.s0.max())
