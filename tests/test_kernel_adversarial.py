"""Adversarial numerical cases for the exact-equilibration kernels.

Floating-point equilibration fails, when it fails, at ties: repeated
breakpoints, candidates landing exactly on segment boundaries, extreme
slope spreads, denormal-adjacent magnitudes.  These cases are
constructed, not sampled.
"""

import numpy as np
import pytest

from repro.equilibration.backends import available_backends
from repro.equilibration.exact import recover_flows, solve_piecewise_linear
from repro.equilibration.scalar import (
    evaluate_piecewise_linear,
    solve_piecewise_linear_scalar,
)
from repro.equilibration.workspace import SweepWorkspace
from repro.extensions.bounded import solve_piecewise_linear_bounded
from repro.sparse.kernel import solve_piecewise_linear_sparse

BACKENDS = [name for name, ok in available_backends().items() if ok]


def _check_root(lam, b, s, target, a=0.0, c=0.0, rtol=1e-9):
    g = evaluate_piecewise_linear(lam, b, s, a, c)
    scale = max(abs(target), float(np.sum(s) * (np.abs(b).max() + 1.0)), 1.0)
    assert abs(g - target) < rtol * scale


class TestTies:
    def test_all_breakpoints_identical(self):
        b = np.zeros((1, 5))
        s = np.ones((1, 5))
        lam = solve_piecewise_linear(b, s, np.array([10.0]))
        _check_root(lam[0], b[0], s[0], 10.0)

    def test_candidate_exactly_on_boundary(self):
        # Two cells; solution lands exactly at the second breakpoint.
        b = np.array([[0.0, 2.0]])
        s = np.array([[1.0, 1.0]])
        lam = solve_piecewise_linear(b, s, np.array([2.0]))  # g(2) = 2
        _check_root(lam[0], b[0], s[0], 2.0)

    def test_many_duplicate_groups(self):
        b = np.array([[1.0] * 4 + [3.0] * 4 + [5.0] * 4])
        s = np.full((1, 12), 0.5)
        for target in (0.5, 2.0, 4.0, 7.0, 20.0):
            lam = solve_piecewise_linear(b, s, np.array([target]))
            _check_root(lam[0], b[0], s[0], target)

    def test_scalar_agrees_on_ties(self):
        b = np.array([2.0, 2.0, 2.0, 7.0, 7.0])
        s = np.array([1.0, 2.0, 3.0, 1.0, 1.0])
        for target in (0.0, 1.0, 6.0, 30.0):
            lam = solve_piecewise_linear_scalar(b, s, target)
            _check_root(lam, b, s, target)


class TestExtremes:
    def test_huge_slope_spread(self):
        b = np.array([[0.0, 1.0, 2.0]])
        s = np.array([[1e-10, 1.0, 1e10]])
        for target in (1e-11, 0.5, 1e9):
            lam = solve_piecewise_linear(b, s, np.array([target]))
            _check_root(lam[0], b[0], s[0], target, rtol=1e-6)

    def test_tiny_and_huge_breakpoints(self):
        b = np.array([[-1e12, 0.0, 1e12]])
        s = np.ones((1, 3))
        lam = solve_piecewise_linear(b, s, np.array([5.0]))
        _check_root(lam[0], b[0], s[0], 5.0, rtol=1e-6)

    def test_single_dominant_cell(self):
        # One cell carries virtually the whole total.
        b = np.array([[0.0, 0.0]])
        s = np.array([[1e-12, 1.0]])
        lam = solve_piecewise_linear(b, s, np.array([7.0]))
        x = recover_flows(lam, b, s)
        assert x.sum() == pytest.approx(7.0, rel=1e-9)

    def test_elastic_huge_a(self):
        b = np.array([[0.0]])
        s = np.array([[1.0]])
        lam = solve_piecewise_linear(
            b, s, np.array([0.0]), a=np.array([1e12]), c=np.array([-5.0])
        )
        # a dominates: lam ~= 5/1e12.
        assert lam[0] == pytest.approx(5e-12, rel=1e-6)


class TestCrossKernelConsistency:
    """Dense, sparse and bounded kernels agree on shared inputs."""

    def test_three_kernels_same_equation(self, rng):
        m, n = 7, 9
        B = rng.uniform(-10, 10, (m, n))
        # Force ties in every row.
        B[:, 1] = B[:, 0]
        B[:, 3] = B[:, 2]
        SL = rng.uniform(0.1, 3.0, (m, n))
        target = rng.uniform(1.0, 40.0, m)

        lam_dense = solve_piecewise_linear(B, SL, target)

        rows = np.repeat(np.arange(m), n)
        lam_sparse = solve_piecewise_linear_sparse(
            rows, B.ravel(), SL.ravel(), m, target
        )
        lam_bounded = solve_piecewise_linear_bounded(
            B, np.full((m, n), np.inf), SL, np.zeros(m), target
        )
        for i in range(m):
            g_d = evaluate_piecewise_linear(lam_dense[i], B[i], SL[i])
            g_s = evaluate_piecewise_linear(lam_sparse[i], B[i], SL[i])
            g_b = evaluate_piecewise_linear(lam_bounded[i], B[i], SL[i])
            assert g_d == pytest.approx(target[i], rel=1e-9)
            assert g_s == pytest.approx(target[i], rel=1e-9)
            assert g_b == pytest.approx(target[i], rel=1e-9)

    def test_negative_base_matrix(self, rng):
        """SPE isomorphism produces negative x0 -> breakpoints beyond
        the usual range; all kernels must handle it."""
        from repro.equilibration.exact import equilibrate_rows

        x0 = rng.uniform(-50.0, -1.0, (5, 6))  # all-negative bases
        gamma = rng.uniform(0.5, 2.0, (5, 6))
        s0 = rng.uniform(5.0, 20.0, 5)
        lam, X = equilibrate_rows(x0, gamma, np.zeros(6), target=s0)
        np.testing.assert_allclose(X.sum(axis=1), s0, rtol=1e-9)
        assert np.all(X >= 0.0)


class TestWorkspaceAdversarial:
    """Sort-permutation reuse under hostile orderings.

    The cache accepts a stale permutation only when the permuted
    breakpoints are nondecreasing *and* ties keep original indices
    increasing (stable-sort uniqueness) — these cases attack exactly
    that check: heavy ties, mid-series reorderings and NaN poisoning.
    """

    def _sweep_pair(self, base, slopes, target, mus, backend):
        """(cold, warm) lam series over the same dual walk."""
        ws = SweepWorkspace(*base.shape, backend=backend)
        cold = [
            solve_piecewise_linear(base - mu[None, :], slopes, target)
            for mu in mus
        ]
        warm = [
            solve_piecewise_linear(
                ws.shift(base, mu), slopes, target, workspace=ws
            )
            for mu in mus
        ]
        return cold, warm, ws

    def test_tie_heavy_mid_series_invalidation(self, rng):
        # Every row is built from a handful of repeated breakpoint
        # values, so almost any dual step creates/breaks ties.  The
        # walk starts with tiny steps (order survives), then takes one
        # violent step that reorders most columns mid-series.
        m, n = 17, 24
        levels = np.array([-3.0, -1.0, 0.0, 2.0, 5.0])
        base = levels[rng.integers(0, levels.size, (m, n))]
        slopes = rng.uniform(0.5, 2.0, (m, n))
        target = rng.uniform(5.0, 50.0, m)
        steps = np.full((8, n), 1e-12)
        steps[4] = rng.uniform(-10.0, 10.0, n)  # the invalidating step
        mus = np.cumsum(steps, axis=0)

        for backend in BACKENDS:
            cold, warm, ws = self._sweep_pair(base, slopes, target, mus, backend)
            for c, w in zip(cold, warm):
                np.testing.assert_array_equal(c, w, err_msg=backend)
            assert ws.rows_reused > 0
            assert ws.rows_resorted > m  # first sweep plus the invalidation

    def test_adaptive_resort_both_paths(self, rng):
        # One step perturbs a single row (subset resort: 2*bad < rows);
        # the next reorders every row (full-matrix argsort path under
        # numpy; cnative merges every stale row either way).  Both must
        # reproduce the cold kernel exactly.
        m, n = 12, 10
        base = rng.uniform(-5.0, 5.0, (m, n))
        slopes = rng.uniform(0.5, 2.0, (m, n))
        target = rng.uniform(5.0, 20.0, m)
        mu = np.zeros(n)
        # Subset path: swap two breakpoints in one row only, so only a
        # strict subset of rows is resorted.
        base2 = base.copy()
        base2[3, [0, 1]] = base2[3, [1, 0]] + np.array([1.0, -1.0])
        # Full path: negate everything, reversing every row's order.
        base3 = -base2

        for backend in BACKENDS:
            ws = SweepWorkspace(m, n, backend=backend)
            resorted = []
            for b in (base, base2, base3):
                before = ws.rows_resorted
                lam_w = solve_piecewise_linear(
                    ws.shift(b, mu), slopes, target, workspace=ws
                )
                np.testing.assert_array_equal(
                    lam_w,
                    solve_piecewise_linear(b - mu[None, :], slopes, target),
                    err_msg=backend,
                )
                resorted.append(ws.rows_resorted - before)
            assert 0 < resorted[1] < m
            assert resorted[2] == m

    def test_nan_poisoning_raises_like_cold(self, rng):
        """NaN fails every comparison, so the validity check resorts and
        then raises exactly the cold kernel's error."""
        m, n = 6, 8
        base = rng.uniform(-5.0, 5.0, (m, n))
        slopes = rng.uniform(0.5, 2.0, (m, n))
        target = rng.uniform(5.0, 20.0, m)
        # One NaN cell: the row keeps finite candidates, so both paths
        # succeed — the workspace must resort the poisoned row (NaN
        # fails the stable-order check) and still match cold exactly.
        bad = base.copy()
        bad[2, 3] = np.nan
        # A fully-NaN row has no finite candidate: both paths raise the
        # same error.
        dead = bad.copy()
        dead[2] = np.nan
        with pytest.raises(ValueError) as cold_err:
            solve_piecewise_linear(dead, slopes, target)

        for backend in BACKENDS:
            ws = SweepWorkspace(m, n, backend=backend)
            solve_piecewise_linear(
                ws.shift(base, np.zeros(n)), slopes, target, workspace=ws
            )
            before = ws.rows_resorted
            lam_w = solve_piecewise_linear(
                ws.shift(bad, np.zeros(n)), slopes, target, workspace=ws
            )
            np.testing.assert_array_equal(
                lam_w, solve_piecewise_linear(bad, slopes, target),
                err_msg=backend,
            )
            assert ws.rows_resorted > before

            with pytest.raises(ValueError) as warm_err:
                solve_piecewise_linear(
                    ws.shift(dead, np.zeros(n)), slopes, target, workspace=ws
                )
            assert str(warm_err.value) == str(cold_err.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sparse_nan_row_raises_like_dense(self, rng, backend):
        """A sparse row with no finite candidate raises the dense
        kernel's error on the cold and workspace paths, instead of
        reading 0 (and zeroing every later row: the segmented running
        sums are global)."""
        from repro.sparse.kernel import SparseSweepWorkspace
        from repro.sparse.structure import SparsePattern

        m, n = 3, 4
        b = rng.uniform(-5.0, 5.0, (m, n))
        b[1] = np.nan
        s = rng.uniform(0.5, 2.0, (m, n))
        target = rng.uniform(5.0, 20.0, m)
        pattern = SparsePattern(np.ones((m, n), dtype=bool))
        with pytest.raises(ValueError) as dense_err:
            solve_piecewise_linear(b, s, target)
        with pytest.raises(ValueError) as cold_err:
            solve_piecewise_linear_sparse(
                pattern.rows, b.ravel(), s.ravel(), m, target
            )
        ws = SparseSweepWorkspace(pattern, backend=backend)
        with pytest.raises(ValueError) as warm_err:
            solve_piecewise_linear(b.ravel(), s.ravel(), target, workspace=ws)
        assert "subproblem 1 has no finite candidate" in str(dense_err.value)
        assert str(cold_err.value) == str(dense_err.value)
        assert str(warm_err.value) == str(dense_err.value)


@pytest.mark.parametrize("backend", BACKENDS)
class TestWorkspaceMatchesCold:
    """Warm workspace sweeps vs the cold kernel, on every backend.

    Each case walks one workspace through several sweeps and compares
    every result with a fresh cold ``solve_piecewise_linear`` call on
    the same breakpoints: equal bits, or the same error.
    """

    @staticmethod
    def _problem(rng, m, n):
        base = rng.uniform(-5.0, 5.0, (m, n))
        slopes = rng.uniform(0.5, 2.0, (m, n))
        target = rng.uniform(5.0, 20.0, m)
        return base, slopes, target

    @staticmethod
    def _warm(ws, base, slopes, target, mu):
        return solve_piecewise_linear(
            ws.shift(base, mu), slopes, target, workspace=ws
        )

    def test_tie_heavy_dual_walk(self, backend, rng):
        # Duplicated breakpoint levels: every dual nudge creates or
        # breaks ties, attacking the stable-order acceptance check.
        m, n = 15, 20
        levels = np.array([-2.0, 0.0, 0.0, 1.0, 3.0])
        base = levels[rng.integers(0, levels.size, (m, n))]
        slopes = rng.uniform(0.5, 2.0, (m, n))
        target = rng.uniform(5.0, 30.0, m)
        ws = SweepWorkspace(m, n, backend=backend)
        mu = np.zeros(n)
        for _ in range(11):
            np.testing.assert_array_equal(
                self._warm(ws, base, slopes, target, mu),
                solve_piecewise_linear(base - mu[None, :], slopes, target),
            )
            mu = mu.copy()
            mu[int(rng.integers(n))] += rng.choice([-1.0, 1.0, 2.0])

    def test_nan_written_in_place(self, backend, rng):
        m, n = 8, 10
        base, slopes, target = self._problem(rng, m, n)
        ws = SweepWorkspace(m, n, backend=backend)
        mu = np.zeros(n)
        self._warm(ws, base, slopes, target, mu)
        # In place, into the caller's array: same object, new content.
        base[2, 3] = np.nan
        np.testing.assert_array_equal(
            self._warm(ws, base, slopes, target, mu),
            solve_piecewise_linear(base, slopes, target),
        )
        # An all-NaN row has no finite candidate: the same error as the
        # cold kernel, and the failed sweep leaves nothing stale behind.
        base[2] = np.nan
        with pytest.raises(ValueError) as warm_err:
            self._warm(ws, base, slopes, target, mu)
        with pytest.raises(ValueError) as cold_err:
            solve_piecewise_linear(base, slopes, target)
        assert str(warm_err.value) == str(cold_err.value)
        base[2] = rng.uniform(-5.0, 5.0, n)
        np.testing.assert_array_equal(
            self._warm(ws, base, slopes, target, mu),
            solve_piecewise_linear(base, slopes, target),
        )

    def test_base_scaled_in_place(self, backend, rng):
        m, n = 6, 7
        base, slopes, target = self._problem(rng, m, n)
        ws = SweepWorkspace(m, n, backend=backend)
        mu = np.zeros(n)
        self._warm(ws, base, slopes, target, mu)
        base *= 1.01  # same object identity, new content
        np.testing.assert_array_equal(
            self._warm(ws, base, slopes, target, mu),
            solve_piecewise_linear(base, slopes, target),
        )

    def test_result_not_aliased(self, backend, rng):
        m, n = 4, 5
        base, slopes, target = self._problem(rng, m, n)
        ws = SweepWorkspace(m, n, backend=backend)
        mu = np.zeros(n)
        lam1 = self._warm(ws, base, slopes, target, mu)
        expected = lam1.copy()
        for buf in vars(ws).values():
            if isinstance(buf, np.ndarray):
                assert not np.shares_memory(lam1, buf)
        lam1[:] = -1.0  # mutating a returned result must not poison
        np.testing.assert_array_equal(
            self._warm(ws, base, slopes, target, mu), expected
        )
