"""Micro-benchmarks of the sweep-workspace layer.

Isolates what ``run_trajectory.py`` measures end-to-end: repeated
kernel sweeps over drifting duals, cold (fresh allocations + full
argsort every sweep) against a persistent :class:`SweepWorkspace`
(preallocated buffers + sort-permutation reuse).

The dual drift is modelled directly: breakpoints are ``base - mu`` and
the sweep-to-sweep change is a random walk on ``mu``.  Small steps are
the *settled* regime (order mostly survives → the workspace verifies in
O(mn) and skips the sort); large steps are the *churn* regime (most
rows resort → the adaptive full-matrix path must not lose to cold).
Both regimes assert bit-identity against the cold kernel before timing.
"""

import numpy as np
import pytest

from repro.equilibration.exact import solve_piecewise_linear
from repro.equilibration.workspace import SweepWorkspace

SWEEPS = 8


def _series(m, n, step, seed=0):
    """Base terms plus a ``mu`` random walk with per-sweep scale ``step``."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-50.0, 50.0, (m, n))
    slopes = rng.uniform(0.1, 10.0, (m, n))
    target = rng.uniform(10.0, 100.0, m)
    mus = np.cumsum(rng.normal(0.0, step, (SWEEPS, n)), axis=0)
    return base, slopes, target, mus


def _run_cold(base, slopes, target, mus):
    return [
        solve_piecewise_linear(base - mu[None, :], slopes, target)
        for mu in mus
    ]


def _run_warm(base, slopes, target, mus, ws):
    return [
        solve_piecewise_linear(
            ws.shift(base, mu), slopes, target, workspace=ws
        )
        for mu in mus
    ]


class TestSweepSeries:
    """Cold vs workspace over an 8-sweep dual random walk."""

    @pytest.mark.parametrize("size", [100, 500])
    def test_cold_sweeps(self, benchmark, size):
        # Same settled walk as the workspace case: cold cost does not
        # depend on the step, so one baseline serves both regimes.
        base, slopes, target, mus = _series(size, size, step=0.02 / size)
        out = benchmark(_run_cold, base, slopes, target, mus)
        assert len(out) == SWEEPS

    @pytest.mark.parametrize("size", [100, 500])
    def test_workspace_sweeps_settled(self, benchmark, size):
        """Small dual steps: the permutation cache should carry most rows.

        The step scales with the mean within-row breakpoint gap
        (~100/size), mirroring how dual increments shrink relative to
        the breakpoint spread as SEA converges.
        """
        base, slopes, target, mus = _series(size, size, step=0.02 / size)
        ws = SweepWorkspace(size, size)
        cold = _run_cold(base, slopes, target, mus)
        warm = _run_warm(base, slopes, target, mus, ws)
        for c, w in zip(cold, warm):
            np.testing.assert_array_equal(c, w)  # bit-identical
        assert ws.sort_reuse_rate > 0.5
        out = benchmark(_run_warm, base, slopes, target, mus, ws)
        assert len(out) == SWEEPS

    @pytest.mark.parametrize("size", [100, 500])
    def test_workspace_sweeps_churn(self, benchmark, size):
        """Large dual steps: adaptive resort must stay near cold speed."""
        base, slopes, target, mus = _series(size, size, step=50.0)
        ws = SweepWorkspace(size, size)
        cold = _run_cold(base, slopes, target, mus)
        warm = _run_warm(base, slopes, target, mus, ws)
        for c, w in zip(cold, warm):
            np.testing.assert_array_equal(c, w)
        out = benchmark(_run_warm, base, slopes, target, mus, ws)
        assert len(out) == SWEEPS

