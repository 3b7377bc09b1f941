"""Shared fixtures and reference oracles for the test suite.

The independent optimality oracle is SciPy's SLSQP on the explicit
QP formulation — slow and only for small instances, but it shares no
code with the library, so agreement is meaningful.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

from repro.core.problems import ElasticProblem, FixedTotalsProblem, SAMProblem


def random_fixed_problem(
    rng: np.random.Generator,
    m: int,
    n: int,
    weight_spread: float = 10.0,
    total_factor_low: float = 0.5,
    total_factor_high: float = 2.0,
    density: float = 1.0,
) -> FixedTotalsProblem:
    """A random feasible fixed-totals problem."""
    x0 = rng.uniform(0.1, 100.0, (m, n))
    mask = rng.random((m, n)) < density
    for i in np.flatnonzero(~mask.any(axis=1)):
        mask[i, rng.integers(n)] = True
    for j in np.flatnonzero(~mask.any(axis=0)):
        mask[rng.integers(m), j] = True
    gamma = rng.uniform(1.0, weight_spread, (m, n))
    # Totals from a random *feasible* flow on the same pattern (scaled by
    # random factors relative to the base), so the transportation
    # polytope is guaranteed nonempty even for sparse masks.
    witness = np.where(mask, x0, 0.0) * rng.uniform(
        total_factor_low, total_factor_high, (m, n)
    )
    s0 = witness.sum(axis=1)
    d0 = witness.sum(axis=0)
    return FixedTotalsProblem(x0=x0, gamma=gamma, s0=s0, d0=d0, mask=mask)


def random_elastic_problem(
    rng: np.random.Generator, m: int, n: int
) -> ElasticProblem:
    x0 = rng.uniform(0.1, 100.0, (m, n))
    return ElasticProblem(
        x0=x0,
        gamma=rng.uniform(0.5, 5.0, (m, n)),
        s0=x0.sum(axis=1) * rng.uniform(0.7, 1.5, m),
        d0=x0.sum(axis=0) * rng.uniform(0.7, 1.5, n),
        alpha=rng.uniform(0.5, 3.0, m),
        beta=rng.uniform(0.5, 3.0, n),
    )


def random_sam_problem(rng: np.random.Generator, n: int) -> SAMProblem:
    x0 = rng.uniform(0.5, 50.0, (n, n))
    return SAMProblem(
        x0=x0,
        gamma=rng.uniform(0.5, 5.0, (n, n)),
        s0=0.5 * (x0.sum(axis=1) + x0.sum(axis=0)) * rng.uniform(0.8, 1.3, n),
        alpha=rng.uniform(0.5, 3.0, n),
    )


def masked_elastic_problem(
    rng: np.random.Generator, m: int, n: int, density: float = 0.5
) -> ElasticProblem:
    """A random elastic problem on a random mask (row 0 and column 0
    stay active)."""
    base = random_elastic_problem(rng, m, n)
    mask = rng.random((m, n)) < density
    mask[:, 0] = True
    mask[0, :] = True
    return ElasticProblem(
        x0=base.x0, gamma=base.gamma, s0=base.s0, d0=base.d0,
        alpha=base.alpha, beta=base.beta, mask=mask,
    )


def masked_sam_problem(
    rng: np.random.Generator, n: int, density: float = 0.6
) -> SAMProblem:
    """A random SAM on a random mask with a zero diagonal; a cycle of
    off-diagonal cells keeps every account connected both ways."""
    base = random_sam_problem(rng, n)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    mask[np.arange(n), (np.arange(n) + 1) % n] = True
    mask[(np.arange(n) + 1) % n, np.arange(n)] = True
    return SAMProblem(
        x0=np.where(mask, base.x0, 0.0), gamma=base.gamma,
        s0=base.s0, alpha=base.alpha, mask=mask,
    )


def reference_fixed_solution(problem: FixedTotalsProblem) -> np.ndarray:
    """Solve a small fixed-totals problem with SciPy trust-constr
    (independent oracle; use only for m*n up to ~50)."""
    import warnings

    m, n = problem.shape
    mask = problem.mask.ravel()
    gamma = problem.gamma.ravel()
    x0 = np.where(problem.mask, problem.x0, 0.0).ravel()

    A_rows = np.zeros((m, m * n))
    for i in range(m):
        A_rows[i, i * n:(i + 1) * n] = 1.0
    A_cols = np.zeros((n, m * n))
    for j in range(n):
        A_cols[j, j::n] = 1.0
    constraint = scipy.optimize.LinearConstraint(
        np.vstack([A_rows, A_cols]),
        np.concatenate([problem.s0, problem.d0]),
        np.concatenate([problem.s0, problem.d0]),
    )
    bounds = scipy.optimize.Bounds(0.0, np.where(mask, np.inf, 0.0))
    start = np.where(
        mask,
        np.outer(problem.s0, problem.d0).ravel() / max(problem.s0.sum(), 1e-12),
        0.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singular constraint Jacobian is expected
        res = scipy.optimize.minimize(
            lambda z: float(np.sum(gamma * (z - x0) ** 2 * mask)),
            start,
            jac=lambda z: 2.0 * gamma * (z - x0) * mask,
            hess=lambda z: np.diag(2.0 * gamma * mask),
            bounds=bounds,
            constraints=[constraint],
            method="trust-constr",
            options={"maxiter": 3000, "gtol": 1e-10, "xtol": 1e-12},
        )
    if res.status not in (0, 1, 2):  # 0 = maxiter (still near-optimal), 1/2 = converged
        pytest.skip(f"trust-constr oracle failed: {res.message}")
    return res.x.reshape(m, n)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def no_c_compiler(monkeypatch):
    """A process with no C compiler on ``PATH``: the kernel-backend
    registry starts empty, so ``cnative`` is probed afresh and fails.

    Both memo dicts are reset, or a ``cnative`` built earlier in the
    session would still answer; the unset env var leaves the default
    to ``auto``.
    """
    from repro.equilibration import backends as bk
    from repro.equilibration.backends import cnative

    monkeypatch.delenv(bk.BACKEND_ENV, raising=False)
    monkeypatch.setattr(cnative, "_find_compiler", lambda: None)
    monkeypatch.setattr(bk, "_INSTANCES", {})
    monkeypatch.setattr(bk, "_UNAVAILABLE", {})
