"""Problem classes for the constrained matrix problem family.

The paper's Section 2 spans four model classes; each gets a frozen
dataclass here.  All carry a base matrix ``x0``, strictly positive
diagonal cell weights ``gamma`` on active cells, and an optional boolean
``mask`` marking structural zeros (cells pinned to 0, as in sparse
input/output tables).

==================  ======================================  ===========
Class               Unknowns                                Paper eqs.
==================  ======================================  ===========
FixedTotalsProblem  X with known row/column totals          (13),(11-12)
ElasticProblem      X plus row totals s and column totals d (5),(2)-(4)
SAMProblem          X plus balanced totals s_i = d_i        (9),(7)-(8)
GeneralProblem      any of the above with full (dense)
                    positive-definite weight matrices       (1),(6),(10)
==================  ======================================  ===========
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.errors import InvalidProblemError

__all__ = [
    "FixedTotalsProblem",
    "ElasticProblem",
    "SAMProblem",
    "GeneralProblem",
]


def _as_matrix(name: str, value: np.ndarray) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidProblemError(f"{name} must be a 2-D array, got shape {arr.shape}")
    return arr


def _as_vector(name: str, value: np.ndarray, length: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (length,):
        raise InvalidProblemError(f"{name} must have shape ({length},), got {arr.shape}")
    return arr


def _resolve_mask(x0: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    if mask is None:
        return np.ones(x0.shape, dtype=bool)
    arr = np.asarray(mask, dtype=bool)
    if arr.shape != x0.shape:
        raise InvalidProblemError("mask must match the shape of x0")
    return arr


def _check_gamma(gamma: np.ndarray, mask: np.ndarray) -> None:
    if np.any(gamma[mask] <= 0.0) or not np.all(np.isfinite(gamma[mask])):
        raise InvalidProblemError("gamma must be strictly positive and finite on active cells")


def _check_symmetric(name: str, M: np.ndarray, block: int = 2048) -> None:
    """Blocked symmetry check: avoids materializing M - M.T (which for a
    14400^2 weight matrix would mean several transient multi-GB arrays)."""
    n = M.shape[0]
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        if not np.allclose(M[lo:hi, :], M[:, lo:hi].T, rtol=1e-8, atol=1e-10):
            raise InvalidProblemError(f"{name} must be symmetric")


@dataclass(frozen=True)
class FixedTotalsProblem:
    """Quadratic constrained matrix problem with known totals (eq. 13).

    Minimize ``sum gamma_ij (x_ij - x0_ij)^2`` subject to
    ``sum_j x_ij = s0_i``, ``sum_i x_ij = d0_j``, ``x >= 0``.

    The totals must balance: ``sum(s0) == sum(d0)`` (the transportation
    polytope is empty otherwise).
    """

    x0: np.ndarray
    gamma: np.ndarray
    s0: np.ndarray
    d0: np.ndarray
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = "fixed"

    def __post_init__(self) -> None:
        x0 = _as_matrix("x0", self.x0)
        m, n = x0.shape
        gamma = _as_matrix("gamma", self.gamma)
        if gamma.shape != (m, n):
            raise InvalidProblemError("gamma must match the shape of x0")
        s0 = _as_vector("s0", self.s0, m)
        d0 = _as_vector("d0", self.d0, n)
        mask = _resolve_mask(x0, self.mask)
        _check_gamma(gamma, mask)
        if np.any(s0 < 0.0) or np.any(d0 < 0.0):
            raise InvalidProblemError("row and column totals must be nonnegative")
        if not np.isclose(s0.sum(), d0.sum(), rtol=1e-9, atol=1e-6):
            raise InvalidProblemError(
                f"totals must balance: sum(s0)={s0.sum()!r} != sum(d0)={d0.sum()!r}"
            )
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.x0.shape

    def objective(self, x: np.ndarray) -> float:
        """Weighted squared deviation of ``x`` from ``x0`` (eq. 13)."""
        diff = np.where(self.mask, x - self.x0, 0.0)
        return float(np.sum(np.where(self.mask, self.gamma, 0.0) * diff * diff))


@dataclass(frozen=True)
class ElasticProblem:
    """Constrained matrix problem with unknown totals (eq. 5).

    Minimize ``sum alpha_i (s_i-s0_i)^2 + sum gamma_ij (x_ij-x0_ij)^2
    + sum beta_j (d_j-d0_j)^2`` subject to ``sum_j x_ij = s_i``,
    ``sum_i x_ij = d_j``, ``x >= 0`` — the totals are *estimated*.
    """

    x0: np.ndarray
    gamma: np.ndarray
    s0: np.ndarray
    d0: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = "elastic"

    def __post_init__(self) -> None:
        x0 = _as_matrix("x0", self.x0)
        m, n = x0.shape
        gamma = _as_matrix("gamma", self.gamma)
        if gamma.shape != (m, n):
            raise InvalidProblemError("gamma must match the shape of x0")
        s0 = _as_vector("s0", self.s0, m)
        d0 = _as_vector("d0", self.d0, n)
        alpha = _as_vector("alpha", self.alpha, m)
        beta = _as_vector("beta", self.beta, n)
        mask = _resolve_mask(x0, self.mask)
        _check_gamma(gamma, mask)
        if np.any(alpha <= 0.0) or np.any(beta <= 0.0):
            raise InvalidProblemError("alpha and beta must be strictly positive")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.x0.shape

    def objective(self, x: np.ndarray, s: np.ndarray, d: np.ndarray) -> float:
        """Objective Theta_1(x, s, d) of eq. (5)."""
        diff = np.where(self.mask, x - self.x0, 0.0)
        return float(
            np.sum(self.alpha * (s - self.s0) ** 2)
            + np.sum(np.where(self.mask, self.gamma, 0.0) * diff * diff)
            + np.sum(self.beta * (d - self.d0) ** 2)
        )


@dataclass(frozen=True)
class SAMProblem:
    """Social accounting matrix estimation problem (eq. 9).

    Square (``n x n``); account ``i`` must *balance*: its receipts
    (row total) equal its expenditures (column total), both equal to the
    estimated ``s_i``.  Minimize ``sum alpha_i (s_i-s0_i)^2 +
    sum gamma_ij (x_ij-x0_ij)^2`` subject to ``sum_j x_ij = s_i``,
    ``sum_i x_ij = s_j``, ``x >= 0``.
    """

    x0: np.ndarray
    gamma: np.ndarray
    s0: np.ndarray
    alpha: np.ndarray
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = "sam"

    def __post_init__(self) -> None:
        x0 = _as_matrix("x0", self.x0)
        m, n = x0.shape
        if m != n:
            raise InvalidProblemError("a SAM must be square")
        gamma = _as_matrix("gamma", self.gamma)
        if gamma.shape != (n, n):
            raise InvalidProblemError("gamma must match the shape of x0")
        s0 = _as_vector("s0", self.s0, n)
        alpha = _as_vector("alpha", self.alpha, n)
        mask = _resolve_mask(x0, self.mask)
        _check_gamma(gamma, mask)
        if np.any(alpha <= 0.0):
            raise InvalidProblemError("alpha must be strictly positive")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.x0.shape

    def objective(self, x: np.ndarray, s: np.ndarray) -> float:
        """Objective Theta_2(x, s) of eq. (9)."""
        diff = np.where(self.mask, x - self.x0, 0.0)
        return float(
            np.sum(self.alpha * (s - self.s0) ** 2)
            + np.sum(np.where(self.mask, self.gamma, 0.0) * diff * diff)
        )


@dataclass(frozen=True)
class GeneralProblem:
    """General quadratic constrained matrix problem (eqs. 1, 6, 10).

    Full, symmetric, strictly positive definite weight matrices replace
    the diagonal weights: ``G`` is ``(m*n, m*n)`` over ``vec(x)`` (row
    major), ``A`` is ``(m, m)`` over ``s``, and ``B`` is ``(n, n)`` over
    ``d``.  Which of ``A``/``B`` are present selects the model class:

    * ``kind='fixed'``: only ``G``; totals ``s0``/``d0`` are constraints.
    * ``kind='elastic'``: ``A``, ``G`` and ``B``; totals estimated.
    * ``kind='sam'``: ``A`` and ``G``; square with balance constraints.
    """

    kind: Literal["fixed", "elastic", "sam"]
    x0: np.ndarray
    G: np.ndarray
    s0: np.ndarray
    d0: np.ndarray = field(default=None)  # type: ignore[assignment]
    A: np.ndarray = field(default=None)  # type: ignore[assignment]
    B: np.ndarray = field(default=None)  # type: ignore[assignment]
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = "general"

    def __post_init__(self) -> None:
        x0 = _as_matrix("x0", self.x0)
        m, n = x0.shape
        G = _as_matrix("G", self.G)
        if G.shape != (m * n, m * n):
            raise InvalidProblemError(f"G must be ({m * n}, {m * n}), got {G.shape}")
        _check_symmetric("G", G)
        if np.any(np.diag(G) <= 0.0):
            raise InvalidProblemError("G must have a strictly positive diagonal")
        mask = _resolve_mask(x0, self.mask)

        if self.kind == "fixed":
            s0 = _as_vector("s0", self.s0, m)
            d0 = _as_vector("d0", self.d0, n)
            if not np.isclose(s0.sum(), d0.sum(), rtol=1e-9, atol=1e-6):
                raise InvalidProblemError("totals must balance for the fixed model")
            A = B = None
        elif self.kind == "elastic":
            s0 = _as_vector("s0", self.s0, m)
            d0 = _as_vector("d0", self.d0, n)
            A = _as_matrix("A", self.A)
            B = _as_matrix("B", self.B)
            if A.shape != (m, m) or B.shape != (n, n):
                raise InvalidProblemError("A must be (m, m) and B (n, n)")
            if np.any(np.diag(A) <= 0.0) or np.any(np.diag(B) <= 0.0):
                raise InvalidProblemError("A and B must have strictly positive diagonals")
        elif self.kind == "sam":
            if m != n:
                raise InvalidProblemError("a SAM must be square")
            s0 = _as_vector("s0", self.s0, n)
            A = _as_matrix("A", self.A)
            if A.shape != (n, n):
                raise InvalidProblemError("A must be (n, n)")
            if np.any(np.diag(A) <= 0.0):
                raise InvalidProblemError("A must have a strictly positive diagonal")
            d0 = B = None
        else:
            raise InvalidProblemError(f"unknown kind {self.kind!r}")

        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.x0.shape

    def objective(
        self,
        x: np.ndarray,
        s: np.ndarray | None = None,
        d: np.ndarray | None = None,
    ) -> float:
        """Full quadratic-form objective of eqs. (1)/(6)/(10)."""
        dx = (np.where(self.mask, x, 0.0) - np.where(self.mask, self.x0, 0.0)).ravel()
        total = float(dx @ self.G @ dx)
        if self.kind in ("elastic", "sam"):
            ds = np.asarray(s, dtype=np.float64) - self.s0
            total += float(ds @ self.A @ ds)
        if self.kind == "elastic":
            dd = np.asarray(d, dtype=np.float64) - self.d0
            total += float(dd @ self.B @ dd)
        return total
