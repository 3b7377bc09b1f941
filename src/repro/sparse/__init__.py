"""Sparse (CSR) layout for constrained matrix problems.

Real I/O tables are sparse — the paper's IO72 family carries only 16%
nonzero cells — yet the dense kernel sorts an ``m x n`` matrix of
breakpoints every sweep, paying for the structural zeros.  This
subpackage stores only the active cells, as a workspace layout of the
one SEA driver of :mod:`repro.core.sea` (not a second engine):

* :mod:`repro.sparse.structure` — a minimal CSR/CSC pair built from a
  boolean mask (no SciPy dependency: the library's core is NumPy-only);
* :mod:`repro.sparse.kernel` — exact equilibration over ragged rows via
  a segmented sort-and-scan, and :class:`SparseSweepWorkspace`, whose
  pattern-bound ``(row, column)`` pair any diagonal driver sweeps on;
* :mod:`repro.sparse.sea` — ``solve_fixed_sparse`` /
  ``solve_elastic_sparse`` / ``solve_sam_sparse``, the dense drivers on
  such a pair: ``O(nnz log nnz)`` per sweep instead of ``O(m n log n)``,
  the same rules and sweep counts, answers equal to dense to roundoff.
"""

from repro.sparse.kernel import SparseSweepWorkspace, solve_piecewise_linear_sparse
from repro.sparse.sea import (
    solve_elastic_sparse,
    solve_fixed_sparse,
    solve_sam_sparse,
)
from repro.sparse.structure import SparsePattern

__all__ = [
    "SparsePattern",
    "SparseSweepWorkspace",
    "solve_piecewise_linear_sparse",
    "solve_fixed_sparse",
    "solve_elastic_sparse",
    "solve_sam_sparse",
]
