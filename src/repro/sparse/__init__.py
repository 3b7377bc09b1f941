"""Sparse (CSR) execution path for constrained matrix problems.

Real I/O tables are sparse — the paper's IO72 family carries only 16%
nonzero cells — yet the dense kernel sorts an ``m x n`` matrix of
breakpoints every sweep, paying for the structural zeros.  This
subpackage stores only the active cells:

* :mod:`repro.sparse.structure` — a minimal CSR/CSC pair built from a
  boolean mask (no SciPy dependency: the library's core is NumPy-only);
* :mod:`repro.sparse.kernel` — exact equilibration over ragged rows via
  a segmented sort-and-scan (lexsort by (row, breakpoint), segment-reset
  prefix sums, per-row first-valid-segment selection);
* :mod:`repro.sparse.sea` — ``solve_fixed_sparse`` /
  ``solve_elastic_sparse`` / ``solve_sam_sparse``, drop-ins for the
  dense drivers of :mod:`repro.core.sea` on masked problems at
  ``O(nnz log nnz)`` per sweep instead of ``O(m n log n)``.  They share
  the dense variant table, stopping criteria and ``infeasible`` errors,
  stop at the same sweep, and agree with dense to roundoff (the tests
  assert this), not bit for bit.
"""

from repro.sparse.kernel import solve_piecewise_linear_sparse
from repro.sparse.sea import (
    solve_elastic_sparse,
    solve_fixed_sparse,
    solve_sam_sparse,
)
from repro.sparse.structure import SparsePattern

__all__ = [
    "SparsePattern",
    "solve_piecewise_linear_sparse",
    "solve_fixed_sparse",
    "solve_elastic_sparse",
    "solve_sam_sparse",
]
