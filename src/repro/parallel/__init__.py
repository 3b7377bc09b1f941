"""Parallel execution of the equilibration phases.

The row (column) equilibration step consists of ``m`` (``n``)
independent subproblems — the paper allocates each to a distinct
processor of the IBM 3090-600E.  Here:

* :mod:`repro.parallel.partition` splits the subproblem index range
  into per-processor blocks;
* :mod:`repro.parallel.executor` provides :class:`ParallelKernel`, the
  one pool kernel: a drop-in ``kernel`` callable for the SEA solvers
  that runs the blocks serially, on a thread pool, or on a process
  pool;
* :mod:`repro.parallel.costmodel` is the deterministic machine model
  (operation counts + Amdahl composition with the serial
  convergence-verification phase) that regenerates the paper's speedup
  and efficiency tables on any host, including single-core ones.
"""

from repro.parallel.costmodel import CostModel, SpeedupPoint
from repro.parallel.executor import ParallelKernel
from repro.parallel.partition import partition_blocks

__all__ = [
    "ParallelKernel",
    "partition_blocks",
    "CostModel",
    "SpeedupPoint",
]
