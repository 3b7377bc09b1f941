#!/usr/bin/env python
"""Parallel structure of SEA: worker pools and the machine model.

SEA's row and column equilibration phases consist of independent
subproblems — the paper assigns each to a processor of a 6-CPU IBM
3090-600E.  This example:

1. runs the same problem through the serial and thread-pool
   backends, verifying bit-identical results — the decomposition is
   real, scheduling is free;
2. feeds the run's measured phase counts to the calibrated machine
   model and prints the projected speedup/efficiency table (the
   Table 6 / Figure 5 reproduction path, host-independent).

Run:  python examples/parallel_scaling.py
"""

import time

import numpy as np

from repro import solve_fixed
from repro.datasets.synthetic import large_diagonal_fixed
from repro.parallel.costmodel import CostModel
from repro.parallel.executor import ParallelKernel

SIZE = 500


def main() -> None:
    problem = large_diagonal_fixed(SIZE, seed=SIZE)
    print(f"instance: {SIZE}x{SIZE} diagonal fixed-totals problem "
          f"({SIZE * SIZE:,} variables)\n")

    results = {}
    for backend, workers in (("serial", 1), ("serial", 4), ("thread", 4)):
        with ParallelKernel(workers=workers, backend=backend) as kernel:
            t0 = time.perf_counter()
            results[(backend, workers)] = solve_fixed(problem, kernel=kernel)
            wall = time.perf_counter() - t0
        print(f"backend={backend:<7} workers={workers}: {wall:.3f}s wall, "
              f"{results[(backend, workers)].iterations} iterations")

    baseline = results[("serial", 1)].x
    for key, result in results.items():
        assert np.array_equal(result.x, baseline), key
    print("\nall backends produced bit-identical solutions.\n")

    counts = results[("serial", 1)].counts
    print("machine-model projection (calibrated against the paper's")
    print("IBM 3090-600E measurements; see repro.parallel.costmodel):")
    print(f"{'N':>3} {'S_N':>8} {'E_N':>8}")
    model = CostModel.for_fixed()
    for point in model.sweep(counts, (2, 3, 4, 5, 6)):
        print(f"{point.processors:>3} {point.speedup:8.2f} "
              f"{100 * point.efficiency:7.1f}%")
    print("\nNote: wall-clock speedup needs physical cores; on a 1-core")
    print("host the backends tie, and the machine model carries the")
    print("Table 6 / Figure 5 reproduction.")


if __name__ == "__main__":
    main()
