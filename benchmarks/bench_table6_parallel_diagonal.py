"""Table 6 / Figure 5: parallel speedup and efficiency, diagonal SEA.

Two parts:

* wall-clock benchmarks of the worker-pool backends (serial vs thread)
  on the same instance — whether threads win depends on the host's
  cores and on the instance (EXPERIMENTS.md records measured 1- and
  2-thread times), which is why the *reproduction target* is the
  deterministic cost model, not the wall clock;
* regeneration of Table 6 (and Figure 5's four curves) from the
  calibrated cost model over measured phase counts, into
  ``benchmarks/results/table6.txt``.

Shape targets: S_N rises and E_N falls with N for every example; the
fixed-totals examples parallelize better than the elastic SPE ones;
SP750 is the worst at N = 6 (paper: 64.3% efficiency).
"""

import pytest

from _util import write_result
from repro.core.sea import solve_fixed
from repro.datasets.synthetic import large_diagonal_fixed
from repro.harness.experiments import is_full_scale, run_table6
from repro.parallel.executor import ParallelKernel

SIZE = 1000 if is_full_scale() else 400


@pytest.mark.parametrize("backend,workers", [
    ("serial", 1), ("serial", 4), ("thread", 4),
])
def test_backend_wall_clock(benchmark, backend, workers):
    problem = large_diagonal_fixed(SIZE, seed=SIZE)
    with ParallelKernel(workers=workers, backend=backend) as kernel:
        result = benchmark.pedantic(
            solve_fixed, args=(problem,), kwargs={"kernel": kernel},
            rounds=1, iterations=1, warmup_rounds=0,
        )
    assert result.converged


def test_regenerate_table6_and_figure5(benchmark):
    from _util import RESULTS_DIR
    from repro.harness.figures import figure5_from_result

    result = benchmark.pedantic(run_table6, rounds=1, iterations=1)
    text = write_result(result)
    (RESULTS_DIR / "figure5.txt").write_text(figure5_from_result(result) + "\n")
    assert result.all_shapes_hold, text
