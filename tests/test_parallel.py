"""Parallel engine: partitioning, executor equivalence, dispatch counts."""

import gc
import weakref

import numpy as np
import pytest

from conftest import random_fixed_problem, random_sam_problem
from repro.core.convergence import StoppingRule
from repro.core.sea import solve_elastic, solve_fixed
from repro.datasets.spe_data import spe_instance
from repro.equilibration.workspace import SweepWorkspace
from repro.parallel.executor import ParallelKernel
from repro.parallel.partition import partition_blocks
from repro.service import SolveService
from repro.spe.model import solve_spe


class TestPartition:
    def test_docstring_example(self):
        assert partition_blocks(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_covers_range_exactly(self):
        for count in (1, 5, 16, 97):
            for workers in (1, 2, 3, 8, 100):
                blocks = partition_blocks(count, workers)
                covered = [i for lo, hi in blocks for i in range(lo, hi)]
                assert covered == list(range(count))

    def test_balanced_within_one(self):
        blocks = partition_blocks(100, 7)
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_workers(self):
        blocks = partition_blocks(2, 5)
        assert len(blocks) == 2

    def test_zero_items(self):
        assert partition_blocks(0, 4) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_blocks(-1, 2)
        with pytest.raises(ValueError):
            partition_blocks(5, 0)


class TestParallelKernel:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_to_vectorized_fixed(self, rng, backend, workers):
        problem = random_fixed_problem(rng, 16, 11, total_factor_low=0.4)
        baseline = solve_fixed(problem, stop=StoppingRule(eps=1e-8, max_iterations=2000))
        with ParallelKernel(workers=workers, backend=backend) as kernel:
            result = solve_fixed(
                problem, stop=StoppingRule(eps=1e-8, max_iterations=2000),
                kernel=kernel,
            )
        np.testing.assert_array_equal(result.x, baseline.x)
        np.testing.assert_array_equal(result.lam, baseline.lam)
        assert result.iterations == baseline.iterations

    def test_identical_to_vectorized_elastic(self, rng):
        spe = spe_instance(12)
        stop = StoppingRule(eps=1e-6, criterion="delta-x", max_iterations=20_000)
        baseline = solve_spe(spe, stop=stop)
        with ParallelKernel(workers=3, backend="serial") as kernel:
            result = solve_spe(spe, stop=stop, kernel=kernel)
        np.testing.assert_array_equal(result.x, baseline.x)

    def test_dispatch_counter(self, rng):
        problem = random_fixed_problem(rng, 8, 8)
        with ParallelKernel(workers=2, backend="serial") as kernel:
            result = solve_fixed(problem, kernel=kernel)
            assert kernel.dispatches == 2 * result.iterations

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelKernel(workers=0)
        with pytest.raises(ValueError, match="backend"):
            ParallelKernel(workers=1, backend="gpu")

    def test_single_worker_no_pool(self):
        kernel = ParallelKernel(workers=1, backend="serial")
        assert kernel._pool is None
        kernel.close()

    def test_pool_reused_across_solves(self, rng):
        """The long-lived pool is created once and shared by every solve."""
        problem = random_fixed_problem(rng, 8, 8)
        with ParallelKernel(workers=2, backend="thread") as kernel:
            solve_fixed(problem, kernel=kernel)
            pool = kernel._pool
            assert pool is not None
            solve_fixed(problem, kernel=kernel)
            assert kernel._pool is pool

    def test_reusable_after_close(self, rng):
        """close() releases the pool; the next solve re-creates it lazily
        and stays bit-identical."""
        problem = random_fixed_problem(rng, 8, 8)
        baseline = solve_fixed(problem)
        kernel = ParallelKernel(workers=2, backend="thread")
        first = solve_fixed(problem, kernel=kernel)
        kernel.close()
        assert kernel._pool is None
        second = solve_fixed(problem, kernel=kernel)
        assert kernel._pool is not None
        kernel.close()
        np.testing.assert_array_equal(first.x, baseline.x)
        np.testing.assert_array_equal(second.x, baseline.x)

    def test_square_phases_keep_their_own_sort_orders(self, rng):
        """A square problem's row and column blocks share one shape but
        not one block workspace, so both phases reuse their sorts."""
        problem = random_sam_problem(rng, 40)
        answers, reuse = {}, {}
        for workers in (1, 2):
            with SolveService(workers=workers) as svc:
                answers[workers] = svc.solve(problem, eps=1e-6).result
                reuse[workers] = svc.stats().sort_reuse_rate
        assert answers[2].iterations > 1
        assert reuse[2] > 0
        np.testing.assert_array_equal(answers[1].x, answers[2].x)
        np.testing.assert_array_equal(answers[1].mu, answers[2].mu)

    def test_pool_creation_is_lazy(self):
        kernel = ParallelKernel(workers=4, backend="thread")
        assert kernel._pool is None  # nothing forked until first dispatch
        kernel.close()

    def test_block_workspaces_die_with_their_service(self, rng, monkeypatch):
        """A pool kernel's row-block workspaces belong to the caller's
        workspace pair: once the service is gone, so are they."""
        built = []
        init = SweepWorkspace.__init__

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(SweepWorkspace, "__init__", tracked_init)
        svc = SolveService(workers=2, backend="thread")
        assert svc.solve(random_fixed_problem(rng, 12, 10), eps=1e-6).ok
        svc.close()
        del svc
        gc.collect()
        assert len(built) > 2  # the service's pair and its row blocks
        assert [ref for ref in built if ref() is not None] == []
