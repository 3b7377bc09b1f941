"""Chaos tests: the solve service under injected faults.

The headline guarantee of the fault-tolerance layer is that chaos
changes *availability metrics*, never *answers*: with a seeded
:class:`~repro.service.faults.FaultPlan` raising/corrupting in >=20% of
dispatches, every response stays bit-identical to the fault-free serial
solve, deadlines bound wall clock, and ``ServiceStats`` accounts for
every injected fault.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import numpy as np
import pytest
from conftest import random_fixed_problem

import repro.parallel.executor as executor_mod
from repro.core.api import solve
from repro.core.problems import FixedTotalsProblem
from repro.core.sea import solve_fixed
from repro.equilibration.exact import solve_piecewise_linear
from repro.equilibration.workspace import SweepWorkspace
from repro.errors import DeadlineExceededError, WorkerCrashError
from repro.parallel.executor import ParallelKernel
from repro.service import FaultPlan, FaultyKernel, SolveService
from repro.sparse.sea import solve_fixed_sparse

# Fault-free baselines per request engine: sparse requests sweep the
# service's one driver on a sparse layout, so faults reach them too.
BASELINES = {"dense": solve, "sparse": solve_fixed_sparse}


def infeasible_fixed() -> FixedTotalsProblem:
    """Positive row total with every cell of that row masked out."""
    mask = np.ones((3, 3), dtype=bool)
    mask[0] = False
    mask[:, 0] = True  # keep every column supported
    mask[0, 0] = False
    mask[1, 0] = True
    return FixedTotalsProblem(
        x0=np.ones((3, 3)),
        gamma=np.ones((3, 3)),
        s0=np.array([5.0, 3.0, 3.0]),
        d0=np.array([4.0, 3.5, 3.5]),
        mask=mask,
    )


def chaos_service(plan: FaultPlan, backend: str = "serial", workers: int = 1,
                  **kw) -> SolveService:
    kernel = FaultyKernel(ParallelKernel(workers=workers, backend=backend),
                          plan)
    kw.setdefault("warm_start", False)  # warm starts change the dual path
    return SolveService(kernel=kernel, **kw)


class TestFaultPlan:
    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="raise_fraction"):
            FaultPlan(raise_fraction=1.5)
        with pytest.raises(ValueError, match="delay_s"):
            FaultPlan(delay_s=-1.0)
        with pytest.raises(ValueError, match="max_faults"):
            FaultPlan(max_faults=-1)

    def test_seeded_schedule_is_deterministic(self):
        def draws(seed):
            fk = FaultyKernel(ParallelKernel(workers=1),
                              FaultPlan(seed=seed, raise_fraction=0.3,
                                        delay_fraction=0.2, delay_s=0.0))
            return [fk._draw() for _ in range(50)]

        assert draws(11) == draws(11)
        assert draws(11) != draws(12)

    def test_max_faults_caps_injection(self):
        fk = FaultyKernel(ParallelKernel(workers=1),
                          FaultPlan(seed=0, raise_fraction=1.0, max_faults=3))
        modes = [fk._draw() for _ in range(10)]
        # _draw does not itself count; simulate what __call__ records
        fired = 0
        fk2 = FaultyKernel(ParallelKernel(workers=1),
                           FaultPlan(seed=0, raise_fraction=1.0, max_faults=3))
        for _ in range(10):
            try:
                fk2(np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1))
            except Exception:
                fired += 1
        assert modes[:3] == ["raise"] * 3
        assert fired == 3 and fk2.faults_injected == 3


class TestServiceRetries:
    def test_injected_raise_is_retried_to_identical_result(self, rng):
        problem = random_fixed_problem(rng, 4, 4)
        for engine, baseline in BASELINES.items():
            plan = FaultPlan(seed=0, raise_fraction=1.0, max_faults=2)
            with chaos_service(plan, default_retries=3) as svc:
                resp = svc.solve(problem, engine=engine)
            assert resp.ok and resp.retries == 2, engine
            np.testing.assert_array_equal(
                resp.result.x, baseline(problem).x, err_msg=engine
            )
            stats = svc.stats()
            assert stats.retries == 2 and stats.errors == 0, engine

    def test_retries_exhausted_reports_worker_crash(self, rng):
        plan = FaultPlan(seed=0, raise_fraction=1.0)  # unbounded chaos
        with chaos_service(plan, default_retries=2) as svc:
            resp = svc.solve(random_fixed_problem(rng, 4, 4))
        assert not resp.ok
        assert resp.error_kind == "worker-crash" and resp.retries == 2
        stats = svc.stats()
        assert stats.retries == 2
        assert stats.errors_by_kind == {"worker-crash": 1}

    def test_deterministic_error_is_never_retried(self):
        plan = FaultPlan(seed=0)  # no faults: the problem itself is bad
        with chaos_service(plan, default_retries=5) as svc:
            resp = svc.solve(infeasible_fixed())
        assert not resp.ok and resp.error_kind == "infeasible"
        assert resp.retries == 0 and svc.stats().retries == 0

    def test_corrupted_dispatch_detected_and_resolved(self, rng):
        problem = random_fixed_problem(rng, 4, 4)
        for engine, baseline in BASELINES.items():
            plan = FaultPlan(seed=0, corrupt_fraction=1.0, max_faults=1)
            with chaos_service(plan, default_retries=3) as svc:
                resp = svc.solve(problem, engine=engine)
            assert resp.ok and resp.retries == 1, engine
            np.testing.assert_array_equal(
                resp.result.x, baseline(problem).x, err_msg=engine
            )
            assert svc.kernel.injected["corrupt"] == 1, engine


class TestDeadlines:
    def test_delay_fault_trips_deadline(self, rng):
        problem = random_fixed_problem(rng, 4, 4)
        for engine in BASELINES:
            plan = FaultPlan(seed=0, delay_fraction=1.0, delay_s=0.05)
            with chaos_service(plan, default_deadline_s=0.04) as svc:
                t0 = time.monotonic()
                resp = svc.solve(problem, engine=engine)
                elapsed = time.monotonic() - t0
            assert not resp.ok, engine
            assert resp.error_kind == "deadline-exceeded", engine
            assert resp.retries == 0  # deadline errors fail fast
            assert elapsed < 2.0  # nowhere near a full delayed solve
            assert svc.stats().deadline_exceeded >= 1, engine

    def test_per_request_deadline_overrides_default(self, rng):
        plan = FaultPlan(seed=0, delay_fraction=1.0, delay_s=0.05)
        with chaos_service(plan, default_deadline_s=None) as svc:
            resp = svc.solve(random_fixed_problem(rng, 4, 4),
                             deadline_s=0.04)
            clean = svc.solve(random_fixed_problem(rng, 4, 4))
        assert resp.error_kind == "deadline-exceeded"
        # no default deadline: the delayed solve still completes
        assert clean.ok

    def test_pooled_dispatch_timeout_abandons_stragglers(self):
        kernel = ParallelKernel(workers=2, backend="thread")
        m = 6
        breakpoints = np.tile(np.linspace(-1.0, 1.0, 4), (m, 1))
        slopes = np.tile(np.array([0.5, 1.0, 2.0, 1.5]), (m, 1))
        target = np.full(m, 1.0)
        # sanity: generous budget succeeds
        out = kernel(breakpoints, slopes, target, timeout=30.0)
        assert np.all(np.isfinite(out))
        with pytest.raises(DeadlineExceededError):
            kernel(breakpoints, slopes, target, timeout=1e-9)
        # the abandoned pool is replaced transparently
        assert kernel(breakpoints, slopes, target, timeout=30.0).shape == (m,)
        kernel.close()

    def test_stragglers_never_share_a_block_workspace(self, monkeypatch):
        """A timed-out dispatch abandons block tasks that keep sweeping
        their row-block workspaces; the next dispatch on the same caller
        workspace never sweeps one of those and answers the cold
        kernel's bytes."""
        m = 8
        breakpoints = np.tile(np.linspace(-1.0, 1.0, 5), (m, 1))
        breakpoints += np.arange(m)[:, None] * 0.1
        slopes = np.tile(np.array([0.5, 1.0, 2.0, 1.5, 0.7]), (m, 1))
        target = np.linspace(1.0, 2.0, m)
        cold = solve_piecewise_linear(breakpoints, slopes, target)
        stalled = breakpoints.copy()  # the first dispatch's blocks slice it
        release = threading.Event()
        held, fresh = [], []

        def gated(b, s, t, a=None, c=None, workspace=None):
            if b.base is stalled:
                held.append(workspace)
                release.wait(timeout=30.0)
            else:
                fresh.append(workspace)
            return solve_piecewise_linear(b, s, t, a=a, c=c,
                                          workspace=workspace)

        monkeypatch.setattr(executor_mod, "solve_piecewise_linear", gated)
        caller = SweepWorkspace(m, 5)
        kernel = ParallelKernel(workers=2, backend="thread")
        abandoned = kernel._ensure_pool()
        try:
            with pytest.raises(DeadlineExceededError):
                kernel(stalled, slopes, target, timeout=0.05,
                       workspace=caller)
            out = kernel(breakpoints, slopes, target, timeout=30.0,
                         workspace=caller)
            assert not release.is_set()  # the stragglers still sweep
        finally:
            release.set()
            abandoned.shutdown(wait=True)
            kernel.close()
        assert held and len(fresh) == 2
        assert {id(ws) for ws in fresh}.isdisjoint(id(ws) for ws in held)
        assert out.tobytes() == cold.tobytes()


class TestCircuitBreaker:
    def test_breaker_opens_rejects_and_closes(self, rng):
        with SolveService(breaker_threshold=2, breaker_cooldown=2,
                          warm_start=False) as svc:
            bad = infeasible_fixed()
            good = random_fixed_problem(rng, 3, 3)  # same (kind, shape) group
            r1 = svc.solve(bad)
            r2 = svc.solve(bad)      # second consecutive failure: trips
            r3 = svc.solve(bad)      # open: rejected without solving
            r4 = svc.solve(bad)      # still open: rejected
            r5 = svc.solve(good)     # cooldown over: half-open trial
            r6 = svc.solve(good)     # closed again
        assert [r.error_kind for r in (r1, r2, r3, r4)] == [
            "infeasible", "infeasible", "circuit-open", "circuit-open",
        ]
        assert r5.ok and r6.ok
        stats = svc.stats()
        assert stats.breaker_trips == 1
        assert stats.breaker_rejections == 2
        assert stats.errors_by_kind["circuit-open"] == 2

    def test_half_open_failure_retrips(self):
        with SolveService(breaker_threshold=2, breaker_cooldown=2,
                          warm_start=False) as svc:
            bad = infeasible_fixed()
            svc.solve(bad)
            svc.solve(bad)           # trips
            svc.solve(bad)           # rejected
            svc.solve(bad)           # rejected; cooldown elapses
            r5 = svc.solve(bad)      # half-open trial fails: re-trips
            r6 = svc.solve(bad)      # open again
        assert r5.error_kind == "infeasible"
        assert r6.error_kind == "circuit-open"
        assert svc.stats().breaker_trips == 2

    def test_unrelated_group_unaffected_by_open_breaker(self, rng):
        with SolveService(breaker_threshold=1, breaker_cooldown=50,
                          warm_start=False) as svc:
            svc.solve(infeasible_fixed())               # trips (3, 3) fixed
            other = svc.solve(random_fixed_problem(rng, 4, 4))
            same = svc.solve(random_fixed_problem(rng, 3, 3))
        assert other.ok  # different shape: different breaker
        assert same.error_kind == "circuit-open"


class _BrokenPool:
    """Executor stand-in whose submissions always fail."""

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args, **kwargs):
        raise BrokenExecutor("injected: pool refuses all work")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestDegradationLadder:
    def test_thread_backend_degrades_to_serial(self, rng, monkeypatch):
        monkeypatch.setitem(executor_mod._POOL_TYPES, "thread", _BrokenPool)
        problem = random_fixed_problem(rng, 6, 6)
        baseline = solve_fixed(problem)
        kernel = ParallelKernel(workers=2, backend="thread",
                                max_retries=1, retry_backoff_s=0.001)
        result = solve_fixed(problem, kernel=kernel)
        np.testing.assert_array_equal(result.x, baseline.x)
        assert kernel.effective_backend == "serial"
        assert kernel.degraded_dispatches > 0
        assert kernel.worker_crashes == 2  # max_retries + 1 on the thread rung
        assert kernel.pool_rebuilds == 1
        kernel.reset()
        assert kernel.effective_backend == "thread"

    def test_all_rungs_broken_raises_worker_crash(self, monkeypatch):
        monkeypatch.setitem(executor_mod._POOL_TYPES, "thread", _BrokenPool)
        monkeypatch.setitem(executor_mod._LADDERS, "thread", ("thread",))
        kernel = ParallelKernel(workers=2, backend="thread",
                                max_retries=1, retry_backoff_s=0.001)
        m = 4
        breakpoints = np.tile(np.linspace(-1.0, 1.0, 4), (m, 1))
        slopes = np.tile(np.array([0.5, 1.0, 2.0, 1.5]), (m, 1))
        with pytest.raises(WorkerCrashError):
            kernel(breakpoints, slopes, np.full(m, 1.0))

    def test_degraded_kernel_feeds_service_stats(self, rng, monkeypatch):
        monkeypatch.setitem(executor_mod._POOL_TYPES, "thread", _BrokenPool)
        kernel = ParallelKernel(workers=2, backend="thread",
                                max_retries=0, retry_backoff_s=0.001)
        with SolveService(kernel=kernel, warm_start=False) as svc:
            resp = svc.solve(random_fixed_problem(rng, 6, 6))
        assert resp.ok
        stats = svc.stats()
        assert stats.worker_crashes >= 1
        assert stats.degraded_dispatches >= 1


class TestKernelLifecycle:
    def test_healthy_probe(self):
        serial = ParallelKernel(workers=1, backend="serial")
        assert serial.healthy()
        with ParallelKernel(workers=2, backend="thread") as kernel:
            assert kernel.healthy()

    def test_healthy_false_on_broken_pool(self, monkeypatch):
        monkeypatch.setitem(executor_mod._POOL_TYPES, "thread", _BrokenPool)
        kernel = ParallelKernel(workers=2, backend="thread")
        assert not kernel.healthy()

    def test_close_is_reusable(self, rng):
        problem = random_fixed_problem(rng, 6, 6)
        baseline = solve_fixed(problem)
        kernel = ParallelKernel(workers=2, backend="thread")
        first = solve_fixed(problem, kernel=kernel)
        kernel.close()
        second = solve_fixed(problem, kernel=kernel)  # pool re-forks lazily
        kernel.close()
        np.testing.assert_array_equal(first.x, baseline.x)
        np.testing.assert_array_equal(second.x, baseline.x)


@pytest.mark.slow
class TestChaosAcceptance:
    """The headline acceptance runs on the two-worker ``thread`` pool:
    a broken pool and a seeded plan raising/corrupting in >=20% of
    dispatches, every response bit-identical to the fault-free serial
    solve."""

    def test_pool_break_mid_batch_recovers_bit_identical(
        self, rng, monkeypatch
    ):
        problems = [random_fixed_problem(rng, 4, 4) for _ in range(3)]
        baselines = [solve(p) for p in problems]
        pools = []

        def breaks_once(max_workers):
            pools.append(
                ThreadPoolExecutor(max_workers) if pools else _BrokenPool()
            )
            return pools[-1]

        monkeypatch.setitem(executor_mod._POOL_TYPES, "thread", breaks_once)
        kernel = ParallelKernel(workers=2, backend="thread")
        with SolveService(kernel=kernel, warm_start=False) as svc:
            for p in problems:
                svc.submit(p)
            responses = svc.drain()
        assert all(r.ok and r.batched for r in responses)
        for resp, base in zip(responses, baselines):
            np.testing.assert_array_equal(resp.result.x, base.x)
        stats = svc.stats()
        assert stats.worker_crashes >= 1  # the broken pool was seen...
        assert stats.pool_rebuilds >= 1   # ...and replaced by a fresh one
        assert kernel.effective_backend == "thread"
        assert stats.degraded_dispatches == 0

    def test_sustained_chaos_stays_bit_identical(self, rng):
        problems = [random_fixed_problem(rng, 4, 4) for _ in range(8)]
        baselines = [solve(p) for p in problems]
        # raise+corrupt in 25% of dispatches (>= the 20% acceptance bar)
        # while the fault budget lasts; the budget bounds wall clock and
        # guarantees bounded retries eventually meet a clean dispatch.
        plan = FaultPlan(seed=17, raise_fraction=0.10, corrupt_fraction=0.15,
                         max_faults=6)
        assert plan.raise_fraction + plan.corrupt_fraction >= 0.20
        with chaos_service(plan, backend="thread", workers=2,
                           default_retries=10, default_deadline_s=120.0,
                           ) as svc:
            t0 = time.monotonic()
            for p in problems:
                svc.submit(p)
            responses = svc.drain()
            elapsed = time.monotonic() - t0
        assert elapsed < 120.0  # nothing hung past its deadline
        assert all(r.ok for r in responses)
        for resp, base in zip(responses, baselines):
            np.testing.assert_array_equal(resp.result.x, base.x)
            np.testing.assert_array_equal(resp.result.s, base.s)
            np.testing.assert_array_equal(resp.result.d, base.d)
        # the plan's chaos budget was fully spent ...
        assert svc.kernel.faults_injected == 6
        # ... and the stats account for it: every raise or corruption
        # surfaced as a service retry or a batch fallback.
        stats = svc.stats()
        assert stats.retries + stats.batch_fallbacks >= 1
        assert stats.errors == 0 and stats.completed == len(problems)
