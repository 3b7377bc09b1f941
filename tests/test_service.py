"""Solve service: fingerprints, cache, batching, scheduling, wire format."""

import numpy as np
import pytest

from conftest import (
    masked_elastic_problem,
    masked_sam_problem,
    random_elastic_problem,
    random_fixed_problem,
    random_sam_problem,
)
from repro.core.api import fingerprint, totals_vector
from repro.core.convergence import StoppingRule
from repro.core.problems import FixedTotalsProblem, GeneralProblem
from repro.core.sea import solve_fixed
from repro.core.sea_general import solve_general
from repro.datasets.general import dense_spd_weights
from repro.service import (
    SolveRequest,
    SolveService,
    WarmStartCache,
    solve_fixed_batch,
)
from repro.service.wire import (
    request_from_jsonable,
    request_to_jsonable,
    response_to_jsonable,
)
from repro.sparse.kernel import SparseSweepWorkspace
from repro.sparse.sea import solve_fixed_sparse
from repro.sparse.structure import SparsePattern


def perturbed(problem: FixedTotalsProblem, rng, drift=0.02) -> FixedTotalsProblem:
    """Same structure/weights, totals drifted by a balanced perturbation."""
    w = np.where(problem.mask, problem.x0, 0.0) * rng.uniform(
        1.0 - drift, 1.0 + drift, problem.shape
    )
    return FixedTotalsProblem(
        x0=problem.x0, gamma=problem.gamma,
        s0=w.sum(axis=1), d0=w.sum(axis=0), mask=problem.mask,
    )


def infeasible_fixed() -> FixedTotalsProblem:
    """Passes construction, but row 0 has no active cell and s0[0] > 0."""
    return FixedTotalsProblem(
        x0=np.ones((2, 2)), gamma=np.ones((2, 2)),
        s0=np.array([1.0, 3.0]), d0=np.array([2.0, 2.0]),
        mask=np.array([[False, False], [True, True]]),
    )


class TestFingerprint:
    def test_identical_problems_share_key(self, rng):
        p = random_fixed_problem(rng, 5, 4)
        q = FixedTotalsProblem(x0=p.x0, gamma=p.gamma, s0=p.s0, d0=p.d0,
                               mask=p.mask)
        assert fingerprint(p).key == fingerprint(q).key

    def test_totals_change_data_not_bucket(self, rng):
        p = random_fixed_problem(rng, 5, 4)
        q = perturbed(p, rng)
        fp, fq = fingerprint(p), fingerprint(q)
        assert fp.bucket == fq.bucket
        assert fp.key != fq.key

    def test_weights_change_bucket(self, rng):
        p = random_fixed_problem(rng, 5, 4)
        q = FixedTotalsProblem(x0=p.x0, gamma=p.gamma * 2.0, s0=p.s0,
                               d0=p.d0, mask=p.mask)
        assert fingerprint(p).bucket != fingerprint(q).bucket

    def test_kinds_disjoint(self, rng):
        fixed = random_fixed_problem(rng, 4, 4)
        sam = random_sam_problem(rng, 4)
        assert fingerprint(fixed).kind == "fixed"
        assert fingerprint(sam).kind == "sam"
        assert fingerprint(fixed).bucket != fingerprint(sam).bucket

    def test_general_kind_tag(self, rng):
        x0 = rng.uniform(1, 5, (3, 3))
        p = GeneralProblem(kind="fixed", x0=x0, G=dense_spd_weights(9, seed=0),
                           s0=x0.sum(axis=1), d0=x0.sum(axis=0))
        assert fingerprint(p).kind == "general-fixed"

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            fingerprint(object())


class TestWarmStartCache:
    def test_exact_hit(self, rng):
        p = random_fixed_problem(rng, 4, 4)
        cache = WarmStartCache()
        fp, totals = fingerprint(p), totals_vector(p)
        cache.store(fp, totals, np.arange(4.0))
        mu, exact = cache.lookup(fp, totals)
        assert exact
        np.testing.assert_array_equal(mu, np.arange(4.0))

    def test_nearest_neighbor(self, rng):
        p = random_fixed_problem(rng, 4, 4)
        near, far = perturbed(p, rng, drift=0.01), perturbed(p, rng, drift=0.5)
        cache = WarmStartCache()
        cache.store(fingerprint(near), totals_vector(near), np.full(4, 1.0))
        cache.store(fingerprint(far), totals_vector(far), np.full(4, 2.0))
        mu, exact = cache.lookup(fingerprint(p), totals_vector(p))
        assert not exact
        np.testing.assert_array_equal(mu, np.full(4, 1.0))

    def test_miss_outside_bucket(self, rng):
        p = random_fixed_problem(rng, 4, 4)
        other = random_fixed_problem(rng, 4, 4)  # different weights/mask
        cache = WarmStartCache()
        cache.store(fingerprint(other), totals_vector(other), np.zeros(4))
        assert cache.lookup(fingerprint(p), totals_vector(p)) is None

    def test_store_update_refreshes_totals(self, rng):
        """Re-storing a key must update totals along with mu, or
        nearest-neighbor distances against the entry go stale."""
        p = random_fixed_problem(rng, 4, 4)
        cache = WarmStartCache()
        fp, totals = fingerprint(p), totals_vector(p)
        cache.store(fp, totals, np.zeros(4))
        cache.store(fp, totals + 1.0, np.ones(4))
        entry = cache._entries[fp.key]
        np.testing.assert_array_equal(entry.totals, totals + 1.0)
        np.testing.assert_array_equal(entry.mu, np.ones(4))

    def test_lru_eviction(self, rng):
        p = random_fixed_problem(rng, 4, 4)
        cache = WarmStartCache(maxsize=2)
        variants = [perturbed(p, rng) for _ in range(3)]
        for i, v in enumerate(variants):
            cache.store(fingerprint(v), totals_vector(v), np.full(4, float(i)))
        assert len(cache) == 2
        # The oldest entry is gone; its exact lookup now falls back to
        # nearest-neighbor within the shared bucket.
        v0 = variants[0]
        mu, exact = cache.lookup(fingerprint(v0), totals_vector(v0))
        assert not exact

    def test_eviction_empties_bucket_and_misses_cleanly(self, rng):
        """Evicting a bucket's last entry must clean its index: a
        later ``lookup_with_perms`` misses with ``None``, it does not
        crash on a dangling key."""
        a = random_fixed_problem(rng, 4, 4)
        b = random_fixed_problem(rng, 5, 3)  # different bucket
        cache = WarmStartCache(maxsize=1)
        cache.store(fingerprint(a), totals_vector(a), np.zeros(4),
                    perms=(np.arange(4), None))
        cache.store(fingerprint(b), totals_vector(b), np.zeros(5))  # evicts a
        assert len(cache) == 1
        assert cache.lookup_with_perms(fingerprint(a), totals_vector(a)) is None
        hit = cache.lookup_with_perms(fingerprint(b), totals_vector(b))
        assert hit is not None and hit[1] is True and hit[2] is None

    def test_store_refresh_reorders_recency(self, rng):
        """Re-storing (or looking up) an entry makes it most recently
        used, so the *other* entry is the next eviction victim."""
        p = random_fixed_problem(rng, 4, 4)
        v0, v1, v2 = (perturbed(p, rng) for _ in range(3))
        cache = WarmStartCache(maxsize=2)
        cache.store(fingerprint(v0), totals_vector(v0), np.zeros(4))
        cache.store(fingerprint(v1), totals_vector(v1), np.ones(4))
        # refresh v0: it becomes MRU, v1 becomes the eviction victim
        cache.store(fingerprint(v0), totals_vector(v0), np.full(4, 9.0))
        cache.store(fingerprint(v2), totals_vector(v2), np.full(4, 2.0))
        assert cache.lookup(fingerprint(v0), totals_vector(v0))[1] is True
        assert cache.lookup(fingerprint(v1), totals_vector(v1))[1] is False

    def test_state_restore_round_trip_preserves_lru(self, rng):
        p = random_fixed_problem(rng, 4, 4)
        variants = [perturbed(p, rng) for _ in range(3)]
        cache = WarmStartCache(maxsize=4)
        for i, v in enumerate(variants):
            cache.store(fingerprint(v), totals_vector(v),
                        np.full(4, float(i)), perms=(np.arange(4), None))
        restored = WarmStartCache(maxsize=2)
        restored.restore(cache.state())
        # beyond-maxsize states keep the most recently used tail
        assert len(restored) == 2
        assert restored.lookup(fingerprint(variants[0]),
                               totals_vector(variants[0]))[1] is False
        mu, exact, perms = restored.lookup_with_perms(
            fingerprint(variants[2]), totals_vector(variants[2])
        )
        assert exact and perms is not None
        np.testing.assert_array_equal(mu, np.full(4, 2.0))


class TestServiceStats:
    def test_every_field_round_trips(self):
        """Field-driven guarantee: any counter added to ServiceStats
        shows up in snapshot() (independently copied) and as_dict()
        (JSON-serializable) without touching either method."""
        import dataclasses
        import json

        from repro.service import ServiceStats

        stats = ServiceStats()
        for i, f in enumerate(dataclasses.fields(ServiceStats), start=1):
            current = getattr(stats, f.name)
            if isinstance(current, dict):
                setattr(stats, f.name, {"probe": i})
            elif isinstance(current, float):
                setattr(stats, f.name, float(i))
            else:
                setattr(stats, f.name, i)
        snap = stats.snapshot()
        out = snap.as_dict()
        for i, f in enumerate(dataclasses.fields(ServiceStats), start=1):
            expected = {"probe": i} if isinstance(
                getattr(stats, f.name), dict) else type(
                getattr(stats, f.name))(i)
            assert getattr(snap, f.name) == expected, f.name
            assert out[f.name] == expected, f.name
        # derived rates ride along and the whole thing is JSON-clean
        for key in ("cache_hit_rate", "mean_solve_time", "mean_iterations",
                    "sort_reuse_rate", "total_solve_time"):
            assert key in out
        json.dumps(out)

    def test_snapshot_is_independent(self):
        from repro.service import ServiceStats

        stats = ServiceStats()
        stats.count_kind("fixed")
        stats.count_error_kind("overloaded")
        snap = stats.snapshot()
        stats.requests = 7
        stats.per_kind["fixed"] = 99
        stats.errors_by_kind["overloaded"] = 99
        assert snap.requests == 0
        assert snap.per_kind == {"fixed": 1}
        assert snap.errors_by_kind == {"overloaded": 1}


class TestBatch:
    def test_bit_identical_to_solo(self, rng):
        problems = [random_fixed_problem(rng, 7, 6, density=0.7)
                    for _ in range(4)]
        stop = StoppingRule(eps=1e-8, max_iterations=5000)
        mu0s = [None, np.full(6, 0.5), None, np.zeros(6)]
        for batch_result, problem, mu0 in zip(
            solve_fixed_batch(problems, stop=stop, mu0s=mu0s), problems, mu0s
        ):
            solo = solve_fixed(problem, stop=stop, mu0=mu0)
            np.testing.assert_array_equal(batch_result.x, solo.x)
            np.testing.assert_array_equal(batch_result.lam, solo.lam)
            np.testing.assert_array_equal(batch_result.mu, solo.mu)
            assert batch_result.iterations == solo.iterations
            assert batch_result.residual == solo.residual
            assert batch_result.counts.parallel_ops == solo.counts.parallel_ops

    def test_individual_retirement(self, rng):
        easy = random_fixed_problem(rng, 6, 6, total_factor_low=0.95,
                                    total_factor_high=1.05)
        hard = random_fixed_problem(rng, 6, 6, density=0.5,
                                    total_factor_low=0.2,
                                    total_factor_high=2.5)
        stop = StoppingRule(eps=1e-8, max_iterations=5000)
        results = solve_fixed_batch([easy, hard], stop=stop)
        solos = [solve_fixed(p, stop=stop) for p in (easy, hard)]
        assert [r.iterations for r in results] == [s.iterations for s in solos]
        assert results[0].iterations != results[1].iterations

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            solve_fixed_batch([random_fixed_problem(rng, 4, 4),
                               random_fixed_problem(rng, 5, 4)])

    def test_empty_batch(self):
        assert solve_fixed_batch([]) == []

    def test_results_are_not_views_into_batch_stacks(self, rng):
        """Regression: _finalize used to store views into the shared
        (k, m, n) iterate stacks, so results pinned the whole buffer
        and mutating one corrupted its batch-mates."""
        problems = [random_fixed_problem(rng, 5, 5) for _ in range(3)]
        results = solve_fixed_batch(problems)
        for r in results:
            assert r.x.base is None
            assert r.lam.base is None
            assert r.mu.base is None
        untouched = results[2].lam.copy()
        results[0].lam[:] = np.nan
        np.testing.assert_array_equal(results[2].lam, untouched)


class TestWarmStartConvergence:
    def test_warm_equals_cold_solution(self, rng):
        """Acceptance: warm-started solves reach the cold solution."""
        stop = StoppingRule(eps=1e-9, max_iterations=20_000)
        p1 = random_fixed_problem(rng, 8, 7, density=0.6)
        p2 = perturbed(p1, rng)
        seed = solve_fixed(p1, stop=stop)
        cold = solve_fixed(p2, stop=stop)
        warm = solve_fixed(p2, stop=stop, mu0=seed.mu)
        assert warm.converged and cold.converged
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)

    def test_warm_equals_cold_through_service(self, rng):
        stop_kw = {"eps": 1e-9, "max_iterations": 20_000}
        p1 = random_fixed_problem(rng, 8, 7)
        p2 = perturbed(p1, rng)
        for engine, solver in (("dense", solve_fixed),
                               ("sparse", solve_fixed_sparse)):
            cold = solver(p2, stop=StoppingRule(**stop_kw))
            with SolveService() as svc:
                svc.solve(p1, engine=engine, **stop_kw)
                resp = svc.solve(p2, engine=engine, **stop_kw)
            assert resp.warm_started and not resp.cache_exact, engine
            assert resp.converged, engine
            np.testing.assert_allclose(
                resp.result.x, cold.x, atol=1e-6, err_msg=engine
            )

    def test_general_mu0_warm_start(self, rng):
        x0 = rng.uniform(1, 5, (4, 4))
        w = x0 * rng.uniform(0.8, 1.2, x0.shape)
        p = GeneralProblem(kind="fixed", x0=x0, G=dense_spd_weights(16, seed=3),
                           s0=w.sum(axis=1), d0=w.sum(axis=0))
        stop = StoppingRule(eps=1e-7, max_iterations=5000)
        cold = solve_general(p, stop=stop)
        warm = solve_general(p, stop=stop, mu0=cold.mu)
        assert warm.converged
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-5)


class TestSparseLayout:
    """Sparse requests take the service's one dispatch path: its kernel,
    workspace LRU, warm-start cache and sort counters."""

    STOP = {"eps": 1e-9, "max_iterations": 20_000}

    def test_same_shape_masks_get_their_own_pairs(self, rng):
        a = random_fixed_problem(rng, 9, 8, density=0.5)
        b = random_fixed_problem(rng, 9, 8, density=0.5)
        assert not np.array_equal(a.mask, b.mask)
        with SolveService() as svc:
            answers = [(p, svc.solve(p, engine="sparse", **self.STOP))
                       for p in (a, b)]
            stats = svc.stats()
        for p, resp in answers:
            cold = solve_fixed_sparse(p, stop=StoppingRule(**self.STOP))
            assert resp.result.algorithm == "SEA-fixed-sparse"
            for key in ("x", "lam", "mu"):
                np.testing.assert_array_equal(
                    getattr(resp.result, key), getattr(cold, key)
                )
        # Every sweep ran on a service-owned sparse pair.
        sweeps = sum(2 * resp.result.iterations for _, resp in answers)
        assert stats.sort_sweeps == sweeps

    def test_sparse_sweeps_feed_sort_counters(self, rng):
        problem = masked_elastic_problem(rng, 8, 7)
        with SolveService() as svc:
            before = svc.stats()
            svc.solve(problem, engine="sparse", **self.STOP)
            after = svc.stats()
        assert after.sort_sweeps > before.sort_sweeps == 0
        assert after.sort_full_resorts > 0
        assert sum(after.backend_solves.values()) == after.sort_sweeps

    def test_dense_and_sparse_share_warm_starts(self, rng):
        problem = random_fixed_problem(rng, 9, 8, density=0.5)
        stop = StoppingRule(**self.STOP)
        pairs = {
            "dense": lambda: None,
            "sparse": lambda: SparseSweepWorkspace.pair(
                SparsePattern(problem.mask)
            ),
        }
        for first, second in (("dense", "sparse"), ("sparse", "dense")):
            with SolveService() as svc:
                seed = svc.solve(problem, engine=first, **self.STOP)
                resp = svc.solve(problem, engine=second, **self.STOP)
            assert resp.ok and resp.warm_started and resp.cache_exact, second
            direct = solve_fixed(
                problem, stop=stop, mu0=seed.result.mu,
                workspaces=pairs[second](),
            )
            assert resp.result.iterations == direct.iterations, second
            np.testing.assert_array_equal(resp.result.x, direct.x)

    def test_sparse_general_problem_is_refused_without_a_pair(self):
        x0 = np.arange(1.0, 10.0).reshape(3, 3)
        p = GeneralProblem(kind="fixed", x0=x0, G=dense_spd_weights(9, seed=0),
                           s0=x0.sum(axis=1), d0=x0.sum(axis=0))
        with SolveService() as svc:
            resp = svc.solve(p, engine="sparse")
            assert not svc._workspaces
        assert not resp.ok and resp.error_kind == "internal"
        assert "sparse engine cannot solve GeneralProblem" in resp.error

    def test_two_workers_match_one(self, rng):
        problem = masked_sam_problem(rng, 12)
        answers = []
        for workers in (1, 2):
            with SolveService(workers=workers) as svc:
                answers.append(svc.solve(problem, engine="sparse", eps=1e-9))
                assert svc.kernel.dispatches > 0
        one, two = (resp.result for resp in answers)
        np.testing.assert_array_equal(one.x, two.x)
        np.testing.assert_array_equal(one.mu, two.mu)


class TestService:
    def test_mixed_kind_stream(self, rng):
        problems = [
            random_fixed_problem(rng, 5, 5),
            random_elastic_problem(rng, 4, 6),
            random_sam_problem(rng, 5),
            random_fixed_problem(rng, 5, 5),
        ]
        with SolveService() as svc:
            ids = [svc.submit(p) for p in problems]
            responses = svc.drain()
        assert [r.id for r in responses] == ids
        assert all(r.converged for r in responses)
        stats = svc.stats()
        assert stats.completed == 4
        assert stats.per_kind == {"fixed": 2, "elastic": 1, "sam": 1}
        # The two same-shape fixed problems were fused into one batch.
        assert stats.batches == 1 and stats.batched_requests == 2
        assert all(r.batched == (r.kind == "fixed") for r in responses)

    def test_exact_cache_hit(self, rng):
        p = random_fixed_problem(rng, 5, 5)
        with SolveService() as svc:
            svc.solve(p, batchable=False)
            resp = svc.solve(p, batchable=False)
        assert resp.warm_started and resp.cache_exact
        stats = svc.stats()
        assert stats.cache_exact_hits == 1
        assert 0.0 < stats.hit_rate <= 1.0

    def test_hit_rate_over_windows(self, rng):
        base = random_fixed_problem(rng, 6, 6)
        with SolveService(max_batch=4) as svc:
            for _ in range(2):
                for _ in range(4):
                    svc.submit(perturbed(base, rng))
                svc.drain()
        stats = svc.stats()
        assert stats.cache_misses == 4  # first window only
        assert stats.cache_hits == 4  # second window all warm
        assert stats.hit_rate == pytest.approx(0.5)

    def test_queue_depth(self, rng):
        with SolveService() as svc:
            svc.submit(random_fixed_problem(rng, 4, 4))
            svc.submit(random_fixed_problem(rng, 4, 4))
            assert svc.stats().queue_depth == 2
            svc.drain()
            assert svc.stats().queue_depth == 0

    def test_solve_retains_other_responses_for_collect(self, rng):
        """submit -> solve -> collect must lose nothing: solve() drains
        the whole queue but only returns its own response."""
        with SolveService() as svc:
            early = [svc.submit(random_fixed_problem(rng, 4, 4)),
                     svc.submit(random_sam_problem(rng, 4))]
            mine = svc.solve(random_elastic_problem(rng, 4, 4))
            leftovers = svc.collect()
        assert mine.ok and mine.kind == "elastic"
        assert [r.id for r in leftovers] == early
        assert all(r.ok for r in leftovers)
        assert svc.collect() == []  # delivered exactly once

    def test_error_isolation_single(self, rng):
        for engine in ("dense", "sparse"):
            with SolveService() as svc:
                good = svc.solve(random_fixed_problem(rng, 4, 4), engine=engine)
                bad = svc.solve(infeasible_fixed(), engine=engine)
            assert good.ok, engine
            assert not bad.ok and "InfeasibleProblemError" in bad.error, engine
            assert bad.error_kind == "infeasible", engine
            # Deterministic errors are never retried.
            assert bad.retries == 0, engine
            stats = svc.stats()
            assert stats.errors == 1 and stats.completed == 1, engine
            assert stats.errors_by_kind == {"infeasible": 1}, engine

    def test_batch_falls_back_on_poisoned_member(self, rng):
        """An infeasible batch-mate must not take down the others."""
        good = FixedTotalsProblem(
            x0=np.ones((2, 2)), gamma=np.ones((2, 2)),
            s0=np.array([2.0, 2.0]), d0=np.array([2.0, 2.0]),
        )
        with SolveService() as svc:
            gid = svc.submit(good)
            bid = svc.submit(infeasible_fixed())
            responses = {r.id: r for r in svc.drain()}
        assert responses[gid].ok and responses[gid].converged
        assert not responses[bid].ok

    def test_sparse_engine_matches_dense(self, rng):
        """Both engines run one rule set: under every criterion, each
        kind stops at the same sweep with the same answer."""
        problems = {
            "fixed": random_fixed_problem(rng, 6, 6, density=0.5),
            "elastic": masked_elastic_problem(rng, 7, 6),
            "sam": masked_sam_problem(rng, 6),
        }
        # No warm starts: each pair must start from the same point.
        with SolveService(warm_start=False) as svc:
            for kind, p in problems.items():
                for criterion in ("delta-x", "imbalance", "dual-gradient"):
                    label = f"{kind}/{criterion}"
                    options = dict(eps=1e-8, criterion=criterion,
                                   max_iterations=5000)
                    dense = svc.solve(p, **options)
                    sparse = svc.solve(p, engine="sparse", **options)
                    assert sparse.kind == f"{kind}/sparse"
                    assert dense.converged, label
                    assert (sparse.result.iterations, sparse.converged) == (
                        dense.result.iterations, dense.converged
                    ), label
                    np.testing.assert_allclose(
                        sparse.result.x, dense.result.x, atol=1e-6,
                        err_msg=label,
                    )

    def test_usable_after_close(self, rng):
        svc = SolveService(workers=2, backend="thread")
        p = random_fixed_problem(rng, 5, 5)
        first = svc.solve(p, batchable=False)
        svc.close()
        again = svc.solve(perturbed(p, rng), batchable=False)
        assert first.converged and again.converged
        svc.close()

    def test_options_require_bare_problem(self, rng):
        req = SolveRequest(problem=random_fixed_problem(rng, 3, 3))
        with SolveService() as svc:
            with pytest.raises(TypeError, match="options"):
                svc.submit(req, eps=1e-4)

    def test_bad_engine_rejected(self, rng):
        with pytest.raises(ValueError, match="engine"):
            SolveRequest(problem=random_fixed_problem(rng, 3, 3), engine="gpu")


class TestWire:
    def test_request_round_trip(self, rng):
        req = SolveRequest(
            problem=random_fixed_problem(rng, 4, 3, density=0.7),
            id="abc", eps=1e-5, warm_start=False,
        )
        back = request_from_jsonable(request_to_jsonable(req))
        assert back.id == "abc"
        assert back.eps == 1e-5
        assert back.warm_start is False and back.batchable is True
        np.testing.assert_allclose(back.problem.x0, req.problem.x0)
        np.testing.assert_array_equal(back.problem.mask, req.problem.mask)

    def test_response_payloads(self, rng):
        p = random_fixed_problem(rng, 4, 4)
        with SolveService() as svc:
            resp = svc.solve(p)
        obj = response_to_jsonable(resp)
        assert obj["status"] == "ok" and obj["converged"]
        assert np.asarray(obj["x"]).shape == (4, 4)
        slim = response_to_jsonable(resp, include_matrix=False)
        assert "x" not in slim

    def test_error_response_payload(self):
        with SolveService() as svc:
            resp = svc.solve(infeasible_fixed())
        obj = response_to_jsonable(resp)
        assert obj["status"] == "error"
        assert obj["error"]["kind"] == "infeasible"
        assert "InfeasibleProblemError" in obj["error"]["message"]

    def test_nonfinite_residual_is_null(self, rng):
        p = random_fixed_problem(rng, 4, 4)
        with SolveService() as svc:
            resp = svc.solve(p, eps=1e-12, max_iterations=1, criterion="delta-x")
        obj = response_to_jsonable(resp)
        assert obj["converged"] is False

    def test_request_without_problem_rejected(self):
        with pytest.raises(ValueError, match="problem"):
            request_from_jsonable({"id": "x"})


class TestServiceWorkspaces:
    """Persistent sweep workspaces and the warm-start perm round-trip."""

    class _WorkspaceKernel:
        """In-process kernel that sweeps on the service's workspaces."""

        def __init__(self):
            from repro.equilibration.exact import solve_piecewise_linear

            self._solve = solve_piecewise_linear

        def __call__(self, b, s, t, a=None, c=None, timeout=None,
                     workspace=None):
            return self._solve(b, s, t, a=a, c=c, workspace=workspace)

    def test_perm_round_trip_and_counters(self, rng):
        service = SolveService(kernel=self._WorkspaceKernel(), batching=False)
        base = random_fixed_problem(rng, 9, 7)
        first = service.solve(SolveRequest(problem=base, batchable=False))
        assert first.ok
        # The converged solve's final permutations landed in the cache.
        fp = fingerprint(base)
        entry = service.cache.lookup_with_perms(fp, totals_vector(base))
        assert entry is not None and entry[2] is not None

        # A bucket-mate request is seeded from those permutations and
        # the service-level counters report the reuse.
        second = service.solve(
            SolveRequest(problem=perturbed(base, rng), batchable=False)
        )
        assert second.ok and second.warm_started
        stats = service.stats()
        assert stats.sort_sweeps > 0
        assert stats.sort_rows_reused > 0
        assert stats.sort_reuse_rate > 0.0

    def test_sort_counters_surface_and_retired_read_zero(self, rng):
        """The sort/backend counters ride the stats pipeline end to end
        (dataclass, merge, JSON view, Prometheus text); the retired
        skip/repair counters stay in every view and read 0."""
        with SolveService() as svc:
            svc.solve(random_fixed_problem(rng, 7, 7), batchable=False)
            stats = svc.stats()
        as_dict = stats.as_dict()
        for key in ("sort_rows_skipped", "sort_perm_repairs",
                    "sort_full_resorts", "backend_solves"):
            assert key in as_dict
        assert stats.sort_rows_skipped == stats.sort_perm_repairs == 0
        assert stats.sort_full_resorts > 0
        assert sum(stats.backend_solves.values()) > 0
        merged = stats.merge(stats)
        assert merged.sort_full_resorts == 2 * stats.sort_full_resorts
        assert sum(merged.backend_solves.values()) == 2 * sum(
            stats.backend_solves.values()
        )
        text = stats.metrics_text()
        assert "repro_sort_perm_repairs_total 0" in text
        assert "repro_sort_rows_skipped_total 0" in text
        assert "repro_backend_solves_total" in text

    def test_sort_counters_never_decrease(self, rng):
        """The sort counters are Prometheus ``_total`` counters: a pair
        evicted from the service's workspace LRU (8 pairs) keeps its
        counts in the totals."""
        keys = ("sort_sweeps", "sort_rows_reused", "sort_rows_resorted",
                "sort_full_resorts")
        previous = None
        with SolveService(batching=False) as service:
            for n in range(4, 16):  # 12 shapes: the last 4 evict
                problem = random_fixed_problem(rng, n, n)
                assert service.solve(problem, batchable=False).ok
                stats = service.stats()
                current = [getattr(stats, key) for key in keys]
                current.append(sum(stats.backend_solves.values()))
                if previous is not None:
                    assert all(
                        now >= before for now, before in zip(current, previous)
                    ), (n, previous, current)
                previous = current

    def test_pool_block_sweeps_count_once(self, rng):
        """Under a two-worker thread pool each row-block sweep counts
        once in ``sort_sweeps`` and once in ``backend_solves``, the
        ``sort_*`` totals only grow, and as many rows get sorted as with
        one worker.  The traffic: a converging square solve, then a
        batched drain whose members retire at different sweeps (each
        retirement re-splits the stacked rows into new blocks)."""
        keys = ("sort_sweeps", "sort_rows_reused", "sort_rows_resorted",
                "sort_full_resorts")
        square = random_sam_problem(rng, 12)
        batch = [random_fixed_problem(rng, 6, 5, weight_spread=spread)
                 for spread in (1.0, 10.0, 100.0)]
        rows_sorted = {}
        for workers, backend in ((1, "serial"), (2, "thread")):
            with SolveService(workers=workers, backend=backend,
                              warm_start=False) as service:
                snapshots = [service.stats()]
                assert service.solve(square, eps=1e-8).result.iterations > 1
                snapshots.append(service.stats())
                for problem in batch:
                    service.submit(problem, eps=1e-8)
                responses = service.drain()
                snapshots.append(service.stats())
            assert all(r.ok and r.batched for r in responses)
            assert len({r.result.iterations for r in responses}) == 3
            for stats in snapshots:
                assert stats.sort_sweeps == sum(stats.backend_solves.values())
            for before, after in zip(snapshots, snapshots[1:]):
                for key in keys:
                    assert getattr(after, key) > getattr(before, key), key
            last = snapshots[-1]
            rows_sorted[workers] = last.sort_rows_reused + last.sort_rows_resorted
        assert rows_sorted[1] == rows_sorted[2]

    def test_batch_workspaces_bit_identical_to_serial(self, rng):
        """Fused batches over a retained k-stacked pair match the
        serial cold path member by member."""
        service = SolveService(kernel=self._WorkspaceKernel(), batching=True,
                               warm_start=False)
        problems = [random_fixed_problem(rng, 8, 6) for _ in range(3)]
        reqs = [SolveRequest(problem=p) for p in problems]
        for req in reqs:
            service.submit(req)
        responses = {r.id: r for r in service.drain()}
        assert all(r.ok for r in responses.values())
        assert any(r.batched for r in responses.values())
        from repro.service.batching import solve_batch

        def cold_kernel(b, s, t, a=None, c=None, workspace=None):
            from repro.equilibration.exact import solve_piecewise_linear

            return solve_piecewise_linear(b, s, t, a=a, c=c)

        serial = solve_batch(problems, kernel=cold_kernel)
        for req, res in zip(reqs, serial):
            resp = responses[req.id]
            np.testing.assert_array_equal(resp.result.x, res.x)
            np.testing.assert_array_equal(resp.result.mu, res.mu)
