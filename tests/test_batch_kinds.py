"""Kind-aware batch engine: bit-identity, ownership, service routing."""

import numpy as np
import pytest

from conftest import (
    random_elastic_problem,
    random_fixed_problem,
    random_sam_problem,
)
from repro.core.convergence import StoppingRule
from repro.core.problems import ElasticProblem, FixedTotalsProblem
from repro.core.sea import solve_elastic, solve_fixed, solve_sam
from repro.equilibration.workspace import SweepWorkspace
from repro.parallel.executor import ParallelKernel
from repro.service import SolveService, solve_batch

KINDS = {
    "fixed": (
        lambda rng: random_fixed_problem(rng, 7, 6, density=0.7),
        solve_fixed,
        StoppingRule(eps=1e-8, max_iterations=5000),
    ),
    "elastic": (
        lambda rng: random_elastic_problem(rng, 7, 6),
        solve_elastic,
        StoppingRule(eps=1e-8, max_iterations=5000),
    ),
    "sam": (
        lambda rng: random_sam_problem(rng, 6),
        solve_sam,
        StoppingRule(eps=1e-6, criterion="imbalance", max_iterations=5000),
    ),
}
# The row-reading criteria on rows of at least 9 cells, where summing a
# row of a C-ordered copy of the iterate and of the column phase's
# transposed view round differently: a batch member must read its solo
# residual there too.
_WIDE = {
    "fixed": (lambda rng: random_fixed_problem(rng, 12, 10, density=0.7),
              solve_fixed),
    "elastic": (lambda rng: random_elastic_problem(rng, 12, 10),
                solve_elastic),
    "sam": (lambda rng: random_sam_problem(rng, 12), solve_sam),
}
for _kind, (_make, _solo) in _WIDE.items():
    for _criterion in ("imbalance", "dual-gradient"):
        KINDS[f"{_kind}-wide-{_criterion}"] = (_make, _solo, StoppingRule(
            eps=1e-8, criterion=_criterion, max_iterations=5000,
        ))


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestBatchBitIdentity:
    def test_matches_solo_with_warm_starts(self, rng, kind):
        make, solo, stop = KINDS[kind]
        problems = [make(rng) for _ in range(4)]
        n = problems[0].shape[1]
        mu0s = [None, np.full(n, 0.5), None, rng.normal(size=n)]
        batch = solve_batch(problems, stop=stop, mu0s=mu0s)
        for b, p, mu0 in zip(batch, problems, mu0s):
            r = solo(p, stop=stop, mu0=mu0)
            np.testing.assert_array_equal(b.x, r.x)
            np.testing.assert_array_equal(b.lam, r.lam)
            np.testing.assert_array_equal(b.mu, r.mu)
            np.testing.assert_array_equal(b.s, r.s)
            np.testing.assert_array_equal(b.d, r.d)
            assert b.iterations == r.iterations
            assert b.residual == r.residual
            assert b.objective == r.objective
            assert b.converged and r.converged
            assert b.counts.parallel_ops == r.counts.parallel_ops

    def test_retirement_order_matches_solo_counts(self, rng, kind):
        """Problems retire individually at exactly their solo iteration."""
        make, solo, stop = KINDS[kind]
        problems = [make(rng) for _ in range(6)]
        results = solve_batch(problems, stop=stop)
        solo_iters = [solo(p, stop=stop).iterations for p in problems]
        assert [r.iterations for r in results] == solo_iters
        assert len(set(solo_iters)) > 1  # stragglers genuinely differ

    def test_results_own_their_memory(self, rng, kind):
        make, _, stop = KINDS[kind]
        results = solve_batch([make(rng) for _ in range(3)], stop=stop)
        for r in results:
            for arr in (r.x, r.lam, r.mu, r.s, r.d):
                assert arr.base is None
        # Mutating one result must not leak into any batch-mate.
        snapshot = results[1].x.copy()
        results[0].x[:] = -1.0
        results[0].mu[:] = -1.0
        np.testing.assert_array_equal(results[1].x, snapshot)


def _retiring_pair(rng, kind, m, n):
    """Two problems of one shape: the first starts at its optimum (its
    totals are the base's margins), so it retires on sweep 1 while the
    second, with scaled totals, keeps sweeping."""
    x0 = rng.uniform(1.0, 5.0, (m, n))
    gamma = rng.uniform(0.5, 2.0, (m, n))
    problems = []
    for scale in (1.0, 1.7):
        s0, d0 = x0.sum(axis=1) * scale, x0.sum(axis=0) * scale
        if kind == "fixed":
            problems.append(FixedTotalsProblem(x0=x0, gamma=gamma, s0=s0, d0=d0))
        else:
            problems.append(ElasticProblem(
                x0=x0, gamma=gamma, s0=s0, d0=d0,
                alpha=np.ones(m), beta=np.ones(n),
            ))
    return problems


class TestBatchStopsAtSoloSweep:
    def test_eps_at_a_solo_residual(self):
        """A batch member stops at the sweep its solo solve stops at,
        even when eps is exactly a residual the solo solve read."""
        rng = np.random.default_rng(0)
        pairs = {
            "fixed": [random_fixed_problem(rng, 12, 10) for _ in range(2)],
            "elastic": [random_elastic_problem(rng, 12, 10)
                        for _ in range(2)],
            "sam": [random_sam_problem(rng, 12) for _ in range(2)],
        }
        solvers = {"fixed": solve_fixed, "elastic": solve_elastic,
                   "sam": solve_sam}
        for kind, (p, q) in pairs.items():
            solo = solvers[kind]
            trace = solo(p, stop=StoppingRule(
                eps=1e-300, criterion="imbalance", max_iterations=3,
            ), record_history=True)
            stop = StoppingRule(eps=trace.history[2], criterion="imbalance",
                                max_iterations=5000)
            r = solo(p, stop=stop)
            assert r.iterations == 3 and r.converged
            b = solve_batch([p, q], stop=stop)[0]
            assert b.iterations == r.iterations
            assert b.residual == r.residual
            np.testing.assert_array_equal(b.x, r.x)
            np.testing.assert_array_equal(b.lam, r.lam)
            np.testing.assert_array_equal(b.mu, r.mu)


class TestBatchRetirementWorkspaces:
    """A pool kernel splits a multi-row phase into blocks and leaves the
    batch's workspace pair alone, then solves on it once the survivors
    fit one block.  Retirement must not pass off the pair's earlier
    binding as the survivors' (it used to: a fixed survivor raised
    InfeasibleProblemError, an elastic one converged to a wrong x)."""

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1)], ids=["1x6", "6x1"])
    @pytest.mark.parametrize("kind", ["fixed", "elastic"])
    def test_stale_workspaces_match_solo(self, rng, kind, shape):
        m, n = shape
        problems = _retiring_pair(rng, kind, m, n)
        solo = solve_fixed if kind == "fixed" else solve_elastic
        stop = StoppingRule(eps=1e-9, criterion="delta-x", max_iterations=500)
        k = len(problems)
        # Left bound to zero-slope stacks, as if by an earlier batch.
        pair = (SweepWorkspace(k * m, n), SweepWorkspace(k * n, m))
        pair[0].bind(np.zeros((k * m, n)))
        pair[1].bind(np.zeros((k * n, m)))
        with ParallelKernel(workers=2, backend="serial") as kernel:
            # The second batch finds the pair bound to the first one's
            # lone survivor, as when the service reuses a pair per kind,
            # shape and batch size.
            batches = [
                solve_batch(problems, stop=stop, kernel=kernel,
                            workspaces=pair)
                for _ in range(2)
            ]
        refs = [solo(p, stop=stop) for p in problems]
        assert refs[0].iterations < refs[1].iterations
        for batch in batches:
            for b, r in zip(batch, refs):
                np.testing.assert_array_equal(b.x, r.x)
                np.testing.assert_array_equal(b.lam, r.lam)
                np.testing.assert_array_equal(b.mu, r.mu)
                assert b.iterations == r.iterations


class TestBatchValidation:
    def test_mixed_kinds_rejected(self, rng):
        with pytest.raises(TypeError, match="kind"):
            solve_batch([random_fixed_problem(rng, 5, 5),
                         random_sam_problem(rng, 5)])

    def test_mixed_shapes_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            solve_batch([random_elastic_problem(rng, 4, 4),
                         random_elastic_problem(rng, 5, 4)])

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="variant"):
            solve_batch([object()])

    def test_empty_batch(self):
        assert solve_batch([]) == []


class TestServiceKindBatching:
    def test_drain_batches_every_kind(self, rng):
        """Same-kind groups fuse; responses stay in submission order."""
        problems = (
            [random_fixed_problem(rng, 5, 5) for _ in range(3)]
            + [random_elastic_problem(rng, 4, 6) for _ in range(3)]
            + [random_sam_problem(rng, 5) for _ in range(3)]
        )
        order = rng.permutation(len(problems))
        with SolveService() as svc:
            ids = [svc.submit(problems[i]) for i in order]
            responses = svc.drain()
        assert [r.id for r in responses] == ids
        assert all(r.converged and r.batched for r in responses)
        stats = svc.stats()
        assert stats.batches == 3
        assert stats.batched_requests == 9
        assert stats.batches_by_kind == {"fixed": 1, "elastic": 1, "sam": 1}
        assert stats.batched_requests_by_kind == {
            "fixed": 3, "elastic": 3, "sam": 3,
        }

    def test_drain_ordering_mixed_batched_single_error(self, rng):
        """Batched, unbatchable, sparse and failing requests interleave;
        drain() must still answer strictly in submission order."""
        mask = np.ones((4, 4), dtype=bool)
        mask[0] = False  # row 0 has no active cell but s0[0] > 0
        infeasible = FixedTotalsProblem(
            x0=np.ones((4, 4)), gamma=np.ones((4, 4)),
            s0=np.array([1.0, 3.0, 2.0, 2.0]), d0=np.full(4, 2.0),
            mask=mask,
        )
        with SolveService() as svc:
            ids = [
                svc.submit(random_sam_problem(rng, 4)),
                svc.submit(random_fixed_problem(rng, 4, 4)),
                svc.submit(infeasible),
                svc.submit(random_elastic_problem(rng, 4, 4)),
                svc.submit(random_fixed_problem(rng, 4, 4), batchable=False),
                svc.submit(random_elastic_problem(rng, 4, 4)),
                svc.submit(random_fixed_problem(rng, 4, 4, density=0.6),
                           engine="sparse"),
                svc.submit(random_fixed_problem(rng, 4, 4)),
                svc.submit(random_sam_problem(rng, 4)),
            ]
            responses = svc.drain()
        assert [r.id for r in responses] == ids
        by_id = dict(zip(ids, responses))
        assert not by_id[ids[2]].ok
        assert by_id[ids[2]].error_kind == "infeasible"
        assert by_id[ids[4]].batched is False
        assert by_id[ids[6]].kind == "fixed/sparse"
        ok = [r for r in responses if r.ok]
        assert len(ok) == 8 and all(r.converged for r in ok)
        stats = svc.stats()
        assert stats.errors == 1 and stats.completed == 8
        # Two fused sam + two fused elastic batches; the two feasible
        # same-shape fixed requests fused with the infeasible one and
        # fell back to singles, so no fixed batch is counted.
        assert stats.batches_by_kind.keys() == {"sam", "elastic"}

    def test_batch_warm_start_matches_cold_solution(self, rng):
        base = random_sam_problem(rng, 6)
        drift = [
            type(base)(
                x0=base.x0, gamma=base.gamma, alpha=base.alpha,
                s0=base.s0 * f, mask=base.mask,
            )
            for f in (1.01, 0.99, 1.02)
        ]
        stop_kw = {"eps": 1e-9, "max_iterations": 20_000,
                   "criterion": "imbalance"}
        cold = [solve_sam(p, stop=StoppingRule(**stop_kw)) for p in drift]
        with SolveService() as svc:
            for p in drift:
                svc.submit(p, **stop_kw)
            svc.drain()  # populate the cache
            for p in drift:
                svc.submit(p, **stop_kw)
            warm = svc.drain()
        assert all(r.warm_started and r.cache_exact for r in warm)
        for w, c in zip(warm, cold):
            np.testing.assert_allclose(w.result.x, c.x, atol=1e-6)
