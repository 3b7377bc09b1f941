"""solve() dispatcher, contingency/voting datasets."""

import numpy as np
import pytest

from conftest import random_elastic_problem, random_fixed_problem, random_sam_problem
from repro import solve
from repro.core.convergence import StoppingRule
from repro.core.sea import solve_fixed
from repro.datasets.contingency import (
    contingency_instance,
    voting_transition_instance,
)
from repro.datasets.general import general_table7_instance

TIGHT = StoppingRule(eps=1e-8, max_iterations=5000)


class TestDispatcher:
    def test_routes_core_types(self, rng):
        assert solve(random_fixed_problem(rng, 4, 4)).algorithm == "SEA-fixed"
        assert solve(random_elastic_problem(rng, 4, 4)).algorithm == "SEA-elastic"
        assert solve(random_sam_problem(rng, 4)).algorithm == "SEA-sam"
        assert solve(general_table7_instance(6)).algorithm == "SEA-general"

    def test_routes_extensions(self, rng):
        from repro.extensions import BoundedProblem, EntropyProblem

        x0 = rng.uniform(1, 10, (3, 3))
        bounded = BoundedProblem(
            x0=x0, gamma=np.ones((3, 3)),
            s0=x0.sum(axis=1), d0=x0.sum(axis=0),
        )
        assert solve(bounded).algorithm == "SEA-bounded"
        entropy = EntropyProblem(x0=x0, s0=x0.sum(axis=1), d0=x0.sum(axis=0))
        assert solve(entropy).algorithm == "SEA-entropy"

    def test_routes_spe(self):
        from repro.datasets.spe_data import spe_instance

        assert solve(spe_instance(8)).algorithm == "SEA-spe"

    def test_kwargs_forwarded(self, rng):
        problem = random_fixed_problem(rng, 4, 4, total_factor_low=0.3)
        result = solve(problem, stop=StoppingRule(eps=1e-14, max_iterations=2))
        assert result.iterations == 2

    def test_unknown_type(self):
        with pytest.raises(TypeError, match="no solver registered"):
            solve(object())


class TestContingency:
    def test_census_instance_solves(self):
        problem = contingency_instance()
        result = solve_fixed(problem, stop=StoppingRule(eps=1e-3,
                                                        max_iterations=5000))
        assert result.converged
        # Margins restored to the population values.
        scale = problem.s0.max()
        assert np.max(np.abs(result.x.sum(axis=0) - problem.d0)) < 1e-6 * scale

    def test_sample_scaled_to_population(self):
        problem = contingency_instance(sample=2000, population=500_000)
        # The raw table is scaled up by population/sample.
        assert problem.x0[problem.mask].min() >= 0.5 * 500_000 / 2000 - 1e-9

    def test_margins_consistent(self):
        problem = contingency_instance()
        assert problem.s0.sum() == pytest.approx(problem.d0.sum(), rel=1e-9)

    def test_deterministic(self):
        a = contingency_instance(seed=5)
        b = contingency_instance(seed=5)
        np.testing.assert_array_equal(a.x0, b.x0)


class TestVotingTransitions:
    def test_instance_solves_and_preserves_loyalty_structure(self):
        problem = voting_transition_instance()
        result = solve_fixed(problem, stop=TIGHT)
        assert result.converged
        # Diagonal (loyal voters) dominates each row.
        frac_loyal = np.diag(result.x) / result.x.sum(axis=1)
        assert frac_loyal.mean() > 0.5

    def test_totals_are_election_results(self):
        problem = voting_transition_instance(turnout=1_000_000)
        assert problem.s0.sum() == pytest.approx(1_000_000)
        assert problem.d0.sum() == pytest.approx(1_000_000)

    def test_swing_moves_totals(self):
        problem = voting_transition_instance(swing=0.3)
        assert not np.allclose(problem.s0, problem.d0)
