"""RC baseline: agreement with SEA and its heavier phase structure."""

import numpy as np
import pytest

from repro.baselines.rc import solve_rc_general
from repro.core.convergence import StoppingRule
from repro.core.problems import GeneralProblem
from repro.core.sea_general import solve_general
from repro.datasets.general import general_table7_instance

TIGHT = StoppingRule(eps=1e-7, criterion="delta-x", max_iterations=500)


class TestCorrectness:
    def test_agrees_with_sea_on_general_problem(self, rng):
        problem = general_table7_instance(8, seed=11)
        sea = solve_general(problem, stop=TIGHT)
        rc = solve_rc_general(problem, stop=TIGHT)
        assert rc.converged
        assert rc.objective == pytest.approx(sea.objective, rel=1e-4)
        np.testing.assert_allclose(rc.x, sea.x, atol=1e-2 * problem.x0.max())

    def test_feasible_at_exit(self, rng):
        problem = general_table7_instance(10, seed=13)
        rc = solve_rc_general(problem, stop=TIGHT)
        scale = float(problem.s0.max())
        # Column stage runs last: columns exact, rows near-exact.
        assert np.max(np.abs(rc.x.sum(axis=0) - problem.d0)) < 1e-6 * scale
        assert np.max(np.abs(rc.x.sum(axis=1) - problem.s0)) < 1e-3 * scale
        assert np.all(rc.x >= 0)

    def test_rejects_non_fixed_kind(self, rng):
        x0 = np.ones((3, 3))
        problem = GeneralProblem(
            kind="sam", x0=x0, G=np.eye(9), s0=x0.sum(axis=1),
            A=np.eye(3),
        )
        with pytest.raises(ValueError, match="fixed"):
            solve_rc_general(problem)


class TestPhaseStructure:
    def test_rc_does_more_matvecs_than_sea(self):
        """RC runs a projection loop per stage; SEA one per outer
        iteration — the structural source of Table 7's gap."""
        problem = general_table7_instance(12, seed=17)
        stop = StoppingRule(eps=1e-3, criterion="delta-x")
        sea = solve_general(problem, stop=stop)
        rc = solve_rc_general(problem, stop=stop)
        assert rc.counts.matvec_ops > sea.counts.matvec_ops

    def test_rc_has_more_serial_checkpoints(self):
        problem = general_table7_instance(12, seed=17)
        stop = StoppingRule(eps=1e-3, criterion="delta-x")
        sea = solve_general(problem, stop=stop)
        rc = solve_rc_general(problem, stop=stop)
        assert rc.counts.serial_checks > sea.counts.serial_checks

    def test_inner_iterations_recorded(self):
        problem = general_table7_instance(10, seed=19)
        rc = solve_rc_general(problem)
        assert rc.inner_iterations >= 2 * rc.iterations
