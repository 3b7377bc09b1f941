"""Harness: every experiment runs, renders, and satisfies its shape checks.

These are the library's integration tests for the paper's evaluation:
scaled-down instances, but the same code paths the full-scale benches
use.  The heavyweight experiments (tables 7-9) run at reduced sizes
here and at paper sizes in ``benchmarks/``.
"""

import pytest

from repro.harness import EXPERIMENTS, PAPER_TABLES, run_experiment
from repro.harness.report import ExperimentResult, render_table


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "-" in lines[1]
        assert lines[3].endswith("-")

    def test_render_empty(self):
        assert render_table(["x"], []) == "x"

    def test_experiment_result_render(self):
        r = ExperimentResult(
            experiment="t", caption="c", columns=["x"], rows=[[1]],
            shape_checks={"ok check": True, "bad check": False},
            notes=["a note"],
        )
        out = r.render()
        assert "[ok] ok check" in out
        assert "[FAIL] bad check" in out
        assert "note: a note" in out
        assert not r.all_shapes_hold


class TestReference:
    def test_all_nine_tables_embedded(self):
        assert set(PAPER_TABLES) == {f"table{i}" for i in range(1, 10)}

    def test_table7_bk_missing_for_large(self):
        rows = PAPER_TABLES["table7"]["rows"]
        assert rows[2500][3] is None
        assert rows[900][3] is not None


class TestExperiments:
    def test_registry_contains_all_tables_and_figures(self):
        expected = {f"table{i}" for i in range(1, 10)} | {"figure5", "figure7"}
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("table10")

    def test_table1_scaled(self):
        r = run_experiment("table1", sizes=(40, 80, 120))
        assert r.shape_checks["all instances converged"]
        # Wall-clock monotonicity is asserted at bench scale, not here —
        # sub-millisecond solves are too noisy.
        assert len(r.rows) == 3

    def test_table3_shapes(self):
        r = run_experiment("table3")
        assert r.all_shapes_hold, r.render()

    def test_table4_shapes(self):
        r = run_experiment("table4")
        assert r.all_shapes_hold, r.render()

    def test_table5_scaled(self):
        r = run_experiment("table5", sizes=(30, 60))
        assert r.shape_checks["all instances converged"]

    def test_table7_scaled(self):
        r = run_experiment("table7", sides=(10, 20, 30), bk_max_side=20,
                           repeats=3)
        assert r.shape_checks["SEA beats RC on every instance"], r.render()
        assert r.shape_checks["B-K is slower than SEA by an order of magnitude or more"], r.render()
        assert r.shape_checks["B-K becomes prohibitive (not run) on large instances"]

    def test_figure5_aliases_table6(self):
        assert EXPERIMENTS["figure5"] is EXPERIMENTS["table6"]
        assert EXPERIMENTS["figure7"] is EXPERIMENTS["table9"]


@pytest.mark.slow
class TestHeavyExperiments:
    def test_table2_shapes(self):
        r = run_experiment("table2", replicates_c=1)
        assert r.all_shapes_hold, r.render()

    def test_table6_shapes(self):
        r = run_experiment("table6")
        assert r.all_shapes_hold, r.render()

    def test_table8_shapes(self):
        r = run_experiment("table8")
        assert r.all_shapes_hold, r.render()

    def test_table9_shapes(self):
        r = run_experiment("table9")
        assert r.all_shapes_hold, r.render()
        # Calibration: model within 10% of the paper's four numbers.
        ref = PAPER_TABLES["table9"]["rows"]
        for row in r.rows:
            algo, N, s_n = row[0], row[1], row[2]
            assert s_n == pytest.approx(ref[algo][N][0], rel=0.10)
