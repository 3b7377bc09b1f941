"""ASCII figure rendering (Figures 5 and 7)."""

from repro.harness.figures import ascii_chart, figure5_from_result, figure7_from_result
from repro.harness.report import ExperimentResult


def _fake_table6():
    return ExperimentResult(
        experiment="table6", caption="c",
        columns=["example", "iterations", "N", "S_N", "E_N",
                 "paper S_N", "paper E_N"],
        rows=[
            ["IO72b", 2, 2, 1.93, "96.5%", 1.93, "96.5%"],
            ["IO72b", 2, 4, 3.74, "93.5%", 3.74, "93.5%"],
            ["IO72b", 2, 6, 5.15, "85.8%", 5.15, "85.8%"],
            ["SP500x500", 84, 2, 1.86, "92.9%", 1.86, "92.9%"],
            ["SP500x500", 84, 4, 3.52, "88.1%", 3.52, "88.1%"],
            ["SP500x500", 84, 6, 4.66, "77.8%", 4.66, "77.8%"],
        ],
    )


class TestAsciiChart:
    def test_contains_axes_and_legend(self):
        chart = ascii_chart(
            {"a": [(1, 1), (2, 1.9)], "b": [(1, 1), (2, 1.7)]},
            title="T", x_label="N", y_label="S",
        )
        assert "T" in chart
        assert "legend:" in chart
        assert "o a" in chart
        assert "* b" in chart
        assert "N" in chart

    def test_empty_series(self):
        assert ascii_chart({}, title="empty") == "empty"

    def test_single_point(self):
        chart = ascii_chart({"x": [(1.0, 1.0)]})
        assert "o" in chart

    def test_dimensions(self):
        chart = ascii_chart({"a": [(1, 1), (6, 5)]}, width=30, height=10)
        plot_lines = [l for l in chart.splitlines() if "|" in l]
        assert len(plot_lines) == 10


class TestFigureRenderers:
    def test_figure5_includes_every_example(self):
        fig = figure5_from_result(_fake_table6())
        assert "Figure 5" in fig
        assert "IO72b" in fig
        assert "SP500x500" in fig

    def test_figure7(self):
        result = ExperimentResult(
            experiment="table9", caption="c",
            columns=["algorithm", "N", "S_N", "E_N", "paper S_N", "paper E_N"],
            rows=[
                ["SEA", 2, 1.82, "91%", 1.82, "91%"],
                ["SEA", 4, 2.62, "65%", 2.62, "65%"],
                ["RC", 2, 1.75, "88%", 1.75, "88%"],
                ["RC", 4, 2.24, "56%", 2.24, "56%"],
            ],
        )
        fig = figure7_from_result(result)
        assert "Figure 7" in fig
        assert "SEA" in fig and "RC" in fig

    def test_series_anchored_at_one(self):
        """Every speedup curve starts at (1, 1) as in the paper's plots."""
        from repro.harness.figures import _speedup_series

        series = _speedup_series(_fake_table6())
        for pts in series.values():
            assert pts[0] == (1.0, 1.0)
