"""Cost model: calibration bands against the paper's published speedups."""

import pytest

from repro.core.result import PhaseCounts
from repro.harness.reference import PAPER_TABLES
from repro.parallel.costmodel import CostModel


def _diagonal_counts(n: int, iterations: int, checks: int) -> PhaseCounts:
    """Phase counts of a diagonal SEA run per the paper's operation model."""
    c = PhaseCounts(cells=n * n)
    for _ in range(iterations):
        c.add_equilibration(n, n)
        c.add_equilibration(n, n)
    for _ in range(checks):
        c.add_convergence_check(n, n)
    return c


class TestMechanics:
    def test_one_processor_is_baseline(self):
        c = _diagonal_counts(100, 2, 2)
        model = CostModel.for_fixed()
        p = model.speedup(c, 1)
        assert p.speedup == pytest.approx(1.0)
        assert p.efficiency == pytest.approx(1.0)

    def test_speedup_bounded_by_processors(self):
        c = _diagonal_counts(100, 2, 2)
        model = CostModel.for_fixed()
        for n in (2, 4, 6, 12):
            assert model.speedup(c, n).speedup < n

    def test_pure_parallel_work_scales_linearly(self):
        c = PhaseCounts(parallel_ops=1e9, cells=1)
        model = CostModel()  # no overheads at all
        assert model.speedup(c, 4).speedup == pytest.approx(4.0)

    def test_serial_work_caps_speedup(self):
        c = PhaseCounts(parallel_ops=1e6, serial_ops=1e6, cells=1)
        model = CostModel(kappa_serial=1.0)
        # Amdahl: f = 0.5 -> S_inf = 2.
        assert model.speedup(c, 1000).speedup < 2.0

    def test_invalid_processors(self):
        with pytest.raises(ValueError):
            CostModel().time(PhaseCounts(), 0)

    def test_matvec_serial_fraction(self):
        c = PhaseCounts(parallel_ops=1e8, matvec_ops=1e8, cells=1)
        model = CostModel(matvec_serial_fraction=0.5)
        # Half of every matvec stays serial: S_2 = 1 / (0.5 + 0.25).
        assert model.speedup(c, 2).speedup == pytest.approx(1.0 / 0.75)


class TestTable6Calibration:
    """The presets reproduce the paper's Table 6 within a modest band
    and preserve every qualitative ordering."""

    CASES = {
        # label: (n, iterations, checks, model, paper_key)
        "IO72b": (485, 2, 2, CostModel.for_fixed(), "IO72b"),
        "1000x1000": (1000, 1, 1, CostModel.for_fixed(), "1000x1000"),
        "SP500x500": (500, 84, 42, CostModel.for_elastic(), "SP500x500"),
        "SP750x750": (750, 104, 52, CostModel.for_elastic(), "SP750x750"),
    }

    def test_within_band_of_paper(self):
        ref = PAPER_TABLES["table6"]["rows"]
        for label, (n, iters, checks, model, key) in self.CASES.items():
            counts = _diagonal_counts(n, iters, checks)
            for N, (paper_s, _) in ref[key].items():
                predicted = model.speedup(counts, N).speedup
                assert predicted == pytest.approx(paper_s, rel=0.12), (
                    f"{label} N={N}: predicted {predicted:.2f}, paper {paper_s}"
                )

    def test_orderings_preserved(self):
        speedups = {}
        for label, (n, iters, checks, model, _) in self.CASES.items():
            counts = _diagonal_counts(n, iters, checks)
            speedups[label] = {N: model.speedup(counts, N).speedup for N in (2, 4, 6)}
        # Paper orderings at N = 6.
        assert speedups["IO72b"][6] > speedups["1000x1000"][6]
        assert speedups["SP500x500"][6] > speedups["SP750x750"][6]
        assert speedups["1000x1000"][6] > speedups["SP750x750"][6]
        # Efficiency decreasing in N everywhere.
        for s in speedups.values():
            assert s[2] / 2 > s[4] / 4 > s[6] / 6


class TestTable9Calibration:
    def test_sea_beats_rc(self):
        """With the measured phase structure of the 100x100 instance,
        the general presets reproduce Table 9's ordering."""
        # Phase counts measured from the library's own solvers on the
        # Table 9 instance (see harness run_table9).
        sea = PhaseCounts(parallel_ops=4.030e8, matvec_ops=4.0e8,
                          serial_ops=1.5e5, parallel_phases=26,
                          serial_checks=15, cells=10_000)
        rc = PhaseCounts(parallel_ops=3.104e9, matvec_ops=3.1e9,
                         serial_ops=3.6e5, parallel_phases=62,
                         serial_checks=36, cells=10_000)
        m_sea = CostModel.for_general_sea()
        m_rc = CostModel.for_general_rc()
        ref = PAPER_TABLES["table9"]["rows"]
        for N in (2, 4):
            s_sea = m_sea.speedup(sea, N).speedup
            s_rc = m_rc.speedup(rc, N).speedup
            assert s_sea > s_rc
            assert s_sea == pytest.approx(ref["SEA"][N][0], rel=0.05)
            assert s_rc == pytest.approx(ref["RC"][N][0], rel=0.05)
