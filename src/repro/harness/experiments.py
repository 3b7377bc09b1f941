"""One runnable experiment per paper table/figure.

Each ``run_tableN`` regenerates the corresponding table: it builds the
instances (via :mod:`repro.datasets`), runs the solvers, and returns an
:class:`~repro.harness.report.ExperimentResult` whose rows mirror the
paper's columns, with the paper's published values alongside and the
DESIGN.md shape checks evaluated.

Default sizes are scaled down so the whole suite runs in minutes on a
laptop; ``full=True`` (or ``REPRO_FULL=1``) uses the paper's scale.
Figures 5 and 7 are the plotted forms of Tables 6 and 9 — their data
series come from the same experiments (``run_experiment('figure5')``
aliases ``'table6'``).
"""

from __future__ import annotations

import os
import time
from typing import Callable

import numpy as np

from repro.baselines.bachem_korte import solve_bachem_korte
from repro.baselines.rc import solve_rc_general
from repro.core.convergence import StoppingRule
from repro.core.sea import solve_elastic, solve_fixed, solve_sam
from repro.core.sea_general import solve_general
from repro.datasets.general import general_table7_instance
from repro.datasets.io_tables import IO_INSTANCES, io_instance
from repro.datasets.migration import (
    MIGRATION_INSTANCES,
    general_migration_names,
    migration_instance,
)
from repro.datasets.sam import SAM_INSTANCES, sam_instance
from repro.datasets.spe_data import spe_instance
from repro.datasets.synthetic import large_diagonal_fixed
from repro.harness.reference import PAPER_TABLES
from repro.harness.report import ExperimentResult
from repro.parallel.costmodel import CostModel
from repro.spe.model import solve_spe

__all__ = ["EXPERIMENTS", "run_experiment", "is_full_scale"]


def is_full_scale(full: bool | None = None) -> bool:
    """Resolve the scale flag (explicit argument beats ``REPRO_FULL``)."""
    if full is not None:
        return full
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")


def _wall(fn: Callable, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# --------------------------------------------------------------------------
# Table 1 — large-scale diagonal problems
# --------------------------------------------------------------------------

def run_table1(full: bool | None = None, sizes: tuple[int, ...] | None = None):
    ref = PAPER_TABLES["table1"]
    if sizes is None:
        sizes = (750, 1000, 2000, 3000) if is_full_scale(full) else (150, 200, 400, 600)
    rows = []
    times = []
    for n in sizes:
        problem = large_diagonal_fixed(n, seed=n)
        result, wall = _wall(solve_fixed, problem)
        times.append(wall)
        paper = ref["rows"].get(n)
        rows.append([f"{n}x{n}", n * n, round(wall, 4), result.iterations,
                     result.converged, paper])
    checks = {
        "CPU time grows monotonically with size": all(
            b > a for a, b in zip(times, times[1:])
        ),
        "largest/smallest time ratio reflects superlinear growth": (
            times[-1] / times[0] > (sizes[-1] / sizes[0]) ** 1.5
        ),
        "all instances converged": all(r[4] for r in rows),
    }
    return ExperimentResult(
        experiment="table1",
        caption=ref["caption"],
        columns=["m x n", "# variables", "CPU time (s)", "iterations",
                 "converged", "paper CPU (s)"],
        rows=rows,
        shape_checks=checks,
        notes=[] if is_full_scale(full) else
        ["sizes scaled down 5x from the paper; REPRO_FULL=1 for 750-3000"],
    )


# --------------------------------------------------------------------------
# Table 2 — input/output datasets
# --------------------------------------------------------------------------

def run_table2(full: bool | None = None, replicates_c: int = 3):
    ref = PAPER_TABLES["table2"]
    rows = []
    means: dict[str, float] = {}
    for name in IO_INSTANCES:
        if name.endswith("c"):
            reps = replicates_c if not is_full_scale(full) else 10
            walls, iters, conv = [], [], True
            for k in range(reps):
                problem = io_instance(name, replicate=k)
                result, wall = _wall(solve_fixed, problem)
                walls.append(wall)
                iters.append(result.iterations)
                conv &= result.converged
            wall = float(np.mean(walls))
            it = float(np.mean(iters))
        else:
            problem = io_instance(name)
            result, wall = _wall(solve_fixed, problem)
            it, conv = result.iterations, result.converged
        means[name] = wall
        rows.append([name, round(wall, 4), it, conv, ref["rows"][name]])
    ioc = np.mean([means[k] for k in means if k.startswith("IOC")])
    io72 = np.mean([means[k] for k in means if not k.startswith("IOC")])
    checks = {
        # Structural target: the 485^2 instances cost a multiple of the
        # 205^2 ones (paper: ~20x; our vectorized kernel compresses the
        # gap to ~4x, and single-core wall-clock jitter argues for a
        # conservative threshold).
        "485^2 instances cost much more than 205^2 instances": io72 > 2.5 * ioc,
        "all instances converged": all(r[3] for r in rows),
    }
    return ExperimentResult(
        experiment="table2",
        caption=ref["caption"],
        columns=["dataset", "CPU time (s)", "iterations", "converged",
                 "paper CPU (s)"],
        rows=rows,
        shape_checks=checks,
        notes=["synthetic structure-matched I/O tables (see DESIGN.md)"],
    )


# --------------------------------------------------------------------------
# Table 3 — social accounting matrices
# --------------------------------------------------------------------------

def run_table3(full: bool | None = None):
    ref = PAPER_TABLES["table3"]
    names = list(SAM_INSTANCES)
    if not is_full_scale(full):
        names = [n for n in names if n != "S1000"]
    rows = []
    big: dict[str, float] = {}
    for name in names:
        problem = sam_instance(name)
        result, wall = _wall(solve_sam, problem)
        accounts = problem.n
        transactions = int(np.count_nonzero(problem.mask & (problem.x0 > 0)))
        paper = ref["rows"][name]
        rows.append([name, accounts, transactions, round(wall, 4),
                     result.iterations, result.converged, paper[2]])
        if name.startswith("S") and name != "STONE" and name != "SRI":
            big[name] = wall
    checks = {
        "small real-structure SAMs solve in well under a second": all(
            r[3] < 0.5 for r in rows if r[0] in ("STONE", "TURK", "SRI")
        ),
        "large random SAM cost grows with transactions": all(
            big[a] < big[b]
            for a, b in zip(sorted(big, key=lambda k: int(k[1:])),
                            sorted(big, key=lambda k: int(k[1:]))[1:])
        ),
        "all instances converged": all(r[5] for r in rows),
    }
    return ExperimentResult(
        experiment="table3",
        caption=ref["caption"],
        columns=["dataset", "# accounts", "# transactions", "CPU time (s)",
                 "iterations", "converged", "paper CPU (s)"],
        rows=rows,
        shape_checks=checks,
    )


# --------------------------------------------------------------------------
# Table 4 — migration tables (elastic)
# --------------------------------------------------------------------------

def run_table4(full: bool | None = None):
    ref = PAPER_TABLES["table4"]
    rows = []
    iters: dict[str, int] = {}
    for name in MIGRATION_INSTANCES:
        problem = migration_instance(name)
        result, wall = _wall(solve_elastic, problem)
        iters[name] = result.iterations
        rows.append([name, round(wall, 4), result.iterations, result.converged,
                     ref["rows"][name]])
    vintages = ("5560", "6570", "7580")
    checks = {
        "large-growth (b) variants are hardest per vintage": all(
            iters[f"MIG{v}b"] >= iters[f"MIG{v}a"] for v in vintages
        ),
        "perturbation-only (c) variants are easiest per vintage": all(
            iters[f"MIG{v}c"] <= iters[f"MIG{v}a"] for v in vintages
        ),
        "all instances converged": all(r[3] for r in rows),
    }
    return ExperimentResult(
        experiment="table4",
        caption=ref["caption"],
        columns=["dataset", "CPU time (s)", "iterations", "converged",
                 "paper CPU (s)"],
        rows=rows,
        shape_checks=checks,
        notes=["gravity-model migration tables (see DESIGN.md)"],
    )


# --------------------------------------------------------------------------
# Table 5 — spatial price equilibrium problems
# --------------------------------------------------------------------------

def run_table5(full: bool | None = None, sizes: tuple[int, ...] | None = None):
    ref = PAPER_TABLES["table5"]
    if sizes is None:
        sizes = (50, 100, 250, 500, 750) if is_full_scale(full) else (50, 100, 250)
    # Paper settings: eps = .01, convergence verified every other iteration.
    stop = StoppingRule(eps=1e-2, criterion="delta-x", check_every=2,
                        max_iterations=20_000)
    rows = []
    times = []
    for n in sizes:
        problem = spe_instance(n)
        result, wall = _wall(solve_spe, problem, stop=stop)
        times.append(wall)
        paper = ref["rows"].get(n)
        rows.append([f"SP{n}x{n}", n * n, round(wall, 4), result.iterations,
                     result.converged, paper[1] if paper else None])
    checks = {
        "CPU time grows with market count": all(
            b > a for a, b in zip(times, times[1:])
        ),
        "all instances converged": all(r[4] for r in rows),
    }
    return ExperimentResult(
        experiment="table5",
        caption=ref["caption"],
        columns=["instance", "# variables", "CPU time (s)", "iterations",
                 "converged", "paper CPU (s)"],
        rows=rows,
        shape_checks=checks,
    )


# --------------------------------------------------------------------------
# Table 6 / Figure 5 — parallel speedups, diagonal SEA
# --------------------------------------------------------------------------

def run_table6(full: bool | None = None):
    ref = PAPER_TABLES["table6"]
    full_scale = is_full_scale(full)
    check_every_elastic = 2  # the paper verified every other iteration

    instances = []
    io = io_instance("IO72b")
    instances.append(("IO72b", "fixed", io, solve_fixed,
                      StoppingRule(eps=1e-2, criterion="delta-x")))
    size_sq = 1000 if full_scale else 400
    instances.append((f"{size_sq}x{size_sq}" if not full_scale else "1000x1000",
                      "fixed",
                      large_diagonal_fixed(size_sq, seed=size_sq), solve_fixed,
                      StoppingRule(eps=1e-2, criterion="delta-x")))
    for n in (500, 750) if full_scale else (250, 375):
        label = f"SP{n}x{n}" if not full_scale else f"SP{n}x{n}"
        problem = spe_instance(n)
        instances.append((label, "elastic", problem, None,
                          StoppingRule(eps=1e-2, criterion="delta-x",
                                       check_every=check_every_elastic,
                                       max_iterations=20_000)))

    rows = []
    series: dict[str, list[float]] = {}
    for label, cls, problem, solver, stop in instances:
        if cls == "elastic":
            result = solve_spe(problem, stop=stop)
        else:
            result = solver(problem, stop=stop)
        model = CostModel.for_fixed() if cls == "fixed" else CostModel.for_elastic()
        points = model.sweep(result.counts, (2, 4, 6))
        series[label] = [p.speedup for p in points]
        paper_label = {
            "IO72b": "IO72b", "1000x1000": "1000x1000",
            "SP500x500": "SP500x500", "SP750x750": "SP750x750",
        }.get(label)
        for p in points:
            paper = (ref["rows"][paper_label][p.processors]
                     if paper_label in ref["rows"] else None)
            rows.append([label, result.iterations, p.processors,
                         round(p.speedup, 2), f"{100 * p.efficiency:.1f}%",
                         paper[0] if paper else None,
                         f"{100 * paper[1]:.1f}%" if paper else None])

    labels = [inst[0] for inst in instances]
    fixed_labels, elastic_labels = labels[:2], labels[2:]
    checks = {
        "speedup increases with N for every example": all(
            s[0] < s[1] < s[2] for s in series.values()
        ),
        "efficiency decreases with N for every example": all(
            s[0] / 2 > s[1] / 4 > s[2] / 6 for s in series.values()
        ),
        "fixed problems parallelize at least as well as elastic at N=6": min(
            series[l][2] for l in fixed_labels
        ) > min(series[l][2] for l in elastic_labels),
        "larger elastic problem has the worst N=6 speedup": (
            series[elastic_labels[1]][2] == min(s[2] for s in series.values())
        ),
    }
    notes = ["speedups from the calibrated cost model over measured phase "
             "counts (single-core host); see repro.parallel.costmodel"]
    if not full_scale:
        notes.append("instances scaled down; REPRO_FULL=1 for paper sizes")
    return ExperimentResult(
        experiment="table6",
        caption=ref["caption"],
        columns=["example", "iterations", "N", "S_N", "E_N",
                 "paper S_N", "paper E_N"],
        rows=rows,
        shape_checks=checks,
        notes=notes,
    )


# --------------------------------------------------------------------------
# Table 7 — SEA vs RC vs B-K on general problems
# --------------------------------------------------------------------------

def run_table7(full: bool | None = None, sides: tuple[int, ...] | None = None,
               bk_max_side: int = 30, repeats: int = 1):
    ref = PAPER_TABLES["table7"]
    if sides is None:
        sides = (10, 20, 30, 50, 70, 100, 120) if is_full_scale(full) else (10, 20, 30, 50)
    stop = StoppingRule(eps=1e-3, criterion="delta-x")
    rows = []
    ratios_rc, ratios_bk = [], []
    for side in sides:
        problem = general_table7_instance(side)
        # Small instances solve in milliseconds; best-of-`repeats` timing
        # removes scheduler noise from the SEA/RC ratio.
        sea_wall = rc_wall = np.inf
        for _ in range(max(repeats, 1)):
            sea, w = _wall(solve_general, problem, stop=stop)
            sea_wall = min(sea_wall, w)
            rc, w = _wall(solve_rc_general, problem, stop=stop)
            rc_wall = min(rc_wall, w)
        bk_wall = None
        if side <= bk_max_side:
            bk, bk_wall = _wall(solve_bachem_korte, problem, stop=stop)
        paper = ref["rows"].get(side * side)
        ratios_rc.append(rc_wall / sea_wall)
        if bk_wall is not None:
            ratios_bk.append(bk_wall / sea_wall)
        rows.append([f"{side * side}", round(sea_wall, 4), round(rc_wall, 4),
                     round(bk_wall, 4) if bk_wall else None,
                     round(rc_wall / sea_wall, 2),
                     round(bk_wall / sea_wall, 1) if bk_wall else None,
                     paper[1] if paper else None,
                     paper[2] if paper else None,
                     paper[3] if paper else None])
    checks = {
        "SEA beats RC on every instance": all(r > 1.0 for r in ratios_rc),
        "SEA beats RC by a material factor on the larger instances": (
            max(ratios_rc) > 2.0
        ),
        "B-K is slower than SEA by an order of magnitude or more": (
            max(ratios_bk) > 10.0 if ratios_bk else False
        ),
        "B-K becomes prohibitive (not run) on large instances": (
            any(r[3] is None for r in rows)
        ),
    }
    return ExperimentResult(
        experiment="table7",
        caption=ref["caption"],
        columns=["dim G", "SEA (s)", "RC (s)", "B-K (s)", "RC/SEA", "B-K/SEA",
                 "paper SEA", "paper RC", "paper B-K"],
        rows=rows,
        shape_checks=checks,
        notes=["B-K capped at G = "
               f"{bk_max_side * bk_max_side}^2 (prohibitive beyond, as in the paper)"],
    )


# --------------------------------------------------------------------------
# Table 8 — general migration problems
# --------------------------------------------------------------------------

def run_table8(full: bool | None = None, repeats: int = 5):
    ref = PAPER_TABLES["table8"]
    stop = StoppingRule(eps=1e-3, criterion="delta-x")
    names = general_migration_names()
    problems = [migration_instance(name) for name in names]
    results = [None] * len(problems)
    walls = [np.inf] * len(problems)
    # ~25ms solves compared with each other below: best of `repeats`
    # rounds over all six, so a slow spell of a shared host (one second
    # or more of 2-3x walls) slows every instance of a round alike
    # instead of all the repeats of whichever instance it lands on.
    for _ in range(max(repeats, 1)):
        for i, problem in enumerate(problems):
            results[i], w = _wall(solve_general, problem, stop=stop)
            walls[i] = min(walls[i], w)
    rows = [
        [name, round(wall, 4), result.iterations, result.inner_iterations,
         result.converged, ref["rows"][name]]
        for name, wall, result in zip(names, walls, results)
    ]
    checks = {
        "all six instances cost within ~2x of each other": (
            max(walls) < 2.5 * min(walls)
        ),
        "all instances converged": all(r[4] for r in rows),
    }
    return ExperimentResult(
        experiment="table8",
        caption=ref["caption"],
        columns=["dataset", "CPU time (s)", "outer iters", "inner iters",
                 "converged", "paper CPU (s)"],
        rows=rows,
        shape_checks=checks,
    )


# --------------------------------------------------------------------------
# Table 9 / Figure 7 — parallel speedups, general SEA vs RC
# --------------------------------------------------------------------------

def run_table9(full: bool | None = None, side: int | None = None):
    ref = PAPER_TABLES["table9"]
    if side is None:
        side = 100  # the paper's single Table 9 instance is affordable
    problem = general_table7_instance(side)
    stop = StoppingRule(eps=1e-3, criterion="delta-x")
    sea = solve_general(problem, stop=stop)
    rc = solve_rc_general(problem, stop=stop)

    rows = []
    series: dict[str, list[float]] = {}
    for label, result, model in (
        ("SEA", sea, CostModel.for_general_sea()),
        ("RC", rc, CostModel.for_general_rc()),
    ):
        points = model.sweep(result.counts, (2, 4))
        series[label] = [p.speedup for p in points]
        for p in points:
            paper = ref["rows"][label].get(p.processors)
            rows.append([label, p.processors, round(p.speedup, 2),
                         f"{100 * p.efficiency:.2f}%",
                         paper[0] if paper else None,
                         f"{100 * paper[1]:.2f}%" if paper else None])
    checks = {
        "SEA exhibits higher speedup than RC at N=2": series["SEA"][0] > series["RC"][0],
        "SEA exhibits higher speedup than RC at N=4": series["SEA"][1] > series["RC"][1],
        "efficiency drops from N=2 to N=4 for both": all(
            s[0] / 2 > s[1] / 4 for s in series.values()
        ),
    }
    return ExperimentResult(
        experiment="table9",
        caption=ref["caption"],
        columns=["algorithm", "N", "S_N", "E_N", "paper S_N", "paper E_N"],
        rows=rows,
        shape_checks=checks,
        notes=[f"X0 {side}x{side}, G {side * side}x{side * side}; "
               "speedups from the calibrated cost model over measured phase counts"],
    )


EXPERIMENTS: dict[str, Callable] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
    "table8": run_table8,
    "table9": run_table9,
    # The two data figures are plots of tables 6 and 9.
    "figure5": run_table6,
    "figure7": run_table9,
}


def run_experiment(name: str, full: bool | None = None, **kwargs) -> ExperimentResult:
    """Regenerate one paper table/figure by name (``'table1'`` ...
    ``'table9'``, ``'figure5'``, ``'figure7'``)."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return fn(full=full, **kwargs)
