#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Runs every experiment in the harness (full paper scale with
``--full``, scaled-down otherwise) and writes the rendered tables plus
the shape-check verdicts into EXPERIMENTS.md.

Usage:
    python scripts/make_experiments_md.py [--full] [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import datetime
import pathlib
import platform
import sys
import time

from repro.equilibration.backends import get_backend
from repro.harness.experiments import (
    run_table1, run_table2, run_table3, run_table4, run_table5,
    run_table6, run_table7, run_table8, run_table9,
)
from repro.harness.figures import figure5_from_result, figure7_from_result
from repro.harness.verification import run_verification

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction record for every table and figure in Nagurney & Eydeland
(1990).  Each section shows this library's regenerated rows next to the
paper's published values and the outcome of the shape checks defined in
DESIGN.md.

**Reading the numbers.** Absolute CPU seconds are *not* comparable:
the paper ran VS FORTRAN on one IBM 3090-600E processor in 1990; this
reproduction runs vectorized NumPy, with the bit-identical compiled
sweep kernel wherever a C compiler exists, on a modern core (roughly
three orders of magnitude faster on these kernels; the generation line
below names the kernel).  The reproduction targets
are the *shape* relations — who wins, by what factor, what grows with
what — each asserted by the shape checks below.  Speedup tables (6, 9)
come from the calibrated machine model over measured phase counts; see
`repro/parallel/costmodel.py` for the calibration story.

Figures 1-4 and 6 are schematics (problem anatomy and algorithm
flowcharts) with no data to reproduce; the module structure mirrors
them (`repro/core/sea.py` = Figure 2, `repro/equilibration/network.py`
= Figure 3, `repro/core/sea_general.py` = Figure 4, `repro/baselines/
rc.py` = Figure 6).  Figures 5 and 7 plot Tables 6 and 9; their data
series are the S_N columns below.

"""


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true",
                        help="paper-scale instances (several minutes)")
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()

    runs = [
        ("Table 1 — large-scale diagonal problems", run_table1),
        ("Table 2 — U.S. input/output datasets", run_table2),
        ("Table 3 — social accounting matrices", run_table3),
        ("Table 4 — U.S. migration tables (elastic)", run_table4),
        ("Table 5 — spatial price equilibrium problems", run_table5),
        ("Table 6 / Figure 5 — parallel speedups, diagonal SEA", run_table6),
        ("Table 7 — SEA vs RC vs B-K, dense-G general problems", run_table7),
        ("Table 8 — general migration problems (dense G)", run_table8),
        ("Table 9 / Figure 7 — parallel speedups, general SEA vs RC", run_table9),
    ]

    parts = [HEADER]
    parts.append(
        f"_Generated {datetime.date.today().isoformat()} on "
        f"{platform.machine()} / Python {platform.python_version()}"
        f" / `{get_backend().name}` kernel"
        f"{' at full paper scale' if args.full else ' at scaled-down size'}"
        f" (`python scripts/make_experiments_md.py"
        f"{' --full' if args.full else ''}`)._\n"
    )

    failures = 0
    for title, fn in runs:
        print(f"running {title} ...", flush=True)
        t0 = time.perf_counter()
        result = fn(full=args.full)
        elapsed = time.perf_counter() - t0
        verdict = "all shape checks hold" if result.all_shapes_hold else \
            "SHAPE CHECK FAILURE"
        failures += 0 if result.all_shapes_hold else 1
        parts.append(f"## {title}\n")
        parts.append(f"_{verdict}; regenerated in {elapsed:.1f}s._\n")
        parts.append("```")
        parts.append(result.render())
        if result.experiment == "table6":
            parts.append("")
            parts.append(figure5_from_result(result))
        elif result.experiment == "table9":
            parts.append("")
            parts.append(figure7_from_result(result))
        parts.append("```\n")

    print("running verification appendix ...", flush=True)
    audit = run_verification(full=args.full)
    failures += 0 if audit.all_shapes_hold else 1
    parts.append("## Appendix — optimality audits\n")
    parts.append(
        "_Every timing above is only meaningful if the solutions are "
        "optimal; one instance per model class, audited against its "
        "independent optimality conditions._\n"
    )
    parts.append("```")
    parts.append(audit.render())
    parts.append("```\n")

    pathlib.Path(args.out).write_text("\n".join(parts))
    print(f"wrote {args.out}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
