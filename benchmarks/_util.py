"""Shared helpers for the benchmark suite.

Each ``bench_tableN`` module (a) benchmarks the solver kernels that
dominate that table with pytest-benchmark, and (b) regenerates the
paper table through :mod:`repro.harness`, writing the rendered rows to
``benchmarks/results/<experiment>.txt`` so the output survives pytest's
capture (``pytest benchmarks/ --benchmark-only`` is the canonical
invocation).  Set ``REPRO_FULL=1`` for paper-scale instances.

The scripts that record blocks of ``BENCH_sweeps.json`` all write it
through :func:`write_sweeps`.
"""

from __future__ import annotations

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(result) -> str:
    """Render an ExperimentResult and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = result.render()
    (RESULTS_DIR / f"{result.experiment}.txt").write_text(text + "\n")
    return text


def write_sweeps(path: pathlib.Path, blocks: dict) -> None:
    """Replace the top-level ``blocks`` of the JSON document at ``path``
    (``BENCH_sweeps.json``) and keep every other block.  A missing or
    unreadable file starts a fresh document.  One format (``indent=2``)
    for every writer, so a run rewrites only its own blocks."""
    doc = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            doc = {}
    doc.update(blocks)
    path.write_text(json.dumps(doc, indent=2) + "\n")
