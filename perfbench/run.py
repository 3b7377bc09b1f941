"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Runs one workload against the checkout's ``src/`` with the program's
defaults, verifies every operation, prints a human-readable report and,
as the last stdout line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports every end-to-end metric declared in
``BENCHMARK.json``; ``--trace 1`` reports every per-layer metric (a
layer a workload does not exercise reads 0).  Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import perflib

WORKLOADS = ("solve-large", "revise-journaled", "edge-cluster")


def _module(workload: str):
    if workload == "solve-large":
        import solve_large as module
    elif workload == "revise-journaled":
        import revise_journaled as module
    else:
        import edge_cluster as module
    return module


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not perflib.program_available():
        print(f"perfbench: no program sources under {perflib.SRC}",
              file=sys.stderr)
        return 2
    declared = json.loads((perflib.ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(perflib.WORK, ignore_errors=True)
    perflib.use_program()
    try:
        outcome = _module(args.workload).run(
            args.seed, args.seconds, bool(args.trace), tiny=tiny
        )
    finally:
        shutil.rmtree(perflib.WORK, ignore_errors=True)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    unknown = set(outcome.metrics) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"undeclared metrics {sorted(unknown)}")
    idle = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if idle and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {idle}")
    if idle:
        outcome.notes.append(
            "not measured on this workload (reads 0): " + ", ".join(idle))
    metrics = {
        m["name"]: {"value": outcome.metrics.get(m["name"], 0.0),
                    "unit": m["unit"]}
        for m in wanted
    }
    for line in outcome.notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
