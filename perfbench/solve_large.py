"""solve-large: cold SEA solves of large tables, one caller, closed loop.

Each operation is one ``repro.solve`` call with the ``delta-x`` stop
at ``eps = 1e-4``, verified by KKT.  The mix, solved in rounds:

* ``table1`` — Table 1 ``large_diagonal_fixed(1000, seed=SEED)``;
  balanced, converges in two sweeps, so it has no settled tail;
* ``fixed`` / ``sam`` — gravity-model migration tables (vintage 6570)
  at n = 500 with chi-square-like weights spread over three decades
  and growth-perturbed totals;
* ``elastic`` — the same table family at n = 300 with unit weights;
  several hundred sweeps, most of them in a long settled tail where
  permutation reuse and incremental sweeps can pay.

The gravity instances are the calibrated ones (calibration seed 7);
``SEED`` relabels their rows and columns, which changes every input
array but not the problem, so the sweep counts do not depend on it.

Why: the kernel and the SEA drivers do almost all the work here and
the service, journal and wire layers none.
"""

from __future__ import annotations

import time

import perflib

NAME = "solve-large"
SIZES = {"table1": 1000, "fixed": 500, "sam": 500, "elastic": 300}
TINY = {"table1": 40, "fixed": 30, "sam": 30, "elastic": 20}
EPS = 1e-4
KKT_TOL = 1e-4  # max KKT violation relative to the data scale
CALIBRATION_SEED = 7
SETUP_RUNS = 7
# A run makes a few dozen solves: no percentile above the median has ten
# solves beyond it, so the tail reported is the median.
TAIL_Q = 50.0


def _gravity(n: int):
    import numpy as np
    from repro.datasets.migration import base_migration_table

    flows = base_migration_table(6570, n=n)
    mask = ~np.eye(n, dtype=bool)
    return flows, mask, np.random.default_rng(CALIBRATION_SEED)


def _fixed(n: int):
    import numpy as np
    from repro import FixedTotalsProblem

    flows, mask, rng = _gravity(n)
    gamma = np.where(mask, 10.0 ** rng.uniform(-1.5, 1.5, flows.shape), 1.0)
    s0 = flows.sum(1) * (1.0 + rng.uniform(0.0, 1.0, n))
    d0 = flows.sum(0) * (1.0 + rng.uniform(0.0, 1.0, n))
    d0 *= s0.sum() / d0.sum()
    return FixedTotalsProblem(x0=flows, gamma=gamma, s0=s0, d0=d0, mask=mask)


def _sam(n: int):
    import numpy as np
    from repro import SAMProblem

    flows, mask, rng = _gravity(n)
    gamma = np.where(mask, 10.0 ** rng.uniform(-1.5, 1.5, flows.shape), 1.0)
    s0 = flows.sum(1) * (1.0 + rng.uniform(0.0, 1.0, n))
    return SAMProblem(x0=flows, gamma=gamma, s0=s0, alpha=np.ones(n), mask=mask)


def _elastic(n: int):
    import numpy as np
    from repro import ElasticProblem

    flows, mask, rng = _gravity(n)
    return ElasticProblem(
        x0=flows, gamma=np.ones_like(flows),
        s0=flows.sum(1) * (1.0 + rng.uniform(0.0, 1.0, n)),
        d0=flows.sum(0) * (1.0 + rng.uniform(0.0, 1.0, n)),
        alpha=np.ones(n), beta=np.ones(n), mask=mask,
    )


def relabel(problem, rng):
    """The same problem with rows and columns permuted by ``rng`` (SAM
    accounts keep one permutation for both)."""
    from repro import ElasticProblem, FixedTotalsProblem, SAMProblem

    m, n = problem.shape
    rows = rng.permutation(m)
    cols = rows if isinstance(problem, SAMProblem) else rng.permutation(n)
    cells = {
        key: getattr(problem, key)[rows][:, cols]
        for key in ("x0", "gamma", "mask")
    }
    if isinstance(problem, SAMProblem):
        return SAMProblem(s0=problem.s0[rows], alpha=problem.alpha[rows],
                          **cells)
    if isinstance(problem, ElasticProblem):
        return ElasticProblem(
            s0=problem.s0[rows], d0=problem.d0[cols],
            alpha=problem.alpha[rows], beta=problem.beta[cols], **cells,
        )
    return FixedTotalsProblem(s0=problem.s0[rows], d0=problem.d0[cols],
                              **cells)


def instances(seed: int, sizes=SIZES) -> dict:
    import numpy as np
    from repro.datasets.synthetic import large_diagonal_fixed

    rng = np.random.default_rng(seed)
    return {
        "table1": large_diagonal_fixed(sizes["table1"], seed=seed),
        "fixed": relabel(_fixed(sizes["fixed"]), rng),
        "sam": relabel(_sam(sizes["sam"]), rng),
        "elastic": relabel(_elastic(sizes["elastic"]), rng),
    }


def verified(problem, result) -> bool:
    """Converged, and every KKT condition holds to ``KKT_TOL`` relative
    to the largest magnitude in the data."""
    import numpy as np
    from repro.core.kkt import max_kkt_violation

    if not result.converged:
        return False
    scale = max(1.0, float(np.max(np.abs(problem.x0))),
                float(np.max(np.abs(problem.s0))))
    violation = max_kkt_violation(problem, result)
    return bool(np.isfinite(violation)) and violation <= KKT_TOL * scale


def _setup_probe() -> float:
    import sys

    return perflib.probe_setup(
        [sys.executable, str(perflib.ROOT / "perfbench" / "probe.py"), NAME],
        "perfbench ready",
    )


def run(seed: int, seconds: float, trace: bool, tiny: bool = False):
    import repro
    from repro.core.convergence import StoppingRule
    from repro.equilibration.backends import get_backend
    from repro.equilibration.exact import solve_piecewise_linear
    from repro.equilibration.workspace import SweepWorkspace

    sizes = TINY if tiny else SIZES
    stop = StoppingRule(eps=EPS, criterion="delta-x", max_iterations=5000)
    problems = instances(seed, sizes)
    out = perflib.Outcome()
    out.notes.append(
        f"# {NAME} seed={seed} sizes={sizes} stop=delta-x eps={EPS} "
        f"backend={get_backend().name}"
    )

    tracer = perflib.Tracer()
    kernel = tracer.wrap("equilibration", solve_piecewise_linear)
    times = {name: [] for name in problems}
    traced_times = {name: [] for name in problems}
    iterations, model_ops = [], []
    sweep_counters = dict.fromkeys(
        ("rows_reused", "rows_resorted", "rows_skipped", "perm_repairs",
         "full_resorts"), 0)
    traced_wall = 0.0
    rounds = 0
    start = time.perf_counter()
    # Trace runs alternate untraced and traced rounds, so the overhead
    # estimate sees the same machine state on both sides.
    while rounds < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and rounds % 2 == 1
        round_start = time.perf_counter()
        for name, problem in problems.items():
            if traced:
                m, n = problem.shape
                pair = (SweepWorkspace(m, n), SweepWorkspace(n, m))
                with tracer.span("core"):
                    t0 = time.perf_counter()
                    result = repro.solve(problem, stop=stop, kernel=kernel,
                                         workspaces=pair)
                    elapsed = time.perf_counter() - t0
                for ws in pair:
                    ext = ws.counters_extended()
                    for key in sweep_counters:
                        sweep_counters[key] += ext[key]
                traced_times[name].append(elapsed)
            else:
                t0 = time.perf_counter()
                result = repro.solve(problem, stop=stop)
                times[name].append(time.perf_counter() - t0)
            out.attempted += 1
            if not verified(problem, result):
                out.failed += 1
            iterations.append(result.iterations)
            model_ops.append(result.counts.parallel_ops)
        if traced:
            traced_wall += time.perf_counter() - round_start
        rounds += 1

    medians = {name: perflib.median(v) for name, v in times.items()}
    for name in problems:
        out.notes.append(
            f"tts_{name}: median {medians[name] * 1e3:.1f} ms over "
            f"{len(times[name])} solves (n={sizes[name]})"
        )
    ops_per_s = len(problems) / sum(medians.values())
    samples = [t for v in times.values() for t in v]
    q, tail_s, beyond = perflib.tail(samples, TAIL_Q)
    out.notes.append(
        f"latency tail = p{q:g} with {beyond} of {len(samples)} samples beyond"
    )

    if not trace:
        setup_s, setups = perflib.setup_median(
            _setup_probe, 2 if tiny else SETUP_RUNS
        )
        out.notes.append(
            "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups)
        )
        out.metrics.update({
            "ops_per_s": ops_per_s,
            "latency_p50_ms": perflib.median(samples) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": perflib.self_peak_rss_mb(),
        })
        return out

    spans = tracer.spans
    traced_ops = sum(len(v) for v in traced_times.values())
    traced_medians = {n: perflib.median(v) for n, v in traced_times.items()}
    overhead = sum(traced_medians.values()) / sum(medians.values()) - 1.0
    for name in problems:
        out.notes.append(
            f"tracing overhead {name}: traced {traced_medians[name] * 1e3:.1f}"
            f" ms vs untraced {medians[name] * 1e3:.1f} ms"
        )
    sorts = sweep_counters["rows_reused"] + sweep_counters["rows_resorted"]
    out.metrics.update({
        "core.iterations_per_op": sum(iterations) / len(iterations),
        "core.self_ms_per_op": perflib.per_op(
            perflib.self_time(spans, "core"), traced_ops) * 1e3,
        "equilibration.calls_per_op": perflib.per_op(
            perflib.count(spans, "equilibration"), traced_ops),
        "equilibration.kernel_ms_per_op": perflib.per_op(
            perflib.total(spans, "equilibration"), traced_ops) * 1e3,
        "equilibration.ops_computed": sum(model_ops) / len(model_ops) / 1e6,
        "equilibration.sort_reuse_rate": (
            sweep_counters["rows_reused"] / sorts if sorts else 0.0),
        "equilibration.rows_skipped_per_op": perflib.per_op(
            sweep_counters["rows_skipped"], traced_ops),
        "equilibration.perm_repairs_per_op": perflib.per_op(
            sweep_counters["perm_repairs"], traced_ops),
        "equilibration.full_resorts_per_op": perflib.per_op(
            sweep_counters["full_resorts"], traced_ops),
        "tts.table1_ms": medians["table1"] * 1e3,
        "tts.fixed_ms": medians["fixed"] * 1e3,
        "tts.sam_ms": medians["sam"] * 1e3,
        "tts.elastic_ms": medians["elastic"] * 1e3,
        "trace.overhead_pct": overhead * 100.0,
        "trace.unattributed_share": 1.0 - perflib.covered(spans) / traced_wall,
    })
    return out
