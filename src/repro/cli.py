"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``
    Solve a constrained matrix problem from CSV inputs::

        python -m repro solve --kind fixed --table x0.csv \\
            --row-totals totals_s.csv --col-totals totals_d.csv \\
            --weights chi-square --out solution.csv

    Totals files are one-column CSVs (label, value).  ``--kind sam``
    needs only ``--row-totals`` (prior account totals); ``--kind
    elastic`` treats both totals files as priors.

``serve``
    Run the solve service over newline-delimited JSON::

        python -m repro serve --jsonl < requests.jsonl > responses.jsonl

    Each input line is one request (see :mod:`repro.service.wire` for
    the schema); each output line is the matching response.  Requests
    are micro-batched in windows (``--window``), fused by shape, and
    warm-started from previously-solved problems.

    Durability (all opt-in): ``--journal`` write-ahead logs every
    accepted request and every response; ``--recover`` replays a
    journal's unanswered requests exactly once after a crash;
    ``--snapshot`` persists the warm state across restarts;
    ``--max-queue``/``--admission``/``--max-per-kind`` bound the queue
    under an overload policy; SIGTERM/SIGINT drain gracefully under
    ``--drain-deadline`` and exit 0.

    Operations: ``--supervise`` (with ``--tcp``) runs the self-healing
    control loop of :mod:`repro.supervisor` against the live service,
    journaling every corrective action to ``--action-journal``;
    ``--stats --prometheus`` emits the exit stats in Prometheus text
    exposition instead of JSON.

``shard-serve``
    Host one cluster shard over TCP for a remote router::

        python -m repro shard-serve --tcp 0.0.0.0:7800 \\
            --journal shard-a.journal --fsync 1

    The router side is ``serve --cluster N --shard-backend net
    --shard host:port`` (one ``--shard`` per remote, or
    comma-separated).  Every journal record the shard writes is
    shipped to the router's replica journal and acknowledged before
    the response is delivered, so the router can fail a dead *host*'s
    keyspace over onto survivors with zero lost and zero
    double-answered requests.  ``--recover`` replays the local journal
    on startup, exactly like ``serve --recover``.

``chaos-proxy``
    Run a seeded fault-injecting TCP proxy in front of an edge::

        python -m repro chaos-proxy --listen 127.0.0.1:0 \\
            --upstream 127.0.0.1:7777 --latency 0.002 --reset 0.01

    Faults (latency, bandwidth, corruption, truncation, resets, timed
    partitions) come from a replayable :class:`repro.chaos.ChaosSchedule`
    — pass ``--schedule plan.json`` or compose flags; ``--events``
    writes the injection log as JSONL.

``experiment``
    Regenerate one paper table/figure::

        python -m repro experiment table3 [--full]

``info``
    Print the library version and the experiment registry.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Splitting Equilibration Algorithm for constrained "
                    "matrix problems (Nagurney & Eydeland 1990)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem from CSV inputs")
    solve.add_argument("--kind", choices=("fixed", "elastic", "sam"),
                       default="fixed")
    solve.add_argument("--table", required=True,
                       help="labeled CSV of the base matrix X0")
    solve.add_argument("--row-totals", required=True,
                       help="one-column CSV (label,value) of row totals")
    solve.add_argument("--col-totals",
                       help="one-column CSV of column totals "
                            "(not used for --kind sam)")
    solve.add_argument("--weights", choices=("unit", "chi-square",
                                             "inverse-sqrt"),
                       default="unit")
    solve.add_argument("--eps", type=float, default=None,
                       help="stopping tolerance (paper defaults per kind)")
    solve.add_argument("--max-iterations", type=int, default=10_000)
    solve.add_argument("--out", help="write the estimate to a labeled CSV")
    solve.add_argument("--report", action="store_true",
                       help="print the convergence diagnostics report")
    solve.add_argument("--json", action="store_true",
                       help="print the result as a JSON document instead of "
                            "the text summary (exit code 2 signals "
                            "nonconvergence either way)")

    serve = sub.add_parser("serve",
                           help="solve a JSONL request stream via the "
                                "batching, warm-starting service")
    serve.add_argument("--jsonl", action="store_true",
                       help="newline-delimited JSON in/out (the only wire "
                            "format; flag kept explicit for forward "
                            "compatibility)")
    serve.add_argument("--tcp", metavar="HOST:PORT",
                       help="serve the same JSONL schema over an asyncio "
                            "TCP edge instead of stdin/stdout: concurrent "
                            "pipelined client connections, in-order "
                            "responses per connection, socket-level "
                            "backpressure under --admission block, "
                            "SIGTERM/SIGINT graceful drain (port 0 picks "
                            "a free port)")
    serve.add_argument("--input",
                       help="read requests from this file (default: stdin)")
    serve.add_argument("--output",
                       help="write responses to this file (default: stdout)")
    serve.add_argument("--window", type=int, default=32,
                       help="micro-batch window: requests buffered before a "
                            "drain (default 32)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker count of the shared kernel pool")
    serve.add_argument("--backend", choices=("serial", "thread"),
                       default="serial")
    serve.add_argument("--no-batch", action="store_true",
                       help="disable same-shape request fusion")
    serve.add_argument("--no-warm-start", action="store_true",
                       help="disable the warm-start cache")
    serve.add_argument("--no-matrix", action="store_true",
                       help="omit x/s/d payloads from responses")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request wall-clock budget in "
                            "seconds (overrun requests answer with "
                            "error.kind=deadline-exceeded)")
    serve.add_argument("--retries", type=int, default=1,
                       help="default re-attempts after transient errors "
                            "(worker crashes); deterministic errors are "
                            "never retried (default 1)")
    serve.add_argument("--stats", action="store_true",
                       help="print the ServiceStats JSON to stderr on exit")
    serve.add_argument("--journal",
                       help="write-ahead journal path (JSONL): every "
                            "accepted request is journaled before solving, "
                            "every response before delivery, enabling "
                            "crash-safe exactly-once replay via --recover")
    serve.add_argument("--fsync", type=int, default=0,
                       help="journal fsync interval: 0 never (flush only), "
                            "1 every record, N every N records (default 0)")
    serve.add_argument("--recover", action="store_true",
                       help="on startup, replay unanswered requests from "
                            "--journal (exactly once; answered ids keep "
                            "their recorded responses) before reading new "
                            "input")
    serve.add_argument("--snapshot",
                       help="warm-state sidecar path: warm-start cache "
                            "(duals) and breaker state "
                            "saved on exit, restored on start (a directory "
                            "of per-shard sidecars under --cluster)")
    serve.add_argument("--snapshot-every", type=int, default=None,
                       help="also write the warm-state sidecar every N "
                            "processed requests (requires --snapshot)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="bound the request queue; excess handled per "
                            "--admission (default: unbounded)")
    serve.add_argument("--admission",
                       choices=("block", "reject-newest", "shed-oldest"),
                       default="reject-newest",
                       help="overload policy at a full --max-queue: "
                            "reject-newest answers error.kind=overloaded, "
                            "shed-oldest evicts the stalest queued request, "
                            "block applies backpressure (default "
                            "reject-newest)")
    serve.add_argument("--max-per-kind", type=int, default=None,
                       help="fair-share bound on any one problem kind's "
                            "queue slots")
    serve.add_argument("--drain-deadline", type=float, default=30.0,
                       help="graceful-shutdown budget in seconds: on "
                            "SIGTERM/SIGINT stop admission, drain queued "
                            "work up to this long, leave the rest "
                            "journaled, exit 0 (default 30)")
    serve.add_argument("--cluster", type=int, default=None, metavar="N",
                       help="serve through a sharded cluster of N replica "
                            "services, consistent-hash routed on the "
                            "problem fingerprint; --journal/--snapshot "
                            "become per-shard directories and admission "
                            "applies at the router edge")
    serve.add_argument("--max-per-shard", type=int, default=None,
                       help="fair-share bound on any one shard's in-flight "
                            "requests (--cluster only; pairs with "
                            "--max-queue like --max-per-kind does)")
    serve.add_argument("--shard-backend",
                       choices=("process", "inline", "net"),
                       default="process",
                       help="cluster replica isolation: child processes "
                            "over pipes (default), in-process shards "
                            "(deterministic, zero IPC), or remote "
                            "shard-serve hosts over TCP (net; requires "
                            "--shard addresses)")
    serve.add_argument("--shard", action="append", default=None,
                       metavar="HOST:PORT",
                       help="remote shard address for --shard-backend net "
                            "(repeatable, or comma-separated); the number "
                            "of addresses must match --cluster (or "
                            "implies it); with --journal, every remote "
                            "journal record is shipped into a per-shard "
                            "replica journal under the --journal "
                            "directory, enabling host-loss failover")
    serve.add_argument("--supervise", action="store_true",
                       help="run the self-healing supervisor next to the "
                            "--tcp edge: it polls service/cluster stats, "
                            "applies one bounded corrective action at a "
                            "time (respawn shards, flip admission, scale "
                            "the window, pause intake), verifies the "
                            "triggering signal improved, and reverts "
                            "actions that did not help")
    serve.add_argument("--supervise-interval", type=float, default=2.0,
                       help="supervisor poll period in seconds (default 2)")
    serve.add_argument("--action-journal",
                       help="append the supervisor's decisions (apply / "
                            "verify / revert) to this JSONL file "
                            "(requires --supervise)")
    serve.add_argument("--prometheus", action="store_true",
                       help="with --stats, print Prometheus text "
                            "exposition (repro_* series) to stderr "
                            "instead of JSON")

    shard = sub.add_parser(
        "shard-serve",
        help="host one cluster shard over TCP for a remote "
             "serve --shard-backend net router",
    )
    shard.add_argument("--tcp", required=True, metavar="HOST:PORT",
                       help="address to listen on (port 0 picks a free "
                            "port; the bound address is announced on "
                            "stderr as 'shard listening on HOST:PORT')")
    shard.add_argument("--shard-id", default="shard",
                       help="shard name reported in the hello handshake "
                            "(default 'shard')")
    shard.add_argument("--journal",
                       help="local write-ahead journal path; with a "
                            "router-side replica this is what makes "
                            "host-loss failover exactly-once")
    shard.add_argument("--fsync", type=int, default=0,
                       help="journal fsync interval (0 never, 1 every "
                            "record, N every N records; default 0)")
    shard.add_argument("--recover", action="store_true",
                       help="replay unanswered requests from --journal "
                            "on startup (exactly once)")
    shard.add_argument("--snapshot",
                       help="warm-state sidecar path (saved on exit, "
                            "restored on start)")
    shard.add_argument("--workers", type=int, default=1,
                       help="worker count of this shard's kernel pool")
    shard.add_argument("--backend", choices=("serial", "thread"),
                       default="serial")
    shard.add_argument("--window", type=int, default=32,
                       help="micro-batch window (default 32)")
    shard.add_argument("--no-batch", action="store_true",
                       help="disable same-shape request fusion")
    shard.add_argument("--no-warm-start", action="store_true",
                       help="disable the warm-start cache")
    shard.add_argument("--deadline", type=float, default=None,
                       help="default per-request wall-clock budget in "
                            "seconds")
    shard.add_argument("--retries", type=int, default=1,
                       help="default re-attempts after transient errors "
                            "(default 1)")

    chaos = sub.add_parser(
        "chaos-proxy",
        help="seeded fault-injecting TCP proxy for chaos-testing an edge",
    )
    chaos.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="address to accept clients on (port 0 picks a "
                            "free port; default 127.0.0.1:0)")
    chaos.add_argument("--upstream", required=True, metavar="HOST:PORT",
                       help="edge server to forward to")
    chaos.add_argument("--schedule",
                       help="ChaosSchedule JSON file; flag overrides below "
                            "apply on top of it")
    chaos.add_argument("--seed", type=int, default=None,
                       help="fault-stream seed (replays are deterministic "
                            "per connection and direction)")
    chaos.add_argument("--latency", type=float, default=None,
                       help="fixed extra delay per forwarded chunk, seconds")
    chaos.add_argument("--jitter", type=float, default=None,
                       help="heavy-tailed (Pareto) jitter scale, seconds")
    chaos.add_argument("--bandwidth", type=float, default=None,
                       help="throttle to this many bytes/second")
    chaos.add_argument("--corrupt", type=float, default=None,
                       help="per-chunk probability of flipping one byte")
    chaos.add_argument("--truncate", type=float, default=None,
                       help="per-chunk probability of forwarding half the "
                            "chunk then severing the connection")
    chaos.add_argument("--reset", type=float, default=None,
                       help="per-chunk probability of dropping the chunk "
                            "and resetting the connection")
    chaos.add_argument("--partition", action="append", default=None,
                       metavar="START:END",
                       help="full-partition window in seconds since proxy "
                            "start (repeatable): active connections sever, "
                            "new ones are refused")
    chaos.add_argument("--events",
                       help="write the fault-injection event log to this "
                            "JSONL file on exit")
    chaos.add_argument("--duration", type=float, default=None,
                       help="stop after this many seconds (default: run "
                            "until SIGINT/SIGTERM)")

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("name", help="table1..table9, figure5, figure7")
    experiment.add_argument("--full", action="store_true",
                            help="paper-scale instances")

    sub.add_parser("info", help="version and experiment registry")
    return parser


def _read_totals(path) -> tuple[np.ndarray, list[str]]:
    import csv as _csv
    import pathlib

    labels, values = [], []
    with pathlib.Path(path).open(newline="") as fh:
        for row in _csv.reader(fh):
            if not row:
                continue
            if len(row) == 1:
                values.append(float(row[0]))
                labels.append(f"r{len(values) - 1}")
            else:
                labels.append(row[0].strip())
                values.append(float(row[1]))
    return np.array(values, dtype=np.float64), labels


def _cmd_solve(args) -> int:
    from repro.core.convergence import StoppingRule
    from repro.core.problems import ElasticProblem, FixedTotalsProblem, SAMProblem
    from repro.core.sea import solve_elastic, solve_fixed, solve_sam
    from repro.core.weights import cell_weights, total_weights
    from repro.diagnostics import convergence_report
    from repro.io import read_table_csv, write_table_csv

    x0, row_labels, col_labels = read_table_csv(args.table)
    mask = x0 > 0.0
    gamma = cell_weights(x0, args.weights, mask=mask)
    s0, _ = _read_totals(args.row_totals)
    if s0.size != x0.shape[0]:
        raise SystemExit(
            f"row totals: expected {x0.shape[0]} values, got {s0.size}"
        )

    if args.kind == "sam":
        problem = SAMProblem(
            x0=x0, gamma=gamma, s0=s0,
            alpha=total_weights(s0, args.weights), mask=mask,
        )
        stop = StoppingRule(eps=args.eps or 1e-3, criterion="imbalance",
                            max_iterations=args.max_iterations)
        result = solve_sam(problem, stop=stop, record_history=args.report)
    else:
        if not args.col_totals:
            raise SystemExit(f"--kind {args.kind} requires --col-totals")
        d0, _ = _read_totals(args.col_totals)
        if d0.size != x0.shape[1]:
            raise SystemExit(
                f"column totals: expected {x0.shape[1]} values, got {d0.size}"
            )
        stop = StoppingRule(eps=args.eps or 1e-2, criterion="delta-x",
                            max_iterations=args.max_iterations)
        if args.kind == "fixed":
            problem = FixedTotalsProblem(
                x0=x0, gamma=gamma, s0=s0, d0=d0, mask=mask
            )
            result = solve_fixed(problem, stop=stop, record_history=args.report)
        else:
            problem = ElasticProblem(
                x0=x0, gamma=gamma, s0=s0, d0=d0,
                alpha=total_weights(s0, args.weights),
                beta=total_weights(d0, args.weights), mask=mask,
            )
            result = solve_elastic(problem, stop=stop,
                                   record_history=args.report)

    if args.json:
        import json

        def _finite(v):
            v = float(v)
            return v if np.isfinite(v) else None

        print(json.dumps({
            "kind": args.kind,
            "algorithm": result.algorithm,
            "converged": bool(result.converged),
            "iterations": int(result.iterations),
            "residual": _finite(result.residual),
            "objective": _finite(result.objective),
            "elapsed": round(result.elapsed, 6),
            "x": result.x.tolist(),
            "s": result.s.tolist(),
            "d": result.d.tolist(),
            "row_labels": row_labels,
            "col_labels": col_labels,
        }))
    elif args.report:
        print(convergence_report(result))
    else:
        print(result.summary())
    if args.out:
        write_table_csv(args.out, result.x, row_labels, col_labels)
        if not args.json:
            print(f"wrote {args.out}")
    return 0 if result.converged else 2


def _validate_serve_args(args) -> None:
    """Reject inconsistent serve flags up front, with actionable errors,
    instead of letting them silently misbehave at runtime."""
    if args.max_per_kind is not None and args.max_queue is None:
        raise SystemExit(
            "--max-per-kind is a fair share of the bounded queue; it "
            "requires --max-queue"
        )
    if args.max_per_shard is not None and args.max_queue is None:
        raise SystemExit(
            "--max-per-shard is a fair share of the bounded cluster "
            "queue; it requires --max-queue"
        )
    if args.max_per_shard is not None and args.cluster is None:
        raise SystemExit("--max-per-shard only applies with --cluster")
    if args.drain_deadline < 0:
        raise SystemExit(
            f"--drain-deadline must be >= 0 seconds, got "
            f"{args.drain_deadline}"
        )
    if args.snapshot_every is not None and args.snapshot_every < 1:
        raise SystemExit(
            f"--snapshot-every must be >= 1 request, got "
            f"{args.snapshot_every}"
        )
    if args.snapshot_every is not None and not args.snapshot:
        raise SystemExit("--snapshot-every requires --snapshot")
    if args.max_queue is not None and args.max_queue < 1:
        raise SystemExit(f"--max-queue must be >= 1, got {args.max_queue}")
    if args.max_per_kind is not None and args.max_per_kind < 1:
        raise SystemExit(
            f"--max-per-kind must be >= 1, got {args.max_per_kind}"
        )
    if args.max_per_shard is not None and args.max_per_shard < 1:
        raise SystemExit(
            f"--max-per-shard must be >= 1, got {args.max_per_shard}"
        )
    if args.cluster is not None and args.cluster < 1:
        raise SystemExit(f"--cluster must be >= 1 shard, got {args.cluster}")
    if args.shard:
        from repro.cluster.transport import parse_host_port

        specs = [
            spec for chunk in args.shard
            for spec in chunk.split(",") if spec
        ]
        for spec in specs:
            try:
                parse_host_port(spec)
            except ValueError as exc:
                raise SystemExit(f"--shard: {exc}") from exc
        if args.shard_backend != "net":
            raise SystemExit(
                "--shard addresses are remote shard-serve hosts; they "
                "require --shard-backend net"
            )
        if args.cluster is None:
            args.cluster = len(specs)
        elif args.cluster != len(specs):
            raise SystemExit(
                f"--cluster {args.cluster} does not match the "
                f"{len(specs)} --shard address(es)"
            )
        args.shard = specs
    elif args.shard_backend == "net":
        raise SystemExit(
            "--shard-backend net requires --shard HOST:PORT addresses "
            "(one per remote shard-serve process)"
        )
    if args.fsync < 0:
        raise SystemExit(f"--fsync must be >= 0, got {args.fsync}")
    if args.window < 1:
        raise SystemExit(f"--window must be >= 1, got {args.window}")
    if args.tcp is not None:
        if args.input or args.output:
            raise SystemExit(
                "--tcp serves sockets; --input/--output only apply to "
                "the stdin JSONL session"
            )
        host, sep, port_s = args.tcp.rpartition(":")
        if not sep or not port_s.isdigit() or int(port_s) > 65535:
            raise SystemExit(
                f"--tcp expects HOST:PORT (PORT in 0..65535, 0 = pick a "
                f"free port), got {args.tcp!r}"
            )
    if args.supervise and args.tcp is None:
        raise SystemExit(
            "--supervise runs next to the TCP edge; it requires --tcp"
        )
    if args.supervise_interval <= 0:
        raise SystemExit(
            f"--supervise-interval must be > 0 seconds, got "
            f"{args.supervise_interval}"
        )
    if args.action_journal and not args.supervise:
        raise SystemExit("--action-journal requires --supervise")
    if args.prometheus and not args.stats:
        raise SystemExit(
            "--prometheus formats the exit stats; it requires --stats"
        )


def _build_service(args):
    """Construct the :class:`SolveService` or :class:`ClusterService`
    the serve flags describe (shared by the stdin JSONL session and the
    TCP edge)."""
    from repro.service import SolveService

    kwargs = dict(
        workers=args.workers,
        backend=args.backend,
        batching=not args.no_batch,
        warm_start=not args.no_warm_start,
        max_batch=max(args.window, 1),
        default_deadline_s=args.deadline,
        default_retries=max(args.retries, 0),
        fsync=max(args.fsync, 0),
    )
    if args.recover and not args.journal:
        raise SystemExit("--recover requires --journal")
    if args.cluster is not None:
        # Sharded tier: --journal/--snapshot are directories of
        # per-shard files; admission moves to the router edge.
        from repro.cluster import ClusterService

        kwargs.update(
            shard_backend=args.shard_backend,
            snapshot_dir=args.snapshot,
            snapshot_every=args.snapshot_every,
            max_queue=args.max_queue,
            admission_policy=args.admission,
            max_per_shard=args.max_per_shard,
        )
        if args.shard:
            kwargs["shard_specs"] = args.shard
        if args.recover:
            return ClusterService.recover(
                args.journal, shards=args.cluster, **kwargs
            )
        return ClusterService(
            shards=args.cluster, journal_dir=args.journal, **kwargs
        )
    kwargs.update(
        snapshot_path=args.snapshot,
        snapshot_every=args.snapshot_every,
        max_queue=args.max_queue,
        admission_policy=args.admission,
        max_per_kind=args.max_per_kind,
    )
    if args.recover:
        return SolveService.recover(args.journal, **kwargs)
    return SolveService(journal=args.journal, **kwargs)


def _serve_tcp_edge(args) -> int:
    """The ``serve --tcp`` path: run the asyncio edge until
    SIGTERM/SIGINT, then drain gracefully and exit 0."""
    import asyncio
    import json

    from repro.edge import serve_tcp

    host, _, port_s = args.tcp.rpartition(":")
    with _build_service(args) as svc:
        if args.recover and svc.pending:
            # Crashed clients cannot reattach to their old connection;
            # answer the journal's unanswered requests now so the
            # responses are journaled (exactly once) before new
            # traffic arrives.
            svc.drain()
        supervisor = None
        if args.supervise:
            from repro.supervisor import Supervisor

            supervisor = Supervisor(
                svc,
                interval_s=args.supervise_interval,
                journal=args.action_journal,
            )

        async def _run():
            loop = asyncio.get_running_loop()
            ready = loop.create_future()

            async def _announce():
                # Port 0 binds a free port; tell the operator (and the
                # tests) which one before traffic can arrive.
                port = await ready
                print(
                    f"edge listening on {host or '127.0.0.1'}:{port}",
                    file=sys.stderr, flush=True,
                )

            announce = asyncio.ensure_future(_announce())
            try:
                return await serve_tcp(
                    svc,
                    host or "127.0.0.1",
                    int(port_s),
                    drain_deadline_s=args.drain_deadline,
                    ready=ready,
                    window=max(args.window, 1),
                    default_deadline_s=args.deadline,
                    include_matrix=not args.no_matrix,
                    supervisor=supervisor,
                )
            finally:
                announce.cancel()

        server = asyncio.run(_run())
        if supervisor is not None:
            supervisor.journal.close()
        if args.stats:
            if args.prometheus:
                text = server.stats.metrics_text()
                if server.final_service_stats_obj is not None:
                    text += server.final_service_stats_obj.metrics_text()
                print(text, end="", file=sys.stderr)
            else:
                payload = dict(server.stats.as_dict())
                if server.final_service_stats is not None:
                    payload["service"] = server.final_service_stats
                print(json.dumps(payload), file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import contextlib
    import json
    import pathlib
    import signal

    from repro.errors import ReproError
    from repro.service.wire import (
        RequestError,
        dump_response,
        error_line,
        read_requests,
    )

    _validate_serve_args(args)
    if args.tcp is not None:
        return _serve_tcp_edge(args)

    class _GracefulShutdown(Exception):
        """Raised by the signal handler to unwind into the drain path."""

    def _handler(signum, frame):  # noqa: ARG001 — signal handler signature
        raise _GracefulShutdown(signum)

    # SIGTERM/SIGINT trigger a graceful drain: admission stops, queued
    # work is answered under --drain-deadline, the rest stays journaled
    # for the next --recover, and the process exits 0.  Handlers only
    # install on the main thread; elsewhere (tests calling main()
    # in-thread) the flags still work, just without signal-driven drain.
    restore: list[tuple[int, object]] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            restore.append((sig, signal.signal(sig, _handler)))
        except ValueError:
            pass

    any_error = False
    any_nonconverged = False
    graceful = False
    try:
        with contextlib.ExitStack() as stack:
            if args.input:
                in_stream = stack.enter_context(pathlib.Path(args.input).open())
            else:
                in_stream = sys.stdin
            if args.output:
                out_stream = stack.enter_context(
                    pathlib.Path(args.output).open("w")
                )
            else:
                out_stream = sys.stdout

            def _write(resp) -> None:
                nonlocal any_error, any_nonconverged
                out_stream.write(
                    dump_response(resp, include_matrix=not args.no_matrix)
                    + "\n"
                )
                if not resp.ok:
                    any_error = True
                elif not resp.converged:
                    any_nonconverged = True

            def _flush(svc) -> None:
                # collect() carries responses produced outside drain():
                # shed-oldest victims and block-policy backpressure
                # drains; merge them back into submission order.
                for resp in sorted(
                    svc.collect() + svc.drain(),
                    key=lambda r: r.submitted_at,
                ):
                    _write(resp)
                out_stream.flush()

            svc = _build_service(args)
            stack.enter_context(svc)
            try:
                if args.recover and svc.pending:
                    # Answer the journal's unanswered requests (exactly
                    # once) before reading any new input.
                    _flush(svc)
                for request in read_requests(in_stream):
                    if isinstance(request, RequestError):
                        # A malformed line answers in stream position with
                        # a structured invalid-request error; the session
                        # lives on.
                        _flush(svc)  # keep responses in request order
                        out_stream.write(error_line(request) + "\n")
                        out_stream.flush()
                        any_error = True
                        continue
                    try:
                        svc.submit(request)
                    except ReproError as exc:
                        # Admission refusals (overloaded,
                        # duplicate-request) answer in stream position
                        # with the taxonomy tag; the session lives on.
                        _flush(svc)
                        out_stream.write(json.dumps({
                            "id": request.id,
                            "status": "error",
                            "error": {"kind": exc.kind, "message": str(exc)},
                        }, separators=(",", ":")) + "\n")
                        out_stream.flush()
                        any_error = True
                        continue
                    if svc.pending >= max(args.window, 1):
                        _flush(svc)
                _flush(svc)
            except _GracefulShutdown:
                graceful = True
                drained = svc.shutdown(deadline_s=args.drain_deadline)
                for resp in sorted(
                    svc.collect() + drained, key=lambda r: r.submitted_at
                ):
                    _write(resp)
                out_stream.flush()
            if args.stats:
                if args.prometheus:
                    print(svc.stats().metrics_text(), end="",
                          file=sys.stderr)
                else:
                    print(json.dumps(svc.stats().as_dict()),
                          file=sys.stderr)
    finally:
        for sig, old in restore:
            signal.signal(sig, old)

    if graceful:
        return 0
    if any_error:
        return 1
    return 2 if any_nonconverged else 0


def _cmd_shard_serve(args) -> int:
    """Host one :class:`SolveService` shard behind a
    :class:`~repro.cluster.net.ShardServer` until SIGTERM/SIGINT (or a
    router-sent ``shutdown``/``close``), then exit 0."""
    import signal

    from repro.cluster.net import ShardServer
    from repro.service import SolveService

    host, sep, port_s = args.tcp.rpartition(":")
    if not sep or not port_s.isdigit() or int(port_s) > 65535:
        raise SystemExit(
            f"--tcp expects HOST:PORT (PORT in 0..65535, 0 = pick a "
            f"free port), got {args.tcp!r}"
        )
    if args.recover and not args.journal:
        raise SystemExit("--recover requires --journal")
    if args.fsync < 0:
        raise SystemExit(f"--fsync must be >= 0, got {args.fsync}")
    if args.window < 1:
        raise SystemExit(f"--window must be >= 1, got {args.window}")

    kwargs = dict(
        workers=args.workers,
        backend=args.backend,
        batching=not args.no_batch,
        warm_start=not args.no_warm_start,
        max_batch=max(args.window, 1),
        default_deadline_s=args.deadline,
        default_retries=max(args.retries, 0),
        fsync=max(args.fsync, 0),
        snapshot_path=args.snapshot,
    )
    if args.recover:
        svc = SolveService.recover(args.journal, **kwargs)
    else:
        svc = SolveService(journal=args.journal, **kwargs)

    with svc:
        server = ShardServer(
            svc, host=host or "127.0.0.1", port=int(port_s),
            shard_id=args.shard_id,
        )
        # Port 0 binds a free port; announce the real one before any
        # router can need it (tests and the bench parse this line).
        print(f"shard listening on {server.address}",
              file=sys.stderr, flush=True)

        def _handler(signum, frame):  # noqa: ARG001 — signal signature
            server.stop()

        restore: list[tuple[int, object]] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                restore.append((sig, signal.signal(sig, _handler)))
            except ValueError:
                pass  # not the main thread (in-process tests)
        try:
            server.serve_forever()
        finally:
            for sig, old in restore:
                signal.signal(sig, old)
    return 0


def _cmd_chaos_proxy(args) -> int:
    """Run a :class:`~repro.chaos.ChaosProxy` until SIGINT/SIGTERM (or
    ``--duration``), then write the event log and exit 0."""
    import asyncio
    import dataclasses

    from repro.chaos import ChaosProxy, ChaosSchedule

    def _addr(text: str, flag: str) -> tuple[str, int]:
        host, sep, port_s = text.rpartition(":")
        if not sep or not port_s.isdigit() or int(port_s) > 65535:
            raise SystemExit(
                f"{flag} expects HOST:PORT (PORT in 0..65535), got {text!r}"
            )
        return host or "127.0.0.1", int(port_s)

    listen_host, listen_port = _addr(args.listen, "--listen")
    upstream_host, upstream_port = _addr(args.upstream, "--upstream")

    schedule = (ChaosSchedule.load(args.schedule) if args.schedule
                else ChaosSchedule())
    overrides = {}
    for flag, field_name in (
        ("seed", "seed"), ("latency", "latency_s"), ("jitter", "jitter_s"),
        ("bandwidth", "bandwidth_bps"), ("corrupt", "corrupt_fraction"),
        ("truncate", "truncate_fraction"), ("reset", "reset_fraction"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[field_name] = value
    if args.partition:
        windows = []
        for spec in args.partition:
            start_s, sep, end_s = spec.partition(":")
            try:
                start, end = float(start_s), float(end_s)
            except ValueError:
                sep = ""
            if not sep or end <= start or start < 0:
                raise SystemExit(
                    f"--partition expects START:END seconds with "
                    f"0 <= START < END, got {spec!r}"
                )
            windows.append((start, end))
        overrides["partitions"] = tuple(windows)
    if overrides:
        schedule = dataclasses.replace(schedule, **overrides)

    async def _run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        import contextlib
        import signal

        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, stop.set)
        async with ChaosProxy(
            upstream_host, upstream_port, schedule,
            host=listen_host, port=listen_port,
        ) as proxy:
            print(
                f"chaos proxy listening on {listen_host}:{proxy.port} "
                f"-> {upstream_host}:{upstream_port}",
                file=sys.stderr, flush=True,
            )
            if args.duration is not None:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(stop.wait(), args.duration)
            else:
                await stop.wait()
            if args.events:
                proxy.write_events(args.events)
            print(
                f"chaos proxy injected {proxy.faults_injected} faults "
                f"({dict(proxy.injected)})",
                file=sys.stderr, flush=True,
            )

    asyncio.run(_run())
    return 0


def _cmd_experiment(args) -> int:
    from repro.harness import run_experiment

    result = run_experiment(args.name, full=args.full or None)
    print(result.render())
    return 0 if result.all_shapes_hold else 2


def _cmd_info() -> int:
    import os

    import repro
    from repro.equilibration.backends import BACKEND_ENV, get_backend
    from repro.harness import EXPERIMENTS

    print(f"repro {repro.__version__} — splitting equilibration algorithm")
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    forced = os.environ.get(BACKEND_ENV, "").strip()
    name = get_backend().name
    print(f"kernel backend: {name}"
          + (f" ({BACKEND_ENV}={forced})" if forced else ""))
    if name != "cnative":
        try:
            get_backend("cnative")
        except RuntimeError as exc:  # names the recorded build failure
            print(exc)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "shard-serve":
        return _cmd_shard_serve(args)
    if args.command == "chaos-proxy":
        return _cmd_chaos_proxy(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    return _cmd_info()


if __name__ == "__main__":
    sys.exit(main())
