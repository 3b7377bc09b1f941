"""Traced edge server for the edge-cluster workload's per-layer run.

    python perfbench/edge_launcher.py SPANS.json serve --tcp ... --cluster 2

Wraps the wire codec as the edge calls it (``decode_request_line``,
``dump_response``) and the cluster router's ``submit`` / ``drain`` /
``collect`` in spans, then runs the ``repro`` CLI with the remaining
arguments.  The spans are written to ``SPANS.json`` when the CLI
returns (after its SIGTERM drain).  Run with ``PYTHONPATH`` pointing at
``src``; shard children fork after the wrapping and never call the
wrapped entry points.
"""

import sys

from perflib import Tracer


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    import repro.edge.server as edge_server
    from repro.cli import main as cli_main
    from repro.cluster import ClusterService

    edge_server.decode_request_line = tracer.wrap(
        "wire.decode", edge_server.decode_request_line)
    edge_server.dump_response = tracer.wrap(
        "wire.encode", edge_server.dump_response)
    for name in ("submit", "drain", "collect"):
        setattr(ClusterService, name,
                tracer.wrap(f"cluster.{name}", getattr(ClusterService, name)))
    try:
        return cli_main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
