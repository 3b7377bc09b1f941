"""Setup probe: time-to-ready of a fresh interpreter running the program.

``python perfbench/probe.py solve-large`` imports the library;
``python perfbench/probe.py revise-journaled JOURNAL`` also builds a
journaled solve service.  Either prints ``perfbench ready`` on stderr
when the first operation could start, then exits.  The caller times
launch to that line.  Run with ``PYTHONPATH`` pointing at ``src``.
"""

import sys


def main(argv) -> int:
    import repro  # noqa: F401 — the import is the setup being timed

    if argv[0] == "revise-journaled":
        from repro.service import SolveService

        service = SolveService(journal=argv[1])
        print("perfbench ready", file=sys.stderr, flush=True)
        service.close()
        service.journal.close()
        return 0
    print("perfbench ready", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
