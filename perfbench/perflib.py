"""Measurement helpers shared by the perfbench workloads.

Medians and tail percentiles, an in-memory span tracer, setup-time
probes of freshly launched processes, and peak-memory readings.  Nothing here imports
the program under test; workloads call :func:`use_program` first.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Environment knobs that would move the program off its defaults (numpy
# kernel backend, incremental sweeps on); the benchmark measures the
# defaults, so they never reach the program.
_PROGRAM_KNOBS = ("REPRO_KERNEL_BACKEND", "REPRO_INCREMENTAL")

# A tail percentile is reported only with at least this many samples
# beyond it.
TAIL_MIN_BEYOND = 10


@dataclass
class Outcome:
    """One workload run: operations attempted and failed verification,
    metric values by name (end-to-end untraced, per-layer traced), and
    human-readable report lines."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def setup_median(probe, runs: int) -> tuple[float, list[float]]:
    """Median of ``runs`` calls of ``probe()`` (seconds each)."""
    samples = [probe() for _ in range(runs)]
    return median(samples), samples


def program_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's sources, with the
    program's defaults, and keep temporary files inside the checkout."""
    for knob in _PROGRAM_KNOBS:
        os.environ.pop(knob, None)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for a child process running the program."""
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_KNOBS}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail(values, q: float) -> tuple[float, float, int]:
    """``(q, value, beyond)`` for percentile ``q``.  Each workload fixes
    its ``q`` so that its sample always has ``TAIL_MIN_BEYOND`` values
    beyond it (a tail whose percentile moved with throughput would jump
    between runs); a smaller sample (tiny self-test runs) falls back to
    the median rather than claim more than it supports."""
    beyond = int(len(values) * (1.0 - q / 100.0))
    if beyond >= TAIL_MIN_BEYOND:
        return q, percentile(values, q), beyond
    return 50.0, median(values), len(values) // 2


def per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


# -- tracing --------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: ``(id, parent, name, start, end)``.

    Parents are tracked per thread, so spans opened on an asyncio loop
    thread and on a service thread nest independently.  ``enabled``
    false makes :meth:`span` a pass-through.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def load_spans(path) -> list[tuple[int, int, str, float, float]]:
    return [tuple(s) for s in json.loads(Path(path).read_text())]


def window(spans, t0: float, t1: float):
    """Spans that started inside ``[t0, t1)``."""
    return [s for s in spans if t0 <= s[3] < t1]


def total(spans, name: str) -> float:
    return sum(s[4] - s[3] for s in spans if s[2] == name)


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s[2] == name)


def self_time(spans, name: str) -> float:
    """Duration of ``name`` spans minus the time their children cover."""
    ids = {s[0] for s in spans if s[2] == name}
    child = sum(s[4] - s[3] for s in spans if s[1] in ids)
    return total(spans, name) - child


def covered(spans, t0: float = float("-inf"), t1: float = float("inf")):
    """Time within ``[t0, t1]`` covered by at least one top-level span,
    whichever thread opened it."""
    intervals = sorted(
        (max(s[3], t0), min(s[4], t1)) for s in spans if s[1] == 0
    )
    total_covered, reach = 0.0, t0
    for start, end in intervals:
        if end <= reach:
            continue
        total_covered += end - max(start, reach)
        reach = end
    return total_covered


# -- processes and memory -------------------------------------------------------


class ChildProcess:
    """A launched program process whose stderr is read line by line on a
    thread, each line stamped with ``time.perf_counter()`` on arrival."""

    def __init__(self, argv) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=program_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.lines: list[tuple[float, str]] = []
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stderr:
            with self._cond:
                self.lines.append((time.perf_counter(), line.rstrip("\n")))
                self._cond.notify_all()
        with self._cond:
            self._cond.notify_all()

    def wait_line(self, marker: str, timeout: float) -> tuple[float, str]:
        """``(arrival, line)`` of the first stderr line containing
        ``marker``; raises ``RuntimeError`` when the process exits or the
        timeout passes first."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                for stamp, line in self.lines:
                    if marker in line:
                        return stamp, line
                if self.proc.poll() is not None and not self._reader.is_alive():
                    break
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self._cond.wait(min(left, 0.05))
        tail_lines = "\n".join(line for _, line in self.lines[-20:])
        raise RuntimeError(
            f"program did not report {marker!r} (exit {self.proc.poll()}):\n"
            f"{tail_lines}"
        )

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, wait for exit (SIGKILL past the timeout) and return
        the exit code; stderr is fully read afterwards."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(timeout=timeout)
        self._reader.join(timeout=timeout)
        return code

    def stderr_text(self) -> str:
        return "\n".join(line for _, line in self.lines)


def probe_setup(argv, marker: str, timeout: float = 120.0) -> float:
    """Seconds from launching ``argv`` to its ``marker`` stderr line; the
    probe process is stopped before returning."""
    child = ChildProcess(argv)
    try:
        stamp, _ = child.wait_line(marker, timeout)
    finally:
        child.stop()
    return stamp - child.started


def _proc_children(pid: int) -> list[int]:
    out = []
    with contextlib.suppress(OSError):  # the process may have exited
        for task in Path(f"/proc/{pid}/task").iterdir():
            out.extend(int(c) for c in (task / "children").read_text().split())
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets (VmHWM) of ``pid`` and its
    descendants, read while they run."""
    peak_kb = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        with contextlib.suppress(OSError):
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak_kb += int(line.split()[1])
            stack.extend(_proc_children(p))
    return peak_kb / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
