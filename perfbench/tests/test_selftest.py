"""Self-test of the benchmark, at tiny sizes.

    python -m pytest perfbench/tests -q

Every workload, traced and untraced, must print every metric
``BENCHMARK.json`` declares for that mode, with its unit, and verify
every operation; a corrupted result must be counted as failed, never
passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import edge_cluster  # noqa: E402
import perflib  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((perflib.ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "0.5", "--trace", str(trace)],
                        tiny=True)
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_prints_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_corrupted_solve_is_counted(monkeypatch):
    import repro

    solve = repro.solve

    def corrupted(problem, **kwargs):
        result = solve(problem, **kwargs)
        result.x = result.x * 1.01
        return result

    monkeypatch.setattr(repro, "solve", corrupted)
    result = _bench("solve-large", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_recovery_mismatch_is_counted(monkeypatch):
    import numpy as np
    from repro.service import journal

    decode = journal.response_from_record

    def one_ulp_off(record):
        response = decode(record)
        x = response.result.x
        x[0, 0] = np.nextafter(x[0, 0], np.inf)
        return response

    monkeypatch.setattr(journal, "response_from_record", one_ulp_off)
    result = _bench("revise-journaled", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def _answer(line: bytes) -> dict:
    from repro.service import SolveService
    from repro.service.wire import decode_request_line, dump_response

    request = decode_request_line(line.decode(), 1)
    with SolveService() as service:
        return json.loads(dump_response(service.solve(request)))


def test_edge_verifier_rejects_corrupted_answers():
    perflib.use_program()
    reqs = edge_cluster.Requests(seed=5, n=4)
    i, line = reqs.take()
    good = _answer(line)
    assert reqs.verified(i, json.dumps(good).encode())
    assert not reqs.verified(i, b"not json")
    bad_rows = dict(good, x=[[v * 1.01 for v in row] for row in good["x"]])
    wrong_id = dict(good, id="q999")
    failed = dict(good, status="error")
    for obj in (bad_rows, wrong_id, failed):
        assert not reqs.verified(i, json.dumps(obj).encode())


def test_edge_wrong_answers_are_counted(monkeypatch):
    take = edge_cluster.Requests.take

    def expect_other_totals(self):
        i, line = take(self)
        self.s0[i] = self.s0[i] * 1.5  # the server's answer no longer fits
        return i, line

    monkeypatch.setattr(edge_cluster.Requests, "take", expect_other_totals)
    result = _bench("edge-cluster", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
