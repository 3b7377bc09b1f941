"""Wire codec round-trips: strict JSON, non-finite payloads, framing.

The headline regression here: a non-converged solve whose residual (or
matrix entries) went NaN must still serialize as *strict* JSON —
``json.dumps(..., allow_nan=True)``'s bare ``NaN``/``Infinity`` tokens
are not JSON and break spec-compliant clients.  The wire encodes every
non-finite float as ``null`` plus a ``nonfinite`` sidecar, and
:func:`response_from_jsonable` restores the exact values, so the
round-trip is lossless.

Framing is shared: :func:`decode_request_line` is the single decoder
behind both the stdin JSONL session (``read_requests``) and the TCP
edge, so the two wires accept and reject identical frames — the parity
tests here pin that down.
"""

import io
import json

import numpy as np
import pytest

from conftest import random_fixed_problem
from repro.core.result import SolveResult
from repro.errors import DuplicateRequestError, InvalidRequestError
from repro.service import SolveService
from repro.service.journal import request_to_record
from repro.service.request import SolveRequest, SolveResponse
from repro.service.wire import (
    RequestError,
    decode_request_line,
    dump_response,
    error_line,
    read_requests,
    request_from_jsonable,
    request_to_jsonable,
    response_from_jsonable,
    response_to_jsonable,
)


def _strict_loads(text: str):
    """json.loads that rejects bare NaN/Infinity tokens (the default
    parser accepts them silently, which is exactly how the original bug
    escaped)."""
    return json.loads(
        text,
        parse_constant=lambda tok: pytest.fail(
            f"non-strict JSON token {tok!r} on the wire"
        ),
    )


def _ok_response(result: SolveResult, rid="r1") -> SolveResponse:
    return SolveResponse(id=rid, result=result, kind="fixed", elapsed=0.01)


def _result(x, s, d, residual=1e-9, objective=2.5, converged=True):
    x = np.asarray(x, dtype=np.float64)
    return SolveResult(
        x=x, s=np.asarray(s, float), d=np.asarray(d, float),
        lam=np.zeros(x.shape[0]), mu=np.zeros(x.shape[1]),
        converged=converged, iterations=7, residual=residual,
        objective=objective, elapsed=0.01, algorithm="sea-fixed",
    )


class TestStrictJSON:
    def test_nan_residual_is_strict_json(self):
        """The headline bugfix: a NaN residual/objective must not emit a
        bare ``NaN`` token."""
        resp = _ok_response(_result(
            [[1.0, 2.0]], [3.0], [1.0, 2.0],
            residual=float("nan"), objective=float("inf"), converged=False,
        ))
        line = dump_response(resp)
        obj = _strict_loads(line)
        assert obj["residual"] is None
        assert obj["objective"] is None
        assert obj["nonfinite"] == {"residual": "nan", "objective": "inf"}

    def test_nan_matrix_entries_are_strict_json(self):
        x = np.array([[1.0, np.nan], [np.inf, -np.inf]])
        resp = _ok_response(_result(x, [np.nan, 2.0], [1.0, np.nan],
                                    converged=False))
        obj = _strict_loads(dump_response(resp))
        assert obj["x"][0][1] is None and obj["x"][1][0] is None
        assert sorted(obj["nonfinite"]["x"]) == [
            [0, 1, "nan"], [1, 0, "inf"], [1, 1, "-inf"],
        ]
        assert obj["nonfinite"]["s"] == [[0, "nan"]]
        assert obj["nonfinite"]["d"] == [[1, "nan"]]

    def test_all_finite_has_no_sidecar(self):
        resp = _ok_response(_result([[1.0, 2.0]], [3.0], [1.0, 2.0]))
        obj = _strict_loads(dump_response(resp))
        assert "nonfinite" not in obj

    def test_error_line_is_strict(self):
        err = RequestError(3, "line 3: invalid JSON", id="r9")
        obj = _strict_loads(error_line(err))
        assert obj["id"] == "r9" and obj["line"] == 3
        assert obj["error"]["kind"] == "invalid-request"

    def test_service_nonconverged_nan_end_to_end(self, rng):
        """A real service response that fails to converge still dumps
        strict JSON (regression for the original report)."""
        problem = random_fixed_problem(rng, 4, 4)
        with SolveService(batching=False) as svc:
            svc.submit(problem, max_iterations=1, eps=1e-300)
            (resp,) = svc.drain()
        assert resp.ok
        _strict_loads(dump_response(resp))


class TestLosslessRoundTrip:
    def test_exact_nonfinite_restoration(self):
        x = np.array([[1.5, np.nan, 3.0], [np.inf, 5.0, -np.inf]])
        s = np.array([np.nan, 2.0])
        d = np.array([1.0, np.inf, -np.inf])
        resp = _ok_response(_result(x, s, d, residual=float("-inf"),
                                    converged=False))
        back = response_from_jsonable(_strict_loads(dump_response(resp)))
        assert back.ok and back.id == "r1" and back.kind == "fixed"
        np.testing.assert_array_equal(back.result.x, x)
        np.testing.assert_array_equal(back.result.s, s)
        np.testing.assert_array_equal(back.result.d, d)
        assert np.isneginf(back.result.residual)
        assert back.result.objective == 2.5

    @pytest.mark.parametrize("seed", range(10))
    def test_random_nonfinite_placements(self, seed):
        """Property-style: any pattern of nan/inf/-inf anywhere in
        x/s/d survives the wire bit-for-bit."""
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 6, size=2)
        specials = np.array([np.nan, np.inf, -np.inf])
        def salt(a):
            flat = a.ravel()
            k = rng.integers(0, flat.size + 1)
            pos = rng.choice(flat.size, size=k, replace=False)
            flat[pos] = rng.choice(specials, size=k)
            return a
        x = salt(rng.normal(size=(m, n)))
        s = salt(rng.normal(size=m))
        d = salt(rng.normal(size=n))
        resp = _ok_response(_result(x, s, d,
                                    residual=float(rng.choice(specials)),
                                    converged=False))
        back = response_from_jsonable(_strict_loads(dump_response(resp)))
        np.testing.assert_array_equal(back.result.x, x)
        np.testing.assert_array_equal(back.result.s, s)
        np.testing.assert_array_equal(back.result.d, d)
        np.testing.assert_equal(back.result.residual, resp.result.residual)

    def test_error_response_round_trip(self):
        resp = SolveResponse(id="e1", error="queue full",
                             error_kind="overloaded", kind="fixed", retries=2)
        back = response_from_jsonable(_strict_loads(dump_response(resp)))
        assert not back.ok
        assert back.id == "e1" and back.error_kind == "overloaded"
        assert back.error == "queue full" and back.retries == 2

    def test_suppressed_matrix_decodes_none(self):
        resp = _ok_response(_result([[1.0]], [1.0], [1.0]))
        back = response_from_jsonable(
            _strict_loads(dump_response(resp, include_matrix=False))
        )
        assert back.ok and back.result.x is None and back.result.s is None

    def test_request_round_trip(self, rng):
        req = SolveRequest(problem=random_fixed_problem(rng, 3, 4),
                           id="q1", eps=1e-5, deadline_s=2.0, engine="dense")
        back = request_from_jsonable(
            json.loads(json.dumps(request_to_jsonable(req)))
        )
        assert back.id == "q1" and back.eps == 1e-5
        assert back.deadline_s == 2.0
        np.testing.assert_allclose(back.problem.x0, req.problem.x0)


class TestIdCoercion:
    def _req_obj(self, rng, rid):
        return {"id": rid,
                "problem": request_to_jsonable(
                    SolveRequest(problem=random_fixed_problem(rng, 3, 3))
                )["problem"]}

    @pytest.mark.parametrize("rid,expect", [
        (7, "7"), (3.5, "3.5"), (-2, "-2"), ("r1", "r1"), (None, None),
    ])
    def test_numeric_ids_coerce_to_str(self, rng, rid, expect):
        req = request_from_jsonable(self._req_obj(rng, rid))
        assert req.id == expect

    @pytest.mark.parametrize("rid", [True, [1], {"a": 1}])
    def test_non_stringable_ids_rejected(self, rng, rid):
        with pytest.raises(InvalidRequestError, match="id must be a string"):
            request_from_jsonable(self._req_obj(rng, rid))

    def test_rejected_id_surfaces_as_request_error(self, rng):
        line = json.dumps(self._req_obj(rng, [1, 2]))
        decoded = decode_request_line(line, 4)
        assert isinstance(decoded, RequestError)
        assert decoded.lineno == 4 and decoded.id is None

    def test_numeric_id_echoed_in_error(self, rng):
        obj = self._req_obj(rng, 12)
        obj["problem"] = {"kind": "nope"}
        decoded = decode_request_line(json.dumps(obj), 2)
        assert isinstance(decoded, RequestError)
        assert decoded.id == "12"

    def test_coerced_id_dedups_against_journal(self, rng, tmp_path):
        """The replay interaction that motivated coercion: an id
        journaled as ``"7"`` must dedup a resubmission of ``7`` (and
        vice versa) after recovery — one stable JSON type end to end."""
        journal = tmp_path / "svc.journal"
        problem = random_fixed_problem(rng, 3, 3)
        line = json.dumps({"id": 7,
                           "problem": request_to_jsonable(
                               SolveRequest(problem=problem))["problem"]})
        with SolveService(journal=journal) as svc:
            req = decode_request_line(line, 1)
            assert isinstance(req, SolveRequest) and req.id == "7"
            svc.submit(req)
            (resp,) = svc.drain()
            assert resp.id == "7"
        # Every journalled id is a string — replay never sees an int.
        recorded = [json.loads(l) for l in
                    journal.read_text().strip().splitlines()]
        assert all(isinstance(r.get("id"), str)
                   for r in recorded if "id" in r)
        with SolveService.recover(journal) as svc:
            for rid in (7, "7"):
                with pytest.raises(DuplicateRequestError):
                    svc.submit(decode_request_line(
                        json.dumps({"id": rid,
                                    "problem": request_to_jsonable(
                                        SolveRequest(problem=problem)
                                    )["problem"]}), 1))


class TestFramingParity:
    """decode_request_line is the one decoder behind both wires."""

    def _frames(self, rng):
        good = json.dumps(request_to_jsonable(
            SolveRequest(problem=random_fixed_problem(rng, 3, 3), id="g")))
        packed = json.dumps(request_to_record(
            SolveRequest(problem=random_fixed_problem(rng, 3, 3), id="p")))
        return [
            ("", None),
            ("   ", None),
            (good, SolveRequest),
            ("{not json", RequestError),
            ("[1,2,3]", RequestError),
            ('{"id":"x"}', RequestError),          # missing problem
            ('{"id":"x","problem":{"kind":"??"}}', RequestError),
            ('"just a string"', RequestError),
            ("[" * 100_000, RequestError),         # nested past the parser
            (packed, RequestError),                # internal records only
        ]

    def test_classification(self, rng):
        for line, expect in self._frames(rng):
            decoded = decode_request_line(line, 1)
            if expect is None:
                assert decoded is None, line
            else:
                assert isinstance(decoded, expect), (line, decoded)

    def test_read_requests_matches_line_decoder(self, rng):
        frames = self._frames(rng)
        stream = io.StringIO("\n".join(line for line, _ in frames) + "\n")
        got = list(read_requests(stream))
        # read_requests drops the blanks, keeps everything else in order.
        expected = [e for _, e in frames if e is not None]
        assert [type(g) for g in got] == [
            SolveRequest if e is SolveRequest else RequestError
            for e in expected
        ]
        # Line numbers count wire lines (blanks included), so the error
        # a client correlates by line is the physical line it wrote.
        errors = [g for g in got if isinstance(g, RequestError)]
        assert errors[0].lineno == 4

    def test_oversized_line_decodes_but_edge_rejects(self, rng):
        """The stdin session has no line cap (the OS pipe does);
        the edge enforces max_line_bytes *before* decoding.  Both
        still agree on every frame small enough to decode."""
        big = json.dumps(request_to_jsonable(SolveRequest(
            problem=random_fixed_problem(rng, 20, 20), id="big")))
        decoded = decode_request_line(big, 1)
        assert isinstance(decoded, SolveRequest)

    def test_mid_stream_error_does_not_kill_stream(self, rng):
        frames = self._frames(rng)
        stream = io.StringIO(
            "\n".join([frames[2][0], "{broken", frames[2][0]]) + "\n")
        got = list(read_requests(stream))
        assert [isinstance(g, SolveRequest) for g in got] == [
            True, False, True]
