"""Durability tests: journal, exactly-once recovery, admission, drain.

The headline guarantee of the durability layer is that process death
changes *availability*, never *answers*: killing the service at any
crash point (:data:`repro.service.CRASH_POINTS`) and recovering from
the journal loses no request, answers none twice, and reproduces every
matrix and dual bit-identically to an uninterrupted run.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import pickle
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import random_fixed_problem, random_sam_problem

from repro.core.api import fingerprint, solve, totals_vector
from repro.core.problems import (
    ElasticProblem,
    FixedTotalsProblem,
    GeneralProblem,
    SAMProblem,
)
from repro.errors import DuplicateRequestError, OverloadedError
from repro.io import problem_to_jsonable
from repro.service import (
    CRASH_POINTS,
    CrashPlan,
    SimulatedCrash,
    SolveService,
)
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.journal import (
    Journal,
    derive_request_id,
    replay,
    replay_full,
    response_from_record,
    response_to_record,
)
from repro.service.request import SolveRequest, SolveResponse

DATA = pathlib.Path(__file__).parent / "data"

# A sign-negative quiet NaN with a payload: JSON text writes it as
# ``NaN`` and reads back a positive NaN without the payload.
NEG_NAN = float(
    np.array([0xFFF8_0000_0000_BEEF], dtype=np.uint64).view(np.float64)[0]
)
SPECIALS = (NEG_NAN, -0.0, math.inf, -math.inf)
PROBLEM_ARRAYS = ("x0", "gamma", "s0", "d0", "alpha", "beta", "mask",
                  "G", "A", "B")
RESULT_ARRAYS = ("x", "s", "d", "lam", "mu")


def special_problem(kind, rng):
    """A small problem whose masked-out ``x0``/``gamma`` cells hold every
    special float.  ``kind`` is ``fixed``, ``sam``, ``elastic`` or
    ``general`` (an elastic model with full weights ``G``, ``A``, ``B``)."""
    m, n = (4, 4) if kind == "sam" else (4, 5)
    x0 = rng.uniform(1.0, 5.0, (m, n))
    gamma = 1.0 / x0
    mask = np.ones((m, n), dtype=bool)
    for i, (x, g) in enumerate(zip(SPECIALS, SPECIALS[::-1])):
        cell = (i, (i + 1) % n)
        mask[cell], x0[cell], gamma[cell] = False, x, g
    live = np.where(mask, x0, 0.0)
    s0, d0 = live.sum(axis=1), live.sum(axis=0)
    if kind == "fixed":
        return FixedTotalsProblem(x0=x0, gamma=gamma, s0=s0, d0=d0, mask=mask)
    if kind == "sam":
        return SAMProblem(x0=x0, gamma=gamma, s0=0.5 * (s0 + d0),
                          alpha=np.ones(n), mask=mask)
    if kind == "elastic":
        return ElasticProblem(x0=x0, gamma=gamma, s0=s0, d0=d0,
                              alpha=np.ones(m), beta=np.ones(n), mask=mask)

    def spd(k):
        return np.eye(k) + np.full((k, k), 0.1)

    return GeneralProblem(kind="elastic", x0=x0, G=spd(m * n), s0=s0, d0=d0,
                          A=spd(m), B=spd(n), mask=mask)


def assert_same_bytes(got, want, keys) -> None:
    """Every named array ``want`` has (or holds as ``None``) equal
    bit for bit."""
    for key in keys:
        a, b = getattr(got, key, None), getattr(want, key, None)
        assert (a is None) == (b is None), key
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, key
            assert a.tobytes() == b.tobytes(), key


def float_bytes(value) -> bytes:
    return np.float64(value).tobytes()


def infeasible_fixed() -> FixedTotalsProblem:
    """Positive row total with every cell of that row masked out."""
    mask = np.ones((3, 3), dtype=bool)
    mask[0] = False
    mask[1, 0] = True
    return FixedTotalsProblem(
        x0=np.ones((3, 3)),
        gamma=np.ones((3, 3)),
        s0=np.array([5.0, 3.0, 3.0]),
        d0=np.array([4.0, 3.5, 3.5]),
        mask=mask,
    )


def durable_service(journal_path, backend="serial", workers=1, **kw):
    """A journaled service configured for deterministic replay.

    Warm starts and batching are disabled: both change the dual
    trajectory with the *history* of the service, and the bit-identity
    contract is per-request."""
    kw.setdefault("warm_start", False)
    kw.setdefault("batching", False)
    return SolveService(journal=journal_path, backend=backend,
                        workers=workers, **kw)


class TestJournal:
    def test_round_trip_is_bit_identical(self, tmp_path, rng):
        path = tmp_path / "j.jsonl"
        problem = random_fixed_problem(rng, 4, 3)
        result = solve(problem)
        req = SolveRequest(problem=problem, id="r0")
        req._order = 0
        resp = SolveResponse(id="r0", result=result, kind="fixed",
                             elapsed=result.elapsed, submitted_at=0)
        with Journal(path) as j:
            j.append_request(req)
            j.append_response(resp)
        unanswered, recorded = replay(path)
        assert unanswered == []
        got = recorded["r0"].result
        np.testing.assert_array_equal(got.x, result.x)
        np.testing.assert_array_equal(got.s, result.s)
        np.testing.assert_array_equal(got.d, result.d)
        np.testing.assert_array_equal(got.mu, result.mu)
        np.testing.assert_array_equal(got.lam, result.lam)
        assert got.residual == result.residual
        assert got.objective == result.objective

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["fixed", "sam", "elastic", "general"])
    def test_packed_records_are_bit_exact(self, tmp_path, rng, kind):
        """Every array of a journaled request and its response comes
        back bit for bit: a sign-negative NaN with a payload, ``-0.0``
        and ``±inf`` in masked-out input cells and in the answer's
        ``x``, duals and objective included."""
        path = tmp_path / "j.jsonl"
        problem = special_problem(kind, rng)
        result = solve(problem)
        result.x[0, :4] = SPECIALS
        result.lam[:2] = (NEG_NAN, -0.0)
        result.mu[:2] = (-math.inf, NEG_NAN)
        result.objective = NEG_NAN
        req = SolveRequest(problem=problem, id="r0")
        req._order = 0
        with Journal(path) as j:
            j.append_request(req)
            j.append_response(SolveResponse(id="r0", result=result, kind=kind))
        requests, responses = replay_full(path)
        assert_same_bytes(requests["r0"].problem, problem, PROBLEM_ARRAYS)
        got = responses["r0"].result
        assert_same_bytes(got, result, RESULT_ARRAYS)
        assert float_bytes(got.objective) == float_bytes(NEG_NAN)
        assert float_bytes(got.residual) == float_bytes(result.residual)
        # The lines hold packed arrays, not decimal text.
        request_line, response_line = map(
            json.loads, path.read_text().splitlines())
        for packed in (request_line["request"]["problem"]["x0"],
                       response_line["response"]["result"]["x"]):
            assert sorted(packed) == ["b64", "dtype", "shape"]
            assert packed["dtype"] == "<f8"

    def test_record_pair_is_near_raw_size(self, tmp_path, rng):
        """Base64 costs 4/3 of the raw bytes; decimal text of random
        doubles costs about 2.5x."""
        path = tmp_path / "j.jsonl"
        problem = FixedTotalsProblem(
            x0=rng.random((60, 60)), gamma=rng.random((60, 60)) + 0.5,
            s0=np.full(60, 30.0), d0=np.full(60, 30.0),
        )
        result = solve(problem)
        with Journal(path) as j:
            j.append_request(SolveRequest(problem=problem, id="r0"))
            j.append_response(SolveResponse(id="r0", result=result))
        raw = sum(getattr(problem, k).nbytes for k in ("x0", "gamma", "s0", "d0"))
        raw += sum(getattr(result, k).nbytes for k in RESULT_ARRAYS) + 16
        assert path.stat().st_size <= 1.4 * raw + 1024

    def test_nested_list_journal_still_replays(self, tmp_path):
        """A journal written before arrays were packed replays, and
        recovers, to the values its nested lists hold.

        ``tests/data/nested-lists.journal`` was written by the code of
        commit 10ce0c9, run as ``PYTHONPATH=<that checkout>/src python
        gen.py`` with this ``gen.py``::

            import numpy as np
            from repro import ElasticProblem, FixedTotalsProblem, SAMProblem, solve
            from repro.service.journal import Journal
            from repro.service.request import SolveRequest, SolveResponse

            rng = np.random.default_rng(19)
            x0 = rng.uniform(1.0, 5.0, (4, 5))
            mask = np.ones((4, 5), dtype=bool)
            mask[2, 1] = False
            x0[2, 1], gamma = -np.nan, 1.0 / x0
            gamma[2, 1] = np.inf
            live = np.where(mask, x0, 0.0)
            sq = rng.uniform(1.0, 5.0, (3, 3))
            problems = [
                FixedTotalsProblem(x0=x0, gamma=gamma, s0=1.1 * live.sum(1),
                                   d0=1.1 * live.sum(0), mask=mask),
                SAMProblem(x0=sq, gamma=1.0 / sq, s0=sq.sum(1), alpha=np.ones(3)),
                ElasticProblem(x0=sq[:2], gamma=np.ones((2, 3)), s0=[4.0, 6.0],
                               d0=[3.0, 3.0, 3.0], alpha=np.ones(2), beta=np.ones(3)),
            ]
            with Journal("nested-lists.journal") as journal:
                for i, problem in enumerate(problems):
                    request = SolveRequest(problem=problem, id=f"r{i}")
                    request._order = i
                    journal.append_request(request)
                for i in (0, 1):
                    journal.append_response(SolveResponse(
                        id=f"r{i}", result=solve(problems[i]),
                        kind=["fixed", "sam"][i], submitted_at=i))

        Requests ``r0`` (fixed, ``NaN``/``Infinity`` in a masked-out
        cell, objective ``NaN``) and ``r1`` (SAM) are answered; ``r2``
        (elastic) is pending.
        """
        path = tmp_path / "legacy.journal"
        shutil.copy(DATA / "nested-lists.journal", path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        lists = {(r["type"], r["id"]): r[r["type"]] for r in records}

        def listed(value, dtype=np.float64):
            return np.array(value, dtype=dtype).tobytes()

        requests, responses = replay_full(path)
        assert sorted(requests) == ["r0", "r1", "r2"]
        for rid, request in requests.items():
            payload = lists["request", rid]["problem"]
            for key in PROBLEM_ARRAYS:
                if payload.get(key) is not None:
                    dtype = bool if key == "mask" else np.float64
                    assert getattr(request.problem, key).tobytes() == \
                        listed(payload[key], dtype), (rid, key)

        def check_answers(recorded):
            assert sorted(recorded) == ["r0", "r1"]
            for rid, response in recorded.items():
                payload = lists["response", rid]["result"]
                for key in (*RESULT_ARRAYS, "residual", "objective"):
                    assert listed(getattr(response.result, key)) == \
                        listed(payload[key]), (rid, key)

        check_answers(responses)
        assert math.isnan(responses["r0"].result.objective)
        with SolveService.recover(path, backend="serial", workers=1) as svc:
            assert svc.journal.pending_ids() == ["r2"]
            check_answers(svc.recovered)
            (answer,) = svc.drain()
            assert answer.id == "r2" and answer.ok
        # The packed response appended after the nested-list records
        # replays beside them.
        unanswered, recorded = replay(path)
        assert unanswered == [] and sorted(recorded) == ["r0", "r1", "r2"]

    def test_unanswered_keep_submission_order(self, tmp_path, rng):
        path = tmp_path / "j.jsonl"
        with Journal(path) as j:
            for i in range(3):
                req = SolveRequest(problem=random_fixed_problem(rng, 3, 3),
                                   id=f"r{i}")
                req._order = i
                j.append_request(req)
            j.append_response(SolveResponse(id="r1", error="x",
                                            error_kind="internal"))
        unanswered, recorded = replay(path)
        assert [r.id for r in unanswered] == ["r0", "r2"]
        assert [r._order for r in unanswered] == [0, 2]
        assert set(recorded) == {"r1"}

    def test_torn_tail_is_truncated_on_open(self, tmp_path, rng):
        path = tmp_path / "j.jsonl"
        with Journal(path) as j:
            req = SolveRequest(problem=random_fixed_problem(rng, 3, 3),
                               id="r0")
            j.append_request(req)
        good_size = path.stat().st_size
        with path.open("a") as fh:
            fh.write('{"type":"response","id":"r0","resp')  # crash mid-write
        j2 = Journal(path)
        try:
            assert path.stat().st_size == good_size  # tail gone
            assert not j2.answered("r0")
            assert j2.pending_ids() == ["r0"]
            # the truncated journal is append-consistent again
            j2.append_response(SolveResponse(id="r0", error="x",
                                             error_kind="internal"))
        finally:
            j2.close()
        assert replay(path)[0] == []

    def test_torn_tail_with_batched_fsync_writer_death(self, tmp_path, rng):
        """``fsync=N`` (N>1) widens the window: a writer SIGKILLed
        mid-record leaves flushed-but-unsynced whole lines *and* a torn
        half-line.  Reopening must keep every whole record (they
        survived mere process death — the flush reached the kernel)
        and truncate exactly the torn tail, then stay append-ready."""
        path = tmp_path / "j.jsonl"
        j = Journal(path, fsync=3)
        for i in range(5):  # 5 records: the last two are unsynced
            req = SolveRequest(problem=random_fixed_problem(rng, 3, 3),
                               id=f"r{i}")
            req._order = i
            j.append_request(req)
        assert j._unsynced == 2
        # The writer dies mid-record: no close(), half a line on disk.
        with path.open("a") as fh:
            fh.write('{"type":"request","id":"r5","seq":5,"requ')
        del j  # simulate SIGKILL: the file handle is never flushed again
        j2 = Journal(path, fsync=3)
        try:
            assert j2.lines == 5
            assert j2.pending_ids() == [f"r{i}" for i in range(5)]
            assert "r5" not in j2
            req = SolveRequest(problem=random_fixed_problem(rng, 3, 3),
                               id="r5")
            req._order = 5
            j2.append_request(req)
            assert j2.lines == 6
        finally:
            j2.close()
        unanswered, _ = replay(path)
        assert [r.id for r in unanswered] == [f"r{i}" for i in range(6)]

    def test_duplicate_id_refused(self, tmp_path, rng):
        path = tmp_path / "j.jsonl"
        req = SolveRequest(problem=random_fixed_problem(rng, 3, 3), id="r0")
        with Journal(path) as j:
            j.append_request(req)
            with pytest.raises(DuplicateRequestError, match="pending"):
                j.append_request(req)
        # ... and across a reopen: the index is rebuilt from disk
        with Journal(path) as j2:
            assert "r0" in j2
            with pytest.raises(DuplicateRequestError):
                j2.append_request(req)

    def test_fsync_interval_validation(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            Journal(tmp_path / "j.jsonl", fsync=-1)

    def test_fsync_every_n_records(self, tmp_path, rng, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd))[1])
        path = tmp_path / "j.jsonl"
        j = Journal(path, fsync=2)
        try:
            for i in range(4):
                req = SolveRequest(problem=random_fixed_problem(rng, 3, 3),
                                   id=f"r{i}")
                j.append_request(req)
            assert len(synced) == 2  # records 2 and 4
        finally:
            j.close()

    def test_derived_ids_stable_and_distinct(self, rng):
        problem = random_fixed_problem(rng, 3, 3)
        req = SolveRequest(problem=problem)
        assert derive_request_id(req, 0) == derive_request_id(req, 0)
        # identical payloads stay distinct via the journal-global seq
        assert derive_request_id(req, 0) != derive_request_id(req, 1)
        # ... which is what keeps ids unique across a restart
        other = SolveRequest(problem=random_fixed_problem(rng, 3, 3))
        assert derive_request_id(req, 5) != derive_request_id(other, 5)

    def test_derived_ids_hash_content_not_layout(self, rng):
        """C-ordered, Fortran-ordered and strided arrays of one problem
        give one id: the digest covers the arrays' logical bytes."""
        base = random_fixed_problem(rng, 4, 5)

        def with_layout(layout):
            def re(a):
                if layout == "fortran":
                    return np.asfortranarray(a)
                big = np.zeros((2 * a.shape[0], 2 * a.shape[1]), a.dtype)
                big[::2, ::2] = a
                return big[::2, ::2]

            return FixedTotalsProblem(
                x0=re(base.x0), gamma=re(base.gamma), s0=base.s0,
                d0=base.d0, mask=re(base.mask))

        fortran, strided = with_layout("fortran"), with_layout("strided")
        assert not fortran.x0.flags.c_contiguous
        assert not strided.x0.flags.c_contiguous
        assert not strided.x0.flags.f_contiguous
        ids = {derive_request_id(SolveRequest(problem=p), 3)
               for p in (base, fortran, strided)}
        assert len(ids) == 1

    def test_derived_ids_see_every_cell_and_shape(self, rng):
        """One ``x0`` cell, one mask cell, ``eps``, or the shape alone
        (the same bytes in every array, transposed dimensions) changes
        the id."""
        base = random_fixed_problem(rng, 4, 5)
        cell = base.x0.copy()
        cell[1, 2] = np.nextafter(cell[1, 2], np.inf)
        masked = np.ones((4, 5), dtype=bool)
        masked[3, 0] = False

        def fixed(**kw):
            fields = dict(x0=base.x0, gamma=base.gamma, s0=base.s0,
                          d0=base.d0)
            return FixedTotalsProblem(**{**fields, **kw})

        def elastic(m, n):
            ones = np.ones
            return ElasticProblem(
                x0=np.arange(m * n, dtype=float).reshape(m, n),
                gamma=ones((m, n)), s0=ones(m), d0=ones(n), alpha=ones(m),
                beta=ones(n))

        def rid(problem, **kw):
            return derive_request_id(SolveRequest(problem=problem, **kw), 0)

        variants = [rid(fixed()), rid(fixed(x0=cell)), rid(fixed(mask=masked)),
                    rid(fixed(), eps=1e-7)]
        assert len(set(variants)) == len(variants)
        # 2x3 and 3x2 elastic problems of ones around the same x0 bytes:
        # every array byte matches in order, only the shapes differ.
        wide, tall = elastic(2, 3), elastic(3, 2)
        fields = ("x0", "s0", "gamma", "d0", "alpha", "beta")
        assert b"".join(getattr(wide, k).tobytes() for k in fields) == \
            b"".join(getattr(tall, k).tobytes() for k in fields)
        assert rid(wide) != rid(tall)

    def test_nonfinite_floats_survive_the_record(self):
        resp = SolveResponse(id="r0", error="boom", error_kind="internal",
                             elapsed=float("inf"), submitted_at=3)
        rec = response_from_record(
            json.loads(json.dumps(response_to_record(resp)))
        )
        assert math.isinf(rec.elapsed)
        assert rec.error_kind == "internal" and rec.submitted_at == 3


class TestJournalAppendLine:
    """The router-side replica of a shipped remote WAL is a plain
    :class:`Journal` fed through ``append_line`` — same file format,
    same torn-tail and fsync discipline, byte-for-byte appends, and one
    record predicate for what it accepts and what a reopen keeps."""

    def _line(self, rng, rid, seq=0, answered=False):
        req = SolveRequest(problem=random_fixed_problem(rng, 3, 3), id=rid)
        req._order = seq
        if answered:
            from repro.service.journal import response_to_record
            return json.dumps({"type": "response", "id": rid,
                               "response": response_to_record(
                                   SolveResponse(id=rid, error="x",
                                                 error_kind="internal"))},
                              separators=(",", ":"))
        from repro.service.wire import request_to_jsonable
        return json.dumps({"type": "request", "id": rid, "seq": seq,
                           "request": request_to_jsonable(req)},
                          separators=(",", ":"))

    def test_append_line_is_byte_for_byte_and_indexed(self, tmp_path, rng):
        path = tmp_path / "replica.journal"
        lines = [self._line(rng, "r0"), self._line(rng, "r0", answered=True)]
        with Journal(path, fsync=1) as rep:
            for line in lines:
                rep.append_line(line)
            assert rep.lines == 2 and rep.request_records == 1
            assert "r0" in rep and rep.answered("r0")
        assert path.read_text() == "".join(line + "\n" for line in lines)
        # The replica replays exactly like a journal (same format).
        unanswered, recorded = replay(path)
        assert unanswered == [] and set(recorded) == {"r0"}

    def test_corrupt_ship_is_rejected_before_the_write(self, tmp_path, rng):
        path = tmp_path / "replica.journal"
        with Journal(path) as rep:
            rep.append_line(self._line(rng, "r0"))
            for bad in ('{"type":"request","id"', '"not-a-record"', "[1,2]",
                        '{"no":"type"}'):
                with pytest.raises(ValueError):
                    rep.append_line(bad)
            assert rep.lines == 1
        # Nothing but the good line reached the disk.
        assert path.read_text().count("\n") == 1

    def test_torn_tail_truncated_under_batched_fsync(self, tmp_path, rng):
        """The replica writer dying mid-append under ``fsync=N`` must
        reopen append-consistent at the last whole record — the
        ``lines`` cursor is the reconnect ``have`` the router sends, so
        an overcount would make catch-up skip shipped records."""
        path = tmp_path / "replica.journal"
        rep = Journal(path, fsync=4)
        for i in range(3):
            rep.append_line(self._line(rng, f"r{i}", seq=i))
        with path.open("a") as fh:
            fh.write('{"type":"response","id":"r2","resp')  # torn mid-ship
        del rep  # writer dies; never closed
        rep2 = Journal(path, fsync=4)
        try:
            assert rep2.lines == 3
            assert not rep2.answered("r2")
            # Catch-up resumes exactly at the cursor.
            rep2.append_line(self._line(rng, "r2", answered=True))
            assert rep2.lines == 4 and rep2.answered("r2")
        finally:
            rep2.close()

    def test_multiline_record_is_rejected(self, tmp_path, rng):
        """Valid JSON spread over two lines is one record in memory but
        two on disk — the reopen would drop it and shrink the ``have``
        cursor under the router.  Shipped lines are whole lines only."""
        path = tmp_path / "replica.journal"
        with Journal(path) as rep:
            rep.append_line(self._line(rng, "r0"))
            good = self._line(rng, "r1", seq=1)
            for bad in (good.replace(",", ",\n", 1),
                        good.replace(",", ",\r", 1)):
                json.loads(bad)  # valid JSON, still not one line
                with pytest.raises(ValueError):
                    rep.append_line(bad)
            assert rep.lines == 1
        with Journal(path) as reopened:
            assert reopened.lines == 1

    def test_non_string_id_is_never_written(self, tmp_path, rng):
        """The scan drops a record without a string id and everything
        after it, so the journal refuses to write one."""
        path = tmp_path / "j.journal"
        with Journal(path) as j:
            j.append_request(
                SolveRequest(problem=random_fixed_problem(rng, 3, 3), id="r0"))
            with pytest.raises(ValueError, match="string id"):
                j.append_request(
                    SolveRequest(problem=random_fixed_problem(rng, 3, 3), id=7))
            assert j.lines == 1 and 7 not in j
        with Journal(path) as reopened:
            assert reopened.lines == 1

    def test_read_tail_returns_shipped_lines_whole(self, tmp_path, rng):
        """Catch-up reads the file split exactly as the scan splits it,
        so a shipped record whose text holds another line break (a raw
        U+2028 inside a string) is re-shipped as the one line it is."""
        path = tmp_path / "replica.journal"
        answer = self._line(rng, "r0", answered=True)
        assert '"error":"x"' in answer
        lines = [self._line(rng, "r0"),
                 answer.replace('"error":"x"', '"error":"x\u2028y"')]
        with Journal(path) as rep:
            for line in lines:
                rep.append_line(line)
            assert rep.read_tail(0) == lines
            assert rep.read_tail(1) == lines[1:]

    def test_undecodable_bytes_end_the_scan(self, tmp_path, rng):
        """A line of invalid UTF-8 is a torn tail like any other: the
        open truncates it and replay stops before it, never raising."""
        path = tmp_path / "j.journal"
        with Journal(path) as j:
            j.append_request(
                SolveRequest(problem=random_fixed_problem(rng, 3, 3), id="r0"))
        good_size = path.stat().st_size
        with path.open("ab") as fh:
            fh.write(b'{"type":"request","id":"\xff\xfe"}\n')
        unanswered, recorded = replay(path)
        assert [r.id for r in unanswered] == ["r0"] and recorded == {}
        with Journal(path) as reopened:
            assert reopened.lines == 1 and reopened.pending_ids() == ["r0"]
        assert path.stat().st_size == good_size

    def test_record_without_payload_ends_the_scan(self, tmp_path, rng):
        """A request record must carry its request object, a response
        record its response object; one that does not is not a record,
        for the scan and for a shipped line alike."""
        path = tmp_path / "j.journal"
        with Journal(path) as j:
            j.append_request(
                SolveRequest(problem=random_fixed_problem(rng, 3, 3), id="r0"))
        good_size = path.stat().st_size
        with path.open("a") as fh:
            fh.write('{"type":"request","id":"x"}\n')
        unanswered, recorded = replay(path)
        assert [r.id for r in unanswered] == ["r0"] and recorded == {}
        with Journal(path) as reopened:
            assert reopened.lines == 1
            for bad in ('{"type":"request","id":"x"}',
                        '{"type":"response","id":"r0","response":[]}',
                        '{"type":"request","id":7,"request":{}}'):
                with pytest.raises(ValueError):
                    reopened.append_line(bad)
            assert reopened.lines == 1
        assert path.stat().st_size == good_size


class TestAdmission:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="policy"):
            AdmissionConfig(policy="drop-everything")
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ValueError, match="max_per_kind"):
            AdmissionConfig(max_per_kind=0)
        assert not AdmissionConfig().bounded
        assert AdmissionConfig(max_queue=4).bounded

    def test_kind_limit_fires_before_queue_limit(self):
        ctl = AdmissionController(
            AdmissionConfig(max_queue=10, max_per_kind=2,
                            policy="shed-oldest")
        )
        assert ctl.decide("fixed", 2, 2) == ("shed", "kind")
        assert ctl.decide("fixed", 10, 1) == ("shed", "queue")
        assert ctl.decide("fixed", 2, 1) == ("accept", None)

    def test_reject_newest_raises_overloaded(self, rng):
        with SolveService(max_queue=2, admission_policy="reject-newest",
                          warm_start=False) as svc:
            svc.submit(random_fixed_problem(rng, 3, 3))
            svc.submit(random_fixed_problem(rng, 3, 3))
            with pytest.raises(OverloadedError, match="reject-newest"):
                svc.submit(random_fixed_problem(rng, 3, 3))
            assert svc.pending == 2  # queue untouched
            responses = svc.drain()
        assert all(r.ok for r in responses)
        stats = svc.stats()
        assert stats.overload_rejections == 1
        assert stats.requests == 2  # the rejected one was never accepted

    def test_shed_oldest_answers_the_victim(self, rng):
        with SolveService(max_queue=2, admission_policy="shed-oldest",
                          warm_start=False) as svc:
            svc.submit(random_fixed_problem(rng, 3, 3))  # req-0: the victim
            svc.submit(random_fixed_problem(rng, 3, 3))
            svc.submit(random_fixed_problem(rng, 3, 3))  # sheds req-0
            assert svc.pending == 2
            drained = svc.drain()
            shed = svc.collect()
        assert [r.id for r in shed] == ["req-0"]
        assert shed[0].error_kind == "overloaded"
        assert all(r.ok for r in drained)
        assert svc.stats().overload_sheds == 1

    def test_block_applies_backpressure(self, rng):
        with SolveService(max_queue=2, admission_policy="block",
                          warm_start=False) as svc:
            svc.submit(random_fixed_problem(rng, 3, 3))
            svc.submit(random_fixed_problem(rng, 3, 3))
            svc.submit(random_fixed_problem(rng, 3, 3))  # drains inline
            assert svc.pending == 1  # room was made, nothing lost
            early = svc.collect()
            late = svc.drain()
        assert len(early) == 2 and all(r.ok for r in early)
        assert len(late) == 1 and late[0].ok
        assert svc.stats().admission_blocks == 1
        assert svc.stats().overload_sheds == 0

    def test_per_kind_fair_share(self, rng):
        with SolveService(max_per_kind=1, admission_policy="reject-newest",
                          warm_start=False) as svc:
            svc.submit(random_fixed_problem(rng, 3, 3))
            with pytest.raises(OverloadedError, match="kind"):
                svc.submit(random_fixed_problem(rng, 4, 4))
            # another kind still has its share of the queue
            svc.submit(random_sam_problem(rng, 3))
            responses = svc.drain()
        assert len(responses) == 2

    def test_shed_victim_is_not_replayed(self, tmp_path, rng):
        """A shed is an answer: recovery must not re-solve the victim."""
        path = tmp_path / "j.jsonl"
        with durable_service(path, max_queue=1,
                             admission_policy="shed-oldest") as svc:
            svc.submit(SolveRequest(problem=random_fixed_problem(rng, 3, 3),
                                    id="old"))
            svc.submit(SolveRequest(problem=random_fixed_problem(rng, 3, 3),
                                    id="new"))  # sheds "old"
        # crash here: only the journal survives
        unanswered, recorded = replay(path)
        assert [r.id for r in unanswered] == ["new"]
        assert recorded["old"].error_kind == "overloaded"

    def test_draining_service_rejects_submissions(self, rng):
        svc = SolveService(warm_start=False)
        svc.submit(random_fixed_problem(rng, 3, 3))
        drained = svc.shutdown()
        assert len(drained) == 1 and drained[0].ok
        with pytest.raises(OverloadedError, match="draining"):
            svc.submit(random_fixed_problem(rng, 3, 3))
        assert svc.stats().drained_on_shutdown == 1


class TestCompletedBuffer:
    def test_eviction_under_cap(self, rng):
        with SolveService(completed_buffer=2, warm_start=False) as svc:
            for _ in range(4):
                svc.submit(random_fixed_problem(rng, 3, 3))
            # solve() drains everything; the other 4 responses must fit
            # a 2-slot buffer
            mine = svc.solve(random_fixed_problem(rng, 3, 3))
            kept = svc.collect()
        assert mine.ok
        assert len(kept) == 2
        assert svc.stats().completed_evictions == 2
        # the *newest* undelivered responses are the ones kept
        assert [r.id for r in kept] == ["req-2", "req-3"]


class TestSnapshot:
    def test_warm_state_round_trip(self, tmp_path, rng):
        snap = tmp_path / "warm.pkl"
        problem = random_fixed_problem(rng, 6, 5)
        with SolveService(snapshot_path=snap) as svc:
            cold = svc.solve(problem)
        assert cold.ok and not cold.warm_started
        assert snap.exists()
        assert svc.stats().snapshots_written == 1
        with SolveService(snapshot_path=snap) as svc2:
            warm = svc2.solve(problem)
        assert warm.warm_started and warm.cache_exact
        # a warm start changes the dual trajectory, so agreement is to
        # solver tolerance, not bitwise
        np.testing.assert_allclose(warm.result.x, cold.result.x, rtol=1e-3)

    def test_breaker_state_survives_restart(self, tmp_path):
        snap = tmp_path / "warm.pkl"
        with SolveService(snapshot_path=snap, breaker_threshold=1,
                          breaker_cooldown=50, warm_start=False) as svc:
            assert svc.solve(infeasible_fixed()).error_kind == "infeasible"
        with SolveService(snapshot_path=snap, breaker_threshold=1,
                          breaker_cooldown=50, warm_start=False) as svc2:
            resp = svc2.solve(infeasible_fixed())
        # the restarted service remembers the open breaker
        assert resp.error_kind == "circuit-open"

    def test_unknown_version_is_ignored(self, tmp_path, rng):
        snap = tmp_path / "warm.pkl"
        for payload in (
            pickle.dumps({"version": 999, "cache": [], "breakers": []}),
            b"\x80\x05\x95garbage",  # a torn sidecar: truncated pickle
        ):
            snap.write_bytes(payload)
            with SolveService(snapshot_path=snap) as svc:
                assert not svc.restore_snapshot()
                resp = svc.solve(random_fixed_problem(rng, 3, 3))
            assert resp.ok and not resp.warm_started

    def test_sidecar_holds_duals_not_permutations(self, tmp_path, rng):
        """A cache entry keeps O(m + n) floats: one solved 60x60 problem
        leaves a sidecar below one float per cell (two m x n int64 sort
        orders would take 16 bytes per cell)."""
        snap = tmp_path / "warm.pkl"
        m = n = 60
        with SolveService(snapshot_path=snap) as svc:
            assert svc.solve(random_fixed_problem(rng, m, n)).ok
        assert len(svc.cache) == 1
        assert snap.stat().st_size < 8 * m * n

    def test_sidecar_with_permutations_still_restores(self, tmp_path, rng):
        """A sidecar whose cache entries also carry ``"perms"`` (the sort
        orders older services stored next to the duals) restores, and
        its duals serve an exact hit."""
        problem = random_fixed_problem(rng, 6, 5)
        with SolveService() as svc:
            solved = svc.solve(problem)
            state = svc.cache.state()
        assert solved.ok and len(state) == 1
        m, n = problem.shape
        for entry in state:
            entry["perms"] = (
                np.tile(np.arange(n, dtype=np.intp), (m, 1)),
                np.tile(np.arange(m, dtype=np.intp), (n, 1)),
            )
        snap = tmp_path / "old.pkl"
        snap.write_bytes(pickle.dumps(
            {"version": 1, "cache": state, "breakers": []}
        ))
        with SolveService() as svc2:
            assert svc2.restore_snapshot(snap)
            mu, exact = svc2.cache.lookup(
                fingerprint(problem), totals_vector(problem)
            )
            warm = svc2.solve(problem)
        assert exact
        assert mu.tobytes() == solved.result.mu.tobytes()
        assert warm.ok and warm.warm_started and warm.cache_exact

    def test_periodic_snapshots(self, tmp_path, rng):
        snap = tmp_path / "warm.pkl"
        with SolveService(snapshot_path=snap, snapshot_every=2) as svc:
            svc.solve(random_fixed_problem(rng, 3, 3))
            assert not snap.exists()  # below the interval
            svc.solve(random_fixed_problem(rng, 3, 3))
            assert snap.exists()  # written mid-flight, before close()
        assert svc.stats().snapshots_written == 2  # interval + close


class TestCrashRecovery:
    """The chaos matrix: kill at every crash point, recover, and prove
    exactly-once delivery with bit-identical answers."""

    N = 5

    def _traffic(self, seed=7):
        rng = np.random.default_rng(seed)
        return [random_fixed_problem(rng, 4, 4) for _ in range(self.N)]

    def _crash_run(self, journal, point, after, backend="serial", workers=1):
        """Run journaled traffic until the injected process death; the
        journal file is all that survives."""
        problems = self._traffic()
        svc = durable_service(journal, backend=backend, workers=workers)
        svc.crash_plan = CrashPlan(point, after=after)
        try:
            for i, p in enumerate(problems):
                svc.submit(SolveRequest(problem=p, id=f"r{i}"))
            if point == "kill-mid-drain":
                svc.shutdown()
            else:
                svc.drain()
        except SimulatedCrash:
            pass
        else:  # pragma: no cover — the plan must fire for a chaos run
            raise AssertionError(f"crash point {point} never fired")
        # abandon the service object like SIGKILL would abandon the
        # process; only release the worker pool so the test run stays
        # clean (a real kill reaps it with the process)
        svc.kernel.close()
        return problems

    def _assert_exactly_once(self, journal, problems, backend="serial",
                             workers=1):
        baselines = {f"r{i}": solve(p) for i, p in enumerate(problems)}
        svc = SolveService.recover(journal, warm_start=False, batching=False,
                                   backend=backend, workers=workers)
        with svc:
            replayed = {r.id: r for r in svc.drain()}
        recorded = svc.recovered
        journaled = set(recorded) | set(replayed)
        # no request lost: everything that was accepted gets answered
        assert journaled == {
            rid for rid in baselines if rid in svc.journal
        }
        # none answered twice: recovery re-solves only unanswered ids
        assert not (set(recorded) & set(replayed))
        stats = svc.stats()
        assert stats.journal_replayed == len(replayed)
        assert stats.journal_recovered == len(recorded)
        # bit-identical answers, whether recorded or replayed
        for rid in journaled:
            resp = recorded.get(rid) or replayed[rid]
            if resp.error_kind == "overloaded":  # shed, never solved
                continue
            base = baselines[rid]
            assert resp.ok, f"{rid}: {resp.error}"
            np.testing.assert_array_equal(resp.result.x, base.x)
            np.testing.assert_array_equal(resp.result.s, base.s)
            np.testing.assert_array_equal(resp.result.d, base.d)
            np.testing.assert_array_equal(resp.result.mu, base.mu)
        # the journal now shows nothing pending
        assert svc.journal.pending_ids() == []
        return recorded, replayed

    @pytest.mark.parametrize("point", CRASH_POINTS)
    @pytest.mark.parametrize("after", [0, 2])
    def test_kill_and_restart_serial(self, tmp_path, point, after):
        journal = tmp_path / "j.jsonl"
        problems = self._crash_run(journal, point, after)
        recorded, replayed = self._assert_exactly_once(journal, problems)
        if point == "kill-after-journal":
            # death before any solve: the whole accepted prefix replays
            assert recorded == {} and len(replayed) == after + 1
        elif point == "kill-before-response":
            # the first `after` responses were journaled; the rest —
            # including the solved-but-unjournaled one — replay
            assert len(recorded) == after
            assert len(replayed) == self.N - after
        else:  # kill-mid-drain
            assert len(recorded) == after
            assert len(replayed) == self.N - after

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_kill_and_restart_thread(self, tmp_path, point):
        journal = tmp_path / "j.jsonl"
        problems = self._crash_run(journal, point, 1, backend="thread",
                                   workers=2)
        self._assert_exactly_once(journal, problems, backend="thread",
                                  workers=2)

    def test_double_crash_then_recover(self, tmp_path):
        """Crash, recover, crash during the replay, recover again."""
        journal = tmp_path / "j.jsonl"
        problems = self._crash_run(journal, "kill-before-response", 1)
        svc = SolveService.recover(journal, warm_start=False, batching=False)
        svc.crash_plan = CrashPlan("kill-before-response", after=1)
        with pytest.raises(SimulatedCrash):
            svc.drain()
        svc.kernel.close()
        self._assert_exactly_once(journal, problems)


class TestWarmRestart:
    def test_journaled_warm_restart_beats_cold(self, tmp_path):
        """A restarted service with a snapshot starts from the stored
        duals: fewer sweeps and iterations than the same traffic on a
        cold restart.  The snapshot holds no sort permutations; the
        reuse rate is above 0 because later solves sweep on the pair
        the first one bound."""
        rng = np.random.default_rng(42)
        base = random_fixed_problem(rng, 12, 10)

        def perturbed(k):
            # same structure (= same fingerprint bucket), nearby totals
            scale = 1.0 + 0.004 * (k + 1)
            return FixedTotalsProblem(
                x0=base.x0, gamma=base.gamma, s0=base.s0 * scale,
                d0=base.d0 * scale, mask=base.mask,
            )

        snap = tmp_path / "warm.pkl"
        with SolveService(journal=tmp_path / "j1.jsonl", snapshot_path=snap,
                          batching=False) as svc:
            for k in range(4):
                assert svc.solve(perturbed(k)).ok

        follow_up = [perturbed(k) for k in range(4, 8)]

        with SolveService(journal=tmp_path / "j2.jsonl", snapshot_path=snap,
                          batching=False) as warm_svc:
            warm_first = warm_svc.solve(follow_up[0])
            for p in follow_up[1:]:
                assert warm_svc.solve(p).ok
        warm_stats = warm_svc.stats()

        with SolveService(journal=tmp_path / "j3.jsonl",
                          batching=False) as cold_svc:
            for p in follow_up:
                assert cold_svc.solve(p).ok
        cold_stats = cold_svc.stats()

        # the very first post-restart solve is already warm
        assert warm_first.warm_started
        assert warm_stats.sort_reuse_rate > 0.0
        assert warm_stats.total_iterations < cold_stats.total_iterations
        assert warm_stats.sort_sweeps < cold_stats.sort_sweeps


def _request_lines(n, seed=3, ids=True):
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n):
        problem = random_fixed_problem(rng, 4, 3)
        obj = {"problem": problem_to_jsonable(problem)}
        if ids:
            obj["id"] = f"r{i}"
        lines.append(json.dumps(obj))
    return lines


def _env():
    import pathlib

    import repro
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _serve(extra, tmp_path, stdin=subprocess.PIPE):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--jsonl", *extra],
        stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_env(), text=True, cwd=tmp_path,
    )


def _wait_for_journal(path, records, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and len(path.read_text().splitlines()) >= records:
            return
        time.sleep(0.05)
    raise AssertionError(f"journal never reached {records} records")


class TestServeDurabilityCLI:
    """End-to-end ``python -m repro serve`` durability (subprocess)."""

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        proc = _serve(["--journal", str(journal), "--drain-deadline", "30"],
                      tmp_path)
        lines = _request_lines(2)
        proc.stdin.write("\n".join(lines) + "\n")
        proc.stdin.flush()
        # the requests are queued (window 32) once they hit the journal
        _wait_for_journal(journal, 2)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        responses = [json.loads(line) for line in out.splitlines()]
        assert {r["id"] for r in responses} == {"r0", "r1"}
        assert all(r["status"] == "ok" for r in responses)
        # the graceful drain journaled its answers too
        assert replay(journal)[0] == []

    def test_sigkill_then_recover_replays_exactly_once(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        proc = _serve(["--journal", str(journal), "--fsync", "1"], tmp_path)
        lines = _request_lines(3)
        proc.stdin.write("\n".join(lines) + "\n")
        proc.stdin.flush()
        _wait_for_journal(journal, 3)
        proc.kill()  # SIGKILL: no drain, no journal sync, nothing
        proc.wait(timeout=30)

        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--jsonl",
             "--journal", str(journal), "--recover",
             "--input", os.devnull],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env=_env(),
        )
        assert done.returncode == 0, done.stderr
        responses = [json.loads(line) for line in done.stdout.splitlines()]
        assert {r["id"] for r in responses} == {"r0", "r1", "r2"}
        assert all(r["status"] == "ok" for r in responses)
        # a second recovery finds nothing pending: exactly once
        again = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--jsonl",
             "--journal", str(journal), "--recover",
             "--input", os.devnull],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env=_env(),
        )
        assert again.returncode == 0 and again.stdout == ""

    def test_recover_requires_journal(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="--recover"):
            main(["serve", "--jsonl", "--recover",
                  "--input", os.devnull])

    def test_overload_answers_in_stream(self, tmp_path):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text("\n".join(_request_lines(3)) + "\n")
        out = tmp_path / "out.jsonl"
        from repro.cli import main
        code = main(["serve", "--jsonl", "--input", str(reqs),
                     "--output", str(out), "--max-queue", "1",
                     "--admission", "reject-newest", "--window", "100"])
        assert code == 1  # overload errors surface in the exit code
        responses = [json.loads(line) for line in
                     out.read_text().splitlines()]
        by_status = {}
        for r in responses:
            by_status.setdefault(r["status"], []).append(r)
        # r1 was rejected (and the rejection flushed r0, making room
        # for r2): two answered, one structured overload error
        assert len(by_status["ok"]) == 2
        assert len(by_status["error"]) == 1
        assert by_status["error"][0]["error"]["kind"] == "overloaded"

    def test_duplicate_id_answers_in_stream(self, tmp_path):
        lines = _request_lines(2)
        dup = json.loads(lines[1])
        dup["id"] = "r0"  # collides with the first request
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(lines[0] + "\n" + json.dumps(dup) + "\n")
        out = tmp_path / "out.jsonl"
        from repro.cli import main
        code = main(["serve", "--jsonl", "--input", str(reqs),
                     "--output", str(out),
                     "--journal", str(tmp_path / "j.jsonl")])
        assert code == 1
        responses = [json.loads(line) for line in
                     out.read_text().splitlines()]
        kinds = [r.get("error", {}).get("kind") for r in responses]
        assert kinds.count("duplicate-request") == 1
