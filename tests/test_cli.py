"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.io import read_table_csv, write_table_csv


@pytest.fixture
def csv_problem(tmp_path, rng):
    x0 = rng.uniform(1.0, 20.0, (4, 4))
    s0 = x0.sum(axis=1) * 1.2
    d0 = x0.sum(axis=0)
    d0 *= s0.sum() / d0.sum()
    table = tmp_path / "x0.csv"
    write_table_csv(table, x0)
    rows = tmp_path / "s.csv"
    rows.write_text("\n".join(f"r{i},{v}" for i, v in enumerate(s0)) + "\n")
    cols = tmp_path / "d.csv"
    cols.write_text("\n".join(f"c{j},{v}" for j, v in enumerate(d0)) + "\n")
    return table, rows, cols, s0, d0


class TestSolve:
    def test_fixed_solve_writes_output(self, tmp_path, csv_problem, capsys):
        table, rows, cols, s0, d0 = csv_problem
        out = tmp_path / "solution.csv"
        code = main([
            "solve", "--kind", "fixed", "--table", str(table),
            "--row-totals", str(rows), "--col-totals", str(cols),
            "--weights", "chi-square", "--eps", "1e-6", "--out", str(out),
        ])
        assert code == 0
        x, _, _ = read_table_csv(out)
        np.testing.assert_allclose(x.sum(axis=0), d0, rtol=1e-4)
        assert "converged" in capsys.readouterr().out

    def test_elastic_solve(self, csv_problem, capsys):
        table, rows, cols, *_ = csv_problem
        code = main([
            "solve", "--kind", "elastic", "--table", str(table),
            "--row-totals", str(rows), "--col-totals", str(cols),
        ])
        assert code == 0

    def test_sam_solve_with_report(self, tmp_path, rng, capsys):
        x0 = rng.uniform(1.0, 20.0, (4, 4))
        table = tmp_path / "x0.csv"
        write_table_csv(table, x0)
        totals = tmp_path / "s.csv"
        s0 = 0.5 * (x0.sum(axis=1) + x0.sum(axis=0))
        totals.write_text("\n".join(f"a{i},{v}" for i, v in enumerate(s0)) + "\n")
        code = main([
            "solve", "--kind", "sam", "--table", str(table),
            "--row-totals", str(totals), "--report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SEA-sam" in out
        assert "work:" in out

    def test_missing_col_totals_fails(self, csv_problem):
        table, rows, *_ = csv_problem
        with pytest.raises(SystemExit):
            main(["solve", "--kind", "fixed", "--table", str(table),
                  "--row-totals", str(rows)])

    def test_wrong_total_count_fails(self, tmp_path, csv_problem):
        table, rows, cols, *_ = csv_problem
        bad = tmp_path / "bad.csv"
        bad.write_text("r0,1.0\n")
        with pytest.raises(SystemExit, match="row totals"):
            main(["solve", "--kind", "fixed", "--table", str(table),
                  "--row-totals", str(bad), "--col-totals", str(cols)])


class TestSolveJSON:
    def test_json_output(self, tmp_path, csv_problem, capsys):
        table, rows, cols, s0, d0 = csv_problem
        out = tmp_path / "solution.csv"
        code = main([
            "solve", "--kind", "fixed", "--table", str(table),
            "--row-totals", str(rows), "--col-totals", str(cols),
            "--eps", "1e-6", "--json", "--out", str(out),
        ])
        assert code == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["algorithm"] == "SEA-fixed"
        x = np.asarray(doc["x"])
        np.testing.assert_allclose(x.sum(axis=0), d0, rtol=1e-4)
        assert out.exists()  # --out still writes the CSV

    def test_nonconvergence_exit_code_and_json(self, csv_problem, capsys):
        table, rows, cols, *_ = csv_problem
        code = main([
            "solve", "--kind", "fixed", "--table", str(table),
            "--row-totals", str(rows), "--col-totals", str(cols),
            "--eps", "1e-12", "--max-iterations", "1", "--json",
        ])
        assert code == 2
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False
        assert doc["iterations"] == 1


@pytest.fixture
def jsonl_stream(tmp_path, rng):
    """A mixed request stream: fixed (x2 for batching), elastic, SAM."""
    import json

    from repro.io import problem_to_jsonable

    x0 = rng.uniform(1.0, 20.0, (4, 4))
    w = x0 * rng.uniform(0.8, 1.2, x0.shape)
    lines = []
    from repro.core.problems import (
        ElasticProblem,
        FixedTotalsProblem,
        SAMProblem,
    )

    for i, factor in enumerate((1.0, 1.02)):
        fixed = FixedTotalsProblem(
            x0=x0, gamma=1.0 / x0,
            s0=w.sum(axis=1) * factor, d0=w.sum(axis=0) * factor,
        )
        lines.append({"id": f"f{i}", "problem": problem_to_jsonable(fixed),
                      "eps": 1e-6})
    elastic = ElasticProblem(
        x0=x0, gamma=1.0 / x0, s0=x0.sum(axis=1), d0=x0.sum(axis=0),
        alpha=np.ones(4), beta=np.ones(4),
    )
    lines.append({"id": "e0", "problem": problem_to_jsonable(elastic)})
    sam = SAMProblem(
        x0=x0, gamma=1.0 / x0,
        s0=0.5 * (x0.sum(axis=1) + x0.sum(axis=0)), alpha=np.ones(4),
    )
    lines.append({"id": "s0", "problem": problem_to_jsonable(sam)})
    path = tmp_path / "requests.jsonl"
    path.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
    return path


class TestServe:
    def test_mixed_stream_end_to_end(self, tmp_path, jsonl_stream, capsys):
        import json

        out = tmp_path / "responses.jsonl"
        code = main([
            "serve", "--jsonl", "--input", str(jsonl_stream),
            "--output", str(out), "--stats",
        ])
        assert code == 0
        responses = [json.loads(line) for line in
                     out.read_text().splitlines() if line]
        assert [r["id"] for r in responses] == ["f0", "f1", "e0", "s0"]
        assert all(r["status"] == "ok" and r["converged"] for r in responses)
        assert {r["algorithm"] for r in responses} == {
            "SEA-fixed", "SEA-elastic", "SEA-sam",
        }
        # Same-shape fixed requests were fused into one batch.
        assert [r["batched"] for r in responses] == [True, True, False, False]
        stats = json.loads(capsys.readouterr().err)
        assert stats["completed"] == 4
        assert stats["batches"] == 1

    def test_stdout_stream(self, jsonl_stream, capsys):
        import json

        code = main(["serve", "--jsonl", "--input", str(jsonl_stream),
                     "--no-matrix"])
        assert code == 0
        responses = [json.loads(line) for line in
                     capsys.readouterr().out.splitlines() if line]
        assert len(responses) == 4
        assert all("x" not in r for r in responses)

    def test_nonconvergence_exit_code(self, tmp_path, rng):
        import json

        from repro.core.problems import FixedTotalsProblem
        from repro.io import problem_to_jsonable

        x0 = rng.uniform(1.0, 20.0, (4, 4))
        w = x0 * rng.uniform(0.5, 2.0, x0.shape)
        problem = FixedTotalsProblem(x0=x0, gamma=1.0 / x0,
                                     s0=w.sum(axis=1), d0=w.sum(axis=0))
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps({
            "id": "r0", "problem": problem_to_jsonable(problem),
            "eps": 1e-12, "max_iterations": 1,
        }) + "\n")
        assert main(["serve", "--jsonl", "--input", str(path)]) == 2

    def test_malformed_lines_keep_stream_alive(self, tmp_path, rng, capsys):
        """A garbage line answers with a structured invalid-request error
        in stream position; every well-formed neighbour still solves."""
        import json

        from repro.core.problems import FixedTotalsProblem
        from repro.io import problem_to_jsonable

        x0 = rng.uniform(1.0, 20.0, (4, 4))
        w = x0 * rng.uniform(0.8, 1.2, x0.shape)
        problem = FixedTotalsProblem(x0=x0, gamma=1.0 / x0,
                                     s0=w.sum(axis=1), d0=w.sum(axis=0))
        good = json.dumps({"id": "ok0",
                           "problem": problem_to_jsonable(problem)})
        path = tmp_path / "r.jsonl"
        path.write_text("\n".join([
            good.replace("ok0", "ok1"),
            "{this is not json",                       # undecodable
            json.dumps({"id": "nop", "nope": True}),   # no problem payload
            good.replace("ok0", "ok2"),
        ]) + "\n")
        code = main(["serve", "--jsonl", "--input", str(path), "--no-matrix"])
        assert code == 1  # errors occurred, but the stream was served
        responses = [json.loads(line) for line in
                     capsys.readouterr().out.splitlines() if line]
        assert [r.get("id") for r in responses] == ["ok1", None, "nop", "ok2"]
        bad_json, bad_payload = responses[1], responses[2]
        assert bad_json["status"] == "error"
        assert bad_json["error"]["kind"] == "invalid-request"
        assert bad_json["line"] == 2
        assert bad_payload["error"]["kind"] == "invalid-request"
        assert bad_payload["line"] == 3
        assert responses[0]["status"] == "ok"
        assert responses[3]["status"] == "ok"

    def test_thread_pool_answers_like_one_worker(self, jsonl_stream, capsys):
        """``--workers 2 --backend thread`` splits every phase into two
        row blocks and answers byte for byte as one worker does (bar the
        wall-clock ``elapsed``)."""
        import json

        answers = []
        for flags in (["--workers", "1"],
                      ["--workers", "2", "--backend", "thread"]):
            code = main(["serve", "--jsonl", "--input", str(jsonl_stream),
                         *flags])
            assert code == 0
            lines = [json.loads(line) for line in
                     capsys.readouterr().out.splitlines() if line]
            for line in lines:
                line.pop("elapsed")
            answers.append([json.dumps(line) for line in lines])
        assert len(answers[0]) == 4
        assert answers[0] == answers[1]

    def test_process_backend_is_rejected(self, jsonl_stream):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--jsonl", "--input", str(jsonl_stream),
                  "--workers", "2", "--backend", "process"])
        assert exc.value.code == 2

    def test_deadline_flag_classifies_overruns(self, jsonl_stream, capsys):
        import json

        code = main(["serve", "--jsonl", "--input", str(jsonl_stream),
                     "--no-matrix", "--deadline", "1e-9"])
        assert code == 1
        responses = [json.loads(line) for line in
                     capsys.readouterr().out.splitlines() if line]
        assert len(responses) == 4
        assert all(r["status"] == "error" for r in responses)
        assert {r["error"]["kind"] for r in responses} == {"deadline-exceeded"}


class TestOtherCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "table9" in out

    def test_experiment(self, capsys):
        assert main(["experiment", "table4"]) == 0
        assert "MIG5560a" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["experiment", "table42"])

    def test_totals_file_without_labels(self, tmp_path, rng, capsys):
        """One-column totals files (no labels) are accepted too."""
        x0 = rng.uniform(1.0, 20.0, (3, 3))
        table = tmp_path / "x0.csv"
        write_table_csv(table, x0)
        rows = tmp_path / "s.csv"
        rows.write_text("\n".join(str(v) for v in x0.sum(axis=1)) + "\n")
        cols = tmp_path / "d.csv"
        cols.write_text("\n".join(str(v) for v in x0.sum(axis=0)) + "\n")
        assert main(["solve", "--table", str(table),
                     "--row-totals", str(rows),
                     "--col-totals", str(cols)]) == 0

class TestServeFlagValidation:
    """Inconsistent serve flags fail fast with actionable messages
    instead of silently misbehaving at runtime."""

    def _serve_exits(self, argv, match):
        with pytest.raises(SystemExit, match=match):
            main(["serve", "--jsonl", *argv])

    def test_max_per_kind_requires_max_queue(self):
        self._serve_exits(["--max-per-kind", "4"], "requires --max-queue")

    def test_max_per_shard_requires_max_queue(self):
        self._serve_exits(["--cluster", "2", "--max-per-shard", "4"],
                          "requires --max-queue")

    def test_max_per_shard_requires_cluster(self):
        self._serve_exits(["--max-queue", "8", "--max-per-shard", "4"],
                          "only applies with --cluster")

    def test_negative_drain_deadline(self):
        self._serve_exits(["--drain-deadline", "-1"],
                          "--drain-deadline must be >= 0")

    def test_negative_snapshot_every(self, tmp_path):
        self._serve_exits(
            ["--snapshot", str(tmp_path / "snap"), "--snapshot-every", "-5"],
            "--snapshot-every must be >= 1",
        )

    def test_snapshot_every_requires_snapshot(self):
        self._serve_exits(["--snapshot-every", "10"], "requires --snapshot")

    def test_nonpositive_cluster(self):
        self._serve_exits(["--cluster", "0"], "--cluster must be >= 1")

    def test_nonpositive_max_queue(self):
        self._serve_exits(["--max-queue", "0"], "--max-queue must be >= 1")

    def test_recover_requires_journal(self):
        self._serve_exits(["--recover"], "requires --journal")


class TestServeCluster:
    def test_cluster_stream_end_to_end(self, tmp_path, jsonl_stream, capsys):
        """serve --cluster answers a mixed stream through the sharded
        tier: same ids, same order, per-shard journals on disk, nested
        cluster stats on stderr."""
        import json

        out = tmp_path / "responses.jsonl"
        journal_dir = tmp_path / "journals"
        code = main([
            "serve", "--jsonl", "--input", str(jsonl_stream),
            "--output", str(out), "--stats",
            "--cluster", "3", "--shard-backend", "inline",
            "--journal", str(journal_dir),
            "--no-batch", "--no-warm-start",
        ])
        assert code == 0
        responses = [json.loads(line) for line in
                     out.read_text().splitlines() if line]
        assert [r["id"] for r in responses] == ["f0", "f1", "e0", "s0"]
        assert all(r["status"] == "ok" and r["converged"] for r in responses)
        journals = sorted(p.name for p in journal_dir.glob("shard-*.journal"))
        assert journals, "no per-shard journals written"
        stats = json.loads(capsys.readouterr().err)
        assert stats["completed"] == 4
        assert set(stats["cluster"]["shards"]) == {
            "shard-0", "shard-1", "shard-2",
        }
        assert stats["cluster"]["router"]["shards"] == 3

    def test_cluster_recover_answers_journaled_backlog(
        self, tmp_path, jsonl_stream, capsys
    ):
        """A journal directory with unanswered requests is replayed by
        serve --cluster --recover before any new input — and answered
        exactly once even when the shard count changed."""
        import json

        from repro.cluster import ClusterService
        from repro.service.wire import read_requests

        journal_dir = tmp_path / "journals"
        with open(jsonl_stream) as fh:
            requests = list(read_requests(fh))
        svc = ClusterService(
            shards=2, shard_backend="inline", journal_dir=journal_dir,
            warm_start=False, batching=False,
        )
        ids = [svc.submit(r) for r in requests]
        svc.shutdown(deadline_s=0)  # queue stays journaled, unanswered

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main([
            "serve", "--jsonl", "--input", str(empty),
            "--cluster", "3", "--shard-backend", "inline", "--recover",
            "--journal", str(journal_dir),
            "--no-batch", "--no-warm-start",
        ])
        assert code == 0
        responses = [json.loads(line) for line in
                     capsys.readouterr().out.splitlines() if line]
        assert sorted(r["id"] for r in responses) == sorted(ids)
        assert all(r["status"] == "ok" for r in responses)
