"""End-to-end CLI behavior: outputs, file formats, exit-status contract."""

from __future__ import annotations

import argparse
import json
import time

import pytest

from simplexcode import cli, format_point
from simplexcode.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_ternary(self, tmp_path, capsys):
        out = tmp_path / "c22.json"
        code, stdout, _ = run(
            capsys, "construct", "--alphabet", "3", "--e", "2", "--variant", "2",
            "--out", str(out),
        )
        assert code == 0
        assert "3 codewords" in stdout
        obj = json.loads(out.read_text())
        assert obj == {
            "n": 2, "ell": 7, "e": 2,
            "codewords": [[5, 0, 2], [2, 5, 0], [0, 2, 5]],
        }

    def test_binary(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "construct", "--alphabet", "2", "--ell", "8", "--e", "1",
            "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["codewords"] == [[7, 1], [4, 4], [1, 7]]

    def test_precondition_violation_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "construct", "--alphabet", "2", "--ell", "2", "--e", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "ell must be >= 2e+1" in stderr

    def test_binary_needs_ell(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "construct", "--alphabet", "2", "--e", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "--ell is required" in stderr

    def test_oversized_code_exits_3_at_once(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        start = time.process_time()
        code, stdout, stderr = run(
            capsys, "construct", "--alphabet", "2", "--ell", "1000000000", "--e", "1",
            "--out", str(out),
        )
        assert time.process_time() - start < 1.0
        assert (code, stdout) == (3, "")
        assert "333333334 codewords, over the budget" in stderr
        assert not out.exists()

    def test_benchmark_sized_code_builds(self, tmp_path, capsys):
        out = tmp_path / "b100k.json"
        code, stdout, _ = run(
            capsys, "construct", "--alphabet", "2", "--ell", "100000", "--e", "7",
            "--out", str(out),
        )
        assert code == 0
        assert "6667 codewords" in stdout
        assert len(json.loads(out.read_text())["codewords"]) == 6667

    def test_ternary_checks_ell_consistency(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "construct", "--alphabet", "3", "--ell", "8", "--e", "2",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "3e+1" in stderr


class TestVerify:
    def test_perfect_code_exits_0(self, tmp_path, capsys):
        out = tmp_path / "c21.json"
        run(capsys, "construct", "--alphabet", "3", "--e", "2", "--variant", "1",
            "--out", str(out))
        code, stdout, _ = run(capsys, "verify", "--code", str(out), "--e", "2")
        assert code == 0
        assert "perfect" in stdout

    def test_broken_cover_exits_1_with_certificate(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "n": 2, "ell": 7, "e": 2,
            "codewords": [[5, 0, 2], [2, 5, 0]],  # third codeword removed
        }))
        code, stdout, _ = run(capsys, "verify", "--code", str(path), "--e", "2")
        assert code == 1
        assert "uncovered" in stdout
        assert "[" in stdout  # names the witness point

    def test_duplicate_codeword_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "n": 2, "ell": 7, "e": 2,
            "codewords": [[5, 0, 2], [5, 0, 2]],
        }))
        code, _, stderr = run(capsys, "verify", "--code", str(path), "--e", "2")
        assert code == 2
        assert "duplicate" in stderr

    def test_non_integer_n_exits_2(self, tmp_path, capsys):
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"n": "2", "ell": 7, "e": 2, "codewords": [[5, 0, 2]]}))
        code, stdout, stderr = run(capsys, "verify", "--code", str(path), "--e", "2")
        assert code == 2
        assert stdout == ""
        assert stderr == "error: n must be an integer, got '2'\n"

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{oops")
        code, _, stderr = run(capsys, "verify", "--code", str(path), "--e", "2")
        assert code == 2
        assert "invalid JSON" in stderr

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "verify", "--code", str(tmp_path / "nope.json"), "--e", "2")
        assert code == 2

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        # Deeper than the JSON decoder's recursion limit.
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        code, stdout, stderr = run(capsys, "verify", "--code", str(path), "--e", "2")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: invalid JSON in code file")
        assert "Traceback" not in stderr

    def test_oversized_radius_exits_3_before_any_walk(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ball was walked")

        path = tmp_path / "two.json"
        big = 10**9
        path.write_text(json.dumps(
            {"n": 2, "ell": big, "e": 1, "codewords": [[big, 0, 0], [0, 0, big]]}))
        with monkeypatch.context() as patched:
            patched.setattr("simplexcode.codes.ball_runs", refuse)
            code, stdout, stderr = run(capsys, "verify", "--code", str(path), "--e", "10000")
        assert (code, stdout) == (3, "")
        assert "800080002 point ids, over the budget" in stderr
        code, stdout, stderr = run(capsys, "verify", "--code", str(path), "--e", "1")
        assert (code, stderr) == (1, "")
        assert stdout == "not perfect: point [999999998,2,0] is uncovered\n"

    def test_binary_code_at_any_radius(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        big = 10**9
        path.write_text(json.dumps({"n": 1, "ell": big, "e": 1, "codewords": [[big, 0], [0, big]]}))
        for e, witness in [("1", "point [999999998,2] is uncovered"),
                           ("100000000", "point [899999999,100000001] is uncovered"),
                           (str(10**30), f"point [{big},0] is covered by both [{big},0] and [0,{big}]")]:
            code, stdout, stderr = run(capsys, "verify", "--code", str(path), "--e", e)
            assert (code, stdout, stderr) == (1, f"not perfect: {witness}\n", "")

    @pytest.mark.parametrize("drop_first", [False, True])
    def test_wide_alphabet_code_file(self, tmp_path, capsys, drop_first):
        # 1,201 symbols: more coordinates than the default recursion limit.
        n = 1200
        words = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(
            {"n": n, "ell": 1, "e": 0, "codewords": words[1:] if drop_first else words}
        ))
        code, stdout, stderr = run(capsys, "verify", "--code", str(path), "--e", "0")
        assert stderr == ""
        if drop_first:
            assert code == 1
            assert stdout == f"not perfect: point {format_point(tuple(words[0]))} is uncovered\n"
        else:
            assert code == 0
            assert stdout == "perfect: codeword balls partition the space\n"


class TestSearch:
    def test_two_solutions(self, capsys):
        code, stdout, _ = run(capsys, "search", "--n", "2", "--ell", "7", "--e", "2")
        assert code == 0
        assert "2 perfect code(s)" in stdout
        assert "[5,0,2]" in stdout

    def test_zero_solutions(self, capsys):
        code, stdout, _ = run(capsys, "search", "--n", "3", "--ell", "6", "--e", "1")
        assert code == 0
        assert "0 perfect code(s)" in stdout

    def test_json_report(self, capsys):
        code, stdout, _ = run(
            capsys, "search", "--n", "2", "--ell", "7", "--e", "2",
            "--orbits", "--format", "json",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["solution_count"] == 2
        assert report["orbit_count"] == 1
        assert [[5, 0, 2], [2, 5, 0], [0, 2, 5]] in report["solutions"]
        assert report["problem"]["n"] == 2

    def test_budget_exits_3(self, capsys):
        code, _, stderr = run(
            capsys, "search", "--n", "2", "--ell", "30", "--e", "1",
            "--point-budget", "100",
        )
        assert code == 3
        assert "budget" in stderr

    def test_deep_binary_search(self, capsys):
        # 1,001 codewords deep, past the interpreter's default recursion limit.
        code, stdout, _ = run(
            capsys, "search", "--n", "1", "--ell", "3000", "--e", "1",
            "--count-only", "--format", "json",
        )
        assert code == 0
        assert json.loads(stdout)["solution_count"] == 1


    def test_wide_alphabet_search(self, capsys):
        # 1,201 coordinates per point, past the default recursion limit.
        code, stdout, stderr = run(
            capsys, "search", "--n", "1200", "--ell", "1", "--e", "0",
            "--count-only", "--format", "json",
        )
        assert (code, stderr) == (0, "")
        assert json.loads(stdout)["solution_count"] == 0


class TestSweep:
    def test_small_grid_exits_0(self, capsys):
        code, stdout, _ = run(capsys, "sweep", "--n-max", "2", "--ell-max", "8", "--e-max", "2")
        assert code == 0
        assert "all cells agree: yes" in stdout

    def test_tsv_output(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "--n-max", "1", "--ell-max", "4", "--e-max", "1",
            "--format", "tsv",
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "n\tell\te\tpredicted\tfound\tagree"
        assert lines[3] == "1\t3\t1\t1\t1\tyes"

    def test_skipped_cells_exit_3(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "--n-max", "2", "--ell-max", "9", "--e-max", "1",
            "--point-budget", "12", "--format", "tsv",
        )
        assert code == 3
        assert "skipped" in stdout

    def test_oversized_grid_exits_3_before_any_cell(self, capsys):
        start = time.process_time()
        code, stdout, stderr = run(
            capsys, "sweep", "--n-max", "1000000000", "--ell-max", "1", "--e-max", "1"
        )
        assert time.process_time() - start < 1.0
        assert code == 3
        assert stdout == ""
        assert "sweep grid has 1000000000 cells" in stderr


class TestSimulate:
    def write_code(self, capsys, tmp_path):
        out = tmp_path / "c22.json"
        run(capsys, "construct", "--alphabet", "3", "--e", "2", "--variant", "2",
            "--out", str(out))
        return out

    def test_noiseless(self, tmp_path, capsys):
        self.write_code(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "c22.json", "substitutions": 0, "insertions": 0,
            "deletions": 0, "trials": 50, "seed": 1,
        }))
        code, stdout, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        stats = json.loads(stdout)
        assert stats["success_rate"] == 1.0
        assert stats["trials"] == 50

    def test_exhaustive_guarantee(self, tmp_path, capsys):
        self.write_code(capsys, tmp_path)
        for weight, expect_perfect in ((2, True), (3, False)):
            cfg = tmp_path / f"cfg{weight}.json"
            cfg.write_text(json.dumps({
                "code_file": "c22.json", "substitutions": weight, "insertions": 0,
                "deletions": 0, "exhaustive": True,
            }))
            code, stdout, _ = run(capsys, "simulate", "--config", str(cfg))
            assert code == 0
            stats = json.loads(stdout)
            assert (stats["success_rate"] == 1.0) is expect_perfect

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        self.write_code(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "c22.json", "substitutions": 1, "insertions": 0,
            "deletions": 0, "trials": 10,
        }))
        code, _, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "seed" in stderr

    def test_missing_trials_exits_2(self, tmp_path, capsys):
        self.write_code(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"code_file": "c22.json", "substitutions": 1, "seed": 1}))
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert (code, stdout) == (2, "")
        assert stderr == "error: config is missing trials (required unless exhaustive is true)\n"

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        self.write_code(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "c22.json", "trials": 10, "seed": 1, "noise": 0.5,
        }))
        code, _, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "unknown config fields" in stderr

    @pytest.mark.parametrize(
        "field,value", [("trials", "10"), ("trials", 10.0), ("seed", 1.5), ("seed", True)]
    )
    def test_non_integer_field_exits_2(self, tmp_path, capsys, field, value):
        self.write_code(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"code_file": "c22.json", "trials": 10, "seed": 1, field: value}))
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {field} must be an integer")

    def test_non_string_code_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"code_file": 7, "trials": 10, "seed": 1}))
        code, _, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "code_file must be a string" in stderr

    def test_missing_code_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "ghost.json", "trials": 10, "seed": 1,
        }))
        code, _, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2

    def test_config_without_code_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 10, "seed": 1}))
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert (code, stdout) == (2, "")
        assert "config is missing code_file" in stderr

    def test_non_list_codeword_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(
            json.dumps({"n": 1, "ell": 5, "e": None, "codewords": [5]})
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"code_file": "bad.json", "trials": 10, "seed": 1}))
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert (code, stdout) == (2, "")
        assert "each codeword must be a list of integers" in stderr

    @pytest.mark.parametrize("codewords", [
        [[5, 0, 2], [2, 5, 0], [0, 2, 5]],  # the ternary e=2 code
        [[1, 0], [0, 1]],  # binary, ell = 1: one pattern per event
    ], ids=["ternary-e2", "binary-ell1"])
    def test_oversized_event_count_exits_3_at_once(self, tmp_path, capsys, codewords):
        (tmp_path / "code.json").write_text(json.dumps({
            "n": len(codewords[0]) - 1, "ell": sum(codewords[0]), "e": None,
            "codewords": codewords,
        }))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "code.json", "substitutions": 10**9, "exhaustive": True,
        }))
        start = time.process_time()
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert time.process_time() - start < 1.0
        assert code == 3
        assert stdout == ""
        assert "over the budget" in stderr

    @pytest.mark.parametrize("field,value", [("substitutions", 10**9), ("trials", 10**12)])
    def test_oversized_sampled_run_exits_3_at_once(self, tmp_path, capsys, field, value):
        self.write_code(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "c22.json", "substitutions": 1, "trials": 10, "seed": 1, field: value,
        }))
        start = time.process_time()
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert time.process_time() - start < 1.0
        assert code == 3
        assert stdout == ""
        assert "the events would touch" in stderr

    def test_wide_alphabet_run_exits_3_at_once(self, tmp_path, capsys):
        # 2,000,000 trials on the 1,001 corners of (1000, 1): the events would
        # touch 2 * 10**9 counts and the decode compare 2 * 10**12.
        n = 1000
        words = [[int(j == i) for j in range(n + 1)] for i in range(n + 1)]
        (tmp_path / "unit.json").write_text(
            json.dumps({"n": n, "ell": 1, "e": 0, "codewords": words})
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "unit.json", "substitutions": 1, "trials": 2_000_000, "seed": 1,
        }))
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert (code, stdout) == (3, "")
        assert "counts" in stderr and "over the budget" in stderr

    def test_wide_alphabet_exhaustive_run_exits_3_at_once(self, tmp_path, capsys):
        # One substitution on the 1,000 corners of (999, 1): 999,000 patterns
        # of 1,000 counts each, over the held-counts budget.
        n = 999
        words = [[int(j == i) for j in range(n + 1)] for i in range(n + 1)]
        (tmp_path / "unit.json").write_text(
            json.dumps({"n": n, "ell": 1, "e": 0, "codewords": words})
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "unit.json", "substitutions": 1, "exhaustive": True,
        }))
        start = time.process_time()
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert time.process_time() - start < 1.0
        assert (code, stdout) == (3, "")
        assert "hold 999000000 counts" in stderr

    def test_wide_alphabet_exhaustive_decode_exits_3(self, tmp_path, capsys):
        # One insertion on the 232 corners of (231, 1): within every price
        # before the run, but its 27,028 received vectors would compare
        # 27,028 * 232 * 232 counts, refused before any decode.
        n = 231
        words = [[int(j == i) for j in range(n + 1)] for i in range(n + 1)]
        (tmp_path / "unit.json").write_text(
            json.dumps({"n": n, "ell": 1, "e": 0, "codewords": words})
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "unit.json", "insertions": 1, "exhaustive": True,
        }))
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert (code, stdout) == (3, "")
        assert f"compare {27_028 * 232 * 232} counts" in stderr

    def test_event_weight_over_int64_exits_3(self, tmp_path, capsys):
        ell = 2**62
        (tmp_path / "huge.json").write_text(
            json.dumps({"n": 1, "ell": ell, "e": 0, "codewords": [[ell, 0], [0, ell]]})
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "huge.json", "insertions": 1, "trials": 1, "seed": 1,
        }))
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert (code, stdout) == (3, "")
        assert "limit of 2**63" in stderr

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"a": ' * 100_000 + "0" + "}" * 100_000)
        code, stdout, stderr = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: invalid JSON in config file")
        assert "Traceback" not in stderr

    def test_byte_identical_output(self, tmp_path, capsys):
        self.write_code(capsys, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code_file": "c22.json", "substitutions": 2, "insertions": 1,
            "deletions": 1, "trials": 200, "seed": 31415,
        }))
        outputs = set()
        for threads in ("1", "1", "4"):
            code, stdout, _ = run(capsys, "simulate", "--config", str(cfg),
                                  "--threads", threads)
            assert code == 0
            outputs.add(stdout)
        assert len(outputs) == 1


def test_sweep_byte_identical_across_threads(capsys):
    outputs = set()
    for threads in ("1", "1", "3"):
        code, stdout, _ = run(
            capsys, "sweep", "--n-max", "2", "--ell-max", "7", "--e-max", "2",
            "--format", "tsv", "--threads", threads,
        )
        assert code == 0
        outputs.add(stdout)
    assert len(outputs) == 1


class TestParserReuse:
    """main builds its parser once per process; a reused parser answers every
    call as a freshly built one does."""

    def test_built_once(self, monkeypatch, capsys):
        builds = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for ell in range(3, 23):
            assert main(["search", "--n", "1", "--ell", str(ell), "--e", "1", "--count-only"]) == 0
        capsys.readouterr()
        assert builds.count("simplexcode") == 1

    def test_same_answers_as_a_fresh_parser(self, tmp_path, capsys):
        code, cfg = tmp_path / "t1.json", tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"code_file": "t1.json", "substitutions": 2, "trials": 40, "seed": 5}))
        search = ["search", "--n", "2", "--ell", "7", "--e", "2", "--format", "json"]
        sweep = ["sweep", "--n-max", "2", "--ell-max", "4", "--e-max", "1", "--format", "tsv"]
        calls = [
            ["construct", "--alphabet", "3", "--e", "1", "--variant", "2", "--out", str(code)],
            ["construct", "--alphabet", "3", "--e", "1", "--out", str(code)],
            [*search, "--max-solutions", "1", "--orbits", "--count-only", "--point-budget", "50"],
            search,
            ["search", "--n", "x", "--ell", "7", "--e", "2"],
            ["--help"],
            [*sweep, "--threads", "3", "--point-budget", "5"],
            sweep,
            ["verify", "--code", str(code), "--e", "1"],
            ["verify", "--code", str(code), "--e", "2"],
            ["search", "--help"],
            ["simulate", "--config", str(cfg), "--threads", "2"],
            ["simulate", "--config", str(tmp_path / "missing.json")],
            ["sweep", "--n-max", "2"],
        ]

        def answer(argv):
            try:
                status = main(argv)
            except SystemExit as exc:  # usage errors and --help
                status = exc.code
            out, err = capsys.readouterr()
            return status, out, err

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(answer(argv))
        reused = [answer(argv) for argv in calls]
        assert [status for status, _, _ in fresh] == [0, 0, 0, 0, 2, 0, 3, 0, 0, 1, 0, 0, 2, 2]
        assert reused == fresh
