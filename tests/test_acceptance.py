"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. All comparisons are exact; nothing here carries a float tolerance.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import lru_cache

import pytest

from oracles import ORACLE_FAMILY, bf_ball, bf_decode, bf_neighbors, bf_perfect_codes
from simplexcode import (
    AmbiguousDecodeError,
    ChannelConfig,
    Code,
    SearchProblem,
    SimplexSpace,
    ball,
    ball_size,
    construct_binary_perfect,
    construct_ternary_perfect,
    count_binary_perfect,
    decode,
    enumerate_perfect_codes,
    enumerate_space,
    neighbors,
    run_experiment,
    verify_theorem_sweep,
)
from simplexcode.cli import main as cli_main

@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


@lru_cache(maxsize=None)
def search_cell(n: int, ell: int, e: int):
    report = enumerate_perfect_codes(SearchProblem(SimplexSpace(n, ell), e))
    return report.solutions


def test_criterion_1_binary_classification():
    with criterion(1, "binary classification"):
        for e in range(1, 5):
            for ell in range(2 * e + 1, 31):
                found = search_cell(1, ell, e)
                expected_count = count_binary_perfect(ell, e)
                assert len(found) == expected_count, (ell, e)
                expected_sets = {
                    frozenset(construct_binary_perfect(ell, e, m).codewords)
                    for m in range(1, expected_count + 1)
                }
                assert {frozenset(c.codewords) for c in found} == expected_sets, (ell, e)
                for code in found:
                    assert len(code) == math.ceil((ell + 1) / (2 * e + 1)), (ell, e)


def test_criterion_2_ternary_classification():
    with criterion(2, "ternary classification"):
        for ell in range(3, 14):
            for e in range(1, 5):
                found = search_cell(2, ell, e)
                if ell == 3 * e + 1:
                    assert len(found) == 2, (ell, e)
                    expected = {
                        frozenset(construct_ternary_perfect(e, v).codewords)
                        for v in (1, 2)
                    }
                    assert {frozenset(c.codewords) for c in found} == expected, (ell, e)
                else:
                    assert len(found) == 0, (ell, e)


def test_criterion_3_no_codes_on_larger_alphabets():
    with criterion(3, "nonexistence for 4+ symbols"):
        cells = [(3, ell) for ell in range(3, 9)] + [(4, ell) for ell in range(3, 7)]
        for n, ell in cells:
            for e in range(1, (ell - 1) // 2 + 1):
                found = search_cell(n, ell, e)
                assert len(found) == 0, (n, ell, e)
        # The closed forms, binary and ternary included, over every cell of a larger grid.
        report = verify_theorem_sweep(5, 16, 4)
        assert len(report.cells) == 320
        assert not report.any_skipped
        assert report.all_agree


def _codes_from_criteria_1_and_2():
    for e in range(1, 5):
        for ell in range(2 * e + 1, 31):
            yield from ((code, e) for code in search_cell(1, ell, e))
    for ell in range(3, 14):
        for e in range(1, 5):
            yield from ((code, e) for code in search_cell(2, ell, e))


def test_criterion_4_sphere_packing_identity():
    with criterion(4, "sphere-packing identity"):
        checked = 0
        for code, e in _codes_from_criteria_1_and_2():
            assert sum(ball_size(c, e) for c in code.codewords) == code.space.size()
            checked += 1
        assert checked > 0


def test_criterion_5_oracle_equivalence():
    with criterion(5, "oracle equivalence"):
        for n, ell_cap in ORACLE_FAMILY.items():
            for ell in range(0, ell_cap + 1):
                space = SimplexSpace(n, ell)
                assert space.size() <= 500
                points = list(enumerate_space(space))

                for x in points:
                    assert neighbors(x) == bf_neighbors(space, x), (n, ell, x)
                    for e in (0, 1, 2, 3):
                        assert ball(x, e) == bf_ball(space, x, e), (n, ell, x, e)

                if len(points) >= 2:
                    probe = Code(space, tuple(points[::7]) or tuple(points[:2]))
                    for y in points:
                        word, dist, tied = bf_decode(probe.codewords, y)
                        if tied:
                            with pytest.raises(AmbiguousDecodeError):
                                decode(probe, y)
                        else:
                            assert decode(probe, y) == (word, dist), (n, ell, y)

                for e in (1, 2):
                    report = enumerate_perfect_codes(SearchProblem(space, e))
                    fast = sorted(code.codewords for code in report.solutions)
                    assert fast == bf_perfect_codes(space, e), (n, ell, e)


def test_criterion_6_channel_guarantee():
    with criterion(6, "channel correction guarantee"):
        for code, e in (
            (construct_ternary_perfect(2, 2), 2),
            (construct_binary_perfect(8, 1, 1), 1),
        ):
            for weight in range(0, e + 1):
                stats = run_experiment(
                    code, ChannelConfig(substitutions=weight), trials=1, exhaustive=True
                )
                assert stats.success_rate == 1.0, (code, weight)
                assert stats.ambiguous == 0
            beyond = run_experiment(
                code, ChannelConfig(substitutions=e + 1), trials=1, exhaustive=True
            )
            assert beyond.success_rate < 1.0


def test_criterion_7_determinism(tmp_path, capsys):
    with criterion(7, "byte-identical deterministic output"):
        sweep_outputs = set()
        for threads in ("1", "1", "4"):
            status = cli_main(
                ["sweep", "--n-max", "2", "--ell-max", "10", "--e-max", "2",
                 "--format", "tsv", "--threads", threads]
            )
            out = capsys.readouterr().out
            assert status == 0
            sweep_outputs.add(out)
        assert len(sweep_outputs) == 1

        code_path = tmp_path / "c22.json"
        assert cli_main(
            ["construct", "--alphabet", "3", "--e", "2", "--variant", "2",
             "--out", str(code_path)]
        ) == 0
        capsys.readouterr()
        cfg_path = tmp_path / "experiment.json"
        cfg_path.write_text(json.dumps({
            "code_file": "c22.json",
            "substitutions": 2, "insertions": 1, "deletions": 1,
            "trials": 400, "seed": 20131010,
        }))
        sim_outputs = set()
        for threads in ("1", "1", "4"):
            status = cli_main(["simulate", "--config", str(cfg_path), "--threads", threads])
            out = capsys.readouterr().out
            assert status == 0
            sim_outputs.add(out)
        assert len(sim_outputs) == 1

        # Search reports and verify answers: three runs, one stdout.
        search = ["search", "--n", "2", "--ell", "7", "--e", "2"]
        for argv, expected_status in [
            ([*search, "--format", "json", "--orbits"], 0),
            ([*search, "--format", "json", "--count-only"], 0),
            ([*search, "--format", "json", "--max-solutions", "1"], 0),
            ([*search, "--orbits"], 0),
            (["verify", "--code", str(code_path), "--e", "2"], 0),
            (["verify", "--code", str(code_path), "--e", "1"], 1),  # prints a witness
        ]:
            outputs = set()
            for _ in range(3):
                assert cli_main(argv) == expected_status, argv
                outputs.add(capsys.readouterr().out)
            assert len(outputs) == 1, argv
