"""Code constructions, perfectness verification, decoding, code files."""

from __future__ import annotations

import math
import random
import time
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bf_ball, bf_decode, dict_is_perfect, expanded_is_perfect, loop_codewords
from simplexcode import (
    AmbiguousDecodeError,
    BudgetExceededError,
    Code,
    PerfectnessResult,
    SimplexSpace,
    ball_size,
    code_from_dict,
    construct_binary_perfect,
    construct_ternary_perfect,
    count_binary_perfect,
    decode,
    dumps_code,
    enumerate_space,
    is_perfect,
    load_code,
    min_distance,
    save_code,
)
from simplexcode import codes
from simplexcode.simplex import ball_runs, point_at


class TestCodeType:
    def test_canonical_ordering(self):
        code = Code(SimplexSpace(1, 8), ((1, 7), (7, 1), (4, 4)))
        assert code.codewords == ((7, 1), (4, 4), (1, 7))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate codeword"):
            Code(SimplexSpace(1, 8), ((7, 1), (7, 1)))

    def test_rejects_out_of_space(self):
        with pytest.raises(ValueError, match="sum to ell"):
            Code(SimplexSpace(1, 8), ((7, 2),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one codeword"):
            Code(SimplexSpace(1, 8), ())

    def test_rejects_negative_radius_claim(self):
        with pytest.raises(ValueError, match="radius_claim"):
            Code(SimplexSpace(1, 8), ((7, 1),), radius_claim=-1)

    @pytest.mark.parametrize("claim", [1.5, True, np.int64(1), "1"])
    def test_radius_claim_must_be_an_int(self, claim):
        # save_code would write a file load_code refuses, or json.dumps would raise.
        with pytest.raises(ValueError) as info:
            Code(SimplexSpace(1, 8), ((7, 1),), radius_claim=claim)
        assert str(info.value) == f"radius_claim must be an integer, got {claim!r}"

    @pytest.mark.parametrize("claim", [None, 0, 3])
    def test_radius_claim_round_trips(self, claim, tmp_path):
        code = Code(SimplexSpace(1, 8), ((1, 7), (7, 1)), radius_claim=claim)
        save_code(code, tmp_path / "code.json")
        assert load_code(tmp_path / "code.json") == code

    def test_immutable(self):
        code = Code(SimplexSpace(1, 8), [[1, 7], [7, 1]], radius_claim=1)
        with pytest.raises(FrozenInstanceError):
            code.radius_claim = 2
        with pytest.raises(FrozenInstanceError):
            del code.matrix
        with pytest.raises(ValueError, match="read-only"):
            code.matrix[0, 0] = 8
        assert code.codewords == ((7, 1), (1, 7))

    def test_equality_and_hash(self):
        space = SimplexSpace(1, 8)
        a = Code(space, [[1, 7], [7, 1]], radius_claim=1)
        b = Code(space, ((7, 1), (1, 7)), radius_claim=1)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Code(space, ((7, 1), (1, 7)), radius_claim=None)
        assert a != Code(space, ((7, 1), (4, 4)), radius_claim=1)
        assert a != Code(SimplexSpace(2, 8), ((7, 1, 0), (1, 7, 0)), radius_claim=1)


class Sub(int):
    """An int subclass: the loop accepts it as a coordinate."""


# Coordinates the loop rejects, or that leave int64: bools, floats, a string,
# None, negatives and values at or past 2**63 - 2.
BAD_COORDS = st.one_of(
    st.sampled_from([True, False, 0.5, 2.0, "1", None]),
    st.integers(-3, -1),
    st.integers(2**63 - 2, 2**64 + 2),
)

# Small spaces, and spaces whose coordinates or row sums approach or pass
# int64: the loop takes (0, 10**30) and (1, 2**63 - 2), the array passes
# (1, 2**62 - 1) with row sums near 2**62.
CODEWORD_SPACES = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 8)),
    st.sampled_from([(0, 10**30), (1, 2**63 - 2), (1, 2**62 - 1), (2, 3 * 10**9)]),
)


@st.composite
def codeword_rows(draw):
    """A space and codewords for it: points in shuffled order, perhaps with a
    duplicate, perhaps with rows that are lists, and perhaps with a few rows
    broken (a bad coordinate, a wrong length, a scalar for a row) or given
    an int subclass coordinate."""
    n, ell = draw(CODEWORD_SPACES)

    def point():
        cuts = sorted(draw(st.lists(st.integers(0, ell), min_size=n, max_size=n)))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, ell]))

    rows = list(dict.fromkeys(point() for _ in range(draw(st.integers(0, 10)))))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    rows = list(draw(st.permutations(rows)))
    # Each row is broken at most once, so a break keeps its kind: an "int"
    # break never wraps the bad coordinate of a "coord" break.
    last = len(rows) - 1
    for i in draw(st.lists(st.integers(0, last), max_size=2, unique=True)) if rows else ():
        row = list(rows[i])
        kind = draw(st.sampled_from(["coord", "int", "long", "short", "scalar"] if row else ["long"]))
        j = draw(st.integers(0, len(row) - 1)) if row else 0
        if kind == "coord":
            row[j] = draw(BAD_COORDS)
        elif kind == "int":
            row[j] = Sub(row[j])
        elif kind == "long":
            row.append(draw(st.integers(0, 2)))
        elif kind == "short":
            row.pop()
        rows[i] = draw(st.integers(0, 3)) if kind == "scalar" else tuple(row)
    if draw(st.booleans()):
        rows = [list(r) if isinstance(r, tuple) else r for r in rows]
    return SimplexSpace(n, ell), rows


def outcome(build):
    try:
        return build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestAgainstCodewordLoop:
    """Code checks its codewords in array passes and takes the replaced
    per-codeword loop only when a check fails; oracles.loop_codewords is that
    loop as it ran on every code."""

    @settings(max_examples=400, deadline=None)
    @given(codeword_rows())
    def test_same_order_and_errors(self, case):
        space, rows = case
        expected = outcome(lambda: loop_codewords(space, rows))
        code = outcome(lambda: Code(space, rows))
        accepted = isinstance(expected, tuple) and isinstance(expected[0], tuple)
        int64 = (space.n + 1) * space.ell < 2**63
        if accepted:
            # One read-only matrix in the loop's order, int64 exactly when
            # every row sum fits; codewords read back as exact ints.
            assert code.matrix.tolist() == [list(w) for w in expected]
            assert code.matrix.dtype == (np.int64 if int64 else object)
            assert not code.matrix.flags.writeable
            assert code.codewords == expected
            assert {type(c) for w in code.codewords for c in w} == {int}
        else:
            assert code == expected
        # The array passes accept exactly the codes of exact ints that fit in
        # int64 which the loop accepts, and order them as it does.
        fits = int64 and all(
            isinstance(r, (tuple, list)) and all(type(c) is int for c in r) for r in rows
        )
        if fits and accepted:
            assert codes._canonical_order(space, rows).tolist() == [list(w) for w in expected]
        elif fits:
            assert codes._canonical_order(space, rows) is None

    @pytest.mark.parametrize(
        "n, ell, rows",
        [
            (1, 8, [(7, 1), (7, 1), (7, 2)]),  # the bad row comes after a duplicate
            (1, 8, [(7, 1), (1, 7), (4, 4), (1, 7), (8, 0)]),
            (1, 8, [(7, 1), (True, 7)]),
            (1, 8, [(7, 1), (Sub(1), Sub(7))]),
            (1, 8, [(-1, 9), (7, 1)]),
            (2, 8, [(4, 4, 0), (-1, 4, 5)]),  # sums to ell, each entry at most ell
            (2, 1, [(2**63 - 1, 2**63 - 1, 3)]),  # an int64 row sum wraps to ell
            (1, 8, [(7, 1), (1, 7, 0)]),
            (1, 8, [(7, 1), 5]),
            (1, 8, [(7, 2), 5]),
            (1, 2**62 - 1, [(2**63 - 1, 2**63 - 1)]),  # in int64, over ell
            (1, 2**62 - 1, [(2**62 - 1, 0), (0, 2**62 - 1), (2**61, 2**61 - 1)]),
            (1, 2**63 - 2, [(2**63 - 2, 0), (0, 2**63 - 2), (2**62, 2**62 - 2)]),
            (0, 10**30, [(10**30,)]),
            (0, 10**30, [(10**30,), (10**30,)]),
            (2, 3, []),
        ],
    )
    def test_pinned_cases(self, n, ell, rows):
        space = SimplexSpace(n, ell)
        assert outcome(lambda: Code(space, rows).codewords) == outcome(
            lambda: loop_codewords(space, rows)
        )

    def test_code_files_give_the_loops_errors(self):
        obj = {"n": 1, "ell": 8, "e": 1, "codewords": [[7, 1], [7, 1], [1, 7.0]]}
        with pytest.raises(ValueError, match=r"^coordinates must be integers, got 7\.0$"):
            code_from_dict(obj)
        obj["codewords"] = [[1, 7], [4, 4], [7, 1], [4, 4]]
        with pytest.raises(ValueError, match=r"^duplicate codeword \[4,4\]$"):
            code_from_dict(obj)
        obj["codewords"] = [[1, 7], [4, 4], [7, 1]]
        assert code_from_dict(obj).codewords == ((7, 1), (4, 4), (1, 7))


class TestBinaryParams:
    def test_count_between_one_and_e_plus_one(self):
        for ell in range(3, 40):
            for e in range(1, 5):
                if ell >= 2 * e + 1:
                    assert 1 <= count_binary_perfect(ell, e) <= e + 1

    @pytest.mark.parametrize("ell,e,expected", [(7, 1, 2), (8, 1, 1), (9, 1, 1)])
    def test_counts(self, ell, e, expected):
        assert count_binary_perfect(ell, e) == expected

    def test_count_below_threshold_is_zero(self):
        assert count_binary_perfect(2, 1) == 0
        assert count_binary_perfect(4, 2) == 0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="e must be >= 0, got -1"):
            count_binary_perfect(9, -1)


class TestBinaryConstruction:
    def test_spacing_eight(self):
        code = construct_binary_perfect(8, 1, 1)
        assert set(code.codewords) == {(7, 1), (4, 4), (1, 7)}

    def test_both_codes_for_ell_seven(self):
        assert set(construct_binary_perfect(7, 1, 1).codewords) == {(6, 1), (3, 4), (0, 7)}
        assert set(construct_binary_perfect(7, 1, 2).codewords) == {(7, 0), (4, 3), (1, 6)}

    def test_too_short(self):
        with pytest.raises(ValueError, match="ell must be >= 2e\\+1"):
            construct_binary_perfect(2, 1)

    def test_variant_out_of_range(self):
        with pytest.raises(ValueError, match="m must be in"):
            construct_binary_perfect(8, 1, 2)

    def test_all_constructions_are_perfect(self):
        for e in range(1, 6):
            for ell in range(2 * e + 1, 61):
                m_count = count_binary_perfect(ell, e)
                for m in range(1, m_count + 1):
                    code = construct_binary_perfect(ell, e, m)
                    assert len(code) == math.ceil((ell + 1) / (2 * e + 1))
                    assert is_perfect(code, e)
                    assert min_distance(code) >= 2 * e + 1
                    # Built as a matrix without the checks: the checked code is the same.
                    assert code.matrix.dtype == np.int64
                    assert code == Code(code.space, code.codewords[::-1], radius_claim=e)

    def test_codeword_budget_is_checked_before_building(self, monkeypatch):
        # ell = 10**9, e = 1 would be about 3.3 * 10**8 codewords.
        start = time.process_time()
        with pytest.raises(BudgetExceededError, match="333333334 codewords"):
            construct_binary_perfect(10**9, 1)
        with pytest.raises(BudgetExceededError, match="codewords"):
            construct_binary_perfect(10**30, 2)
        assert time.process_time() - start < 1.0
        assert len(construct_binary_perfect(100_000, 7)) == 6667
        monkeypatch.setattr(codes, "CONSTRUCT_WORD_BUDGET", 3)
        assert len(construct_binary_perfect(8, 1)) == 3
        with pytest.raises(BudgetExceededError, match="4 codewords, over the budget of 3"):
            construct_binary_perfect(9, 1)

    def test_distinct_codes_per_m(self):
        for ell, e in [(7, 1), (12, 2), (31, 1)]:
            codes = {
                construct_binary_perfect(ell, e, m).codewords
                for m in range(1, count_binary_perfect(ell, e) + 1)
            }
            assert len(codes) == count_binary_perfect(ell, e)


class TestTernaryConstruction:
    def test_radius_two_variant_two(self):
        code = construct_ternary_perfect(2, 2)
        assert set(code.codewords) == {(5, 0, 2), (2, 5, 0), (0, 2, 5)}
        assert code.space == SimplexSpace(2, 7)

    def test_radius_one_variants(self):
        assert set(construct_ternary_perfect(1, 1).codewords) == {(3, 1, 0), (0, 3, 1), (1, 0, 3)}
        assert set(construct_ternary_perfect(1, 2).codewords) == {(3, 0, 1), (1, 3, 0), (0, 1, 3)}

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            construct_ternary_perfect(2, 3)

    def test_bad_radius(self):
        with pytest.raises(ValueError, match="e must be >= 1"):
            construct_ternary_perfect(0, 1)

    def test_both_variants_perfect_up_to_e6(self):
        for e in range(1, 7):
            for variant in (1, 2):
                code = construct_ternary_perfect(e, variant)
                assert len(code) == 3
                assert is_perfect(code, e)
                assert min_distance(code) >= 2 * e + 1


class TestMinDistance:
    def test_ternary(self):
        assert min_distance(construct_ternary_perfect(2, 2)) == 5

    def test_binary(self):
        assert min_distance(Code(SimplexSpace(1, 8), ((7, 1), (4, 4), (1, 7)))) == 3

    def test_antipodal(self):
        for ell in (1, 4, 9):
            code = Code(SimplexSpace(2, ell), ((ell, 0, 0), (0, ell, 0)))
            assert min_distance(code) == ell

    def test_needs_two_codewords(self):
        with pytest.raises(ValueError, match="at least 2"):
            min_distance(Code(SimplexSpace(1, 8), ((7, 1),)))


class TestIsPerfect:
    def test_ternary_codes(self):
        assert is_perfect(construct_ternary_perfect(2, 1), 2)
        assert is_perfect(construct_ternary_perfect(2, 2), 2)

    def test_binary_code(self):
        assert is_perfect(Code(SimplexSpace(1, 8), ((7, 1), (4, 4), (1, 7))), 1)

    def test_whole_space_is_zero_perfect(self):
        space = SimplexSpace(2, 3)
        assert is_perfect(Code(space, tuple(enumerate_space(space))), 0)

    def test_proper_subset_not_zero_perfect(self):
        space = SimplexSpace(2, 3)
        pts = list(enumerate_space(space))
        result = is_perfect(Code(space, tuple(pts[:-1])), 0)
        assert not result
        assert result.uncovered == pts[-1]

    def test_uncovered_certificate(self):
        code = Code(SimplexSpace(1, 8), ((7, 1), (4, 4)))
        result = is_perfect(code, 1)
        assert not result
        assert result.uncovered is not None
        assert all(
            abs(result.uncovered[0] - c[0]) > 1 for c in code.codewords
        )
        assert "uncovered" in result.describe()

    def test_double_cover_certificate(self):
        code = Code(SimplexSpace(1, 8), ((7, 1), (5, 3), (1, 7)))
        result = is_perfect(code, 1)
        assert not result
        point, a, b = result.double_covered
        assert a in code.codewords and b in code.codewords and a != b
        assert "covered by both" in result.describe()

    def test_wrong_radius_rejected(self):
        code = construct_ternary_perfect(2, 2)
        assert not is_perfect(code, 1)
        assert not is_perfect(code, 3)

    @pytest.mark.parametrize("n,ell", [(0, 3), (1, 9), (2, 7), (3, 6), (4, 4), (6, 3)])
    def test_ball_bound_covers_every_ball(self, n, ell):
        for e in range(ell + 2):
            bound = codes._ball_bound(SimplexSpace(n, ell), e)
            sizes = [ball_size(x, e) for x in enumerate_space(SimplexSpace(n, ell))]
            assert max(sizes) <= bound, (n, ell, e)
        # Exact for interior binary points: 2e+1.
        assert codes._ball_bound(SimplexSpace(1, 10**9), 10**8) == 2 * 10**8 + 1

    def test_walk_is_priced_before_it_starts(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ball was walked")

        big = 10**9
        code = Code(SimplexSpace(2, big), ((big, 0, 0), (0, 0, big)))
        with monkeypatch.context() as patched:
            patched.setattr(codes, "ball_runs", refuse)
            # 2 x (2e+1)^2 ids at e = 10^4.
            with pytest.raises(BudgetExceededError, match="800080002 point ids"):
                is_perfect(code, 10**4)
        # Priced at min(space size, codewords x bound): 2 x 9 ids at e = 1,
        # and the 36 points of the space for the ternary e=2 code at e = 3
        # (3 x 49 ids would be more).
        ternary = construct_ternary_perfect(2, 2)
        for code, e, need in [(code, 1, 18), (ternary, 3, 36)]:
            monkeypatch.setattr(codes, "VERIFY_ID_BUDGET", need)
            is_perfect(code, e)
            monkeypatch.setattr(codes, "VERIFY_ID_BUDGET", need - 1)
            with pytest.raises(BudgetExceededError, match=f"{need} point ids"):
                is_perfect(code, e)

    def test_binary_codes_are_not_priced(self, monkeypatch):
        # The balls of the two corners of (1, 10^9) at e = 10^8 hold 2 x (2e+1)
        # ids, far over the budget: n = 1 reads them off in closed form.
        big = 10**9
        code = Code(SimplexSpace(1, big), ((big, 0), (0, big)))
        monkeypatch.setattr(codes, "VERIFY_ID_BUDGET", 0)
        assert is_perfect(code, 10**8).uncovered == (899_999_999, 100_000_001)
        assert is_perfect(code, big // 2).double_covered == (
            (big // 2, big // 2), (big, 0), (0, big))

    @pytest.mark.parametrize("n,ell,words,e,balls", [
        # 5,456 points at e = 5: the check after 1,024 ids finds the overlap.
        (3, 30, None, 5, 12),
        # The first two balls (55 and 65 ids) hold more ids than the space (66).
        (2, 10, None, 9, 2),
        # Disjoint balls (codewords on every third row and column) up to id
        # 1,400, then every point: the check after 1,029 ids finds no overlap;
        # the next comes once the balls outgrow the space.
        (2, 55, [p for j, p in enumerate(enumerate_space(SimplexSpace(2, 55)))
                 if j >= 1400 or p[0] % 3 == 1 and p[1] % 3 == 0], 1, 239),
    ])
    def test_walk_stops_soon_after_two_balls_overlap(self, monkeypatch, n, ell, words, e, balls):
        space = SimplexSpace(n, ell)
        code = Code(space, tuple(enumerate_space(space) if words is None else words))
        walked = []

        def counting(x, r):
            runs = list(ball_runs(x, r))
            walked.append(sum(map(len, runs)))
            return iter(runs)

        expected = dict_is_perfect(code, e)
        monkeypatch.setattr(codes, "ball_runs", counting)
        assert is_perfect(code, e) == expected
        assert len(walked) == balls
        assert sum(walked[:-1]) <= space.size()

    def test_benchmark_verifies_fit_the_budget(self):
        assert is_perfect(construct_binary_perfect(100_000, 7), 7)
        assert not is_perfect(construct_binary_perfect(100_000, 7), 6)
        assert is_perfect(construct_ternary_perfect(30, 1), 30)


def pinned_witness(code, e):
    """The witness is_perfect must report, recomputed from brute-force balls.

    Codewords in canonical order; the first whose ball meets an earlier
    ball names the lowest-id point it shares with them. Without overlaps,
    the first point in enumeration order outside every ball.
    """
    order = list(enumerate_space(code.space))
    owner = {}
    for c in code.codewords:
        ball = bf_ball(code.space, c, e)
        shared = [p for p in order if p in ball and p in owner]
        if shared:
            return "double", (shared[0], owner[shared[0]], c)
        owner.update(dict.fromkeys(ball, c))
    missing = [p for p in order if p not in owner]
    return ("uncovered", missing[0]) if missing else ("perfect", None)


@st.composite
def codes_and_radii(draw):
    space = SimplexSpace(draw(st.integers(1, 3)), draw(st.integers(0, 8)))
    points = list(enumerate_space(space))
    picks = draw(st.lists(st.sampled_from(points), min_size=1, max_size=6, unique=True))
    return Code(space, tuple(picks)), draw(st.integers(0, 3))


class TestWitnessRule:
    def test_double_cover_names_the_lowest_shared_point(self):
        # (7,1) and (5,3) share (6,2); (1,7) is never reached.
        code = Code(SimplexSpace(1, 8), ((7, 1), (5, 3), (1, 7)))
        assert is_perfect(code, 1).double_covered == ((6, 2), (7, 1), (5, 3))
        # (4,4)'s ball overlaps (7,1)'s at (6,2) and (5,3): the lower id, (6,2), is named.
        code = Code(SimplexSpace(1, 8), ((7, 1), (4, 4)))
        assert is_perfect(code, 2).double_covered == ((6, 2), (7, 1), (4, 4))

    def test_witnesses_in_a_huge_space(self):
        big = 10**9  # about 5 * 10**17 points
        space = SimplexSpace(2, big)
        result = is_perfect(Code(space, ((big, 0, 0), (0, 0, big))), 1)
        assert result.uncovered == (big - 2, 2, 0)
        result = is_perfect(Code(space, ((big, 0, 0), (big - 1, 1, 0))), 1)
        assert result.double_covered == ((big, 0, 0), (big, 0, 0), (big - 1, 1, 0))

    @settings(max_examples=300, deadline=None)
    @given(codes_and_radii())
    def test_witness_follows_the_pinned_rule(self, case):
        code, e = case
        result = is_perfect(code, e)
        kind, witness = pinned_witness(code, e)
        assert result.perfect == (kind == "perfect")
        assert result.double_covered == (witness if kind == "double" else None)
        assert result.uncovered == (witness if kind == "uncovered" else None)


def perturbed(rng, code):
    """code with one codeword moved by one unit of mass, dropped, or joined by a new point."""
    words = list(code.codewords)
    move = rng.randrange(3)
    if move == 0 or len(words) == 1:
        k = rng.randrange(len(words))
        w = list(words[k])
        src = rng.choice([i for i, v in enumerate(w) if v])
        w[src] -= 1
        w[rng.choice([i for i in range(len(w)) if i != src])] += 1
        words[k] = tuple(w)
    elif move == 1:
        words.pop(rng.randrange(len(words)))
    else:
        words.append(tuple(reversed(words[rng.randrange(len(words))])))
    return Code(code.space, tuple(set(words)))


class TestAgainstOwnerDict:
    """is_perfect decides over sorted runs; the replaced check kept an owner per id."""

    def assert_same(self, code, e):
        result = is_perfect(code, e)
        assert result == dict_is_perfect(code, e), (code, e)
        return result

    def test_later_codewords_meet_different_earlier_ones(self):
        rng = random.Random(4)
        space = SimplexSpace(2, 12)
        points = list(enumerate_space(space))
        seen = 0
        for _ in range(400):
            code = Code(space, tuple(rng.sample(points, 6)))
            e = rng.randint(1, 3)
            # Pairs (earlier, later) of codewords whose balls meet.
            balls = [bf_ball(space, c, e) for c in code.codewords]
            meets = {(a, b) for b in range(6) for a in range(b) if balls[a] & balls[b]}
            if len({b for _, b in meets}) >= 2 and len({a for a, _ in meets}) >= 2:
                seen += 1
                self.assert_same(code, e)
        assert seen >= 50
        # Each of the last four balls meets the one before it; (26,4) comes first.
        code = Code(SimplexSpace(1, 30), ((30, 0), (26, 4), (20, 10), (17, 13), (24, 6)))
        assert is_perfect(code, 2).double_covered == ((28, 2), (30, 0), (26, 4))
        self.assert_same(code, 2)

    def test_radius_zero(self):
        for n, ell in [(0, 4), (1, 6), (2, 4), (3, 3)]:
            space = SimplexSpace(n, ell)
            points = list(enumerate_space(space))
            self.assert_same(Code(space, tuple(points)), 0)
            for drop in range(len(points)):
                rest = points[:drop] + points[drop + 1:]
                self.assert_same(Code(space, tuple(rest or points)), 0)

    def test_radius_zero_random_codes(self):
        rng = random.Random(17)
        cases = []
        for _ in range(3000):
            space = SimplexSpace(rng.randint(0, 4), rng.randint(0, 6))
            points = list(enumerate_space(space))
            k = rng.randint(1, len(points))
            code = Code(space, tuple(points[:k] if rng.random() < 0.5 else rng.sample(points, k)))
            cases.append((code, dict_is_perfect(code, 0)))
        space = SimplexSpace(6, 33)
        cases.append((Code(space, tuple(islice(enumerate_space(space), 20_000))),
                      PerfectnessResult(False, uncovered=point_at(space, 20_000))))
        for code, expected in cases:
            assert is_perfect(code, 0) == expected, code

    def test_one_codeword_swallows_the_space(self):
        for n, ell in [(0, 3), (1, 5), (2, 3), (3, 2), (60, 1)]:
            space = SimplexSpace(n, ell)
            for x in list(enumerate_space(space))[:: max(1, space.size() // 7)]:
                for e in (ell, ell + 3):
                    code = Code(space, (x,))
                    assert is_perfect(code, e)
                    self.assert_same(code, e)

    def test_only_the_last_point_is_missed(self):
        # (8,1), (5,4), (2,7) at e = 1 cover (9,0) .. (1,8); (0,9) is left.
        code = Code(SimplexSpace(1, 9), ((8, 1), (5, 4), (2, 7)))
        assert is_perfect(code, 1).uncovered == (0, 9)
        self.assert_same(code, 1)
        space = SimplexSpace(2, 5)
        code = Code(space, tuple(enumerate_space(space))[:-1])
        assert is_perfect(code, 0).uncovered == (0, 0, 5)
        self.assert_same(code, 0)

    def test_perturbed_perfect_codes(self):
        rng = random.Random(9)
        bases = [construct_ternary_perfect(e, v) for e in (1, 2, 4) for v in (1, 2)]
        for ell, e in [(20, 1), (31, 2), (60, 4)]:
            last = count_binary_perfect(ell, e)
            bases += [construct_binary_perfect(ell, e, m) for m in (1, last)]
        kinds = set()
        for base in bases:
            e = base.radius_claim
            assert self.assert_same(base, e)
            for _ in range(30):
                code = perturbed(rng, base)
                for r in (e - 1, e, e + 1):
                    result = self.assert_same(code, r)
                    kinds.add((result.perfect, result.uncovered is None))
        assert kinds == {(True, True), (False, True), (False, False)}



def late_overlap(ell, e):
    """The perfect binary code of (1, ell) at e with its last-but-one codeword
    moved one unit toward the last: only the check after the walk sees the overlap."""
    words = list(construct_binary_perfect(ell, e).codewords)
    words[-2] = (words[-2][0] - 1, words[-2][1] + 1)
    return Code(SimplexSpace(1, ell), tuple(words))


class TestAgainstIdExpansion:
    """is_perfect reads the double-cover witness off sorted runs; the replaced
    check spelled every walked ball out id by id and sorted the ids."""

    def assert_same(self, code, e):
        result = is_perfect(code, e)
        assert result == expanded_is_perfect(code, e) == dict_is_perfect(code, e), (code, e)
        return result

    @settings(max_examples=300, deadline=None)
    @given(codes_and_radii())
    def test_drawn_codes(self, case):
        self.assert_same(*case)

    def test_perturbed_perfect_codes(self):
        rng = random.Random(12)
        bases = [construct_ternary_perfect(e, v) for e in (1, 2, 4) for v in (1, 2)]
        for ell, e in [(20, 1), (31, 2), (60, 4)]:
            bases += [construct_binary_perfect(ell, e, m) for m in (1, count_binary_perfect(ell, e))]
        for base in bases:
            for _ in range(30):
                code = perturbed(rng, base)
                for r in (base.radius_claim - 1, base.radius_claim, base.radius_claim + 1):
                    self.assert_same(code, r)

    def test_overlap_found_after_the_walk(self):
        code = late_overlap(299_999, 7)
        assert self.assert_same(code, 7).double_covered == (
            (299_999 - 299_985, 299_985), (21, 299_978), (7, 299_992))

    @pytest.mark.parametrize("space,words,e,earlier,later,p", [
        # w's run [1, 2) lies inside the earlier run [0, 3).
        ((2, 5), ((5, 0, 0), (3, 2, 0)), 1, range(0, 3), range(1, 2), (4, 1, 0)),
        # The earlier run [4, 6) lies inside w's run [3, 15).
        ((2, 5), ((2, 0, 3), (1, 2, 2)), 2, range(4, 6), range(3, 15), (3, 1, 1)),
        # w's run [3, 5) meets the earlier run [4, 6) at the earlier run's start.
        ((2, 5), ((4, 0, 1), (2, 2, 1)), 1, range(4, 6), range(3, 5), (3, 1, 1)),
    ])
    def test_how_the_shared_runs_lie(self, space, words, e, earlier, later, p):
        code = Code(SimplexSpace(*space), words)
        assert earlier in ball_runs(code.codewords[0], e)
        assert later in ball_runs(code.codewords[1], e)
        assert self.assert_same(code, e).double_covered == (p, *code.codewords)

    def test_late_overlap_holds_no_more_than_a_perfect_code(self):
        def peak(code):
            tracemalloc.start()
            try:
                is_perfect(code, 7)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        perfect = peak(construct_binary_perfect(299_999, 7))
        assert peak(late_overlap(299_999, 7)) <= 1.5 * perfect


@st.composite
def binary_codes_and_radii(draw):
    """A code of (1, ell) with ell <= 40, and a radius from 0 to past ell: a
    random subset, a prefix of enumeration order, or a perfect construction,
    perhaps perturbed."""
    ell = draw(st.integers(0, 40))
    space = SimplexSpace(1, ell)
    points = list(enumerate_space(space))
    kind = draw(st.sampled_from(["subset", "prefix", "construction"]))
    if kind == "construction" and ell >= 3:
        e = draw(st.integers(1, (ell - 1) // 2))
        code = construct_binary_perfect(ell, e, draw(st.integers(1, count_binary_perfect(ell, e))))
        if draw(st.booleans()):
            code = perturbed(draw(st.randoms(use_true_random=False)), code)
    elif kind == "prefix":
        code = Code(space, tuple(points[:draw(st.integers(1, len(points)))]))
    else:
        code = Code(space, tuple(draw(st.lists(st.sampled_from(points), min_size=1, unique=True))))
    return code, draw(st.integers(0, ell + 3))


class TestBinaryClosedForm:
    """On n = 1 every ball is one run, read off the codewords' y_1 column; the
    replaced check walked each codeword's ball with ball_runs."""

    def assert_same(self, code, e):
        result = is_perfect(code, e)
        assert result == expanded_is_perfect(code, e) == dict_is_perfect(code, e), (code, e)
        return result

    @settings(max_examples=500, deadline=None)
    @given(binary_codes_and_radii())
    def test_drawn_codes(self, case):
        self.assert_same(*case)

    def test_edges(self):
        for ell in (0, 1, 2, 9):
            space = SimplexSpace(1, ell)
            points = list(enumerate_space(space))
            for words in (points, points[:1], points[-1:], points[::2]):
                for e in (0, 1, ell, ell + 1, ell + 5):
                    self.assert_same(Code(space, tuple(words)), e)

    def test_bisection_finds_the_first_overlap(self):
        # 601 codewords; moving codeword k one unit toward k + 1 makes k + 1
        # the first codeword whose ball meets an earlier one.
        base = construct_binary_perfect(3000, 2).codewords
        for moved in ([1], [300], [599], [17, 450], [450, 452], [0, 599]):
            words = list(base)
            for k in moved:
                words[k] = (words[k][0] - 1, words[k][1] + 1)
            result = self.assert_same(Code(SimplexSpace(1, 3000), tuple(words)), 2)
            assert result.double_covered[2] == words[min(moved) + 1]

    def test_no_ball_is_walked(self, monkeypatch):
        cases = [(construct_binary_perfect(ell, e, m), r) for ell, e, m in [(20, 1, 1), (31, 2, 2)]
                 for r in (0, e - 1, e, e + 1, 40)]
        cases += [(late_overlap(299, 7), 7), (Code(SimplexSpace(1, 0), ((0, 0),)), 3)]
        expected = [dict_is_perfect(code, e) for code, e in cases]
        monkeypatch.setattr(codes, "ball_runs", None)
        assert [is_perfect(code, e) for code, e in cases] == expected

    def test_runs_equal_the_walk(self, monkeypatch):
        seen = []
        monkeypatch.setattr(codes, "_witness", lambda *args: seen.append(args[2:4]))
        for ell in range(41):
            space = SimplexSpace(1, ell)
            points = tuple(enumerate_space(space))
            for e in range(21):
                is_perfect(Code(space, points), e)
                starts, stops = seen.pop()
                assert [[range(a, b)] for a, b in zip(starts.tolist(), stops.tolist())] == [
                    list(ball_runs(c, e)) for c in points], (ell, e)

    @pytest.mark.parametrize("e", [1, 10**6, 2**70])
    def test_longest_space(self, e):
        # ell + 1 = 2**63 - 1 points: every run bound fits in int64.
        ell = 2**63 - 2
        space = SimplexSpace(1, ell)
        for words in [((ell, 0),), ((0, ell),), ((ell, 0), (0, ell))]:
            result = is_perfect(Code(space, words), e)
            if len(words) == 2 and e > ell:  # the oracle would spell out 2**64 ids
                assert result.double_covered == ((ell, 0), (ell, 0), (0, ell))
            else:
                assert result == expanded_is_perfect(Code(space, words), e)
        assert is_perfect(Code(space, ((ell, 0), (0, ell))), e).uncovered == (
            None if e > ell else (ell - e - 1, e + 1))

class TestDecode:
    def test_example(self):
        code = construct_ternary_perfect(2, 2)
        assert decode(code, (4, 2, 1)) == ((5, 0, 2), 2)

    def test_codeword_decodes_to_itself(self):
        code = construct_binary_perfect(9, 1, 1)
        for c in code.codewords:
            assert decode(code, c) == (c, 0)

    def test_perfect_code_never_ambiguous(self):
        for code, e in [
            (construct_ternary_perfect(2, 2), 2),
            (construct_binary_perfect(10, 2, 1), 2),
        ]:
            for y in enumerate_space(code.space):
                word, d = decode(code, y)
                assert d <= e
                assert word in code.codewords

    def test_tie_is_an_error(self):
        code = Code(SimplexSpace(1, 8), ((7, 1), (5, 3)))
        with pytest.raises(AmbiguousDecodeError) as exc_info:
            decode(code, (6, 2))
        assert set(exc_info.value.candidates) == {(7, 1), (5, 3)}
        assert exc_info.value.score == 1
        assert str(exc_info.value) == "ambiguous decode at score 1: tied codewords [7,1], [5,3]"

    def test_exact_at_huge_lengths(self):
        # The far codeword scores 2**63 here, which int64 would wrap to the
        # smallest score; the decode switches to exact integers.
        ell = 2**62
        code = Code(SimplexSpace(1, ell), ((ell, 0), (0, ell)))
        for y in [(ell, 0), (0, ell), (ell - 5, 5), (3, ell - 3), (ell // 2 + 1, ell // 2 - 1)]:
            word, d, _ = bf_decode(code.codewords, y)
            assert decode(code, y) == (word, d)
        with pytest.raises(AmbiguousDecodeError) as exc_info:
            decode(code, (ell // 2, ell // 2))
        assert exc_info.value.candidates == ((ell, 0), (0, ell))
        assert exc_info.value.score == ell // 2
        assert type(exc_info.value.score) is int

    @pytest.mark.parametrize(
        "bound,kind",
        [(127, np.int8), (128, np.int16), (32_767, np.int16), (32_768, np.int32),
         (2**31 - 1, np.int32), (2**31, np.int64), (2**63 - 1, np.int64), (2**63, object)],
    )
    def test_matrix_takes_the_narrowest_type_that_holds_its_bound(self, bound, kind):
        rows = [[bound, 0], [0, bound]]
        matrix = codes._matrix(rows, bound)
        assert matrix.dtype == kind
        assert matrix.tolist() == rows
        assert (-matrix).tolist() == [[-bound, 0], [0, -bound]]

    def test_rejects_numpy_coordinates(self):
        code = construct_ternary_perfect(2, 2)
        with pytest.raises(ValueError, match="coordinates must be integers"):
            decode(code, np.array([4, 2, 1]))

    def test_rejects_point_outside_space(self):
        code = construct_ternary_perfect(2, 2)
        with pytest.raises(ValueError):
            decode(code, (4, 2, 2))

    def test_agrees_with_linear_scan(self):
        # Scores reach 2 * ell: 126 takes int8 matrices, 128 int16.
        for code in (Code(SimplexSpace(2, 6), ((6, 0, 0), (1, 4, 1), (0, 1, 5))),
                     Code(SimplexSpace(2, 63), ((63, 0, 0), (0, 63, 0), (0, 1, 62))),
                     Code(SimplexSpace(2, 64), ((64, 0, 0), (0, 64, 0), (0, 1, 63)))):
            for y in enumerate_space(code.space):
                best_c, best_d, tied = bf_decode(code.codewords, y)
                if tied:
                    with pytest.raises(AmbiguousDecodeError):
                        decode(code, y)
                else:
                    assert decode(code, y) == (best_c, best_d)


def test_sphere_packing_identity():
    cases = [(construct_ternary_perfect(e, v), e) for e in (1, 2, 3) for v in (1, 2)]
    cases += [
        (construct_binary_perfect(ell, e, m), e)
        for ell, e in [(8, 1), (7, 1), (12, 2), (25, 3)]
        for m in range(1, count_binary_perfect(ell, e) + 1)
    ]
    for code, e in cases:
        total = sum(ball_size(c, e) for c in code.codewords)
        assert total == code.space.size()


class TestObjectMatrix:
    """Codes whose row sums may pass int64 hold exact Python integers, from
    construction through files to verification."""

    def test_two_word_binary_code(self, tmp_path):
        ell, e = 2**62, 2**61 - 1  # spacing 2**62 - 1: two codewords, two codes
        for m, words in [(1, ((ell - 1, 1), (0, ell))), (2, ((ell, 0), (1, ell - 1)))]:
            code = construct_binary_perfect(ell, e, m)
            assert code.matrix.dtype == object
            assert code == Code(SimplexSpace(1, ell), words[::-1], radius_claim=e)
            assert code.codewords == words
            assert {type(c) for w in code.codewords for c in w} == {int}
            save_code(code, tmp_path / "code.json")
            text = (tmp_path / "code.json").read_text(encoding="utf-8")
            assert text == (f'{{"n": 1, "ell": {ell}, "e": {e}, "codewords": '
                            f'[[{words[0][0]}, {words[0][1]}], [{words[1][0]}, {words[1][1]}]]}}\n')
            loaded = load_code(tmp_path / "code.json")
            assert loaded == code and loaded.matrix.dtype == object
            assert is_perfect(loaded, e)
        code = construct_binary_perfect(ell, e, 1)
        assert is_perfect(code, e - 1).uncovered == (2**61, 2**61)
        p, a, b = is_perfect(code, e + 1).double_covered
        assert (p, a, b) == ((2**61, 2**61), (ell - 1, 1), (0, ell))
        assert {type(c) for w in (p, a, b) for c in w} == {int}

    def test_one_symbol_past_int64(self, tmp_path):
        ell = 2**63 + 5
        code = Code(SimplexSpace(0, ell), [[ell]], radius_claim=0)
        assert code.matrix.dtype == object
        assert code.codewords == ((ell,),) and type(code.codewords[0][0]) is int
        save_code(code, tmp_path / "code.json")
        assert (tmp_path / "code.json").read_text(encoding="utf-8") == (
            f'{{"n": 0, "ell": {ell}, "e": 0, "codewords": [[{ell}]]}}\n')
        loaded = load_code(tmp_path / "code.json")
        assert loaded == code and loaded.matrix.dtype == object
        assert is_perfect(loaded, 0) and is_perfect(loaded, 7)


class TestCodeFiles:
    def test_canonical_text(self):
        code = construct_ternary_perfect(2, 2)
        assert dumps_code(code) == (
            '{"n": 2, "ell": 7, "e": 2, '
            '"codewords": [[5, 0, 2], [2, 5, 0], [0, 2, 5]]}\n'
        )

    def test_roundtrip(self, tmp_path):
        code = construct_binary_perfect(11, 2, 2)
        path = tmp_path / "code.json"
        save_code(code, path)
        loaded = load_code(path)
        assert loaded.codewords == code.codewords
        assert loaded.space == code.space
        assert loaded.radius_claim == code.radius_claim

    def test_null_radius(self):
        code = code_from_dict({"n": 1, "ell": 3, "e": None, "codewords": [[3, 0], [0, 3]]})
        assert code.radius_claim is None

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            code_from_dict({"n": 1, "ell": 3, "e": 1, "codewords": [[3, 0], [3, 0]]})

    def test_rejects_out_of_space_points(self):
        with pytest.raises(ValueError, match="sum to ell"):
            code_from_dict({"n": 1, "ell": 3, "e": 1, "codewords": [[3, 1]]})

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing fields"):
            code_from_dict({"n": 1, "ell": 3, "codewords": [[3, 0]]})

    def test_rejects_non_integer_coords(self):
        with pytest.raises(ValueError, match="integers"):
            code_from_dict({"n": 1, "ell": 3, "e": 1, "codewords": [[2.5, 0.5]]})

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            code_from_dict([1, 2, 3])

    def test_rejects_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_code(path)
