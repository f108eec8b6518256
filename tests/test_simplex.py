"""Geometry of the discrete simplex: points, metric, enumeration, point ids, balls."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import bf_ball, bf_neighbors, surplus_distance
from simplexcode import (
    SimplexSpace,
    ball,
    ball_size,
    distance,
    enumerate_space,
    format_point,
    make_point,
    neighbors,
)
from simplexcode.simplex import ball_runs, point_at


@st.composite
def space_with_points(draw, max_n=4, max_ell=8, count=2):
    n = draw(st.integers(0, max_n))
    ell = draw(st.integers(0, max_ell))
    pts = []
    for _ in range(count):
        cuts = sorted(draw(st.lists(st.integers(0, ell), min_size=n, max_size=n)))
        coords, prev = [], 0
        for c in cuts + [ell]:
            coords.append(c - prev)
            prev = c
        pts.append(tuple(coords))
    return SimplexSpace(n, ell), pts


class TestMakePoint:
    def test_valid(self):
        assert make_point(SimplexSpace(2, 7), [5, 0, 2]) == (5, 0, 2)

    def test_empty_multiset(self):
        assert make_point(SimplexSpace(1, 0), [0, 0]) == (0, 0)

    def test_bad_sum(self):
        with pytest.raises(ValueError, match="sum to ell = 7"):
            make_point(SimplexSpace(2, 7), [5, 0, 3])

    def test_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_point(SimplexSpace(2, 7), [8, -1, 0])

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="length must be n\\+1 = 3"):
            make_point(SimplexSpace(2, 7), [5, 2])

    def test_non_integer(self):
        with pytest.raises(ValueError, match="integers"):
            make_point(SimplexSpace(2, 7), [5.0, 0, 2])

    def test_contains(self):
        space = SimplexSpace(2, 7)
        assert (5, 0, 2) in space
        assert (5, 0, 3) not in space
        assert (5, 2) not in space

    @pytest.mark.parametrize(
        "coords",
        [(5, 0, 2), (5, 0, 3), (5, 2), (True, 4, 2), (5.0, 0, 2), (8, -1, 0), (7, 0, 0), "abc", 5, None],
    )
    def test_contains_follows_make_point(self, coords):
        # Whatever make_point refuses, non-iterables included, is not in the space.
        space = SimplexSpace(2, 7)
        try:
            make_point(space, coords)
        except (TypeError, ValueError):
            assert coords not in space
        else:
            assert coords in space


class TestSpace:
    def test_sizes(self):
        assert SimplexSpace(1, 8).size() == 9
        assert SimplexSpace(2, 7).size() == 36
        assert SimplexSpace(3, 4).size() == 35

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SimplexSpace(-1, 3)
        with pytest.raises(ValueError):
            SimplexSpace(2, -1)

    @pytest.mark.parametrize(
        "n,ell,bad",
        [
            (True, 3, "n"),
            (False, 3, "n"),
            (2, True, "ell"),
            (2, 7.0, "ell"),
            (-1.0, 7, "n"),  # refused as a float before the range check
            (2, "7", "ell"),
            (2, None, "ell"),
            (2, np.int64(7), "ell"),
            (np.int64(2), 7, "n"),
        ],
    )
    def test_sizes_must_be_ints(self, n, ell, bad):
        value = n if bad == "n" else ell
        with pytest.raises(ValueError) as info:
            SimplexSpace(n, ell)
        assert str(info.value) == f"{bad} must be an integer, got {value!r}"

    def test_size_overflow_detected(self):
        with pytest.raises(OverflowError):
            SimplexSpace(40, 40)

    def test_size_overflow_detected_without_counting(self):
        # C(2*10**30, 10**30) would take forever to compute exactly.
        with pytest.raises(OverflowError):
            SimplexSpace(10**30, 10**30)


class TestDistance:
    def test_codeword_pair(self):
        assert distance((5, 0, 2), (2, 5, 0)) == 5

    def test_diameter_pair(self):
        assert distance((8, 0), (0, 8)) == 8

    def test_identity(self):
        for x in enumerate_space(SimplexSpace(2, 5)):
            assert distance(x, x) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            distance((1, 2), (1, 1, 1))

    @given(space_with_points(count=2))
    def test_halved_l1_equals_surplus_form(self, sp):
        _, (x, y) = sp
        assert distance(x, y) == surplus_distance(x, y) == surplus_distance(y, x)

    @given(space_with_points(count=2))
    def test_symmetry_and_separation(self, sp):
        _, (x, y) = sp
        assert distance(x, y) == distance(y, x)
        assert (distance(x, y) == 0) == (x == y)

    @given(space_with_points(count=3))
    def test_triangle_inequality(self, sp):
        _, (x, y, z) = sp
        assert distance(x, z) <= distance(x, y) + distance(y, z)

    @pytest.mark.parametrize("n,ell", [(1, 5), (2, 4), (3, 3)])
    def test_metric_axioms_exhaustive(self, n, ell):
        pts = list(enumerate_space(SimplexSpace(n, ell)))
        for x in pts:
            for y in pts:
                d = distance(x, y)
                assert d == distance(y, x)
                assert (d == 0) == (x == y)
        for x, y, z in combinations(pts, 3):
            assert distance(x, z) <= distance(x, y) + distance(y, z)


class TestEnumeration:
    def test_example_counts(self):
        assert sum(1 for _ in enumerate_space(SimplexSpace(1, 8))) == 9
        assert sum(1 for _ in enumerate_space(SimplexSpace(2, 7))) == 36
        assert sum(1 for _ in enumerate_space(SimplexSpace(3, 4))) == 35

    def test_counts_match_binomial(self):
        for n in range(0, 7):
            for ell in range(0, 13):
                space = SimplexSpace(n, ell)
                assert sum(1 for _ in enumerate_space(space)) == comb(n + ell, ell)

    def test_order_is_lexicographically_decreasing(self):
        for n, ell in [(1, 8), (2, 7), (3, 4), (0, 5), (2, 0)]:
            pts = list(enumerate_space(SimplexSpace(n, ell)))
            assert pts[0] == (ell,) + (0,) * n
            assert pts[-1] == (0,) * n + (ell,)
            assert all(a > b for a, b in zip(pts, pts[1:]))

    def test_yields_valid_distinct_points(self):
        space = SimplexSpace(3, 5)
        pts = list(enumerate_space(space))
        assert len(set(pts)) == len(pts)
        assert all(p in space for p in pts)


class TestNeighbors:
    def test_path_endpoint(self):
        assert neighbors((8, 0)) == {(7, 1)}

    def test_boundary_point(self):
        assert neighbors((5, 0, 2)) == {(6, 0, 1), (5, 1, 1), (4, 1, 2), (4, 0, 3)}

    def test_interior_point_has_six(self):
        assert len(neighbors((3, 2, 2))) == 6

    def test_matches_brute_force(self):
        for n, ell in [(1, 6), (2, 5), (3, 4), (4, 3)]:
            space = SimplexSpace(n, ell)
            for x in enumerate_space(space):
                assert neighbors(x) == bf_neighbors(space, x)


class TestBall:
    def test_radius_zero(self):
        assert ball((3, 2, 2), 0) == {(3, 2, 2)}

    def test_interior_hexagon(self):
        assert len(ball((3, 2, 2), 1)) == 7

    def test_clipped_at_path_end(self):
        assert len(ball((8, 0), 1)) == 2

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            ball((3, 2, 2), -1)

    def test_matches_brute_force(self):
        for n, ell in [(1, 8), (2, 6), (3, 4)]:
            space = SimplexSpace(n, ell)
            for x in enumerate_space(space):
                for e in range(0, 4):
                    assert ball(x, e) == bf_ball(space, x, e)


class TestBallSize:
    def test_agrees_with_materialized_ball(self):
        for n, ell in [(1, 8), (2, 6), (3, 4), (4, 3)]:
            for x in enumerate_space(SimplexSpace(n, ell)):
                for e in range(0, ell + 2):
                    assert ball_size(x, e) == len(ball(x, e))

    def test_interior_hexagon_formula(self):
        # interior of a 2-dimensional simplex: 3e(e+1)+1 points
        for ell, x in [(12, (4, 4, 4)), (9, (3, 3, 3)), (10, (4, 3, 3))]:
            for e in range(0, min(x) + 1):
                assert ball_size(x, e) == 3 * e * (e + 1) + 1

    def test_interior_e2_is_19(self):
        assert ball_size((4, 4, 4), 2) == 19

    def test_near_path_end(self):
        assert ball_size((7, 1), 1) == 3

    def test_radius_at_least_diameter_covers_space(self):
        for n, ell in [(1, 5), (2, 4), (3, 3)]:
            space = SimplexSpace(n, ell)
            for x in enumerate_space(space):
                assert ball_size(x, ell) == space.size()
                assert ball_size(x, ell + 3) == space.size()


def test_diameter_equals_ell():
    for n in range(1, 5):
        for ell in range(0, 9):
            pts = list(enumerate_space(SimplexSpace(n, ell)))
            diam = max(
                (distance(x, y) for x, y in combinations(pts, 2)), default=0
            )
            assert diam == ell


class TestPointText:
    def test_format(self):
        assert format_point((5, 0, 2)) == "[5,0,2]"


def random_point(rng, n, ell):
    cuts = sorted(rng.randint(0, ell) for _ in range(n))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [ell]))


@lru_cache(maxsize=None)
def enumeration_ids(n, ell):
    """Point -> position in enumeration order: ids from an independent source."""
    return {x: j for j, x in enumerate(enumerate_space(SimplexSpace(n, ell)))}


def ball_ids(x, e):
    """The ball walk's ids, one by one: its runs, flattened."""
    return [j for r in ball_runs(x, e) for j in r]


def walk_id(x):
    """x's id from the ball walk: the only id in its radius-0 ball."""
    (j,) = ball_ids(x, 0)
    return j


class TestPointIds:
    def test_ids_follow_enumeration_order(self):
        # Longer on n = 2..5, whose k = 2 level of point_at is closed form.
        for n, ell_max in [(0, 7), (1, 7), (2, 60), (3, 24), (4, 12), (5, 9)]:
            for ell in range(0, ell_max + 1):
                space = SimplexSpace(n, ell)
                for j, x in enumerate(enumerate_space(space)):
                    assert list(ball_ids(x, 0)) == [j]
                    assert point_at(space, j) == x

    @given(space_with_points(max_n=6, max_ell=40, count=1))
    def test_point_at_inverts_the_walk_id(self, sp):
        space, (x,) = sp
        assert point_at(space, walk_id(x)) == x

    def test_huge_spaces(self):
        # About 5 * 10**17 points for n = 2: ids are exact, no enumeration needed.
        space = SimplexSpace(2, 10**9)
        assert walk_id((10**9, 0, 0)) == 0
        assert walk_id((0, 0, 10**9)) == space.size() - 1
        rng = random.Random(3)
        for n, ell in [(2, 10**9), (3, 10**5), (1, 10**18), (1500, 1), (40, 3)]:
            space = SimplexSpace(n, ell)
            for _ in range(20):
                x = random_point(rng, n, ell)
                assert point_at(space, walk_id(x)) == x
                j = rng.randrange(space.size())
                assert walk_id(point_at(space, j)) == j

    def test_closed_form_level_matches_the_replaced_bisect(self):
        # Ids just below and at each C(m+1, 2), where the k = 2 level's mass
        # steps from m - 1 to m, up to ids near 2**62; on n = 3 the same ids
        # past a level-3 step C(M+2, 3).
        ms = set(range(1, 300)) | {
            (1 << b) + d for b in range(9, 32) for d in (-1, 0, 1)
        } | {3_037_000_499}  # C(m+1, 2) just below 2**62
        steps = sorted(comb(m + 1, 2) for m in ms)
        assert steps[-1] < 2**62 < comb(3_037_000_501, 2)
        for n, ell, bases in [(2, 3_100_000_000, [0]), (3, 2_700_000, [0, comb(2_500_002, 3)])]:
            space = SimplexSpace(n, ell)
            for base in bases:
                for t in steps:
                    for j in (base + t - 1, base + t):
                        if j < space.size():
                            assert point_at(space, j) == oracles.bisect_point_at(space, j), (n, j)
            for j in (space.size() - 2, space.size() - 1):
                assert point_at(space, j) == oracles.bisect_point_at(space, j), (n, j)

    def test_point_at_rejects_ids_outside_the_space(self):
        space = SimplexSpace(2, 3)
        for j in (-1, space.size()):
            with pytest.raises(ValueError, match="id must be in"):
                point_at(space, j)


def shift(x, k):
    """x with k added to coordinate 0."""
    return (x[0] + k,) + x[1:]


class TestShiftAlongCoordinateZero:
    """An id depends on coordinates 1..n alone, so balls keep their ids as coordinate 0 grows."""

    def test_ids_do_not_depend_on_coordinate_zero(self):
        for n in range(0, 5):
            for ell in range(0, 11):
                for y, j in enumeration_ids(n, ell).items():
                    for k in range(y[0] + 1):
                        assert enumeration_ids(n, ell - k)[shift(y, -k)] == j, (y, k)

    def test_balls_keep_their_runs_away_from_the_far_face(self):
        for n in range(0, 5):
            for ell in range(0, 11):
                for c in enumeration_ids(n, ell):
                    for e in range(0, c[0] + 1):
                        runs = list(ball_runs(c, e))
                        for k in range(1, 11 - ell):
                            assert list(ball_runs(shift(c, k), e)) == runs, (c, e, k)

    def test_clipped_balls_are_cut_representative_balls(self):
        for n in range(0, 5):
            for ell in range(0, 11):
                size = SimplexSpace(n, ell).size()
                for c in enumeration_ids(n, ell):
                    for e in range(c[0] + 1, 5):
                        rep = ball_runs(shift(c, e - c[0]), e)
                        cut = [range(r.start, min(r.stop, size)) for r in rep]
                        assert list(ball_runs(c, e)) == [r for r in cut if r], (c, e)


def bfs_ids(x, e):
    """Ascending enumeration positions of the replaced breadth-first ball."""
    index = enumeration_ids(len(x) - 1, sum(x))
    return sorted(index[y] for y in oracles.ball(x, e))


class TestBallIds:
    @settings(max_examples=300, deadline=None)
    @given(space_with_points(max_n=5, max_ell=10, count=1), st.integers(0, 4))
    def test_matches_replaced_breadth_first_ball(self, sp, e):
        _, (x,) = sp
        assert list(ball_ids(x, e)) == bfs_ids(x, e)

    @pytest.mark.parametrize("e", [0, 1])
    def test_wide_alphabet_centers(self, e):
        # The breadth-first ball costs about N**2 per ball here, so only a few centers.
        n = 1200
        for k in (0, 1, 599, 1199, 1200):
            x = tuple(int(i == k) for i in range(n + 1))
            assert list(ball_ids(x, e)) == bfs_ids(x, e)

    def test_wide_alphabet_with_more_mass(self):
        # Centers with zeros between nonzero coordinates exercise the jump past x's zeros.
        rng = random.Random(7)
        for n, ell in [(30, 2), (20, 3), (12, 5)]:
            for _ in range(15):
                x = random_point(rng, n, ell)
                for e in (1, 2):
                    assert list(ball_ids(x, e)) == bfs_ids(x, e)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            list(ball_runs((3, 2, 2), -1))


def assert_runs(runs, want):
    """runs are ascending, disjoint, maximal (nonempty, gaps between them) and list want."""
    assert all(len(r) and r.step == 1 for r in runs)
    assert all(a.stop < b.start for a, b in zip(runs, runs[1:]))
    assert [j for r in runs for j in r] == list(want)


def bf_ids(points, x, e):
    """Ids of the ball from every point's distance: points is the space in enumeration order."""
    return np.flatnonzero(np.abs(points - np.array(x)).sum(axis=1) // 2 <= e).tolist()


class TestBallRuns:
    def test_every_center_of_small_spaces(self):
        # On n = 2 the walk starts in its closed-form rows: radii also run to
        # ell + 1, balls that fill the whole space, and a larger space adds
        # its corners and face centers.
        for n in range(0, 5):
            for ell in range(0, 11):
                points = np.array(list(enumerate_space(SimplexSpace(n, ell))))
                for x in map(tuple, points.tolist()):
                    for e in range(0, max(5, ell + 2) if n == 2 else 5):
                        want = bf_ids(points, x, e)
                        assert list(oracles.ball_ids(x, e)) == want, (x, e)
                        assert_runs(list(ball_runs(x, e)), want)
        ell = 40
        points = np.array(list(enumerate_space(SimplexSpace(2, ell))))
        corners = [(40, 0, 0), (0, 40, 0), (0, 0, 40)]
        faces = [(20, 20, 0), (0, 20, 20), (20, 0, 20), (39, 1, 0), (0, 1, 39), (1, 0, 39), (13, 0, 27)]
        for x in corners + faces:
            for e in (0, 1, 2, 13, 19, 20, 21, 27, 39, 40, 41):
                want = bf_ids(points, x, e)
                assert list(oracles.ball_ids(x, e)) == want, (x, e)
                assert_runs(list(ball_runs(x, e)), want)

    def test_same_runs_as_the_replaced_walk(self):
        for n in range(0, 5):
            for ell in range(0, 10):
                for x in enumerate_space(SimplexSpace(n, ell)):
                    for e in range(0, ell + 2):
                        want = list(oracles.minmax_ball_runs(x, e))
                        assert list(ball_runs(x, e)) == want, (x, e)
        rng = random.Random(25)
        for n in (20, 60):
            for ell in range(0, 5):
                corners = [(ell,) + (0,) * n, (0,) * n + (ell,)]
                for x in corners + [random_point(rng, n, ell) for _ in range(3)]:
                    for e in range(0, 3):
                        want = list(oracles.minmax_ball_runs(x, e))
                        assert list(ball_runs(x, e)) == want, (x, e)

    def test_binary_centers_of_a_large_space(self):
        ell, e = 10**5, 7
        points = np.array(list(enumerate_space(SimplexSpace(1, ell))))
        rng = random.Random(11)
        centers = [(ell, 0), (ell - 3, 3), (ell - 7, 7), (3, ell - 3), (0, ell)]
        for x in centers + [random_point(rng, 1, ell) for _ in range(20)]:
            want = bf_ids(points, x, e)
            assert list(oracles.ball_ids(x, e)) == want, x
            runs = list(ball_runs(x, e))
            assert len(runs) == 1
            assert_runs(runs, want)

    def test_wide_alphabet_centers(self):
        # Enumeration order on (n, ell) is the order of ell-symbol multisets
        # (ascending symbol tuples) in combinations_with_replacement.
        for n, ell in [(3, 4), (5, 3)]:
            multisets = combinations_with_replacement(range(n + 1), ell)
            assert [tuple(m.count(s) for s in range(n + 1)) for m in multisets] == list(
                enumerate_space(SimplexSpace(n, ell))
            )
        n, ell = 60, 4
        ys = np.array(list(combinations_with_replacement(range(n + 1), ell)))
        # rank[:, k]: how many of ys[:, :k] equal ys[:, k] (the rows are sorted).
        rank = np.zeros_like(ys)
        for k in range(1, ell):
            rank[:, k] = np.where(ys[:, k] == ys[:, k - 1], rank[:, k - 1] + 1, 0)
        rng = random.Random(5)
        centers = [(ell,) + (0,) * n, (0,) * n + (ell,), (1, 0, 2) + (0,) * (n - 3) + (1,)]
        for x in centers + [random_point(rng, n, ell) for _ in range(2)]:
            # The distance is ell minus the multisets' overlap.
            dist = ell - (np.array(x)[ys] > rank).sum(axis=1)
            for e in range(0, 5):
                want = np.flatnonzero(dist <= e).tolist()
                if len(want) < 10**5:  # the per-id walk costs about 2 us an id here
                    assert list(oracles.ball_ids(x, e)) == want, (x, e)
                assert_runs(list(ball_runs(x, e)), want)
