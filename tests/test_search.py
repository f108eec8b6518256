"""Exact-cover enumeration of perfect codes, sweep, canonicalization."""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import bf_perfect_codes, xc_perfect_codes
from simplexcode import search
from simplexcode import (
    BudgetExceededError,
    Code,
    SearchProblem,
    SimplexSpace,
    canonicalize_code,
    construct_binary_perfect,
    construct_ternary_perfect,
    count_binary_perfect,
    enumerate_perfect_codes,
    enumerate_space,
    is_perfect,
    min_distance,
    predicted_perfect_count,
    verify_theorem_sweep,
)
from simplexcode.search import DEFAULT_POINT_BUDGET, _centers
from simplexcode.simplex import ball_runs


def found_sets(report):
    return {frozenset(code.codewords) for code in report.solutions}


class TestEnumeration:
    def test_ternary_space_has_exactly_two(self):
        report = enumerate_perfect_codes(SearchProblem(SimplexSpace(2, 7), 2))
        assert report.solution_count == 2
        expected = {
            frozenset(construct_ternary_perfect(2, 1).codewords),
            frozenset(construct_ternary_perfect(2, 2).codewords),
        }
        assert found_sets(report) == expected

    def test_ternary_wrong_length_has_none(self):
        report = enumerate_perfect_codes(SearchProblem(SimplexSpace(2, 8), 2))
        assert report.solution_count == 0
        assert report.solutions == ()

    def test_binary_space_matches_construction(self):
        report = enumerate_perfect_codes(SearchProblem(SimplexSpace(1, 7), 1))
        assert report.solution_count == 2
        expected = {
            frozenset(construct_binary_perfect(7, 1, m).codewords) for m in (1, 2)
        }
        assert found_sets(report) == expected

    def test_four_symbol_space_has_none(self):
        report = enumerate_perfect_codes(SearchProblem(SimplexSpace(3, 7), 1))
        assert report.solution_count == 0

    def test_solutions_verified_and_ordered(self):
        report = enumerate_perfect_codes(SearchProblem(SimplexSpace(1, 13), 1))
        assert all(is_perfect(code, 1) for code in report.solutions)
        keys = [code.codewords for code in report.solutions]
        assert keys == sorted(keys, reverse=True)

    def test_radius_zero_reports_nothing(self):
        report = enumerate_perfect_codes(SearchProblem(SimplexSpace(1, 4), 0))
        assert report.solution_count == 0
        assert report.nodes_explored >= 1

    def test_single_point_space(self):
        report = enumerate_perfect_codes(SearchProblem(SimplexSpace(2, 0), 1))
        assert report.solution_count == 0

    def test_binary_counts_match_closed_form(self):
        for e in (1, 2):
            for ell in range(2 * e + 1, 16):
                report = enumerate_perfect_codes(
                    SearchProblem(SimplexSpace(1, ell), e, count_only=True)
                )
                assert report.solution_count == count_binary_perfect(ell, e)


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "n,ell,e",
        [
            (1, 9, 1),
            (1, 12, 2),
            (2, 4, 1),
            (2, 5, 1),
            (2, 7, 2),
            (2, 8, 2),
            (3, 4, 1),
            (3, 5, 2),
        ],
    )
    def test_matches_unpruned_backtracker(self, n, ell, e):
        space = SimplexSpace(n, ell)
        report = enumerate_perfect_codes(SearchProblem(space, e))
        expected = bf_perfect_codes(space, e)
        assert sorted(code.codewords for code in report.solutions) == expected


class TestAgainstSecondOracle:
    @settings(deadline=None)
    @given(n=st.integers(1, 3), ell=st.integers(0, 12), e=st.integers(0, 3))
    def test_matches_replaced_solver(self, n, ell, e):
        space = SimplexSpace(n, ell)
        report = enumerate_perfect_codes(SearchProblem(space, e))
        expected = xc_perfect_codes(space, e)
        assert sorted(code.codewords for code in report.solutions) == expected

        first = enumerate_perfect_codes(SearchProblem(space, e, max_solutions=1))
        assert first.solution_count == min(1, len(expected))
        assert all(code.codewords in expected for code in first.solutions)


class TestAgainstCoverMatrix:
    """The search builds balls as it reaches them; the replaced solver built them all first."""

    @settings(deadline=None)
    @given(
        n=st.integers(0, 5),
        ell=st.integers(0, 12),
        e=st.integers(0, 4),
        max_solutions=st.sampled_from([0, 1, 2]),
    )
    def test_same_choices_and_nodes(self, n, ell, e, max_solutions):
        space = SimplexSpace(n, ell)
        points = list(enumerate_space(space))
        balls = [tuple(j for r in ball_runs(p, e) for j in r) for p in points]
        expected, nodes = oracles._exact_covers(
            balls, max_solutions=max_solutions, node_budget=0
        )
        got = search._exact_covers(space, e, {}, max_solutions=max_solutions)
        assert got == ([tuple(points[c] for c in sol) for sol in expected], nodes)

    def test_centers_are_the_balls_starting_at_each_point(self):
        for n in range(0, 6):
            for ell in range(0, 9):
                points = list(enumerate_space(SimplexSpace(n, ell)))
                for e in range(0, 5):
                    starting: list[list] = [[] for _ in points]
                    for c in points:
                        starting[next(ball_runs(c, e)).start].append(c)
                    spreads: dict = {}
                    for p, centers in zip(points, starting):
                        assert _centers(p, e, spreads) == centers, (p, e)

    @pytest.mark.parametrize("n,ell,e", [(4, 20, 4), (100, 2, 1)])
    def test_builds_few_of_the_balls(self, monkeypatch, n, ell, e):
        # A cover matrix would build all of them: 10,626 and 5,151 balls here.
        built = []

        def counting(x, r):
            built.append(x)
            return ball_runs(x, r)

        monkeypatch.setattr(search, "ball_runs", counting)
        space = SimplexSpace(n, ell)
        assert enumerate_perfect_codes(SearchProblem(space, e)).solution_count == 0
        assert 0 < len(built) < space.size() / 10


class TestSharedMasks:
    """A sweep shares a ball table across its cells of one n and e; a search starts a fresh one."""

    def test_shared_table_solves_like_fresh_ones(self):
        cells = [(n, ell, e) for n in range(6) for e in range(1, 5) for ell in range(e + 1, 13)]
        fresh = {
            (n, ell, e): search._exact_covers(SimplexSpace(n, ell), e, {}, max_solutions=0)
            for n, ell, e in cells
        }
        for descending in (False, True):
            tables: dict = {}
            for n, ell, e in sorted(cells, key=lambda c: c[1], reverse=descending):
                table = tables.setdefault((n, e), {})
                got = search._exact_covers(SimplexSpace(n, ell), e, table, max_solutions=0)
                assert got == fresh[n, ell, e], (n, ell, e, descending)

    def test_matches_the_eager_solver(self):
        # The replaced solver walked every ball to its end when first reached;
        # the search walks a ball only until it meets a covered id.
        cells = [(n, ell, e) for n in range(6) for e in range(1, 5) for ell in range(e + 1, 13)]
        for descending in (False, True):
            tables: dict = {}
            eager_tables: dict = {}
            for n, ell, e in sorted(cells, key=lambda c: c[1], reverse=descending):
                space = SimplexSpace(n, ell)
                got = search._exact_covers(
                    space, e, tables.setdefault((n, e), {}), max_solutions=0
                )
                want = oracles.eager_exact_covers(
                    space, e, eager_tables.setdefault((n, e), {}), max_solutions=0
                )
                assert got == want, (n, ell, e, descending)
        for n, ell, e in [(2, 31, 10), (5, 15, 4)]:
            space = SimplexSpace(n, ell)
            want = oracles.eager_exact_covers(space, e, {}, max_solutions=0)
            assert search._exact_covers(space, e, {}, max_solutions=0) == want

    def test_a_sweep_builds_each_entry_once(self, monkeypatch):
        # An entry is the same at every ell, so a shared table builds it the
        # first time any cell reaches its id, even where p_0 < e there.
        built = []

        def counting(space, p, e, spreads):
            built.append((space.n, e, p))
            return starting(space, p, e, spreads)

        starting = search._starting
        monkeypatch.setattr(search, "_starting", counting)
        verify_theorem_sweep(3, 12, 3)
        assert built and len(built) == len(set(built))

    def test_a_sweep_walks_each_ball_to_its_end_once(self, monkeypatch):
        # A ball whose walk stopped at a covered id is walked again from its
        # first run when a later node needs more of it, so a sweep may start
        # several walks of one ball; once one ends, the ball's mask is whole.
        ended = []

        def recording(x, r):
            yield from ball_runs(x, r)
            ended.append((x, r))

        monkeypatch.setattr(search, "ball_runs", recording)
        verify_theorem_sweep(3, 9, 2)
        assert ended and len(ended) == len(set(ended))


class TestAgainstListStack:
    """The solver's stack is flat lists, a ball is walked when it is tried, and
    binary entries are built walked; oracles.list_stack_exact_covers is the
    solver with a tuple of an iterator over a filtered candidate list per
    level, which walked an entry's balls at its node, on n = 1 too."""

    CELLS = [(n, ell, e) for n in range(6) if n != 1 for ell in range(13) for e in range(5)] + [
        (1, ell, e) for ell in range(301) for e in range(7)
    ]

    @pytest.mark.parametrize("max_solutions", [0, 1, 2])
    def test_same_solutions_and_nodes(self, max_solutions):
        kw = {"max_solutions": max_solutions}
        for n, ell, e in self.CELLS:
            space = SimplexSpace(n, ell)
            want = oracles.list_stack_exact_covers(space, e, {}, **kw)
            assert search._exact_covers(space, e, {}, **kw) == want, (n, ell, e)
        for descending in (False, True):
            tables: dict = {}
            list_tables: dict = {}
            for n, ell, e in sorted(self.CELLS, key=lambda c: c[1], reverse=descending):
                space = SimplexSpace(n, ell)
                got = search._exact_covers(space, e, tables.setdefault((n, e), {}), **kw)
                want = oracles.list_stack_exact_covers(
                    space, e, list_tables.setdefault((n, e), {}), **kw
                )
                assert got == want, (n, ell, e, descending)

    @pytest.mark.parametrize(
        "n,ell,e", [(2, 22, 7), (2, 31, 10), (3, 12, 3), (4, 8, 2), (1, 1000, 1), (5, 15, 4)]
    )
    def test_benchmark_cells(self, n, ell, e):
        space = SimplexSpace(n, ell)
        want = oracles.list_stack_exact_covers(space, e, {}, max_solutions=0)
        assert search._exact_covers(space, e, {}, max_solutions=0) == want


class TestBinaryEntries:
    """On n = 1, _starting writes each entry in closed form, walked to its end."""

    def test_closed_form_matches_the_general_path(self):
        space = SimplexSpace(1, 399)
        for e in range(1, 7):
            spreads: dict = {}
            for p in range(400):
                mass, balls = search._starting(space, p, e, spreads)
                assert type(balls) is tuple and mass == p
                assert [c for c, _, _ in balls] == [c[1:] for c in _centers((e, p), e, spreads)]
                _, walked = oracles.list_stack_starting((e, p), p, e, spreads)
                oracles.list_stack_walk(walked, p, e, 0)
                assert list(balls) == walked, (p, e)

    def test_a_binary_table_adds_no_tracked_containers(self):
        # Generation-2 collections traverse what the collector tracks; a
        # list per entry made them cost more the deeper a binary search went.
        gc.collect()
        gc.collect()
        before = len(gc.get_objects())
        table: dict = {}
        search._exact_covers(SimplexSpace(1, 9999), 1, table, max_solutions=0)
        gc.collect()
        gc.collect()
        assert len(table) == 6667
        assert len(gc.get_objects()) - before < len(table) // 10


class TestBenchmarkCells:
    """The benchmark's single searches: nodes_explored is printed, so it is pinned."""

    @pytest.mark.parametrize(
        "n,ell,e,nodes,count",
        [
            (2, 22, 7, 137, 2),
            (2, 31, 10, 254, 2),
            (3, 12, 3, 89, 0),
            (4, 8, 2, 92, 0),
            (1, 1000, 1, 669, 2),
        ],
    )
    def test_nodes_and_solutions(self, n, ell, e, nodes, count):
        report = enumerate_perfect_codes(
            SearchProblem(SimplexSpace(n, ell), e, count_only=True)
        )
        assert (report.nodes_explored, report.solution_count) == (nodes, count)


class TestTrivialCells:
    """e = 0 or ell <= e: each ball is one point or the whole space."""

    def test_rule_reports_what_the_solver_would(self):
        for n in range(0, 6):
            for ell in range(0, 9):
                space = SimplexSpace(n, ell)
                for e in [0] + list(range(max(ell, 1), 6)):
                    for max_solutions in (0, 1, 2):
                        problem = SearchProblem(space, e, max_solutions=max_solutions)
                        report = enumerate_perfect_codes(problem)
                        table: dict = {}
                        _, nodes = search._exact_covers(
                            space, e, table, max_solutions=max_solutions
                        )
                        assert (report.solution_count, report.solutions) == (0, ())
                        assert report.nodes_explored == nodes == space.size() + 1
                        assert e == 0 or not table  # ell <= e never builds a ball

    def test_widest_corner_skips_the_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(search, "_exact_covers", refuse)
        space = SimplexSpace(49_999, 1)
        report = enumerate_perfect_codes(SearchProblem(space, 1, symmetry_reduction=True))
        assert (report.solution_count, report.orbit_count) == (0, 0)
        assert report.nodes_explored == 50_001


class TestDeepSearch:
    def test_largest_binary_cell_under_default_budget(self):
        # One search level per codeword: 16,667 levels, far past the
        # interpreter's recursion limit.
        space = SimplexSpace(1, 49_999)
        assert space.size() == DEFAULT_POINT_BUDGET
        report = enumerate_perfect_codes(SearchProblem(space, 1))
        assert len(report.solutions) == 2 == count_binary_perfect(49_999, 1)
        assert report.nodes_explored == 33_335


class TestOptionsAndBudgets:
    def test_count_only_omits_solutions(self):
        report = enumerate_perfect_codes(
            SearchProblem(SimplexSpace(2, 7), 2, count_only=True)
        )
        assert report.solutions is None
        assert report.solution_count == 2
        assert "solutions" not in report.to_dict()

    def test_max_solutions_truncates_and_is_echoed(self):
        report = enumerate_perfect_codes(
            SearchProblem(SimplexSpace(1, 7), 1, max_solutions=1)
        )
        assert report.solution_count == 1
        assert report.to_dict()["problem"]["max_solutions"] == 1

    def test_truncated_report_identical_run_to_run(self):
        p = SearchProblem(SimplexSpace(1, 7), 1, max_solutions=1)
        assert enumerate_perfect_codes(p).to_dict() == enumerate_perfect_codes(p).to_dict()

    def test_point_budget(self):
        with pytest.raises(BudgetExceededError, match="point budget"):
            enumerate_perfect_codes(
                SearchProblem(SimplexSpace(2, 7), 2, point_budget=10)
            )

    def test_point_budget_counts_coordinates(self):
        # A space with ell = 0 has one point, but that point has n+1 coordinates.
        with pytest.raises(BudgetExceededError, match="coordinates, over the point budget"):
            enumerate_perfect_codes(SearchProblem(SimplexSpace(10**9, 0), 0, point_budget=10))

    @pytest.mark.parametrize("e", [True, 2.0, "2", np.int64(2)])
    def test_radius_must_be_an_int(self, e):
        # Refused up front: the solver's inner spaces would refuse it as their ell.
        with pytest.raises(ValueError) as info:
            SearchProblem(SimplexSpace(2, 7), e)
        assert str(info.value) == f"e must be an integer, got {e!r}"

    @pytest.mark.parametrize("name", ["max_solutions", "point_budget"])
    @pytest.mark.parametrize("value", [True, 1.5, "1", np.int64(1)])
    def test_options_must_be_ints(self, name, value):
        # 1.5 would never truncate, and np.int64 would crash to_json.
        with pytest.raises(ValueError) as info:
            SearchProblem(SimplexSpace(1, 13), 1, **{name: value})
        assert str(info.value) == f"{name} must be an integer, got {value!r}"

    def test_orbit_counting(self):
        report = enumerate_perfect_codes(
            SearchProblem(SimplexSpace(2, 7), 2, symmetry_reduction=True)
        )
        assert report.orbit_count == 1
        assert report.solution_count >= report.orbit_count
        report2 = enumerate_perfect_codes(
            SearchProblem(SimplexSpace(1, 7), 1, symmetry_reduction=True)
        )
        assert report2.orbit_count == 1  # the two codes mirror each other


class TestDeterminism:
    @pytest.mark.parametrize("n,ell,e", [(2, 7, 2), (1, 13, 1), (3, 5, 1)])
    def test_reports_identical_run_to_run(self, n, ell, e):
        # Three runs of a cell give one report, byte for byte.
        problem = SearchProblem(SimplexSpace(n, ell), e, symmetry_reduction=True)
        texts = [enumerate_perfect_codes(problem).to_json() for _ in range(3)]
        assert texts[0] == texts[1] == texts[2]

    def test_repeated_runs_identical(self):
        problem = SearchProblem(SimplexSpace(2, 10), 3)
        a = enumerate_perfect_codes(problem).to_dict()
        assert a == enumerate_perfect_codes(problem).to_dict()


class TestCanonicalize:
    def test_mirror_codes_share_canonical_form(self):
        for e in (1, 2, 3):
            c1 = canonicalize_code(construct_ternary_perfect(e, 1))
            c2 = canonicalize_code(construct_ternary_perfect(e, 2))
            assert c1.codewords == c2.codewords

    def test_idempotent(self):
        for code in (
            construct_ternary_perfect(2, 1),
            construct_binary_perfect(9, 1, 1),
            Code(SimplexSpace(3, 4), ((1, 1, 1, 1), (4, 0, 0, 0))),
        ):
            once = canonicalize_code(code)
            assert canonicalize_code(once).codewords == once.codewords

    def test_corner_singleton_is_its_own_form(self):
        code = Code(SimplexSpace(2, 7), ((7, 0, 0),))
        assert canonicalize_code(code).codewords == ((7, 0, 0),)

    def test_separates_distinct_orbits(self):
        a = Code(SimplexSpace(1, 9), ((9, 0), (0, 9)))
        b = Code(SimplexSpace(1, 9), ((9, 0), (5, 4)))
        assert canonicalize_code(a).codewords != canonicalize_code(b).codewords


# Small spaces, and spaces whose matrices hold exact integers ((0, 10**30) and
# (1, 2**63 - 2)) or int64 entries past int32 ((2, 3 * 10**9), a ternary
# space of 4.5 * 10**18 points).
ORACLE_CODE_SPACES = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 6)),
    st.sampled_from([(0, 10**30), (1, 2**63 - 2), (2, 3 * 10**9)]),
)


@st.composite
def random_codes(draw):
    """A code of up to 12 distinct codewords with no, a zero or a positive radius claim."""
    n, ell = draw(ORACLE_CODE_SPACES)

    def point():
        cuts = sorted(draw(st.lists(st.integers(0, ell), min_size=n, max_size=n)))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, ell]))

    words = dict.fromkeys(point() for _ in range(draw(st.integers(1, 12))))
    claim = draw(st.one_of(st.none(), st.integers(0, 3)))
    return Code(SimplexSpace(n, ell), words, radius_claim=claim)


def outcome(f, code):
    try:
        return f(code)
    except ValueError as exc:
        return str(exc)


class TestAgainstTupleForms:
    """canonicalize_code and min_distance work on the code matrix;
    oracles.tuple_canonicalize_code and oracles.pair_min_distance are the
    tuple-by-tuple sort and the pair loop they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(random_codes())
    def test_same_forms_dtypes_and_distances(self, code):
        new, old = canonicalize_code(code), oracles.tuple_canonicalize_code(code)
        assert new == old and new.matrix.dtype == old.matrix.dtype
        assert new.matrix.tolist() == old.matrix.tolist() and not new.matrix.flags.writeable
        distance = outcome(min_distance, code)
        assert distance == outcome(oracles.pair_min_distance, code)
        assert type(distance) is (int if len(code) > 1 else str)
        assert outcome(min_distance, new) == distance


class TestPredictions:
    @pytest.mark.parametrize(
        "n,ell,e,expected",
        [
            (2, 4, 1, 2),
            (1, 9, 1, 1),
            (3, 4, 1, 0),
            (2, 7, 2, 2),
            (2, 9, 2, 0),
            (1, 2, 1, 0),
            (4, 10, 2, 0),
            (1, 9, 0, 0),
            (2, 1, 0, 0),  # ell = 3e + 1, yet e = 0 admits no nontrivial code
            (0, 3, 1, 0),
            (0, 0, 1, 0),
        ],
    )
    def test_closed_forms(self, n, ell, e, expected):
        assert predicted_perfect_count(n, ell, e) == expected


class TestSweep:
    def test_small_grid_agrees(self):
        report = verify_theorem_sweep(5, 12, 3)
        assert report.all_agree
        assert not report.any_skipped
        assert len(report.cells) == 5 * 12 * 3

    def test_tsv_layout(self):
        report = verify_theorem_sweep(1, 4, 1)
        assert report.to_tsv() == (
            "n\tell\te\tpredicted\tfound\tagree\n"
            "1\t1\t1\t0\t0\tyes\n"
            "1\t2\t1\t0\t0\tyes\n"
            "1\t3\t1\t1\t1\tyes\n"
            "1\t4\t1\t2\t2\tyes\n"
        )

    def test_budget_marks_cells_skipped(self):
        report = verify_theorem_sweep(2, 9, 1, point_budget=12)
        assert report.any_skipped
        skipped = [c for c in report.cells if c.skipped]
        assert skipped
        assert all(c.found is None and c.agree is None for c in skipped)
        assert "skipped" in report.to_tsv()

    def test_json_dict_shape(self):
        d = verify_theorem_sweep(1, 3, 1).to_dict()
        assert d["all_agree"] is True
        assert {"n", "ell", "e", "predicted", "found", "agree"} == set(d["cells"][0])

    def test_refuses_grids_larger_than_the_budget(self):
        limit = DEFAULT_POINT_BUDGET
        with pytest.raises(BudgetExceededError, match=f"{limit + 1} cells"):
            verify_theorem_sweep(1, 1, limit + 1, point_budget=10)
        with pytest.raises(BudgetExceededError, match=f"over the limit of {2 * limit}"):
            verify_theorem_sweep(10**9, 1, 1, point_budget=2 * limit)

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("value", [True, 3.0, np.int64(3)])
    def test_bounds_must_be_ints(self, index, value):
        # True would run as 1.
        bounds = [1, 3, 1]
        bounds[index] = value
        with pytest.raises(ValueError) as info:
            verify_theorem_sweep(*bounds)
        name = ("n_max", "ell_max", "e_max")[index]
        assert str(info.value) == f"{name} must be an integer, got {value!r}"

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            verify_theorem_sweep(0, 5, 1)
