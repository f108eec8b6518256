"""Exhaustive enumeration of perfect codes by exact-cover search.

A set of codewords is an e-perfect code exactly when the radius-e balls
around the codewords partition the space. Enumerating all perfect codes is
therefore an exact-cover problem: the universe is the point set, the
candidate sets are the balls B(x, e) for every center x, and a perfect code
is a selection of pairwise-disjoint balls whose union is the whole space.

The solver is a depth-first exact-cover search over bitmasks of point ids.
It always branches on the first uncovered point p in enumeration order,
which starts at the (ell, 0, ..., 0) corner where clipped balls leave the
fewest choices, and tries the balls whose lowest point it is, in center
order. Its state is a window: the covered ids from p on, shifted down by
p. A search level is one item in each of five flat lists (its balls, the
next one to try, its window, p and clip), not a container of its own, and
backtracking restores them in place. Centers follow from the point's
coordinates, so a ball is built only when the search first reaches its
lowest point. Solutions are reported in the canonical order induced by the
point enumeration.

A point's id depends only on its coordinates 1..n, not on ell (the
ell-shift in the simplex module), so the radius-e balls whose lowest point
is id p are the same for every ell > e, apart from a clip at the face
x_0 = 0. A table keyed by p holds them: the tail mass of p and, for each
ball starting at p, its center's coordinates 1..n, the bitmask of its
unclipped ids walked so far shifted down by p and the first id not yet
walked (-1 at the end). A search adds p's entry, the same for every ell, as
it first reaches p, and walks a ball only until it meets a covered id. On
n = 1 every ball is one run, so an entry is written in closed form, walked
to its end, as nested tuples of ints, which the garbage collector stops
tracking once it has seen them. Each enumerate_perfect_codes call starts
an empty table; a verify_theorem_sweep call keeps one table per (n, e), so
the balls walked for one ell serve every other ell of the same n and e, and
drops them when it moves on to the next n.

Counting convention: codes are counted as labeled point sets. Two codes
that are coordinate permutations of each other count separately; the
optional orbit count identifies them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations

from .codes import Code, _sort_rows, count_binary_perfect, is_perfect
from .errors import BudgetExceededError
from .simplex import Point, SimplexSpace, _check_ints, ball_runs, enumerate_space, point_at

DEFAULT_POINT_BUDGET = 50_000


@dataclass(frozen=True)
class SearchProblem:
    """One exhaustive-search instance: a space, a radius, and options.

    max_solutions = 0 means unbounded; otherwise the search stops after the
    first max_solutions codes it meets in depth-first order. point_budget
    bounds the space size and the number of coordinates per point.
    """

    space: SimplexSpace
    e: int
    max_solutions: int = 0
    count_only: bool = False
    symmetry_reduction: bool = False
    point_budget: int = DEFAULT_POINT_BUDGET

    def __post_init__(self) -> None:
        _check_ints(e=self.e, max_solutions=self.max_solutions, point_budget=self.point_budget)
        if self.e < 0:
            raise ValueError(f"e must be >= 0, got {self.e}")
        for name in ("max_solutions", "point_budget"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class SearchReport:
    """Everything a finished search found, plus how much work it took."""

    problem: SearchProblem
    solution_count: int
    solutions: tuple[Code, ...] | None
    orbit_count: int | None
    nodes_explored: int

    def to_dict(self) -> dict:
        p = self.problem
        out: dict = {
            "problem": {
                "n": p.space.n,
                "ell": p.space.ell,
                "e": p.e,
                "max_solutions": p.max_solutions,
                "count_only": p.count_only,
                "symmetry_reduction": p.symmetry_reduction,
                "point_budget": p.point_budget,
            },
            "solution_count": self.solution_count,
        }
        if self.solutions is not None:
            out["solutions"] = [
                [list(w) for w in code.codewords] for code in self.solutions
            ]
        if self.orbit_count is not None:
            out["orbit_count"] = self.orbit_count
        out["nodes_explored"] = self.nodes_explored
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _centers(p: Point, e: int, spreads: dict) -> list[Point]:
    """Centers, ascending by id, of the radius-e balls whose lowest point is p.

    B(c, e) starts at c with m = min(e, ell - c_0) moved onto coordinate 0,
    taken from the last coordinates first. Undoing it spreads m from p_0 over
    z..n, z being p's last nonzero coordinate: m = e, or min(e, p_0) at the
    corner (z = 0). Spreads, cached in spreads, come in enumeration order.
    """
    z = len(p) - 1
    while z and not p[z]:
        z -= 1
    m = min(e, p[0]) if z == 0 else e
    if p[0] < m:
        return []
    key = (len(p) - z, m)
    if key not in spreads:
        spreads[key] = list(enumerate_space(SimplexSpace(key[0] - 1, m)))
    head = (p[0] - m,) + p[1:z + 1]
    return [head[:z] + (head[z] + s[0],) + s[1:] for s in spreads[key]]


def _starting(space: SimplexSpace, p: int, e: int, spreads: dict) -> tuple[int, list | tuple]:
    """The ball-table entry of id p of space: the tail mass of p's point pt, and
    the radius-e balls whose lowest point is the representative (e, pt_1, ..., pt_n).

    Each ball is (center's coordinates 1..n, bitmask of its ids walked so far
    shifted down by p, first id not yet walked or -1 once walked to its end),
    its ids those of the representative (e, c_1, ..., c_n). So the entry does
    not depend on pt_0 = ell - tail mass, and one entry serves every ell > e:
    the search gives p no candidates when pt_0 < e. The balls are a list,
    unwalked, except on n = 1: there pt = (ell - p, p), the centers' tails are
    (t,) for t = 0..e at the corner and (p + e,) elsewhere, and each ball is
    its one run, so the balls are a tuple, walked to their ends, and the
    search never walks them.
    """
    if space.n == 1:
        tails = range(e + 1) if p == 0 else (p + e,)
        return p, tuple(
            ((t,), ((1 << len(r)) - 1) << (r.start - p), -1)
            for t in tails
            for r in ball_runs((e, t), e)
        )
    pt = point_at(space, p)
    return sum(pt[1:]), [(c[1:], 0, p) for c in _centers((e,) + pt[1:], e, spreads)]


def _exact_covers(space: SimplexSpace, e: int, balls: dict, *, max_solutions: int):
    """Partitions of the space into two or more radius-e balls, and the node count.

    Each partition is a tuple of centers in the order they were chosen.
    The search stops after max_solutions partitions (0 = find them all).

    Once every point below p is covered, a ball that covers p and is
    disjoint from the covered set has its lowest point at p, so the
    candidates for the first uncovered point p are the balls starting
    there: balls[p] (_starting), built the first time a search given this
    table reaches p. balls is read and filled here, and lives as long as the
    caller keeps it: one search, or the cells of one sweep with this n and
    e. Only this reads ell: p_0 and each center's c_0 are ell minus a tail
    mass, p has no candidates when p_0 < e, and a ball with c_0 < e crosses
    the face x_0 = 0, so its mask is cut to the space (the level's clip,
    applied when a ball is taken). covered is the window (see the module
    docstring), so no node works on the ids below p. The stack is five flat
    lists, one item per level in each: the balls starting at its p, the
    index of the next one to try, its window, its p and its clip. A level
    holds no container of its own. Its balls are tried in order: one whose
    mask meets the window is skipped, and one not walked to its end is first
    walked on until it meets the window or ends (binary entries are built
    walked). Depth-first, without recursion.

    When ell <= e every ball is the whole space: the search meets the root
    and one single-ball cover per point, and reads no table.
    """
    size, ell = space.size(), space.ell
    if ell <= e:
        return [], size + 1
    spreads: dict = {}
    covered, p, chosen, sols, nodes = 0, 0, [], [], 0
    level_balls, level_next, level_window, level_p, level_clip = [], [], [], [], []
    while True:
        nodes += 1
        skip = (~covered & (covered + 1)).bit_length() - 1  # step past the covered prefix
        p, covered = p + skip, covered >> skip
        if p == size:
            if len(chosen) >= 2:
                sols.append(tuple((ell - sum(c),) + c for c in chosen))
                if len(sols) == max_solutions:
                    break
        else:
            entry = balls.get(p)
            if entry is None:
                entry = balls[p] = _starting(space, p, e, spreads)
            mass, starting = entry
            if ell - mass >= e:  # else p has no candidates and the node is a leaf
                level_balls.append(starting)
                level_next.append(0)
                level_window.append(covered)
                level_p.append(p)
                # p_0 >= 2e: every center has c_0 >= p_0 - e >= e, so no clip
                level_clip.append(-1 if ell - mass >= 2 * e else (1 << (size - p)) - 1)
        # Backtrack to the deepest level with an untried candidate and take it.
        while level_balls:
            if len(chosen) == len(level_balls):
                chosen.pop()
            starting, k, window = level_balls[-1], level_next[-1], level_window[-1]
            # An entry's balls are walked only here, while their level is on
            # top, and every level above it has a larger p: so they do not
            # change while the level waits on the stack, and the balls tried
            # are those disjoint from its window, each walked to its end.
            end = len(starting)
            while k < end:
                c, mask, front = starting[k]
                if front >= 0 and not mask & window:  # walk on until it meets window
                    q = level_p[-1]
                    for r in ball_runs((e,) + c, e):
                        if r.start >= front:
                            mask |= ((1 << len(r)) - 1) << (r.start - q)
                            if mask & window:
                                starting[k] = (c, mask, r.stop)
                                break
                    else:
                        starting[k] = (c, mask, -1)
                k += 1
                if not mask & window:
                    break
            else:
                del level_balls[-1], level_next[-1], level_window[-1], level_p[-1], level_clip[-1]
                continue
            level_next[-1] = k
            chosen.append(c)
            covered, p = window | (mask & level_clip[-1]), level_p[-1]
            break
        else:
            break
    return sols, nodes


def enumerate_perfect_codes(problem: SearchProblem) -> SearchReport:
    """Find every nontrivial e-perfect code in the space.

    Solutions with fewer than two codewords (a single ball swallowing the
    space) are never reported, and e = 0 admits no nontrivial code by
    definition; when e = 0 or ell <= e that leaves none, so the solver is
    not run. Every emitted code is re-verified with is_perfect.
    """
    return _enumerate(problem, None)


def _enumerate(problem: SearchProblem, balls: dict | None) -> SearchReport:
    """enumerate_perfect_codes, reading and filling the ball table balls, or
    a table of its own when balls is None, dropped as soon as the solver
    returns: on (1, 49999, 1) its 33,333 entries take about 11 MB."""
    space, e = problem.space, problem.e
    size = space.size()
    if size > problem.point_budget:
        raise BudgetExceededError(
            f"space has {size} points, over the point budget of {problem.point_budget}"
        )
    if space.n + 1 > problem.point_budget:  # ell = 0: one point, but a wide one
        raise BudgetExceededError(
            f"points have {space.n + 1} coordinates, over the point budget of "
            f"{problem.point_budget}"
        )
    if e and space.ell > e:
        table = {} if balls is None else balls
        raw, nodes = _exact_covers(space, e, table, max_solutions=problem.max_solutions)
        del table  # a table of this search's own goes now, not when the codes are built
    else:  # Each ball is one point or the whole space: the solver meets size + 1 nodes.
        raw, nodes = [], size + 1

    codes = []
    for sol in raw:
        code = Code(space, sol, radius_claim=e)
        if not is_perfect(code, e):
            raise AssertionError(f"search produced a non-perfect code: {code!r}")
        codes.append(code)
    if not problem.count_only:  # the orbit count is a set: only a kept list needs the order
        codes.sort(key=lambda c: c.codewords, reverse=True)

    orbit_count = None
    if problem.symmetry_reduction:
        orbit_count = len({canonicalize_code(c).codewords for c in codes})
    return SearchReport(
        problem=problem,
        solution_count=len(codes),
        solutions=None if problem.count_only else tuple(codes),
        orbit_count=orbit_count,
        nodes_explored=nodes,
    )


def canonicalize_code(code: Code) -> Code:
    """Canonical representative of a code under coordinate permutations.

    Of the (n+1)! column permutations of the code matrix (each with its rows
    re-sorted into canonical codeword order), picks the one whose codeword list comes first in the
    canonical point order. Idempotent; two codes have equal canonical forms
    exactly when one is a coordinate permutation of the other.
    """
    images = (_sort_rows(code.matrix[:, perm]) for perm in permutations(range(code.space.n + 1)))
    return Code._of(code.space, max(images, key=lambda a: a.tolist()), code.radius_claim)


def predicted_perfect_count(n: int, ell: int, e: int) -> int:
    """Closed-form count of nontrivial e-perfect codes in the simplex.

    Binary alphabet: min(r+1, 2e+1-r) codes once ell >= 2e+1, where r is
    ell mod (2e+1). Ternary alphabet: exactly 2 codes when ell = 3e+1 and
    none otherwise. Larger alphabets admit none at all. The search sweep
    checks these predictions cell by cell.
    """
    if e < 1 or n < 1:
        return 0
    if n == 1:
        return count_binary_perfect(ell, e)
    if n == 2:
        return 2 if ell == 3 * e + 1 else 0
    return 0


@dataclass(frozen=True)
class SweepCell:
    n: int
    ell: int
    e: int
    predicted: int
    found: int | None  # None when the cell was skipped over budget

    @property
    def skipped(self) -> bool:
        return self.found is None

    @property
    def agree(self) -> bool | None:
        return None if self.skipped else self.found == self.predicted


@dataclass(frozen=True)
class SweepReport:
    """Grid of search-vs-prediction cells from verify_theorem_sweep."""

    cells: tuple[SweepCell, ...]

    @property
    def all_agree(self) -> bool:
        return all(c.agree for c in self.cells if not c.skipped)

    @property
    def any_skipped(self) -> bool:
        return any(c.skipped for c in self.cells)

    def to_tsv(self) -> str:
        lines = ["n\tell\te\tpredicted\tfound\tagree"]
        for c in self.cells:
            found = "skipped" if c.skipped else str(c.found)
            agree = "skipped" if c.skipped else ("yes" if c.agree else "no")
            lines.append(f"{c.n}\t{c.ell}\t{c.e}\t{c.predicted}\t{found}\t{agree}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "cells": [
                {
                    "n": c.n,
                    "ell": c.ell,
                    "e": c.e,
                    "predicted": c.predicted,
                    "found": c.found,
                    "agree": c.agree,
                }
                for c in self.cells
            ],
            "all_agree": self.all_agree,
            "any_skipped": self.any_skipped,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def verify_theorem_sweep(
    n_max: int,
    ell_max: int,
    e_max: int,
    *,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> SweepReport:
    """Exhaustively search every (n, ell, e) cell and compare with the closed forms.

    Cells whose space exceeds the point budget are marked skipped, never
    silently dropped: a nonexistence confirmation is only as good as the
    range it actually covered. A grid of more cells than the point budget,
    or than DEFAULT_POINT_BUDGET if that is larger, is refused before any
    cell is visited. The cells of one n and e share a ball table (_exact_covers).
    """
    _check_ints(n_max=n_max, ell_max=ell_max, e_max=e_max)
    if n_max < 1 or ell_max < 1 or e_max < 1:
        raise ValueError("sweep bounds must all be >= 1")
    grid, limit = n_max * ell_max * e_max, max(point_budget, DEFAULT_POINT_BUDGET)
    if grid > limit:
        raise BudgetExceededError(f"sweep grid has {grid} cells, over the limit of {limit}")
    cells = []
    for n in range(1, n_max + 1):
        tables: dict[int, dict] = {}
        for ell in range(1, ell_max + 1):
            for e in range(1, e_max + 1):
                predicted = predicted_perfect_count(n, ell, e)
                try:
                    problem = SearchProblem(
                        SimplexSpace(n, ell), e, count_only=True, point_budget=point_budget
                    )
                    report = _enumerate(problem, tables.setdefault(e, {}))
                except (BudgetExceededError, OverflowError):
                    cells.append(SweepCell(n, ell, e, predicted, None))
                else:
                    cells.append(SweepCell(n, ell, e, predicted, report.solution_count))
    return SweepReport(tuple(cells))
