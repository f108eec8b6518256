"""Naive reference implementations used as independent oracles.

Everything here recomputes results from first principles (filtering the
enumerated space, unpruned backtracking) and deliberately avoids the
package's own neighbor/ball/decoder machinery, so agreement is meaningful.
neighbors and ball are the breadth-first ball that the package used before
the id walk replaced it, kept unchanged as a second ball oracle; it costs
about n^2 per ball point, so keep it to small alphabets. ball_ids is that
id walk as it listed a ball one id at a time, before the walk learned to
list runs of consecutive ids (simplex.ball_runs); kept unchanged, it pins
the runs. minmax_ball_runs is simplex.ball_runs as it took each row's
bounds and each child's pos and neg with min and max and recomputed each
row's first id, before those became conditional expressions and running
sums; kept unchanged apart from its name, it pins the runs run for run.
dict_is_perfect is the perfectness check that recorded an owner
per id in a dict over ball_ids, before is_perfect decided over sorted runs
with numpy; kept unchanged, it pins results and witnesses.
expanded_is_perfect is is_perfect as it found its double-cover witness by
spelling every walked ball out id by id and stably sorting the ids, before
it read the witness off the sorted runs; kept unchanged apart from the
budget, it is the second perfectness oracle.
_ExactCover is the dict-of-sets Algorithm X solver that the package's
search ran before the bitset solver replaced it, kept unchanged as a second
exact-cover oracle. _exact_covers is that bitset solver as it ran over a
cover matrix of every ball in the space, before the search learned to build
each ball from its lowest point when it first needs it; kept unchanged, it
pins the search's choices and node counts. eager_starting and
eager_exact_covers are search._starting and search._exact_covers as they
walked every ball starting at an id to its end when the search first
reached that id, before the search learned to walk a ball only until it
meets a covered id; kept unchanged apart from their names, they pin the
lazy walk's choices and node counts on fresh and shared ball tables.
list_stack_starting, list_stack_walk and list_stack_exact_covers are
search._starting, search._walk and search._exact_covers as they held each
stack level as a tuple of an iterator over a filtered candidate list, its
window and its p, and built every entry, n = 1 too, unwalked from the
point, before binary entries were written walked in closed form and the
stack became flat lists; kept unchanged apart from their names, they pin
the flat stack's choices and node counts on fresh and shared ball tables.
_noisy_variants is the
position-level noise enumerator that the channel's exhaustive mode ran
before the count-domain model replaced it, kept unchanged as the channel
oracle.
count_noise_patterns is the closed-form pattern count that guarded
exhaustive runs before the channel's early-exit product replaced it, kept
as the reference formula. _sample, python_decode_received and
scalar_sampled_experiment are the sampler that drew one event at a time
by walking its transition list, and the per-vector Python decoder, as a
sampled run used them before the array sampler and the codeword-matrix
decode replaced them; kept unchanged as the second channel oracle, they pin
the array path's draws and outcomes. _events, _transitions and
transition_dp_exhaustive are the per-event transition lists and the
per-codeword Counter DP over them that exhaustive mode ran before it
walked the sampler's own event pick (channel._event) run by run; kept
unchanged, they are the second exhaustive oracle, and _sample walks the
same lists. two_guard_check is the run check as two guards before the
event-work price took in the step guard: a step guard on events x runs, a
closed-form heaviest event weight, the work prices, then the pattern
product in exhaustive mode; kept as the reference for which runs the
channel refuses.
tuple_sample_run is channel._sample_run as it tallied a chunk of trials
one (sent, received) tuple per trial into its Counter, before it sorted
each chunk's rows and counted each distinct pair once; kept unchanged
apart from its count matrix, which stays int64 (exact integers from 2**63
on) now that the package's matrices take the narrowest type, it pins the
sorted tally's keys and counts. row_sample_run is channel._sample_run as
it moved every trial's own row of counts through every event, before
trials held ids of their chunk's distinct states and alike trials moved
once; kept unchanged, it is the second sorted-tally oracle and pins the
grouped moves' histograms and stream. sorted_move_sample_run is
channel._sample_run as it moved alike trials once by grouping them per
event with an np.lexsort on (state, draw) and applying _event once per
distinct pair (its _move), before each event became one lookup per trial
in a table over the chunk's merged count vectors; kept unchanged apart
from taking the first three of _tally's arrays, it pins the tables'
histograms and stream. lexsort_sample_run is channel._sample_run as it
drew each chunk from a read-only np.broadcast_to view of the bounds and,
when every event took the table, tallied the chunk by (sent, state) with
channel._tally's np.lexsort, before it drew from one bounds row broadcast
against the chunk's shape and counted the trials by one integer key with
np.unique; kept unchanged apart from its name, cfg's annotation and
reading channel._SAMPLE_CELLS, it pins the arrays, dtypes included, and
the stream. counter_exhaustive_run is
channel._exhaustive_run as it merged the DP's states in a Counter keyed
by (sent index, tuple of counts), before channel._tally merged them as
arrays; kept unchanged, it is the third exhaustive oracle.
loop_codewords is Code.__post_init__'s codeword check as it ran before
the array passes: a make_point per codeword, the duplicate set, then a
sort. Kept unchanged, it pins the canonical order and every error.
tuple_canonicalize_code is search.canonicalize_code as it permuted and
sorted the codewords tuple by tuple, before it permuted the columns of the
code matrix and sorted their rows with codes' lexsort; pair_min_distance is
codes.min_distance as it took the distance of each pair of codewords in a
Python loop, before it read the decoder's blocked L1 scores. Kept unchanged
apart from their names, they pin canonical forms, dtypes and distances.
bisect_point_at is simplex.point_at as it found the mass of every level
k >= 2 by a binary search over C(m-1+k, k), before the k = 2 level took
the closed form m = (isqrt(8j+1) - 1) // 2; kept unchanged apart from its
name, it pins that level's ids.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, count, permutations, repeat
from math import comb
from typing import Iterator

import numpy as np

from simplexcode import (
    AmbiguousDecodeError,
    BudgetExceededError,
    Code,
    ExperimentStats,
    PerfectnessResult,
    Point,
    SimplexSpace,
    channel,
    decode_received,
    enumerate_space,
)
from simplexcode.channel import _event, _rng, _schedule, _step, _tally
from simplexcode.codes import _CHUNK_CELLS, _matrix
from simplexcode.search import _centers
from simplexcode.simplex import ball_runs, distance, format_point, make_point, point_at

SymbolSequence = tuple[int, ...]

# Spaces the brute-force oracles are run against: every cell in this grid
# has at most 500 points, covering all alphabet sizes the classification
# criteria exercise plus a 6-symbol row.
ORACLE_FAMILY = {1: 30, 2: 30, 3: 10, 4: 7, 5: 5}


def symmetric_difference(a, b) -> int:
    """Unhalved L1 distance between count vectors of any cardinalities."""
    return sum(abs(x - y) for x, y in zip(a, b, strict=True))


def surplus_distance(x, y) -> int:
    """One-sided surplus form of the metric: sum of x_i - y_i over x_i > y_i."""
    return sum(a - b for a, b in zip(x, y) if a > b)


def bf_neighbors(space: SimplexSpace, x):
    return {y for y in enumerate_space(space) if surplus_distance(x, y) == 1}


def bf_ball(space: SimplexSpace, x, e: int):
    return {y for y in enumerate_space(space) if surplus_distance(x, y) <= e}


def neighbors(x: Point) -> set[Point]:
    """All points at distance exactly 1 from x.

    A neighbor adds 1 to one coordinate and subtracts 1 from another, so a
    coordinate can only donate if it is positive. Interior points of a
    two-dimensional simplex have six neighbors (the hexagonal grid);
    boundary points have fewer.
    """
    out = set()
    for j, c in enumerate(x):
        if c == 0:
            continue
        for i in range(len(x)):
            if i == j:
                continue
            y = list(x)
            y[j] -= 1
            y[i] += 1
            out.add(tuple(y))
    return out


def ball(x: Point, e: int) -> set[Point]:
    """All points within distance e of x: the decoding region of x.

    Grown by breadth-first expansion over neighbors, so the cost is
    proportional to the ball itself rather than the whole space. Near the
    simplex boundary the ball is clipped automatically because neighbors
    never leave the simplex.
    """
    if e < 0:
        raise ValueError(f"radius must be >= 0, got {e}")
    seen = {x}
    frontier = {x}
    for _ in range(e):
        frontier = {y for p in frontier for y in neighbors(p)} - seen
        if not frontier:
            break
        seen |= frontier
    return seen


def bisect_point_at(space: SimplexSpace, j: int) -> Point:
    """The point x at position j of enumeration order, counted from 0.

    The points before x that first differ from it at coordinate i < n leave
    less than x's mass R to the later coordinates: C(R-1+n-i, n-i) points.
    So coordinate i leaves them the largest mass m whose C(m-1+n-i, n-i)
    earlier points do not pass j: a binary search, or m = j when i = n-1.
    """
    if not 0 <= j < space.size():
        raise ValueError(f"id must be in [0, {space.size()}), got {j}")
    n, rest, out = space.n, space.ell, []
    for k in range(n, 0, -1):
        if k == 1:
            m = j
        else:
            m = bisect_right(range(rest + 1), j, key=lambda r: math.comb(r - 1 + k, k)) - 1
        j -= math.comb(m - 1 + k, k)
        out.append(rest - m)
        rest = m
    return tuple(out) + (rest,)


def ball_ids(x: Point, e: int) -> Iterator[int]:
    """Ids (enumeration positions) of the points within distance e of x, ascending.

    y is in the ball when the mass it adds to x (pos) and the mass it
    removes (neg) are at most e. The walk fixes y left to right, each coordinate from its
    largest admissible value down; every branch ends in a point of the ball.
    A branch ends at once when no mass is left or pos = neg = e (the rest of
    y is x's); while pos = e, y is 0 wherever x is, so it jumps past x's zeros.
    """
    if e < 0:
        raise ValueError(f"radius must be >= 0, got {e}")
    n = len(x) - 1
    # x_suf[i]: the share of x's id from coordinates i.. (x_suf[0] is x's id);
    # nonzero[i]: first j >= i with x[j] > 0, or n.
    x_suf, nonzero, mass = [0] * (n + 1), [n] * (n + 1), x[n]
    for i in range(n - 1, -1, -1):
        x_suf[i] = x_suf[i + 1] + comb(mass - 1 + n - i, n - i)
        nonzero[i] = i if x[i] else nonzero[i + 1]
        mass += x[i]
    stack = [(0, mass, 0, 0, 0)]  # (coordinate, mass left, pos, neg, id so far)
    while stack:
        i, rest, pos, neg, acc = stack.pop()
        if pos == neg == e:
            yield acc + x_suf[i]
        elif rest == 0 or i == n:
            yield acc
        elif pos == e and not x[i]:
            j = nonzero[i]
            skipped = comb(rest + n - i, n - i) - comb(rest + n - j, n - j)
            stack.append((j, rest, pos, neg, acc + skipped))
        else:
            c, k = x[i], n - i
            lo, hi = max(0, c - e + neg), min(rest, c + e - pos)
            if k == 1:  # only the last coordinate follows: the ids are consecutive
                yield from range(acc + rest - hi, acc + rest - lo + 1)
                continue
            for v in range(lo, hi + 1):
                stack.append((i + 1, rest - v, pos + max(v - c, 0), neg + max(c - v, 0),
                              acc + comb(rest - v - 1 + k, k)))


def minmax_ball_runs(x: Point, e: int) -> Iterator[range]:
    """The points within distance e of x as runs of consecutive ids (enumeration
    positions): ascending, disjoint and maximal, so adjacent runs are merged.

    y is in the ball when the mass it adds to x (pos) and the mass it
    removes (neg) are at most e. The walk fixes y left to right, each coordinate from its
    largest admissible value down; every branch ends in a point of the ball.
    A branch ends in one run when every way to finish y stays in the ball
    (the points below a branch are consecutive ids), and in one point when
    pos = neg = e (the rest of y is x's); while pos = e, y is 0 wherever x
    is, so it jumps past x's zeros. The last free coordinate leaves one run
    of ids per value of the one before it, so the last two are closed forms:
    no branch goes below them.
    """
    if e < 0:
        raise ValueError(f"radius must be >= 0, got {e}")
    n = len(x) - 1
    if n < 2:  # one point, or y_0 alone decides y: one run, ids ell - y_0
        c, ell = x[0], sum(x)
        yield range(ell - min(ell, c + e), ell - max(0, c - e) + 1) if n else range(1)
        return
    # x_suf[i]: the share of x's id from coordinates i.. (x_suf[0] is x's id);
    # low[i]: min of x[i:]; nonzero[i]: first j >= i with x[j] > 0, or n.
    x_suf, low, nonzero, mass = [0] * (n + 1), [x[n]] * (n + 1), [n] * (n + 1), x[n]
    for i in range(n - 1, -1, -1):
        c = x[i]
        x_suf[i] = x_suf[i + 1] + math.comb(mass - 1 + n - i, n - i)
        low[i] = c if c < low[i + 1] else low[i + 1]
        nonzero[i] = i if c else nonzero[i + 1]
        mass += c
    start = stop = 0  # the run being merged
    stack = [(0, mass, 0, 0, 0)]  # (coordinate, mass left, pos, neg, id so far)
    while stack:
        i, rest, pos, neg, acc = stack.pop()
        k = n - i
        if pos + rest - low[i] <= e:  # pos grows by at most rest - low[i]: all of it is in
            lo, hi = acc, acc + math.comb(rest + k, k)
        elif k == 2:  # per value v of y_i, y_{n-1} spans ids a - hi .. a - lo
            c, d = x[i], x[i + 1]
            for v in range(min(rest, c + e - pos), max(0, c - e + neg) - 1, -1):
                r = rest - v
                a = acc + r * (r + 3) // 2  # acc + C(r + 1, 2) + r
                if v > c:
                    lo, hi = a - min(r, d + e - pos - v + c), a - max(0, d - e + neg) + 1
                else:
                    lo, hi = a - min(r, d + e - pos), a - max(0, d - e + neg + c - v) + 1
                if lo == stop:
                    stop = hi
                else:
                    if stop:
                        yield range(start, stop)
                    start, stop = lo, hi
            continue
        elif pos == neg == e:
            lo = acc + x_suf[i]
            hi = lo + 1
        elif pos == e and not x[i]:
            j = nonzero[i]
            if j == n:  # y_n takes the rest: the last point below this branch
                lo = acc + math.comb(rest + k, k) - 1
                hi = lo + 1
            else:
                j = min(j, n - 2)
                skipped = math.comb(rest + k, k) - math.comb(rest + n - j, n - j)
                stack.append((j, rest, pos, neg, acc + skipped))
                continue
        else:
            c = x[i]
            for v in range(max(0, c - e + neg), min(rest, c + e - pos) + 1):
                stack.append((i + 1, rest - v, pos + max(v - c, 0), neg + max(c - v, 0),
                              acc + math.comb(rest - v - 1 + k, k)))
            continue
        if lo == stop:
            stop = hi
        else:
            if stop:
                yield range(start, stop)
            start, stop = lo, hi
    yield range(start, stop)


def dict_is_perfect(code: Code, e: int) -> PerfectnessResult:
    """is_perfect's results and witnesses, from an owner per id in a dict (no budget)."""
    owner: dict[int, Point] = {}
    for c in code.codewords:
        for j in ball_ids(c, e):
            prev = owner.get(j)
            if prev is not None:
                return PerfectnessResult(False, double_covered=(point_at(code.space, j), prev, c))
            owner[j] = c
    if len(owner) != code.space.size():
        j = next(j for j in count() if j not in owner)
        return PerfectnessResult(False, uncovered=point_at(code.space, j))
    return PerfectnessResult(True)



def _by_start(starts: list[int], stops: list[int]):
    """Runs [start, stop) sorted by start, and whether any two of them overlap."""
    starts, stops = np.array(starts), np.array(stops)
    order = np.argsort(starts)
    start, stop = starts[order], stops[order]
    return start, stop, bool((start[1:] < np.maximum.accumulate(stop[:-1])).any())


def expanded_is_perfect(code: Code, e: int) -> PerfectnessResult:
    """is_perfect's results and witnesses, from the same walk over runs, with the
    double-cover witness read off every walked id after a stable sort (no budget)."""
    if e < 0:
        raise ValueError(f"radius must be >= 0, got {e}")
    size = code.space.size()
    starts, stops, owners, walked, check = [], [], [], 0, min(1024, size + 1)
    for w, c in enumerate(code.codewords):
        for r in ball_runs(c, e):
            starts.append(r.start)
            stops.append(r.stop)
            owners.append(w)
            walked += len(r)
        # Once two balls overlap, later balls cannot change the witness: look
        # for an overlap at each doubling of the walked ids, and at the latest
        # once the balls hold more ids than the space.
        if walked >= check:
            if _by_start(starts, stops)[2]:
                break
            check = min(2 * walked, size + 1)
    start, stop, overlap = _by_start(starts, stops)
    if not overlap:  # the first uncovered id opens the first gap
        gaps = np.flatnonzero(start[1:] != stop[:-1])
        j = 0 if start[0] else int(stop[gaps[0]] if len(gaps) else stop[-1])
        if j == size:
            return PerfectnessResult(True)
        return PerfectnessResult(False, uncovered=point_at(code.space, j))
    # Every walked id, tagged with its codeword: the stable sort keeps the
    # tags of each id in canonical order, so an id's repeat follows an earlier ball.
    starts, stops = np.array(starts), np.array(stops)
    lengths = stops - starts
    pts = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    pts += np.arange(len(pts))
    tags = np.repeat(owners, lengths)
    order = np.argsort(pts, kind="stable")
    pts, tags = pts[order], tags[order]
    repeat = np.flatnonzero(pts[1:] == pts[:-1]) + 1
    w = tags[repeat].min()
    k = repeat[tags[repeat] == w][0]
    return PerfectnessResult(False, double_covered=(
        point_at(code.space, int(pts[k])), code.codewords[tags[k - 1]], code.codewords[w]))


def loop_codewords(space: SimplexSpace, codewords) -> tuple[Point, ...]:
    words = [make_point(space, w) for w in codewords]
    if not words:
        raise ValueError("a code needs at least one codeword")
    if len(set(words)) != len(words):
        seen: set[Point] = set()
        for w in words:
            if w in seen:
                raise ValueError(f"duplicate codeword {format_point(w)}")
            seen.add(w)
    return tuple(sorted(words, reverse=True))


def tuple_canonicalize_code(code: Code) -> Code:
    """Canonical representative of a code under coordinate permutations.

    Of the (n+1)! permutation images (each re-sorted into canonical
    codeword order), picks the one whose codeword list comes first in the
    canonical point order. Idempotent; two codes have equal canonical forms
    exactly when one is a coordinate permutation of the other.
    """
    width = code.space.n + 1
    best: tuple[Point, ...] | None = None
    for perm in permutations(range(width)):
        image = tuple(
            sorted((tuple(w[k] for k in perm) for w in code.codewords), reverse=True)
        )
        if best is None or image > best:
            best = image
    assert best is not None
    return Code(code.space, best, radius_claim=code.radius_claim)


def pair_min_distance(code: Code) -> int:
    if len(code.codewords) < 2:
        raise ValueError("minimum distance needs at least 2 codewords")
    return min(distance(a, b) for a, b in combinations(code.codewords, 2))


def bf_decode(codewords, y):
    """Linear-scan nearest codeword; returns (codeword, distance, tied_flag)."""
    scored = sorted((surplus_distance(c, y), c) for c in codewords)
    best_d, best_c = scored[0]
    tied = len(scored) > 1 and scored[1][0] == best_d
    return best_c, best_d, tied


def bf_perfect_codes(space: SimplexSpace, e: int, subset_cap: int = 2_000_000):
    """All nontrivial e-perfect codes, by brute force.

    When every ball has the same size (and that size divides the space),
    candidate codes are simply all point subsets of the implied cardinality.
    Otherwise a direct set-cover backtracker is used: cover the first
    uncovered point in enumeration order by every ball that fits, with no
    ordering heuristics. Returns a sorted list of codeword tuples (each
    sorted in canonical decreasing order).
    """
    points = list(enumerate_space(space))
    balls = {x: frozenset(bf_ball(space, x, e)) for x in points}
    sizes = {len(b) for b in balls.values()}
    size = len(points)

    solutions = []
    if len(sizes) == 1:
        (ball_size,) = sizes
        if size % ball_size != 0:
            return []
        k = size // ball_size
        if comb(size, k) <= subset_cap:
            for cand in combinations(points, k):
                cover = set()
                ok = True
                for c in cand:
                    if cover & balls[c]:
                        ok = False
                        break
                    cover |= balls[c]
                if ok and len(cover) == size and k >= 2:
                    solutions.append(tuple(sorted(cand, reverse=True)))
            return sorted(solutions)
        # fall through to the backtracker when subsets are too many

    def extend(chosen, covered):
        first = next((p for p in points if p not in covered), None)
        if first is None:
            if len(chosen) >= 2:
                solutions.append(tuple(sorted(chosen, reverse=True)))
            return
        for c in points:
            b = balls[c]
            if first in b and not (b & covered):
                chosen.append(c)
                extend(chosen, covered | b)
                chosen.pop()

    extend([], frozenset())
    return sorted(solutions)


class _ExactCover:
    """Algorithm X over ball placements, dict-of-sets flavor.

    X maps each point id to the set of live candidate centers whose ball
    covers it; Y maps each candidate center to its (fixed) ball. Branching
    always picks the point with the fewest live candidates, ties broken by
    point id, so the exploration order is fully deterministic.
    """

    def __init__(self, balls: list[tuple[int, ...]], node_budget: int = 0):
        self.Y = balls
        self.X: dict[int, set[int]] = {}
        for c, pts in enumerate(balls):
            for j in pts:
                self.X.setdefault(j, set()).add(c)
        self.nodes = 0
        self.node_budget = node_budget

    def search(self, partial: list[int]):
        self.nodes += 1
        if self.node_budget and self.nodes > self.node_budget:
            raise BudgetExceededError(f"search exceeded node budget of {self.node_budget}")
        X = self.X
        if not X:
            yield tuple(partial)
            return
        col = min(X, key=lambda j: (len(X[j]), j))
        for c in sorted(X[col]):
            partial.append(c)
            removed = self.select(c)
            yield from self.search(partial)
            self.restore(c, removed)
            partial.pop()

    def select(self, c: int) -> list[set[int]]:
        X, Y = self.X, self.Y
        cols = []
        for j in Y[c]:
            for i in X[j]:
                for k in Y[i]:
                    if k != j:
                        X[k].remove(i)
            cols.append(X.pop(j))
        return cols

    def restore(self, c: int, cols: list[set[int]]) -> None:
        X, Y = self.X, self.Y
        for j in reversed(Y[c]):
            X[j] = cols.pop()
            for i in X[j]:
                for k in Y[i]:
                    if k != j:
                        X[k].add(i)


def xc_perfect_codes(space: SimplexSpace, e: int):
    """All nontrivial e-perfect codes, by _ExactCover over bf_ball incidences.

    Returns the same shape as bf_perfect_codes: a sorted list of codeword
    tuples, each in canonical decreasing order.
    """
    if e < 1:
        return []
    points = list(enumerate_space(space))
    index = {p: i for i, p in enumerate(points)}
    balls = [tuple(sorted(index[q] for q in bf_ball(space, x, e))) for x in points]
    return sorted(
        tuple(sorted((points[c] for c in sol), reverse=True))
        for sol in _ExactCover(balls).search([])
        if len(sol) >= 2
    )


def _exact_covers(balls: list[tuple[int, ...]], *, max_solutions: int, node_budget: int):
    """Partitions of the points into two or more balls, and the node count.

    Each partition is a tuple of center ids in the order they were chosen.
    The search stops after max_solutions partitions (0 = find them all).

    Ball c is held as its lowest point id low[c] and a bitmask of its
    points shifted down by low[c]. Once every point below p is covered, a
    ball that covers p and is disjoint from the covered set has its lowest
    point at p, so the candidates for the first uncovered point are exactly
    the live balls starting there. Depth-first, without recursion.
    """
    low = [b[0] for b in balls]
    masks = [sum(1 << (j - b[0]) for j in b) for b in balls]
    starting: list[list[int]] = [[] for _ in balls]
    for c, p in enumerate(low):
        starting[p].append(c)
    full = (1 << len(balls)) - 1
    covered, chosen, stack, sols, nodes = 0, [], [], [], 0
    while True:
        nodes += 1
        if node_budget and nodes > node_budget:
            raise BudgetExceededError(f"search exceeded node budget of {node_budget}")
        if covered == full:
            if len(chosen) >= 2:
                sols.append(tuple(chosen))
                if len(sols) == max_solutions:
                    break
        else:
            p = (~covered & (covered + 1)).bit_length() - 1
            rest = covered >> p
            stack.append(iter([c for c in starting[p] if not masks[c] & rest]))
        # Backtrack to the deepest level with an untried candidate and take it.
        while stack:
            if len(chosen) == len(stack):
                c = chosen.pop()
                covered ^= masks[c] << low[c]
            c = next(stack[-1], None)
            if c is not None:
                chosen.append(c)
                covered |= masks[c] << low[c]
                break
            stack.pop()
        else:
            break
    return sols, nodes


def eager_starting(pt: Point, p: int, e: int, spreads: dict) -> tuple[int, list | None]:
    """The ball-table entry of the point pt, whose id is p: pt's tail mass, and
    the radius-e balls whose lowest point it is, or None when pt_0 < e.

    Each ball is (center's coordinates 1..n, bitmask of the ball's point ids
    shifted down by p, p), its mask that of the representative (e, c_1, ...,
    c_n), so no entry depends on pt_0 = ell - tail mass.
    """
    if pt[0] < e:
        return sum(pt) - pt[0], None
    balls = []
    for c in _centers(pt, e, spreads):
        runs = ball_runs((e,) + c[1:], e)
        balls.append((c[1:], sum(((1 << len(r)) - 1) << (r.start - p) for r in runs), p))
    return sum(pt) - pt[0], balls


def eager_exact_covers(space: SimplexSpace, e: int, balls: dict, *, max_solutions: int):
    """Partitions of the space into two or more radius-e balls, and the node count.

    Each partition is a tuple of centers in the order they were chosen.
    The search stops after max_solutions partitions (0 = find them all).

    Once every point below p is covered, a ball that covers p and is
    disjoint from the covered set has its lowest point at p, so the
    candidates for the first uncovered point p are the balls starting
    there: balls[p] (_starting), built the first time a search given this
    table reaches p with p_0 >= e. balls is read and filled here, and lives
    as long as the caller keeps it: one search, or the cells of one sweep
    with this n and e. Only this reads ell: p_0 and each center's c_0 are
    ell minus a tail mass, p has no candidates when p_0 < e, and a ball with
    c_0 < e crosses the face x_0 = 0, so its mask is cut to the space.
    Depth-first, without recursion.

    When ell <= e every ball is the whole space: the search meets the root
    and one single-ball cover per point, and reads no table.
    """
    size, ell = space.size(), space.ell
    if ell <= e:
        return [], size + 1
    full, spreads = (1 << size) - 1, {}
    covered, chosen, stack, sols, nodes = 0, [], [], [], 0
    while True:
        nodes += 1
        if covered == full:
            if len(chosen) >= 2:
                sols.append(tuple((ell - sum(b[0]),) + b[0] for b in chosen))
                if len(sols) == max_solutions:
                    break
        else:
            p = (~covered & (covered + 1)).bit_length() - 1
            entry = balls.get(p)
            if entry is None or entry[1] is None and ell - entry[0] >= e:
                entry = balls[p] = eager_starting(point_at(space, p), p, e, spreads)
            mass, starting = entry
            rest = covered >> p
            if ell - mass < e:
                stack.append(iter(()))
            elif ell - mass >= 2 * e:  # every center has c_0 >= p_0 - e >= e: no clip
                stack.append(iter([b for b in starting if not b[1] & rest]))
            else:
                clip = full >> p
                stack.append(iter([(c, m & clip, p) for c, m, _ in starting if not m & rest]))
        # Backtrack to the deepest level with an untried candidate and take it.
        while stack:
            if len(chosen) == len(stack):
                _, mask, p = chosen.pop()
                covered ^= mask << p
            b = next(stack[-1], None)
            if b is not None:
                chosen.append(b)
                covered |= b[1] << b[2]
                break
            stack.pop()
        else:
            break
    return sols, nodes


def list_stack_starting(pt: Point, p: int, e: int, spreads: dict) -> tuple[int, list]:
    """The ball-table entry of the point pt, whose id is p: pt's tail mass, and
    the radius-e balls whose lowest point is the representative (e, pt_1, ..., pt_n).

    Each ball is (center's coordinates 1..n, bitmask of its ids walked so far
    shifted down by p, first id not yet walked or -1 once walked to its end),
    unwalked here, its ids those of the representative (e, c_1, ..., c_n). So
    the entry does not depend on pt_0 = ell - tail mass, and one entry serves
    every ell > e: the search gives p no candidates when pt_0 < e.
    """
    return sum(pt[1:]), [(c[1:], 0, p) for c in _centers((e,) + pt[1:], e, spreads)]


def list_stack_walk(balls: list, p: int, e: int, window: int) -> None:
    """Walk on each unfinished ball of an entry that misses window (the covered
    ids from p on, shifted down by p) until it meets window or ends, skipping
    the runs walked before."""
    for k, (c, mask, front) in enumerate(balls):
        if front < 0 or mask & window:
            continue
        for r in ball_runs((e,) + c, e):
            if r.start >= front:
                mask |= ((1 << len(r)) - 1) << (r.start - p)
                if mask & window:
                    balls[k] = (c, mask, r.stop)
                    break
        else:
            balls[k] = (c, mask, -1)


def list_stack_exact_covers(space: SimplexSpace, e: int, balls: dict, *, max_solutions: int):
    """Partitions of the space into two or more radius-e balls, and the node count.

    Each partition is a tuple of centers in the order they were chosen.
    The search stops after max_solutions partitions (0 = find them all).

    Once every point below p is covered, a ball that covers p and is
    disjoint from the covered set has its lowest point at p, so the
    candidates for the first uncovered point p are the balls starting
    there: balls[p] (_starting), built the first time a search given this
    table reaches p, each ball walked as far as a node needs (_walk). balls
    is read and filled here, and lives as long as the caller keeps it: one
    search, or the cells of one sweep with this n and e. Only this reads
    ell: p_0 and each center's c_0 are ell minus a tail mass, p has no
    candidates when p_0 < e, and a ball with c_0 < e crosses the face
    x_0 = 0, so its mask is cut to the space. covered is the window (see
    the module docstring), so no node works on the ids below p; each stack
    level keeps its candidates, window and p for backtracking to restore.
    Depth-first, without recursion.

    When ell <= e every ball is the whole space: the search meets the root
    and one single-ball cover per point, and reads no table.
    """
    size, ell = space.size(), space.ell
    if ell <= e:
        return [], size + 1
    spreads: dict = {}
    covered, p, chosen, stack, sols, nodes = 0, 0, [], [], [], 0
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
                entry = balls[p] = list_stack_starting(point_at(space, p), p, e, spreads)
            mass, starting = entry
            if ell - mass >= e:  # else p has no candidates and the node is a leaf
                list_stack_walk(starting, p, e, covered)
                # p_0 >= 2e: every center has c_0 >= p_0 - e >= e, so no clip
                clip = -1 if ell - mass >= 2 * e else (1 << (size - p)) - 1
                cands = [(c, m & clip) for c, m, _ in starting if not m & covered]
                stack.append((iter(cands), covered, p))
        # Backtrack to the deepest level with an untried candidate and take it.
        while stack:
            if len(chosen) == len(stack):
                chosen.pop()
            cands, covered, p = stack[-1]
            b = next(cands, None)
            if b is not None:
                chosen.append(b[0])
                covered |= b[1]
                break
            stack.pop()
        else:
            break
    return sols, nodes


def _noisy_variants(seq: SymbolSequence, subs: int, dels: int, ins: int, n: int):
    """Yield the sequence after every pattern of exactly the given events.

    Events are expanded in the channel's order (substitutions, deletions,
    insertions); the final permutation is skipped because reception only
    counts symbols. Patterns that visit the same position twice are
    enumerated as the sampler would draw them, so the multiset of yields
    matches the sampling distribution exactly.
    """
    if subs:
        for pos in range(len(seq)):
            for shift in range(1, n + 1):
                nxt = list(seq)
                nxt[pos] = (nxt[pos] + shift) % (n + 1)
                yield from _noisy_variants(tuple(nxt), subs - 1, dels, ins, n)
    elif dels:
        for pos in range(len(seq)):
            yield from _noisy_variants(seq[:pos] + seq[pos + 1 :], 0, dels - 1, ins, n)
    elif ins:
        for pos in range(len(seq) + 1):
            for sym in range(n + 1):
                yield from _noisy_variants(seq[:pos] + (sym,) + seq[pos:], 0, 0, ins - 1, n)
    else:
        yield seq


def count_noise_patterns(length: int, cfg, n: int) -> int:
    """Number of position-level noise patterns of cfg's events on a sequence
    of this length over n+1 symbols (0 when the events cannot act on it)."""
    total = (length * n) ** cfg.substitutions
    size = length
    for _ in range(cfg.deletions):
        total *= size
        size -= 1
    for _ in range(cfg.insertions):
        total *= (size + 1) * (n + 1)
        size += 1
    return total


def two_guard_check(length: int, cfg, n: int, runs: int, words: int, exhaustive=False) -> None:
    """Raise what the channel's run check raised before the step guard was
    folded into the event-work price, at the channel's current budgets."""
    if cfg.substitutions and n < 1:
        raise ValueError("substitution needs an alphabet with at least 2 symbols")
    if cfg.deletions > length:
        raise ValueError(f"cannot delete {cfg.deletions} symbols from a sequence of length {length}")
    if cfg.substitutions and length == 0:
        raise ValueError("cannot substitute into an empty sequence")
    events = cfg.substitutions + cfg.deletions + cfg.insertions
    if max(events, 1) * runs > channel.EXHAUSTIVE_PATTERN_BUDGET:
        raise BudgetExceededError("event steps")
    heaviest = max(
        length * n if cfg.substitutions else 0,
        length if cfg.deletions else 0,
        (length - cfg.deletions + cfg.insertions) * (n + 1) if cfg.insertions else 0,
    )
    if heaviest >= 2**63:
        raise BudgetExceededError("weight")
    if max(events, 1) * max(runs * (n + 1), channel._PASS_CELLS) > channel.EVENT_WORK_BUDGET:
        raise BudgetExceededError("event work")
    if runs * words * (n + 1) > channel.DECODE_WORK_BUDGET:
        raise BudgetExceededError("decode work")
    if exhaustive:
        patterns = words
        for _, total in channel._schedule(length, cfg, n):
            patterns *= total
            if patterns > channel.EXHAUSTIVE_PATTERN_BUDGET:
                raise BudgetExceededError("patterns")


def positional_exhaustive(code, cfg) -> ExperimentStats:
    """Exhaustive-mode ExperimentStats, computed position by position.

    Spells each codeword out as a symbol sequence, enumerates every pattern
    with _noisy_variants, and decodes each distinct received count vector
    once, counting it once per pattern. It decodes with the package's
    decode_received on purpose: what it checks is the noise model.
    """
    n = code.space.n
    successes = ambiguous = errors = score_total = trials = 0
    for sent in code.codewords:
        seq = tuple(sym for sym, count in enumerate(sent) for _ in range(count))
        received = Counter(
            tuple(noisy.count(sym) for sym in range(n + 1))
            for noisy in _noisy_variants(
                seq, cfg.substitutions, cfg.deletions, cfg.insertions, n
            )
        )
        for counts, times in received.items():
            try:
                decoded, score = decode_received(code, counts)
            except AmbiguousDecodeError as exc:
                ambiguous += times
                score = exc.score
            else:
                if decoded == sent:
                    successes += times
                else:
                    errors += times
            score_total += score * times
            trials += times
    return ExperimentStats(trials, successes, ambiguous, errors, score_total, exhaustive=True)


def _events(cfg):
    """Event kinds in channel order: substitutions, deletions, insertions."""
    return chain(
        repeat("substitution", cfg.substitutions),
        repeat("deletion", cfg.deletions),
        repeat("insertion", cfg.insertions),
    )


def _transitions(counts: Point, kind: str) -> list[tuple[Point, int]]:
    """Count vectors one event turns `counts` into, with integer weights.

    A weight counts the position-level events giving that vector: counts[i]
    for a substitution of symbol i by j != i or a deletion of i, and
    sum(counts)+1 (one per slot) for an insertion of any symbol.
    """
    size = len(counts)
    if kind == "insertion":
        weight = sum(counts) + 1
        return [(counts[:j] + (counts[j] + 1,) + counts[j + 1 :], weight) for j in range(size)]
    out = []
    for i, weight in enumerate(counts):
        if weight:
            less = counts[:i] + (weight - 1,) + counts[i + 1 :]
            if kind == "deletion":
                out.append((less, weight))
            else:
                out += [
                    (less[:j] + (less[j] + 1,) + less[j + 1 :], weight)
                    for j in range(size)
                    if j != i
                ]
    return out


def transition_dp_exhaustive(code, cfg) -> ExperimentStats:
    """Exhaustive-mode ExperimentStats from the Counter DP over _transitions.

    Pushes a map from count vector to exact integer weight through each
    event's transition list, one codeword at a time, then decodes each
    distinct (sent, received) pair once with python_decode_received.
    """
    words = code.codewords
    received: Counter = Counter()
    for index, sent in enumerate(words):
        weights: Counter = Counter({sent: 1})
        for kind in _events(cfg):
            nxt: Counter = Counter()
            for counts, weight in weights.items():
                for moved, ways in _transitions(counts, kind):
                    nxt[moved] += weight * ways
            weights = nxt
        received.update({(index, counts): weight for counts, weight in weights.items()})
    tally = Counter({(words[index], counts): weight for (index, counts), weight in received.items()})
    return _stats(code, tally, exhaustive=True)


def _sample(counts: Point, cfg, rng) -> Point:
    """Apply the configured events to a count vector, one draw per event.

    Each draw is uniform below the event's total weight and picks the
    transition whose cumulative weight range holds it.
    """
    for kind in _events(cfg):
        moves = _transitions(counts, kind)
        r = int(rng.integers(sum([weight for _, weight in moves])))
        for nxt, weight in moves:
            if r < weight:
                break
            r -= weight
        counts = nxt
    return counts


def python_decode_received(code, received) -> tuple[Point, int]:
    """Minimum symmetric-difference decoding of a raw count vector.

    The received vector need not lie in the simplex (its cardinality may
    differ from ell after insertions or deletions). On vectors that do lie
    in the simplex this agrees with nearest-codeword decoding, with scores
    exactly twice the half-L1 distances. Ties raise AmbiguousDecodeError.
    """
    r = tuple(received)
    if len(r) != code.space.n + 1:
        raise ValueError(
            f"count vector has {len(r)} entries, alphabet needs {code.space.n + 1}"
        )
    if any(c < 0 for c in r):
        raise ValueError("counts must be >= 0")
    best = min(symmetric_difference(c, r) for c in code.codewords)
    tied = [c for c in code.codewords if symmetric_difference(c, r) == best]
    if len(tied) > 1:
        raise AmbiguousDecodeError(r, tied, best)
    return tied[0], best


def scalar_sampled_experiment(code, cfg, trials: int, codeword_selection: str = "uniform"):
    """Sampled-mode ExperimentStats, one trial and one draw at a time.

    Draws each trial's codeword and events in order from one stream keyed
    by the seed with _sample, then decodes each distinct (sent, received)
    pair once with python_decode_received.
    """
    words = code.codewords
    received: Counter = Counter()
    rng = _rng(cfg.seed)
    for t in range(trials):
        if codeword_selection == "uniform":
            sent = words[int(rng.integers(len(words)))]
        else:
            sent = words[t % len(words)]
        received[sent, _sample(sent, cfg, rng)] += 1
    return _stats(code, received, exhaustive=False)


def tuple_sample_run(words, cfg, trials: int, selection: str, rng) -> Counter:
    """(sent codeword index, received count vector) -> trials, over `trials`
    trials drawn in order from `rng`, one tuple per trial into the Counter.

    Every trial draws the same bounds: its codeword index (uniform
    selection), then each event's total weight, which depends only on the
    length. So one array call per chunk of trials draws exactly the values
    that one scalar call per bound would, and leaves the stream where they
    would leave it.
    """
    length = sum(words[0])
    schedule = list(_schedule(length, cfg, len(words[0]) - 1))
    bounds = [len(words)] if selection == "uniform" else []
    bounds += [total for _, total in schedule]
    chunk = max(1, min(trials, _CHUNK_CELLS // max(len(words[0]), len(bounds))))
    tiled = np.array(bounds * chunk, dtype=np.int64).reshape(chunk, len(bounds))
    bound = length + cfg.insertions
    sent_rows = np.array(words, dtype=np.int64 if bound < 2**63 else object)
    received: Counter = Counter()
    for start in range(0, trials, chunk):
        draws = rng.integers(tiled[: trials - start])
        if selection == "uniform":
            sent, draws = draws[:, 0], draws[:, 1:]
        else:
            sent = np.arange(start, start + len(draws)) % len(words)
        counts = sent_rows[sent]
        for (kind, total), r in zip(schedule, draws.T):
            _event(counts, kind, r, total)
        received.update(zip(sent.tolist(), map(tuple, counts.tolist())))
    return received


def row_sample_run(
    words, length: int, cfg, trials: int, selection: str, rng
) -> tuple:
    """The _tally of `trials` trials drawn in order from `rng`: sent
    codeword indices, received count vectors and their numbers of trials.
    `words` holds the codewords as rows, each of `length` symbols.

    Every trial draws the same bounds: its codeword index (uniform
    selection), then each event's total weight, which depends only on the
    length. So one array call per chunk of trials draws exactly the values
    that one scalar call per bound would, and leaves the stream where they
    would leave it. Each chunk is tallied, and the chunk tallies held are
    merged whenever their rows double, so the merges sort at most about
    twice the rows that the chunk tallies produce.
    """
    schedule = list(_schedule(length, cfg, len(words[0]) - 1))
    bounds = [len(words)] if selection == "uniform" else []
    bounds += [total for _, total in schedule]
    chunk = max(1, min(trials, _CHUNK_CELLS // max(len(words[0]), len(bounds))))
    tiled = np.array(bounds * chunk, dtype=np.int64).reshape(chunk, len(bounds))
    sent_rows = _matrix(words, length + cfg.insertions)
    held, rows, merged = [], 0, 0  # chunk tallies, their rows, rows at the last merge
    for start in range(0, trials, chunk):
        draws = rng.integers(tiled[: trials - start])
        if selection == "uniform":
            sent, draws = draws[:, 0], draws[:, 1:]
        else:
            sent = np.arange(start, start + len(draws)) % len(words)
        counts = sent_rows[sent]
        for (kind, total), r in zip(schedule, draws.T):
            _event(counts, kind, r, total)
        held.append(_tally(sent, counts, np.ones(len(sent), dtype=np.int64))[:3])
        rows += len(held[-1][0])
        if len(held) > 1 and (rows >= 2 * merged or start + chunk >= trials):
            sent, counts, weights = map(np.concatenate, zip(*held))
            held.clear()  # only the merged tally outlives the merge
            held.append(_tally(sent, counts, weights)[:3])
            rows = merged = len(held[0][0])
    return held[0]


def _move(states: np.ndarray, ids: np.ndarray, kind: str, r: np.ndarray, total: int) -> tuple:
    """One event on trials that each hold an id into the count vectors
    `states`: _event once per distinct (state, draw) pair. Returns the
    distinct (state, run end) outcomes as new states and each trial's id
    into them; a pair's outcome is its state's outcome for the run of draws
    that holds its draw, so (state, run end) names it."""
    # The keys are narrowed first: numpy sorts 8- and 16-bit keys by radix.
    order = np.lexsort((_matrix(r, total), ids))
    ids, r = ids[order], r[order]
    pair = np.append(True, (ids[1:] != ids[:-1]) | (r[1:] != r[:-1]))
    state = ids[pair]
    moved = states[state]
    ends = _event(moved, kind, r[pair], total)
    # Within a state the draws ascend, so equal run ends are adjacent.
    new = np.append(True, (state[1:] != state[:-1]) | (ends[1:] != ends[:-1]))
    labels = _matrix(new.cumsum() - 1, len(new))
    out = np.empty_like(labels, shape=len(ids))
    out[order] = labels[pair.cumsum() - 1]
    return moved[new], out


def sorted_move_sample_run(
    words, length: int, cfg, trials: int, selection: str, rng
) -> tuple:
    """The _tally of `trials` trials drawn in order from `rng`: sent
    codeword indices, received count vectors and their numbers of trials.
    `words` holds the codewords as rows, each of `length` symbols.

    Every trial draws the same bounds: its codeword index (uniform
    selection), then each event's total weight, which depends only on the
    length. So one array call per chunk of trials draws exactly the values
    that one scalar call per bound would, and leaves the stream where they
    would leave it. Each trial holds an id into a matrix of the distinct
    states its chunk can be in, starting at its codeword, and _move applies
    each event once per distinct (state, draw) pair, while the chunk holds
    more trials than states. Once it does not (one trial, many codewords,
    wide alphabets), every trial takes its own row of counts for the
    remaining events. Each chunk is tallied by (sent, state) before any
    count row is built, and the chunk tallies held are merged whenever
    their rows double, so the merges sort at most about twice the rows
    that the chunk tallies produce.
    """
    schedule = list(_schedule(length, cfg, len(words[0]) - 1))
    bounds = [len(words)] if selection == "uniform" else []
    bounds += [total for _, total in schedule]
    chunk = max(1, min(trials, channel._SAMPLE_CELLS // max(len(words[0]), len(bounds))))
    tiled = np.broadcast_to(np.array(bounds, dtype=np.int64), (chunk, len(bounds)))
    sent_rows = _matrix(words, length + cfg.insertions)
    held, rows, merged = [], 0, 0  # chunk tallies, their rows, rows at the last merge
    for start in range(0, trials, chunk):
        draws = rng.integers(tiled[: trials - start])
        if selection == "uniform":
            sent, draws = draws[:, 0], draws[:, 1:]
        else:
            sent = np.arange(start, start + len(draws)) % len(words)
        sent = _matrix(sent, len(words))  # narrow, like every id: they are sort keys
        states, ids, k = sent_rows, sent, 0
        while k < len(schedule) and len(states) < len(ids):
            kind, total = schedule[k]
            states, ids = _move(states, ids, kind, draws[:, k], total)
            k += 1
        if k < len(schedule):
            states, ids = states[ids], _matrix(np.arange(len(ids)), len(ids))
            for (kind, total), r in zip(schedule[k:], draws.T[k:]):
                _event(states, kind, r, total)
        sent, ids, weights = _tally(sent, ids[:, None], np.ones(len(sent), dtype=np.int64))[:3]
        held.append(_tally(sent, states[ids[:, 0]], weights)[:3])
        rows += len(held[-1][0])
        if len(held) > 1 and (rows >= 2 * merged or start + chunk >= trials):
            sent, counts, weights = map(np.concatenate, zip(*held))
            held.clear()  # only the merged tally outlives the merge
            held.append(_tally(sent, counts, weights)[:3])
            rows = merged = len(held[0][0])
    return held[0]


def lexsort_sample_run(
    words, length: int, cfg, trials: int, selection: str, rng
) -> tuple:
    """The _tally of `trials` trials drawn in order from `rng`: sent
    codeword indices, received count vectors and their numbers of trials.
    `words` holds the codewords as rows, each of `length` symbols.

    Every trial draws the same bounds: its codeword index (uniform
    selection), then each event's total weight, which depends only on the
    length. So one array call per chunk of trials draws exactly the values
    that one scalar call per bound would, and leaves the stream where they
    would leave it. A trial holds an id into its chunk's distinct states
    and takes each event's _step while its table holds no more entries than
    the chunk holds trials; then (one trial, many codewords, ell-scale
    totals) each trial moves its own row of counts. Chunk tallies merge
    whenever their rows double: merges sort at most about twice the rows made.
    """
    schedule = list(_schedule(length, cfg, len(words[0]) - 1))
    bounds = [len(words)] if selection == "uniform" else []
    bounds += [total for _, total in schedule]
    chunk = max(1, min(trials, channel._SAMPLE_CELLS // max(len(words[0]), len(bounds))))
    tiled = np.broadcast_to(np.array(bounds, dtype=np.int64), (chunk, len(bounds)))
    sent_rows = _matrix(words, length + cfg.insertions)
    held, rows, merged = [], 0, 0  # chunk tallies, their rows, rows at the last merge
    for start in range(0, trials, chunk):
        draws = rng.integers(tiled[: trials - start])
        if selection == "uniform":
            sent, draws = draws[:, 0], draws[:, 1:]
        else:
            sent = np.arange(start, start + len(draws)) % len(words)
        states, ids, k = sent_rows, sent, 0
        # Keys id * total + draw stay below the table's size <= trials: no wrap.
        while k < len(schedule) and len(states) * schedule[k][1] <= len(ids):
            states, ids = _step(states, ids, draws[:, k], *schedule[k])
            k += 1
        # Narrowed, as sort keys: numpy sorts 8- and 16-bit keys by radix.
        sent, weights = _matrix(sent, len(words)), np.ones(len(sent), dtype=np.int64)
        if k < len(schedule):
            counts = states[ids]
            for (kind, total), r in zip(schedule[k:], draws.T[k:]):
                _event(counts, kind, r, total)
        else:  # tallied by (sent, state) before any count row is built
            sent, ids, weights, _ = _tally(sent, _matrix(ids, len(states))[:, None], weights)
            counts = states[ids[:, 0]]
        held.append(_tally(sent, counts, weights)[:3])
        rows += len(held[-1][0])
        if len(held) > 1 and (rows >= 2 * merged or start + chunk >= trials):
            sent, counts, weights = map(np.concatenate, zip(*held))
            held.clear()  # only the merged tally outlives the merge
            held.append(_tally(sent, counts, weights)[:3])
            rows = merged = len(held[0][0])
    return held[0]


def counter_exhaustive_run(words, cfg) -> Counter:
    """(sent codeword index, received count vector) -> the number of noise
    patterns, and so of sampler draw sequences, that send one to the other.

    Every (sent, state) row starts at draw 0 and takes one run of draws per
    _event call until its run reaches the event's total; each outcome weighs
    the state's weight times the run length, in exact integers."""
    states: Counter = Counter({(index, word): 1 for index, word in enumerate(words)})
    for kind, total in _schedule(sum(words[0]), cfg, len(words[0]) - 1):
        keys, weights = list(states), list(states.values())
        rows = np.array([counts for _, counts in keys], dtype=np.int64)
        live, r = np.arange(len(keys)), np.zeros(len(keys), dtype=np.int64)
        states = Counter()
        while len(live):
            counts = rows[live]
            ends = _event(counts, kind, r, total)
            runs = (ends - r).tolist()
            for k, moved, run in zip(live.tolist(), map(tuple, counts.tolist()), runs):
                states[keys[k][0], moved] += weights[k] * run
            more = ends < total
            live, r = live[more], ends[more]
    return states


def _stats(code, received: Counter, *, exhaustive: bool) -> ExperimentStats:
    """Tally (sent codeword, received vector) -> weight into ExperimentStats,
    decoding each pair once with python_decode_received."""
    successes = ambiguous = errors = score_total = 0
    for (sent, counts), weight in received.items():
        try:
            decoded, score = python_decode_received(code, counts)
        except AmbiguousDecodeError as exc:
            ambiguous += weight
            score = exc.score
        else:
            if decoded == sent:
                successes += weight
            else:
                errors += weight
        score_total += score * weight
    trials = sum(received.values())
    return ExperimentStats(trials, successes, ambiguous, errors, score_total, exhaustive)


def binomial_bounds(trials: int, num: int, den: int, tail: Fraction) -> tuple[int, int]:
    """Central range of Binomial(trials, num/den) outside which each tail is below `tail`.

    Exact: term k is C(trials, k) num^k (den-num)^(trials-k), the
    probability of k times den**trials, built by an exact recurrence.
    """
    if num == 0:
        return 0, 0
    if num == den:
        return trials, trials
    terms = [(den - num) ** trials]
    for k in range(trials):
        terms.append(terms[k] * (trials - k) * num // ((k + 1) * (den - num)))
    limit = tail.numerator * den**trials
    lo, acc = 0, terms[0]
    while acc * tail.denominator <= limit:
        lo += 1
        acc += terms[lo]
    hi, acc = trials, terms[trials]
    while acc * tail.denominator <= limit:
        hi -= 1
        acc += terms[hi]
    return lo, hi
