"""Codes in the discrete simplex: constructions, perfectness checks, decoding.

A code is a set of points of one simplex. It is e-perfect when the radius-e
balls around its codewords are pairwise disjoint and cover the whole space,
i.e. every point is within distance e of exactly one codeword. Nontrivial
perfect codes (at least two codewords, e >= 1) exist only over binary and
ternary alphabets, and this module constructs all of them.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import AmbiguousDecodeError, BudgetExceededError
from .simplex import (
    Point,
    SimplexSpace,
    _check_ints,
    ball_runs,
    format_point,
    make_point,
    point_at,
)

# construct_binary_perfect refuses to build more codewords than this: a
# million take about 1.4-2 s and 230 MB to build and write out (2-core x86-64,
# Python 3.11).
CONSTRUCT_WORD_BUDGET = 1_000_000

# is_perfect refuses to walk more point ids than this on n >= 2 (n = 1 has no
# walk). Short runs cost the most: 222,778 codewords of (2, 1998) with disjoint
# e = 1 balls, 2.0M ids priced, take 1.2-1.5 s and 98 MB, and 520 codewords
# of (60, 20) at e = 1, priced 2.0M and walking 0.59M ids in one-id runs, 1.4-2.0 s
# and 86 MB (2-core x86-64, Python 3.11).
VERIFY_ID_BUDGET = 2_000_000

# Received vectors are decoded in blocks of about this many matrix entries,
# so memory stays flat on wide alphabets.
_CHUNK_CELLS = 2**14
# Draws are int64: an event's total weight must stay below this, and integer
# matrices switch to exact Python integers at or above it.
_INT64_LIMIT = 2**63
# The signed integer types of matrices, each with the first bound it cannot hold.
_INT_TYPES = ((2**7, np.int8), (2**15, np.int16), (2**31, np.int32), (_INT64_LIMIT, np.int64))


class Code:
    """A duplicate-free set of codewords in one simplex.

    The codewords are held as `matrix`, one read-only row per codeword in the
    canonical order (lexicographically decreasing, the same order the space
    is enumerated in): int64 when (n+1) * ell < 2**63, so no row sum
    overflows, and exact Python integers otherwise. `codewords`, the same rows
    as tuples of ints, is built from it on first use and then kept.
    radius_claim, None or an integer >= 0, is carried metadata only; call
    is_perfect to actually check it. Codes are immutable, and compare and
    hash on (space, codewords, radius_claim).
    """

    __slots__ = ("space", "matrix", "radius_claim", "_codewords")

    def __init__(self, space: SimplexSpace, codewords, radius_claim: int | None = None) -> None:
        rows = list(codewords)
        matrix = _canonical_order(space, rows)
        if matrix is None:  # the loop decides, and names the first bad codeword
            words = [make_point(space, w) for w in rows]
            if not words:
                raise ValueError("a code needs at least one codeword")
            if len(set(words)) != len(words):
                seen: set[Point] = set()
                for w in words:
                    if w in seen:
                        raise ValueError(f"duplicate codeword {format_point(w)}")
                    seen.add(w)
            words.sort(reverse=True)
            # int(): an int subclass's coordinates are held as exact ints.
            matrix = np.array([[int(c) for c in w] for w in words], dtype=_word_type(space))
        _set_fields(self, space, matrix, radius_claim)

    @classmethod
    def _of(cls, space: SimplexSpace, matrix: np.ndarray, radius_claim: int | None) -> Code:
        """The code of `matrix`, whose rows are distinct points of the space
        in canonical order, of the space's word type."""
        code = object.__new__(cls)
        _set_fields(code, space, matrix, radius_claim)
        return code

    @property
    def codewords(self) -> tuple[Point, ...]:
        if self._codewords is None:
            object.__setattr__(self, "_codewords", tuple(map(tuple, self.matrix.tolist())))
        return self._codewords

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.codewords, self.radius_claim) == (
            other.space, other.codewords, other.radius_claim)

    def __hash__(self) -> int:
        return hash((self.space, self.codewords, self.radius_claim))

    def __len__(self) -> int:
        return len(self.matrix)

    def __iter__(self):
        return iter(self.codewords)

    def __repr__(self) -> str:
        words = " ".join(format_point(w) for w in self.codewords)
        return f"<Code n={self.space.n} ell={self.space.ell} e={self.radius_claim} {words}>"


def _set_fields(code: Code, space: SimplexSpace, matrix: np.ndarray, radius_claim) -> None:
    if radius_claim is not None:
        _check_ints(radius_claim=radius_claim)
        if radius_claim < 0:
            raise ValueError(f"radius_claim must be >= 0, got {radius_claim}")
    matrix.flags.writeable = False
    for name, value in (("space", space), ("matrix", matrix), ("radius_claim", radius_claim),
                        ("_codewords", None)):
        object.__setattr__(code, name, value)


def _word_type(space: SimplexSpace):
    """The type of a code matrix's entries: int64 when every row sum, at most
    (n+1) * ell for entries in [0, ell], fits in it, else exact integers."""
    return np.int64 if (space.n + 1) * space.ell < _INT64_LIMIT else object


def _canonical_order(space: SimplexSpace, rows: list) -> np.ndarray | None:
    """rows as an int64 matrix in canonical order, checked in array passes,
    when they are lists or tuples of distinct points of the space; None when
    any check fails.

    Only exact ints pass: a bool is no coordinate, and a subclass of int may
    redefine the comparisons and hashing that Code's per-codeword loop sorts
    and finds duplicates with. Entries in [0, ell] keep every row sum at most
    (n+1) * ell, so below 2**63 nothing overflows; larger spaces take the loop.
    """
    width, ell = space.n + 1, space.ell
    if _word_type(space) is object or not set(map(type, rows)) <= {list, tuple}:
        return None
    if set(map(len, rows)) != {width} or set(map(type, chain.from_iterable(rows))) != {int}:
        return None
    try:
        a = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * width)
    except OverflowError:
        return None
    a = a.reshape(len(rows), width)
    if a.min() < 0 or a.max() > ell or (a.sum(axis=1) != ell).any():
        return None
    a = _sort_rows(a)
    if (a[1:] == a[:-1]).all(axis=1).any():
        return None
    return a


def _sort_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a matrix in canonical order: decreasing, column 0 first."""
    return a[np.lexsort(a.T[::-1])[::-1]]


def count_binary_perfect(ell: int, e: int) -> int:
    """Number of nontrivial e-perfect codes over a binary alphabet.

    With r = ell mod (2e+1), the remainder of ell by the codeword spacing,
    that is min(r+1, 2e+1-r). Returns 0 when ell < 2e+1 (no nontrivial code
    fits) or e < 1.
    """
    if e < 0:
        raise ValueError(f"e must be >= 0, got {e}")
    if e == 0 or ell < 2 * e + 1:
        return 0
    r = ell % (2 * e + 1)
    return min(r + 1, 2 * e + 1 - r)


def construct_binary_perfect(ell: int, e: int, m: int = 1) -> Code:
    """The m-th perfect code over a binary alphabet, 1 <= m <= count.

    Codewords sit at spacing 2e+1 along the path from (ell, 0) to (0, ell):
    q + 1 of them, where q and r are the quotient and remainder of ell by
    2e+1. The first sits s - m + 1 steps from the (ell, 0) corner, where
    s = min(r, e) is the largest offset it can have; m selects how the
    pattern is anchored against the endpoints. More than
    CONSTRUCT_WORD_BUDGET codewords raise BudgetExceededError before any
    is built.
    """
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    if ell < 2 * e + 1:
        raise ValueError(f"ell must be >= 2e+1 = {2 * e + 1}, got {ell}")
    count = count_binary_perfect(ell, e)
    if not 1 <= m <= count:
        raise ValueError(f"m must be in [1, {count}], got {m}")
    step = 2 * e + 1
    q, r = divmod(ell, step)
    if q + 1 > CONSTRUCT_WORD_BUDGET:
        raise BudgetExceededError(
            f"the code would have {q + 1} codewords, over the budget of {CONSTRUCT_WORD_BUDGET}"
        )
    space = SimplexSpace(1, ell)
    y = min(r, e) - m + 1 + step * np.arange(q + 1, dtype=np.int64)  # at most ell < 2**63
    return Code._of(space, np.column_stack((ell - y, y)).astype(_word_type(space), copy=False), e)


def construct_ternary_perfect(e: int, variant: int = 1) -> Code:
    """One of the two e-perfect codes over a ternary alphabet (ell = 3e+1).

    Both variants have three codewords arranged with threefold rotational
    symmetry; they are mirror images of each other, and they are the only
    nontrivial perfect codes on three symbols.
    """
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    a = 2 * e + 1
    if variant == 1:
        words = ((a, e, 0), (0, a, e), (e, 0, a))
    else:
        words = ((a, 0, e), (e, a, 0), (0, e, a))
    return Code(SimplexSpace(2, 3 * e + 1), words, radius_claim=e)


def min_distance(code: Code) -> int:
    """The least distance between two codewords. On two symbols the rows, in
    canonical order, ascend in y_1, and two codewords are as far apart as their
    y_1: the least step between adjacent rows, under 0.1 ms for the 6,667 of the
    binary ell=100000, e=7 code. Otherwise the least nonzero L1 score of the
    code matrix against itself (the diagonal scores 0), quadratic in the
    codewords: 0.07 s for 1,334 of (2, 200) and 1.5 s for 6,667 of (2, 400)
    (2-core x86-64, Python 3.11)."""
    if len(code.matrix) < 2:
        raise ValueError("minimum distance needs at least 2 codewords")
    if code.space.n == 1:
        return int(np.diff(code.matrix[:, 1]).min())
    bound = 2 * code.space.ell
    return min(int(s[s > 0].min()) for s in _scores(code.matrix, code.matrix, bound)) // 2


@dataclass(frozen=True)
class PerfectnessResult:
    """Outcome of a perfectness check, with a witness on failure."""

    perfect: bool
    uncovered: Point | None = None
    double_covered: tuple[Point, Point, Point] | None = None

    def __bool__(self) -> bool:
        return self.perfect

    def describe(self) -> str:
        if self.perfect:
            return "perfect: codeword balls partition the space"
        if self.double_covered is not None:
            p, a, b = self.double_covered
            return (
                f"not perfect: point {format_point(p)} is covered by both "
                f"{format_point(a)} and {format_point(b)}"
            )
        assert self.uncovered is not None
        return f"not perfect: point {format_point(self.uncovered)} is uncovered"


def _ball_bound(space: SimplexSpace, e: int) -> int:
    """A closed-form bound on the size of a radius-e ball of the space: a ball
    point moves each of its first n coordinates by at most r = min(e, ell),
    and adds and removes at most r mass, each over n+1 coordinates."""
    n, r = space.n, min(e, space.ell)
    return min((2 * r + 1) ** n, math.comb(r + n + 1, n + 1) ** 2)


def _by_start(starts, stops):
    """Runs sorted by start, their order, and whether two overlap: one ends past the next start."""
    starts, stops = np.asarray(starts), np.asarray(stops)
    order = np.argsort(starts)
    start, stop = starts[order], stops[order]
    return start, stop, order, bool((start[1:] < stop[:-1]).any())


def is_perfect(code: Code, e: int) -> PerfectnessResult:
    """Check that radius-e balls around the codewords partition the space.

    On failure the result carries a witness. Codewords are taken in
    canonical order; the first whose ball meets an earlier ball gives the
    double-cover witness (p, earlier codeword, that codeword), where p is
    the lowest-id point of its ball that an earlier ball covers. Otherwise
    the witness is the first uncovered point in enumeration order.

    Balls are held as runs of consecutive ids, never as single ids. On n = 1
    the id of y is y_1, so B(c, e) is the one run [c_1 - min(r, c_1),
    c_1 + min(r, c_0) + 1) with r = min(e, ell): every ball comes from one
    array expression over the codewords' y_1 column, and no ball is walked
    (also at e = 0, where r = 0 makes each run the codeword's own id).

    On n != 1, verifies of more than VERIFY_ID_BUDGET ids, priced as
    min(space size, codewords x _ball_bound), raise BudgetExceededError
    before any ball is walked, also at e = 0; n = 1 is not priced, as its
    work is a few array passes over the codewords. The walk stops soon after
    two balls overlap, at the latest once they hold more ids than the space,
    so it never holds more than twice the priced ids.
    """
    if e < 0:
        raise ValueError(f"radius must be >= 0, got {e}")
    space, matrix = code.space, code.matrix
    size = space.size()
    if space.n == 1:  # every value is at most ell + 1 < 2**63
        y, r = matrix[:, 1].astype(np.int64), min(e, space.ell)
        starts, stops = y - np.minimum(r, y), y + np.minimum(r, space.ell - y) + 1
        return _witness(space, matrix, starts, stops, np.arange(1, len(matrix) + 1))
    ids = min(size, len(matrix) * _ball_bound(space, e))
    if ids > VERIFY_ID_BUDGET:
        raise BudgetExceededError(
            f"verifying would walk up to {ids} point ids, over the budget of {VERIFY_ID_BUDGET}"
        )
    starts, stops, ends, walked, check = [], [], [], 0, min(1024, size + 1)
    for c in matrix.tolist():
        for r in ball_runs(c, e):
            starts.append(r.start)
            stops.append(r.stop)
            walked += len(r)
        ends.append(len(starts))  # the runs of codewords 0..w are starts[:ends[w]]
        # Once two balls overlap, later balls cannot change the witness: look
        # for an overlap at each doubling of the walked ids, and at the latest
        # once the balls hold more ids than the space.
        if walked >= check:
            if _by_start(starts, stops)[3]:
                break
            check = min(2 * walked, size + 1)
    return _witness(space, matrix, np.array(starts), np.array(stops), ends)


def _witness(space: SimplexSpace, matrix, starts, stops, ends) -> PerfectnessResult:
    """is_perfect's result from the runs [starts, stops) of the balls of the
    first len(ends) codewords, rows of the code matrix, where the runs of
    codewords 0..w are the first ends[w] runs and each codeword's runs ascend."""
    size = space.size()
    start, stop, _, overlap = _by_start(starts, stops)
    if not overlap:  # the first uncovered id opens the first gap
        gaps = np.flatnonzero(start[1:] != stop[:-1])
        j = 0 if start[0] else int(stop[gaps[0]] if len(gaps) else stop[-1])
        if j == size:
            return PerfectnessResult(True)
        return PerfectnessResult(False, uncovered=point_at(space, j))
    # w: the first codeword whose ball meets an earlier one (then so do all later prefixes).
    w = bisect_left(range(len(ends)), True,
                    key=lambda v: _by_start(starts[:ends[v]], stops[:ends[v]])[3])
    start, stop, order, _ = _by_start(starts[:ends[w - 1]], stops[:ends[w - 1]])
    a, b = starts[ends[w - 1]:ends[w]], stops[ends[w - 1]:ends[w]]
    # Earlier runs are disjoint: only the first to stop after a run [a, b) of w starts can
    # hold their lowest shared id (a start of size: none). w's runs ascend: the first hit holds p.
    k = np.searchsorted(stop, a, side="right")
    hit = np.flatnonzero(np.append(start, size)[k] < b)[0]
    p, earlier = max(a[hit], start[k[hit]]), np.searchsorted(ends, order[k[hit]], side="right")
    return PerfectnessResult(False, double_covered=(
        point_at(space, int(p)), tuple(matrix[earlier].tolist()), tuple(matrix[w].tolist())))


def _matrix(rows, bound: int) -> np.ndarray:
    """Integer rows, or a matrix of them (then one cast), as a matrix of the
    narrowest signed type that holds every value computed from it, all at
    most `bound`: int8 to int64, and exact Python integers from 2**63 on."""
    return np.array(rows, dtype=next((t for limit, t in _INT_TYPES if bound < limit), object))


def _scores(words, vectors: np.ndarray, bound: int) -> Iterator[np.ndarray]:
    """Blocks of scores, a row per count vector and a column per codeword:
    unhalved L1 distances, all at most `bound`, one numpy L1 a block."""
    table = _matrix(words, bound)
    block = max(1, _CHUNK_CELLS // table.size)
    for start in range(0, len(vectors), block):
        yield np.abs(vectors[start : start + block, None, :] - table).sum(axis=2)


def _decode(words, vectors: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The codeword index and the score of each vector under minimum
    symmetric difference, with index -1 for a tie."""
    index, score = [], []
    for scores in _scores(words, vectors, bound):
        best = scores.min(axis=1)
        tied = (scores == best[:, None]).sum(axis=1) > 1
        index.append(np.where(tied, -1, scores.argmin(axis=1)))
        score.append(best)
    return np.concatenate(index), np.concatenate(score)


def _nearest(code: Code, r: Point, bound: int, unit: int) -> tuple[Point, int]:
    """The codeword nearest the count vector r, and its score over `unit`. A
    tie raises AmbiguousDecodeError with the tied codewords of the score row."""
    row = next(_scores(code.matrix, _matrix([r], bound), bound))[0]
    best = row[row.argmin()]
    tied = [tuple(w) for w in code.matrix[row == best].tolist()]
    if len(tied) > 1:
        raise AmbiguousDecodeError(r, tied, int(best) // unit)
    return tied[0], int(best) // unit


def decode(code: Code, y: Point) -> tuple[Point, int]:
    """Nearest-codeword decoding of a point of the space.

    Returns the unique nearest codeword and the distance achieved, half the
    decoder's score (points of one space have equal sums). A tie is
    reported as AmbiguousDecodeError rather than broken silently: against a
    perfect code ties cannot happen, so one showing up means the code (or
    its claimed radius) is defective.
    """
    return _nearest(code, make_point(code.space, y), 2 * code.space.ell, 2)


def code_from_dict(obj) -> Code:
    """Build a Code from parsed JSON, rejecting anything malformed.

    Out-of-space points, duplicates, wrong lengths and non-integer entries
    are all errors; the claimed radius may be null.
    """
    if not isinstance(obj, dict):
        raise ValueError("code file must contain a JSON object")
    missing = {"n", "ell", "e", "codewords"} - obj.keys()
    if missing:
        raise ValueError(f"code file missing fields: {', '.join(sorted(missing))}")
    n, ell, e, words = obj["n"], obj["ell"], obj["e"], obj["codewords"]
    _check_ints(n=n, ell=ell)
    if e is not None and (not isinstance(e, int) or isinstance(e, bool) or e < 0):
        raise ValueError("e must be null or a nonnegative integer")
    if not isinstance(words, list) or not words:
        raise ValueError("codewords must be a nonempty list")
    if not all(map(isinstance, words, repeat(list))):
        raise ValueError("each codeword must be a list of integers")
    return Code(SimplexSpace(n, ell), words, radius_claim=e)


def dumps_code(code: Code) -> str:
    """Canonical JSON text of a code: fixed key order, codewords sorted."""
    return json.dumps({"n": code.space.n, "ell": code.space.ell, "e": code.radius_claim,
                       "codewords": code.matrix.tolist()}) + "\n"


def save_code(code: Code, path) -> None:
    Path(path).write_text(dumps_code(code), encoding="utf-8")


def _read_json(path, kind: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON in {kind} file {path}: {exc}") from exc


def load_code(path) -> Code:
    return code_from_dict(_read_json(path, "code"))
