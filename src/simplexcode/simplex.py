"""The discrete simplex as a metric space: points, distance, neighbors, balls.

A point of the simplex is an (n+1)-tuple of nonnegative integers summing to
ell: the multiplicity vector of a multiset of cardinality ell over an
alphabet of n+1 symbols. The metric is half the L1 distance, which is
integer-valued here because coordinate sums are equal.

Points are numbered by their position in enumeration order (point_at maps
an id back to its point), and ball_runs, which lists a ball as ascending
runs of consecutive ids, is the one place that decides ball membership.

Ids do not depend on ell. The points before y in the (decreasing) order
have z_0 >= y_0, so y's id in the space of ell equals the id of y - k*e_0
in the space of ell - k for every k <= y_0: an id is fixed by y_1..y_n, and
the ids below C(ell+n, n) are the tails summing to at most ell. Hence
B(c, e) has the ids of B(c + k*e_0, e) when c_0 >= e, and when c_0 < e it
is the ball of (e, c_1, ..., c_n) cut at C(ell+n, n): its points y with
y_0 < e - c_0 are the ones past the space.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

Point = tuple[int, ...]

# Point counts are kept within a signed 64-bit word; everything downstream
# (budgets, reports) assumes desk scale.
_MAX_SPACE_SIZE = 2**63 - 1


@dataclass(frozen=True)
class SimplexSpace:
    """All (n+1)-tuples of nonnegative integers summing to ell.

    n is the alphabet size minus one; ell is the multiset cardinality
    (the code length when the space hosts a code).
    """

    n: int
    ell: int

    def __post_init__(self) -> None:
        _check_ints(n=self.n, ell=self.ell)
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.ell < 0:
            raise ValueError(f"ell must be >= 0, got {self.ell}")
        # C(n+ell, ell) >= 2**min(n, ell): skip the exact count when that is too big.
        size = math.comb(self.n + self.ell, self.ell) if min(self.n, self.ell) < 63 else None
        if size is None or size > _MAX_SPACE_SIZE:
            raise OverflowError(
                f"space size C({self.n + self.ell},{self.ell}) does not fit in 64 bits"
            )
        object.__setattr__(self, "_size", size)  # not a field: ==, hash and repr ignore it

    def size(self) -> int:
        """Number of points: C(n+ell, ell)."""
        return self._size

    def __contains__(self, coords) -> bool:
        try:
            make_point(self, coords)
        except (TypeError, ValueError):
            return False
        return True


def _check_ints(**values) -> None:
    """Refuse any value that is not an int, or is a bool."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def make_point(space: SimplexSpace, coords: Iterable[int]) -> Point:
    """Validate coords as a point of the space and return it as a tuple."""
    pt = tuple(coords)
    if len(pt) != space.n + 1:
        raise ValueError(f"point length must be n+1 = {space.n + 1}, got {len(pt)}")
    for c in pt:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"coordinates must be integers, got {c!r}")
        if c < 0:
            raise ValueError(f"coordinates must be nonnegative, got {c}")
    total = sum(pt)
    if total != space.ell:
        raise ValueError(f"coordinates must sum to ell = {space.ell}, got {total}")
    return pt


def distance(x: Point, y: Point) -> int:
    """Half-L1 distance between two points of the same space."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(abs(a - b) for a, b in zip(x, y)) // 2


def enumerate_space(space: SimplexSpace) -> Iterator[Point]:
    """Yield every point exactly once, in lexicographically decreasing order.

    The first point is (ell, 0, ..., 0) and the last is (0, ..., 0, ell).
    The order is fixed so that enumeration doubles as the canonical point
    order for code files and reports. Iterative: the successor lowers the
    last nonzero coordinate before the final one by 1 and moves the final
    one, plus that 1, into the next slot.
    """
    x = [space.ell] + [0] * space.n
    last = space.n
    while True:
        yield tuple(x)
        i = last - 1
        while i >= 0 and x[i] == 0:
            i -= 1
        if i < 0:
            return
        x[i] -= 1
        rest = x[last] + 1
        x[last] = 0
        x[i + 1] = rest


def point_at(space: SimplexSpace, j: int) -> Point:
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


def ball_runs(x: Point, e: int) -> Iterator[range]:
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
    comb = math.comb
    x_suf, low, nonzero, mass = [0] * (n + 1), [x[n]] * (n + 1), [n] * (n + 1), x[n]
    for i in range(n - 1, -1, -1):
        c = x[i]
        x_suf[i] = x_suf[i + 1] + comb(mass - 1 + n - i, n - i)
        low[i] = c if c < low[i + 1] else low[i + 1]
        nonzero[i] = i if c else nonzero[i + 1]
        mass += c
    start = stop = 0  # the run being merged
    stack = [(0, mass, 0, 0, 0)]  # (coordinate, mass left, pos, neg, id so far)
    while stack:
        i, rest, pos, neg, acc = stack.pop()
        k = n - i
        if pos + rest - low[i] <= e:  # pos grows by at most rest - low[i]: all of it is in
            lo, hi = acc, acc + comb(rest + k, k)
        elif k == 2:  # per value v of y_i, y_{n-1} spans ids a - hi .. a - lo
            c, d, top, bottom = x[i], x[i + 1], x[i] + e - pos, x[i] - e + neg
            if top > rest:
                top = rest
            r = rest - top
            a = acc + r * (r + 3) // 2  # acc + C(r + 1, 2) + r, grows by r + 2 a row
            up, dn = d + e - pos + c, d - e + neg + c  # y_{n-1}: dn - min(v, c) .. up - max(v, c)
            for v in range(top, bottom - 1 if bottom > 0 else -1, -1):
                if v > c:
                    t, b = up - v, dn - c
                else:
                    t, b = up - c, dn - v
                lo = a - (r if r < t else t)
                hi = a + 1 - (b if b > 0 else 0)
                if lo == stop:
                    stop = hi
                else:
                    if stop:
                        yield range(start, stop)
                    start, stop = lo, hi
                r += 1
                a += r + 1
            continue
        elif pos == neg == e:
            lo = acc + x_suf[i]
            hi = lo + 1
        elif pos == e and not x[i]:
            j = nonzero[i]
            if j == n:  # y_n takes the rest: the last point below this branch
                lo = acc + comb(rest + k, k) - 1
                hi = lo + 1
            else:
                j = min(j, n - 2)
                skipped = comb(rest + k, k) - comb(rest + n - j, n - j)
                stack.append((j, rest, pos, neg, acc + skipped))
                continue
        else:
            c, top, bottom = x[i], x[i] + e - pos, x[i] - e + neg
            if top > rest:
                top = rest
            for v in range(bottom if bottom > 0 else 0, c if c <= top else top + 1):
                stack.append((i + 1, rest - v, pos, neg + c - v, acc + comb(rest - v - 1 + k, k)))
            for v in range(c, top + 1):
                stack.append((i + 1, rest - v, pos + v - c, neg, acc + comb(rest - v - 1 + k, k)))
            continue
        if lo == stop:
            stop = hi
        else:
            if stop:
                yield range(start, stop)
            start, stop = lo, hi
    yield range(start, stop)


def ball(x: Point, e: int) -> set[Point]:
    """All points within distance e of x: the decoding region of x."""
    space = SimplexSpace(len(x) - 1, sum(x))
    return {point_at(space, j) for r in ball_runs(x, e) for j in r}


def neighbors(x: Point) -> set[Point]:
    """All points at distance exactly 1 from x (six for interior points when n = 2)."""
    return ball(x, 1) - {x}


def ball_size(x: Point, e: int) -> int:
    """|ball(x, e)|, counted without building the points."""
    return sum(len(r) for r in ball_runs(x, e))


def format_point(x: Point) -> str:
    """Text form used in CLI output and certificates, e.g. [5,0,2]."""
    return "[" + ",".join(str(c) for c in x) + "]"

