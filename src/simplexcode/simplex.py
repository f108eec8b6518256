"""The discrete simplex as a metric space: points, distance, neighbors, balls.

A point of the simplex is an (n+1)-tuple of nonnegative integers summing to
ell: the multiplicity vector of a multiset of cardinality ell over an
alphabet of n+1 symbols. The metric is half the L1 distance, which is
integer-valued here because coordinate sums are equal.
"""

from __future__ import annotations

import math
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
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.ell < 0:
            raise ValueError(f"ell must be >= 0, got {self.ell}")
        # C(n+ell, ell) >= 2**min(n, ell): skip the exact count when that is too big.
        if min(self.n, self.ell) >= 63 or math.comb(self.n + self.ell, self.ell) > _MAX_SPACE_SIZE:
            raise OverflowError(
                f"space size C({self.n + self.ell},{self.ell}) does not fit in 64 bits"
            )

    def size(self) -> int:
        """Number of points: C(n+ell, ell)."""
        return math.comb(self.n + self.ell, self.ell)

    def points(self) -> Iterator[Point]:
        return enumerate_space(self)

    def __contains__(self, coords) -> bool:
        t = tuple(coords)
        return (
            len(t) == self.n + 1
            and all(isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in t)
            and sum(t) == self.ell
        )


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


def ball_size(x: Point, e: int) -> int:
    """|ball(x, e)|, counted by dynamic programming without materializing the set.

    Counts offset vectors s with x+s componentwise nonnegative, sum(s) = 0
    and total negative mass at most e. State per coordinate: (net offset so
    far, negative mass spent so far), both bounded by e.
    """
    if e < 0:
        raise ValueError(f"radius must be >= 0, got {e}")
    states = {(0, 0): 1}
    for c in x:
        nxt: dict[tuple[int, int], int] = {}
        for (net, neg), ways in states.items():
            for s in range(-min(c, e), e + 1):
                neg2 = neg - s if s < 0 else neg
                if neg2 > e:
                    continue
                net2 = net + s
                if net2 < -e or net2 + neg2 > e:
                    continue
                key = (net2, neg2)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(w for (net, _), w in states.items() if net == 0)


def format_point(x: Point) -> str:
    """Text form used in CLI output and certificates, e.g. [5,0,2]."""
    return "[" + ",".join(str(c) for c in x) + "]"


def parse_point(text: str) -> Point:
    """Inverse of format_point; accepts surrounding whitespace."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"point must look like [a,b,c], got {text!r}")
    inner = t[1:-1].strip()
    if not inner:
        raise ValueError("point needs at least one coordinate")
    return tuple(int(part) for part in inner.split(","))
