"""Exception types shared across the package."""

from __future__ import annotations

from .simplex import format_point


class AmbiguousDecodeError(Exception):
    """Two or more codewords are equally close to the received word.

    Carries the received count vector, the tied codewords, and the metric
    value they all achieve. Never raised when decoding points of the space
    against a perfect code.
    """

    def __init__(self, received, candidates, score):
        self.received = tuple(received)
        self.candidates = tuple(candidates)
        self.score = score
        names = ", ".join(map(format_point, self.candidates))
        super().__init__(f"ambiguous decode at score {score}: tied codewords {names}")


class BudgetExceededError(Exception):
    """A search or enumeration hit its configured resource budget.

    Raised instead of returning a truncated result, so that nonexistence
    conclusions are never based on a silently incomplete search.
    """
