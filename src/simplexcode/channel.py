"""Noisy permutation-channel simulation for multiset codes.

A codeword (a multiplicity vector) is sent as a bag of symbols; the channel
permutes the bag arbitrarily and may corrupt it with symbol substitutions,
deletions, and insertions. The receiver sees only how often each symbol
arrived, so the channel is modelled on count vectors alone: one transition
function maps a count vector and an event kind to the count vectors a
single event can lead to, each weighted by the number of position-level
events that produce it. Sampling draws every event from these weights;
exhaustive mode pushes exact integer weights through all events. Both
modes fill one histogram of (sent, received) count-vector pairs and decode
each distinct pair once.

The receiver decodes the count vector against the code under the
symmetric-difference metric: the unhalved L1 distance between count
vectors, which stays meaningful when insertions or deletions change the
cardinality and the received vector leaves the simplex.

Randomness comes from one Philox4x64 stream keyed by the seed: a run
draws its trials from it in order, so a run is reproducible from the seed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .codes import Code
from .errors import AmbiguousDecodeError, BudgetExceededError
from .simplex import Point

# Every run refuses to start above this many event steps (events times
# codewords, trials or 1); exhaustive mode also refuses above this many
# patterns, which bounds its integer weights and the `trials` it reports.
EXHAUSTIVE_PATTERN_BUDGET = 2_000_000

_SELECTIONS = ("uniform", "round-robin")


@dataclass(frozen=True)
class ChannelConfig:
    """Exact noise-event counts plus the RNG seed.

    The channel applies exactly `substitutions` substitutions (uniform
    position, uniform different symbol), then exactly `deletions` deletions
    (uniform position), then exactly `insertions` insertions (uniform
    symbol, uniform position), then a uniform permutation, which the
    receiver cannot see.
    """

    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("substitutions", "insertions", "deletions", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in ("substitutions", "insertions", "deletions"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _rng(seed: int) -> np.random.Generator:
    """The Philox4x64 stream keyed by the seed; one per run."""
    return np.random.Generator(np.random.Philox(key=seed))


def _events(cfg: ChannelConfig) -> Iterator[str]:
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


def _check_events(length: int, cfg: ChannelConfig, n: int, runs: int) -> None:
    """Reject events that cannot act on a sequence of this length over n+1
    symbols, and more event steps over `runs` runs than the budget allows.

    A run without events still costs one step (its decode).
    """
    if cfg.substitutions and n < 1:
        raise ValueError("substitution needs an alphabet with at least 2 symbols")
    if cfg.deletions > length:
        raise ValueError(
            f"cannot delete {cfg.deletions} symbols from a sequence of length {length}"
        )
    if cfg.substitutions and length == 0:
        raise ValueError("cannot substitute into an empty sequence")
    steps = max(cfg.substitutions + cfg.deletions + cfg.insertions, 1) * runs
    if steps > EXHAUSTIVE_PATTERN_BUDGET:
        raise BudgetExceededError(
            f"the run would take {steps} event steps, "
            f"over the budget of {EXHAUSTIVE_PATTERN_BUDGET}"
        )


def _check_patterns(length: int, cfg: ChannelConfig, n: int, words: int) -> None:
    """Reject exhaustive runs of more noise patterns than the budget.

    The count is `words` times one factor per event in channel order; once
    _check_events has passed, every factor is >= 1, so the first partial
    product over the budget decides without forming the whole count.
    """
    patterns = 1
    for factor in chain(
        (words,),
        repeat(length * n, cfg.substitutions),
        range(length, length - cfg.deletions, -1),
        ((length - cfg.deletions + k) * (n + 1) for k in range(1, cfg.insertions + 1)),
    ):
        patterns *= factor
        if patterns > EXHAUSTIVE_PATTERN_BUDGET:
            raise BudgetExceededError(
                "exhaustive mode would enumerate more noise patterns "
                f"than the budget of {EXHAUSTIVE_PATTERN_BUDGET}"
            )


def _sample(counts: Point, cfg: ChannelConfig, rng: np.random.Generator) -> Point:
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


def transmit(counts, cfg: ChannelConfig) -> Point:
    """Push a count vector through the noisy permutation channel.

    `counts` has one entry per alphabet symbol; the result is the received
    count vector, fully determined by cfg.seed. A run's stream starts the
    same way: a round-robin run's first trial receives
    transmit(code.codewords[0], cfg).
    """
    sent = tuple(counts)
    if not sent or any(not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in sent):
        raise ValueError(f"counts must be one or more nonnegative integers, got {sent!r}")
    _check_events(sum(sent), cfg, len(sent) - 1, 1)
    return _sample(sent, cfg, _rng(cfg.seed))


def symmetric_difference(a, b) -> int:
    """Unhalved L1 distance between count vectors of any cardinalities."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(abs(x - y) for x, y in zip(a, b))


def decode_received(code: Code, received) -> tuple[Point, int]:
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


@dataclass(frozen=True)
class ExperimentStats:
    """Aggregated decode outcomes of one experiment.

    `trials` is the number of decode attempts: the requested trial count in
    sampling mode, or codewords x noise patterns in exhaustive mode.
    `errors` counts wrong unambiguous decodes; ambiguous decodes are a
    separate failure mode. score_total sums the decoder's achieved metric
    values (integer, so the mean is exact).
    """

    trials: int
    successes: int
    ambiguous: int
    errors: int
    score_total: int
    exhaustive: bool

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def ambiguous_rate(self) -> float:
        return self.ambiguous / self.trials

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials

    @property
    def mean_score(self) -> float:
        return self.score_total / self.trials

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "ambiguous": self.ambiguous,
            "errors": self.errors,
            "success_rate": self.success_rate,
            "ambiguous_rate": self.ambiguous_rate,
            "error_rate": self.error_rate,
            "mean_score": self.mean_score,
            "exhaustive": self.exhaustive,
        }


def run_experiment(
    code: Code,
    cfg: ChannelConfig,
    trials: int,
    codeword_selection: str = "uniform",
    *,
    exhaustive: bool = False,
) -> ExperimentStats:
    """Send codewords through the channel, decode, and tally the outcomes.

    Sampling mode runs `trials` independent trials in order from one stream
    keyed by the seed; each draws its codeword (uniform, or round-robin
    takes the next one) and then its noise.

    Exhaustive mode ignores `trials` and counts every position-level noise
    pattern of the configured weights for every codeword: integer weights
    are pushed through the events, and each received vector is counted once
    per pattern leading to it. Each pattern is equally likely under
    sampling, so the exhaustive rates are the exact expectations.
    success_rate == 1.0 thus proves that no pattern of that weight can fool
    the decoder.

    Either mode decodes each distinct (sent, received) pair once.
    """
    if codeword_selection not in _SELECTIONS:
        raise ValueError(f"codeword_selection must be one of {_SELECTIONS}")
    if not exhaustive:
        if not isinstance(trials, int) or isinstance(trials, bool):
            raise TypeError(f"trials must be an integer, got {trials!r}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
    length, n, words = code.space.ell, code.space.n, code.codewords
    _check_events(length, cfg, n, len(words) if exhaustive else trials)
    received: Counter = Counter()
    if exhaustive:
        _check_patterns(length, cfg, n, len(words))
        for sent in words:
            weights: Counter = Counter({sent: 1})
            for kind in _events(cfg):
                nxt: Counter = Counter()
                for counts, weight in weights.items():
                    for moved, ways in _transitions(counts, kind):
                        nxt[moved] += weight * ways
                weights = nxt
            received.update({(sent, counts): weight for counts, weight in weights.items()})
    else:
        rng = _rng(cfg.seed)
        for t in range(trials):
            if codeword_selection == "uniform":
                sent = words[int(rng.integers(len(words)))]
            else:
                sent = words[t % len(words)]
            received[sent, _sample(sent, cfg, rng)] += 1
    successes = ambiguous = errors = score_total = 0
    for (sent, counts), weight in received.items():
        try:
            decoded, score = decode_received(code, counts)
        except AmbiguousDecodeError as exc:
            ambiguous += weight
            score = exc.score
        else:
            if decoded == sent:
                successes += weight
            else:
                errors += weight
        score_total += score * weight
    return ExperimentStats(
        trials=sum(received.values()),
        successes=successes,
        ambiguous=ambiguous,
        errors=errors,
        score_total=score_total,
        exhaustive=bool(exhaustive),
    )
