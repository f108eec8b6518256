"""Noisy permutation-channel simulation for multiset codes.

A codeword (a multiplicity vector) is transmitted as a bag of symbols; the
channel permutes the bag arbitrarily and may corrupt it with symbol
substitutions, deletions, and insertions. The receiver counts symbol
occurrences, so the permutation drops out, and decodes the count vector
against the code under the symmetric-difference metric: the unhalved L1
distance between count vectors, which stays meaningful when insertions or
deletions change the cardinality and the received vector leaves the
simplex.

Randomness comes from the Philox4x64 counter-based generator keyed by
(seed, trial index), so every trial is an independent, reproducible
substream and the outcome of a trial does not depend on the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import Code
from .errors import AmbiguousDecodeError, BudgetExceededError
from .simplex import Point

SymbolSequence = tuple[int, ...]

# Exhaustive pattern enumeration refuses to start above this many patterns.
EXHAUSTIVE_PATTERN_BUDGET = 2_000_000

_SELECTIONS = ("uniform", "round-robin")


@dataclass(frozen=True)
class ChannelConfig:
    """Exact noise-event counts plus the RNG seed.

    The channel applies exactly `substitutions` substitutions (uniform
    position, uniform different symbol), then exactly `deletions` deletions
    (uniform position), then exactly `insertions` insertions (uniform
    symbol, uniform position), then a uniform permutation.
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


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Philox4x64 stream keyed by (seed, trial); independent per trial."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_alphabet(seq, n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for sym in seq:
        if not 0 <= sym <= n:
            raise ValueError(f"symbol {sym} outside alphabet 0..{n}")


def encode(c: Point) -> SymbolSequence:
    """Spell a multiplicity vector out as a sequence: c[i] copies of symbol i."""
    out: list[int] = []
    for sym, count in enumerate(c):
        out.extend([sym] * count)
    return tuple(out)


def _apply_noise(seq, cfg: ChannelConfig, n: int, rng: np.random.Generator) -> list[int]:
    s = list(seq)
    if cfg.substitutions:
        if not s:
            raise ValueError("cannot substitute into an empty sequence")
        if n < 1:
            raise ValueError("substitution needs an alphabet with at least 2 symbols")
    for _ in range(cfg.substitutions):
        pos = int(rng.integers(len(s)))
        shift = 1 + int(rng.integers(n))  # uniform over the n other symbols
        s[pos] = (s[pos] + shift) % (n + 1)
    if cfg.deletions > len(s):
        raise ValueError(
            f"cannot delete {cfg.deletions} symbols from a sequence of length {len(s)}"
        )
    for _ in range(cfg.deletions):
        pos = int(rng.integers(len(s)))
        del s[pos]
    for _ in range(cfg.insertions):
        pos = int(rng.integers(len(s) + 1))
        s.insert(pos, int(rng.integers(n + 1)))
    order = rng.permutation(len(s))
    return [s[i] for i in order]


def transmit(seq: SymbolSequence, cfg: ChannelConfig, n: int, trial: int = 0) -> SymbolSequence:
    """Push a sequence through the noisy permutation channel.

    The output is fully determined by (cfg.seed, trial). The alphabet size
    must be supplied because substitutions and insertions draw replacement
    symbols from it.
    """
    _check_alphabet(seq, n)
    rng = _trial_rng(cfg.seed, trial)
    return tuple(_apply_noise(seq, cfg, n, rng))


def receive(seq, n: int) -> tuple[int, ...]:
    """Count symbol occurrences; permutation-invariant by construction."""
    _check_alphabet(seq, n)
    counts = [0] * (n + 1)
    for sym in seq:
        counts[sym] += 1
    return tuple(counts)


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


def _decode_outcome(code: Code, sent: Point, received_counts) -> tuple[str, int]:
    try:
        decoded, score = decode_received(code, received_counts)
    except AmbiguousDecodeError as exc:
        return "ambiguous", exc.score
    return ("success" if decoded == sent else "error"), score


def run_experiment(
    code: Code,
    cfg: ChannelConfig,
    trials: int,
    codeword_selection: str = "uniform",
    *,
    exhaustive: bool = False,
) -> ExperimentStats:
    """Drive encode -> channel -> receive -> decode and tally the outcomes.

    Sampling mode runs `trials` independent trials; trial t draws its
    codeword (uniform or round-robin) and its noise from the (seed, t)
    substream, so results do not depend on the order trials run in.

    Exhaustive mode ignores `trials` and instead enumerates every noise
    pattern of the configured weights for every codeword. Patterns are
    enumerated at the granularity the sampler draws them (position by
    position), so each pattern is equally likely under sampling and the
    exhaustive rates equal the exact expectations. This proves worst-case
    claims: success_rate == 1.0 means no pattern of that weight can fool
    the decoder.
    """
    if codeword_selection not in _SELECTIONS:
        raise ValueError(f"codeword_selection must be one of {_SELECTIONS}")
    if exhaustive:
        return _run_exhaustive(code, cfg)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = code.space.n
    words = code.codewords

    def one_trial(t: int) -> tuple[str, int]:
        rng = _trial_rng(cfg.seed, t)
        if codeword_selection == "uniform":
            sent = words[int(rng.integers(len(words)))]
        else:
            sent = words[t % len(words)]
        noisy = _apply_noise(encode(sent), cfg, n, rng)
        return _decode_outcome(code, sent, receive(noisy, n))

    return _tally([one_trial(t) for t in range(trials)], exhaustive=False)


def _tally(outcomes, *, exhaustive: bool) -> ExperimentStats:
    successes = sum(1 for kind, _ in outcomes if kind == "success")
    ambiguous = sum(1 for kind, _ in outcomes if kind == "ambiguous")
    errors = sum(1 for kind, _ in outcomes if kind == "error")
    score_total = sum(score for _, score in outcomes)
    return ExperimentStats(
        trials=len(outcomes),
        successes=successes,
        ambiguous=ambiguous,
        errors=errors,
        score_total=score_total,
        exhaustive=exhaustive,
    )


def count_noise_patterns(length: int, cfg: ChannelConfig, n: int) -> int:
    """Number of position-level noise patterns exhaustive mode will visit."""
    if cfg.deletions > length:
        raise ValueError(
            f"cannot delete {cfg.deletions} symbols from a sequence of length {length}"
        )
    if cfg.substitutions and length == 0:
        raise ValueError("cannot substitute into an empty sequence")
    total = (length * n) ** cfg.substitutions
    size = length
    for _ in range(cfg.deletions):
        total *= size
        size -= 1
    for _ in range(cfg.insertions):
        total *= (size + 1) * (n + 1)
        size += 1
    return total


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


def _run_exhaustive(code: Code, cfg: ChannelConfig) -> ExperimentStats:
    n = code.space.n
    ell = code.space.ell
    if cfg.substitutions and n < 1:
        raise ValueError("substitution needs an alphabet with at least 2 symbols")
    per_codeword = count_noise_patterns(ell, cfg, n)
    total = per_codeword * len(code.codewords)
    if total > EXHAUSTIVE_PATTERN_BUDGET:
        raise BudgetExceededError(
            f"exhaustive mode would enumerate {total} patterns, "
            f"over the budget of {EXHAUSTIVE_PATTERN_BUDGET}"
        )
    outcomes = []
    for sent in code.codewords:
        base = encode(sent)
        for noisy in _noisy_variants(base, cfg.substitutions, cfg.deletions, cfg.insertions, n):
            outcomes.append(_decode_outcome(code, sent, receive(noisy, n)))
    return _tally(outcomes, exhaustive=True)
