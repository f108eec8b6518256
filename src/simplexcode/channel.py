"""Noisy permutation-channel simulation for multiset codes.

A codeword (a multiplicity vector) is sent as a bag of symbols; the channel
permutes the bag arbitrarily and may corrupt it with symbol substitutions,
deletions, and insertions. The receiver sees only how often each symbol
arrived, so the channel is modelled on count vectors alone: one event turns
a count vector into another, each outcome weighted by the number of
position-level events that produce it. _event picks an event's outcome
from a draw below its total weight: sampling applies it to a (trials x
symbols) count matrix at uniform draws, exhaustive mode walks every state
through all the draws run by run. Both modes fill one histogram of (sent,
received) count-vector pairs, sampling one sorted chunk of trials at a
time, and decode each distinct received vector once, against a matrix of
the codewords.

The receiver decodes the count vector with the decoder of `codes.decode`
under the symmetric-difference metric: the unhalved L1 distance between
count vectors, which stays meaningful when insertions or deletions change
the cardinality and the received vector leaves the simplex.

Randomness comes from one Philox4x64 stream keyed by the seed: a run
draws its trials from it in order, so a run is reproducible from the seed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .codes import _CHUNK_CELLS, _INT64_LIMIT, Code, _decode, _matrix, _nearest
from .errors import BudgetExceededError
from .simplex import Point

# Budgets that _check_run prices before a run starts; each admits seconds
# of work on one core. "Runs" are trials in sampling mode,
# codewords in exhaustive mode and 1 for transmit. Each event takes one
# pass over the runs' count vectors, priced at no fewer than _ROW_CELLS
# counts a row (its draw and tally) and _PASS_CELLS a pass (numpy's
# per-call cost); a run without events still takes one pass, its tally.
# The row floor caps events x runs at EVENT_WORK_BUDGET // _ROW_CELLS.
EVENT_WORK_BUDGET = 100_000_000
_PASS_CELLS = 512
_ROW_CELLS = 50
# Decoding compares up to runs x codewords x symbols counts, as a sampled
# trial adds at most one distinct received vector (exhaustive runs are
# bounded by their pattern count instead). At the budget that is 3-4 s on
# 1,001 symbols but about 11 s on 2, where each count costs 4x as much.
DECODE_WORK_BUDGET = 1_000_000_000
# Exhaustive mode's noise patterns (codewords times position-level
# patterns), which bound its integer weights and the `trials` it reports.
EXHAUSTIVE_PATTERN_BUDGET = 2_000_000
# Counts of the (sent, received) pairs a run holds, as tuples of about
# 9 bytes a count.
HELD_COUNT_BUDGET = 25_000_000

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


def _schedule(length: int, cfg: ChannelConfig, n: int) -> Iterator[tuple[str, int]]:
    """(kind, total weight) of each event in channel order, starting at this
    length: L*n for a substitution, L for a deletion, (L+1)(n+1) for an
    insertion, with L the length before the event. The totals are the
    factors of the position-level pattern count."""
    after = length - cfg.deletions
    return chain(
        repeat(("substitution", length * n), cfg.substitutions),
        (("deletion", size) for size in range(length, after, -1)),
        (("insertion", (after + k) * (n + 1)) for k in range(1, cfg.insertions + 1)),
    )


def _check_run(
    length: int, cfg: ChannelConfig, n: int, runs: int, words: int, exhaustive: bool = False
) -> None:
    """Reject events that cannot act on a sequence of this length over n+1
    symbols, and runs over a budget, before any work.

    `runs` runs of the events are priced, decoding against `words`
    codewords (0 when nothing is decoded). The O(1) work prices come first,
    so the checks after them walk at most EVENT_WORK_BUDGET // _PASS_CELLS
    events. Every event's total weight must fit a 64-bit draw, so the error
    names it rather than numpy.
    """
    if cfg.substitutions and n < 1:
        raise ValueError("substitution needs an alphabet with at least 2 symbols")
    if cfg.deletions > length:
        raise ValueError(
            f"cannot delete {cfg.deletions} symbols from a sequence of length {length}"
        )
    if cfg.substitutions and length == 0:
        raise ValueError("cannot substitute into an empty sequence")
    events = cfg.substitutions + cfg.deletions + cfg.insertions
    work = max(events, 1) * max(runs * max(n + 1, _ROW_CELLS), _PASS_CELLS)
    if work > EVENT_WORK_BUDGET:
        raise BudgetExceededError(
            f"the events would touch {work} counts (events x runs x symbols, at least "
            f"{_ROW_CELLS} per run and {_PASS_CELLS} per event), "
            f"over the budget of {EVENT_WORK_BUDGET}"
        )
    work = runs * words * (n + 1)
    if work > DECODE_WORK_BUDGET:
        raise BudgetExceededError(
            f"decoding would compare {work} counts (runs x codewords x symbols), "
            f"over the budget of {DECODE_WORK_BUDGET}"
        )
    totals = [total for _, total in _schedule(length, cfg, n)]
    weight = max(totals, default=0)
    if weight >= _INT64_LIMIT:
        raise BudgetExceededError(
            f"an event would choose among {weight} position-level events, "
            "at or above the sampler's limit of 2**63"
        )
    # A run holds at most one (sent, received) pair per run, or per pattern
    # in exhaustive mode. Every pattern factor is >= 1, so the first partial
    # product over the budget decides without forming the whole count.
    pairs = runs
    if exhaustive:
        for total in totals:
            pairs *= total
            if pairs > EXHAUSTIVE_PATTERN_BUDGET:
                raise BudgetExceededError(
                    "exhaustive mode would enumerate more noise patterns "
                    f"than the budget of {EXHAUSTIVE_PATTERN_BUDGET}"
                )
    # Nor more than codewords times the C(longest + n, n) count vectors of
    # the longest length reached; C(longest + n, i) >= 2**i, so counting
    # them up to `pairs` takes a few steps.
    longest = max(length, length - cfg.deletions + cfg.insertions)
    vectors = 1
    for i in range(1, min(longest, n) + 1):
        if vectors >= pairs:
            break
        vectors = vectors * (longest + n + 1 - i) // i
    held = min(pairs, words * vectors) * (n + 1)
    if held > HELD_COUNT_BUDGET:
        raise BudgetExceededError(
            f"the run would hold {held} counts ((sent, received) pairs x symbols), "
            f"over the budget of {HELD_COUNT_BUDGET}"
        )


def _event(counts: np.ndarray, kind: str, r: np.ndarray, total: int) -> np.ndarray:
    """Apply one event to every row of a C-contiguous count matrix, in place,
    and return where each row's run of draws with the same outcome ends.

    Each row's draw r (0 <= r < total) picks its outcome by arithmetic;
    this is the one statement of the draw layout. With S_i the sum of the
    counts before symbol i, symbol i owns the deletion draws
    [S_i, S_i + c_i) and the substitution draws [n*S_i, n*(S_i + c_i)),
    c_i of them for each target j != i in order; target j owns the
    insertion draws [j*w, (j+1)*w), w = total // (n+1). So a run is as long
    as the outcome's weight, and every run ends at or before `total`.
    """
    width = counts.shape[1]
    n = width - 1
    flat = counts.reshape(-1)
    base = np.arange(len(counts)) * width
    if kind == "insertion":
        w = total // width
        j = r // w
        flat[base + j] += 1
        return (j + 1) * w
    upto = counts.cumsum(axis=1)
    i = (upto > (r // n if kind == "substitution" else r)[:, None]).argmax(axis=1)
    at = base + i
    had = flat[at]
    flat[at] = had - 1
    end = upto.reshape(-1)[at]
    if kind == "deletion":
        return end
    start = n * (end - had)
    j = (r - start) // had
    flat[base + j + (j >= i)] += 1
    return start + (j + 1) * had


def _sample_run(words, cfg: ChannelConfig, trials: int, selection: str, rng) -> Counter:
    """(sent codeword index, received count vector) -> trials, over `trials`
    trials drawn in order from `rng`.

    Every trial draws the same bounds: its codeword index (uniform
    selection), then each event's total weight, which depends only on the
    length. So one array call per chunk of trials draws exactly the values
    that one scalar call per bound would, and leaves the stream where they
    would leave it. Each chunk's rows, sent index beside the received
    counts, are sorted on the columns that vary within the chunk, so that
    equal rows are adjacent, and each distinct pair is added to the
    histogram once with its number of trials.
    """
    length = sum(words[0])
    schedule = list(_schedule(length, cfg, len(words[0]) - 1))
    bounds = [len(words)] if selection == "uniform" else []
    bounds += [total for _, total in schedule]
    chunk = max(1, min(trials, _CHUNK_CELLS // max(len(words[0]), len(bounds))))
    tiled = np.array(bounds * chunk, dtype=np.int64).reshape(chunk, len(bounds))
    sent_rows = _matrix(words, length + cfg.insertions)
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
        # A column equal in every row neither orders the rows nor tells them apart.
        keys = np.column_stack((sent, counts[:, (counts != counts[0]).any(axis=0)]))
        order = np.lexsort(keys.T)
        keys = keys[order]
        starts = np.flatnonzero(np.append(True, (keys[1:] != keys[:-1]).any(axis=1)))
        firsts = order[starts]
        pairs = zip(sent[firsts].tolist(), map(tuple, counts[firsts].tolist()))
        for pair, size in zip(pairs, np.diff(starts, append=len(keys)).tolist()):
            received[pair] += size
    return received


def _exhaustive_run(words, cfg: ChannelConfig) -> Counter:
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


def _count_vector(values) -> Point:
    """`values` as Python ints: one or more Python or numpy integers >= 0, no bools."""
    counts = tuple(values)
    ok = (isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 0 for c in counts)
    if not counts or not all(ok):
        raise ValueError(f"counts must be one or more integers >= 0, got {counts!r}")
    return tuple(map(int, counts))


def transmit(counts, cfg: ChannelConfig) -> Point:
    """Push a count vector through the noisy permutation channel.

    `counts` has one entry per alphabet symbol; the result is the received
    count vector, fully determined by cfg.seed. A run's stream starts the
    same way: a round-robin run's first trial receives
    transmit(code.codewords[0], cfg).
    """
    sent = _count_vector(counts)
    _check_run(sum(sent), cfg, len(sent) - 1, 1, 0)
    ((_, received),) = _sample_run((sent,), cfg, 1, "round-robin", _rng(cfg.seed))
    return received


def decode_received(code: Code, received) -> tuple[Point, int]:
    """Minimum symmetric-difference decoding of a raw count vector.

    The received vector need not lie in the simplex (its cardinality may
    differ from ell after insertions or deletions). On vectors that do lie
    in the simplex this agrees with nearest-codeword decoding, with scores
    exactly twice the half-L1 distances. Ties raise AmbiguousDecodeError.
    """
    r = _count_vector(received)
    if len(r) != code.space.n + 1:
        raise ValueError(
            f"count vector has {len(r)} entries, alphabet needs {code.space.n + 1}"
        )
    return _nearest(code, r, code.space.ell + sum(r), 1)


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
        names = ("trials", "successes", "ambiguous", "errors", "success_rate",
                 "ambiguous_rate", "error_rate", "mean_score", "exhaustive")
        return {name: getattr(self, name) for name in names}


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
    pattern of the configured weights for every codeword: each received
    vector is counted once per sequence of sampler draws leading to it.
    Each such sequence is equally likely, so the exhaustive rates are the
    exact expectations, and success_rate == 1.0 proves that no pattern of
    that weight can fool the decoder.

    Either mode decodes each distinct received vector once.
    """
    if codeword_selection not in _SELECTIONS:
        raise ValueError(f"codeword_selection must be one of {_SELECTIONS}")
    if not exhaustive:
        if not isinstance(trials, int) or isinstance(trials, bool):
            raise TypeError(f"trials must be an integer, got {trials!r}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
    length, n, words = code.space.ell, code.space.n, code.codewords
    _check_run(length, cfg, n, len(words) if exhaustive else trials, len(words), exhaustive)
    if exhaustive:
        received = _exhaustive_run(words, cfg)
    else:
        received = _sample_run(words, cfg, trials, codeword_selection, _rng(cfg.seed))
    # A score is at most ell plus the received length, itself at most ell + insertions.
    vectors = list(dict.fromkeys(counts for _, counts in received))
    decoded = dict(zip(vectors, _decode(words, vectors, 2 * (length + cfg.insertions))))
    successes = ambiguous = errors = score_total = 0
    for (sent, counts), weight in received.items():
        index, score = decoded[counts]
        if index < 0:
            ambiguous += weight
        elif index == sent:
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
