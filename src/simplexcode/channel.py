"""Noisy permutation-channel simulation for multiset codes.

A codeword (a multiplicity vector) is sent as a bag of symbols; the channel
permutes the bag arbitrarily and may corrupt it with symbol substitutions,
deletions, and insertions. The receiver sees only how often each symbol
arrived, so the channel is modelled on count vectors alone: one event turns
a count vector into another, each outcome weighted by the number of
position-level events that produce it. _event picks an event's outcome
from a draw below its total weight; _runs walks states through the runs of
draws with one outcome. Exhaustive mode weighs each outcome by its run's
length. Sampling merges outcomes into distinct states and steps trials
through a table by (state, draw) until it would outgrow them, then moves a
(trials x symbols) count matrix. Both modes fill one histogram of (sent,
received) count-vector pairs, held as arrays that _tally merges, and
decode each distinct received vector once, against the codeword matrix.

The receiver decodes the count vector with the decoder of `codes.decode`
under the symmetric-difference metric: the unhalved L1 distance between
count vectors, which stays meaningful when insertions or deletions change
the cardinality and the received vector leaves the simplex.

Randomness comes from one Philox4x64 stream keyed by the seed: a run
draws its trials from it in order, so a run is reproducible from the seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .codes import _INT64_LIMIT, Code, _decode, _matrix, _nearest
from .errors import BudgetExceededError
from .simplex import Point

# Budgets that _check_run prices before a run starts; each admits seconds
# of work on one core. "Runs" are trials in sampling mode,
# codewords in exhaustive mode and 1 for transmit. Each event takes one
# pass over the runs' count vectors, priced at no fewer than _ROW_CELLS
# counts a row (its draw and tally) and _PASS_CELLS a pass (numpy's
# per-call cost); a run without events still takes one pass, its tally.
# The row floor caps events x runs at EVENT_WORK_BUDGET // _ROW_CELLS.
# Sampled trials that step through a table cost less than that price.
EVENT_WORK_BUDGET = 100_000_000
_PASS_CELLS = 512
_ROW_CELLS = 50
# Decoding compares received vectors x codewords x symbols counts, priced
# on the runs before a run (a sampled trial adds at most one distinct
# vector) and on the distinct vectors an exhaustive run produced after it.
# At the budget that is about 2 s on 1,001 symbols but 11-12 s on 2.
DECODE_WORK_BUDGET = 1_000_000_000
# Exhaustive mode's noise patterns (codewords times position-level
# patterns), which bound its int64 weights, exactly, and its `trials`.
EXHAUSTIVE_PATTERN_BUDGET = 2_000_000
# Counts of the (sent, received) pairs a run holds, at worst one pair per
# trial, as when every trial is its own state; a run peaks at about 4 bytes
# a held count while the counts are int8 (3.5-4.2 on 4-10 million counts of
# 251 symbols, the merges and a chunk's arrays included).
HELD_COUNT_BUDGET = 25_000_000

# A sampled chunk of trials draws, and holds counts for, about this many
# cells: large chunks pay numpy's per-call price less often, in a few MB.
_SAMPLE_CELLS = 2**18
_CALL_CELLS = 2**12  # an _event call's own cost, in counts of its rows

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

    `runs` runs of the events are priced, each decoding one vector against
    `words` codewords (0: no decode), priced again on the vectors a run
    produced. The O(1) work prices come first, so the checks after them walk
    at most EVENT_WORK_BUDGET // _PASS_CELLS events. Every event's total
    weight must fit a 64-bit draw, so the error names it rather than numpy.
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
    _check_decode(runs, words, n)
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


def _check_decode(vectors: int, words: int, n: int) -> None:
    """Refuse to decode `vectors` count vectors over the decode-work budget."""
    if (work := vectors * words * (n + 1)) > DECODE_WORK_BUDGET:
        raise BudgetExceededError(f"decoding would compare {work} counts (received vectors x "
                                  f"codewords x symbols), over the budget of {DECODE_WORK_BUDGET}")


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


def _tally(sent: np.ndarray, counts: np.ndarray, weights: np.ndarray) -> tuple:
    """The distinct (sent, received) rows with their summed weights, ordered
    by received vector and then by sent index, so that equal received
    vectors are adjacent; and each row's group, the index of its distinct row."""
    # A column equal in every row neither orders the rows nor tells them apart.
    varying = counts[:, (counts != counts[0]).any(axis=0)]
    order = np.lexsort((sent, *varying.T))
    keys, varying = sent[order], varying[order]
    new = np.append(True, (keys[1:] != keys[:-1]) | (varying[1:] != varying[:-1]).any(axis=1))
    starts = np.flatnonzero(new)
    group = np.empty_like(order)
    group[order] = new.cumsum() - 1
    return keys[starts], counts[order[starts]], np.add.reduceat(weights[order], starts), group


def _runs(states: np.ndarray, kind: str, total: int) -> tuple:
    """Every run of draws of one event on every state: the state's index,
    the outcome, and where the run starts and ends. Each state takes a run
    per _event call from draw 0, until the calls due at its last run length
    cost more, at _CALL_CELLS counts each, than one call with a row per
    remaining draw that fits a chunk's cells: short runs take few calls."""
    live, r, run, out = np.arange(len(states)), np.zeros(len(states), dtype=np.int64), total, []
    while len(live):
        left = total - r
        last = left.sum() * states.shape[1] <= min((left // run).max() * _CALL_CELLS, _SAMPLE_CELLS)
        if last:
            live = np.repeat(live, left)
            r = np.arange(len(live)) + np.repeat(r + left - left.cumsum(), left)
        moved = states[live]
        ends = _event(moved, kind, r, total)
        if last:  # runs start at their state's first draw or where one ends
            keep = np.append(True, (live[1:] != live[:-1]) | (ends[:-1] == r[1:]))
            live, moved, r, ends = live[keep], moved[keep], r[keep], ends[keep]
        out.append((live, moved, r, ends))
        more = (ends < total) & (not last)
        live, r, run = live[more], ends[more], (ends - r)[more]
    return tuple(map(np.concatenate, zip(*out)))


def _step(states: np.ndarray, ids: np.ndarray, r: np.ndarray, kind: str, total: int) -> tuple:
    """An event's distinct outcomes, and each trial's id among them off a (state, draw) table."""
    state, outcome, begin, end = _runs(states, kind, total)
    unkeyed = np.zeros(len(state), dtype=np.int8)
    _, outcomes, _, group = _tally(unkeyed, outcome, unkeyed)  # one sent key, no weights
    order = np.argsort(state, kind="stable")  # by (state, run start)
    return outcomes, np.repeat(group[order], (end - begin)[order])[ids * total + r]


def _sample_run(
    words, length: int, cfg: ChannelConfig, trials: int, selection: str, rng
) -> tuple:
    """The _tally of `trials` trials drawn in order from `rng`: sent
    codeword indices, received count vectors and their numbers of trials.
    `words` holds the codewords as rows, each of `length` symbols.

    Every trial draws the same bounds: its codeword index (uniform
    selection), then each event's total weight, which depends only on the
    length. So one call per chunk, the row of bounds broadcast against
    (trials, bounds), draws exactly the values that one scalar call per
    bound would, and leaves the stream where they would leave it. A trial
    holds an id into its chunk's distinct states and takes each event's
    _step while its table holds no more entries than the chunk holds
    trials; then (one trial, many codewords, ell-scale totals) each trial
    moves its own row of counts. When every event took the table, the
    chunk's trials are counted by one integer key, (id, sent), before any
    count row is built. Chunk tallies merge whenever their rows double:
    merges sort at most about twice the rows made.
    """
    schedule = list(_schedule(length, cfg, len(words[0]) - 1))
    bounds = [len(words)] if selection == "uniform" else []
    bounds += [total for _, total in schedule]
    chunk = max(1, min(trials, _SAMPLE_CELLS // max(len(words[0]), len(bounds))))
    bounds = np.array(bounds, dtype=np.int64)
    sent_rows = _matrix(words, length + cfg.insertions)
    held, rows, merged = [], 0, 0  # chunk tallies, their rows, rows at the last merge
    for start in range(0, trials, chunk):
        draws = rng.integers(bounds, size=(min(chunk, trials - start), len(bounds)))
        if selection == "uniform":
            sent, draws = draws[:, 0], draws[:, 1:]
        else:
            sent = np.arange(start, start + len(draws)) % len(words)
        states, ids, k = sent_rows, sent, 0
        # Keys id * total + draw stay below the table's size <= trials: no wrap.
        while k < len(schedule) and len(states) * schedule[k][1] <= len(ids):
            states, ids = _step(states, ids, draws[:, k], *schedule[k])
            k += 1
        if k < len(schedule):
            counts, weights = states[ids], np.ones(len(sent), dtype=np.int64)
            for (kind, total), r in zip(schedule[k:], draws.T[k:]):
                _event(counts, kind, r, total)
        else:  # counted by (state, sent) before any count row is built
            # Keys stay below len(states) * len(words): ids stay below the
            # chunk's trials (at most 2**18) or, without events, the
            # codewords, and _check_decode keeps trials x codewords at most
            # 10**9, so no key wraps. The key stays int64: np.unique sorts
            # it faster than an 8-bit one.
            keys, weights = np.unique(ids * len(words) + sent, return_counts=True)
            ids, sent = np.divmod(keys, len(words))
            counts = states[ids]
        # Narrowed, as a sort key: numpy sorts 8- and 16-bit keys by radix.
        held.append(_tally(_matrix(sent, len(words)), counts, weights)[:3])
        rows += len(held[-1][0])
        if len(held) > 1 and (rows >= 2 * merged or start + chunk >= trials):
            sent, counts, weights = map(np.concatenate, zip(*held))
            held.clear()  # only the merged tally outlives the merge
            held.append(_tally(sent, counts, weights)[:3])
            rows = merged = len(held[0][0])
    return held[0]


def _exhaustive_run(words, length: int, cfg: ChannelConfig) -> tuple:
    """Sent codeword indices, received count vectors and the number of noise
    patterns, and so of sampler draw sequences, that send one to the other:
    a _tally after any event, codewords in order without events. Each run
    of a (sent, state) row weighs the row's weight times the run's length;
    no weight exceeds the pattern count, which EXHAUSTIVE_PATTERN_BUDGET caps."""
    sent, counts = np.arange(len(words)), _matrix(words, length + cfg.insertions)
    weights = np.ones(len(words), dtype=np.int64)
    for kind, total in _schedule(length, cfg, len(words[0]) - 1):
        row, counts, begin, end = _runs(counts, kind, total)
        sent, counts, weights, _ = _tally(sent[row], counts, weights[row] * (end - begin))
    return sent, counts, weights


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
    length = sum(sent)
    _check_run(length, cfg, len(sent) - 1, 1, 0)
    words = _matrix([sent], length + cfg.insertions)
    _, received, _ = _sample_run(words, length, cfg, 1, "round-robin", _rng(cfg.seed))
    return tuple(received[0].tolist())


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

    Either mode decodes each distinct received vector once, after pricing
    that decode: distinct vectors x codewords x symbols.
    """
    if codeword_selection not in _SELECTIONS:
        raise ValueError(f"codeword_selection must be one of {_SELECTIONS}")
    if not exhaustive:
        if not isinstance(trials, int) or isinstance(trials, bool):
            raise TypeError(f"trials must be an integer, got {trials!r}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
    length, n, words = code.space.ell, code.space.n, code.matrix
    _check_run(length, cfg, n, len(words) if exhaustive else trials, len(words), exhaustive)
    if exhaustive:
        sent, counts, weights = _exhaustive_run(words, length, cfg)
    else:
        sent, counts, weights = _sample_run(
            words, length, cfg, trials, codeword_selection, _rng(cfg.seed)
        )
    # Equal received vectors are adjacent: each distinct one starts a group.
    first = np.append(True, (counts[1:] != counts[:-1]).any(axis=1))
    _check_decode(int(first.sum()), len(words), n)
    # A score is at most ell plus the received length, itself at most ell + insertions.
    index, score = _decode(words, counts[first], 2 * (length + cfg.insertions))
    group = first.cumsum() - 1
    index, score = index[group], score[group]
    trials, successes = int(weights.sum()), int(weights[index == sent].sum())
    ambiguous = int(weights[index < 0].sum())
    errors, score_total = trials - successes - ambiguous, int((score * weights).sum())
    return ExperimentStats(trials, successes, ambiguous, errors, score_total, bool(exhaustive))
