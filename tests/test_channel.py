"""Permutation channel: count-vector noise, decoding, experiment harness."""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from oracles import (
    ORACLE_FAMILY,
    _noisy_variants,
    binomial_bounds,
    count_noise_patterns,
    counter_exhaustive_run,
    lexsort_sample_run,
    positional_exhaustive,
    python_decode_received,
    row_sample_run,
    scalar_sampled_experiment,
    sorted_move_sample_run,
    symmetric_difference,
    transition_dp_exhaustive,
    tuple_sample_run,
    two_guard_check,
)

from simplexcode import (
    AmbiguousDecodeError,
    BudgetExceededError,
    ChannelConfig,
    Code,
    ExperimentStats,
    SimplexSpace,
    channel,
    construct_binary_perfect,
    construct_ternary_perfect,
    count_binary_perfect,
    decode,
    decode_received,
    enumerate_space,
    run_experiment,
    transmit,
)

# Sampled counts must lie inside the central 1 - 2e-9 of their exact
# binomial distribution; a correct sampler misses about once in 10^8 checks.
_TAIL = Fraction(1, 10**9)

# Exhaustive outcomes on the ternary e=2 code (variant 2), keyed by
# (substitutions, insertions, deletions): (successes, ambiguous, errors, patterns).
EXACT_TERNARY_E2 = {
    (3, 0, 0): (6342, 0, 1890, 8232),
    (2, 1, 1): (73206, 0, 13230, 86436),
    (4, 0, 0): (81588, 0, 33660, 115248),
}

# Sampled outcomes of the benchmark's four sampled configs at 2,000 trials
# and at the benchmark's 20,000, keyed by (code, substitutions, insertions,
# deletions, selection, trials, seed): (successes, ambiguous, errors,
# score_total). A change here is a change of the sampling stream, which must
# be versioned in README and CHANGES.
SAMPLED_STREAM = {
    ("t2", 2, 0, 0, "uniform", 2000, 2021): (2000, 0, 0, 5518),
    ("t2", 3, 0, 0, "uniform", 2000, 2022): (1548, 0, 452, 6108),
    ("t2", 2, 1, 1, "uniform", 2000, 2023): (1708, 0, 292, 5954),
    ("b64", 3, 0, 0, "round-robin", 2000, 2024): (2000, 0, 0, 8136),
    ("t2", 2, 0, 0, "uniform", 20000, 2221): (20000, 0, 0, 55448),
    ("t2", 3, 0, 0, "uniform", 20000, 2222): (15459, 0, 4541, 61506),
    ("t2", 2, 1, 1, "uniform", 20000, 2223): (17016, 0, 2984, 59318),
    ("b64", 3, 0, 0, "round-robin", 20000, 2224): (20000, 0, 0, 81288),
}


def _unit_code(n: int, ell: int = 1) -> Code:
    """The code of all n+1 corners ell*e_i of the simplex (radius 0)."""
    corners = tuple(tuple(ell if j == i else 0 for j in range(n + 1)) for i in range(n + 1))
    return Code(SimplexSpace(n, ell), corners)


def _two_words(ell: int) -> Code:
    return Code(SimplexSpace(1, ell), ((ell, 0), (0, ell)))


def _refuse_draws(*args):
    raise AssertionError("a trial stream was drawn")


def _refuse_decode(*args):
    raise AssertionError("a run decoded")


def _histogram(run) -> Counter:
    """A run's (sent, counts, weights) arrays as (sent index, received
    vector) -> weight in Python ints, asserting that the pairs are distinct
    and that equal received vectors are adjacent."""
    sent, counts, weights = (column.tolist() for column in run)
    pairs = list(zip(sent, map(tuple, counts)))
    assert len(set(pairs)) == len(pairs)
    groups = [v for k, v in enumerate(counts) if k == 0 or v != counts[k - 1]]
    assert len(groups) == len(set(map(tuple, counts)))
    return Counter(dict(zip(pairs, weights)))


class TestChannelConfig:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ChannelConfig(substitutions=-1)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            ChannelConfig(seed=2**64)

    @pytest.mark.parametrize(
        "field,value", [("seed", 1.5), ("seed", True), ("substitutions", "1"), ("deletions", 1.0)]
    )
    def test_rejects_non_integer_fields(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            ChannelConfig(**{field: value})


class TestTransmit:
    def test_noiseless_is_a_permutation(self):
        # A permutation alone leaves every symbol count unchanged.
        for seed in range(20):
            assert transmit((5, 0, 2), ChannelConfig(seed=seed)) == (5, 0, 2)

    def test_same_seed_same_output(self):
        cfg = ChannelConfig(substitutions=2, deletions=1, insertions=1, seed=99)
        assert transmit((3, 2, 2), cfg) == transmit((3, 2, 2), cfg)

    def test_trials_give_distinct_streams(self):
        # Consecutive trials of a run draw on from one stream.
        cfg, rng = ChannelConfig(substitutions=1, seed=4), channel._rng(4)
        outs = set(_histogram(channel._sample_run(((3, 2, 2),), 7, cfg, 8, "round-robin", rng)))
        assert len(outs) > 1  # the noise varies along the stream

    def test_substitution_forces_a_different_symbol(self):
        for seed in range(30):
            counts = transmit((2, 0, 0), ChannelConfig(substitutions=1, seed=seed))
            assert counts[0] == 1
            assert counts in ((1, 1, 0), (1, 0, 1))

    def test_one_substitution_moves_along_a_direction(self):
        sent = (5, 0, 2)
        for seed in range(25):
            got = transmit(sent, ChannelConfig(substitutions=1, seed=seed))
            delta = [g - s for g, s in zip(got, sent)]
            assert sorted(delta) == [-1, 0, 1]
            assert symmetric_difference(got, sent) == 2

    def test_one_deletion_or_insertion_moves_by_one(self):
        sent = (5, 0, 2)
        for seed in range(25):
            got = transmit(sent, ChannelConfig(deletions=1, seed=seed))
            assert symmetric_difference(got, sent) == 1
            got = transmit(sent, ChannelConfig(insertions=1, seed=seed))
            assert symmetric_difference(got, sent) == 1

    def test_too_many_deletions(self):
        with pytest.raises(ValueError, match="cannot delete"):
            transmit((1, 1, 0), ChannelConfig(deletions=3))

    def test_substitution_into_empty(self):
        with pytest.raises(ValueError, match="empty sequence"):
            transmit((0, 0, 0), ChannelConfig(substitutions=1))

    def test_substitution_needs_two_symbols(self):
        with pytest.raises(ValueError, match="at least 2 symbols"):
            transmit((2,), ChannelConfig(substitutions=1))

    @pytest.mark.parametrize("counts", [(), (1, -1, 0), (1, 1.0), (True, 0)])
    def test_rejects_malformed_counts(self, counts):
        with pytest.raises(ValueError, match="count"):
            transmit(counts, ChannelConfig())

    @pytest.mark.parametrize("kind", [np.int64, np.uint8, np.int32])
    def test_accepts_numpy_integer_counts(self, kind):
        cfg = ChannelConfig(substitutions=1, insertions=1, seed=7)
        got = transmit(np.array([5, 0, 2], dtype=kind), cfg)
        assert got == transmit((5, 0, 2), cfg)
        assert all(type(c) is int for c in got)

    @pytest.mark.parametrize("counts", [(5, False, 2), (np.True_, 0, 2), (5, 0, np.int64(-1))])
    def test_rejects_bools_and_negative_numpy_counts(self, counts):
        with pytest.raises(ValueError, match="integers >= 0"):
            transmit(counts, ChannelConfig())

    def test_received_vectors_follow_the_positional_patterns(self):
        # Every position-level pattern is equally likely, so each received
        # vector's frequency is binomial with the oracle's pattern share.
        # The vectors are drawn in order from one stream, as a run draws them.
        sent, trials = (5, 0, 2), 2000
        cfg, rng = ChannelConfig(substitutions=1, deletions=1, insertions=1), channel._rng(2024)
        seq = (0,) * 5 + (2,) * 2
        patterns = Counter(
            tuple(v.count(sym) for sym in range(3)) for v in _noisy_variants(seq, 1, 1, 1, 2)
        )
        total = sum(patterns.values())
        runs = _histogram(channel._sample_run((sent,), sum(sent), cfg, trials, "round-robin", rng))
        seen = Counter({counts: times for (_, counts), times in runs.items()})
        assert set(seen) <= set(patterns)
        for counts, ways in patterns.items():
            lo, hi = binomial_bounds(trials, ways, total, _TAIL)
            assert lo <= seen[counts] <= hi, (counts, seen[counts], lo, hi)


class TestDecodeReceived:
    def test_in_simplex_example(self):
        code = construct_ternary_perfect(2, 2)
        assert decode_received(code, (4, 2, 1)) == ((5, 0, 2), 4)

    def test_off_simplex_example(self):
        code = construct_ternary_perfect(2, 2)
        assert decode_received(code, (4, 1, 1)) == ((5, 0, 2), 3)

    def test_codeword_scores_zero(self):
        code = construct_ternary_perfect(2, 2)
        for c in code.codewords:
            assert decode_received(code, c) == (c, 0)

    def test_tie_is_an_error(self):
        code = Code(SimplexSpace(1, 2), ((2, 0), (0, 2)))
        with pytest.raises(AmbiguousDecodeError) as exc_info:
            decode_received(code, (1, 1))
        assert exc_info.value.score == 2

    def test_alphabet_mismatch(self):
        code = construct_ternary_perfect(2, 2)
        with pytest.raises(ValueError, match="alphabet"):
            decode_received(code, (4, 2))

    def test_negative_counts_rejected(self):
        code = construct_ternary_perfect(2, 2)
        with pytest.raises(ValueError, match=">= 0"):
            decode_received(code, (4, -1, 1))

    def test_rejects_non_integer_counts(self):
        code = construct_ternary_perfect(2, 2)
        with pytest.raises(ValueError, match="integers"):
            decode_received(code, (4.5, 2, 1))

    @pytest.mark.parametrize("counts", [(True, 0, 6), (4, np.False_, 1), (4, 2, np.int8(-1))])
    def test_rejects_bools_and_negative_numpy_counts(self, counts):
        with pytest.raises(ValueError, match="integers >= 0"):
            decode_received(construct_ternary_perfect(2, 2), counts)

    @pytest.mark.parametrize("kind", [np.int64, np.uint8, np.int32])
    def test_accepts_numpy_integer_counts(self, kind):
        code = construct_ternary_perfect(2, 2)
        word, score = decode_received(code, np.array([4, 2, 1], dtype=kind))
        assert (word, score) == ((5, 0, 2), 4)
        assert type(score) is int

    def test_exact_at_huge_lengths(self):
        # Scores reach 2**63 here, past int64; the decode switches to exact integers.
        ell = 2**62
        code = _two_words(ell)
        assert decode_received(code, (0, ell)) == ((0, ell), 0)
        assert decode_received(code, (ell + 1, 0)) == ((ell, 0), 1)
        with pytest.raises(AmbiguousDecodeError) as exc_info:
            decode_received(code, (ell, ell))
        assert exc_info.value.score == ell

    @pytest.mark.parametrize("top", [127, 128])
    def test_exact_at_the_top_of_int8(self, top):
        # ell + sum(r) bounds the scores: 127 takes int8 matrices, 128 int16.
        assert decode_received(Code(SimplexSpace(1, 0), ((0, 0),)), (top, 0)) == ((0, 0), top)
        code = Code(SimplexSpace(2, 63), ((63, 0, 0), (0, 63, 0), (21, 21, 21)))
        for a, b in product(range(top - 62), repeat=2):
            r = (a, b, top - 63 - a - b)
            if r[2] < 0:
                continue
            try:
                want = python_decode_received(code, r)
            except AmbiguousDecodeError as exc:
                with pytest.raises(AmbiguousDecodeError) as got:
                    decode_received(code, r)
                assert (got.value.candidates, got.value.score) == (exc.candidates, exc.score)
            else:
                assert decode_received(code, r) == want

    def test_agrees_with_the_python_decoder(self):
        rnd = random.Random(5)
        for code in (construct_ternary_perfect(2, 2), construct_binary_perfect(10, 1, 2),
                     Code(SimplexSpace(1, 2), ((2, 0), (0, 2))), _unit_code(30, 2)):
            for _ in range(200):
                r = tuple(rnd.randrange(code.space.ell + 3) for _ in range(code.space.n + 1))
                try:
                    want = python_decode_received(code, r)
                except AmbiguousDecodeError as exc:
                    with pytest.raises(AmbiguousDecodeError) as got:
                        decode_received(code, r)
                    assert (got.value.candidates, got.value.score) == (exc.candidates, exc.score)
                else:
                    assert decode_received(code, r) == want

    def test_agrees_with_half_metric_decoder_inside_simplex(self):
        # Probe codes of every 7th point of each oracle-family space tie
        # often: both decoders must name the same candidates.
        codes = [construct_ternary_perfect(1, 1)]
        for n, ell_cap in ORACLE_FAMILY.items():
            for ell in range(ell_cap + 1):
                points = list(enumerate_space(SimplexSpace(n, ell)))
                if len(points) >= 2:
                    codes.append(Code(SimplexSpace(n, ell), tuple(points[::7])))
        for code in codes:
            for y in enumerate_space(code.space):
                try:
                    word, d = decode(code, y)
                except AmbiguousDecodeError as exc:
                    with pytest.raises(AmbiguousDecodeError) as got:
                        decode_received(code, y)
                    assert got.value.candidates == exc.candidates, (code, y)
                    assert got.value.score == 2 * exc.score, (code, y)
                else:
                    assert decode_received(code, y) == (word, 2 * d), (code, y)


class TestRunExperiment:
    def test_noiseless_always_succeeds(self):
        for code in (construct_ternary_perfect(2, 2), construct_binary_perfect(8, 1, 1)):
            stats = run_experiment(code, ChannelConfig(seed=11), trials=64)
            assert stats.success_rate == 1.0
            assert stats.mean_score == 0.0

    def test_deterministic_and_worker_independent(self):
        # Experiments are single-threaded; three runs give one result.
        code = construct_ternary_perfect(2, 2)
        cfg = ChannelConfig(substitutions=2, deletions=1, insertions=1, seed=77)
        a = run_experiment(code, cfg, trials=300)
        b = run_experiment(code, cfg, trials=300)
        c = run_experiment(code, cfg, trials=300)
        assert a == b == c
        assert json.dumps(a.to_dict()) == json.dumps(c.to_dict())

    def test_round_robin_covers_all_codewords(self):
        code = construct_ternary_perfect(1, 1)
        stats = run_experiment(code, ChannelConfig(seed=3), trials=9, codeword_selection="round-robin")
        assert stats.trials == 9
        assert stats.success_rate == 1.0

    def test_rejects_bad_selection(self):
        code = construct_ternary_perfect(1, 1)
        with pytest.raises(ValueError, match="codeword_selection"):
            run_experiment(code, ChannelConfig(), trials=1, codeword_selection="first")

    def test_rejects_zero_trials(self):
        code = construct_ternary_perfect(1, 1)
        with pytest.raises(ValueError, match="trials"):
            run_experiment(code, ChannelConfig(), trials=0)

    @pytest.mark.parametrize("trials", [True, 10.0, "10", None])
    def test_rejects_non_integer_trials(self, trials):
        code = construct_ternary_perfect(1, 1)
        with pytest.raises(TypeError, match="trials must be an integer"):
            run_experiment(code, ChannelConfig(), trials=trials)

    @pytest.mark.parametrize(
        "code,noise,seed",
        [
            (construct_ternary_perfect(2, 2), (3, 0, 0), 11),
            (construct_ternary_perfect(2, 2), (2, 1, 1), 12),
            (construct_ternary_perfect(1, 1), (1, 1, 0), 13),
            (construct_binary_perfect(10, 1, 1), (0, 2, 1), 14),
            (construct_binary_perfect(9, 2, 1), (3, 0, 0), 15),
        ],
    )
    def test_sampled_counts_within_binomial_bounds(self, code, noise, seed):
        subs, ins, dels = noise
        cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels, seed=seed)
        exact = run_experiment(code, cfg, trials=1, exhaustive=True)
        trials = 2000
        sampled = run_experiment(code, cfg, trials=trials)
        assert sampled.trials == trials
        for name in ("successes", "ambiguous", "errors"):
            lo, hi = binomial_bounds(trials, getattr(exact, name), exact.trials, _TAIL)
            assert lo <= getattr(sampled, name) <= hi, (name, getattr(sampled, name), lo, hi)

    @pytest.mark.parametrize("key", sorted(SAMPLED_STREAM))
    def test_sampled_stream_is_pinned(self, key):
        name, subs, ins, dels, selection, trials, seed = key
        if name == "t2":
            code = construct_ternary_perfect(2, 2)
        else:
            code = construct_binary_perfect(64, 3)
        cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels, seed=seed)
        stats = run_experiment(code, cfg, trials=trials, codeword_selection=selection)
        assert stats == ExperimentStats(trials, *SAMPLED_STREAM[key], exhaustive=False)

    @pytest.mark.parametrize(
        "selection,exhaustive,streams",
        [("uniform", False, 1), ("round-robin", False, 1), ("uniform", True, 0)],
    )
    def test_one_stream_per_run(self, monkeypatch, selection, exhaustive, streams):
        built, rng = [], channel._rng

        def counting(seed):
            built.append(seed)
            return rng(seed)

        monkeypatch.setattr(channel, "_rng", counting)
        code = construct_ternary_perfect(2, 2)
        cfg = ChannelConfig(substitutions=2, insertions=1, seed=31)
        run_experiment(code, cfg, 1000, selection, exhaustive=exhaustive)
        assert built == [31] * streams

    @pytest.mark.parametrize("seed", [0, 7, 2023, 2**64 - 1])
    def test_a_run_starts_where_transmit_does(self, monkeypatch, seed):
        received, decode = [], channel._decode

        def recording(words, vectors, bound):
            received.extend(map(tuple, vectors.tolist()))
            return decode(words, vectors, bound)

        monkeypatch.setattr(channel, "_decode", recording)
        ternary, binary = construct_ternary_perfect(2, 2), construct_binary_perfect(64, 3)
        for code, (subs, ins, dels) in [
            (ternary, (2, 1, 1)),
            (ternary, (3, 0, 0)),
            (ternary, (0, 2, 3)),
            (binary, (3, 0, 0)),
            (binary, (1, 2, 1)),
        ]:
            cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels, seed=seed)
            received.clear()
            run_experiment(code, cfg, trials=1, codeword_selection="round-robin")
            assert received == [transmit(code.codewords[0], cfg)], (subs, ins, dels)

    def test_oversized_runs_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(channel, "_rng", _refuse_draws)
        code = construct_ternary_perfect(2, 2)
        cfg = ChannelConfig(substitutions=10**9, seed=1)
        start = time.process_time()
        with pytest.raises(BudgetExceededError, match="the events would touch"):
            run_experiment(code, cfg, trials=1)
        with pytest.raises(BudgetExceededError, match="the events would touch"):
            transmit((5, 0, 2), cfg)
        with pytest.raises(BudgetExceededError, match="the events would touch"):
            run_experiment(code, ChannelConfig(seed=1), trials=10**12)
        assert time.process_time() - start < 1.0

    def test_event_steps_times_trials_are_bounded(self, monkeypatch):
        # Below _ROW_CELLS symbols every row of an event pass is priced at
        # _ROW_CELLS counts: the events x trials are bounded whatever the code.
        row = channel._ROW_CELLS
        monkeypatch.setattr(channel, "EVENT_WORK_BUDGET", 3 * 40 * row)
        code = construct_ternary_perfect(1, 1)
        cfg = ChannelConfig(substitutions=2, insertions=1, seed=3)
        assert run_experiment(code, cfg, trials=40).trials == 40
        with pytest.raises(BudgetExceededError, match=f"touch {3 * 41 * row} counts"):
            run_experiment(code, cfg, trials=41)
        assert run_experiment(code, ChannelConfig(seed=3), trials=120).trials == 120
        with pytest.raises(BudgetExceededError, match=f"touch {121 * row} counts"):
            run_experiment(code, ChannelConfig(seed=3), trials=121)
        # transmit is one run: each event pass is priced at _PASS_CELLS.
        monkeypatch.setattr(channel, "EVENT_WORK_BUDGET", 3 * channel._PASS_CELLS)
        assert sum(transmit((2, 1, 1), cfg)) == 5
        with pytest.raises(BudgetExceededError, match=f"touch {4 * channel._PASS_CELLS} counts"):
            transmit((2, 1, 1), ChannelConfig(substitutions=2, insertions=2))

    def test_event_weights_must_fit_a_64_bit_draw(self, monkeypatch):
        # Each event draws below its total weight as an int64; at or above
        # 2**63 the run is refused before any draw, with the package's message.
        monkeypatch.setattr(channel, "_rng", _refuse_draws)
        ell = 2**62
        code = _two_words(ell)
        for sent, cfg in [
            ((ell, 0), ChannelConfig(insertions=1)),  # (2**62 + 1) * 2
            ((ell - 1, 0), ChannelConfig(insertions=1)),  # exactly 2**63
            ((2 * ell, 0), ChannelConfig(deletions=1)),  # 2**63
            ((ell, 0, 0), ChannelConfig(substitutions=1)),  # 2**62 * 2
        ]:
            with pytest.raises(BudgetExceededError, match=r"limit of 2\*\*63"):
                transmit(sent, cfg)
        for exhaustive in (False, True):
            with pytest.raises(BudgetExceededError, match=r"limit of 2\*\*63"):
                run_experiment(code, ChannelConfig(insertions=1), 1, exhaustive=exhaustive)
        monkeypatch.undo()
        assert sum(transmit((ell - 2, 0), ChannelConfig(insertions=1))) == ell - 1
        assert sum(transmit((ell - 1, 0, 0), ChannelConfig(substitutions=1))) == ell - 1

    def test_event_work_is_bounded(self, monkeypatch):
        # Events x runs x symbols, at least _ROW_CELLS per run and
        # _PASS_CELLS per event; a run without events takes one pass.
        ternary, wide, row = construct_ternary_perfect(2, 2), _unit_code(60), channel._ROW_CELLS
        for code, cfg, trials, need in [
            (ternary, ChannelConfig(substitutions=2, insertions=1, seed=3), 400, 3 * 400 * row),
            (ternary, ChannelConfig(seed=3), 1000, 1000 * row),
            (ternary, ChannelConfig(deletions=4, seed=3), 2, 4 * channel._PASS_CELLS),
            (wide, ChannelConfig(substitutions=2, seed=3), 20, 2 * 20 * 61),
        ]:
            monkeypatch.setattr(channel, "EVENT_WORK_BUDGET", need)
            assert run_experiment(code, cfg, trials).trials == trials
            monkeypatch.setattr(channel, "EVENT_WORK_BUDGET", need - 1)
            with pytest.raises(BudgetExceededError, match=f"touch {need} counts"):
                run_experiment(code, cfg, trials)

    def test_decode_work_is_bounded(self, monkeypatch):
        # Runs x codewords x symbols: each run adds at most one distinct vector.
        code = construct_binary_perfect(64, 3)
        cfg = ChannelConfig(substitutions=3, seed=8)
        need = 500 * 10 * 2
        monkeypatch.setattr(channel, "DECODE_WORK_BUDGET", need)
        assert run_experiment(code, cfg, 500).trials == 500
        monkeypatch.setattr(channel, "DECODE_WORK_BUDGET", need - 1)
        with pytest.raises(BudgetExceededError, match=f"compare {need} counts"):
            run_experiment(code, cfg, 500)
        assert sum(transmit(code.codewords[0], cfg)) == 64  # transmit decodes nothing

    def test_wide_alphabet_runs_are_priced(self, monkeypatch):
        monkeypatch.setattr(channel, "_rng", _refuse_draws)
        code, cfg = _unit_code(1000), ChannelConfig(substitutions=1, seed=1)
        start = time.process_time()
        with pytest.raises(BudgetExceededError, match="counts"):
            run_experiment(code, cfg, trials=2_000_000)
        with pytest.raises(BudgetExceededError, match="compare"):
            run_experiment(code, cfg, trials=1000)
        # 10**4 trials of 10**4 counts: within both work prices, but the
        # tally would hold 10**8 counts.
        pair = Code(SimplexSpace(9999, 2), ((2,) + (0,) * 9999,))
        with pytest.raises(BudgetExceededError, match="hold 100000000 counts"):
            run_experiment(pair, cfg, trials=10**4)
        assert time.process_time() - start < 1.0

    def test_held_counts_are_bounded(self, monkeypatch):
        # min(trials or patterns, codewords x count vectors of the longest
        # length) pairs of n+1 counts: the run is admitted at exactly that
        # budget and refused at one less.
        ternary, corners = construct_ternary_perfect(2, 2), _unit_code(20)
        for code, cfg, trials, exhaustive, need in [
            (corners, ChannelConfig(substitutions=1), 1, True, 21 * 20 * 21),
            (ternary, ChannelConfig(substitutions=4), 1, True, 3 * 36 * 3),  # C(7+2, 2)
            (corners, ChannelConfig(substitutions=1, seed=2), 100, False, 100 * 21),
            (ternary, ChannelConfig(insertions=2, seed=2), 1000, False, 3 * 55 * 3),  # C(9+2, 2)
        ]:
            monkeypatch.setattr(channel, "HELD_COUNT_BUDGET", need)
            run_experiment(code, cfg, trials, exhaustive=exhaustive)
            monkeypatch.setattr(channel, "HELD_COUNT_BUDGET", need - 1)
            with pytest.raises(BudgetExceededError, match=f"hold {need} counts"):
                run_experiment(code, cfg, trials, exhaustive=exhaustive)

    def test_exhaustive_decode_is_priced_on_the_received_vectors(self, monkeypatch):
        # Distinct received vectors x codewords x symbols, counted once the
        # run has them: admitted at exactly that price, refused at one less
        # before any decode. The price before the run (codewords x codewords
        # x symbols) admits both.
        ternary, corners = construct_ternary_perfect(2, 2), _unit_code(20)
        for code, cfg, need in [
            (corners, ChannelConfig(insertions=1), 231 * 21 * 21),  # 21 + C(21, 2) vectors
            (ternary, ChannelConfig(substitutions=4), 36 * 3 * 3),  # C(7 + 2, 2) vectors
        ]:
            monkeypatch.setattr(channel, "DECODE_WORK_BUDGET", need)
            run_experiment(code, cfg, 1, exhaustive=True)
            monkeypatch.setattr(channel, "DECODE_WORK_BUDGET", need - 1)
            monkeypatch.setattr(channel, "_decode", _refuse_decode)
            with pytest.raises(BudgetExceededError, match=f"compare {need} counts"):
                run_experiment(code, cfg, 1, exhaustive=True)
            monkeypatch.undo()

    def test_run_check_refuses_what_two_guards_refused(self):
        # The step guard (events x runs <= EXHAUSTIVE_PATTERN_BUDGET) is the
        # event-work price's row floor: at the real budgets, the largest event
        # count each check admits is the same around 195,312 events (the pass
        # floor), events x runs = 2*10**6 (the old guard) and 50 symbols (the
        # row floor). One substitution-only codeword of length 1 holds at most
        # n+1 pairs, so the held counts stay far below their budget.
        def refused(check, events, n, runs, words=1):
            try:
                check(1, ChannelConfig(substitutions=events), n, runs, words)
            except BudgetExceededError:
                return True
            return False

        def largest(check, n, runs, words=1):
            lo, hi = -1, 2 * 10**6  # lo is admitted (or -1), hi refused
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if refused(check, mid, n, runs, words) else (mid, hi)
            return lo

        for n in (1, 48, 49, 50, 99):
            for runs in (1, 10, 11, 40, 1000, 40_000, 2 * 10**6 // 50, 2 * 10**6):
                events = largest(channel._check_run, n, runs)
                assert events == largest(two_guard_check, n, runs), (n, runs)
                for e in {max(events, 0), events + 1}:
                    assert refused(channel._check_run, e, n, runs) == refused(
                        two_guard_check, e, n, runs
                    )
        # Across the decode price, 2,000 words of 50 symbols.
        for runs in (9_999, 10_000, 10_001):
            assert largest(channel._check_run, 49, runs, 2000) == largest(
                two_guard_check, 49, runs, 2000
            )

    def test_run_check_refuses_what_two_guards_refused_at_random(self):
        # Random runs in both modes, weights up to the 2**63 limit: each
        # refusal matches the old check's, apart from the held counts.
        rng = random.Random(11)
        for _ in range(1000):
            n, words = rng.choice([1, 2, 12, 49, 50, 300]), rng.choice([1, 3, 200])
            length = rng.choice([0, 1, 7, 2**62 // (n + 1), 2**62])
            cfg = ChannelConfig(*(rng.choice([0, 0, 1, 3, 40, 60_000]) for _ in range(3)))
            exhaustive = rng.random() < 0.5
            runs = words if exhaustive else rng.choice([1, 40, 40_000, 2_000_000])
            outcome = []
            for check in (channel._check_run, two_guard_check):
                try:
                    check(length, cfg, n, runs, words, exhaustive)
                    outcome.append(None)
                except (ValueError, BudgetExceededError) as exc:
                    outcome.append((type(exc), str(exc)))
            new, old = outcome
            if new and "would hold" in new[1]:
                assert old is None
            else:
                assert (new and new[0]) == (old and old[0]), (n, words, length, cfg, runs)
                if new and new[0] is ValueError:
                    assert new == old

    def test_rates_sum_to_one(self):
        code = construct_ternary_perfect(1, 1)
        cfg = ChannelConfig(substitutions=2, seed=5)
        stats = run_experiment(code, cfg, trials=200)
        assert stats.successes + stats.ambiguous + stats.errors == stats.trials
        assert stats.success_rate + stats.ambiguous_rate + stats.error_rate == pytest.approx(1.0)


class TestExhaustiveMode:
    def test_pattern_count_formula(self):
        cfg = ChannelConfig(substitutions=2, deletions=1, insertions=1)
        # (7*2)^2 substitution events, 7 deletion positions, 7 slots * 3 symbols
        assert count_noise_patterns(7, cfg, 2) == 196 * 7 * 21

    def test_pattern_count_matches_enumeration(self):
        code = construct_ternary_perfect(1, 1)
        cfg = ChannelConfig(substitutions=1, deletions=1, insertions=1)
        stats = run_experiment(code, cfg, trials=1, exhaustive=True)
        assert stats.trials == 3 * count_noise_patterns(4, cfg, 2)

    def test_guarantee_within_radius_ternary(self):
        for variant in (1, 2):
            code = construct_ternary_perfect(2, variant)
            for weight in (0, 1, 2):
                stats = run_experiment(
                    code, ChannelConfig(substitutions=weight), trials=1, exhaustive=True
                )
                assert stats.success_rate == 1.0
                assert stats.ambiguous == 0

    def test_beyond_radius_fails_somewhere(self):
        code = construct_ternary_perfect(2, 2)
        stats = run_experiment(code, ChannelConfig(substitutions=3), trials=1, exhaustive=True)
        assert stats.success_rate < 1.0
        assert stats.errors > 0

    def test_guarantee_binary_codes(self):
        for e in (1, 2):
            for ell in range(2 * e + 1, 16):
                for m in range(1, count_binary_perfect(ell, e) + 1):
                    code = construct_binary_perfect(ell, e, m)
                    for weight in range(0, e + 1):
                        stats = run_experiment(
                            code,
                            ChannelConfig(substitutions=weight),
                            trials=1,
                            exhaustive=True,
                        )
                        assert stats.success_rate == 1.0

    def test_ambiguity_counted_separately(self):
        code = Code(SimplexSpace(1, 2), ((2, 0), (0, 2)))
        stats = run_experiment(code, ChannelConfig(substitutions=1), trials=1, exhaustive=True)
        assert stats.trials == 4
        assert stats.ambiguous == 4
        assert stats.errors == 0
        assert stats.successes == 0
        assert stats.mean_score == 2.0

    def test_budget_guard(self):
        code = construct_binary_perfect(60, 1, 1)
        with pytest.raises(BudgetExceededError, match="patterns"):
            run_experiment(code, ChannelConfig(substitutions=5), trials=1, exhaustive=True)

    def test_budget_guard_reports_astronomical_counts(self):
        # 3 * 14**10000 patterns: a number too long for str(), never formed.
        code = construct_ternary_perfect(2, 2)
        start = time.process_time()
        with pytest.raises(BudgetExceededError, match="patterns"):
            run_experiment(code, ChannelConfig(substitutions=10_000), trials=1, exhaustive=True)
        assert time.process_time() - start < 1.0

    def test_event_steps_are_bounded(self, monkeypatch):
        # On {(1,0),(0,1)} every event count gives 2 patterns; the work is the
        # events, one pass each, priced at _PASS_CELLS.
        monkeypatch.setattr(channel, "EVENT_WORK_BUDGET", 5 * channel._PASS_CELLS)
        code = Code(SimplexSpace(1, 1), ((1, 0), (0, 1)))
        stats = run_experiment(code, ChannelConfig(substitutions=5), trials=1, exhaustive=True)
        assert stats.trials == 2
        with pytest.raises(BudgetExceededError, match=f"touch {6 * channel._PASS_CELLS} counts"):
            run_experiment(code, ChannelConfig(substitutions=6), trials=1, exhaustive=True)

    def test_pattern_bound_matches_the_exact_count(self, monkeypatch):
        # The run needs a pattern budget of its pattern count: it runs at
        # exactly that budget and refuses at one less, also where the events
        # outnumber the patterns.
        ternary, binary = construct_ternary_perfect(2, 2), construct_binary_perfect(60, 1, 1)
        quaternary = Code(SimplexSpace(3, 5), ((5, 0, 0, 0), (0, 0, 2, 3)))
        unit = Code(SimplexSpace(1, 1), ((1, 0), (0, 1)))
        for code, cfg in [
            (ternary, ChannelConfig(substitutions=2, deletions=1, insertions=1)),
            (binary, ChannelConfig(substitutions=5)),
            (quaternary, ChannelConfig(deletions=5, insertions=4)),
            (unit, ChannelConfig(substitutions=40)),
        ]:
            need = count_noise_patterns(code.space.ell, cfg, code.space.n) * len(code.codewords)
            monkeypatch.setattr(channel, "EXHAUSTIVE_PATTERN_BUDGET", need)
            assert run_experiment(code, cfg, trials=1, exhaustive=True).trials == need
            monkeypatch.setattr(channel, "EXHAUSTIVE_PATTERN_BUDGET", need - 1)
            with pytest.raises(BudgetExceededError, match="patterns"):
                run_experiment(code, cfg, trials=1, exhaustive=True)

    def test_sampling_mode_does_not_count_patterns(self):
        # 3 * 14**40 patterns: exhaustive mode refuses them, sampling runs.
        code = construct_ternary_perfect(2, 2)
        cfg = ChannelConfig(substitutions=40, seed=1)
        with pytest.raises(BudgetExceededError, match="patterns"):
            run_experiment(code, cfg, trials=5, exhaustive=True)
        assert run_experiment(code, cfg, trials=5).trials == 5
        with pytest.raises(ValueError, match="cannot delete 8"):
            run_experiment(code, ChannelConfig(deletions=8), trials=5)

    def test_wide_alphabet_runs_are_priced(self, monkeypatch):
        # One substitution on the corner code of (n, 1) holds about n**3
        # counts: n = 200 runs, n = 999 is refused before any event.
        cfg = ChannelConfig(substitutions=1)
        assert run_experiment(_unit_code(200), cfg, 1, exhaustive=True).trials == 201 * 200
        code = _unit_code(999)
        monkeypatch.setattr(channel, "_event", _refuse_draws)
        start = time.process_time()
        with pytest.raises(BudgetExceededError, match="hold 999000000 counts"):
            run_experiment(code, cfg, 1, exhaustive=True)
        assert time.process_time() - start < 1.0

    def test_mixed_noise_keeps_cardinality_bookkeeping(self):
        code = construct_ternary_perfect(1, 1)
        stats = run_experiment(code, ChannelConfig(deletions=1), trials=1, exhaustive=True)
        # one deletion always changes the count vector by exactly 1
        assert stats.trials == 3 * 4
        assert stats.mean_score >= 1.0


def _small_perfect_codes():
    """Every ternary code with e <= 2 and every binary code with ell <= 10, e <= 2."""
    codes = [construct_ternary_perfect(e, v) for e in (1, 2) for v in (1, 2)]
    codes += [
        construct_binary_perfect(ell, e, m)
        for e in (1, 2)
        for ell in range(2 * e + 1, 11)
        for m in range(1, count_binary_perfect(ell, e) + 1)
    ]
    return codes


class TestAgainstPositionalOracle:
    """Exhaustive mode against the replaced position-level enumerator."""

    @pytest.mark.parametrize("code", _small_perfect_codes(), ids=repr)
    def test_every_weight_up_to_three(self, code):
        for subs in range(4):
            for ins in range(4 - subs):
                for dels in range(4 - subs - ins):
                    cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels)
                    got = run_experiment(code, cfg, trials=1, exhaustive=True)
                    want = positional_exhaustive(code, cfg)
                    assert got == want, (subs, ins, dels)
                    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    @pytest.mark.parametrize("noise", sorted(EXACT_TERNARY_E2))
    def test_ternary_e2_reference_counts(self, noise):
        subs, ins, dels = noise
        cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels)
        code = construct_ternary_perfect(2, 2)
        got = run_experiment(code, cfg, trials=1, exhaustive=True)
        assert got == positional_exhaustive(code, cfg)
        assert (got.successes, got.ambiguous, got.errors, got.trials) == EXACT_TERNARY_E2[noise]


class TestAgainstScalarSampler:
    """Sampling mode against the replaced one-draw-at-a-time sampler and
    Python decoder: the same seed must give the same ExperimentStats."""

    @pytest.mark.parametrize("seed", [0, 12, 2**64 - 1])
    def test_array_bounds_draw_like_scalar_calls(self, seed):
        # One array call draws what one scalar call per bound draws, in
        # order, and leaves the stream where those calls leave it, whether
        # the bounds are tiled into a matrix, broadcast as a read-only view,
        # or one row broadcast against the call's size, as _sample_run
        # draws its chunks: two of 40 rows and a short last one of 7.
        bounds = [1, 2, 3, 7, 1, 14, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**62, 2**63 - 1, 5]
        row = np.array(bounds, dtype=np.int64)
        tiled = np.array(bounds * 40, dtype=np.int64).reshape(40, len(bounds))
        view = np.broadcast_to(row, (50, len(bounds)))
        calls = [[lambda rng: rng.integers(tiled)], [lambda rng: rng.integers(view[:40])],
                 [lambda rng, rows=rows: rng.integers(row, size=(rows, len(bounds)))
                  for rows in (40, 40, 7)]]
        for draws in calls:
            array_rng, scalar_rng = channel._rng(seed), channel._rng(seed)
            for draw in draws:
                got = draw(array_rng)
                assert got.dtype == np.int64
                want = [[int(scalar_rng.integers(b)) for b in bounds] for _ in range(len(got))]
                assert got.tolist() == want
            after = array_rng.integers(2**40, size=8).tolist()
            assert after == scalar_rng.integers(2**40, size=8).tolist()

    @pytest.mark.parametrize(
        "code,noise,trials,selection",
        [
            # Above one chunk of 2**14 // 5 = 3276 trials.
            (construct_ternary_perfect(2, 2), (2, 1, 1), 5000, "uniform"),
            # 2**14 // 3 = 5461 trials per chunk: the round-robin offset moves on by 1.
            (construct_binary_perfect(64, 3), (3, 0, 0), 6000, "round-robin"),
            (_unit_code(250), (1, 0, 0), 60, "uniform"),
            (_unit_code(250), (0, 1, 1), 30, "round-robin"),
            (Code(SimplexSpace(1, 2), ((2, 0), (0, 2))), (1, 0, 0), 300, "uniform"),
            (Code(SimplexSpace(3, 5), ((5, 0, 0, 0), (0, 0, 2, 3))), (0, 3, 2), 300, "uniform"),
            (_two_words(2**40), (0, 0, 0), 20, "uniform"),
            (_two_words(2**40), (1, 0, 1), 200, "round-robin"),
            (_two_words(2**62), (0, 0, 0), 20, "round-robin"),
            (_two_words(2**62), (1, 0, 1), 200, "uniform"),
        ],
        ids=["t2-5000", "b64-6000-rr", "unit250", "unit250-rr", "tie", "quaternary",
             "2^40-0", "2^40-2", "2^62-0", "2^62-2"],
    )
    def test_same_stats_as_the_scalar_sampler(self, monkeypatch, code, noise, trials, selection):
        # Chunks of 2**14 cells, so that the larger runs span several chunks.
        monkeypatch.setattr(channel, "_SAMPLE_CELLS", 2**14)
        subs, ins, dels = noise
        cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels, seed=trials + 1)
        got = run_experiment(code, cfg, trials, selection)
        assert got == scalar_sampled_experiment(code, cfg, trials, selection)

    def test_random_configs_across_small_chunks(self, monkeypatch):
        # Chunks of a few trials put many chunk boundaries, and round-robin
        # offsets that do not divide the chunk, inside each run.
        rnd = random.Random(8)
        codes = [construct_ternary_perfect(1, 1), construct_ternary_perfect(2, 1),
                 construct_binary_perfect(10, 1, 2), construct_binary_perfect(9, 2, 1),
                 Code(SimplexSpace(3, 5), ((5, 0, 0, 0), (0, 0, 2, 3))), _unit_code(6, 2)]
        for _ in range(60):
            cells = rnd.choice([1, 7, 16, 40, 2**14])
            monkeypatch.setattr(channel, "_SAMPLE_CELLS", cells)
            monkeypatch.setattr("simplexcode.codes._CHUNK_CELLS", cells)  # decode blocks
            code = rnd.choice(codes)
            cfg = ChannelConfig(substitutions=rnd.randrange(4), insertions=rnd.randrange(3),
                                deletions=rnd.randrange(3), seed=rnd.getrandbits(64))
            trials, selection = rnd.randrange(1, 120), rnd.choice(["uniform", "round-robin"])
            got = run_experiment(code, cfg, trials, selection)
            assert got == scalar_sampled_experiment(code, cfg, trials, selection), (code, cfg)

    @pytest.mark.parametrize("ell", [2**40, 2**62])
    def test_decodes_stay_exact_in_both_modes(self, ell):
        # At 2**62 the far codeword scores 2**63, which int64 would wrap.
        code = _two_words(ell)
        for exhaustive in (False, True):
            stats = run_experiment(code, ChannelConfig(seed=4), 4, exhaustive=exhaustive)
            assert (stats.successes, stats.ambiguous, stats.errors) == (stats.trials, 0, 0)
            assert stats.mean_score == 0.0
        stats = run_experiment(code, ChannelConfig(substitutions=1, seed=4), 40)
        assert (stats.successes, stats.score_total) == (40, 80)


def _tally_both_ways(words, cfg, trials, selection) -> Counter:
    """channel._sample_run's Counter, asserted equal to the per-trial tuple
    tally's and to the per-row sampler's, with keys of Python ints and the
    stream left in the same place."""
    rng, oracle_rng, row_rng = (channel._rng(cfg.seed) for _ in range(3))
    got = _histogram(channel._sample_run(words, sum(words[0]), cfg, trials, selection, rng))
    assert got == tuple_sample_run(words, cfg, trials, selection, oracle_rng)
    assert got == _histogram(row_sample_run(words, sum(words[0]), cfg, trials, selection, row_rng))
    assert all(type(index) is int and all(type(c) is int for c in vector)
               for index, vector in got)
    assert sum(got.values()) == trials
    after = rng.integers(2**40, size=4).tolist()
    assert after == oracle_rng.integers(2**40, size=4).tolist()
    assert after == row_rng.integers(2**40, size=4).tolist()
    return got


# Two-word codes at ell = 2**62, whose draws run up to about 2**62 on every
# event. A table key id * total + draw would wrap int64 from the second id
# on; the table serves an event only while it holds no more entries than
# the chunk holds trials, which these totals exceed, so they take rows.
_WRAPPING = [(_two_words(2**62), noise) for noise in [(2, 0, 0), (3, 0, 0), (1, 0, 1)]]


class TestAgainstTupleTally:
    """The sorted per-chunk tally of sampled runs against the replaced
    tally of one tuple per trial: equal Counters, key types included."""

    @pytest.mark.parametrize("selection", ["uniform", "round-robin"])
    @pytest.mark.parametrize(
        "code,noise,trials",
        [
            # The benchmark's sampled noise, in one chunk of trials.
            (construct_ternary_perfect(2, 2), (2, 0, 0), 12000),
            (construct_ternary_perfect(2, 2), (3, 0, 0), 12000),
            (construct_ternary_perfect(2, 2), (2, 1, 1), 12000),
            (construct_binary_perfect(64, 3), (3, 0, 0), 12000),
            (_unit_code(250), (1, 0, 0), 200),
            (_unit_code(250), (0, 1, 1), 200),
            # Most of the 201 columns are equal in every row of a chunk.
            (Code(SimplexSpace(200, 3), ((3,) + (0,) * 200, (0,) * 200 + (3,))), (1, 0, 1), 3000),
            # Exact-integer count matrices.
            (Code(SimplexSpace(0, 2**63 + 5), ((2**63 + 5,),)), (0, 0, 0), 50),
            (_two_words(2**62), (1, 0, 0), 300),
            *((code, noise, 300) for code, noise in _WRAPPING),
        ],
        ids=["t2-s2", "t2-s3", "t2-s2i1d1", "b64-s3", "unit250-s1", "unit250-i1d1",
             "wide-two-words", "n0-2^63+5", "2^62-s1", "2^62-s2", "2^62-s3", "2^62-s1d1"],
    )
    def test_same_counter_as_the_tuple_tally(self, code, noise, trials, selection):
        subs, ins, dels = noise
        cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels, seed=trials)
        _tally_both_ways(code.codewords, cfg, trials, selection)

    @pytest.mark.parametrize("cells", [1, 7, 40])
    def test_pairs_merge_across_chunks(self, monkeypatch, cells):
        # Chunks of at most `cells` trials: a pair seen more often than that
        # is counted in several chunks, and its counts must add up to one key.
        monkeypatch.setattr(channel, "_SAMPLE_CELLS", cells)
        for code, noise in [(construct_ternary_perfect(2, 2), (2, 1, 1)),
                            (_two_words(2**62), (1, 0, 0)), *_WRAPPING]:
            subs, ins, dels = noise
            cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels, seed=cells)
            for selection in ("uniform", "round-robin"):
                got = _tally_both_ways(code.codewords, cfg, 2000, selection)
                assert max(got.values()) > cells


class TestAgainstRowSampler:
    """Sampled runs, whose events step alike trials through one table,
    against the replaced sampler that moved every trial's own row of
    counts: the same histogram, key for key, and the stream left in the
    same place."""

    def test_random_runs_match_the_row_sampler(self, monkeypatch):
        # The table serves every event of t2 and b64 in a large chunk, no
        # event of one trial or of the 251 corners of _unit_code(250), and
        # the first substitution of ternary e=40 at 2,000 trials but not
        # its second, whose states times total exceed the trials.
        tables, table = [], channel._step

        def counting(*args):
            tables.append(1)
            return table(*args)

        monkeypatch.setattr(channel, "_step", counting)
        t2, b64 = construct_ternary_perfect(2, 2), construct_binary_perfect(64, 3)
        t40, unit = construct_ternary_perfect(40, 2), _unit_code(250)
        default, rnd = channel._SAMPLE_CELLS, random.Random(22)
        runs = [(t2, (2, 1, 1), 3000, "uniform", default),
                (b64, (3, 0, 0), 3000, "round-robin", default),
                (t40, (2, 0, 0), 2000, "uniform", default),
                (t2, (2, 1, 1), 1, "uniform", default),
                (unit, (2, 1, 0), 2000, "uniform", default)]
        for _ in range(40):
            noise = (rnd.randrange(4), rnd.randrange(3), rnd.randrange(3))
            runs.append((rnd.choice([t2, b64, unit]), noise,
                         rnd.choice([1, rnd.randrange(2, 300), rnd.randrange(300, 3000)]),
                         rnd.choice(["uniform", "round-robin"]),
                         rnd.choice([1, 7, 40, 2**14, default])))
        served = []
        for code, (subs, ins, dels), trials, selection, cells in runs:
            monkeypatch.setattr(channel, "_SAMPLE_CELLS", cells)
            cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels,
                                seed=rnd.getrandbits(64))
            try:
                channel._check_run(code.space.ell, cfg, code.space.n, trials, len(code))
            except ValueError:  # more deletions than symbols
                continue
            rng, oracle_rng = channel._rng(cfg.seed), channel._rng(cfg.seed)
            tables.clear()
            got = channel._sample_run(code.matrix, code.space.ell, cfg, trials, selection, rng)
            want = row_sample_run(code.matrix, code.space.ell, cfg, trials, selection, oracle_rng)
            assert _histogram(got) == _histogram(want), (code, cfg, trials, selection, cells)
            after = rng.integers(2**40, size=4).tolist()
            assert after == oracle_rng.integers(2**40, size=4).tolist()
            bounds = subs + ins + dels + (selection == "uniform")
            chunks = -(-trials // max(1, min(trials, cells // max(code.space.n + 1, bounds))))
            served.append((len(tables), chunks * (subs + ins + dels)))
        # (tables, events): unit's 2,000 trials take two chunks of 1,044.
        assert served[:5] == [(4, 4), (3, 3), (1, 2), (0, 4), (0, 6)] and len(served) > 30


class TestAgainstSortedMoves:
    """Sampled runs against the replaced sampler that grouped each event's
    trials with a sort on (state, draw) and moved each distinct pair once:
    the same histogram, key for key, and the stream left in the same place."""

    def test_random_runs_match_the_sorted_moves(self, monkeypatch):
        t2, b64, unit = (construct_ternary_perfect(2, 2), construct_binary_perfect(64, 3),
                         _unit_code(250))
        default, rnd = channel._SAMPLE_CELLS, random.Random(23)
        runs = [(code, noise, trials, "uniform", cells) for code, noise in _WRAPPING
                for trials, cells in [(1, default), (300, 7), (300, default)]]
        for _ in range(40):
            noise = (rnd.randrange(4), rnd.randrange(3), rnd.randrange(3))
            runs.append((rnd.choice([t2, b64, unit]), noise,
                         rnd.choice([1, rnd.randrange(2, 300), rnd.randrange(300, 3000)]),
                         rnd.choice(["uniform", "round-robin"]),
                         rnd.choice([1, 7, 40, 2**14, default])))
        compared = 0
        for code, (subs, ins, dels), trials, selection, cells in runs:
            monkeypatch.setattr(channel, "_SAMPLE_CELLS", cells)
            cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels,
                                seed=rnd.getrandbits(64))
            try:
                channel._check_run(code.space.ell, cfg, code.space.n, trials, len(code))
            except ValueError:  # more deletions than symbols
                continue
            rng, oracle_rng = channel._rng(cfg.seed), channel._rng(cfg.seed)
            got = channel._sample_run(code.matrix, code.space.ell, cfg, trials, selection, rng)
            want = sorted_move_sample_run(code.matrix, code.space.ell, cfg, trials, selection,
                                          oracle_rng)
            assert _histogram(got) == _histogram(want), (code, cfg, trials, selection, cells)
            after = rng.integers(2**40, size=4).tolist()
            assert after == oracle_rng.integers(2**40, size=4).tolist()
            compared += 1
        assert compared > 40

    def test_states_merge_into_distinct_count_vectors(self, monkeypatch):
        # t2 at (2,1,1), 20,000 trials in one chunk: after each event the
        # states are distinct count vectors, at most the 36, 36, 28 and 36
        # of lengths 7, 7, 6 and 7. Named by (state, run end) instead, as
        # the sorted moves named them, they numbered 12, 60, 144 and 430.
        seen, table = [], channel._step

        def recording(*args):
            states, ids = table(*args)
            seen.append(states.tolist())
            return states, ids

        monkeypatch.setattr(channel, "_step", recording)
        code = construct_ternary_perfect(2, 2)
        cfg = ChannelConfig(substitutions=2, insertions=1, deletions=1, seed=2026)
        channel._sample_run(code.matrix, code.space.ell, cfg, 20000, "uniform", channel._rng(2026))
        assert [len(states) for states in seen] == [12, 36, 28, 36]
        for states, length, vectors in zip(seen, (7, 7, 6, 7), (36, 36, 28, 36)):
            assert len(set(map(tuple, states))) == len(states) <= vectors
            assert all(sum(state) == length for state in states)


def _assert_same_arrays(got, want) -> None:
    """Equal (sent, counts, weights) arrays: values, shapes and dtypes."""
    assert len(got) == len(want) == 3
    for mine, theirs in zip(got, want):
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        assert mine.tolist() == theirs.tolist()


class TestAgainstLexsortSampler:
    """Sampled runs, which draw each chunk from one bounds row and count the
    trials of an all-table chunk by one integer key, against the replaced
    sampler that drew from a broadcast view and tallied such a chunk with a
    lexsort on (sent, state): the same arrays and the stream left in the
    same place."""

    @staticmethod
    def _compare(code, noise, trials, selection, seed):
        subs, ins, dels = noise
        cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels, seed=seed)
        rng, oracle_rng = channel._rng(seed), channel._rng(seed)
        got = channel._sample_run(code.matrix, code.space.ell, cfg, trials, selection, rng)
        want = lexsort_sample_run(code.matrix, code.space.ell, cfg, trials, selection, oracle_rng)
        _assert_same_arrays(got, want)
        after = rng.integers(2**40, size=4).tolist()
        assert after == oracle_rng.integers(2**40, size=4).tolist()
        return got

    @pytest.mark.parametrize("selection", ["uniform", "round-robin"])
    @pytest.mark.parametrize("noise", [(2, 0, 0), (3, 0, 0), (2, 1, 1), (0, 0, 0)])
    def test_ternary_e2_runs(self, noise, selection):
        self._compare(construct_ternary_perfect(2, 2), noise, 20000, selection, 2029)

    @pytest.mark.parametrize(
        "code,noise,trials,selection",
        [
            (construct_binary_perfect(64, 3), (3, 0, 0), 20000, "round-robin"),
            # Chunks of 52,428, 52,428 and 15,144 trials, merged twice.
            (construct_ternary_perfect(2, 2), (2, 1, 1), 120000, "uniform"),
            (construct_binary_perfect(64, 3), (0, 0, 0), 3000, "uniform"),
            (_two_words(2**40), (1, 0, 1), 500, "uniform"),
            (_two_words(2**40), (0, 0, 0), 500, "round-robin"),
            (_two_words(2**62), (1, 0, 0), 500, "round-robin"),
            (_two_words(2**62), (0, 0, 0), 500, "uniform"),
            (Code(SimplexSpace(0, 2**63 + 5), ((2**63 + 5,),)), (0, 0, 0), 50, "uniform"),
            (_unit_code(250), (1, 0, 0), 3000, "uniform"),
            (_unit_code(250), (0, 1, 1), 3000, "round-robin"),
            (_unit_code(250), (0, 0, 0), 3000, "uniform"),
        ],
        ids=["b64-s3-rr", "t2-s2i1d1-120000", "b64-0", "2^40-s1d1", "2^40-0-rr",
             "2^62-s1-rr", "2^62-0", "n0-2^63+5", "unit250-s1", "unit250-i1d1-rr",
             "unit250-0"],
    )
    def test_same_arrays_as_the_lexsort_sampler(self, code, noise, trials, selection):
        got = self._compare(code, noise, trials, selection, trials + 7)
        assert got[2].sum() == trials

    def test_transmit_matches_the_lexsort_sampler(self):
        word = construct_ternary_perfect(2, 2).codewords[1]
        words = np.array([word], dtype=np.int64)
        for seed in range(40):
            cfg = ChannelConfig(substitutions=seed % 3, insertions=seed % 2,
                                deletions=seed % 4 // 2, seed=seed)
            want = lexsort_sample_run(words, sum(word), cfg, 1, "round-robin", channel._rng(seed))
            assert transmit(word, cfg) == tuple(want[1][0].tolist())

    def test_random_runs_across_chunk_sizes(self, monkeypatch):
        codes = [construct_ternary_perfect(2, 2), construct_binary_perfect(64, 3),
                 _unit_code(250), _two_words(2**40), _two_words(2**62)]
        default, rnd = channel._SAMPLE_CELLS, random.Random(29)
        compared = 0
        for _ in range(60):
            code = rnd.choice(codes)
            noise = (rnd.randrange(4), rnd.randrange(3), rnd.randrange(3))
            trials = rnd.choice([1, rnd.randrange(2, 300), rnd.randrange(300, 3000)])
            monkeypatch.setattr(channel, "_SAMPLE_CELLS", rnd.choice([1, 7, 40, 2**14, default]))
            cfg = ChannelConfig(substitutions=noise[0], insertions=noise[1],
                                deletions=noise[2])
            try:
                channel._check_run(code.space.ell, cfg, code.space.n, trials, len(code))
            except (ValueError, BudgetExceededError):  # too many deletions, or 2**63 weights
                continue
            self._compare(code, noise, trials, rnd.choice(["uniform", "round-robin"]),
                          rnd.getrandbits(64))
            compared += 1
        assert compared > 40


def _random_codes(rnd: random.Random, count: int) -> list[Code]:
    """Random codes of 1-4 codewords over n = 3..8 and small ell, perfect or not."""
    out = []
    for _ in range(count):
        space = SimplexSpace(rnd.randint(3, 8), rnd.randint(0, 4))
        points = list(enumerate_space(space))
        out.append(Code(space, tuple(rnd.sample(points, min(len(points), rnd.randint(1, 4))))))
    return out


def _walked_runs(states: np.ndarray, kind: str, total: int) -> list:
    """(state index, outcome, run start, run end) of every run of one event,
    one _event call per run of each state."""
    runs = []
    for index, state in enumerate(states.tolist()):
        start = 0
        while start < total:
            moved = np.array([state], dtype=states.dtype)
            end = int(channel._event(moved, kind, np.array([start]), total)[0])
            runs.append((index, tuple(moved[0].tolist()), start, end))
            start = end
    return sorted(runs)


class TestRuns:
    """channel._runs, the run walk of both modes, against one _event call
    per run, also where it ends with a call that takes a row per draw."""

    @pytest.mark.parametrize("cells", [1, 2**18])
    def test_runs_are_the_walked_runs(self, monkeypatch, cells):
        # At 1 cell the walk never takes its last call of a row per draw.
        monkeypatch.setattr(channel, "_SAMPLE_CELLS", cells)
        rnd = random.Random(cells)
        matrices = [np.array([[1] * 20 + [0]], dtype=np.int8),  # 400 runs of one draw
                    construct_ternary_perfect(40, 2).matrix.astype(np.int16),  # long runs
                    np.array([[60, 1, 1, 1, 0], [0, 0, 63, 0, 0]], dtype=np.int8)]  # both
        for _ in range(30):
            n, ell = rnd.randint(0, 6), rnd.randint(1, 9)
            matrices.append(np.array([np.bincount(rnd.choices(range(n + 1), k=ell),
                                                  minlength=n + 1)
                                      for _ in range(rnd.randint(1, 12))], dtype=np.int8))
        for states in matrices:
            length, n = int(states[0].sum()), states.shape[1] - 1
            for kind, total in [("substitution", length * n), ("deletion", length),
                                ("insertion", (length + 1) * (n + 1))]:
                if total == 0:
                    continue
                state, outcome, begin, end = channel._runs(states, kind, total)
                got = sorted(zip(state.tolist(), map(tuple, outcome.tolist()),
                                 begin.tolist(), end.tolist()))
                assert got == _walked_runs(states, kind, total), (states, kind)

    def test_short_runs_take_few_calls(self, monkeypatch):
        calls, event = [], channel._event

        def counting(*args):
            calls.append(len(args[0]))
            return event(*args)

        monkeypatch.setattr(channel, "_event", counting)
        ones = np.array([[1] * 20 + [0]], dtype=np.int8)
        assert len(channel._runs(ones, "substitution", 400)[0]) == 400
        # One call on the first draw, then one on a row per remaining draw.
        assert calls == [1, 399]


class TestAgainstTransitionDP:
    """Exhaustive mode against the replaced Counter DP over transition lists,
    and against every draw sequence of the sampler's event pick."""

    def test_random_codes_match_the_replaced_dp(self):
        codes = _random_codes(random.Random(9), 24)
        # Ties: two codewords at equal distance from many received vectors.
        codes += [Code(SimplexSpace(3, 2), ((2, 0, 0, 0), (0, 2, 0, 0))),
                  Code(SimplexSpace(4, 2), ((1, 1, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 0, 2)))]
        ties = compared = 0
        for code in codes:
            for subs, ins, dels in product(range(4), repeat=3):
                if subs + ins + dels > 3:
                    continue
                cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels)
                try:
                    got = run_experiment(code, cfg, trials=1, exhaustive=True)
                except (BudgetExceededError, ValueError):
                    continue
                assert got == transition_dp_exhaustive(code, cfg), (code, cfg)
                histogram = _histogram(channel._exhaustive_run(code.codewords, code.space.ell, cfg))
                assert histogram == counter_exhaustive_run(code.codewords, cfg), (code, cfg)
                compared += 1
                ties += got.ambiguous > 0
        assert compared > 300 and ties > 20

    @pytest.mark.parametrize("noise", [(2, 1, 1), (4, 0, 0)])
    def test_benchmark_configs_match_the_counter_dp(self, noise):
        subs, ins, dels = noise
        cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels)
        words = construct_ternary_perfect(2, 2).codewords
        histogram = _histogram(channel._exhaustive_run(words, sum(words[0]), cfg))
        assert histogram == counter_exhaustive_run(words, cfg)

    @pytest.mark.parametrize(
        "code,noise",
        [
            (construct_ternary_perfect(1, 1), (2, 0, 0)),
            (construct_ternary_perfect(1, 2), (1, 1, 1)),
            (Code(SimplexSpace(3, 3), ((3, 0, 0, 0), (0, 1, 0, 2))), (1, 0, 2)),
            (Code(SimplexSpace(1, 2), ((2, 0), (0, 2))), (0, 2, 1)),
            (_unit_code(5), (1, 1, 0)),
        ],
    )
    def test_weights_count_the_sampler_draws(self, code, noise):
        subs, ins, dels = noise
        cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels)
        schedule = list(channel._schedule(code.space.ell, cfg, code.space.n))
        draws: Counter = Counter()
        for index, word in enumerate(code.codewords):
            for seq in product(*(range(total) for _, total in schedule)):
                counts = np.array([word], dtype=np.int64)
                for (kind, total), r in zip(schedule, seq):
                    channel._event(counts, kind, np.array([r]), total)
                draws[index, tuple(counts[0].tolist())] += 1
        assert _histogram(channel._exhaustive_run(code.codewords, code.space.ell, cfg)) == draws
        assert counter_exhaustive_run(code.codewords, cfg) == draws


class TestAtTheTopOfInt8:
    """Runs whose counts reach 127, the top of an int8 count matrix, and
    128, the first count of an int16 one, against the oracles."""

    @pytest.mark.parametrize("top", [127, 128])
    @pytest.mark.parametrize("noise", [(0, 1, 0), (0, 2, 0), (1, 1, 0)])
    def test_both_modes_match_the_oracles(self, top, noise):
        subs, ins, dels = noise
        code = _two_words(top - ins)  # ell + insertions = top
        words = code.codewords
        cfg = ChannelConfig(substitutions=subs, insertions=ins, deletions=dels, seed=top)
        histogram = _histogram(channel._exhaustive_run(words, sum(words[0]), cfg))
        assert histogram == counter_exhaustive_run(words, cfg)
        assert max(max(counts) for _, counts in histogram) == top - subs
        got = run_experiment(code, cfg, 1, exhaustive=True)
        assert got == transition_dp_exhaustive(code, cfg)
        for selection in ("uniform", "round-robin"):
            sampled = _tally_both_ways(words, cfg, 300, selection)
            assert max(max(counts) for _, counts in sampled) == top - subs
            got = run_experiment(code, cfg, 300, selection)
            assert got == scalar_sampled_experiment(code, cfg, 300, selection)
