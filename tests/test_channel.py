"""Permutation channel: encoding, noise, reception, experiment harness."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from simplexcode import (
    AmbiguousDecodeError,
    BudgetExceededError,
    ChannelConfig,
    Code,
    SimplexSpace,
    construct_binary_perfect,
    construct_ternary_perfect,
    count_binary_perfect,
    count_noise_patterns,
    decode,
    decode_received,
    encode,
    enumerate_space,
    receive,
    run_experiment,
    symmetric_difference,
    transmit,
)


class TestEncode:
    def test_multiplicities_spelled_out(self):
        assert encode((5, 0, 2)) == (0, 0, 0, 0, 0, 2, 2)

    def test_single_symbol(self):
        assert encode((0, 0, 4)) == (2, 2, 2, 2)

    def test_empty(self):
        assert encode((0, 0)) == ()


class TestReceive:
    def test_counts(self):
        assert receive((2, 0, 0, 2, 0, 0, 0), 2) == (5, 0, 2)

    def test_empty_sequence(self):
        assert receive((), 2) == (0, 0, 0)

    def test_round_trip(self):
        for x in enumerate_space(SimplexSpace(2, 7)):
            assert receive(encode(x), 2) == x

    def test_out_of_alphabet(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            receive((0, 3), 2)


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
        seq = encode((5, 0, 2))
        for seed in range(20):
            out = transmit(seq, ChannelConfig(seed=seed), 2)
            assert Counter(out) == Counter(seq)

    def test_same_seed_same_output(self):
        cfg = ChannelConfig(substitutions=2, deletions=1, insertions=1, seed=99)
        seq = encode((3, 2, 2))
        assert transmit(seq, cfg, 2) == transmit(seq, cfg, 2)

    def test_trials_give_distinct_streams(self):
        cfg = ChannelConfig(seed=4)
        seq = encode((3, 2, 2))
        outs = {transmit(seq, cfg, 2, trial=t) for t in range(8)}
        assert len(outs) > 1  # the permutation varies across substreams

    def test_substitution_forces_a_different_symbol(self):
        cfg = ChannelConfig(substitutions=1)
        for seed in range(30):
            out = transmit((0, 0), ChannelConfig(substitutions=1, seed=seed), 2)
            counts = receive(out, 2)
            assert counts[0] == 1
            assert counts in ((1, 1, 0), (1, 0, 1))

    def test_one_substitution_moves_along_a_direction(self):
        sent = (5, 0, 2)
        for seed in range(25):
            out = transmit(encode(sent), ChannelConfig(substitutions=1, seed=seed), 2)
            got = receive(out, 2)
            delta = [g - s for g, s in zip(got, sent)]
            assert sorted(delta) == [-1, 0, 1]
            assert symmetric_difference(got, sent) == 2

    def test_one_deletion_or_insertion_moves_by_one(self):
        sent = (5, 0, 2)
        for seed in range(25):
            out = transmit(encode(sent), ChannelConfig(deletions=1, seed=seed), 2)
            assert symmetric_difference(receive(out, 2), sent) == 1
            out = transmit(encode(sent), ChannelConfig(insertions=1, seed=seed), 2)
            assert symmetric_difference(receive(out, 2), sent) == 1

    def test_too_many_deletions(self):
        with pytest.raises(ValueError, match="cannot delete"):
            transmit((0, 1), ChannelConfig(deletions=3), 2)

    def test_substitution_into_empty(self):
        with pytest.raises(ValueError, match="empty sequence"):
            transmit((), ChannelConfig(substitutions=1), 2)

    def test_substitution_needs_two_symbols(self):
        with pytest.raises(ValueError, match="at least 2 symbols"):
            transmit((0, 0), ChannelConfig(substitutions=1), 0)


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

    def test_agrees_with_half_metric_decoder_inside_simplex(self):
        code = construct_ternary_perfect(1, 1)
        for y in enumerate_space(code.space):
            word, d = decode(code, y)
            word2, score = decode_received(code, y)
            assert word2 == word
            assert score == 2 * d


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

    def test_mixed_noise_keeps_cardinality_bookkeeping(self):
        code = construct_ternary_perfect(1, 1)
        stats = run_experiment(code, ChannelConfig(deletions=1), trials=1, exhaustive=True)
        # one deletion always changes the count vector by exactly 1
        assert stats.trials == 3 * 4
        assert stats.mean_score >= 1.0
