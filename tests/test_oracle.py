from fractions import Fraction as F

import pytest

from patdual.oracle import (
    build_automaton,
    oracle_first_passage,
    oracle_win_probs,
    simulate,
)
from patdual.patterns import Alphabet, Pattern, PatternSet

COIN = Alphabet.coin(F(1, 2))


def pset(*texts, alphabet=COIN):
    return PatternSet(alphabet, tuple(Pattern.parse(t, alphabet) for t in texts))


def test_automaton_single_symbol_pattern():
    auto = build_automaton(pset("H"))
    assert auto.transient == ((),)
    assert auto.transitions[0][0] == auto.absorbing_state(0)
    assert auto.transitions[0][1] == 0


def test_automaton_two_pattern_structure():
    auto = build_automaton(pset("HH", "TH"))
    states = set(auto.transient)
    assert states == {(), (0,), (1,)}
    h = auto.transient.index((0,))
    t = auto.transient.index((1,))
    assert auto.transitions[h][0] == auto.absorbing_state(0)
    assert auto.transitions[t][0] == auto.absorbing_state(1)
    assert auto.transitions[t][1] == t


def test_automaton_state_counts_for_long_pair():
    auto = build_automaton(pset("TTTHTTT", "TTHTTTTHT"))
    assert auto.n_transient == 13  # distinct proper prefixes of the two patterns
    assert auto.n_states == 15  # plus one absorbing state per pattern


def test_automaton_is_total_and_deterministic():
    for ps in (pset("H", "T"), pset("HH", "TH"), pset("TTTHTTT", "TTHTTTTHT"), pset("HHH")):
        auto = build_automaton(ps)
        assert len(auto.transitions) == auto.n_transient
        for row in auto.transitions:
            assert len(row) == len(ps.alphabet)
            for target in row:
                assert 0 <= target < auto.n_states


def test_automaton_state_bound():
    for ps in (pset("HH", "TH"), pset("TTTHTTT", "TTHTTTTHT"), pset("HHHH", "TTTT")):
        auto = build_automaton(ps)
        assert auto.n_transient <= sum(len(p) for p in ps.patterns) + 1


def test_state_of_rejects_completed_history():
    auto = build_automaton(pset("HH", "TH"))
    assert auto.state_of((0,)) == auto.transient.index((0,))
    with pytest.raises(ValueError):
        auto.state_of((1, 0))


def test_win_probs_single_trial_race():
    biased = Alphabet.coin(F(1, 3))
    stats = oracle_win_probs(pset("H", "T", alphabet=biased))
    assert stats.win_probs == (F(1, 3), F(2, 3))
    assert stats.mean == 1
    assert stats.variance == 0


def test_win_probs_hand_solved_chain():
    # from the empty state: H then H wins HH with probability 1/4
    stats = oracle_win_probs(pset("HH", "TH"))
    assert stats.win_probs == (F(1, 4), F(3, 4))
    assert stats.mean == 3


def test_win_probs_long_pair():
    stats = oracle_win_probs(pset("TTTHTTT", "TTHTTTTHT"))
    assert stats.win_probs == (F(62, 71), F(9, 71))
    assert stats.mean == F(9110, 71)


def test_first_passage_single_symbol_is_geometric():
    biased = Alphabet.coin(F(1, 3))
    got = oracle_first_passage(Pattern.parse("H", biased), 6)
    assert got[0] == 0
    for i in range(1, 7):
        assert got[i] == F(1, 3) * F(2, 3) ** (i - 1)


def test_first_passage_zero_below_pattern_length():
    got = oracle_first_passage(Pattern.parse("TTHTTTTHT", COIN), 18)
    assert all(got[i] == 0 for i in range(9))
    assert got[18] == F(493, 262144)


def test_first_passage_with_head_start():
    # starting one H into HH: H completes at trial 1; a T forces a restart,
    # so the earliest later completion is trial 3 (T,H,H)
    got = oracle_first_passage(Pattern.parse("HH", COIN), 4, head_start=(0,))
    assert got == (F(0), F(1, 2), F(0), F(1, 8), F(1, 16))


def test_simulate_single_trial_race_and_reproducibility():
    ps = pset("H", "T")
    rep = simulate(ps, 5000, seed=42)
    assert sum(rep.wins) == rep.games == 5000
    assert rep.duration_sum == 5000  # every game ends on the first flip
    assert rep.duration_sq_sum == 5000
    assert rep == simulate(ps, 5000, seed=42)
    assert rep != simulate(ps, 5000, seed=43)


def test_simulate_spans_chunks_deterministically():
    ps = pset("HH", "TH")
    big = simulate(ps, (1 << 16) + 1000, seed=9)
    assert sum(big.wins) == big.games
    assert big == simulate(ps, (1 << 16) + 1000, seed=9)


def test_simulate_matches_exact_values_within_4_sigma():
    ps = pset("HH", "TH")
    exact = oracle_win_probs(ps)
    games = 50_000
    rep = simulate(ps, games, seed=1234)
    for i in range(2):
        p = float(exact.win_probs[i])
        sigma = (p * (1 - p) / games) ** 0.5
        z = (float(rep.win_frequency(i)) - p) / sigma
        assert abs(z) < 4
    mean_sigma = (float(exact.variance) / games) ** 0.5
    assert abs(float(rep.mean_duration) - float(exact.mean)) < 4 * mean_sigma


def test_simulate_validates_game_count():
    with pytest.raises(ValueError):
        simulate(pset("H", "T"), 0, seed=1)


def test_simulate_validates_seed_range():
    ps = pset("H", "T")
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            simulate(ps, 10, seed=seed)
    assert simulate(ps, 10, seed=2**64 - 1).seed == 2**64 - 1
