import os
import subprocess
import sys
import threading
from bisect import bisect_right
from fractions import Fraction as F
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from patdual import oracle
from patdual.oracle import (
    SimReport,
    build_automaton,
    oracle_first_passage,
    oracle_win_probs,
    simulate,
)
from patdual.patterns import Alphabet, Pattern, PatternSet, PatternSetError
from reference import gaussian_solve
from test_pgf import races

COIN = Alphabet.coin(F(1, 2))
BIASED = Alphabet.coin(F(1, 3))
THREE = Alphabet(("A", "B", "C"), (F(1, 2), F(1, 3), F(1, 6)))


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


@settings(max_examples=60, deadline=None)
@given(races(patterns=(1, 4), max_length=5))
def test_automaton_states_are_the_proper_prefixes(ps):
    auto = build_automaton(ps)
    prefixes = {p.symbols[:i] for p in ps.patterns for i in range(len(p.symbols))}
    assert set(auto.transient) == prefixes
    assert auto.transient[0] == ()
    for u in prefixes:  # each prefix is reached by reading it
        assert auto.state_of(u) == auto.transient.index(u)


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


@st.composite
def chain_races(draw):
    """Valid sets of 1-4 patterns of length 1-7 over the fair, 1/3 and 1/10^6 coins and THREE.

    A drawn text inside another drawn text is dropped, so every draw is a valid set.
    """
    alphabet = draw(st.sampled_from([COIN, BIASED, Alphabet.coin(F(1, 10**6)), THREE]))
    texts = set(draw(st.lists(st.text("".join(alphabet.symbols), min_size=1, max_size=7), min_size=1, max_size=4)))
    return pset(*sorted(t for t in texts if not any(t != u and t in u for u in texts)), alphabet=alphabet)


@settings(max_examples=60, deadline=None)
@given(chain_races())
@example(pset("HH", "TH"))
@example(pset("TTTHTTT", "TTHTTTTHT"))
@example(pset("TTH", "THHH", "HHHH", "HTHTH", alphabet=BIASED))
@example(pset("ABAACAC", "CBBCBAAC", alphabet=THREE))
@example(pset("CCA", "ABB", "BAA", "AABC", alphabet=THREE))
def test_win_probs_match_per_pattern_absorption_systems(ps):
    # the textbook systems over Fractions: (I - Q) b_j = r_j for each pattern's
    # absorption, (I - Q) t = 1 for the mean and (I - Q) s = 1 + 2 Q t for E[T^2]
    auto = build_automaton(ps)
    n, probs = auto.n_transient, ps.alphabet.probs
    a = [[F(int(r == c)) for c in range(n)] for r in range(n)]
    reach = [[F(0)] * len(ps) for _ in range(n)]
    for s, row in enumerate(auto.transitions):
        for c, nxt in enumerate(row):
            if nxt < n:
                a[s][nxt] -= probs[c]
            else:
                reach[s][nxt - n] += probs[c]
    wins = tuple(gaussian_solve(a, [r[j] for r in reach])[0] for j in range(len(ps)))
    t = gaussian_solve(a, [F(1)] * n)
    q_t = [sum((probs[c] * t[nxt] for c, nxt in enumerate(row) if nxt < n), F(0)) for row in auto.transitions]
    second = gaussian_solve(a, [1 + 2 * v for v in q_t])[0]
    assert oracle_win_probs(ps) == (wins, t[0], second - t[0] ** 2)


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


def test_simulate_refuses_a_request_over_the_trial_budget_before_any_draw(monkeypatch):
    def draw(*args):
        raise AssertionError("the simulator drew")

    def thread(*args, **kwargs):
        raise AssertionError("the simulator started a thread")

    monkeypatch.setattr(np.random, "PCG64", draw)
    monkeypatch.setattr(threading, "Thread", thread)
    # the exact mean duration is 1,000,001,000,001 trials
    ps = pset("HHH", "HHT", alphabet=Alphabet.coin(F(1, 1_000_000)))
    with pytest.raises(ValueError, match=r"simulation over budget: .* 1000001000001 exceeds 1073741824 trials"):
        simulate(ps, 1, seed=0)
    assert oracle.SIMULATION_BUDGET == 2**30


def test_the_simulation_budget_solves_nothing_over_the_automaton(monkeypatch):
    """The budget's mean is one solve of order m; the chain's elimination would grow with the cube of the automaton."""
    monkeypatch.setattr(oracle, "solve_linear_system", lambda *args: pytest.fail("solved over the automaton"))
    monkeypatch.setattr(oracle, "_bareiss", lambda *args: pytest.fail("eliminated over the automaton"))
    report = simulate(pset("H" * 400, "T"), 10, seed=0)
    assert sum(report.wins) == 10


def test_the_chain_check_refuses_a_race_over_its_state_budget_before_any_solve(monkeypatch):
    monkeypatch.setattr(oracle, "solve_linear_system", lambda *args: pytest.fail("solved over the automaton"))
    monkeypatch.setattr(oracle, "_bareiss", lambda *args: pytest.fail("eliminated over the automaton"))
    ps = pset("H" * (oracle.CHAIN_STATES_BUDGET + 1), "T")  # one transient state per proper prefix of H...H
    with pytest.raises(ValueError, match=r"^absorbing-chain check over budget: 257 transient states exceed 256$"):
        oracle_win_probs(ps)
    assert oracle.CHAIN_STATES_BUDGET == 256


# Exact reports of earlier releases, which the simulator must reproduce bit for bit.
# Games 65,536 and 65,537 sit on either side of the first chunk boundary; 200,000 spans four chunks.
PINNED_REPORTS = [
    (COIN, ("HTH",), 1, 0, (1,), 14, 196),
    (COIN, ("HH", "TH"), 1, 2**64 - 1, (0, 1), 3, 9),
    (COIN, ("TTTHTTT", "TTHTTTTHT"), 65_536, 2**64 - 1, (57172, 8364), 8407978, 2049920044),
    (BIASED, ("HHT", "THT"), 65_537, 0, (26851, 38686), 360719, 2437533),
    (THREE, ("ABC",), 65_537, 2**64 - 1, (65537,), 2360485, 158099907),
    (BIASED, ("TTH", "THHH", "HHHH", "HTHTH"), 200_000, 0, (180068, 9022, 2460, 8450), 1216483, 8944875),
    (THREE, ("CCA", "ABB", "BAA", "AABC"), 200_000, 2**64 - 1, (19111, 66448, 103544, 10897), 1443202, 14349972),
]


@pytest.mark.parametrize("alphabet, texts, games, seed, wins, total, squares", PINNED_REPORTS)
def test_simulate_reports_equal_earlier_releases(alphabet, texts, games, seed, wins, total, squares):
    assert simulate(pset(*texts, alphabet=alphabet), games, seed) == SimReport(games, wins, total, squares, seed)


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_a_failing_chunk_ends_the_simulation_and_every_worker(monkeypatch, error):
    seed_sequence = np.random.SeedSequence
    started = []

    def failing_on_chunk_1(entropy):
        started.append(entropy[1])
        if entropy[1] == 1:
            raise error("chunk 1")
        return seed_sequence(entropy)

    monkeypatch.setattr(np.random, "SeedSequence", failing_on_chunk_1)
    threads = threading.active_count()
    # games last 128 trials on average, so chunk 0 is still playing when chunk 1 fails on another core
    with pytest.raises(error, match="chunk 1"):
        simulate(pset("TTTHTTT", "TTHTTTTHT"), 4 << 16, seed=0)
    assert threading.active_count() == threads
    assert 3 not in started


@pytest.mark.parametrize("cores", [1, 3])
def test_simulate_reports_do_not_depend_on_the_worker_count(monkeypatch, cores):
    monkeypatch.setattr(oracle, "_usable_cores", lambda: cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave often, so a lost or doubled chunk would show
    try:
        for alphabet, texts, games, seed, wins, total, squares in PINNED_REPORTS:
            if games > 1 << 16:
                report = simulate(pset(*texts, alphabet=alphabet), games, seed)
                assert report == SimReport(games, wins, total, squares, seed)
    finally:
        sys.setswitchinterval(interval)


def test_simulate_starts_one_thread_per_usable_core_but_its_own(monkeypatch):
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    report = simulate(pset("H", "T"), 40 * (1 << 16) + 1, seed=0)  # 41 chunks of one-flip games
    assert report.duration_sum == report.games
    assert len(started) == min(41, oracle._usable_cores()) - 1
    assert not any(thread.is_alive() for thread in started)


def stepped_simulation(ps, games, seed):
    """The simulator's stream walked one game at a time: one generator per chunk of 2**16
    games, one double per live game per step in game order, mapped by bisection."""
    auto = build_automaton(ps)
    nt = auto.n_transient
    thresholds = list(accumulate(float(p) for p in ps.alphabet.probs))[:-1]
    wins = [0] * len(ps)
    total = squares = 0
    for chunk, start in enumerate(range(0, games, 1 << 16)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, chunk])))
        live = [0] * min(1 << 16, games - start)
        t = 0
        while live:
            t += 1
            survivors = []
            for state, u in zip(live, rng.random(len(live)).tolist()):
                nxt = auto.transitions[state][bisect_right(thresholds, u)]
                if nxt < nt:
                    survivors.append(nxt)
                else:
                    wins[nxt - nt] += 1
                    total += t
                    squares += t * t
            live = survivors
    return SimReport(games, tuple(wins), total, squares, seed)


@st.composite
def short_races(draw):
    """Valid sets of 1-4 patterns of length 1-6 over 2-4 biased symbols, with mean duration <= 50."""
    labels = "ABCD"[: draw(st.integers(2, 4))]
    weights = draw(st.lists(st.integers(1, 6), min_size=len(labels), max_size=len(labels)))
    alphabet = Alphabet(tuple(labels), tuple(F(w, sum(weights)) for w in weights))
    texts = draw(st.lists(st.text(labels, min_size=1, max_size=6), min_size=1, max_size=4))
    try:
        ps = PatternSet(alphabet, tuple(Pattern.parse(t, alphabet) for t in texts))
    except PatternSetError:
        assume(False)
    assume(oracle_win_probs(ps).mean <= 50)
    return ps


@settings(max_examples=40, deadline=None)
@given(short_races(), st.integers(1, 300), st.integers(0, 2**64 - 1))
def test_simulate_equals_a_game_by_game_stepper(ps, games, seed):
    assert simulate(ps, games, seed) == stepped_simulation(ps, games, seed)


# A coin race's codes run to stop + m - 1, stop being twice its transient states: H*127 against T tops out
# at 255 (8 bits), H*128 against T at 257 (16 bits), and H*126 against TH and TT at 256 though its stop is 254.
# At P(H) = 99/100 every pattern wins, so play reaches the top codes; 65,537 games span the chunk boundary.
@pytest.mark.parametrize("texts, alphabet, games", [
    (("H" * 127, "T"), Alphabet.coin(F(99, 100)), 400),
    (("H" * 128, "T"), Alphabet.coin(F(99, 100)), 400),
    (("H" * 126, "TH", "TT"), Alphabet.coin(F(99, 100)), 400),
    (("H" * 128, "T"), COIN, 65_537),
])
def test_simulate_equals_the_stepper_across_the_code_width_and_chunk_boundaries(texts, alphabet, games):
    ps = pset(*texts, alphabet=alphabet)
    report = simulate(ps, games, seed=5)
    assert report == stepped_simulation(ps, games, seed=5)
    assert games > 1 << 16 or all(report.wins)


def test_simulate_validates_arguments_before_loading_numpy():
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from patdual.oracle import simulate\n"
        "from patdual.patterns import Alphabet, Pattern, PatternSet\n"
        "coin = Alphabet.coin(Fraction(1, 2))\n"
        "ps = PatternSet(coin, (Pattern.parse('H', coin), Pattern.parse('T', coin)))\n"
        "for games, seed in ((0, 1), (10, -1), (10, 2**64)):\n"
        "    try:\n"
        "        simulate(ps, games, seed)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    sys.exit(f'simulate({games}, {seed}) did not raise')\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
