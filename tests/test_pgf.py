import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patdual.algebra import Poly, RationalFunction
from patdual.cli import main
from patdual.oracle import oracle_first_passage, oracle_win_probs
from patdual.patterns import (
    Alphabet,
    Pattern,
    PatternSet,
    PatternSetError,
    overlap_string,
    string_probability,
)
from patdual.pgf import (
    DuelSolution,
    build_duel_matrix,
    conditional_pgf,
    first_passage_pgf,
    renewal_gf_from_pgf,
    solve_duel,
)

RF = RationalFunction
COIN = Alphabet.coin(F(1, 2))
ONE_MINUS_Z = Poly((1, -1))


def pat(text, alphabet=COIN):
    return Pattern.parse(text, alphabet)


def pset(*texts, alphabet=COIN):
    return PatternSet(alphabet, tuple(Pattern.parse(t, alphabet) for t in texts))


def geometric(p):
    # p z / (1 - (1-p) z)
    return RF(Poly((0, p)), Poly((1, p - 1)))


def explicit_first_passage(symbols, alphabet):
    """Textbook form: P z^k / (P z^k + (1-z) sum_shifts P(tail) z^(k-shift))."""
    k = len(symbols)
    lead = Poly.monomial(k, string_probability(symbols, alphabet))
    acc = Poly.zero()
    for i in range(1, k + 1):
        if symbols[k - i :] == symbols[:i]:
            acc += Poly.monomial(k - i, string_probability(symbols[i:], alphabet))
    return RF(lead, lead + ONE_MINUS_Z * acc)


def sequence_probability(seq, alphabet):
    prob = F(1)
    for c in seq:
        prob *= alphabet.probs[c]
    return prob


def brute_force_renewal(pattern, n):
    """u_n by enumerating every outcome sequence, resetting after completions."""
    alphabet = pattern.alphabet
    k = len(pattern)
    total = F(0)
    for seq in itertools.product(range(len(alphabet)), repeat=n):
        buf = []
        hit = False
        for t, c in enumerate(seq, start=1):
            buf.append(c)
            if len(buf) >= k and tuple(buf[-k:]) == pattern.symbols:
                buf.clear()
                if t == n:
                    hit = True
        if hit:
            total += sequence_probability(seq, alphabet)
    return total


def brute_force_first_wins(ps, n):
    """wins[i][t]: probability pattern i is the first to complete, at trial t."""
    alphabet = ps.alphabet
    wins = [[F(0)] * (n + 1) for _ in ps.patterns]
    for seq in itertools.product(range(len(alphabet)), repeat=n):
        outcome = None
        for t in range(1, n + 1):
            hist = seq[:t]
            for j, p in enumerate(ps.patterns):
                k = len(p)
                if t >= k and hist[-k:] == p.symbols:
                    outcome = (j, t)
                    break
            if outcome:
                break
        if outcome:
            j, t = outcome
            wins[j][t] += sequence_probability(seq, alphabet)
    return wins


def test_single_symbol_pattern_is_geometric():
    for p in (F(1, 2), F(1, 3), F(3, 7)):
        alphabet = Alphabet.coin(p)
        assert first_passage_pgf(Pattern.parse("H", alphabet)) == geometric(p)


def test_explicit_form_of_length9_pattern():
    alphabet = Alphabet.coin(F(1, 3))
    w = Pattern.parse("TTHTTTTHT", alphabet)
    p, q = F(1, 3), F(2, 3)
    lead = Poly.monomial(9, p**2 * q**7)
    overlap = Poly.monomial(8, p**2 * q**6) + Poly.monomial(5, p * q**4) + Poly.one()
    assert first_passage_pgf(w) == RF(lead, lead + ONE_MINUS_Z * overlap)


def test_first_passage_sums_to_one_and_mean_of_double_heads():
    f = first_passage_pgf(pat("HH"))
    assert f.limit_at_one() == 1
    assert f.derivative().limit_at_one() == 6  # matches the chain solver below
    assert oracle_win_probs(pset("HH")).mean == 6


def test_series_matches_occupancy_oracle():
    rng = random.Random(2)
    die = Alphabet.uniform("123")
    for alphabet in (COIN, Alphabet.coin(F(1, 4)), die):
        for _ in range(6):
            k = rng.randint(1, 5)
            p = Pattern(alphabet, tuple(rng.randrange(len(alphabet)) for _ in range(k)))
            assert first_passage_pgf(p).series(20) == oracle_first_passage(p, 20)


def test_renewal_of_deterministic_completion():
    u = renewal_gf_from_pgf(RF(Poly((0, 1))))
    assert u == RF(Poly.one(), ONE_MINUS_Z)
    assert u.series(5) == (F(1),) * 6


def test_renewal_of_single_symbol():
    u = renewal_gf_from_pgf(geometric(F(1, 2)))
    assert u.series(4) == (F(1), F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    # every later trial completes H with probability p, independent of history
    for n in range(1, 7):
        assert brute_force_renewal(pat("H"), n) == F(1, 2)


def test_renewal_of_double_heads_matches_enumeration():
    u = renewal_gf_from_pgf(first_passage_pgf(pat("HH"))).series(6)
    assert u[2] == F(1, 4)
    assert u[3] == F(1, 8)
    for n in range(1, 7):
        assert u[n] == brute_force_renewal(pat("HH"), n)


def test_renewal_rejects_constant_one():
    with pytest.raises(ValueError):
        renewal_gf_from_pgf(RF.one())


def test_renewal_convolution_identity_and_enumeration():
    rng = random.Random(17)
    for _ in range(4):
        alphabet = Alphabet.coin(F(rng.randint(1, 4), 5))
        p = Pattern(alphabet, tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5))))
        f = first_passage_pgf(p)
        fs = f.series(12)
        us = renewal_gf_from_pgf(f).series(12)
        assert us[0] == 1
        assert all(us[i] == 0 for i in range(1, len(p)))
        for n in range(1, 13):
            assert us[n] == sum(fs[i] * us[n - i] for i in range(n + 1))
        for n in range(1, 13):
            assert us[n] == brute_force_renewal(p, n)


def test_conditional_pgf_degenerate_cases():
    s = pat("TTTHTTT")
    assert conditional_pgf(s, s) == RF.one()
    # no usable head start: HH gives nothing toward TT
    assert conditional_pgf(pat("TT"), pat("HH")) == first_passage_pgf(pat("TT"))


def test_conditional_pgf_matches_seeded_occupancy_oracle():
    i, j = pat("TTTHTTT"), pat("TTHTTTTHT")
    head = overlap_string(j, i)
    assert head == pat("TTTHT").symbols
    got = conditional_pgf(i, j).series(25)
    assert got == oracle_first_passage(i, 25, head_start=head)


def test_duel_matrix_entries_for_long_pair():
    alphabet = Alphabet.coin(F(1, 3))
    p, q = F(1, 3), F(2, 3)
    ps = pset("TTTHTTT", "TTHTTTTHT", alphabet=alphabet)
    matrix = build_duel_matrix(ps)

    def entry(lead_pow, lead_coeff, terms):
        lead = Poly.monomial(lead_pow, lead_coeff)
        acc = Poly.one()
        for power, coeff in terms:
            acc += Poly.monomial(power, coeff)
        return RF(lead + ONE_MINUS_Z * acc, lead)

    assert matrix[0][0] == entry(7, p * q**6, [(6, p * q**5), (5, p * q**4), (4, p * q**3)])
    assert matrix[0][1] == entry(5, p * q**4, [(4, p * q**3)])
    assert matrix[1][0] == entry(6, p * q**5, [(5, p * q**4), (4, p * q**3)])
    assert matrix[1][1] == entry(9, p**2 * q**7, [(8, p**2 * q**6), (5, p * q**4)])


def test_duel_matrix_trivial_entries():
    matrix = build_duel_matrix(pset("HH", "TT"))
    one = RF.one()
    assert matrix[0][1] == one and matrix[1][0] == one

    single = build_duel_matrix(pset("HHH"))
    assert single == [[one / first_passage_pgf(pat("HHH"))]]


def test_solve_duel_long_pair():
    sol = solve_duel(pset("TTTHTTT", "TTHTTTTHT"))
    assert sol.win_probs == (F(62, 71), F(9, 71))
    assert sol.mean == F(9110, 71)
    assert sum(sol.win_probs) == 1
    stats = oracle_win_probs(pset("TTTHTTT", "TTHTTTTHT"))
    assert sol.variance == stats.variance
    assert round(sol.std, 1) == 122.0


def test_solve_duel_single_trial_race():
    for p in (F(1, 2), F(2, 7)):
        alphabet = Alphabet.coin(p)
        sol = solve_duel(pset("H", "T", alphabet=alphabet))
        assert sol.win_probs == (p, 1 - p)
        assert sol.duration == RF(Poly((0, 1)))
        assert sol.mean == 1
        assert sol.variance == 0
        assert math.isnan(sol.skewness)  # undefined for a point mass


def test_solve_duel_hand_checked_pairs():
    assert solve_duel(pset("HH", "TH")).win_probs == (F(1, 4), F(3, 4))
    assert solve_duel(pset("HHH", "THH")).win_probs == (F(1, 8), F(7, 8))


def test_solve_duel_degenerate_single_pattern():
    sol = solve_duel(pset("HH"))
    assert sol.win_probs == (F(1),)
    assert sol.duration == first_passage_pgf(pat("HH"))
    assert sol.mean == 6


def test_duration_is_sum_of_win_generating_functions():
    sol = solve_duel(pset("HH", "TH"))
    assert sol.duration == sol.x[0] + sol.x[1]


def test_residual_identity_holds_exactly():
    for ps in (pset("HH", "TH"), pset("TTTHTTT", "TTHTTTTHT"), pset("HHH", "THH", "TTH")):
        matrix = build_duel_matrix(ps)
        sol = solve_duel(ps)
        one = RF.one()
        for i in range(len(ps)):
            acc = RF.zero()
            for j in range(len(ps)):
                acc = acc + sol.x[j] * matrix[i][j]
            assert acc == one


def test_duration_coefficients_examples():
    sol = solve_duel(pset("H", "T"))
    assert sol.duration.series(4) == (F(0), F(1), F(0), F(0), F(0))

    sol = solve_duel(pset("HH", "TH"))
    assert sol.duration.series(2)[2] == F(1, 2)

    sol = solve_duel(pset("TTTHTTT", "TTHTTTTHT"))
    coeffs = sol.duration.series(12)
    assert all(c == 0 for c in coeffs[:7])
    assert all(0 <= c <= 1 for c in coeffs)
    assert sum(coeffs) <= 1


def test_win_prob_series_examples():
    biased = Alphabet.coin(F(1, 3))
    sol = solve_duel(pset("H", "T", alphabet=biased))
    assert sol.x[0].series(3) == (F(0), F(1, 3), F(0), F(0))

    sol = solve_duel(pset("HH", "TH"))
    assert sol.x[0].series(2)[0] == 0
    assert sol.x[0].series(2)[2] == F(1, 4)


def test_win_prob_series_matches_enumeration():
    n = 12
    for ps in (pset("HH", "TH"), pset("HHH", "TTT", alphabet=Alphabet.coin(F(1, 3)))):
        sol = solve_duel(ps)
        expected = brute_force_first_wins(ps, n)
        dur = sol.duration.series(n)
        per_pattern = [sol.x[i].series(n) for i in range(len(ps))]
        for i in range(len(ps)):
            assert list(per_pattern[i]) == expected[i]
        for t in range(n + 1):
            assert dur[t] == sum(per_pattern[i][t] for i in range(len(ps)))


def test_duel_agrees_with_chain_solver_on_random_triples():
    rng = random.Random(23)
    found = 0
    while found < 12:
        p = F(rng.randint(1, 4), 5)
        alphabet = Alphabet.coin(p)
        pats = []
        while len(pats) < 3:
            cand = tuple(rng.randint(0, 1) for _ in range(rng.randint(2, 4)))
            pats.append(Pattern(alphabet, cand))
        try:
            ps = PatternSet(alphabet, tuple(pats))
        except ValueError:
            continue
        sol = solve_duel(ps)
        stats = oracle_win_probs(ps)
        assert sol.win_probs == stats.win_probs
        assert sol.mean == stats.mean
        assert sol.variance == stats.variance
        found += 1


def count_derivatives(monkeypatch) -> list:
    calls = []
    derivative = RF.derivative

    def counted(self):
        calls.append(self)
        return derivative(self)

    monkeypatch.setattr(RF, "derivative", counted)
    return calls


def test_moments_share_one_derivative_chain(monkeypatch):
    calls = count_derivatives(monkeypatch)
    sol = solve_duel(pset("TTTHTTT", "TTHTTTTHT"))
    assert sol.win_probs == (F(62, 71), F(9, 71))
    assert len(calls) == 0  # win probabilities need no derivative

    sol.mean, sol.variance, sol.std, sol.skewness, sol.third_central_moment
    assert len(calls) == 0  # moments come from one expansion at z = 1
    assert "duration" not in vars(sol)  # and need no duration PGF


def test_first_passage_solution_matches_chain_solver():
    for alphabet, text in ((COIN, "HTH"), (Alphabet.coin(F(1, 3)), "HHTH"), (Alphabet.uniform("123"), "121")):
        ps = pset(text, alphabet=alphabet)
        f = first_passage_pgf(ps.patterns[0])
        sol = DuelSolution(ps, (f,))
        stats = oracle_win_probs(ps)
        assert sol.win_probs == (1,)
        assert sol.duration == f
        assert (sol.mean, sol.variance) == (stats.mean, stats.variance)


@st.composite
def races(draw):
    """2-3 valid patterns of length <= 4 over a biased alphabet of 2-4 symbols."""
    labels = "ABCD"[: draw(st.integers(2, 4))]
    weights = draw(st.lists(st.integers(1, 6), min_size=len(labels), max_size=len(labels)))
    alphabet = Alphabet(tuple(labels), tuple(F(w, sum(weights)) for w in weights))
    texts = draw(st.lists(st.text(labels, min_size=1, max_size=4), min_size=2, max_size=3))
    try:
        return PatternSet(alphabet, tuple(Pattern.parse(t, alphabet) for t in texts))
    except PatternSetError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(races())
def test_race_invariants_and_json_round_trip(ps):
    sol = solve_duel(ps)
    assert sum(sol.win_probs) == 1
    assert sol.duration.limit_at_one() == 1
    stats = oracle_win_probs(ps)
    assert (sol.mean, sol.variance) == (stats.mean, stats.variance)

    alphabet = ",".join(f"{s}:{p}" for s, p in zip(ps.alphabet.symbols, ps.alphabet.probs))
    argv = ["duel", "--alphabet", alphabet, "--patterns", ",".join(p.text for p in ps), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    results = json.loads(out.getvalue())["results"]
    assert tuple(F(w["exact"]) for w in results["win"]) == sol.win_probs
    assert F(results["duration"]["mean"]["exact"]) == sol.mean
    assert F(results["duration"]["variance"]["exact"]) == sol.variance
