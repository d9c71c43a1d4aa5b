import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import patdual.algebra as algebra
import patdual.pgf as pgf
from patdual.algebra import Poly, RationalFunction, SingularMatrixError
from patdual.cli import main
from patdual.oracle import oracle_duration, oracle_first_passage, oracle_win_probs
from patdual.patterns import (
    Alphabet,
    Pattern,
    PatternSet,
    PatternSetError,
    overlap_string,
)
from patdual.pgf import (
    DuelSolution,
    build_duel_matrix,
    first_passage_pgf,
    solve_duel,
)
from reference import conditional_pgf, expansion_at_one, explicit_first_passage, gaussian_solve

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


def sequence_probability(seq, alphabet):
    prob = F(1)
    for c in seq:
        prob *= alphabet.probs[c]
    return prob


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


@st.composite
def single_patterns(draw):
    """One pattern of 1-12 symbols over a biased alphabet of 2-4 symbols."""
    labels = "ABCD"[: draw(st.integers(2, 4))]
    weights = draw(st.lists(st.integers(1, 6), min_size=len(labels), max_size=len(labels)))
    alphabet = Alphabet(tuple(labels), tuple(F(w, sum(weights)) for w in weights))
    return Pattern.parse(draw(st.text(labels, min_size=1, max_size=12)), alphabet)


@settings(max_examples=100, deadline=None)
@given(single_patterns())
def test_first_passage_pgf_matches_the_textbook_form(pattern):
    assert first_passage_pgf(pattern) == explicit_first_passage(pattern.symbols, pattern.alphabet)


def test_first_passage_pgf_of_a_long_pattern_matches_the_textbook_form():
    alphabet = Alphabet(("A", "B", "C"), (F(1, 7), F(2, 11), F(52, 77)))
    pattern = Pattern.parse("ABCAB" * 60, alphabet)  # 300 symbols that overlap themselves at 61 shifts
    assert first_passage_pgf(pattern) == explicit_first_passage(pattern.symbols, alphabet)


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


def test_std_and_skewness_below_the_float_range():
    p = F(1, 10**400)  # T opens the game with probability p, else the race ends at trial 2
    sol = solve_duel(pset("HH", "T", alphabet=Alphabet.coin(1 - p)))
    assert sol.variance == p * (1 - p)
    assert abs(F(sol.std) ** 2 / sol.variance - 1) < F(1, 10**15)
    # the duration is 2 - Bernoulli(p), so its skewness is -(1 - 2p) / sqrt(p (1 - p)), about -10^200
    assert sol.skewness < 0 and abs(F(sol.skewness) ** 2 * p * (1 - p) / (1 - 2 * p) ** 2 - 1) < F(1, 10**15)


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
    assert sol.duration == explicit_first_passage(pat("HH").symbols, COIN)
    assert sol.mean == 6


def test_duration_is_sum_of_win_generating_functions(monkeypatch):
    solves, solve = [], pgf.solve_polynomial_system
    monkeypatch.setattr(pgf, "solve_polynomial_system", lambda matrix, rhs: solves.append(rhs) or solve(matrix, rhs))
    sol = solve_duel(pset("HH", "TH"))
    duration = sol.duration
    assert "x" not in vars(sol)  # x is built only when read
    assert duration == sol.x[0] + sol.x[1]
    assert "x" in vars(sol) and len(solves) == 1  # and from the same solve


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
        assert list(oracle_duration(ps, n)) == [sum(wins[t] for wins in expected) for t in range(n + 1)]


@st.composite
def recurrence_races(draw):
    """1-5 patterns of length 1-8 over the fair coin, the 1/3 coin, a k/101 coin, or three symbols
    A: a/p and B: b/q, p and q distinct primes, with C the rest, over pq."""
    kind = draw(st.sampled_from(["fair", "third", "k/101", "three"]))
    if kind == "fair":
        alphabet = COIN
    elif kind == "third":
        alphabet = Alphabet.coin(F(1, 3))
    elif kind == "k/101":
        alphabet = Alphabet.coin(F(draw(st.integers(1, 100)), 101))
    else:
        p, q = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 101]), min_size=2, max_size=2, unique=True))
        a, b = draw(st.integers(1, p - 1)), draw(st.integers(1, q - 1))
        assume(F(a, p) + F(b, q) < 1)
        alphabet = Alphabet(("A", "B", "C"), (F(a, p), F(b, q), 1 - F(a, p) - F(b, q)))
    labels = "".join(alphabet.symbols)
    texts = draw(st.lists(st.text(labels, min_size=1, max_size=8), min_size=1, max_size=5))
    try:
        return PatternSet(alphabet, tuple(Pattern.parse(t, alphabet) for t in texts))
    except PatternSetError:
        assume(False)


# q = 9, but the patterns use only the symbols at 1/3, so the recurrence scales by d = 3
NINTHS = Alphabet(("A", "B", "C", "D"), (F(1, 3), F(1, 3), F(2, 9), F(1, 9)))


@settings(max_examples=150, deadline=None)
@given(recurrence_races(), st.integers(0, 60))
@example(pset("HHHHHHHH", "THTT"), 60)  # HHHHHHHH overlaps itself at every shift
@example(pset("AAB", "BBA", "ABAB", alphabet=NINTHS), 60)
@example(pset("HTHHTHTT"), 60)  # one pattern: its waiting time
@example(pset("HTHHT", "TTH", alphabet=Alphabet.coin(F(7, 101))), 60)  # d = 101, an odd prime
@example(pset("HTH", "THHT", alphabet=Alphabet.coin(F(1, 10**20 + 1))), 60)  # d = 10^20 + 1, odd and composite
@example(pset("HH", "THT"), 0)
@example(pset("H", alphabet=Alphabet.coin(F(1, 3))), 1)
def test_duration_series_by_recurrence_matches_the_pgf_and_the_occupancy_dp(ps, n):
    sol = DuelSolution(ps)
    assert sol.duration_series(n) == sol.duration.series(n) == oracle_duration(ps, n)


@st.composite
def over_powers(draw):
    """x, d and t with 0 <= x <= d^t; x is often 0, d^t, a multiple of o^t, or has more than a t trailing zeros,
    where d = 2^a o with o odd."""
    d = draw(st.one_of(st.builds(lambda i: 2**i, st.integers(0, 8)), st.sampled_from([101, 6, 10, 45, 10**50 + 1]),
                       st.builds(lambda i, j: 2**i * 3**j, st.integers(0, 6), st.integers(0, 6))))
    t = draw(st.integers(0, 80))
    a = (d & -d).bit_length() - 1
    o_t = (d >> a) ** t
    x = draw(st.one_of(st.just(0), st.just(d**t), st.integers(0, 2 ** (a * t)).map(lambda k: k * o_t),
                       st.integers(0, o_t // 2).map(lambda k: k << (a * t + 1)), st.integers(0, d**t)))
    return x, d, t


@settings(max_examples=300, deadline=None)
@given(over_powers())
def test_a_series_term_reduced_by_the_primes_of_d_is_the_fraction(xdt):
    x, d, t = xdt
    a = (d & -d).bit_length() - 1
    reduced, fraction = pgf._over_power(x, a * t, d >> a, (d >> a) ** t), F(x, d**t)
    assert type(reduced) is F
    assert (reduced, reduced.numerator, reduced.denominator, hash(reduced)) == (
        fraction, fraction.numerator, fraction.denominator, hash(fraction))
    # _over_power sets these two slots itself: a Fraction laid out otherwise must fail here, not print wrong fractions
    assert F.__slots__ == ("_numerator", "_denominator")


def test_duration_series_with_a_negative_term_is_refused():
    sol = DuelSolution(pset("HH", "TH"))
    weights, shifts = sol._table[0]
    sol._table[0] = (weights, [shifts[0], ()])  # as if TH never overlapped into HH: HH wins too often
    with pytest.raises(ArithmeticError, match="negative term"):
        sol.duration_series(6)
    with pytest.raises(ValueError, match="series length"):
        sol.duration_series(-1)


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
    assert len(calls) == 0  # moments come from integer solves with N(1)
    assert "_polynomials" not in vars(sol)  # and need no duration PGF


def test_first_passage_solution_matches_chain_solver():
    for alphabet, text in ((COIN, "HTH"), (Alphabet.coin(F(1, 3)), "HHTH"), (Alphabet.uniform("123"), "121")):
        ps = pset(text, alphabet=alphabet)
        f = explicit_first_passage(ps.patterns[0].symbols, alphabet)
        sol = DuelSolution(ps)
        stats = oracle_win_probs(ps)
        assert sol.win_probs == (1,)
        assert sol.duration == f
        assert (sol.mean, sol.variance) == (stats.mean, stats.variance)


@st.composite
def races(draw, patterns=(2, 3), max_length=4):
    """Valid pattern sets, sized within `patterns`, over a biased alphabet of 2-4 symbols."""
    labels = "ABCD"[: draw(st.integers(2, 4))]
    weights = draw(st.lists(st.integers(1, 6), min_size=len(labels), max_size=len(labels)))
    alphabet = Alphabet(tuple(labels), tuple(F(w, sum(weights)) for w in weights))
    texts = draw(st.lists(st.text(labels, min_size=1, max_size=max_length), min_size=patterns[0], max_size=patterns[1]))
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


@settings(max_examples=60, deadline=None)
@given(races(patterns=(1, 4), max_length=5))
def test_correlation_route_matches_rational_function_route(ps):
    x = gaussian_solve(build_duel_matrix(ps), [RF.one()] * len(ps))
    d = [sum(c) for c in zip(*(expansion_at_one(xi, 3) for xi in x))]  # E[C(T, k)], k = 0..3
    mean, raw_second, raw_third = d[1], 2 * d[2] + d[1], 6 * d[3] + 6 * d[2] + d[1]
    sol = solve_duel(ps)
    assert sol.x == tuple(x)
    assert sol.duration == sum(x[1:], x[0])
    assert sol.win_probs == tuple(xi.limit_at_one() for xi in x)
    assert sol.mean == mean
    assert sol.variance == raw_second - mean**2
    assert sol.third_central_moment == raw_third - 3 * mean * raw_second + 2 * mean**3


def record_eliminations(monkeypatch) -> tuple[list, list]:
    """The rows of every Bareiss elimination pgf runs, and (elimination, rhs) of every replay anywhere."""
    eliminations, replays, bareiss, replay = [], [], pgf._bareiss, algebra._Elimination.replay
    monkeypatch.setattr(pgf, "_bareiss", lambda rows: eliminations.append(rows) or bareiss(rows))
    monkeypatch.setattr(
        algebra._Elimination, "replay", lambda self, rhs: replays.append((self, rhs)) or replay(self, rhs)
    )
    monkeypatch.setattr(pgf, "solve_linear_system", lambda *args: pytest.fail("a race system solved over Fractions"))
    return eliminations, replays


def test_win_probabilities_alone_cost_one_integer_solve(monkeypatch):
    eliminations, replays = record_eliminations(monkeypatch)
    built, correlation = [], DuelSolution._correlation
    monkeypatch.setattr(DuelSolution, "_correlation", lambda self, t: built.append(t) or correlation(self, t))
    sol = solve_duel(pset("TTTHTTT", "TTHTTTTHT", "HTHH"))
    assert sol.win_probs and len(eliminations) == 1 and len(replays) == 1 and built == []  # N_1, N_2 wait
    # N_0 is built once, as the rows of the one elimination: [s_i N_0 | s_i], all integers
    assert [row[:-1] for row in eliminations[0]] == correlation(sol, 0)
    assert all(type(v) is int for row in eliminations[0] for v in row)
    sol.mean, sol.variance, sol.third_central_moment
    # u_1 and u_2 replay N(1)'s one elimination, each verified; u_3 is never needed
    kept = sol._u0[2]
    assert len(eliminations) == 1 and [self for self, _ in replays] == [kept] * 3
    assert all(type(v) is int for _, rhs in replays for v in rhs)
    sol.x
    assert len(eliminations) == 1 and built == [1, 2]  # each N_t built once, and x and D need none of them


def test_singular_race_system_names_the_patterns(monkeypatch):
    def singular(rows):
        raise SingularMatrixError(1)

    monkeypatch.setattr(pgf, "_bareiss", singular)
    monkeypatch.setattr(pgf, "solve_linear_system", lambda *args: pytest.fail("a race system solved over Fractions"))
    with pytest.raises(SingularMatrixError, match="singular for patterns HH, TH") as exc:
        solve_duel(pset("HH", "TH"))
    assert exc.value.column == 1


def test_race_of_every_coin_string_of_length_5_eliminates_once(monkeypatch):
    eliminations, replays = record_eliminations(monkeypatch)
    ps = PatternSet(COIN, tuple(Pattern(COIN, s) for s in itertools.product(range(2), repeat=5)))
    sol = solve_duel(ps)
    assert (sol.win_probs, sol.mean, sol.variance) == tuple(oracle_win_probs(ps))
    assert [len(rows) for rows in eliminations] == [32]
    assert sum(self is sol._u0[2] for self, _ in replays) == 3


@st.composite
def awkward_races(draw):
    """Races whose row scales are large: a coin with a prime denominator, or three symbols
    with two coprime denominators (A: a/p, B: b/q, C: the rest, over pq)."""
    if draw(st.booleans()):
        heads = draw(st.sampled_from([1, 2, 50, 99, 100]))
        alphabet = Alphabet(("A", "B"), (F(heads, 101), F(101 - heads, 101)))
    else:
        p, q = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 101]), min_size=2, max_size=2, unique=True))
        a, b = draw(st.integers(1, p - 1)), draw(st.integers(1, q - 1))
        assume(F(a, p) + F(b, q) < 1)
        alphabet = Alphabet(("A", "B", "C"), (F(a, p), F(b, q), 1 - F(a, p) - F(b, q)))
    labels = "".join(alphabet.symbols)
    texts = draw(st.lists(st.text(labels, min_size=1, max_size=5), min_size=1, max_size=5))
    try:
        return PatternSet(alphabet, tuple(Pattern.parse(t, alphabet) for t in texts))
    except PatternSetError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(awkward_races())
def test_integer_route_matches_the_chain_on_awkward_row_scales(ps):
    sol = DuelSolution(ps)
    stats = oracle_win_probs(ps)
    assert (sol.win_probs, sol.mean, sol.variance) == (stats.win_probs, stats.mean, stats.variance)
    d = expansion_at_one(sol.duration, 3)  # from the polynomial solve, not from N(1)
    assert sol.third_central_moment == 6 * d[3] + 6 * d[2] + d[1] - 3 * d[1] * (2 * d[2] + d[1]) + 2 * d[1] ** 3
    assert sol.duration.series(12) == oracle_duration(ps, 12)  # the occupancy DP does not read the table
    if len(ps) <= 3:
        assert sol.x == tuple(gaussian_solve(build_duel_matrix(ps), [RF.one()] * len(ps)))

    first = PatternSet(ps.alphabet, ps.patterns[:1])
    one = DuelSolution(first)  # a 1 x 1 N(1), and a 1 x 1 polynomial solve for the PGF
    stats = oracle_win_probs(first)
    assert (one.mean, one.variance) == (stats.mean, stats.variance)
    assert one.duration == explicit_first_passage(first.patterns[0].symbols, ps.alphabet)


def test_race_answers_build_no_rational_function(monkeypatch):
    builds = []
    init = RF.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(RF, "__init__", counted)
    sol = solve_duel(pset("TTTHTTT", "TTHTTTTHT", "HTHH"))
    sol.win_probs, sol.mean, sol.variance, sol.third_central_moment
    assert builds == []
    assert "_polynomials" not in vars(sol)


def test_x_that_disagrees_with_the_win_probabilities_is_refused(monkeypatch):
    sol = solve_duel(pset("HH", "TH"))
    solve = pgf.solve_polynomial_system

    def reversed_y(matrix, rhs):  # so x comes out in the other pattern order
        y, det = solve(matrix, rhs)
        return y[::-1], det

    monkeypatch.setattr(pgf, "solve_polynomial_system", reversed_y)
    with pytest.raises(ArithmeticError, match="disagree"):
        sol.x
    with pytest.raises(ArithmeticError, match="disagree"):  # D is unchanged by the reversal, but guarded too
        solve_duel(pset("HH", "TH")).duration


@st.composite
def responses(draw):
    """An alphabet of 2-4 symbols with large row scales (k/101, or a/p, b/q, ... with the rest over their
    product), an opponent, and the candidates of length <= 6 that may race it."""
    n = draw(st.integers(2, 4))
    if n == 2:
        heads = draw(st.integers(1, 100))
        probs = [F(heads, 101), F(101 - heads, 101)]
    else:  # each of the first n - 1 weights is at most 1/n, so the rest is positive
        primes = draw(st.lists(st.sampled_from([5, 7, 11, 13, 101]), min_size=n - 1, max_size=n - 1, unique=True))
        probs = [F(draw(st.integers(1, p // n)), p) for p in primes]
        probs.append(1 - sum(probs))
    alphabet = Alphabet(tuple("ABCD"[:n]), tuple(probs))
    words = st.lists(st.integers(0, n - 1), min_size=1, max_size=6).map(tuple)
    opponent = draw(words)
    candidates = []
    for symbols in draw(st.lists(words, min_size=1, max_size=8)):
        try:
            PatternSet(alphabet, (Pattern(alphabet, symbols), Pattern(alphabet, opponent)))
        except PatternSetError:
            continue
        candidates.append(symbols)
    return alphabet, opponent, candidates


@settings(max_examples=100, deadline=None)
@given(responses())
def test_response_wins_equal_the_race_solution(race):
    alphabet, opponent, candidates = race
    wins = list(pgf._response_wins(alphabet, opponent, candidates))
    assert len(wins) == len(candidates)
    q = math.lcm(*(p.denominator for p in alphabet.probs))
    for symbols, win in zip(candidates, wins):
        ps = PatternSet(alphabet, (Pattern(alphabet, symbols), Pattern(alphabet, opponent)))
        assert win == solve_duel(ps).win_probs[0]
        # the bound best-response's digit budget takes: u_A and u_A + u_B are at most 2 L q^L
        total = len(symbols) + len(opponent)
        assert win.denominator <= 2 * total * q**total


def test_best_response_reads_each_candidate_off_conways_rule_without_elimination(monkeypatch, capsys):
    eliminations, replays = record_eliminations(monkeypatch)
    monkeypatch.setattr(algebra, "_bareiss", lambda *args: pytest.fail("a candidate went through an elimination"))
    weights, built = [], pgf._weights
    monkeypatch.setattr(pgf, "_weights", lambda symbols, *args: weights.append(symbols) or built(symbols, *args))

    def forbidden(*args):
        raise AssertionError("a candidate went through PatternSet, DuelSolution or solve_duel")

    monkeypatch.setattr(PatternSet, "__post_init__", forbidden)
    monkeypatch.setattr(DuelSolution, "__init__", forbidden)
    monkeypatch.setattr(pgf, "solve_duel", forbidden)
    monkeypatch.setattr("patdual.cli.solve_duel", forbidden)
    assert main(["best-response", "--alphabet", "A:1/7,B:2/7,C:4/7", "--patterns", "ABA", "--length", "3",
                 "--format", "json"]) == 0
    ranked = json.loads(capsys.readouterr().out)["results"]["candidates"]
    assert len(ranked) == 26  # ABA itself is skipped
    assert eliminations == [] and replays == []  # no Bareiss elimination and no replay: a closed form each
    assert weights.count((0, 1, 0)) == 1 and len(weights) == len(ranked) + 1  # the opponent's weights once


def test_a_race_with_a_win_that_is_not_positive_is_refused(monkeypatch):
    bareiss, weights = pgf._bareiss, pgf._weights

    def skewed(rows):  # a verified-looking solve whose first pattern never wins
        y, d, kept = bareiss(rows)
        return [-y[0], *y[1:]], d, kept

    monkeypatch.setattr(pgf, "_bareiss", skewed)
    with pytest.raises(ArithmeticError, match="not all positive"):
        solve_duel(pset("HH", "TH"))
    # TH against HH, both of weights 1, 2, 4: n_AA = 4, n_AB = 0, n_BA = 2, n_BB = 6; a = 6, b = 2, det = 24
    def wins(candidate, opponent=lambda w: w):  # with TH's weights and HH's transformed
        transform = {(1, 0): candidate, (0, 0): opponent}
        monkeypatch.setattr(pgf, "_weights", lambda symbols, *args: transform[symbols](weights(symbols, *args)))
        return list(pgf._response_wins(COIN, (0, 0), [(1, 0)]))

    negate_s, negate_n = (lambda w: [-w[0], *w[1:]]), (lambda w: [w[0], *(-v for v in w[1:])])
    for skew in (
        (negate_s,),  # a = -6, b = 6, det = 24
        (negate_n,),  # n_AA = -4: a = 6, b = -6, det = -24
        (negate_n, negate_s),  # and s_B = -1: a = 6, b = 2, det = -24, so u_A, u_B < 0 though a / (a + b) = 3/4
    ):
        with pytest.raises(ArithmeticError, match="not all positive"):
            wins(*skew)
    # every weight of TH negated negates a, b and det alike (-6, -2, -24): u_A and u_B stand, and so does 3/4
    assert wins(lambda w: [-v for v in w]) == [F(3, 4)]
