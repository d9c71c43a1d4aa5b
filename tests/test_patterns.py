import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patdual.patterns import (
    Alphabet,
    ParseError,
    Pattern,
    PatternSet,
    PatternSetError,
    correlation_set,
    max_overlap,
    overlap_string,
    parse_alphabet,
    string_probability,
)

COIN = Alphabet.coin(F(1, 2))


def pat(text, alphabet=COIN):
    return Pattern.parse(text, alphabet)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(("H",), (F(1),))
    with pytest.raises(ValueError):
        Alphabet(("H", "T"), (F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        Alphabet(("H", "H"), (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        Alphabet(("H", "T"), (F(0), F(1)))
    die = Alphabet.uniform("123456")
    assert die.probs == (F(1, 6),) * 6
    assert len(die) == 6


def test_string_probability_examples():
    biased = Alphabet.coin(F(1, 3))
    w = Pattern.parse("TTHTTTTHT", biased)
    assert w.probability == F(1, 3) ** 2 * F(2, 3) ** 7 == F(128, 19683)
    assert string_probability((), biased) == 1
    die = Alphabet.uniform("123456")
    assert Pattern.parse("123", die).probability == F(1, 216)
    with pytest.raises(ValueError):
        string_probability((9,), biased)


def test_string_probability_is_multiplicative_over_concatenation():
    rng = random.Random(5)
    biased = Alphabet.coin(F(2, 5))
    for _ in range(30):
        a = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
        b = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
        assert string_probability(a + b, biased) == string_probability(a, biased) * string_probability(b, biased)


def test_overlap_operator_examples():
    s = pat("TTTHTTT")
    w = pat("TTHTTTTHT")
    assert correlation_set(s, w) == (1, 2, 6)
    assert correlation_set(w, s) == (1, 5)
    assert correlation_set(s, s) == (1, 2, 3, 7)
    assert correlation_set(w, w) == (1, 4, 9)
    assert correlation_set(pat("HH"), pat("TT")) == ()

    assert max_overlap(s, w) == 6
    assert max_overlap(w, s) == 5
    assert max_overlap(pat("HH"), pat("TT")) == 0

    assert overlap_string(s, w) == pat("TTHTTT").symbols
    assert overlap_string(w, s) == pat("TTTHT").symbols
    assert overlap_string(pat("HH"), pat("TT")) == ()


def test_self_overlap_is_full_length():
    for text in ("H", "HT", "TTHTTTTHT", "HHHH"):
        p = pat(text)
        shifts = correlation_set(p, p)
        assert shifts[-1] == len(p)
        assert max_overlap(p, p) == len(p)
        assert overlap_string(p, p) == p.symbols


def test_mixed_alphabets_rejected():
    other = Alphabet.coin(F(1, 3))
    with pytest.raises(ValueError):
        correlation_set(pat("H"), Pattern.parse("H", other))


def scan_shifts(s, w):
    # independent double loop comparing every suffix/prefix pair
    found = []
    for i in range(1, min(len(s), len(w)) + 1):
        if all(s[len(s) - i + a] == w[a] for a in range(i)):
            found.append(i)
    return tuple(found)


@settings(max_examples=150, deadline=None)
@given(
    s=st.lists(st.integers(0, 1), min_size=1, max_size=9),
    w=st.lists(st.integers(0, 1), min_size=1, max_size=9),
)
def test_correlation_set_matches_brute_force_scan(s, w):
    ps, pw = Pattern(COIN, tuple(s)), Pattern(COIN, tuple(w))
    assert correlation_set(ps, pw) == scan_shifts(s, w)


def test_overlap_string_is_maximal_shared_suffix_prefix():
    rng = random.Random(13)
    for _ in range(200):
        s = Pattern(COIN, tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8))))
        w = Pattern(COIN, tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8))))
        k = max_overlap(s, w)
        ov = overlap_string(s, w)
        assert len(ov) == k
        assert ov == w.symbols[:k] == (s.symbols[len(s) - k:] if k else ())
        for longer in range(k + 1, min(len(s), len(w)) + 1):
            assert s.symbols[len(s) - longer:] != w.symbols[:longer]


def test_pattern_parse_forms_and_errors():
    assert pat("TTHT").symbols == (1, 1, 0, 1)
    assert pat("H,T").symbols == (0, 1)
    with pytest.raises(ParseError):
        pat("TTXT")
    with pytest.raises(ParseError):
        pat("")
    wide = Alphabet(("10", "20"), (F(1, 2), F(1, 2)))
    assert Pattern.parse("10,20,10", wide).symbols == (0, 1, 0)
    assert Pattern.parse("10,20,10", wide).text == "10,20,10"
    with pytest.raises(ParseError):
        Pattern.parse("1020", wide)


def test_pattern_set_validation():
    assert len(PatternSet(COIN, (pat("HH"), pat("TH")))) == 2
    assert len(PatternSet(COIN, (pat("TTTHTTT"), pat("TTHTTTTHT")))) == 2
    assert len(PatternSet(COIN, (pat("HHH"),))) == 1

    with pytest.raises(PatternSetError, match="pattern 1 .* substring of pattern 2"):
        PatternSet(COIN, (pat("H"), pat("TH")))
    with pytest.raises(PatternSetError, match="duplicate"):
        PatternSet(COIN, (pat("HT"), pat("HT")))
    with pytest.raises(PatternSetError, match="different alphabet"):
        PatternSet(COIN, (pat("HH"), Pattern.parse("TT", Alphabet.coin(F(1, 3)))))
    with pytest.raises(PatternSetError):
        PatternSet(COIN, ())

    pats = [pat("HH"), pat("TT")]
    ps = PatternSet(pats[0].alphabet, tuple(pats))
    assert ps.alphabet == COIN


def test_parse_alphabet():
    a = parse_alphabet("H:1/2,T:1/2")
    assert a == COIN
    a = parse_alphabet("1:1/6,2:1/6,3:1/6,4:1/6,5:1/6,6:1/6")
    assert a == Alphabet.uniform("123456")

    with pytest.raises(ParseError):
        parse_alphabet("H:0.5,T:0.5")  # decimals are not exact literals
    with pytest.raises(ParseError):
        parse_alphabet("H:1/2")  # needs at least two symbols
    with pytest.raises(ParseError):
        parse_alphabet("H:1/2,T:1/3")  # does not sum to 1
    with pytest.raises(ParseError):
        parse_alphabet("H=1/2,T=1/2")
    try:
        parse_alphabet("H:x/2,T:1/2")
    except ParseError as exc:
        assert "position" in str(exc)
