import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patdual.algebra import (
    Poly,
    RationalFunction,
    SingularMatrixError,
    poly_gcd,
    solve_linear_system,
)

RF = RationalFunction
ONE_MINUS_Z = Poly((1, -1))
Z = Poly((0, 1))


def test_fraction_arithmetic_examples():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert F(2, 4) == F(1, 2)
    assert F(2, 4).numerator == 1 and F(2, 4).denominator == 2
    # string probability of a 9-symbol pattern with 2 heads at p = 1/2
    assert F(1, 2) ** 2 * F(1, 2) ** 7 == F(1, 512)
    with pytest.raises(ZeroDivisionError):
        F(1, 2) / F(0)


def test_poly_construction_and_arithmetic():
    assert Poly((1, 0, 0)) == Poly((1,))
    assert Poly(()).is_zero
    assert Poly(()).degree == float("-inf")
    assert Poly((0, 1)).degree == 1
    assert ONE_MINUS_Z * Poly((1, 1)) == Poly((1, 0, -1))
    assert Poly((1, 2)) - Poly((1, 2)) == Poly(())
    assert Poly((1, 1))(F(1, 2)) == F(3, 2)


def test_poly_divmod_is_exact():
    a = Poly((2, 0, 3, 1))
    b = Poly((1, 1))
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_poly_gcd_examples():
    assert poly_gcd(Poly((-1, 0, 1)), Poly((-1, 1))) == Poly((-1, 1))
    assert poly_gcd(Poly((-1, 1)), Poly((1, 1))) == Poly.one()
    assert poly_gcd(Poly(()), Poly(())) == Poly(())
    # result is monic regardless of input scaling
    g = poly_gcd(Poly((-2, 0, 2)), Poly((3, -3)))
    assert g == Poly((-1, 1))


def test_rf_canonical_form_examples():
    geometric = RF(Poly.one(), ONE_MINUS_Z)
    assert geometric - RF.one() == RF(Z, ONE_MINUS_Z)
    a = RF(Poly((1, 2, 3)), Poly((4, 5)))
    assert a / a == RF.one()
    # (1/2)z / (1 - z/2) normalizes to monic denominator z - 2
    f = RF(Poly((0, F(1, 2))), Poly((1, F(-1, 2))))
    assert f.num == Poly((0, -1))
    assert f.den == Poly((-2, 1))


def test_rf_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RF(Poly.one(), Poly(()))
    with pytest.raises(ZeroDivisionError):
        RF.one() / RF.zero()


frac = st.fractions(min_value=-3, max_value=3, max_denominator=5)
poly = st.lists(frac, max_size=5).map(Poly)
nonzero_poly = poly.filter(lambda p: not p.is_zero)


@settings(max_examples=60, deadline=None)
@given(a=poly, b=nonzero_poly, g=nonzero_poly)
def test_rf_canonical_form_ignores_common_factors(a, b, g):
    assert RF(a * g, b * g) == RF(a, b)


def test_series_examples():
    f = RF(Poly((0, F(1, 2))), Poly((1, F(-1, 2))))
    assert f.series(3) == (F(0), F(1, 2), F(1, 4), F(1, 8))
    assert RF.one().series(2) == (F(1), F(0), F(0))
    with pytest.raises(ValueError):
        RF(Poly.one(), Z).series(3)


def test_series_of_explicit_length9_first_passage_pgf():
    # F = P z^9 / (P z^9 + (1-z)(p^2 q^6 z^8 + p q^4 z^5 + 1)) at p = q = 1/2;
    # the coefficient of z^18 is 493/262144 (hand-checked against the
    # closed form p^2 q^7 (1 - p q^4 - p^2 q^6 - p^2 q^7)).
    p = q = F(1, 2)
    lead = Poly.monomial(9, p**2 * q**7)
    overlap = Poly.monomial(8, p**2 * q**6) + Poly.monomial(5, p * q**4) + Poly.one()
    f = RF(lead, lead + ONE_MINUS_Z * overlap)
    assert f.series(18)[18] == F(493, 262144)


@settings(max_examples=40, deadline=None)
@given(num=poly, den=nonzero_poly.filter(lambda p: p.coeffs[0] != 0))
def test_series_round_trips_through_denominator_convolution(num, den):
    f = RF(num, den)
    n = 8
    series = f.series(n)
    d = f.den.coeffs
    a = f.num.coeffs
    for i in range(n + 1):
        conv = sum(d[j] * series[i - j] for j in range(min(i, len(d) - 1) + 1))
        expected = a[i] if i < len(a) else F(0)
        assert conv == expected


def test_derivative_examples():
    assert RF(Poly((0, 0, 1))).derivative() == RF(Poly((0, 2)))
    assert RF(Poly.one(), ONE_MINUS_Z).derivative() == RF(Poly.one(), ONE_MINUS_Z * ONE_MINUS_Z)
    f = RF(Poly((0, F(1, 2))), Poly((1, F(-1, 2))))
    assert f.derivative().limit_at_one() == 2


def test_derivative_matches_independent_quotient_rule_at_points():
    rng = random.Random(7)
    f = RF(Poly((1, -2, 0, 3)), Poly((2, 1, 1)))
    g = f.derivative()

    def poly_value_and_slope(p, x):
        val = sum(c * x**i for i, c in enumerate(p.coeffs))
        slope = sum(i * c * x ** (i - 1) for i, c in enumerate(p.coeffs) if i >= 1)
        return val, slope

    checked = 0
    while checked < 20:
        x = F(rng.randint(-30, 30), rng.randint(1, 30))
        nv, ns = poly_value_and_slope(f.num, x)
        dv, ds = poly_value_and_slope(f.den, x)
        if dv == 0 or g.den(x) == 0:
            continue
        assert g(x) == (ns * dv - nv * ds) / (dv * dv)
        checked += 1


def test_limit_at_one_examples():
    assert RF(Z).limit_at_one() == 1
    assert RF(Poly((1, 0, -1)), ONE_MINUS_Z).limit_at_one() == 2
    with pytest.raises(ValueError):
        RF(Poly.one(), ONE_MINUS_Z).limit_at_one()


def test_limit_agrees_with_evaluation_when_no_pole():
    rng = random.Random(11)
    for _ in range(25):
        num = Poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))])
        den = Poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))])
        if den.is_zero:
            continue
        f = RF(num, den)
        if f.den(1) != 0:
            assert f.limit_at_one() == f(1)


@settings(max_examples=60, deadline=None)
@given(num=poly, den=nonzero_poly)
def test_expansion_at_one_matches_derivatives(num, den):
    f = RF(num, den)
    assume(f.den(1) != 0)
    f1 = f.derivative()
    f2 = f1.derivative()
    f3 = f2.derivative()
    assert f.expansion_at_one(3) == (f(1), f1(1), f2(1) / 2, f3(1) / 6)
    if f(1) != 0:
        pole = RF(f.num, f.den * ONE_MINUS_Z)
        with pytest.raises(ValueError):
            pole.expansion_at_one(3)
        with pytest.raises(ValueError):
            pole.limit_at_one()


def test_solve_identity_and_diagonal():
    one, zero = F(1), F(0)
    b = [F(3, 7), F(-2)]
    assert solve_linear_system([[one, zero], [zero, one]], b) == b
    assert solve_linear_system([[F(2), zero], [zero, F(4)]], [one, one]) == [F(1, 2), F(1, 4)]


def test_solve_reports_first_singular_column():
    with pytest.raises(SingularMatrixError) as exc:
        solve_linear_system([[F(0), F(1)], [F(0), F(2)]], [F(1), F(1)])
    assert exc.value.column == 0


def test_solve_over_rational_function_field():
    one = RF.one()
    z = RF(Z)
    x = solve_linear_system([[z, one], [one, z]], [one, one])
    # by symmetry both components are 1/(z+1)
    assert x[0] == x[1] == RF(Poly.one(), Poly((1, 1)))


def test_solve_random_rational_systems_by_residual():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.randint(1, 4)
        a = [[F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m)] for _ in range(m)]
        b = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m)]
        try:
            x = solve_linear_system(a, b)
        except SingularMatrixError:
            continue
        for i in range(m):
            assert sum(a[i][j] * x[j] for j in range(m)) == b[i]
