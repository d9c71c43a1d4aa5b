"""Independent reference routes that the tests check the package against."""

from fractions import Fraction
from math import comb

from patdual.algebra import ExpansionError, Poly, RationalFunction, SingularMatrixError
from patdual.patterns import Pattern, overlap_string, string_probability
from patdual.pgf import first_passage_pgf


def gaussian_solve(matrix, rhs):
    """Solve A x = b over a field (Fraction or RationalFunction entries) by textbook Gaussian elimination.

    The pivot is the first nonzero entry of its column; SingularMatrixError names the first column that has none.
    """
    m = len(matrix)
    a = [[*row, b] for row, b in zip(matrix, rhs)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(col)
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, m):
            if a[r][col]:
                factor = a[r][col] / a[col][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    x = [None] * m
    for i in range(m - 1, -1, -1):
        acc = a[i][m]
        for j in range(i + 1, m):
            acc = acc - a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


def _taylor_at_one(coeffs, n):
    """Coefficients 0 .. n of p(1 + w); coefficient k is sum_j C(j, k) p_j."""
    return [sum((comb(j, k) * c for j, c in enumerate(coeffs)), Fraction(0)) for k in range(n + 1)]


def expansion_at_one(f, n):
    """Taylor coefficients d_0 .. d_n of f(1 + w), so d_k = f^(k)(1) / k!, by power-series division over Fractions.

    ExpansionError at a pole: the canonical form leaves no removable (z - 1) factor, so den(1) = 0 is a pole.
    """
    num, den = _taylor_at_one(f.num.coeffs, n), _taylor_at_one(f.den.coeffs, n)
    if den[0] == 0:
        raise ExpansionError("pole at z = 1: limit does not exist")
    d = []
    for k in range(n + 1):
        d.append((num[k] - sum(den[j] * d[k - j] for j in range(1, k + 1))) / den[0])
    return tuple(d)


def conditional_pgf(i, j):
    """PGF of trials to complete pattern i right after pattern j finished.

    The usable head start is the longest suffix of j that is a prefix of i, so the unconditional PGF of i
    factors through it: F_i = F(head) * F(i | j).
    """
    head = overlap_string(j, i)
    f_head = first_passage_pgf(Pattern(i.alphabet, head)) if head else RationalFunction.one()
    return first_passage_pgf(i) / f_head


def explicit_first_passage(symbols, alphabet):
    """Textbook form: P z^k / (P z^k + (1-z) sum_shifts P(tail) z^(k-shift)), from string probabilities alone."""
    k = len(symbols)
    lead = Poly.monomial(k, string_probability(symbols, alphabet))
    acc = Poly.zero()
    for i in range(1, k + 1):
        if symbols[k - i :] == symbols[:i]:
            acc += Poly.monomial(k - i, string_probability(symbols[i:], alphabet))
    return RationalFunction(lead, lead + Poly((1, -1)) * acc)
