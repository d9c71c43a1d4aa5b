"""Exact univariate polynomial and rational-function arithmetic over Q.

A polynomial is a dense tuple of Fraction coefficients indexed by the power
of the formal variable z, with trailing zeros trimmed; the zero polynomial
is the empty tuple.  A rational function is a pair of polynomials kept in
canonical form: the polynomial gcd of numerator and denominator is removed
and the denominator is made monic, so structural equality is mathematical
equality.

No floating point is used anywhere in this module.  Power-series prefixes,
about z = 0 or about z = 1, are extracted from rational functions through
the linear recurrence imposed by the denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence, TypeVar

__all__ = [
    "Poly",
    "RationalFunction",
    "SeriesPrefix",
    "SingularMatrixError",
    "poly_gcd",
    "solve_linear_system",
]

# Coefficients c_0 .. c_n of a power-series prefix.
SeriesPrefix = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SingularMatrixError(ArithmeticError):
    """Raised when Gaussian elimination finds no usable pivot.

    `column` is the first column in which no nonzero pivot exists.
    """

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"singular matrix: no nonzero pivot in column {column}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational coefficient, got {type(value).__name__}")


class Poly:
    """Dense polynomial in one formal variable with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((_ONE,))

    @classmethod
    def constant(cls, c: Fraction | int) -> Poly:
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff: Fraction | int = 1) -> Poly:
        if power < 0:
            raise ValueError("power must be >= 0")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (Fraction, int)):
            return self.scale(_as_fraction(other))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c: Fraction) -> Poly:
        if c == 0:
            return Poly(())
        return Poly(tuple(c * x for x in self.coeffs))

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Exact long division: self = q * other + r with deg r < deg other."""
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.coeffs
        dn = len(d)
        lead = d[-1]
        if len(rem) < dn:
            return Poly(()), Poly(rem)
        quot = [_ZERO] * (len(rem) - dn + 1)
        for i in range(len(rem) - dn, -1, -1):
            c = rem[i + dn - 1] / lead
            if c == 0:
                continue
            quot[i] = c
            for j in range(dn):
                rem[i + j] -= c * d[j]
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def monic(self) -> Poly:
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def derivative(self) -> Poly:
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __call__(self, point: Fraction | int) -> Fraction:
        """Evaluate at a rational point by Horner's rule."""
        x = _as_fraction(point)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) is the zero polynomial.

    Each remainder is normalized to monic form, which keeps coefficient
    growth in check without fraction-free machinery.
    """
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


class RationalFunction:
    """Quotient of two polynomials, kept in canonical reduced form.

    On construction the polynomial gcd of numerator and denominator is
    cancelled and the denominator scaled to be monic, so `==` compares
    mathematical values.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly((_ONE,))):
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise TypeError("RationalFunction expects Poly numerator and denominator")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num //= g
                den //= g
            lead = den.leading
            if lead != 1:
                inv = 1 / lead
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def zero(cls) -> RationalFunction:
        return cls(Poly.zero())

    @classmethod
    def one(cls) -> RationalFunction:
        return cls(Poly.one())

    @classmethod
    def constant(cls, c: Fraction | int) -> RationalFunction:
        return cls(Poly.constant(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: RationalFunction) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __call__(self, point: Fraction | int) -> Fraction:
        x = _as_fraction(point)
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at z = {x}")
        return self.num(x) / d

    def series(self, n: int) -> SeriesPrefix:
        """First n + 1 Maclaurin coefficients; the denominator must not vanish at 0."""
        return _series_prefix(self.num.coeffs, self.den.coeffs, n,
                              "not a power series: denominator has zero constant term")

    def expansion_at_one(self, n: int) -> SeriesPrefix:
        """Taylor coefficients d_0 .. d_n of f(1 + w), so d_k = f^(k)(1) / k!.

        ValueError at a pole: the canonical form leaves no removable (z - 1)
        factor, so den(1) = 0 is a pole.
        """
        num, den = _taylor_at_one(self.num.coeffs, n), _taylor_at_one(self.den.coeffs, n)
        return _series_prefix(num, den, n, "pole at z = 1: limit does not exist")

    def derivative(self) -> RationalFunction:
        """Exact quotient-rule derivative, canonicalized."""
        n, d = self.num, self.den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def limit_at_one(self) -> Fraction:
        """Value at z = 1; ValueError at a pole (see expansion_at_one)."""
        return self.expansion_at_one(0)[0]

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _taylor_at_one(coeffs: Sequence[Fraction], n: int) -> list[Fraction]:
    """Coefficients 0 .. n of p(1 + w); coefficient k is sum_j C(j, k) p_j."""
    return [sum((comb(j, k) * c for j, c in enumerate(coeffs[k:], k)), _ZERO) for k in range(n + 1)]


def _series_prefix(num: Sequence[Fraction], den: Sequence[Fraction], n: int, no_series: str) -> SeriesPrefix:
    """c_0 .. c_n of num / den, solving sum_j den_j c_(i-j) = num_i forward for c_i.

    Raises ValueError(no_series) when den[0] is 0.
    """
    if n < 0:
        raise ValueError("series length must be >= 0")
    if not den or den[0] == 0:
        raise ValueError(no_series)
    out: list[Fraction] = []
    for i in range(n + 1):
        acc = num[i] if i < len(num) else _ZERO
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc / den[0])
    return tuple(out)


T = TypeVar("T")


def solve_linear_system(matrix: Sequence[Sequence[T]], rhs: Sequence[T]) -> list[T]:
    """Solve A x = b exactly over any field (Fraction or RationalFunction).

    Plain Gaussian elimination with first-nonzero pivoting; the solution is
    verified against the original system before being returned.  Raises
    SingularMatrixError naming the first column without a usable pivot.
    """
    m = len(matrix)
    if m == 0:
        return []
    a = [list(row) for row in matrix]
    if any(len(row) != m for row in a) or len(rhs) != m:
        raise ValueError("matrix must be square and match the rhs length")
    b = list(rhs)
    zero = a[0][0] - a[0][0]

    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != zero), None)
        if pivot is None:
            raise SingularMatrixError(col)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, m):
            if a[r][col] == zero:
                continue
            factor = a[r][col] / a[col][col]
            for c in range(col, m):
                a[r][c] = a[r][c] - factor * a[col][c]
            b[r] = b[r] - factor * b[col]

    x: list[T] = [zero] * m
    for i in range(m - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, m):
            acc = acc - a[i][j] * x[j]
        x[i] = acc / a[i][i]

    for i in range(m):
        acc = zero
        for j in range(m):
            acc = acc + matrix[i][j] * x[j]
        if acc != rhs[i]:
            raise ArithmeticError("linear solve failed verification")
    return x
