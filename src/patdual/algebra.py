"""Exact univariate polynomial and rational-function arithmetic over Q.

A polynomial is a dense tuple of Fraction coefficients indexed by the power
of the formal variable z, with trailing zeros trimmed; the zero polynomial
is the empty tuple.  A rational function is a pair of polynomials kept in
canonical form: the polynomial gcd of numerator and denominator is removed
and the denominator is made monic, so structural equality is mathematical
equality.

No floating point is used anywhere in this module.

Linear systems are solved over Q only, and by one elimination: each row is
scaled to integers, and Bareiss's fraction-free elimination (Math. Comp.
22, 1968), which takes no gcd at all, solves the integer system, and is
kept to solve later right-hand sides in O(m^2).  Systems over Z[z]
(solve_polynomial_system) run the same elimination on each polynomial
packed into one integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple, Sequence

__all__ = [
    "ExpansionError",
    "Poly",
    "RationalFunction",
    "SeriesPrefix",
    "SingularMatrixError",
    "solve_linear_system",
    "solve_polynomial_system",
]

# Coefficients c_0 .. c_n of a power-series prefix.
SeriesPrefix = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExpansionError(ValueError):
    """A function has no power-series expansion at the requested point.

    Raised for a pole at z = 1 (limit_at_one) and for den(0) = 0 (series).
    No command calls either, so only library callers can meet it.
    """


class SingularMatrixError(ArithmeticError):
    """Raised when elimination finds no nonzero pivot.

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
        """Maclaurin coefficients c_0 .. c_n = (num_k - sum_j den_j c_(k-j)) / den_0; ExpansionError if den_0 = 0."""
        if n < 0:
            raise ValueError("series length must be >= 0")
        num, den = self.num.coeffs, self.den.coeffs
        if den[0] == 0:
            raise ExpansionError("not a power series: denominator has zero constant term")
        c: list[Fraction] = []
        for k in range(n + 1):
            acc = num[k] if k < len(num) else _ZERO
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * c[k - j]
            c.append(acc / den[0])
        return tuple(c)

    def derivative(self) -> RationalFunction:
        """Exact quotient-rule derivative, canonicalized."""
        n, d = self.num, self.den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def limit_at_one(self) -> Fraction:
        """num(1) / den(1); num and den share no (z - 1) factor, so den(1) = 0 is a pole: ExpansionError."""
        if (d := self.den(1)) == 0:
            raise ExpansionError("pole at z = 1: limit does not exist")
        return self.num(1) / d

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _common_denominator(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """Integers v and the least e > 0 with values = v / e."""
    e = lcm(*(v.denominator for v in values))
    return [v.numerator * (e // v.denominator) for v in values], e


def solve_linear_system(matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Solve A x = b exactly over Q, by Bareiss elimination over the integers.

    Entries must be ints or Fractions; any other entry is a TypeError.  Each
    row of [A | b] is scaled to integers by the lcm of its denominators,
    which leaves x unchanged, and _bareiss solves the integer system.
    Raises SingularMatrixError naming the first column without a nonzero
    pivot.
    """
    m = len(matrix)
    if any(len(row) != m for row in matrix) or len(rhs) != m:
        raise ValueError("matrix must be square and match the rhs length")
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    if not all(isinstance(v, (int, Fraction)) for row in rows for v in row):
        raise TypeError("solve_linear_system solves over Q (int or Fraction entries); "
                        "use solve_polynomial_system for polynomial entries")
    y, d, _ = _bareiss([_common_denominator(row)[0] for row in rows])
    return [Fraction(yi, d) for yi in y]


def _bareiss(a: list[list[int]]) -> tuple[list[int], int, _Elimination]:
    """Integers y and d != 0 with A y = d b, for a the m rows of [A | b], by Bareiss elimination; and the elimination.

    Every step divides exactly by the previous pivot, so each entry stays an
    integer minor of the system and no gcd is ever taken.  The pivot is the
    first nonzero entry of its column; SingularMatrixError names the first
    column that has none.  The multiplier each step zeroes stays in place of
    the zero, for `_Elimination.replay`.  a is not modified.
    """
    m = len(a)
    rows, order, previous = [row[:m] for row in a], list(range(m)), 1
    matrix = [row[:] for row in rows]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(col)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        order[col], order[pivot] = order[pivot], order[col]
        top = rows[col]
        for row in rows[col + 1:]:
            factor = row[col]
            for c in range(col + 1, m):
                row[c] = (top[col] * row[c] - factor * top[c]) // previous
        previous = top[col]
    kept = _Elimination(matrix, rows, order)
    return (*kept.replay([row[m] for row in a]), kept)


class _Elimination(NamedTuple):
    """A and its Bareiss elimination: pivots on the diagonal, minors above, multipliers below; the row of A at each."""

    matrix: list[list[int]]
    rows: list[list[int]]
    order: list[int]

    def replay(self, rhs: Sequence[int]) -> tuple[list[int], int]:
        """y and d, the last pivot, with A y = d b: the kept steps on b, back substitution, and a check against A."""
        rows, m = self.rows, len(self.rows)
        b, previous = [rhs[i] for i in self.order], 1
        for col, top in enumerate(rows):
            for r in range(col + 1, m):
                b[r] = (top[col] * b[r] - rows[r][col] * b[col]) // previous
            previous = top[col]
        y = [0] * m
        for i in range(m - 1, -1, -1):
            y[i] = (previous * b[i] - sum(rows[i][j] * y[j] for j in range(i + 1, m))) // rows[i][i]
        if any(sum(v * yj for v, yj in zip(row, y)) != previous * bi for row, bi in zip(self.matrix, rhs)):
            raise ArithmeticError("linear solve failed verification")
        return y, previous


def solve_polynomial_system(matrix: Sequence[Sequence[Poly]], rhs: Sequence[Poly]) -> tuple[list[Poly], Poly]:
    """Polynomials y and d != 0 with matrix y = d rhs, by fraction-free elimination over Z[z].

    Each row of [matrix | rhs] is scaled to integer coefficients, which
    leaves y / d unchanged.  Bareiss elimination then runs on the values at
    z = 2^k (Kronecker substitution), one big integer per polynomial: every
    minor of the scaled system has coefficients of absolute value at most
    B, the product of its rows' coefficient 1-norms, so with 2^(k-1) > B a
    minor's value at 2^k is 0 only for the zero polynomial (the pivots are
    those of the polynomial elimination), and y and d, minors themselves,
    are read back as base-2^k digits in [-2^(k-1), 2^(k-1)).  The result is
    verified by polynomial arithmetic: matrix y = d rhs exactly.  Raises
    SingularMatrixError as solve_linear_system does.
    """
    m = len(matrix)
    if any(len(row) != m for row in matrix) or len(rhs) != m:
        raise ValueError("matrix must be square and match the rhs length")
    rows = []
    for row, b in zip(matrix, rhs):
        entries = [p.coeffs for p in (*row, b)]
        scale = lcm(*(c.denominator for p in entries for c in p))
        rows.append([[c.numerator * (scale // c.denominator) for c in p] for p in entries])
    bound = prod(max(1, sum(abs(c) for p in row for c in p)) for row in rows)
    k = bound.bit_length() + 1
    y, d, _ = _bareiss([[_pack(p, k) for p in row] for row in rows])
    y, d = [Poly(_unpack(v, k)) for v in y], Poly(_unpack(d, k))
    for row, b in zip(matrix, rhs):
        if sum((p * yj for p, yj in zip(row, y)), Poly()) != d * b:
            raise ArithmeticError("polynomial solve failed verification")
    return y, d


def _pack(coeffs: Sequence[int], k: int) -> int:
    """The value at z = 2^k of the polynomial with these integer coefficients."""
    v = 0
    for c in reversed(coeffs):
        v = (v << k) + c
    return v


def _unpack(v: int, k: int) -> list[int]:
    """Coefficients of the polynomial whose value at 2^k is v and whose coefficients lie in [-2^(k-1), 2^(k-1))."""
    full, half = 1 << k, 1 << (k - 1)
    out = []
    while v:
        c = v & (full - 1)
        if c >= half:
            c -= full
        out.append(c)
        v = (v - c) >> k
    return out
