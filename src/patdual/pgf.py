"""The race solver, and first passage as its one-pattern case.

One pattern's waiting time is the race with one player: `first_passage_pgf`
reads the duration PGF of a one-pattern `DuelSolution`.  For a pattern of
length k with string probability P, the race solution below gives, at m = 1,

    F(z) = P z^k / ( P z^k + (1 - z) * sum_l P(tail after l) z^(k-l) ),

the sum running over the pattern's self-overlap shifts l (the l = k term
contributes 1).  Races between patterns are solved from the head-start
PGFs: completing pattern i immediately after pattern j finished only
benefits from the longest suffix of j that prefixes i, so F_i factors as
F(overlap) * F(i given j).  Collecting these ratios into a matrix M with
entry (i, j) = 1 / F(overlap of j into i) and solving M x = 1 yields one
generating function per pattern, x_i, whose value at z = 1 is that
pattern's win probability; their sum D generates the race duration.

The race matrix factors as M(z) = J + (1 - z) N(z), with J all ones and
N_ij(z) = sum_l z^(-l) / P(i[:l]) over the overlap shifts l of j into i.
With u = N^(-1) 1 and g = sum(u), x = u / (g + 1 - z) and
D = g / (g + 1 - z).  Every answer is read from one table: per pattern i,
the overlap shifts and its `_weights`, the integers w_l = s_i / P(i[:l])
(s_i the product of the symbol numerators over i) that make up row i of
s_i N.  The win probabilities and the moments need no rational function:
u(w) follows from one Bareiss elimination of N(1) (the correlation matrix
of Guibas and Odlyzko), replayed for u_1 and u_2, and D(1 + w) =
g(w) / (g(w) - w) is a power-series division; u_0 > 0 is checked (a pattern
wins if it opens the game).  Two players need no elimination: with n_XY the
sum of X's w_l over the shifts of Y into X and s_X = w_0, Cramer's rule gives
Conway's, A wins with probability a / (a + b), a = s_A n_BB - s_B n_AB and
b = s_B n_AA - s_A n_BA; `_response_wins` checks a, b and det N(1): nonzero, one sign.
The duration series needs no rational function either: `_series_pairs`
reads P(T = t) off the table's shifts by a recurrence in t over word sums,
on exact integers kept small by one-word residues: ints, or Decimals.

The rational functions x and D are each built on first read, without
rational-function elimination: with L the longest pattern, row i of
s_i z^L N(z) is the integer polynomials sum_l w_l z^(L - l).  One
fraction-free solve over Z[z] with right-hand side s, shared by both,
gives y and det with z^L N(z) y = det 1; x_i = z^L y_i / den and
D = z^L sum(y) / den, with den = z^L sum(y) + (1 - z) det.  As
den(1) = sum(y)(1), x is checked at z = 1 on y, before x or D is built.
With m = 1, y = s and det = s N(z) z^L, which gives F(z) above.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact, InvalidOperation, Rounded
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm, ldexp, prod

from .algebra import (
    Poly,
    RationalFunction,
    SeriesPrefix,
    SingularMatrixError,
    _bareiss,
    _Elimination,
    solve_linear_system,  # unused here; bench/tracing.py patches pgf.solve_linear_system by name
    solve_polynomial_system,
)
from .patterns import Alphabet, Pattern, PatternSet, SymbolSeq, overlap_shifts, overlap_string

__all__ = [
    "DuelSolution",
    "build_duel_matrix",
    "first_passage_pgf",
    "solve_duel",
]


_ONE_MINUS_Z = Poly((1, -1))
# integers in decimal radix, exact: a result that would be rounded raises, so a Decimal sum or product is the int's
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, InvalidOperation, Rounded])


def first_passage_pgf(pattern: Pattern) -> RationalFunction:
    """PGF of the number of trials until the pattern first completes: the duration of its one-pattern race."""
    return DuelSolution(PatternSet(pattern.alphabet, (pattern,))).duration


def build_duel_matrix(ps: PatternSet) -> list[list[RationalFunction]]:
    """Race matrix with entry (row i, column j) = 1 / F(overlap of j into i).

    The diagonal entry is 1 / F_i; entries where j never overlaps into i
    are exactly 1.
    """
    one = RationalFunction.one()
    heads = [[overlap_string(pat_j, pat_i) for pat_j in ps.patterns] for pat_i in ps.patterns]
    return [[one / first_passage_pgf(Pattern(ps.alphabet, head)) if head else one for head in row] for row in heads]


def _lowest_terms(y: list[int], d: int) -> tuple[list[int], int]:
    """Integers u and the least e > 0 with u / e = y / d: one gcd."""
    g = gcd(d, *y) if d > 0 else -gcd(d, *y)
    return [v // g for v in y], d // g


def _weights(symbols: SymbolSeq, nums: list[int], dens: list[int]) -> list[int]:
    """w_l = s / P(symbols[:l]), l = 0 .. len(symbols): the denominators over symbols[:l], numerators over the rest."""
    w = [prod(nums[c] for c in symbols)]
    for c in symbols:
        w.append(w[-1] // nums[c] * dens[c])
    return w


def _modulus(d: int) -> int:
    """2^k o^j, o the odd part of d, j >= 1 the most with o^j under 2^32, and 2^k, if d is even, the rest of 63 bits but
    at least 2^31: it holds every prime of d, and unless o is wider than 32 bits its residues take one word."""
    a = (d & -d).bit_length() - 1
    o = o_j = d >> a
    while 1 < o and o_j * o < 2**32:
        o_j *= o
    return o_j << (max(31, 63 - o_j.bit_length()) if a else 0)


def _reduced(x, scale, m: int, big) -> tuple:
    """x / scale in lowest terms, a pair of x's type (int, or Decimal in `_EXACT`), if scale > 0 and m = gcd(scale, big)
    holds every prime of scale.  gcd(x, scale) is gcd(x mod big, m), one word if big is, unless a prime divides it as
    often as m holds it: then x may hold that prime more often, and the gcd is taken wide."""
    if not x:
        return x, type(x)(1)
    g = gcd(int(x % big), m)
    if g > 1 and pow(m // g, g.bit_length(), g):  # a prime of g is not left over in m / g
        g = gcd(int(x), int(scale))
    return (x // g, scale // g) if g > 1 else (x, scale)  # g divides both, so // is exact


def _fraction(pair) -> Fraction:
    f = object.__new__(Fraction)  # an int pair in lowest terms: Fraction's own gcd would find 1
    f._numerator, f._denominator = pair
    return f


def _sqrt(v: Fraction) -> float:
    """sqrt(v / 4^e) 2^e, e = 0 unless v nears a float's limits, so v may pass them as long as its root does not."""
    e = (v.numerator.bit_length() - v.denominator.bit_length()) // 2  # log4(v), to within 1
    e = e if abs(e) > 500 else 0
    return ldexp(float(v / Fraction(4) ** e) ** 0.5, e)


class DuelSolution:
    """Everything a race implies, each answer computed when first read and then kept.

    Every answer is read from `_table`, built by `_weights` as best-response's
    rows are.  Win probabilities and moments come from one elimination of the
    row-scaled N(1), replayed for the moments: win_i = u_0[i] / sum(u_0),
    N(1) u_0 = 1, and factorial moment k is k! [w^k] D(1 + w).
    `duration_series(n)` reads P(T = t) off the table's shifts by a recurrence
    in t.  `x[i]` generates P(pattern i wins at trial t) and the duration PGF
    D is their sum; each is built on first read from one shared solve with
    z^L N(z).  With one pattern, the same attributes describe its waiting time.
    """

    def __init__(self, pattern_set: PatternSet):
        self.pattern_set = pattern_set

    def _solve(self, solver, *args):
        try:
            return solver(*args)
        except SingularMatrixError as exc:
            names = ", ".join(str(p) for p in self.pattern_set.patterns)
            raise SingularMatrixError(exc.column, f"race system singular for patterns {names}") from exc

    @cached_property
    def _table(self) -> list[tuple[list[int], list[tuple[int, ...]]]]:
        """Per pattern i: its `_weights`, and the overlap shifts of each j into i."""
        ps, probs = self.pattern_set.patterns, self.pattern_set.alphabet.probs
        nums, dens = [p.numerator for p in probs], [p.denominator for p in probs]
        return [(_weights(i.symbols, nums, dens), [overlap_shifts(j.symbols, i.symbols) for j in ps]) for i in ps]

    def _correlation(self, t: int) -> list[list[int]]:
        """Row i of N_t, the w^t coefficient of N(1 + w), times s_i; (1 + w)^(-l) gives (-1)^t C(l + t - 1, t)."""
        return [[(-1) ** t * sum(comb(l + t - 1, t) * w[l] for l in ls) for ls in shifts] for w, shifts in self._table]

    @cached_property
    def _u0(self) -> tuple[list[int], int, _Elimination]:
        """N(1)^(-1) 1 as integers u_0 > 0, checked, over their least e > 0; and N(1)'s elimination, kept."""
        rows = [[*(sum(w[l] for l in ls) for ls in shifts), w[0]] for w, shifts in self._table]
        y, d, kept = self._solve(_bareiss, rows)
        u, e = _lowest_terms(y, d)
        if min(u) <= 0:
            raise ArithmeticError("win probabilities are not all positive; inputs violate an invariant")
        return u, e, kept

    @cached_property
    def win_probs(self) -> tuple[Fraction, ...]:
        u0, _, _ = self._u0
        return tuple(Fraction(ui, sum(u0)) for ui in u0)

    @cached_property
    def _polynomials(self) -> tuple[Poly, list[Poly], Poly, Poly]:
        """z^L, y, sum(y) and the denominator z^L sum(y) + (1 - z) det of x and D; at z = 1 that is sum(y)(1)."""
        longest = max(len(p) for p in self.pattern_set.patterns)  # L: no shift exceeds it
        n_tilde = [[Poly([w[longest - d] if longest - d in ls else 0 for d in range(longest)]) for ls in shifts]
                   for w, shifts in self._table]
        y, det = self._solve(solve_polynomial_system, n_tilde, [Poly.constant(w[0]) for w, _ in self._table])
        shift, total = Poly.monomial(longest), sum(y[1:], y[0])
        if tuple(yi(1) / total(1) for yi in y) != self.win_probs:
            raise ArithmeticError("win generating functions disagree with the win probabilities at z = 1")
        return shift, y, total, shift * total + _ONE_MINUS_Z * det

    @cached_property
    def x(self) -> tuple[RationalFunction, ...]:
        """Win generating functions: x[i] generates P(pattern i wins at trial t)."""
        shift, y, _, den = self._polynomials
        return tuple(RationalFunction(shift * yi, den) for yi in y)

    @cached_property
    def duration(self) -> RationalFunction:
        """Duration PGF D, the sum of the win generating functions."""
        shift, _, total, den = self._polynomials
        return RationalFunction(shift * total, den)

    def duration_series(self, n: int) -> SeriesPrefix:
        """P(T = t), t = 0 .. n, read off `_series_pairs` over int."""
        return tuple(map(_fraction, self._series_pairs(n, int)))

    def _series_pairs(self, n: int, number: type) -> Iterator[tuple]:
        """P(T = t), t = 0 .. n, as pairs in lowest terms of type number (int, or Decimal in `_EXACT`, which the caller
        enters), by the recurrence in t of Guibas and Odlyzko (J. Combin. Theory A 30, 1981).  With s[t] = P(T > t),
        x_j[t] = P(j wins at t) = P_j s[t - L_j] - sum P(j[l:]) A_(j[:l])[t - L_j + l] over the overlap shifts l < L_j
        of any pattern into j, A_w summing x_i over the patterns i that end in the word w, and s[t] = s[t - 1] -
        sum_j x_j[t], all earlier than t as no pattern contains another.  Times d^t, d the lcm of the patterns' symbol
        denominators, all are integers (a negative one is an ArithmeticError); the recurrence is linear, so every L
        steps, L the longest pattern, the values it reads again and their scale are divided by their common factor."""
        if n < 0:
            raise ValueError("series length must be >= 0")
        patterns, probs = self.pattern_set.patterns, self.pattern_set.alphabet.probs
        d = lcm(*(probs[c].denominator for p in patterns for c in set(p.symbols)))
        rows = []
        for pattern, (_, shifts) in zip(patterns, self._table):
            tail, size = [1], len(pattern)  # tail[k] = P(pattern[size - k:]) d^k
            for c in reversed(pattern.symbols):
                tail.append(tail[-1] * probs[c].numerator * (d // probs[c].denominator))
            # per shift l, the patterns i that end in pattern[:l]; l = L_j is j's own, since no pattern contains another
            rows.append((size, tail, {l: tuple(i for i, ls in enumerate(shifts) if l in ls)
                                      for ls in shifts for l in ls if l < size}))
        # words that the same patterns end in share one sum: first the sums of one x_i, then those of two or more
        sums = sorted({ends for _, _, words in rows for ends in words.values()}, key=len)
        # h holds the steps so far, each these sums then s, times d^t over the factors divided out; step t starts at
        # h[now], so A_w[t - k] is h[now + (place of w's sum) - k width] and s[t - k] is h[now + width - 1 - k width]
        width, longest, place = len(sums) + 1, max(len(p) for p in patterns), {e: k for k, e in enumerate(sums)}
        for k, (size, tail, words) in enumerate(rows):  # a coefficient 1, as on the fair coin, is not multiplied
            terms = [(place[ends] - (size - l) * width, tail[size - l]) for l, ends in words.items()]
            rows[k] = (width - 1 - size * width, number(tail[size]),
                       [at for at, c in terms if c == 1], [(at, number(c)) for at, c in terms if c != 1])
        alone = [e[0] for e in sums if len(e) == 1]
        sums, window, big = sums[len(alone):], width * longest, _modulus(d)
        h, scale, m, step, residue = [number(0)] * (window - 1) + [number(1)], number(1), 1, number(d), number(big)
        yield number(0), scale  # every step before t = 0 is 0, and s[0] = 1
        for t in range(1, n + 1):
            if t % longest == 0:  # the last window is all that is read again
                g = m
                for v in h[-window:]:
                    if g == 1:
                        break
                    g = gcd(int(v % g), g)
                if g > 1:  # g divides every value read again, and the scale, so // is exact
                    h[-window:], scale = [v // g for v in h[-window:]], scale // g
                    m = gcd(int(scale % big), big)
            now, x = len(h), []
            for s_at, head, ones, terms in rows:
                v = head * h[now + s_at]
                for at in ones:
                    v -= h[now + at]
                for at, c in terms:
                    v -= c * h[now + at]
                x.append(v)
            total = sum(x)
            h += [x[i] for i in alone] + [sum([x[i] for i in e]) for e in sums]
            h.append(step * h[now - 1] - total)
            if min(x) < 0 or h[-1] < 0:
                raise ArithmeticError("duration series has a negative term; inputs violate an invariant")
            scale, m = scale * step, gcd(m * d % big, big)  # m = gcd(scale, big)
            if now > 8 * window:
                del h[:-window]
            yield _reduced(total, scale, m, residue)

    @cached_property
    def _at_one(self) -> tuple[Fraction, ...]:
        """d_0 .. d_3 of D(1 + w) = sum_k E[C(T, k)] w^k = g(w) / (g(w) - w) = 1 / (1 - w / g(w)).

        u(w) = N(1 + w)^(-1) 1 = sum_k u_k w^k, so N_0 u_k = -sum_(t=1..k) N_t u_(k-t); g_k = sum(u_k).
        d_3 needs 1 / g(w) only through w^2, so u_3 is not solved.  Each u_k is kept as integers over one e;
        with g_k read as e g_k: d_1 = e / g_0, d_2 = e (e - g_1) / g_0^2, d_3 = e ((g_1 - e)^2 - g_0 g_2) / g_0^3.
        """
        n = [None, self._correlation(1), self._correlation(2)]
        u0, e, kept = self._u0
        u, m = [u0], len(u0)
        for k in (1, 2):
            rhs = [-sum(n[t][i][j] * u[k - t][j] for t in range(1, k + 1) for j in range(m)) for i in range(m)]
            uk, f = _lowest_terms(*kept.replay(rhs))  # u_k = uk / (f e)
            u = [[f * v for v in ui] for ui in u] + [uk]
            e *= f
        g0, g1, g2 = (sum(ui) for ui in u)
        return Fraction(1), Fraction(e, g0), Fraction(e * (e - g1), g0**2), Fraction(e * ((g1 - e)**2 - g0 * g2), g0**3)

    @cached_property
    def mean(self) -> Fraction:
        return self._at_one[1]

    @cached_property
    def _second_factorial_moment(self) -> Fraction:
        return 2 * self._at_one[2]

    @cached_property
    def _third_factorial_moment(self) -> Fraction:
        return 6 * self._at_one[3]

    @cached_property
    def variance(self) -> Fraction:
        m1, m2 = self.mean, self._second_factorial_moment
        return m2 + m1 - m1 * m1

    @cached_property
    def third_central_moment(self) -> Fraction:
        m1, m2, m3 = self.mean, self._second_factorial_moment, self._third_factorial_moment
        raw_second = m2 + m1
        raw_third = m3 + 3 * m2 + m1
        return raw_third - 3 * m1 * raw_second + 2 * m1 ** 3

    @property
    def std(self) -> float:
        return _sqrt(self.variance)

    @property
    def skewness(self) -> float:
        """sign(t) sqrt(t^2 / v^3), t the third central moment and v the variance; NaN when v = 0."""
        t, v = self.third_central_moment, self.variance
        r = _sqrt(t * t / v**3) if v else float("nan")
        return -r if t < 0 else r

    def __repr__(self) -> str:
        probs = ", ".join(f"{p}={w}" for p, w in zip(self.pattern_set.patterns, self.win_probs))
        return f"DuelSolution({probs}, mean={self.mean})"


def solve_duel(ps: PatternSet) -> DuelSolution:
    """Solve the race for its win probabilities; moments, x and the duration PGF come on first use."""
    (sol := DuelSolution(ps))._u0  # N(1) is eliminated and u_0 > 0 checked here, so that a bad race fails at once
    return sol


def _response_wins(alphabet: Alphabet, opponent: SymbolSeq, candidates: Iterable[SymbolSeq]) -> Iterator[Fraction]:
    """Each candidate's win probability against opponent, neither a substring of the other, by Conway's rule."""
    nums, dens = [p.numerator for p in alphabet.probs], [p.denominator for p in alphabet.probs]
    w_b = _weights(opponent, nums, dens)
    n_bb = sum(w_b[l] for l in overlap_shifts(opponent, opponent))  # n_XY: X's weights over the shifts of Y into X
    for symbols in candidates:
        w_a = _weights(symbols, nums, dens)
        n_aa, n_ab = (sum(w_a[l] for l in overlap_shifts(y, symbols)) for y in (symbols, opponent))
        n_ba = sum(w_b[l] for l in overlap_shifts(symbols, opponent))
        a, b, det = w_a[0] * n_bb - w_b[0] * n_ab, w_b[0] * n_aa - w_a[0] * n_ba, n_aa * n_bb - n_ab * n_ba
        if not (a and b and det and (a > 0) == (b > 0) == (det > 0)):  # u_A = a / det and u_B = b / det, both > 0
            raise ArithmeticError("win probabilities are not all positive; inputs violate an invariant")
        yield Fraction(a, a + b)
