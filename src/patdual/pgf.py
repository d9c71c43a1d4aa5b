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
g(w) / (g(w) - w) is a power-series division.  `_solve_n0` eliminates
every race's N(1) and checks u_0 > 0 (a pattern wins if it opens the game).
Best-response's `_response_wins` builds the opponent's weights and shifts
once, then each candidate's 2 x 2 table for `_solve_n0`: no DuelSolution.
The duration series needs no rational function either: `duration_series`
reads P(T = t) off the table's shifts by a recurrence in t, over integers,
and `_over_power` reduces each term over d^t by the primes of d alone.

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


def _solve_n0(table) -> tuple[list[int], int, _Elimination]:
    """N(1)^(-1) 1 from a race's table as integers u_0 > 0, checked, over their least e > 0; and the elimination."""
    y, d, kept = _bareiss([[*(sum(w[l] for l in ls) for ls in shifts), w[0]] for w, shifts in table])
    u, e = _lowest_terms(y, d)
    if min(u) <= 0:
        raise ArithmeticError("win probabilities are not all positive; inputs violate an invariant")
    return u, e, kept


def _over_power(x: int, twos: int, odd: int, odd_t: int) -> Fraction:
    """x / (2^twos odd_t) in lowest terms, odd_t a power of the odd odd: a wide gcd only if x and odd share a prime."""
    if not x:
        return Fraction(0)
    v = min((x & -x).bit_length() - 1, twos)  # the 2s by a shift
    x >>= v
    if gcd(x % odd, odd) > 1:  # a prime of odd divides x
        g = gcd(x, odd_t)
        x, odd_t = x // g, odd_t // g
    f = object.__new__(Fraction)  # x and the denominator are coprime, so Fraction's own gcd would find 1
    f._numerator, f._denominator = x, odd_t << (twos - v)
    return f


def _sqrt(v: Fraction) -> float:
    """sqrt(v / 4^e) 2^e, e = 0 unless v nears a float's limits, so v may pass them as long as its root does not."""
    e = (v.numerator.bit_length() - v.denominator.bit_length()) // 2  # log4(v), to within 1
    e = e if abs(e) > 500 else 0
    return ldexp(float(v / Fraction(4) ** e) ** 0.5, e)


class DuelSolution:
    """Everything a race implies, each answer computed when first read and then kept.

    Every answer is read from `_table`, built by `_weights` as best-response's
    tables are.  Win probabilities and moments come from one elimination of the
    row-scaled N(1) by `_solve_n0`, replayed for the moments: win_i = u_0[i] /
    sum(u_0), N(1) u_0 = 1, and factorial moment k is k! [w^k] D(1 + w).
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
        """N(1)^(-1) 1 as integer numerators over their least common denominator, and N(1)'s elimination, kept."""
        return self._solve(_solve_n0, self._table)

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
        """P(T = t), t = 0 .. n, by the recurrence in t of Guibas and Odlyzko (J. Combin. Theory A 30, 1981).

        With s[t] = P(T > t), x_j[t] = P(j wins at t) = P_j s[t - L_j] - sum P(j[l:]) x_i[t - L_j + l] over the
        overlap shifts l of each i into j but (j, L_j), and s[t] = s[t - 1] - sum_j x_j[t].  No pattern contains
        another, so all these are earlier than t.  Times d^t, d the lcm of the denominators of the patterns' symbols,
        every term is an integer.  Only P(T = t) is divided, by `_over_power`: a shift for the 2s of d^t, and a gcd
        with d's odd part to the t only when they share a prime.  A negative x_j[t] or s[t] is an ArithmeticError.
        """
        if n < 0:
            raise ValueError("series length must be >= 0")
        patterns, probs = self.pattern_set.patterns, self.pattern_set.alphabet.probs
        d = lcm(*(probs[c].denominator for p in patterns for c in set(p.symbols)))
        # h holds the steps so far, each x_0 .. x_(m-1) then s, times d^t; step t starts at h[now], so x_i[t - k]
        # is h[now + i - k width] and s[t - k] is h[now + m - k width]
        m = len(patterns)
        width, rows = m + 1, []
        for pattern, (_, shifts) in zip(patterns, self._table):
            tail, size = [1], len(pattern)  # tail[k] = P(pattern[size - k:]) d^k
            for c in reversed(pattern.symbols):
                tail.append(tail[-1] * probs[c].numerator * (d // probs[c].denominator))
            # a shift l = L_j is j's own, since no pattern contains another: the x_j[t] being solved for
            rows.append((m - size * width, tail[size], [(i - (size - l) * width, tail[size - l])
                                                         for i, ls in enumerate(shifts) for l in ls if l < size]))
        window = width * max(len(p) for p in patterns)
        h = [0] * (window - 1) + [1]  # every step before t = 0 is 0, and s[0] = 1
        a = (d & -d).bit_length() - 1  # d = 2^a o, o odd
        out, o, o_t = [Fraction(0)], d >> a, 1
        for _ in range(n):
            now, total = len(h), 0
            for s_at, head, terms in rows:
                v = head * h[now + s_at]
                for at, c in terms:
                    v -= c * h[now + at]
                if v < 0:
                    raise ArithmeticError("duration series has a negative term; inputs violate an invariant")
                h.append(v)
                total += v
            h.append(d * h[now - 1] - total)
            if h[-1] < 0:
                raise ArithmeticError("duration series has a negative term; inputs violate an invariant")
            if now > 8 * window:  # only the last window is read again
                del h[:-window]
            o_t *= o
            out.append(_over_power(total, a * len(out), o, o_t))  # total / d^t, with d^t = 2^(a t) o^t
        return tuple(out)

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
    """Each candidate's win probability against opponent, neither a substring of the other (see module docstring)."""
    nums, dens = [p.numerator for p in alphabet.probs], [p.denominator for p in alphabet.probs]
    w_b, bb = _weights(opponent, nums, dens), overlap_shifts(opponent, opponent)
    for a in candidates:
        table = [(_weights(a, nums, dens), (overlap_shifts(a, a), overlap_shifts(opponent, a))),
                 (w_b, (overlap_shifts(a, opponent), bb))]
        (u_a, u_b), _, _ = _solve_n0(table)
        yield Fraction(u_a, u_a + u_b)
