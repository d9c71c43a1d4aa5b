"""First-passage generating functions and the multi-pattern race solver.

Everything here is a rational function in z over exact rationals.  For a
single pattern of length k with string probability P, the PGF of the trial
at which the pattern first completes is

    F(z) = P z^k / ( P z^k + (1 - z) * sum_l P(tail after l) z^(k-l) ),

the sum running over the pattern's self-overlap shifts l (the l = k term
contributes 1).  Races between patterns are solved from the head-start
PGFs: completing pattern i immediately after pattern j finished only
benefits from the longest suffix of j that prefixes i, so F_i factors as
F(overlap) * F(i given j).  Collecting these ratios into a matrix with
entry (i, j) = 1 / F(overlap of j into i) and solving against the all-ones
vector yields one generating function per pattern whose z -> 1 limit is
that pattern's win probability; their sum generates the distribution of
the race duration.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .algebra import Poly, RationalFunction, SingularMatrixError, solve_linear_system
from .patterns import (
    Alphabet,
    Pattern,
    PatternSet,
    overlap_shifts,
    overlap_string,
    string_probability,
)

__all__ = [
    "DuelSolution",
    "build_duel_matrix",
    "conditional_pgf",
    "first_passage_pgf",
    "renewal_gf_from_pgf",
    "solve_duel",
]


def _first_passage_rf(symbols: tuple[int, ...], alphabet: Alphabet) -> RationalFunction:
    """First-passage PGF of a raw symbol string; the empty string gives 1."""
    if not symbols:
        return RationalFunction.one()
    k = len(symbols)
    p_full = string_probability(symbols, alphabet)
    overlap_sum = Poly.zero()
    for shift in overlap_shifts(symbols, symbols):
        tail = string_probability(symbols[shift:], alphabet)
        overlap_sum += Poly.monomial(k - shift, tail)
    lead = Poly.monomial(k, p_full)
    one_minus_z = Poly((1, -1))
    return RationalFunction(lead, lead + one_minus_z * overlap_sum)


def first_passage_pgf(pattern: Pattern) -> RationalFunction:
    """PGF of the number of trials until the pattern first completes."""
    return _first_passage_rf(pattern.symbols, pattern.alphabet)


def renewal_gf_from_pgf(f: RationalFunction) -> RationalFunction:
    """Generating function of completion-at-trial-n probabilities, u_0 = 1.

    Under the reset rule (consecutive completions may not overlap) the
    renewal sequence satisfies U = 1 + F * U, i.e. U = 1 / (1 - F).
    """
    one = RationalFunction.one()
    if f == one:
        raise ValueError("renewal generating function undefined for the constant PGF 1")
    return one / (one - f)


def conditional_pgf(i: Pattern, j: Pattern) -> RationalFunction:
    """PGF of trials to complete pattern i right after pattern j finished.

    The usable head start is the longest suffix of j that is a prefix of i,
    so the unconditional PGF of i factors through it:
    F_i = F(head) * F(i | j).
    """
    if i.alphabet != j.alphabet:
        raise ValueError("patterns use different alphabets")
    head = overlap_string(j, i)
    return first_passage_pgf(i) / _first_passage_rf(head, i.alphabet)


def build_duel_matrix(ps: PatternSet) -> list[list[RationalFunction]]:
    """Race matrix with entry (row i, column j) = 1 / F(overlap of j into i).

    The diagonal entry is 1 / F_i; entries where j never overlaps into i
    are exactly 1.
    """
    one = RationalFunction.one()
    matrix: list[list[RationalFunction]] = []
    for pat_i in ps.patterns:
        row = []
        for pat_j in ps.patterns:
            head = overlap_string(pat_j, pat_i)
            row.append(one / _first_passage_rf(head, ps.alphabet))
        matrix.append(row)
    return matrix


class DuelSolution:
    """Everything the solved win generating functions of a race imply.

    `x[i]` generates the probabilities of pattern i winning at each trial.
    Every other attribute is computed from `x` when first read and then
    kept: the win probabilities are the z -> 1 limits of the x entries
    (`solve_duel` checks that they sum to 1), the duration PGF D is the sum
    of the x entries, and the moments come from one chain of derivatives
    D', D'', D''' in which each link is built at most once.  With one
    pattern and x = (its first-passage PGF,), the same attributes describe
    that pattern's waiting time.
    """

    def __init__(self, pattern_set: PatternSet, x: tuple[RationalFunction, ...]):
        self.pattern_set = pattern_set
        self.x = x

    @cached_property
    def win_probs(self) -> tuple[Fraction, ...]:
        return tuple(xi.limit_at_one() for xi in self.x)

    @cached_property
    def duration(self) -> RationalFunction:
        duration = self.x[0]
        for xi in self.x[1:]:
            duration = duration + xi
        return duration

    @cached_property
    def _first_derivative(self) -> RationalFunction:
        return self.duration.derivative()

    @cached_property
    def _second_derivative(self) -> RationalFunction:
        return self._first_derivative.derivative()

    @cached_property
    def mean(self) -> Fraction:
        return self._first_derivative.limit_at_one()

    @cached_property
    def _second_factorial_moment(self) -> Fraction:
        return self._second_derivative.limit_at_one()

    @cached_property
    def _third_factorial_moment(self) -> Fraction:
        return self._second_derivative.derivative().limit_at_one()

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
        return float(self.variance) ** 0.5

    @property
    def skewness(self) -> float:
        """Decimal skewness; the exact third central moment is kept separately.

        NaN for a deterministic duration, where skewness is undefined.
        """
        if self.variance == 0:
            return float("nan")
        return float(self.third_central_moment) / float(self.variance) ** 1.5

    def __repr__(self) -> str:
        probs = ", ".join(f"{p}={w}" for p, w in zip(self.pattern_set.patterns, self.win_probs))
        return f"DuelSolution({probs}, mean={self.mean})"


def solve_duel(ps: PatternSet) -> DuelSolution:
    """Solve the race; the duration PGF and its moments are derived on first use."""
    matrix = build_duel_matrix(ps)
    ones = [RationalFunction.one()] * len(ps)
    try:
        x = solve_linear_system(matrix, ones)
    except SingularMatrixError as exc:
        names = ", ".join(str(p) for p in ps.patterns)
        raise SingularMatrixError(exc.column, f"race system singular for patterns {names}") from exc

    sol = DuelSolution(ps, tuple(x))
    if sum(sol.win_probs) != 1:
        raise ArithmeticError("win probabilities do not sum to 1; inputs violate an invariant")
    return sol

