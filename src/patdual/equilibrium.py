"""Stationary-rate route to win probabilities and expected duration.

Imagine the race replayed forever and let y_i be the long-run per-trial
probability that pattern i wins a game.  Expanding the probability of
pattern j's symbol string occupying the last k trials by which pattern won
inside that window gives one linear equation per pattern:

    P(string j) = sum_i y_i * sum_l P(tail of j after l),

l running over the shifts where pattern i overlaps into pattern j; then
win_j = y_j / sum(y) and duration = 1 / sum(y); no higher moment follows.
Row j is P(string j) times row j of N(1), the generating-function route's
correlation matrix, so y = N(1)^(-1) 1.  `duel --method equilibrium` solves
for y; `--method both` checks the equations exactly at the rates the other
route has solved, which checks its overlap table against string
probabilities, not its elimination.  A wrong system that is singular but
holds at those rates passes that check, where a solve would refuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import solve_linear_system
from .patterns import PatternSet, overlap_shifts

__all__ = ["EquilibriumSolution", "build_equilibrium_system", "solve_equilibrium"]


@dataclass(frozen=True)
class EquilibriumSolution:
    y: tuple[Fraction, ...]
    win_probs: tuple[Fraction, ...]
    expected_duration: Fraction


def build_equilibrium_system(
    ps: PatternSet,
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Matrix and right-hand side of the stationary-rate equations.

    Row j: A[j][i] = sum over shifts l in (i overlaps into j) of the
    probability of pattern j's tail after position l; rhs[j] is pattern j's
    full string probability.
    """
    probs = ps.alphabet.probs
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for pat_j in ps.patterns:
        tails = [Fraction(1)]  # tails[l] = P(pattern j's symbols after position l), one product each
        for s in reversed(pat_j.symbols):
            tails.append(tails[-1] * probs[s])
        tails.reverse()
        matrix.append([sum((tails[shift] for shift in overlap_shifts(pat_i.symbols, pat_j.symbols)), Fraction(0))
                       for pat_i in ps.patterns])
        rhs.append(tails[0])
    return matrix, rhs


def solve_equilibrium(ps: PatternSet) -> EquilibriumSolution:
    """Solve the stationary rates and derive win probabilities and duration."""
    y = solve_linear_system(*build_equilibrium_system(ps))
    if any(yi <= 0 for yi in y):
        raise ArithmeticError("stationary rates must be strictly positive")
    total = sum(y)
    return EquilibriumSolution(
        y=tuple(y),
        win_probs=tuple(yi / total for yi in y),
        expected_duration=1 / total,
    )
