"""Exact analysis of pattern races over memoryless symbol sources.

Given competing symbol patterns and an alphabet with exact rational
probabilities, this package computes each pattern's probability of
appearing first, the full distribution and moments of the race duration,
and single-pattern first-passage distributions.  All analytic results are
exact fractions; a Markov-chain solver and a seeded simulator provide
independent cross-checks.
"""

from .algebra import (
    ExpansionError,
    Poly,
    RationalFunction,
    SeriesPrefix,
    SingularMatrixError,
    poly_gcd,
    solve_linear_system,
    solve_polynomial_system,
)
from .equilibrium import EquilibriumSolution, build_equilibrium_system, solve_equilibrium
from .oracle import (
    OracleStats,
    SimReport,
    SuffixAutomaton,
    build_automaton,
    oracle_duration,
    oracle_first_passage,
    oracle_win_probs,
    simulate,
)
from .patterns import (
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
from .pgf import (
    DuelSolution,
    build_duel_matrix,
    first_passage_pgf,
    solve_duel,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "DuelSolution",
    "EquilibriumSolution",
    "ExpansionError",
    "OracleStats",
    "ParseError",
    "Pattern",
    "PatternSet",
    "PatternSetError",
    "Poly",
    "RationalFunction",
    "SeriesPrefix",
    "SimReport",
    "SingularMatrixError",
    "SuffixAutomaton",
    "build_automaton",
    "build_duel_matrix",
    "build_equilibrium_system",
    "correlation_set",
    "first_passage_pgf",
    "max_overlap",
    "oracle_duration",
    "oracle_first_passage",
    "oracle_win_probs",
    "overlap_string",
    "parse_alphabet",
    "poly_gcd",
    "simulate",
    "solve_duel",
    "solve_equilibrium",
    "solve_linear_system",
    "solve_polynomial_system",
    "string_probability",
]
