"""Exact analysis of pattern races over memoryless symbol sources.

Given competing symbol patterns and an alphabet with exact rational
probabilities, this package computes each pattern's probability of
appearing first, the full distribution and moments of the race duration,
and single-pattern first-passage distributions.  All analytic results are
exact fractions; a Markov-chain solver and a seeded simulator provide
independent cross-checks.

The package exports exactly what its modules' ``__all__`` declare.
"""

from .algebra import *
from .equilibrium import *
from .oracle import *
from .patterns import *
from .pgf import *

__version__ = "0.1.0"

__all__ = algebra.__all__ + equilibrium.__all__ + oracle.__all__ + patterns.__all__ + pgf.__all__
