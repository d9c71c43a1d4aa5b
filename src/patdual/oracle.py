"""Ground-truth engines independent of the generating-function machinery.

Two validators live here: exact solvers over the pattern-set suffix
automaton (an absorbing-Markov-chain solver for the wins and moments and an
occupancy DP for the duration law, in exact integer and Fraction
arithmetic, so comparisons with the analytic engines are equalities, not
tolerances), and a seeded Monte Carlo simulator for statistical sanity
checks.  The automaton's transient states are exactly the proper prefixes
of the patterns, each reachable by reading it (see build_automaton).

The simulator draws from numpy's PCG64 generator.  Games are processed in
fixed chunks of 2**16; chunk c uses the stream seeded by
SeedSequence([seed, c]), so results depend only on (seed, games) and stay
identical however the chunks are scheduled.  Each step draws one double u
per live game, in game order, and the symbol is the number of cumulative
thresholds <= u (what searchsorted(..., side="right") returns), so reports
equal those of earlier releases.  Symbol thresholds are double-precision
floats; the analytic paths are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import SeriesPrefix, _common_denominator, solve_linear_system
from .patterns import Pattern, PatternSet

__all__ = [
    "OracleStats",
    "SimReport",
    "SuffixAutomaton",
    "build_automaton",
    "oracle_duration",
    "oracle_first_passage",
    "oracle_win_probs",
    "simulate",
]

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SuffixAutomaton:
    """Deterministic automaton tracking the longest useful suffix of the history.

    Transient state t (a tuple of symbol indices) is the longest suffix of
    the flips so far that is a prefix of some pattern; state 0 is the empty
    history.  `transitions[t][c]` is the successor on symbol c, where values
    >= n_transient encode absorption: n_transient + j means pattern j just
    completed.
    """

    pattern_set: PatternSet
    transient: tuple[tuple[int, ...], ...]
    transitions: tuple[tuple[int, ...], ...]

    @property
    def n_transient(self) -> int:
        return len(self.transient)

    @property
    def n_states(self) -> int:
        return len(self.transient) + len(self.pattern_set)

    def absorbing_state(self, pattern_index: int) -> int:
        return len(self.transient) + pattern_index

    def state_of(self, history: Sequence[int]) -> int:
        """Feed a symbol history from the empty state; absorption is an error."""
        state = 0
        for sym in history:
            state = self.transitions[state][sym]
            if state >= self.n_transient:
                raise ValueError("history already completes a pattern")
        return state


def build_automaton(ps: PatternSet) -> SuffixAutomaton:
    """The automaton whose transient states are the proper pattern prefixes, in sorted order.

    Every proper prefix u is reachable from the empty history by reading u
    itself: no pattern is a substring of another, so none completes on the
    way, and each prefix of u is its own longest suffix among the states.
    Sorting keeps the empty history as state 0.
    """
    pattern_syms = [p.symbols for p in ps.patterns]
    states = sorted({p[:i] for p in pattern_syms for i in range(len(p))})
    index = {t: i for i, t in enumerate(states)}
    n = len(states)

    def successor(u: tuple[int, ...]) -> int:
        for j, p in enumerate(pattern_syms):
            if u[len(u) - len(p):] == p:
                return n + j
        while u not in index:  # the empty suffix is always a state
            u = u[1:]
        return index[u]

    rows = tuple(tuple(successor(t + (c,)) for c in range(len(ps.alphabet))) for t in states)
    return SuffixAutomaton(ps, tuple(states), rows)


class OracleStats(NamedTuple):
    win_probs: tuple[Fraction, ...]
    mean: Fraction
    variance: Fraction


def oracle_win_probs(ps: PatternSet) -> OracleStats:
    """Exact absorption probabilities and the mean/variance of the hit time.

    Two solves with the integer matrix d (I - Q), where d is the least
    common denominator of the symbol probabilities: (I - Q) t = 1 gives the
    expected trials t_s to absorption from each transient state s, and
    (I - Q)^T v = e_0 the expected visits v_s to s from the empty history.
    Pattern j wins with probability sum_s v_s P(s completes j), the mean is
    t_0, and E[T (T + 1) / 2] = sum_s v_s t_s, since each visit to s is
    followed by t_s trials on average, itself included.
    """
    auto = build_automaton(ps)
    n = auto.n_transient
    probs = ps.alphabet.probs
    weights, d = _common_denominator(probs)
    a = [[0] * n for _ in range(n)]
    for s in range(n):
        a[s][s] += d
        for c, nxt in enumerate(auto.transitions[s]):
            if nxt < n:
                a[s][nxt] -= weights[c]

    steps = solve_linear_system(a, [d] * n)
    visits = solve_linear_system([list(col) for col in zip(*a)], [d] + [0] * (n - 1))
    wins = [Fraction(0)] * len(ps)
    for s in range(n):
        for c, nxt in enumerate(auto.transitions[s]):
            if nxt >= n:
                wins[nxt - n] += visits[s] * probs[c]
    mean = steps[0]
    second = 2 * sum(v * t for v, t in zip(visits, steps)) - mean  # E[T^2]
    return OracleStats(tuple(wins), mean, second - mean * mean)


def oracle_duration(ps: PatternSet, n: int, head_start: Sequence[int] = ()) -> SeriesPrefix:
    """Exact probabilities f_0..f_n that the race over ps ends at each trial, by occupancy DP.

    Advances the transient-state occupancy vector of the race's automaton
    one trial at a time, over ints: with probabilities w_c / d, d^t times
    each occupancy after t trials is an integer.  `head_start` symbols
    (which must not already complete a pattern) fix the starting state.
    """
    if n < 0:
        raise ValueError("series length must be >= 0")
    auto = build_automaton(ps)
    nt = auto.n_transient
    weights, d = _common_denominator(ps.alphabet.probs)

    occupancy = [0] * nt
    occupancy[auto.state_of(tuple(head_start))] = 1
    out: list[Fraction] = [Fraction(0)]
    scale = 1
    for _ in range(n):
        scale *= d
        nxt_occ = [0] * nt
        absorbed = 0
        for t, mass in enumerate(occupancy):
            if mass:
                for w, nxt in zip(weights, auto.transitions[t]):
                    if nxt < nt:
                        nxt_occ[nxt] += mass * w
                    else:
                        absorbed += mass * w
        out.append(Fraction(absorbed, scale))
        occupancy = nxt_occ
    return tuple(out)


def oracle_first_passage(
    pattern: Pattern, n: int, head_start: Sequence[int] = ()
) -> SeriesPrefix:
    """Exact first-completion probabilities f_0..f_n of one pattern (see oracle_duration)."""
    return oracle_duration(PatternSet(pattern.alphabet, (pattern,)), n, head_start)


@dataclass(frozen=True)
class SimReport:
    """Tallies from a batch of simulated games; derived stats stay exact."""

    games: int
    wins: tuple[int, ...]
    duration_sum: int
    duration_sq_sum: int
    seed: int

    def win_frequency(self, i: int) -> Fraction:
        return Fraction(self.wins[i], self.games)

    @property
    def mean_duration(self) -> Fraction:
        return Fraction(self.duration_sum, self.games)


def simulate(ps: PatternSet, games: int, seed: int) -> SimReport:
    """Play `games` races to completion; deterministic for a given seed.

    See the module docstring for the PRNG and chunking scheme.
    """
    if games < 1:
        raise ValueError("games must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    import numpy as np  # only the simulator needs it, and it dominates import time
    auto = build_automaton(ps)
    nt, k = auto.n_transient, len(ps.alphabet)
    # flat[s*k + c] is the successor s' pre-scaled to s'*k, or stop + j when pattern j completes
    stop = nt * k
    flat = np.array([n * k if n < nt else stop + n - nt for row in auto.transitions for n in row], dtype=np.int64)
    thresholds = np.cumsum(np.array([float(p) for p in ps.alphabet.probs]))[:-1]
    buf = np.empty(min(games, _CHUNK))

    wins = [0] * len(ps)
    duration_sum = 0
    duration_sq_sum = 0
    for chunk_index, start in enumerate(range(0, games, _CHUNK)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, chunk_index])))
        state = np.zeros(min(_CHUNK, games - start), dtype=np.int64)  # s*k per live game
        t = 0
        while state.size:
            t += 1
            u = rng.random(state.size, out=buf[: state.size])
            for th in thresholds:
                state += u >= th
            nxt = flat[state]
            if nxt.max() >= stop:
                for j in range(len(wins)):
                    ended = int(np.count_nonzero(nxt == stop + j))
                    wins[j] += ended
                    duration_sum += t * ended
                    duration_sq_sum += t * t * ended
                nxt = nxt[nxt < stop]
            state = nxt
    return SimReport(
        games=games,
        wins=tuple(wins),
        duration_sum=duration_sum,
        duration_sq_sum=duration_sq_sum,
        seed=seed,
    )
