"""Ground-truth engines independent of the generating-function machinery.

Two validators live here: an exact absorbing-Markov-chain solver over the
pattern-set suffix automaton (all Fraction arithmetic, so comparisons with
the analytic engines are equalities, not tolerances), and a seeded Monte
Carlo simulator for statistical sanity checks.

The simulator draws from numpy's PCG64 generator.  Games are processed in
fixed chunks of 2**16; chunk c uses the stream seeded by
SeedSequence([seed, c]), so results depend only on (seed, games) and stay
identical however the chunks are scheduled.  Symbol thresholds are
double-precision floats; the analytic paths are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import SeriesPrefix, solve_linear_system
from .patterns import Pattern, PatternSet

__all__ = [
    "OracleStats",
    "SimReport",
    "SuffixAutomaton",
    "build_automaton",
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
    """Breadth-first construction over the reachable proper pattern prefixes."""
    alphabet = ps.alphabet
    pattern_syms = [p.symbols for p in ps.patterns]
    prefixes = {p[:i] for p in pattern_syms for i in range(len(p))}

    def longest_prefix_suffix(u: tuple[int, ...]) -> tuple[int, ...]:
        for L in range(len(u), -1, -1):
            suf = u[len(u) - L:]
            if suf in prefixes:
                return suf
        raise AssertionError("empty suffix is always a prefix")

    states: list[tuple[int, ...]] = [()]
    index: dict[tuple[int, ...], int] = {(): 0}
    # Transition targets are resolved to ints after all states are known;
    # absorbing targets are stored as ('absorb', j) placeholders meanwhile.
    pending: list[list] = []
    head = 0
    while head < len(states):
        t = states[head]
        head += 1
        row: list = []
        for c in range(len(alphabet)):
            u = t + (c,)
            winner = next((j for j, p in enumerate(pattern_syms) if u[len(u) - len(p):] == p), None)
            if winner is not None:
                row.append(("absorb", winner))
                continue
            nxt = longest_prefix_suffix(u)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row.append(index[nxt])
        pending.append(row)

    n = len(states)
    rows = [
        tuple(n + cell[1] if isinstance(cell, tuple) else cell for cell in row)
        for row in pending
    ]
    return SuffixAutomaton(ps, tuple(states), tuple(rows))


class OracleStats(NamedTuple):
    win_probs: tuple[Fraction, ...]
    mean: Fraction
    variance: Fraction


def _identity_minus_q(auto: SuffixAutomaton) -> list[list[Fraction]]:
    n = auto.n_transient
    probs = auto.pattern_set.alphabet.probs
    a = [[Fraction(0)] * n for _ in range(n)]
    for t in range(n):
        a[t][t] += 1
        for c, nxt in enumerate(auto.transitions[t]):
            if nxt < n:
                a[t][nxt] -= probs[c]
    return a


def oracle_win_probs(ps: PatternSet) -> OracleStats:
    """Exact absorption probabilities and the mean/variance of the hit time.

    Solves (I - Q) b_j = r_j per pattern for the win probabilities and the
    standard first and second moment systems for the absorption time, all
    over Fractions starting from the empty history.
    """
    auto = build_automaton(ps)
    n = auto.n_transient
    m = len(ps)
    probs = ps.alphabet.probs
    a = _identity_minus_q(auto)

    reach = [[Fraction(0)] * m for _ in range(n)]
    for t in range(n):
        for c, nxt in enumerate(auto.transitions[t]):
            if nxt >= n:
                reach[t][nxt - n] += probs[c]

    wins = tuple(solve_linear_system(a, [reach[t][j] for t in range(n)])[0] for j in range(m))

    ones = [Fraction(1)] * n
    t_mean = solve_linear_system(a, ones)
    # E[T^2] from state t satisfies s = 1 + 2 Q t + Q s.
    rhs = []
    for t in range(n):
        acc = Fraction(1)
        for c, nxt in enumerate(auto.transitions[t]):
            if nxt < n:
                acc += 2 * probs[c] * t_mean[nxt]
        rhs.append(acc)
    t_sq = solve_linear_system(a, rhs)
    return OracleStats(wins, t_mean[0], t_sq[0] - t_mean[0] ** 2)


def oracle_first_passage(
    pattern: Pattern, n: int, head_start: Sequence[int] = ()
) -> SeriesPrefix:
    """Exact first-completion probabilities f_0..f_n by occupancy DP.

    Advances the transient-state occupancy vector of the single-pattern
    automaton one trial at a time; `head_start` symbols (which must not
    already complete the pattern) fix the starting state.
    """
    if n < 0:
        raise ValueError("series length must be >= 0")
    ps = PatternSet(pattern.alphabet, (pattern,))
    auto = build_automaton(ps)
    nt = auto.n_transient
    probs = pattern.alphabet.probs

    occupancy = [Fraction(0)] * nt
    occupancy[auto.state_of(tuple(head_start))] = Fraction(1)
    out: list[Fraction] = [Fraction(0)]
    for _ in range(n):
        nxt_occ = [Fraction(0)] * nt
        absorbed = Fraction(0)
        for t, mass in enumerate(occupancy):
            if mass == 0:
                continue
            for c, nxt in enumerate(auto.transitions[t]):
                if nxt < nt:
                    nxt_occ[nxt] += mass * probs[c]
                else:
                    absorbed += mass * probs[c]
        out.append(absorbed)
        occupancy = nxt_occ
    return tuple(out)


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

    @property
    def duration_variance(self) -> Fraction:
        mean = self.mean_duration
        return Fraction(self.duration_sq_sum, self.games) - mean * mean


def simulate(ps: PatternSet, games: int, seed: int) -> SimReport:
    """Play `games` races to completion; deterministic for a given seed.

    See the module docstring for the PRNG and chunking scheme.
    """
    if games < 1:
        raise ValueError("games must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    auto = build_automaton(ps)
    nt = auto.n_transient
    m = len(ps)
    trans = np.array(auto.transitions, dtype=np.int64)
    thresholds = np.cumsum(np.array([float(p) for p in ps.alphabet.probs]))[:-1]

    wins = np.zeros(m, dtype=np.int64)
    duration_sum = 0
    duration_sq_sum = 0
    for chunk_index, start in enumerate(range(0, games, _CHUNK)):
        count = min(_CHUNK, games - start)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, chunk_index])))
        state = np.zeros(count, dtype=np.int64)
        t = 0
        while state.size:
            t += 1
            symbols = np.searchsorted(thresholds, rng.random(state.size), side="right")
            nxt = trans[state, symbols]
            done = nxt >= nt
            if done.any():
                finished = nxt[done] - nt
                wins += np.bincount(finished, minlength=m)
                k = int(done.sum())
                duration_sum += t * k
                duration_sq_sum += t * t * k
            state = nxt[~done]
    return SimReport(
        games=games,
        wins=tuple(int(w) for w in wins),
        duration_sum=duration_sum,
        duration_sq_sum=duration_sq_sum,
        seed=seed,
    )
