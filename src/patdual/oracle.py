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
identical however the chunks are scheduled.  They are played on up to one
worker thread per usable core, the calling thread among them, and each
chunk's integer tallies are summed afterwards, so reports are the same for
any worker count; with one usable core no thread is started.  numpy
releases the interpreter lock in the draws, the comparisons and the gather,
so chunks overlap on a multi-core host.  Each step draws one double u
per live game, in game order, and the symbol is the number of cumulative
thresholds <= u (what searchsorted(..., side="right") returns), so reports
equal those of earlier releases.  Symbol thresholds are double-precision
floats; the analytic paths are unaffected.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import SeriesPrefix, _common_denominator, solve_linear_system
from .equilibrium import solve_equilibrium
from .patterns import Pattern, PatternSet, _brief, exact_str

__all__ = [
    "CHAIN_STATES_BUDGET",
    "SIMULATION_BUDGET",
    "OracleStats",
    "SimReport",
    "SuffixAutomaton",
    "build_automaton",
    "check_simulation_budget",
    "oracle_duration",
    "oracle_first_passage",
    "oracle_win_probs",
    "simulate",
]

_CHUNK = 1 << 16
# simulate refuses a request when max(games, _CHUNK) * mean duration exceeds this:
# it steps once per trial of a chunk's longest game, for all its games
SIMULATION_BUDGET = 2**30
# oracle_win_probs refuses a race whose automaton has more transient states than this: its two
# dense solves grow faster than the cube of the state count (H*256 against T takes about 0.8 s)
CHAIN_STATES_BUDGET = 256


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
    followed by t_s trials on average, itself included.  A race whose
    automaton has more than CHAIN_STATES_BUDGET transient states raises
    ValueError before either solve.
    """
    auto = build_automaton(ps)
    n = auto.n_transient
    if n > CHAIN_STATES_BUDGET:
        raise ValueError(f"absorbing-chain check over budget: {n} transient states exceed {CHAIN_STATES_BUDGET}")
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


def check_simulation_budget(ps: PatternSet, games: int) -> None:
    """ValueError when simulating `games` races over ps could take more than SIMULATION_BUDGET trials.

    The mean duration comes from the stationary-rate route, one solve of
    order len(ps); the chain's solves grow with the cube of the automaton,
    which a long pattern against a short one makes large at a small mean.
    """
    mean = solve_equilibrium(ps).expected_duration
    if max(games, _CHUNK) * mean > SIMULATION_BUDGET:
        raise ValueError(f"simulation over budget: max(games, {_CHUNK}) * mean duration "
                         f"{_brief(exact_str(round(mean)), str)} exceeds {SIMULATION_BUDGET} trials")


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate(ps: PatternSet, games: int, seed: int) -> SimReport:
    """Play `games` races to completion; deterministic for a given seed.

    A request over the trial budget is refused before any draw (see
    check_simulation_budget).  See the module docstring for the PRNG and
    chunking scheme.  Chunks are shared among min(chunks, usable cores)
    workers, the calling thread among them; the first exception in any of
    them stops the chunks not yet played and is raised once every worker
    has ended, so no thread outlives the call.
    """
    if games < 1:
        raise ValueError("games must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    check_simulation_budget(ps, games)
    import numpy as np  # only the simulator needs it, and it dominates import time
    auto = build_automaton(ps)
    nt, k = auto.n_transient, len(ps.alphabet)
    # flat[s*k + c] is the successor s' pre-scaled to s'*k, or stop + j when pattern j completes
    stop = nt * k
    flat = np.array([n * k if n < nt else stop + n - nt for row in auto.transitions for n in row], dtype=np.int64)
    thresholds = np.cumsum(np.array([float(p) for p in ps.alphabet.probs]))[:-1]
    n_chunks = -(-games // _CHUNK)
    unclaimed = iter(range(n_chunks))
    claim = threading.Lock()
    failed = threading.Event()
    tallies: list[tuple[list[int], int, int]] = []
    errors: list[BaseException] = []

    # a worker runs only numpy: bench/tracing.py wraps package functions with a span stack
    # that is not thread-safe, so every such call stays before the first worker starts
    def play(chunk_index: int, buf) -> tuple[list[int], int, int]:
        """Wins, duration sum and duration square sum of one chunk's games."""
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, chunk_index])))
        state = np.zeros(min(_CHUNK, games - chunk_index * _CHUNK), dtype=np.int64)  # s*k per live game
        wins = [0] * len(ps)
        duration_sum = 0
        duration_sq_sum = 0
        t = 0
        while state.size and not failed.is_set():
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
        return wins, duration_sum, duration_sq_sum

    def work() -> None:
        try:
            buf = np.empty(min(games, _CHUNK))
            while not failed.is_set():
                with claim:
                    chunk_index = next(unclaimed, None)
                if chunk_index is None:
                    return
                tallies.append(play(chunk_index, buf))
        except BaseException as exc:  # an interrupt too: raised by the caller after every join
            errors.append(exc)
            failed.set()

    threads = []
    try:
        for _ in range(min(n_chunks, _usable_cores()) - 1):
            thread = threading.Thread(target=work, name="patdual-simulate")
            thread.start()
            threads.append(thread)
        work()
    except BaseException:  # a thread that could not start, or an interrupt between starts
        failed.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    wins, sums, squares = zip(*tallies)  # integer tallies, so their order does not matter
    return SimReport(
        games=games,
        wins=tuple(map(sum, zip(*wins))),
        duration_sum=sum(sums),
        duration_sq_sum=sum(squares),
        seed=seed,
    )
