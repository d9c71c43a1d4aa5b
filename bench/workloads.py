"""Seeded request generator for the four benchmark request mixes.

Every request is one `patdual` CLI invocation, given as an argv list.  The
generator uses only the standard library and never calls patdual: pattern
sets are made valid by the documented string rules (patterns distinct, none
a contiguous substring of another) and are never filtered by whether the
program succeeds on them.

A run sends one deck of requests, over and over.  Each workload has a fixed
base deck: a few requests of each of its strata.  A stratum fixes what
drives a request's cost (alphabet, pattern lengths, response length, --n,
output format), and a fixed generator draws the pattern symbols of the base
deck.  The strata of one workload were chosen to cost about the same on the
seed commit, so no latency percentile sits on a jump between a cheap and a
dear kind of request.

The seed draws a variant of the base deck by maps that keep every request's
cost: it reverses the patterns of a request or not, swaps H and T on the
fair coin or not, and draws each simulation's --seed.  The order of the
deck stays fixed, so that the heap, and with it the peak memory, grows the
same way in every run.
Reversal keeps a pattern set valid and keeps its correlation structure and
mean race length; swapping the symbols of the fair coin changes no
probability.  So every seed sends different requests that cost the same,
and a difference between two seeds' timings is a difference in the machine,
not in the mix.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

FAIR = "H:1/2,T:1/2"
BIASED = "H:1/3,T:2/3"
THREE = "A:1/2,B:1/3,C:1/6"
ALPHABETS = (FAIR, BIASED, THREE)

WHY = {
    "race": "duel on 2-4 patterns: win probabilities plus mean, std and skewness, the headline use",
    "sweep": "best-response: many tiny 2x2 solves for win probabilities only, no moments",
    "series": "first-passage and duel with --n up to 2000: series extraction and rendering of long tables",
    "simulate": "Monte Carlo cross-check: the numpy simulator that no other workload runs",
}

# (alphabet, pattern lengths): 2-4 patterns of length 3-8, each stratum
# about 120 ms on the seed commit.
_RACE = (
    (FAIR, (4, 8)), (FAIR, (3, 5, 7)), (FAIR, (3, 4, 4, 5)),
    (BIASED, (5, 7)), (BIASED, (4, 5, 6)), (BIASED, (3, 4, 4, 5)),
    (THREE, (7, 8)), (THREE, (3, 4, 5)), (THREE, (3, 3, 3, 4)),
)

# (alphabet, response length, opponent length), within a factor of two in
# cost.  Left out: length 3 over two symbols (8 candidates, a third of the
# cost), length 5 over two (32, three times) and length 4 over three (81,
# six times); each would put a latency percentile on a jump in cost.
_SWEEP = tuple(
    (alphabet, length, length + extra)
    for alphabet, length in ((FAIR, 4), (BIASED, 4), (THREE, 3))
    for extra in range(3)
)

# (command, alphabet, pattern lengths, --n), about 200 ms each: --n is set
# per stratum to even out the cost, which grows about quadratically in n.
_SERIES = (
    ("first-passage", FAIR, (4,), 2000), ("first-passage", FAIR, (6,), 2000),
    ("first-passage", FAIR, (8,), 2000), ("first-passage", BIASED, (4,), 2000),
    ("first-passage", BIASED, (6,), 1800), ("first-passage", BIASED, (8,), 1600),
    ("first-passage", THREE, (4,), 2000), ("first-passage", THREE, (6,), 2000),
    ("first-passage", THREE, (8,), 1800),
    ("duel", FAIR, (3, 5), 1500), ("duel", FAIR, (4, 6), 1200), ("duel", FAIR, (3, 4, 5), 1500),
    ("duel", BIASED, (3, 5), 1400), ("duel", BIASED, (4, 6), 1100), ("duel", BIASED, (3, 4, 5), 1200),
    ("duel", THREE, (3, 5), 1100), ("duel", THREE, (4, 6), 1000), ("duel", THREE, (3, 4, 5), 900),
)

# (alphabet, number of patterns); lengths 3-4.  Each request simulates about
# TRIALS symbols: games = TRIALS / expected race duration, kept in [1e5, 2e6].
_SIMULATE = tuple((alphabet, count) for alphabet in ALPHABETS for count in (2, 3))
TRIALS = 4_000_000
GAMES_RANGE = (100_000, 2_000_000)


def labels_of(alphabet: str) -> list[str]:
    return [part.split(":")[0] for part in alphabet.split(",")]


def draw_patterns(rng: random.Random, alphabet: str, lengths: tuple[int, ...]) -> list[str]:
    """Random distinct patterns of the given lengths, none a substring of another."""
    labels = labels_of(alphabet)
    while True:
        pats = ["".join(rng.choice(labels) for _ in range(n)) for n in lengths]
        if len(set(pats)) == len(pats) and not any(
            a != b and a in b for a, b in itertools.permutations(pats, 2)
        ):
            return pats


def expected_duration(alphabet: str, patterns: list[str]) -> Fraction:
    """Mean race length from the stationary-rate equations (Fractions, no patdual).

    Rates y solve sum_i y_i * sum_{l: last l of i == first l of j} P(j[l:]) = P(j),
    and the mean duration is 1 / sum(y).
    """
    prob = {part.split(":")[0]: Fraction(part.split(":")[1]) for part in alphabet.split(",")}

    def p(s: str) -> Fraction:
        out = Fraction(1)
        for ch in s:
            out *= prob[ch]
        return out

    m = len(patterns)
    rows = [
        [sum((p(j[k:]) for k in range(1, min(len(i), len(j)) + 1) if i[-k:] == j[:k]), Fraction(0))
         for i in patterns] + [p(j)]
        for j in patterns
    ]
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return 1 / sum(rows[r][m] / rows[r][r] for r in range(m))


def _race(rng: random.Random, block: int, index: int) -> list[str]:
    alphabet, shape = _RACE[index]
    argv = ["duel", "--alphabet", alphabet, "--patterns", ",".join(draw_patterns(rng, alphabet, shape))]
    if rng.random() < 0.25:
        argv += ["--method", "both"]
    return argv + ["--format", rng.choice(("json", "table"))]


def _sweep(rng: random.Random, block: int, index: int) -> list[str]:
    alphabet, length, opponent_length = _SWEEP[index]
    opponent = draw_patterns(rng, alphabet, (opponent_length,))[0]
    return [
        "best-response", "--alphabet", alphabet, "--patterns", opponent,
        "--length", str(length), "--format", rng.choice(("json", "table")),
    ]


def _series(rng: random.Random, block: int, index: int) -> list[str]:
    command, alphabet, shape, n = _SERIES[index]
    # Formats alternate between blocks, so every two blocks render each stratum both ways.
    fmt = ("json", "csv")[(block + index) % 2]
    return [
        command, "--alphabet", alphabet, "--patterns", ",".join(draw_patterns(rng, alphabet, shape)),
        "--n", str(n), "--format", fmt,
    ]


def _simulate(rng: random.Random, block: int, index: int) -> list[str]:
    alphabet, count = _SIMULATE[index]
    patterns = draw_patterns(rng, alphabet, tuple(rng.randint(3, 4) for _ in range(count)))
    games = round(TRIALS / expected_duration(alphabet, patterns))
    games = min(max(games, GAMES_RANGE[0]), GAMES_RANGE[1])
    return [
        "simulate", "--alphabet", alphabet, "--patterns", ",".join(patterns),
        "--games", str(games), "--seed", str(rng.randrange(2**32)),
        "--format", rng.choice(("json", "table")),
    ]


# workload -> (request maker, strata, copies of each stratum in the deck).
# A deck takes about 7 s per pass on the seed commit.
_MIXES = {
    "race": (_race, len(_RACE), 5),
    "sweep": (_sweep, len(_SWEEP), 3),
    "series": (_series, len(_SERIES), 2),
    "simulate": (_simulate, len(_SIMULATE), 6),
}
WORKLOADS = tuple(_MIXES)


def _flag(argv: list[str], name: str) -> int:
    return argv.index(name) + 1


def _variant(rng: random.Random, argv: list[str]) -> list[str]:
    """The same request up to maps that keep its cost: reversal, and H<->T on the fair coin."""
    argv = list(argv)
    at = _flag(argv, "--patterns")
    patterns = argv[at].split(",")
    if rng.random() < 0.5:
        patterns = [p[::-1] for p in patterns]
    if argv[_flag(argv, "--alphabet")] == FAIR and rng.random() < 0.5:
        patterns = [p.translate(str.maketrans("HT", "TH")) for p in patterns]
    argv[at] = ",".join(patterns)
    if "--seed" in argv:
        argv[_flag(argv, "--seed")] = str(rng.randrange(2**32))
    return argv


def deck(workload: str, seed: int) -> list[list[str]]:
    """The reproducible list of argv lists that one run of `workload` sends."""
    make, size, copies = _MIXES[workload]
    base_rng = random.Random(f"{workload}:base")
    base = [make(base_rng, block, index) for block in range(copies) for index in range(size)]
    rng = random.Random(f"{workload}:{seed}")
    return [_variant(rng, argv) for argv in base]
