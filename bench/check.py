"""Output checker: every request's stdout against routes independent of the PGF solver.

* Win probabilities, mean and variance of a race, and of every ranked
  best-response candidate, come from `oracle_win_probs` (absorbing chain
  over the suffix automaton).
* The third central moment behind `skewness` comes from one more moment
  system over the same automaton, built here.
* Series coefficients come from an occupancy DP over `build_automaton`
  (integer arithmetic); for one pattern, `oracle_first_passage` agrees with
  that DP on the first ORACLE_PREFIX terms.
* `simulate` is checked on its exact fields and on |z| < Z_BOUND.
* Where `digests.json` holds a digest for the exact argv (the default seed's
  requests, recorded at the seed commit after passing these checks), the
  stdout bytes must match it too.

`check` returns None for a correct output, else a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from patdual.algebra import solve_linear_system
from patdual.oracle import build_automaton, oracle_first_passage, oracle_win_probs
from patdual.patterns import Pattern, PatternSet, parse_alphabet

Z_BOUND = 6.0
ORACLE_PREFIX = 100

DIGESTS_PATH = Path(__file__).with_name("digests.json")


class Mismatch(Exception):
    """An output field differs from the independent route."""


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def flags(argv: list[str]) -> dict[str, str]:
    out = {"command": argv[0]}
    for name, value in zip(argv[1::2], argv[2::2]):
        out[name[2:]] = value
    return out


# ---- independent renderings ------------------------------------------------

def decimal_text(x: Fraction, digits: int) -> str:
    """Round-half-even fixed point by integer division."""
    sign = "-" if x < 0 else ""
    q, r = divmod(abs(x.numerator) * 10**digits, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2):
        q += 1
    if q == 0:
        sign = ""
    whole, frac = divmod(q, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def percent_text(x: Fraction, digits: int) -> str:
    return decimal_text(x * 100, max(digits - 2, 0)) + "%"


def expect(label: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, expected {want!r}")


def expect_rounded(label: str, text: str, value: Decimal, digits: int) -> None:
    """`text` is `value` rounded to `digits` places, allowing float error far below the last place."""
    got = Decimal(text)
    if abs(got - value) > Decimal(5) * Decimal(10) ** (-digits - 1) * (1 + Decimal("1e-9")):
        raise Mismatch(f"{label}: got {text}, true value {value:.{digits + 6}f}")


def expect_exact(label: str, got: dict, x: Fraction, digits: int) -> None:
    expect(f"{label} exact", got["exact"], str(x))
    expect(f"{label} decimal", got["decimal"], decimal_text(x, digits))


def to_decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


# ---- independent routes ----------------------------------------------------

def third_central_moment(ps: PatternSet, mean: Fraction, variance: Fraction) -> Fraction:
    """E[(T - mean)^3] of the race duration from the chain's raw-moment systems.

    With M_k(t) = E[T^k] from transient state t, T = 1 + T' gives
    (I - Q) M_k = 1 + sum_{j=1}^{k-1} C(k, j) Q M_j.
    """
    auto = build_automaton(ps)
    n = auto.n_transient
    probs = ps.alphabet.probs
    a = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for t in range(n):
        for c, nxt in enumerate(auto.transitions[t]):
            if nxt < n:
                a[t][nxt] -= probs[c]

    def q_times(v: list[Fraction]) -> list[Fraction]:
        return [sum((probs[c] * v[nxt] for c, nxt in enumerate(auto.transitions[t]) if nxt < n), Fraction(0))
                for t in range(n)]

    raw = [None]
    for k in (1, 2, 3):
        rhs = [Fraction(1)] * n
        for j in range(1, k):
            qm = q_times(raw[j])
            rhs = [r + math.comb(k, j) * x for r, x in zip(rhs, qm)]
        raw.append(solve_linear_system(a, rhs))
    m1, m2, m3 = raw[1][0], raw[2][0], raw[3][0]
    if m1 != mean or m2 - m1 * m1 != variance:
        raise Mismatch("moment systems disagree with oracle_win_probs")
    return m3 - 3 * m1 * m2 + 2 * m1**3


def duration_series(ps: PatternSet, n: int) -> list[Fraction]:
    """P(race ends at trial t), t = 0..n, by an integer occupancy DP over the automaton.

    With probabilities a_c / D, D^t times each occupancy is an integer.
    """
    auto = build_automaton(ps)
    nt = auto.n_transient
    den = math.lcm(*(p.denominator for p in ps.alphabet.probs))
    weights = [p.numerator * (den // p.denominator) for p in ps.alphabet.probs]
    occ = [0] * nt
    occ[0] = 1
    out = [Fraction(0)]
    scale = 1
    for _ in range(n):
        scale *= den
        nxt_occ = [0] * nt
        absorbed = 0
        for t, mass in enumerate(occ):
            if mass:
                for w, nxt in zip(weights, auto.transitions[t]):
                    if nxt < nt:
                        nxt_occ[nxt] += mass * w
                    else:
                        absorbed += mass * w
        out.append(Fraction(absorbed, scale))
        occ = nxt_occ
    return out


# ---- output parsers --------------------------------------------------------

def table_rows(lines: list[str], header: str) -> list[dict]:
    """Rows of the whitespace-aligned table whose header starts with `header`."""
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == [header])
    columns = lines[start].split()
    rows = []
    for line in lines[start + 1:]:
        cells = line.split()
        if len(cells) != len(columns):
            break
        rows.append(dict(zip(columns, cells)))
    return rows


def csv_rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


# ---- per-command checks ----------------------------------------------------

def _pattern_set(f: dict) -> tuple[PatternSet, list[str]]:
    alphabet = parse_alphabet(f["alphabet"])
    texts = f["patterns"].split(",")
    return PatternSet(alphabet, tuple(Pattern.parse(t, alphabet) for t in texts)), texts


def _check_coefficients(rows: list[dict], want: list[Fraction], digits: int) -> None:
    expect("coefficient count", len(rows), len(want))
    for i, (row, x) in enumerate(zip(rows, want)):
        expect("coefficient n", int(row["n"]), i)
        expect_exact(f"coefficient {i}", row, x, digits)


def _check_win_rows(rows: list[dict], texts: list[str], wins: tuple[Fraction, ...], digits: int) -> None:
    expect("win rows", [r["pattern"] for r in rows], texts)
    for row, w in zip(rows, wins):
        expect_exact(f"win {row['pattern']}", row, w, digits)
        expect(f"win {row['pattern']} percent", row["percent"], percent_text(w, digits))


def check_duel(f: dict, stdout: str, digits: int) -> None:
    ps, texts = _pattern_set(f)
    fmt = f.get("format", "table")
    n = int(f["n"]) if "n" in f else None
    if fmt == "csv":
        _check_coefficients(csv_rows(stdout), duration_series(ps, n), digits)
        return
    oracle = oracle_win_probs(ps)
    third = third_central_moment(ps, oracle.mean, oracle.variance)
    std = to_decimal(oracle.variance).sqrt()
    skew = to_decimal(third) / std**3
    method = f.get("method", "pgf")
    if fmt == "json":
        res = json.loads(stdout)["results"]
        expect("method", res["method"], method)
        _check_win_rows(res["win"], texts, oracle.win_probs, digits)
        dur = res["duration"]
        expect_exact("mean", dur["mean"], oracle.mean, digits)
        expect_exact("variance", dur["variance"], oracle.variance, digits)
        expect_rounded("std", dur["std"], std, digits)
        expect_rounded("skewness", dur["skewness"], skew, digits)
        if method == "both":
            eq = res["equilibrium"]
            _check_win_rows(eq["win"], texts, oracle.win_probs, digits)
            expect_exact("equilibrium mean", eq["expected_duration"], oracle.mean, digits)
            expect("rates", eq["rates"], [str(w / oracle.mean) for w in oracle.win_probs])
            expect("cross_check", res["cross_check"], "ok")
        if n is not None:
            _check_coefficients(res["coefficients"], duration_series(ps, n), digits)
        return
    lines = stdout.splitlines()
    _check_win_rows(table_rows(lines, "pattern"), texts, oracle.win_probs, digits)
    m = re.search(r"^duration mean: (\S+) ~ (\S+)  std: (\S+)  skewness: (\S+)$", stdout, re.M)
    if not m:
        raise Mismatch("no duration line")
    expect_exact("mean", {"exact": m[1], "decimal": m[2]}, oracle.mean, digits)
    expect_rounded("std", m[3], std, digits)
    expect_rounded("skewness", m[4], skew, digits)
    if method == "both":
        expect("cross-check line", "cross-check (stationary route): ok" in lines, True)


def check_first_passage(f: dict, stdout: str, digits: int) -> None:
    ps, texts = _pattern_set(f)
    n = int(f["n"])
    want = duration_series(ps, n)
    # oracle_first_passage (a Fraction DP) takes several times as long as the
    # request at n = 2000, so it vouches for the integer DP on a prefix.
    prefix = min(n, ORACLE_PREFIX)
    expect("occupancy DP prefix", want[: prefix + 1], list(oracle_first_passage(ps.patterns[0], prefix)))
    fmt = f.get("format", "table")
    if fmt == "csv":
        _check_coefficients(csv_rows(stdout), want, digits)
        return
    res = json.loads(stdout)["results"]
    expect("pattern", res["pattern"], texts[0])
    _check_coefficients(res["coefficients"], want, digits)
    oracle = oracle_win_probs(ps)
    expect_exact("mean", res["mean"], oracle.mean, digits)
    expect_exact("variance", res["variance"], oracle.variance, digits)
    num = [Fraction(c) for c in res["pgf"]["numerator"]]
    den = [Fraction(c) for c in res["pgf"]["denominator"]]
    expect("pgf denominator monic", den[-1], 1)
    # A quotient with these degrees is fixed by its first len(num) + len(den) coefficients.
    for i in range(min(len(num) + len(den), n + 1)):
        lhs = sum(den[j] * want[i - j] for j in range(min(i, len(den) - 1) + 1))
        expect(f"pgf series term {i}", lhs, num[i] if i < len(num) else 0)


def best_response_expected(f: dict) -> tuple[list[dict], list[dict]]:
    alphabet = parse_alphabet(f["alphabet"])
    opponent = f["patterns"]
    ranked, skipped = [], []
    for symbols in itertools.product(range(len(alphabet)), repeat=int(f["length"])):
        text = "".join(alphabet.symbols[s] for s in symbols)
        if text == opponent:
            skipped.append({"pattern": text, "reason": "identical to opponent"})
        elif text in opponent:
            skipped.append({"pattern": text, "reason": "substring of opponent"})
        elif opponent in text:
            skipped.append({"pattern": text, "reason": "contains opponent"})
        else:
            ps = PatternSet(alphabet, (Pattern(alphabet, symbols), Pattern.parse(opponent, alphabet)))
            ranked.append((oracle_win_probs(ps).win_probs[0], symbols, text))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return [{"pattern": t, "exact": w} for w, _, t in ranked], skipped


def check_best_response(f: dict, stdout: str, digits: int) -> None:
    ranked, skipped = best_response_expected(f)
    if f.get("format", "table") == "json":
        res = json.loads(stdout)["results"]
        rows = res["candidates"]
        expect("skipped", res["skipped"], skipped)
    else:
        lines = stdout.splitlines()
        rows = table_rows(lines, "rank")
        for i, row in enumerate(rows):
            expect("rank", row["rank"], str(i + 1))
        listed = [line for line in lines if line.startswith("skipped: ")]
        want = ", ".join(f"{s['pattern']} ({s['reason']})" for s in skipped)
        expect("skipped", listed, [f"skipped: {want}"] if skipped else [])
    expect("candidates", [r["pattern"] for r in rows], [r["pattern"] for r in ranked])
    for row, want in zip(rows, ranked):
        expect_exact(f"candidate {row['pattern']}", row, want["exact"], digits)
        expect(f"candidate {row['pattern']} percent", row["percent"], percent_text(want["exact"], digits))


def check_simulate(f: dict, stdout: str, digits: int) -> None:
    ps, texts = _pattern_set(f)
    oracle = oracle_win_probs(ps)
    if f.get("format", "table") == "json":
        res = json.loads(stdout)["results"]
        expect("games", res["games"], int(f["games"]))
        expect("seed", res["seed"], int(f["seed"]))
        rows = res["win"]
        dur = res["duration"]
        expect_exact("exact mean", dur["exact_mean"], oracle.mean, digits)
        zs = [dur["z"]]
        empirical = [dur["empirical_mean"]]
    else:
        lines = stdout.splitlines()
        expect("games line", f"games: {f['games']}  seed: {f['seed']}" in lines, True)
        rows = table_rows(lines, "pattern")
        m = re.search(r"^duration mean: exact (\S+) ~ (\S+)  empirical (\S+)  z (\S+)$", stdout, re.M)
        if not m:
            raise Mismatch("no duration line")
        expect_exact("exact mean", {"exact": m[1], "decimal": m[2]}, oracle.mean, digits)
        zs = [m[4]]
        empirical = [m[3]]
    expect("win rows", [r["pattern"] for r in rows], texts)
    for row, w in zip(rows, oracle.win_probs):
        expect_exact(f"win {row['pattern']}", {"exact": row["exact"], "decimal": row["exact_decimal"]}, w, digits)
        zs.append(row["z"])
        empirical.append(row["empirical"])
    for text in empirical:
        expect("empirical is a decimal", bool(re.fullmatch(rf"\d+\.\d{{{digits}}}", text)), True)
    for z in zs:
        if not abs(float(z)) < Z_BOUND:
            raise Mismatch(f"|z| = {z} not below {Z_BOUND}")


_CHECKS = {
    "duel": check_duel,
    "first-passage": check_first_passage,
    "best-response": check_best_response,
    "simulate": check_simulate,
}


class Checker:
    """Checks outputs; remembers outputs it passed so a repeated argv is compared by bytes."""

    def __init__(self, digests: dict[str, str] | None = None):
        self.digests = load_digests() if digests is None else digests
        self.passed: dict[str, str] = {}

    def check(self, argv: list[str], stdout: str) -> str | None:
        key = argv_key(argv)
        digest = stdout_digest(stdout)
        if key in self.passed:
            return None if self.passed[key] == digest else "output differs from an earlier run of the same request"
        if key in self.digests and self.digests[key] != digest:
            return "stdout digest differs from the one recorded at the seed commit"
        f = flags(argv)
        try:
            _CHECKS[f["command"]](f, stdout, int(f.get("digits", 4)))
        except (Mismatch, LookupError, ValueError, ArithmeticError, TypeError, AttributeError, StopIteration) as exc:
            return f"{type(exc).__name__}: {exc}"
        self.passed[key] = digest
        return None
