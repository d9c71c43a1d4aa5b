"""Command-line front end.

Subcommands: first-passage, duel, simulate, best-response.  Probabilities
are accepted only as exact fraction literals and every exact quantity is
emitted as a num/den string, so JSON output round-trips without loss.
Decimal renderings use round-half-even at the configured digit count.
JSON is json.dump(indent=2)'s bytes; series rows are written from a template.

Exit codes: 0 success, 2 parse/usage errors, 3 precondition violations
(invalid pattern sets, requests over a work budget and the like), 4 internal
failures (singular systems, cross-check disagreement, and faults no valid
race can cause), 141 when the reader of stdout closes it early.

The argparse tree is built once, when this module is imported, and every
`main` call parses with it; `main` touches no interpreter-wide state, so it
may run in several threads at once.
"""

from __future__ import annotations

import argparse
import copy
import csv
import itertools
import json
import math
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .algebra import RationalFunction
from .equilibrium import build_equilibrium_system, solve_equilibrium
from .oracle import oracle_duration, oracle_win_probs, simulate
from .patterns import (
    Alphabet,
    ParseError,
    Pattern,
    PatternSet,
    PatternSetError,
    _brief,
    exact_int,
    exact_str,
    parse_alphabet,
)
from .pgf import _EXACT, DuelSolution, _response_wins, first_passage_pgf, solve_duel

__all__ = ["main"]


class CrossCheckError(ArithmeticError):
    """duel --method both: the race's rates fail the stationary-rate equations, or the chain or its DP disagrees."""


# a series request is refused when its coefficients could print more digits than this: exact
# coefficient k is (integer) / q^k, q the lcm of the symbol denominators, so its numerator and
# denominator take at most k log10(q) + 1 digits each, and its decimal takes digits + 1
SERIES_DIGITS_BUDGET = 2**25
# best-response refuses a request with more candidates, |alphabet|^length, than this
CANDIDATES_BUDGET = 2**16
# duel --method both --n N checks the first min(N, CHECKED_TERMS) + 1 coefficients by occupancy DP
CHECKED_TERMS = 100


def _fixed_point(scaled: int, digits: int, negative: bool) -> str:
    """Render the integer scaled = |x| * 10**digits with `digits` decimals."""
    sign = "-" if negative else ""
    text = exact_str(scaled).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def decimal_str(x: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering with round-half-even; a value that rounds to 0 has no sign."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    return _rounded_str(x.numerator, x.denominator, 10**digits, digits)


def _rounded_str(num, den, unit, digits: int) -> str:
    """|num| / den * unit (10^k of num's type) rounded half to even, in `digits` decimals; signed as num unless 0."""
    scaled, rest = divmod(abs(num) * unit, den)
    if 2 * rest > den or (2 * rest == den and scaled % 2):
        scaled += 1
    return _fixed_point(scaled, digits, num < 0 and scaled > 0)


def sqrt_str(x: Fraction, digits: int, negative: bool = False) -> str:
    """Fixed-point rendering of the square root of x >= 0, exact and round-half-even.

    `negative` prefixes a minus sign even when the rounded value is 0, as
    float formatting of a small negative number does.
    """
    a, b = x.numerator * 100**digits, x.denominator
    root = math.isqrt(a // b)  # floor of sqrt(a / b)
    excess = 4 * a - (2 * root + 1) ** 2 * b  # sign of sqrt(a / b) - (root + 1/2)
    if excess > 0 or (excess == 0 and root % 2):
        root += 1
    return _fixed_point(root, digits, negative)


def percent_str(x: Fraction, digits: int) -> str:
    """decimal_str(100 x, max(digits - 2, 0)) + "%", without forming 100 x: x rounded at max(digits, 2) places."""
    return _rounded_str(x.numerator, x.denominator, 10 ** max(digits, 2), max(digits - 2, 0)) + "%"


def _exact_decimal(x: Fraction, digits: int) -> dict:
    return {"exact": exact_str(x), "decimal": decimal_str(x, digits)}


def _win_rows(pairs, digits: int) -> list[dict]:
    """One {pattern, exact, decimal, percent} row per (pattern, win probability) pair."""
    return [
        {"pattern": p.text, **_exact_decimal(w, digits), "percent": percent_str(w, digits)}
        for p, w in pairs
    ]


def _series_rows(pairs, digits: int) -> list[dict]:
    """One {n, exact, decimal} row per (numerator, denominator) pair of `DuelSolution._series_pairs`, in Decimal.

    The pairs are integers >= 0, so each decimal is `_rounded_str`'s, made inline; a pair whose exponents show
    a / b < 10^-(digits + 1), under half a unit in the last place, prints as 0 without a division.
    """
    rows, zero = [], _fixed_point(0, digits, False)
    with localcontext(_EXACT):
        unit = Decimal(10) ** digits  # born in decimal radix: converting an int 10**digits would be quadratic
        for t, (a, b) in enumerate(pairs):
            decimal = zero  # unless a / b >= 10^-(digits + 1), as a < 10^(a.adjusted() + 1) and b >= 10^b.adjusted()
            if a.adjusted() - b.adjusted() > -digits - 2:
                scaled, rest = divmod(a * unit, b)
                if 2 * rest > b or (2 * rest == b and scaled % 2):
                    scaled += 1
                decimal = str(scaled).rjust(digits + 1, "0")
                decimal = decimal[:-digits] + "." + decimal[-digits:] if digits else decimal
            rows.append({"n": t, "exact": str(a) if b == 1 else str(a) + "/" + str(b), "decimal": decimal})
    return rows


def _check_series_budget(alphabet: Alphabet, n: int, digits: int) -> None:
    """ValueError (exit 3) when n + 1 coefficients could print more than SERIES_DIGITS_BUDGET digits."""
    q = math.lcm(*(p.denominator for p in alphabet.probs))
    # every coefficient prints at least digits + 3 characters: this exact test refuses a huge n or
    # digits before any float is formed, and past it n < 2**25 and log10 takes a q of any size
    printed = (n + 1) * (digits + 3)
    if printed <= SERIES_DIGITS_BUDGET:
        # sum over k = 0..n of 2 (k log10(q) + 1) for the exact column, and (digits + 1) each for the decimal
        printed = (n + 1) * (n * math.log10(q) + 2 + digits + 1)
    if printed > SERIES_DIGITS_BUDGET:
        raise ValueError(
            f"series over budget: {Decimal(n + 1):.3g} coefficients over denominators up to {Decimal(q):.3g}^"
            f"{Decimal(n):.3g} could print {Decimal(printed):.3g} digits, more than {SERIES_DIGITS_BUDGET}"
        )


def _check_candidates_budget(alphabet: Alphabet, length: int, opponent_length: int, digits: int) -> None:
    """ValueError (exit 3) over CANDIDATES_BUDGET candidates, or if they could print more than SERIES_DIGITS_BUDGET."""
    # |alphabet| >= 2, so the first test settles long lengths without computing the power
    if length > CANDIDATES_BUDGET.bit_length() or (count := len(alphabet) ** length) > CANDIDATES_BUDGET:
        raise ValueError(f"best-response over budget: {len(alphabet)}^{Decimal(length):.3g} candidates "
                         f"exceed {CANDIDATES_BUDGET}")
    q, total = math.lcm(*(p.denominator for p in alphabet.probs)), length + opponent_length
    # per candidate: 2 (digits + 3) decimal and percent characters, and u_A / (u_A + u_B), each <= 2 total q^total
    printed = count * (2 * (digits + 3) + 2 * (math.log10(2 * total) + total * math.log10(q) + 1) + 1)
    if printed > SERIES_DIGITS_BUDGET:
        raise ValueError(f"best-response over budget: {len(alphabet)}^{length} candidates at {digits} digits against "
                         f"{opponent_length} symbols over q = {Decimal(q):.3g} could print {printed:.3g} digits")


def parse_patterns_option(values: list[str], alphabet: Alphabet) -> list[Pattern]:
    """Expand --patterns occurrences into patterns, by one rule that the alphabet decides.

    Over single-character labels each occurrence is a comma-separated list
    of bare patterns ('HH,TH').  Over an alphabet with any longer label each
    occurrence is one pattern, its comma-separated labels ('10,2,10'), and
    an occurrence without a comma is one label; repeat the flag for several
    patterns.  Either way `Pattern.parse` reads the pattern texts back.
    """
    if alphabet.single_char:
        return [Pattern.parse(text, alphabet) for value in values for text in value.split(",")]
    return [Pattern.parse(value, alphabet) for value in values]


def _rf_json(rf: RationalFunction) -> dict:
    return {
        "numerator": [exact_str(c) for c in rf.num.coeffs],
        "denominator": [exact_str(c) for c in rf.den.coeffs],
    }


def cmd_first_passage(args, alphabet: Alphabet, patterns: list[Pattern]) -> dict:
    if len(patterns) != 1:
        raise PatternSetError("first-passage requires exactly one pattern")
    pattern = patterns[0]
    sol = DuelSolution(PatternSet(alphabet, (pattern,)))
    n = args.n if args.n is not None else 4 * math.ceil(sol.mean)
    _check_series_budget(alphabet, n, args.digits)
    pgf = first_passage_pgf(pattern)  # only once the request is within budget
    return {
        "pattern": pattern.text,
        "pgf": _rf_json(pgf),
        "mean": _exact_decimal(sol.mean, args.digits),
        "variance": _exact_decimal(sol.variance, args.digits),
        "coefficients": _series_rows(sol._series_pairs(n, Decimal), args.digits),
    }


def cmd_duel(args, alphabet: Alphabet, patterns: list[Pattern]) -> dict:
    if len(patterns) < 2:
        raise PatternSetError("duel requires at least two patterns")
    ps = PatternSet(alphabet, tuple(patterns))
    if args.n is not None:
        _check_series_budget(alphabet, args.n, args.digits)
    results: dict = {"method": args.method}
    if args.method == "equilibrium":
        eq = solve_equilibrium(ps)
        return results | {"win": _win_rows(zip(ps.patterns, eq.win_probs), args.digits),
                          "duration": {"mean": _exact_decimal(eq.expected_duration, args.digits)},
                          "rates": [exact_str(yi) for yi in eq.y]}

    chain = oracle_win_probs(ps) if args.method == "both" else None  # over its budget, refused before any solve
    sol = solve_duel(ps)
    results["win"] = _win_rows(zip(ps.patterns, sol.win_probs), args.digits)
    # skewness t / v^(3/2) = sign(t) * sqrt(t^2 / v^3), exact so that no float overflows
    t, v = sol.third_central_moment, sol.variance
    results["duration"] = {
        "mean": _exact_decimal(sol.mean, args.digits),
        "variance": _exact_decimal(v, args.digits),
        "std": sqrt_str(v, args.digits),
        "skewness": "nan" if v == 0 else sqrt_str(t * t / v**3, args.digits, t < 0),
    }
    if args.n is not None:
        results["coefficients"] = _series_rows(sol._series_pairs(args.n, Decimal), args.digits)
    if args.method == "both":
        y = [w / sol.mean for w in sol.win_probs]  # u_0 = N(1)^(-1) 1, the rates the equations are checked at
        if any(sum(a * yi for a, yi in zip(row, y)) != b for row, b in zip(*build_equilibrium_system(ps))):
            raise CrossCheckError("generating-function rates do not satisfy the stationary-rate equations")
        elif chain != (sol.win_probs, sol.mean, sol.variance):  # the independent check of N(1)'s elimination
            raise CrossCheckError("generating-function and absorbing-chain results disagree")
        elif args.n is not None and [row["exact"] for row in results["coefficients"][:CHECKED_TERMS + 1]] != [
                exact_str(c) for c in oracle_duration(ps, min(args.n, CHECKED_TERMS))]:  # the printed terms
            raise CrossCheckError("duration series and the occupancy DP on the race automaton disagree")
        results["equilibrium"] = {"rates": [exact_str(yi) for yi in y], "win": results["win"],
                                  "expected_duration": results["duration"]["mean"]}
        results["cross_check"] = "ok"
    return results


def _z_str(emp: Fraction, exact: Fraction, variance: Fraction, games: int, digits: int) -> str:
    """z = (emp - exact) / sqrt(variance / games), squared exactly so that no tiny variance underflows."""
    if not variance:  # a sure outcome: any deviation at all is a failure
        return "0" if emp == exact else "inf"
    z = math.sqrt((emp - exact) ** 2 * games / variance)
    return f"{-z if emp < exact else z:.{digits}f}"


def cmd_simulate(args, alphabet: Alphabet, patterns: list[Pattern]) -> dict:
    if len(patterns) < 2:
        raise PatternSetError("simulate requires at least two patterns")
    ps = PatternSet(alphabet, tuple(patterns))
    report = simulate(ps, args.games, args.seed)  # refuses a request over its budget before any draw
    sol = solve_duel(ps)

    rows = []
    for i, (p, exact) in enumerate(zip(ps.patterns, sol.win_probs)):
        emp = report.win_frequency(i)
        rows.append(
            {
                "pattern": p.text,
                "exact": exact_str(exact),
                "exact_decimal": decimal_str(exact, args.digits),
                "empirical": decimal_str(emp, args.digits),
                "z": _z_str(emp, exact, exact * (1 - exact), args.games, args.digits),
            }
        )
    return {
        "games": args.games,
        "seed": args.seed,
        "win": rows,
        "duration": {
            "exact_mean": _exact_decimal(sol.mean, args.digits),
            "empirical_mean": decimal_str(report.mean_duration, args.digits),
            "z": _z_str(report.mean_duration, sol.mean, sol.variance, args.games, args.digits),
        },
    }


def cmd_best_response(args, alphabet: Alphabet, patterns: list[Pattern]) -> dict:
    if len(patterns) != 1:
        raise PatternSetError("best-response requires exactly one opponent pattern")
    opponent = patterns[0]
    _check_candidates_budget(alphabet, args.length, len(opponent), args.digits)
    groups, skipped = _response_wins(
        alphabet, opponent.symbols, itertools.product(range(len(alphabet)), repeat=args.length))
    labels, text = alphabet.symbols, "".join if alphabet.single_char else ",".join  # as Pattern.text
    ranked = []
    # exact: float(w) is correctly rounded, so monotone, and float ties fall to w; as each group keeps product's order,
    # this is the stable sort of every candidate by its win
    for w, group in sorted(groups, key=lambda item: (float(item[0]), item[0]), reverse=True):
        row = {**_exact_decimal(w, args.digits), "percent": percent_str(w, args.digits)}
        ranked += [{"pattern": text(map(labels.__getitem__, a)), **row} for a in group]
    return {
        "opponent": opponent.text,
        "length": args.length,
        "candidates": ranked,
        "skipped": [{"pattern": text(map(labels.__getitem__, a)), "reason": reason} for a, reason in skipped],
    }


_SERIES_COLUMNS = ["n", "exact", "decimal"]
_WIN_COLUMNS = ["pattern", "exact", "decimal", "percent"]


def _primary_table(doc: dict) -> tuple[list[str], list[dict]]:
    """Columns and rows of the table each command's output is built around."""
    command, results = doc["command"], doc["results"]
    if command == "first-passage":
        return _SERIES_COLUMNS, results["coefficients"]
    if command == "best-response":
        return ["rank", *_WIN_COLUMNS], [{"rank": i + 1, **c} for i, c in enumerate(results["candidates"])]
    if command == "simulate":
        return ["pattern", "exact", "exact_decimal", "empirical", "z"], results["win"]
    return _WIN_COLUMNS, results["win"]


def _render_table(doc: dict, out) -> None:
    command, results = doc["command"], doc["results"]
    print(f"command:  {command}", file=out)
    alpha_txt = ", ".join(a["symbol"] + ":" + a["prob"] for a in doc["alphabet"])
    print(f"alphabet: {alpha_txt}", file=out)
    print(f"patterns: {', '.join(doc['patterns'])}", file=out)
    print(file=out)

    def table(columns: list[str], rows: list[dict]) -> None:
        widths = [max([len(col), *(len(str(r[col])) for r in rows)]) for col in columns]
        print("  ".join(col.ljust(w) for col, w in zip(columns, widths)), file=out)
        for r in rows:
            print("  ".join(str(r[col]).ljust(w) for col, w in zip(columns, widths)), file=out)

    if command == "first-passage":
        print(f"pattern {results['pattern']}", file=out)
        print(f"  pgf numerator:   {results['pgf']['numerator']}", file=out)
        print(f"  pgf denominator: {results['pgf']['denominator']}", file=out)
        print(f"  mean trials:     {results['mean']['exact']} ~ {results['mean']['decimal']}", file=out)
        print(f"  variance:        {results['variance']['exact']} ~ {results['variance']['decimal']}", file=out)
        print(file=out)
    elif command == "best-response":
        print(f"responses of length {results['length']} against {results['opponent']}", file=out)
        print(file=out)
    elif command == "simulate":
        print(f"games: {results['games']}  seed: {results['seed']}", file=out)
        print(file=out)
    table(*_primary_table(doc))

    if command == "best-response" and results["skipped"]:
        print(file=out)
        print("skipped: " + ", ".join(f"{s['pattern']} ({s['reason']})" for s in results["skipped"]), file=out)
    elif command == "simulate":
        dur = results["duration"]
        print(file=out)
        print(
            f"duration mean: exact {dur['exact_mean']['exact']} ~ {dur['exact_mean']['decimal']}"
            f"  empirical {dur['empirical_mean']}  z {dur['z']}",
            file=out,
        )
    elif command == "duel":
        print(file=out)
        dur = results["duration"]
        line = f"duration mean: {dur['mean']['exact']} ~ {dur['mean']['decimal']}"
        if results["method"] == "equilibrium":
            print(line, file=out)
            print(f"stationary rates: {', '.join(results['rates'])}", file=out)
        else:
            print(f"{line}  std: {dur['std']}  skewness: {dur['skewness']}", file=out)
        if results["method"] == "both":
            print(f"cross-check (stationary route): {results['cross_check']}", file=out)
        series = results.get("coefficients")
        if series is not None:
            print(file=out)
            table(_SERIES_COLUMNS, series)


def _render_csv(doc: dict, out) -> None:
    """The primary table as CSV; a coefficient series, when present, takes its place (plotting hook)."""
    series = doc["results"].get("coefficients")
    if series is not None:
        # no int, fraction literal or decimal holds a comma, quote or line break: csv.writer's bytes, unscanned;
        # row by row, since under `python -u` one big write to a closed pipe loses its tail without an error
        out.write(",".join(_SERIES_COLUMNS) + "\r\n")
        out.writelines(f"{r['n']},{r['exact']},{r['decimal']}\r\n" for r in series)
        return
    columns, rows = _primary_table(doc)
    writer = csv.writer(out)
    writer.writerow(columns)
    writer.writerows([row[col] for col in columns] for row in rows)


class _SeriesEncoder(json.JSONEncoder):
    """json.dump(indent=2)'s encoder, but a doc's coefficient rows are written one by one from a template: their
    strings hold only digits, '/', '.' and '-', as `_render_csv` relies on too, so they need no escaping."""

    def iterencode(self, o, _one_shot=False):
        if not (rows := o["results"].get("coefficients")):
            return super().iterencode(o, _one_shot)
        # one match: its unescaped second quote ends a string that ': ' makes a key, and only results has this key
        head, tail = "".join(super().iterencode({**o, "results": o["results"] | {"coefficients": []}}, True)).split(
            '"coefficients": []')
        rows = (',\n      {\n        "n": %d,\n        "exact": "%s",\n        "decimal": "%s"\n      }'
                % (r["n"], r["exact"], r["decimal"]) for r in rows)  # one write each: one string would double the peak
        return itertools.chain([head + '"coefficients": [' + next(rows)[1:]], rows, ["\n    ]" + tail])  # 1st: no ','


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high), so that other values are usage errors (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = exact_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {_brief(text)}") from None
        if value < low or (high is not None and value >= high):
            upper = "" if high is None else f" and < {high}"
            got = exact_str(value) if len(text) <= 20 else f"{Decimal(value):.3g}"
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}{upper}, got {got}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patdual",
        description="Exact win probabilities and durations for pattern races.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alphabet", required=True, help="label:fraction pairs, e.g. H:1/2,T:1/2")
        p.add_argument(
            "--patterns",
            required=True,
            action="append",
            help="comma-separated patterns; repeat the flag for multi-character-label alphabets",
        )
        p.add_argument("--digits", type=_int_in(0, 2**16), default=4, help="decimal digits in renderings")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("first-passage", help="distribution of trials until one pattern appears")
    add_common(p)
    p.add_argument("--n", type=_int_in(0), default=None, help="series length (default 4x mean)")

    p = sub.add_parser("duel", help="race several patterns against each other")
    add_common(p)
    p.add_argument("--method", choices=("pgf", "equilibrium", "both"), default="pgf")
    p.add_argument("--n", type=_int_in(0), default=None, help="also emit duration coefficients up to n")

    p = sub.add_parser("simulate", help="Monte Carlo cross-check of a race")
    add_common(p)
    p.add_argument("--games", type=_int_in(1), required=True)
    p.add_argument("--seed", type=_int_in(0, 2**64), default=0)

    p = sub.add_parser("best-response", help="rank all responses of a given length")
    add_common(p)
    p.add_argument("--length", type=_int_in(1), required=True)

    return parser


_PARSER = _build_parser()


def build_parser() -> argparse.ArgumentParser:
    """A handle on the argparse tree that this module builds once, at import.

    The handle is a shallow copy: attributes set on it, such as a wrapped
    `parse_args`, leave the shared tree alone, but it shares the tree's
    actions and subparsers, so callers must not add arguments to it.
    """
    return copy.copy(_PARSER)


_COMMANDS = {
    "first-passage": cmd_first_passage,
    "duel": cmd_duel,
    "simulate": cmd_simulate,
    "best-response": cmd_best_response,
}


def main(argv: list[str] | None = None) -> int:
    args = (parser := build_parser()).parse_args(argv)
    # argparse before Python 3.13 strips a flag value of exactly "--" (as in --n=--) and leaves []
    if any(v == [] or isinstance(v, list) and [] in v for v in vars(args).values()):
        parser.error("this Python's argparse drops a flag value of '--'")
    if args.command == "duel" and args.method == "equilibrium" and args.n is not None:
        parser.error("duel: --n needs --method pgf or both; the stationary-rate route gives no series")
    out = sys.stdout
    try:
        alphabet = parse_alphabet(args.alphabet)
        patterns = parse_patterns_option(args.patterns, alphabet)
        results = _COMMANDS[args.command](args, alphabet, patterns)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PatternSetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # SingularMatrixError and CrossCheckError among them
        print(f"error: {exc}", file=sys.stderr)
        return 4

    doc = {
        "command": args.command,
        "alphabet": [{"symbol": s, "prob": exact_str(p)} for s, p in zip(alphabet.symbols, alphabet.probs)],
        "patterns": [p.text for p in patterns],
        "results": results,
    }
    try:
        if args.format == "json":
            json.dump(doc, out, indent=2, cls=_SeriesEncoder)
            print(file=out)
        elif args.format == "csv":
            _render_csv(doc, out)
        else:
            _render_table(doc, out)
        out.flush()
    except BrokenPipeError:  # the reader has gone (`| head`): point fd 1 at devnull so exit flushes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
