"""Command-line front end.

Subcommands: first-passage, duel, simulate, best-response.  Probabilities
are accepted only as exact fraction literals and every exact quantity is
emitted as a num/den string, so JSON output round-trips without loss.
Decimal renderings use round-half-even at the configured digit count.

Exit codes: 0 success, 2 parse/usage errors, 3 precondition violations
(invalid pattern sets and the like), 4 internal failures (singular systems,
cross-check disagreement).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from fractions import Fraction

from .algebra import RationalFunction, SingularMatrixError
from .equilibrium import solve_equilibrium
from .oracle import simulate
from .patterns import (
    Alphabet,
    ParseError,
    Pattern,
    PatternSet,
    PatternSetError,
    _contains,
    parse_alphabet,
)
from .pgf import DuelSolution, first_passage_pgf, solve_duel

__all__ = ["main"]


class CrossCheckError(ArithmeticError):
    """The generating-function and stationary-rate routes disagreed."""


def _fixed_point(scaled: int, digits: int, negative: bool) -> str:
    """Render the integer scaled = |x| * 10**digits with `digits` decimals."""
    sign = "-" if negative else ""
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def decimal_str(x: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering with round-half-even."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    r = round(Fraction(x), digits)
    return _fixed_point(abs(r.numerator) * 10**digits // r.denominator, digits, r < 0)


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
    return decimal_str(x * 100, max(digits - 2, 0)) + "%"


def _exact_decimal(x: Fraction, digits: int) -> dict:
    return {"exact": str(x), "decimal": decimal_str(x, digits)}


def _win_rows(pairs, digits: int) -> list[dict]:
    """One {pattern, exact, decimal, percent} row per (pattern, win probability) pair."""
    return [
        {"pattern": p.text, **_exact_decimal(w, digits), "percent": percent_str(w, digits)}
        for p, w in pairs
    ]


def _series_rows(coeffs, digits: int) -> list[dict]:
    return [{"n": i, **_exact_decimal(c, digits)} for i, c in enumerate(coeffs)]


def parse_patterns_option(values: list[str], alphabet: Alphabet) -> list[Pattern]:
    """Expand --patterns occurrences into patterns.

    Each occurrence is split on commas.  When there are several tokens and
    every one parses as a bare pattern, the tokens are separate patterns
    (e.g. 'HH,TH'); otherwise the occurrence is a single pattern whose
    symbols are the comma-delimited tokens (needed for multi-character
    labels such as '10,2,10').
    """
    patterns: list[Pattern] = []
    for value in values:
        tokens = value.split(",")
        if len(tokens) > 1:
            try:
                patterns.extend(Pattern.parse(tok, alphabet) for tok in tokens)
                continue
            except ParseError:
                pass
        patterns.append(Pattern.parse(value, alphabet))
    return patterns


def _rf_json(rf: RationalFunction) -> dict:
    return {
        "numerator": [str(c) for c in rf.num.coeffs],
        "denominator": [str(c) for c in rf.den.coeffs],
    }


def cmd_first_passage(args, alphabet: Alphabet, patterns: list[Pattern]) -> dict:
    if len(patterns) != 1:
        raise PatternSetError("first-passage requires exactly one pattern")
    pattern = patterns[0]
    sol = DuelSolution(PatternSet(alphabet, (pattern,)), (first_passage_pgf(pattern),))
    n = args.n if args.n is not None else 4 * math.ceil(sol.mean)
    return {
        "pattern": pattern.text,
        "pgf": _rf_json(sol.duration),
        "mean": _exact_decimal(sol.mean, args.digits),
        "variance": _exact_decimal(sol.variance, args.digits),
        "coefficients": _series_rows(sol.duration.series(n), args.digits),
    }


def cmd_duel(args, alphabet: Alphabet, patterns: list[Pattern]) -> dict:
    if len(patterns) < 2:
        raise PatternSetError("duel requires at least two patterns")
    ps = PatternSet(alphabet, tuple(patterns))
    results: dict = {"method": args.method}

    if args.method != "equilibrium":
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
            results["coefficients"] = _series_rows(sol.duration.series(args.n), args.digits)
    if args.method != "pgf":
        eq = solve_equilibrium(ps)
        rates = [str(yi) for yi in eq.y]
        win = _win_rows(zip(ps.patterns, eq.win_probs), args.digits)
        mean = _exact_decimal(eq.expected_duration, args.digits)
        if args.method == "equilibrium":
            results.update(win=win, duration={"mean": mean}, rates=rates)
        elif (eq.win_probs, eq.expected_duration) != (sol.win_probs, sol.mean):
            raise CrossCheckError("generating-function and stationary-rate results disagree")
        else:
            results["equilibrium"] = {"rates": rates, "win": win, "expected_duration": mean}
            results["cross_check"] = "ok"
    return results


def cmd_simulate(args, alphabet: Alphabet, patterns: list[Pattern]) -> dict:
    if len(patterns) < 2:
        raise PatternSetError("simulate requires at least two patterns")
    ps = PatternSet(alphabet, tuple(patterns))
    sol = solve_duel(ps)
    report = simulate(ps, args.games, args.seed)

    rows = []
    for i, p in enumerate(ps.patterns):
        exact = sol.win_probs[i]
        emp = report.win_frequency(i)
        sigma = math.sqrt(float(exact * (1 - exact)) / args.games)
        rows.append(
            {
                "pattern": p.text,
                "exact": str(exact),
                "exact_decimal": decimal_str(exact, args.digits),
                "empirical": decimal_str(emp, args.digits),
                "z": f"{float(emp - exact) / sigma:.{args.digits}f}",
            }
        )
    mean_sigma = sol.std / math.sqrt(args.games)
    if mean_sigma > 0:
        mean_z = f"{float(report.mean_duration - sol.mean) / mean_sigma:.{args.digits}f}"
    else:
        # deterministic duration: any deviation at all is a failure
        mean_z = "0" if report.mean_duration == sol.mean else "inf"
    return {
        "games": args.games,
        "seed": args.seed,
        "win": rows,
        "duration": {
            "exact_mean": _exact_decimal(sol.mean, args.digits),
            "empirical_mean": decimal_str(report.mean_duration, args.digits),
            "z": mean_z,
        },
    }


def cmd_best_response(args, alphabet: Alphabet, patterns: list[Pattern]) -> dict:
    if len(patterns) != 1:
        raise PatternSetError("best-response requires exactly one opponent pattern")
    opponent = patterns[0]
    ranked = []
    skipped = []
    for symbols in itertools.product(range(len(alphabet)), repeat=args.length):
        candidate = Pattern(alphabet, symbols)
        if symbols == opponent.symbols:
            skipped.append({"pattern": candidate.text, "reason": "identical to opponent"})
            continue
        if _contains(opponent.symbols, symbols):
            skipped.append({"pattern": candidate.text, "reason": "substring of opponent"})
            continue
        if _contains(symbols, opponent.symbols):
            skipped.append({"pattern": candidate.text, "reason": "contains opponent"})
            continue
        sol = solve_duel(PatternSet(alphabet, (candidate, opponent)))
        ranked.append((sol.win_probs[0], symbols, candidate))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return {
        "opponent": opponent.text,
        "length": args.length,
        "candidates": _win_rows(((cand, wp) for wp, _, cand in ranked), args.digits),
        "skipped": skipped,
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
    """The primary table as CSV; a coefficient series comes first when present (plotting hook)."""
    series = doc["results"].get("coefficients")
    columns, rows = (_SERIES_COLUMNS, series) if series is not None else _primary_table(doc)
    writer = csv.writer(out)
    writer.writerow(columns)
    writer.writerows([row[col] for col in columns] for row in rows)


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high), so that other values are usage errors (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value >= high):
            upper = "" if high is None else f" and < {high}"
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}{upper}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--digits", type=_int_in(0), default=4, help="decimal digits in renderings")
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


_COMMANDS = {
    "first-passage": cmd_first_passage,
    "duel": cmd_duel,
    "simulate": cmd_simulate,
    "best-response": cmd_best_response,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        alphabet = parse_alphabet(args.alphabet)
        patterns = parse_patterns_option(args.patterns, alphabet)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # exact results print in full, however many digits they have
        try:
            results = _COMMANDS[args.command](args, alphabet, patterns)
        finally:
            sys.set_int_max_str_digits(limit)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PatternSetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SingularMatrixError, CrossCheckError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    doc = {
        "command": args.command,
        "alphabet": [
            {"symbol": s, "prob": str(p)} for s, p in zip(alphabet.symbols, alphabet.probs)
        ],
        "patterns": [p.text for p in patterns],
        "results": results,
    }
    if args.format == "json":
        json.dump(doc, out, indent=2)
        print(file=out)
    elif args.format == "csv":
        _render_csv(doc, out)
    else:
        _render_table(doc, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
