import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patdual import algebra, cli, equilibrium, oracle, pgf
from patdual.algebra import Poly, RationalFunction, SingularMatrixError
from patdual.cli import decimal_str, main, percent_str, sqrt_str
from patdual.patterns import Alphabet, Pattern, PatternSet, exact_str, parse_alphabet
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_decimal_rendering_is_half_even():
    assert decimal_str(F(62, 71), 4) == "0.8732"
    assert decimal_str(F(9110, 71), 4) == "128.3099"
    assert decimal_str(F(1, 8), 2) == "0.12"  # 0.125 rounds to even
    assert decimal_str(F(3, 8), 2) == "0.38"
    assert decimal_str(F(-1, 8), 2) == "-0.12"
    assert decimal_str(F(-3, 8), 2) == "-0.38"
    assert decimal_str(F(-1, 200), 2) == "0.00"  # -0.005 rounds to even, 0, which has no sign
    assert decimal_str(F(-1, 150), 2) == "-0.01"
    assert decimal_str(F(5), 0) == "5"
    assert percent_str(F(62, 71), 4) == "87.32%"
    assert percent_str(F(9, 71), 4) == "12.68%"
    assert sqrt_str(F(14884), 1) == "122.0"
    assert sqrt_str(F(2), 4) == "1.4142"
    assert sqrt_str(F(1, 4), 0) == "0"  # 0.5 rounds to even
    assert sqrt_str(F(9, 4), 0) == "2"
    assert sqrt_str(F(1, 10**12), 4, negative=True) == "-0.0000"  # as f"{-1e-6:.4f}"


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.fractions(),  # signed, small
        st.builds(F, st.integers(-(10**60), 10**60), st.integers(1, 10**6)),  # huge
        st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**60)),  # tiny
        st.builds(lambda k, d: F(2 * k + 1, 2 * 10**d), st.integers(-(10**4), 10**4), st.integers(0, 8)),  # ties
    ),
    st.integers(0, 6),
)
def test_percent_is_the_decimal_of_a_hundred_times_the_value(x, digits):
    # percent_str no longer forms x * 100; it must print the same bytes as the formula that did
    assert percent_str(x, digits) == decimal_str(x * 100, max(digits - 2, 0)) + "%"


def test_duel_table_output(capsys):
    code, out, _ = run(
        capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "TTTHTTT,TTHTTTTHT"
    )
    assert code == 0
    assert "62/71" in out and "9/71" in out
    assert "87.32%" in out and "12.68%" in out
    assert "9110/71" in out and "128.3099" in out
    assert "122.0" in out


def test_duel_json_round_trips_exact_fractions(capsys):
    doc = run_json(
        capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "TTTHTTT,TTHTTTTHT"
    )
    wins = doc["results"]["win"]
    assert F(wins[0]["exact"]) == F(62, 71)
    assert F(wins[1]["exact"]) == F(9, 71)
    assert F(doc["results"]["duration"]["mean"]["exact"]) == F(9110, 71)
    probs = [F(a["prob"]) for a in doc["alphabet"]]
    assert probs == [F(1, 2), F(1, 2)]


def test_duel_json_matches_golden_file(capsys):
    doc = run_json(
        capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "TTTHTTT,TTHTTTTHT"
    )
    golden = json.loads((DATA / "duel_long_pair.json").read_text())
    assert doc == golden


def test_duel_single_trial_race(capsys):
    doc = run_json(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "H,T")
    assert [w["exact"] for w in doc["results"]["win"]] == ["1/2", "1/2"]
    assert doc["results"]["duration"]["mean"]["exact"] == "1"
    assert doc["results"]["duration"]["std"] == "0.0000"
    assert doc["results"]["duration"]["skewness"] == "nan"  # undefined for a point mass


def test_duel_method_equilibrium_and_both(capsys):
    doc = run_json(
        capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH",
        "--method", "equilibrium",
    )
    assert doc["results"]["win"][0]["exact"] == "1/4"
    assert doc["results"]["duration"]["mean"]["exact"] == "3"
    assert doc["results"]["rates"] == ["1/12", "1/4"]

    doc = run_json(
        capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH",
        "--method", "both",
    )
    assert doc["results"]["cross_check"] == "ok"
    assert doc["results"]["equilibrium"]["win"][1]["exact"] == "3/4"


def test_duel_duration_coefficients_flag(capsys):
    doc = run_json(
        capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH", "--n", "3"
    )
    coeffs = doc["results"]["coefficients"]
    assert [c["exact"] for c in coeffs] == ["0", "0", "1/2", "1/4"]


def test_first_passage_output(capsys):
    doc = run_json(
        capsys, "first-passage", "--alphabet", "H:1/2,T:1/2", "--patterns", "TTHTTTTHT",
        "--n", "18",
    )
    coeffs = doc["results"]["coefficients"]
    assert len(coeffs) == 19
    assert coeffs[18]["exact"] == "493/262144"
    assert all(coeffs[i]["exact"] == "0" for i in range(9))

    doc = run_json(capsys, "first-passage", "--alphabet", "H:1/2,T:1/2", "--patterns", "H")
    assert doc["results"]["mean"]["exact"] == "2"
    assert len(doc["results"]["coefficients"]) == 9  # default n = 4 * ceil(mean)

    doc = run_json(capsys, "first-passage", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH")
    assert doc["results"]["mean"]["exact"] == "6"


def test_first_passage_pgf_coefficients_are_exact_strings(capsys):
    doc = run_json(capsys, "first-passage", "--alphabet", "H:1/3,T:2/3", "--patterns", "H")
    pgf = doc["results"]["pgf"]
    num = [F(c) for c in pgf["numerator"]]
    den = [F(c) for c in pgf["denominator"]]
    assert den[-1] == 1  # canonical monic denominator
    # p z / (1 - q z) normalized: num = -z/2, den = z - 3/2
    assert num == [F(0), F(-1, 2)]
    assert den == [F(-3, 2), F(1)]


def test_simulate_single_trial_race(capsys):
    doc = run_json(
        capsys, "simulate", "--alphabet", "H:1/2,T:1/2", "--patterns", "H,T",
        "--games", "2000", "--seed", "7",
    )
    assert doc["results"]["duration"]["empirical_mean"] == "1.0000"
    assert doc["results"]["games"] == 2000


def test_simulate_is_seed_reproducible(capsys):
    args = (
        "simulate", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH",
        "--games", "5000", "--seed", "11",
    )
    assert run_json(capsys, *args) == run_json(capsys, *args)


def test_simulate_z_of_a_win_probability_below_the_float_range(capsys):
    p = F(1, 10**20)  # the long pattern wins with probability 10^-340, which no float holds
    doc = run_json(capsys, "simulate", "--alphabet", f"H:{p},T:{1 - p}", "--patterns", "T," + "H" * 17, "--games", "10")
    z = {row["pattern"]: row["z"] for row in doc["results"]["win"]}
    assert z == {"T": "0.0000", "H" * 17: "-0.0000"}


def test_simulate_z_of_a_mean_whose_std_is_below_the_float_range(capsys):
    p = F(1, 10**700)  # HH against T: the duration's variance is about p, and its std underflows a float
    doc = run_json(capsys, "simulate", "--alphabet", f"H:{p},T:{1 - p}", "--patterns", "HH,T", "--games", "10")
    assert doc["results"]["duration"]["z"] == "-0.0000"  # the mean, 1 + p, against an empirical 1
    assert [row["z"] for row in doc["results"]["win"]] == ["-0.0000", "0.0000"]
    # H against T: every game lasts one trial, so the variance is 0 and a z of 0 means no deviation at all
    doc = run_json(capsys, "simulate", "--alphabet", "H:1/2,T:1/2", "--patterns", "H,T", "--games", "10")
    assert doc["results"]["duration"]["z"] == "0"


@pytest.mark.parametrize("opponent, reply, odds", [
    ("HHH", "THH", "7/8"), ("HHT", "THH", "3/4"), ("HTH", "HHT", "2/3"), ("HTT", "HHT", "2/3"),
    ("THH", "TTH", "2/3"), ("THT", "TTH", "2/3"), ("TTH", "HTT", "3/4"), ("TTT", "HTT", "7/8"),
])
def test_best_response_gives_conways_replies_in_penneys_game(capsys, opponent, reply, odds):
    doc = run_json(capsys, "best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", opponent, "--length", "3")
    top = doc["results"]["candidates"][0]
    assert (top["pattern"], top["exact"]) == (reply, odds)


def test_best_response_examples(capsys):
    doc = run_json(
        capsys, "best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH",
        "--length", "2",
    )
    top = doc["results"]["candidates"][0]
    assert top["pattern"] == "TH" and top["exact"] == "3/4"
    assert {s["pattern"] for s in doc["results"]["skipped"]} == {"HH"}

    doc = run_json(
        capsys, "best-response", "--alphabet", "H:1/3,T:2/3", "--patterns", "H",
        "--length", "1",
    )
    assert doc["results"]["candidates"] == [
        {"pattern": "T", "exact": "2/3", "decimal": "0.6667", "percent": "66.67%"}
    ]

    # every candidate skipped: the table has a header and no rows
    code, out, _ = run(
        capsys, "best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", "HT", "--length", "1"
    )
    assert code == 0
    assert "skipped: H (substring of opponent), T (substring of opponent)" in out


def test_best_response_ties_keep_ascending_symbol_order(capsys):
    doc = run_json(capsys, "best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", "HTH", "--length", "4")
    ranked = [(row["pattern"], F(row["exact"])) for row in doc["results"]["candidates"]]
    assert ranked[:4] == [("TTHH", F(5, 12)), ("TTHT", F(5, 12)), ("TTTH", F(5, 12)), ("HHHT", F(2, 5))]
    # win probabilities descend, and equal ones keep the order in which the candidates were enumerated (H < T)
    assert all(a[1] > b[1] or (a[1] == b[1] and a[0] < b[0]) for a, b in zip(ranked, ranked[1:]))


def test_best_response_ranks_wins_below_the_float_range_exactly(capsys):
    tiny = F(1, 10**400)
    doc = run_json(capsys, "best-response", "--alphabet", f"A:{tiny},B:{tiny},C:{1 - 2 * tiny}", "--patterns", "CC",
                   "--length", "2")
    ranked = [(row["pattern"], F(row["exact"])) for row in doc["results"]["candidates"]]
    assert len(ranked) == 8 and all(float(w) == 0.0 for _, w in ranked)
    assert len({w for _, w in ranked}) == 4  # A and B weigh the same: AA and BB tie, as do AB and BA, AC and BC, CA and CB
    # descending exactly, though every float key is 0.0, and equal wins keep product's order (A < B < C)
    assert ranked == sorted(sorted(ranked), key=lambda row: row[1], reverse=True)


def test_best_response_long_opponent_includes_strong_counter(capsys):
    doc = run_json(
        capsys, "best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", "TTHTTTTHT",
        "--length", "7",
    )
    by_pattern = {c["pattern"]: c["exact"] for c in doc["results"]["candidates"]}
    assert by_pattern["TTTHTTT"] == "62/71"


def test_csv_output_is_parseable(capsys):
    code, out, _ = run(
        capsys, "first-passage", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH",
        "--n", "4", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "exact", "decimal"]
    assert rows[3] == ["2", "1/4", "0.2500"]

    code, out, _ = run(
        capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH",
        "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["pattern", "exact", "decimal", "percent"]
    assert rows[1][1] == "1/4"

    code, out, _ = run(
        capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH",
        "--n", "3", "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["n", "exact", "decimal"], ["0", "0", "0.0000"], ["1", "0", "0.0000"],
                    ["2", "1/2", "0.5000"], ["3", "1/4", "0.2500"]]

    code, out, _ = run(
        capsys, "best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH",
        "--length", "2", "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["rank", "pattern", "exact", "decimal", "percent"]
    assert rows[1] == ["1", "TH", "3/4", "0.7500", "75.00%"]


def test_multi_character_labels_use_repeated_flags(capsys):
    doc = run_json(
        capsys, "duel", "--alphabet", "lo:1/2,hi:1/2",
        "--patterns", "lo,lo", "--patterns", "hi,lo",
    )
    assert doc["patterns"] == ["lo,lo", "hi,lo"]
    assert doc["results"]["win"][1]["exact"] == "3/4"


def test_bare_pattern_over_digit_alphabet(capsys):
    doc = run_json(
        capsys, "first-passage",
        "--alphabet", "1:1/6,2:1/6,3:1/6,4:1/6,5:1/6,6:1/6",
        "--patterns", "123", "--n", "3",
    )
    assert doc["results"]["mean"]["exact"] == "216"


def test_a_pattern_list_keeps_no_tokens_of_a_split_that_failed():
    """'H,TT' over labels H and TT: 'H' parses alone and 'TT' does not, so the occurrence is the one pattern (H,TT)."""
    assert [p.text for p in cli.parse_patterns_option(["H,TT"], parse_alphabet("H:1/2,TT:1/2"))] == ["H,TT"]


def test_a_duel_of_multi_character_patterns_whose_first_token_parses_alone(capsys):
    doc = run_json(capsys, "duel", "--alphabet", "H:1/2,TT:1/2", "--patterns", "H,TT", "--patterns", "TT,H")
    assert doc["patterns"] == ["H,TT", "TT,H"]
    assert sum(F(w["exact"]) for w in doc["results"]["win"]) == 1


def test_a_one_symbol_pattern_over_multi_character_labels_is_its_label(capsys):
    doc = run_json(capsys, "first-passage", "--alphabet", "10:1/2,2:1/2", "--patterns", "10", "--n", "3")
    assert doc["patterns"] == ["10"]
    assert [c["exact"] for c in doc["results"]["coefficients"]] == ["0", "1/2", "1/4", "1/8"]


def test_a_comma_list_over_a_multi_character_label_is_one_pattern(capsys):
    """Over H, T and TT, 'TT,H' is the one pattern (TT,H), never the two patterns (T,T) and (H)."""
    doc = run_json(capsys, "first-passage", "--alphabet", "H:1/3,T:1/3,TT:1/3", "--patterns", "TT,H", "--n", "2")
    assert doc["patterns"] == ["TT,H"]
    assert doc["results"]["mean"]["exact"] == "9"
    doc = run_json(capsys, "duel", "--alphabet", "H:1/3,T:1/3,TT:1/3", "--patterns", "H,T,T", "--patterns", "TT,H")
    assert doc["patterns"] == ["H,T,T", "TT,H"]
    assert sum(F(w["exact"]) for w in doc["results"]["win"]) == 1


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@st.composite
def series_rows(draw):
    """Rows shaped as _series_rows builds them: n >= 0, exact 'a/b', 'a' or '-a/b', a decimal with 0-12 places."""
    digits = draw(st.integers(0, 12))
    big = st.integers(0, 10**draw(st.sampled_from([3, 30, 3000])))
    rows = []
    for n in draw(st.lists(st.integers(0, 10**6), max_size=8)):
        x = F(draw(big) * draw(st.sampled_from([1, -1])), draw(big) + 1)
        rows.append({"n": n, "exact": exact_str(x), "decimal": decimal_str(x, digits)})
    return rows


@settings(max_examples=200, deadline=None)
@given(series_rows())
def test_series_csv_is_what_csv_writer_writes(rows):
    out = io.StringIO()
    cli._render_csv({"command": "first-passage", "results": {"coefficients": rows}}, out)
    assert out.getvalue() == csv_text([["n", "exact", "decimal"], *([r["n"], r["exact"], r["decimal"]] for r in rows)])


@pytest.mark.parametrize("alphabet, patterns", [
    ("H:1/2,T:1/2", [["HTH"], ["HH,THT"]]),
    ("A:1/2,B:1/3,C:1/6", [["CAB"], ["AB,CA,BB"]]),
    ("H:1/2,TT:1/2", [["H,TT,H"], ["H,TT", "TT,H"]]),
])
def test_series_csv_of_real_requests_is_what_csv_writer_writes(alphabet, patterns, capsys):
    requests = [["first-passage", *(f"--patterns={p}" for p in patterns[0])],
                ["duel", *(f"--patterns={p}" for p in patterns[1]), "--method", "both"]]
    for argv in requests:
        argv += ["--alphabet", alphabet, "--n", "40"]
        rows = run_json(capsys, *argv)["results"]["coefficients"]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0 and len(rows) == 41
        assert out == csv_text([["n", "exact", "decimal"], *([r["n"], r["exact"], r["decimal"]] for r in rows)])


def test_only_win_tables_go_through_csv_writer(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.writer")

    monkeypatch.setattr(cli.csv, "writer", refuse)
    assert run(capsys, "first-passage", "--alphabet", "H:1/2,T:1/2", "--patterns", "HTH", "--format", "csv")[0] == 0
    series_duel = ["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH", "--n", "9", "--format", "csv"]
    assert run(capsys, *series_duel)[0] == 0
    win_table = ["duel", "--alphabet", "H:1/2,TT:1/2", "--patterns", "H,TT", "--patterns", "TT,H", "--format", "csv"]
    with pytest.raises(AssertionError, match="csv.writer"):
        main(win_table)
    monkeypatch.undo()
    code, out, _ = run(capsys, *win_table)
    assert code == 0
    lines = out.split("\r\n")
    assert lines[1].startswith('"H,TT",') and lines[2].startswith('"TT,H",')
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["pattern", "H,TT", "TT,H"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_exits_141_quietly(fmt, unbuffered):
    """`patdual ... | head -1`: megabytes of output against a 64 KiB pipe, so a write after the reader has gone fails.

    Unbuffered (-u), a text stream writes straight to the pipe and ignores a short write, so a table written in one
    piece would lose its tail and exit 0; written row by row, the next row meets the closed pipe.
    """
    src = str(Path(__file__).parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, *(["-u"] if unbuffered else []), "-m", "patdual.cli", "first-passage",
            "--alphabet", "H:1/2,T:1/2", "--patterns", "HTH", "--n", "3000", "--format", fmt]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() in (b"n,exact,decimal\r\n", b"{\n")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 141


def test_exit_code_2_on_parse_errors(capsys):
    code, _, err = run(capsys, "duel", "--alphabet", "H:0.5,T:0.5", "--patterns", "HH,TH")
    assert code == 2 and "fraction" in err
    code, _, err = run(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HX,TH")
    assert code == 2 and "unknown symbol" in err


def test_exit_code_3_on_precondition_violations(capsys):
    code, _, err = run(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "H,TH")
    assert code == 3 and "substring" in err
    code, _, err = run(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH")
    assert code == 3
    code, _, err = run(
        capsys, "first-passage", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH"
    )
    assert code == 3


def test_exit_code_4_on_internal_failures(capsys, monkeypatch):
    def boom(args, alphabet, patterns):
        raise SingularMatrixError(0)

    monkeypatch.setitem(cli._COMMANDS, "duel", boom)
    code, _, err = run(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH")
    assert code == 4 and "pivot" in err


def test_method_both_checks_the_chain_oracle(capsys, monkeypatch):
    oracle = cli.oracle_win_probs
    monkeypatch.setattr(cli, "oracle_win_probs", lambda ps: oracle(ps)._replace(mean=oracle(ps).mean + 1))
    code, _, err = run(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH", "--method", "both")
    assert code == 4 and "absorbing-chain" in err


def test_method_both_checks_the_series_by_occupancy_dp(capsys, monkeypatch):
    argv = ("duel", "--alphabet", "H:1/3,T:2/3", "--patterns", "HHT,THT", "--method", "both", "--n", "150")
    doc = run_json(capsys, *argv)
    assert doc["results"]["cross_check"] == "ok" and len(doc["results"]["coefficients"]) == 151

    checked = []
    dp = cli.oracle_duration

    def off_by_one_ulp(ps, n):
        checked.append(n)
        series = dp(ps, n)
        return (*series[:-1], series[-1] + F(1, 3**n))

    monkeypatch.setattr(cli, "oracle_duration", off_by_one_ulp)
    code, _, err = run(capsys, *argv)
    assert code == 4 and "occupancy DP" in err
    assert checked == [cli.CHECKED_TERMS]


def refuse_simulation_work(monkeypatch) -> None:
    """Make building the simulator's automaton and solving the race fail: a refused request does neither."""
    monkeypatch.setattr(oracle, "build_automaton", lambda *args: pytest.fail("the automaton was built"))
    monkeypatch.setattr(cli, "solve_duel", lambda *args: pytest.fail("the race was solved"))


def test_simulation_over_budget_exits_3_without_simulating(capsys, monkeypatch):
    refuse_simulation_work(monkeypatch)
    # the exact mean duration is 1,000,001,000,001 trials
    code, _, err = run(
        capsys, "simulate", "--alphabet", "H:1/1000000,T:999999/1000000", "--patterns", "HHH,HHT",
        "--games", "1",
    )
    assert code == 3 and "budget" in err
    assert err.count("\n") == 1 and len(err.encode()) < 200


def test_simulation_over_budget_prints_a_huge_mean_in_brief(capsys, monkeypatch):
    refuse_simulation_work(monkeypatch)
    # the exact mean duration is about 10^400 trials
    code, _, err = run(
        capsys, "simulate", "--alphabet", f"H:1/{10**200},T:{10**200 - 1}/{10**200}", "--patterns", "HHH,HHT",
        "--games", "1",
    )
    assert code == 3 and "budget" in err and "(401 characters)" in err
    assert err.count("\n") == 1 and len(err.encode()) < 200


def test_an_admitted_simulation_solves_its_stationary_rates_once(capsys, monkeypatch):
    calls, solve = [], oracle.solve_equilibrium
    monkeypatch.setattr(oracle, "solve_equilibrium", lambda ps: calls.append(ps) or solve(ps))
    doc = run_json(capsys, "simulate", "--alphabet", "H:1/2,T:1/2", "--patterns", "HHT,THH", "--games", "100")
    assert doc["results"]["games"] == 100
    assert len(calls) == 1  # the budget's mean; the race itself is solved by solve_duel


def test_a_chain_cross_check_over_budget_exits_3_before_any_chain_solve(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "solve_linear_system", lambda *args: pytest.fail("solved over the automaton"))
    monkeypatch.setattr(oracle, "_bareiss", lambda *args: pytest.fail("eliminated over the automaton"))
    patterns = "H" * (oracle.CHAIN_STATES_BUDGET + 1) + ",T"
    code, _, err = run(capsys, "duel", "--method", "both", "--alphabet", "H:1/2,T:1/2", "--patterns", patterns)
    assert code == 3 and "budget" in err
    assert len(err.encode()) < 200


def test_requests_over_a_work_budget_exit_3_without_working(capsys, monkeypatch):
    def work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(RationalFunction, "series", work)
    monkeypatch.setattr(pgf.DuelSolution, "duration_series", work)  # the series of duel --n and first-passage
    monkeypatch.setattr(cli, "solve_duel", work)
    monkeypatch.setattr(cli, "first_passage_pgf", work)
    monkeypatch.setattr(cli, "_response_wins", work)  # best-response's solves, which do not call solve_duel
    for argv in (
        # default --n = 4 * ceil(mean) = 37,320 coefficients over denominators up to 6^37320
        ["first-passage", "--alphabet", "A:1/2,B:1/3,C:1/6", "--patterns", "CCCCC"],
        ["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TT", "--n", "100000000"],
        # 1.2M exact digits, but 34M in the decimal column
        ["first-passage", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH", "--n", "2000", "--digits", "17000"],
        ["best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", "HHT", "--length", "22"],
        ["best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", "HHT", "--length", str(10**9)],
        # 1,024 and 65,536 candidates under the candidate budget, but 41 MB and 265 MB of digits
        ["best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", "H" * 12, "--length", "10", "--digits", "20000",
         "--format", "csv"],
        ["best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", "H" * 17, "--length", "16", "--digits", "2000"],
        # 16,384 candidates at 4 digits, but each exact win prints about 22,000 digits: about 160 MB in all
        ["best-response", "--alphabet", f"A:1/{10**1000},B:1/3,C:1/3,D:{10**1000 - 3}/{3 * 10**1000}",
         "--patterns", "ABCD", "--length", "7"],
        # default --n = 4 * ceil(mean), about 4 * 10^400: past the float range
        ["first-passage", "--alphabet", f"H:1/{10**200},T:{10**200 - 1}/{10**200}", "--patterns", "HH"],
        # default --n = 4 * (2^1601 - 2): refused from the mean alone, before the PGF is built
        ["first-passage", "--alphabet", "H:1/2,T:1/2", "--patterns", "H" * 1600],
        ["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH", "--n", str(10**400)],
        # past the interpreter's int-to-text digit limit
        ["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH", "--n", "1" * 5000],
        ["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH", "--n", "+" + "1" * 5000],
        # int() reads Arabic-Indic digits, so their value is read whatever the literal's length
        ["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH", "--n", "\u0665" * 5000],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "budget" in err, argv
        assert len(err.encode()) < 200, argv  # huge q and n are printed in brief


def test_candidate_budget_counts_the_exact_column():
    alphabet = parse_alphabet(f"A:1/{10**1000},B:1/3,C:1/3,D:{10**1000 - 3}/{3 * 10**1000}")
    # --length 5 printed 10.2 MB, within the 2^25-digit budget; --length 7 would print about 160 MB
    cli._check_candidates_budget(alphabet, 5, 4, 4)
    with pytest.raises(ValueError, match=r"4\^7 candidates at 4 digits against 4 symbols over q = 3\.00e\+1000"):
        cli._check_candidates_budget(alphabet, 7, 4, 4)
    # on the fair coin the exact column is short, and the decimal and percent columns still decide
    coin = parse_alphabet("H:1/2,T:1/2")
    cli._check_candidates_budget(coin, 10, 12, 16000)
    with pytest.raises(ValueError, match="could print"):
        cli._check_candidates_budget(coin, 10, 12, 17000)


def test_benchmark_decks_are_ten_times_under_the_work_budgets(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import workloads

    monkeypatch.setattr(cli, "SERIES_DIGITS_BUDGET", cli.SERIES_DIGITS_BUDGET // 10)
    monkeypatch.setattr(cli, "CANDIDATES_BUDGET", cli.CANDIDATES_BUDGET // 10)
    for workload in workloads.WORKLOADS:
        for argv in workloads.deck(workload, 0):
            flags = dict(zip(argv[1::2], argv[2::2]))
            alphabet = parse_alphabet(flags["--alphabet"])
            if "--n" in flags:
                cli._check_series_budget(alphabet, int(flags["--n"]), int(flags.get("--digits", 4)))
            if "--length" in flags:
                opponent = Pattern.parse(flags["--patterns"], alphabet)
                length, digits = int(flags["--length"]), int(flags.get("--digits", 4))
                cli._check_candidates_budget(alphabet, length, len(opponent), digits)
            if argv[0] == "simulate":
                patterns = tuple(Pattern.parse(text, alphabet) for text in flags["--patterns"].split(","))
                mean = pgf.solve_duel(PatternSet(alphabet, patterns)).mean
                assert max(int(flags["--games"]), oracle._CHUNK) * mean <= oracle.SIMULATION_BUDGET // 10, argv


def record_solves(monkeypatch) -> list:
    """(module, matrix, rhs) of every solve_linear_system call made by pgf, equilibrium and oracle."""
    calls = []
    for module in (pgf, equilibrium, oracle):
        def recorded(matrix, rhs, solve=module.solve_linear_system, module=module):
            calls.append((module, matrix, rhs))
            return solve(matrix, rhs)

        monkeypatch.setattr(module, "solve_linear_system", recorded)
    return calls


def record_series_work(monkeypatch) -> dict:
    """Per name, the calls of each step on the rational-function route to a series."""
    calls = {}
    for owner, name in ((RationalFunction, "__init__"), (RationalFunction, "series"),
                        (RationalFunction, "limit_at_one"), (pgf, "build_duel_matrix"),
                        (pgf, "solve_polynomial_system"), (algebra, "poly_gcd")):
        def recorded(*args, original=getattr(owner, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, recorded)
    return calls


def test_duel_series_needs_no_rational_function_elimination(capsys, monkeypatch):
    solves, calls = record_solves(monkeypatch), record_series_work(monkeypatch)
    doc = run_json(
        capsys, "duel", "--alphabet", "A:1/2,B:1/3,C:1/6", "--patterns", "ABA,CAB,BBC", "--method", "both", "--n", "40"
    )
    assert len(doc["results"]["coefficients"]) == 41 and doc["results"]["cross_check"] == "ok"
    assert solves and all(not isinstance(v, RationalFunction) for _, matrix, _ in solves for row in matrix for v in row)
    # the coefficients come from the recurrence in t: no polynomial solve, no gcd and no rational function at all
    assert calls == {}


def test_fair_coin_series_takes_no_wide_gcd(capsys, monkeypatch):
    widths = []

    def recorded(*args, gcd=math.gcd):
        widths.append(max(abs(v).bit_length() for v in args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", recorded)  # Fraction(n, d) looks math.gcd up at each call
    monkeypatch.setattr(pgf, "gcd", recorded)
    coin = Alphabet.coin(F(1, 2))
    sol = pgf.DuelSolution(PatternSet(coin, tuple(Pattern.parse(text, coin) for text in ("HTHHT", "THTTH", "HHHTT"))))
    series = sol.duration_series(2000)
    # d = 2: each term's denominator 2^t is reduced by a shift, and the term is built without Fraction's own gcd
    assert series[2000].denominator.bit_length() > 1000 and widths and max(widths) <= 64
    doc = run_json(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HTHHT,THTTH,HHHTT", "--method", "both",
                   "--n", "40")
    assert doc["results"]["cross_check"] == "ok"


def test_first_passage_series_comes_from_the_recurrence(capsys, monkeypatch):
    calls = record_series_work(monkeypatch)
    doc = run_json(capsys, "first-passage", "--alphabet", "A:1/2,B:1/3,C:1/6", "--patterns", "ABAAB", "--n", "40")
    # the printed PGF alone is built, with its one polynomial solve and one gcd; no series is taken from it
    assert calls == {"solve_polynomial_system": 1, "poly_gcd": 1, "__init__": 1}
    printed = [[F(c) for c in doc["results"]["pgf"][part]] for part in ("numerator", "denominator")]
    series = RationalFunction(Poly(printed[0]), Poly(printed[1])).series(40)
    assert [F(row["exact"]) for row in doc["results"]["coefficients"]] == list(series)


@pytest.mark.parametrize("alphabet", ["H:1/101,T:100/101", "A:1/7,B:2/11,C:52/77"])
def test_race_systems_are_solved_over_the_integers(capsys, alphabet, monkeypatch):
    calls, eliminations, replays = record_solves(monkeypatch), [], []
    bareiss, replay = algebra._bareiss, algebra._Elimination.replay
    for module in (algebra, pgf, oracle):
        def recorded(rows, module=module):
            y, d, kept = bareiss(rows)
            eliminations.append((module, len(calls), rows, kept))
            return y, d, kept

        monkeypatch.setattr(module, "_bareiss", recorded)
    monkeypatch.setattr(
        algebra._Elimination, "replay", lambda self, rhs: replays.append((self, rhs)) or replay(self, rhs)
    )
    patterns = "HTTH,TTHT,HHH" if alphabet.startswith("H") else "ABC,CAB,BBA"
    doc = run_json(capsys, "duel", "--alphabet", alphabet, "--patterns", patterns, "--method", "both")
    assert doc["results"]["cross_check"] == "ok"
    # N(1) is eliminated by pgf itself and the chain by oracle itself; only the stationary rates,
    # which pass their Fraction system as it is built, go through solve_linear_system, once
    assert [module for module, _, _ in calls] == [equilibrium]
    # the stationary-rate solve runs exactly one Bareiss elimination, N(1) and the chain one each: all on integer rows
    assert [call for module, call, _, _ in eliminations if module is algebra] == [1]
    (n1,) = [kept for module, _, _, kept in eliminations if module is pgf]
    (chain,) = [kept for module, _, _, kept in eliminations if module is oracle]
    assert len(n1.matrix) == 3 and len(eliminations) == 3
    symbols = parse_alphabet(alphabet)
    ps = PatternSet(symbols, tuple(Pattern.parse(text, symbols) for text in patterns.split(",")))
    assert len(chain.matrix) == oracle.build_automaton(ps).n_transient
    assert all(type(v) is int for _, _, rows, _ in eliminations for row in rows for v in row)
    # every right-hand side goes through the verified replay: one per elimination, then u_1 and u_2
    # on N(1)'s and the second visits on the chain's
    counts = [sum(self is kept for self, _ in replays) for *_, kept in eliminations]
    assert counts == [3 if kept is n1 else 2 if kept is chain else 1 for *_, kept in eliminations]
    assert len(replays) == 6
    assert all(type(v) is int for _, rhs in replays for v in rhs)


def test_duel_does_not_import_numpy():
    script = (
        "import contextlib, io, sys\n"
        "from patdual import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['duel', '--alphabet', 'H:1/2,T:1/2', '--patterns', 'HHT,THH']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["duel", "--patterns", "HH,TH"])
    assert exc.value.code == 2


def test_exact_values_of_any_size(capsys):
    limit = sys.get_int_max_str_digits()
    p = F(1, 10**6)
    doc = run_json(
        capsys, "first-passage", "--alphabet", f"H:{p},T:{1 - p}", "--patterns", "H", "--n", "800"
    )
    assert sys.get_int_max_str_digits() == limit
    last = doc["results"]["coefficients"][-1]["exact"]
    assert len(last) > limit
    sys.set_int_max_str_digits(0)
    try:
        assert F(last) == p * (1 - p) ** 799
    finally:
        sys.set_int_max_str_digits(limit)


def test_fraction_literals_of_any_size(capsys):
    limit = sys.get_int_max_str_digits()
    big = 10**4400  # 4,401 digits, past the interpreter's default limit of 4,300
    sys.set_int_max_str_digits(0)
    try:
        alphabet = f"H:1/{big},T:{big - 1}/{big}"
        bad = f"H:1/{big},T:1/{big}"
    finally:
        sys.set_int_max_str_digits(limit)

    doc = run_json(capsys, "duel", "--alphabet", alphabet, "--patterns", "HH,TH")
    assert sys.get_int_max_str_digits() == limit
    code, _, err = run(capsys, "duel", "--alphabet", bad, "--patterns", "HH,TH")
    assert code == 2 and "invalid alphabet" in err  # probabilities that do not sum to 1
    assert sys.get_int_max_str_digits() == limit

    coin = Alphabet.coin(F(1, big))
    win_probs = pgf.solve_duel(PatternSet(coin, tuple(Pattern.parse(t, coin) for t in ("HH", "TH")))).win_probs
    sys.set_int_max_str_digits(0)
    try:
        assert tuple(F(row["exact"]) for row in doc["results"]["win"]) == win_probs
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_leaves_the_int_digit_limit_alone(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda *args: calls.append(args))
    limit = sys.get_int_max_str_digits()
    big = "1" + "0" * 4400  # 10^4400, past the interpreter's default limit of 4,300 digits
    doc = run_json(capsys, "first-passage", "--alphabet", "H:1/1000000,T:999999/1000000", "--patterns", "H", "--n", "800")
    assert len(doc["results"]["coefficients"][-1]["exact"]) > limit
    doc = run_json(capsys, "duel", "--alphabet", f"H:1/{big},T:{'9' * 4400}/{big}", "--patterns", "HH,TH")
    assert doc["alphabet"][0]["prob"] == f"1/{big}"
    doc = run_json(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH", "--digits", "5000")
    assert doc["results"]["win"][0]["decimal"] == "0.25" + "0" * 4998
    assert calls == []


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    inits = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **kw: inits.append(a) or init(self, *a, **kw))
    assert run_json(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH")["patterns"] == ["HH", "TH"]
    with pytest.raises(SystemExit) as exc:
        main(["duel", "--patterns", "HH,TH"])
    assert exc.value.code == 2
    # --patterns appends: the second request must not see the first one's patterns
    assert run_json(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HHT,THH")["patterns"] == ["HHT", "THH"]
    assert inits == []


def test_patching_a_parser_handle_leaves_the_next_request_alone(capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a patched handle was used")

    handle = cli.build_parser()
    handle.parse_args = refuse
    assert cli.build_parser() is not handle
    assert run_json(capsys, "duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH")["patterns"] == ["HH", "TH"]


def test_duel_std_and_skewness_are_exact(capsys):
    def duration(alphabet, patterns, *flags):
        return run_json(capsys, "duel", "--alphabet", alphabet, "--patterns", patterns, *flags)["results"]["duration"]

    # moments far past the float range
    p = F(1, 10**20)
    dur = duration(f"H:{p},T:{1 - p}", "HHHHHHHHH,THHHHHHHH")
    variance, std = F(dur["variance"]["exact"]), F(dur["std"])
    assert (std - F(1, 20000)) ** 2 <= variance <= (std + F(1, 20000)) ** 2
    assert dur["skewness"] == "2.0000"
    alphabet = parse_alphabet(f"H:{p},T:{1 - p}")
    sol = pgf.solve_duel(PatternSet(alphabet, tuple(Pattern.parse(t, alphabet) for t in ("HHHHHHHHH", "THHHHHHHH"))))
    assert abs(F(sol.std) / std - 1) < F(1, 10**15)  # the float std keeps its leading bits too
    assert f"{sol.skewness:.4f}" == "2.0000"
    dur = duration(f"H:{p},T:{1 - p}", "HHHHHHHHH,THHHHHHHH", "--digits", "0")
    assert "." not in dur["std"] and dur["skewness"] == "2"
    # negative skewness keeps its sign; here it is exactly -8/3
    assert duration("H:1/10,T:9/10", "H,TT")["skewness"] == "-2.6667"


@pytest.mark.parametrize(
    "argv",
    [
        ["duel", "--patterns", "HH,TH", "--n", "-1"],
        ["simulate", "--patterns", "HH,TH", "--games", "0"],
        ["best-response", "--patterns", "HH", "--length", "0"],
        ["simulate", "--patterns", "HH,TH", "--games", "10", "--seed", "-1"],
        ["simulate", "--patterns", "HH,TH", "--games", "10", "--seed", str(2**64)],
        ["duel", "--patterns", "HH,TH", "--digits", "-1"],
        ["duel", "--patterns", "HH,TH", "--method", "equilibrium", "--n", "5"],
        ["duel", "--patterns", "HH,TH", "--digits", "1000000"],
        ["duel", "--patterns", "HH,TH", "--digits", str(10**400)],
        ["simulate", "--patterns", "HH,TH", "--games", "10", "--seed", "1" * 5000],
        ["duel", "--patterns", "HH,TH", "--n", "-" + "1" * 5000],
    ],
)
def test_bad_flag_values_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--alphabet", "H:1/2,T:1/2"])
    assert exc.value.code == 2
    # an integer is read as one whatever its length, and a huge one is printed in brief
    message = capsys.readouterr().err.splitlines()[-1]
    assert "invalid int value" not in message and len(message) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH", "--n", "x" * 5000],
        ["duel", "--alphabet", "x" * 5000, "--patterns", "HH,TH"],
        ["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH," + "Q" * 5000],
    ],
)
def test_rejected_values_are_echoed_in_brief(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert "characters)" in message and len(message.encode()) < 200


@pytest.mark.parametrize(
    "argv, code",
    [
        (["duel", "--alphabet", "H:1/" + "1" * 3000 + ",T:1/2", "--patterns", "HH,TH"], 2),  # the sum
        (["duel", "--alphabet", "x" * 150 + ":3/2,T:1/2", "--patterns", "TT"], 2),  # the label
        (["duel", "--alphabet", "H:" + "1" * 3000 + "/2,T:1/2", "--patterns", "HH"], 2),  # the probability
        (["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "H" * 5000 + "," + "H" * 5000], 3),  # duplicates
        (["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "H" * 5000 + "," + "H" * 4999], 3),  # a substring
    ],
)
def test_invalid_alphabets_and_pattern_sets_are_echoed_in_brief(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "characters)" in err and len(err.encode()) < 200


@pytest.mark.parametrize(
    "alphabet, patterns, message",
    [
        ("H:3/2,T:1/2", "HH,TH", "invalid alphabet 'H:3/2,T:1/2': probability of 'H' must be strictly between 0 and 1, "
                                 "got 3/2"),
        ("H:1/3,T:1/2", "HH,TH", "invalid alphabet 'H:1/3,T:1/2': probabilities must sum exactly to 1, got 5/6"),
        ("H:1/2,T:1/2", "HH,HH", "duplicate pattern: 1 and 2 are both HH"),
        ("H:1/2,T:1/2", "H,TH", "pattern 1 (H) is a substring of pattern 2 (TH)"),
    ],
)
def test_short_invalid_alphabets_and_pattern_sets_are_echoed_in_full(alphabet, patterns, message, capsys):
    main(["duel", "--alphabet", alphabet, "--patterns", patterns])
    assert capsys.readouterr().err == f"error: {message}\n"


_DIGITS = ["0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
           "".join(chr(0xFF10 + d) for d in range(10)), "".join(chr(0x1D7CE + d) for d in range(10))]
_SPACES = st.text(" \t\n\xa0\u3000", max_size=2)


@st.composite
def int_literals(draw):
    """(text, value): the value int() reads, 10^20 with its sign when the magnitude is larger, None if int() rejects it.

    Valid literals are at most 8 or at least 10^20 in magnitude, so that every request is cheap or refused at once.
    """
    if draw(st.integers(0, 3)) == 0:
        junk = draw(st.text(max_size=20)) + draw(st.sampled_from(["x", "1e3", "1.0", "__", "\x1c"])) * draw(
            st.integers(1, 3000))
        return junk, None
    if draw(st.booleans()):
        value = draw(st.integers(0, 8))
        text = "0" * draw(st.sampled_from([0, 1, 5999])) + str(value)
    else:  # at least 21 digits, the first nonzero
        value = 10**20
        text = draw(st.text("123456789", min_size=1, max_size=1)) + draw(st.text("0123456789", min_size=20))
        text += draw(st.sampled_from("0123456789")) * draw(st.integers(0, 5980 - len(text)))
    digits = draw(st.sampled_from(_DIGITS))
    cuts = sorted(draw(st.sets(st.integers(1, len(text) - 1), max_size=3)) if len(text) > 1 else [])
    text = "_".join(text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)]))
    text = "".join(digits[int(c)] if c != "_" else c for c in text)
    sign = draw(st.sampled_from(["", "+", "-"]))
    return draw(_SPACES) + sign + text + draw(_SPACES), -value if sign == "-" else value


# argv up to the flag, and the flag's range [low, high)
_INT_FLAGS = [
    (["duel", "--n"], 0, math.inf), (["duel", "--digits"], 0, 2**16), (["simulate", "--games"], 1, math.inf),
    (["simulate", "--games", "8", "--seed"], 0, 2**64), (["best-response", "--patterns", "HHT", "--length"], 1, math.inf),
]


@settings(max_examples=200, deadline=None)
@given(flag=st.sampled_from(_INT_FLAGS), literal=int_literals())
def test_integer_flags_read_every_int_literal_and_answer_briefly(flag, literal):
    """Any literal int() reads is read as that integer, whatever its length; any other is a brief usage error."""
    (*argv, name), low, high = flag
    text, value = literal
    if "--patterns" not in argv:
        argv += ["--patterns", "HH,TH"]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main([*argv, "--alphabet", "H:1/2,T:1/2", "--format", "json", f"{name}={text}"])
        except SystemExit as exc:
            code = exc.code
    err = stderr.getvalue().splitlines()
    # out of range is a usage error; a huge value in range is over the flag's work budget
    assert code == (2 if value is None or not low <= value < high else 3 if value == 10**20 else 0)
    assert ("invalid int value" in "".join(err[-1:])) == (value is None)
    assert (err == []) == (code == 0) and all(len(line.encode()) < 200 for line in err)
    assert [line for line in err if "error:" in line] == err[-1:]  # argparse's usage lines come first


# fraction literals that no alphabet accepts, or that break the sum to 1
_BAD_FRACTIONS = ["0/1", "-1/3", "3/2", "1/1", "1/0", "1/2.0", "0.5", "", "1/" + "1" * 3000, "1" * 3000 + "/2",
                  "-" + "9" * 400 + "/7", "1/" + "\u0663"]


@st.composite
def alphabet_flags(draw, scales=(1, 2, 10**200), max_weight=6):
    """(--alphabet text, labels): 2-3 labels, one of which may be long, multi-character or a duplicate, and weights
    written as fraction literals over a small or a huge denominator, signed or not; sometimes one bad literal."""
    size = draw(st.integers(2, 3))
    labels = draw(st.lists(st.text("HTab0é\n=-", min_size=1, max_size=1), min_size=size, max_size=size, unique=True))
    labels[-1] = draw(st.sampled_from([labels[-1]] * 5 + [labels[-1] + "b", "x" * 150, labels[0]]))
    weights = draw(st.lists(st.integers(1, max_weight), min_size=size, max_size=size))
    scale = draw(st.sampled_from(scales))
    fractions = [f"{draw(st.sampled_from(['', '+']))}{w * scale}/{sum(weights) * scale}" for w in weights]
    if draw(st.integers(0, 3)) == 3:
        fractions[draw(st.integers(0, size - 1))] = draw(st.sampled_from(_BAD_FRACTIONS))
    return ",".join(f"{a}:{p}" for a, p in zip(labels, fractions)), labels


def patterns_flags(texts: list[str], single_char: bool) -> list[str]:
    """--patterns values for pattern texts: one comma-separated list over single-character labels, else one each."""
    return [",".join(texts)] if single_char else texts


@st.composite
def contract_requests(draw):
    """argv for any command in any format: 1-3 patterns of 1-4 labels, sometimes with a duplicate, a substring or an
    unknown symbol.  Each request is cheap by construction: a small --n (always for first-passage, whose default n
    grows with the mean) and --length; simulate only over small denominators and weights, with at most 3 symbols a
    pattern and 50 games, so that the longest of its games stays short."""
    command = draw(st.sampled_from(["duel", "first-passage", "best-response", "simulate"]))
    simulate = command == "simulate"
    alphabet, labels = draw(alphabet_flags(scales=(1, 2), max_weight=3) if simulate else alphabet_flags())
    m = draw(st.sampled_from([2, 3, 1] if command in ("duel", "simulate") else [1, 1, 1, 2]))
    patterns = draw(st.lists(st.lists(st.sampled_from(labels), min_size=1, max_size=3 if simulate else 4),
                             min_size=m, max_size=m, unique_by=tuple))
    mistake = draw(st.integers(0, 7))
    if mistake == 7:
        patterns[-1][-1] = "Q"
    elif mistake == 6:
        patterns[-1] = patterns[0]
    elif mistake == 5:
        patterns[-1] = patterns[0][draw(st.integers(0, 1)):][:draw(st.integers(1, 3))]  # a substring, maybe empty
    single_char = all(len(a) == 1 for a in labels)
    texts = ["".join(p) if single_char else ",".join(p) for p in patterns]
    flags = ["--patterns=" + value for value in patterns_flags(texts, single_char)]
    if command == "first-passage":
        flags.append(f"--n={draw(st.integers(0, 10))}")
    elif command == "duel":
        n = draw(st.one_of(st.none(), st.integers(0, 10)))
        flags += [] if n is None else [f"--n={n}"]
        flags.append(f"--method={draw(st.sampled_from(['pgf', 'both'] + ['equilibrium'] * (n is None)))}")
    elif command == "best-response":
        flags.append(f"--length={draw(st.integers(1, 3))}")
    else:
        flags += [f"--games={draw(st.integers(1, 50))}", f"--seed={draw(st.integers(0, 2**64 - 1))}"]
    fmt = draw(st.sampled_from(["json", "json", "table", "csv"]))
    return [command, f"--alphabet={alphabet}", *flags, f"--format={fmt}"]


@settings(max_examples=200, deadline=None)
@given(contract_requests())
def test_every_alphabet_and_pattern_list_gets_an_answer_or_a_brief_error(argv):
    """The README's contract: exit 0 with the requested format, 2 for what does not parse, 3 for what is refused; one
    short error line.  The pattern texts of a JSON answer, passed back as the grammar prescribes, read as themselves."""
    out, err, usage = io.StringIO(), io.StringIO(), False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error: argparse prints its usage lines before the error line
            code, usage = exc.code, True
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), lines
    if code:
        assert [line for line in lines if "error: " in line] == lines[-1:] and (usage or len(lines) == 1), lines
        assert all(len(line.encode()) < 200 for line in lines), lines
        return
    assert lines == []
    fmt = argv[-1].removeprefix("--format=")
    if fmt == "table":
        assert out.getvalue().startswith(f"command:  {argv[0]}\n")
    elif fmt == "csv":
        assert next(csv.reader(io.StringIO(out.getvalue())))[0] in ("n", "rank", "pattern")
    else:
        doc = json.loads(out.getvalue())
        assert doc["command"] == argv[0]
        alphabet = parse_alphabet(argv[1].removeprefix("--alphabet="))
        again = cli.parse_patterns_option(patterns_flags(doc["patterns"], alphabet.single_char), alphabet)
        assert [p.text for p in again] == doc["patterns"]
        assert again == cli.parse_patterns_option([a.removeprefix("--patterns=") for a in argv if
                                                   a.startswith("--patterns=")], alphabet)


@pytest.mark.parametrize("flag", ["--patterns=--", "--alphabet=--", "--n=--", "--digits=--", "--method=--"])
def test_a_flag_value_of_double_dash_is_read_or_refused(flag, capsys):
    """Before Python 3.13 argparse reads --flag=-- as [], so main refuses it there instead of passing a list on."""
    argv = ["duel", "--alphabet=-:1/2,T:1/2", "--patterns=T-", *([] if flag == "--n=--" else ["--n=2"]), flag]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err.splitlines()
    # where argparse keeps "--", it is read: as a pattern of two "-" symbols, and as a bad value of each other flag
    assert code == 2 or code == 0 and flag == "--patterns=--", err
    assert all(len(line.encode()) < 200 for line in err) and "'--'" in "".join(err[-1:]) if code else err == []


def test_largest_seed_is_accepted(capsys):
    doc = run_json(
        capsys, "simulate", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH",
        "--games", "10", "--seed", str(2**64 - 1),
    )
    assert doc["results"]["seed"] == 2**64 - 1


def test_benchmark_tracer_leaves_output_unchanged(capsys, monkeypatch):
    """bench/tracing.py patches package names from outside; a rename must fail here."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import tracing

    requests = [
        ["duel", "--alphabet", "H:1/3,T:2/3", "--patterns", "HHT,THH", "--method", "both"],
        ["first-passage", "--alphabet", "H:1/2,T:1/2", "--patterns", "HTH", "--n", "5", "--format", "csv"],
        ["best-response", "--alphabet", "H:1/2,T:1/2", "--patterns", "HHT", "--length", "3"],
        ["simulate", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,TH", "--games", "500", "--format", "json"],
    ]
    untraced = [run(capsys, *argv) for argv in requests]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for request_id, argv in enumerate(requests):
            with tracer.request_span(request_id):
                traced.append(run(capsys, *argv))
    finally:
        tracer.uninstall()

    assert all(code == 0 for code, _, _ in untraced)
    assert traced == untraced
    _, _, calls = tracer.self_times()
    for span in ("cli.argparse", "cli.render", "patterns.parse", "patterns.set_build", "pgf.solve_duel",
                 "pgf.first_passage", "pgf.moments", "algebra.gcd",
                 "algebra.solve", "equilibrium.solve", "oracle.simulate", "oracle.automaton"):
        assert calls[span] > 0, span
    assert calls["algebra.series"] == 0  # series come from the recurrence in t, not from a rational function
    assert calls["algebra.derivative"] == 0  # moments come from integer solves with N(1)
    assert calls["algebra.limit"] == 0  # x and D are checked at z = 1 on the solved polynomials
    assert calls["pgf.matrix"] == 0  # x and D come from the integer table, not from the race matrix
