import csv
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from patdual import cli
from patdual.algebra import SingularMatrixError
from patdual.cli import decimal_str, main, percent_str, sqrt_str
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
    assert decimal_str(F(5), 0) == "5"
    assert percent_str(F(62, 71), 4) == "87.32%"
    assert percent_str(F(9, 71), 4) == "12.68%"
    assert sqrt_str(F(14884), 1) == "122.0"
    assert sqrt_str(F(2), 4) == "1.4142"
    assert sqrt_str(F(1, 4), 0) == "0"  # 0.5 rounds to even
    assert sqrt_str(F(9, 4), 0) == "2"
    assert sqrt_str(F(1, 10**12), 4, negative=True) == "-0.0000"  # as f"{-1e-6:.4f}"


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


def test_duel_std_and_skewness_are_exact(capsys):
    def duration(alphabet, patterns, *flags):
        return run_json(capsys, "duel", "--alphabet", alphabet, "--patterns", patterns, *flags)["results"]["duration"]

    # moments far past the float range
    p = F(1, 10**20)
    dur = duration(f"H:{p},T:{1 - p}", "HHHHHHHHH,THHHHHHHH")
    variance, std = F(dur["variance"]["exact"]), F(dur["std"])
    assert (std - F(1, 20000)) ** 2 <= variance <= (std + F(1, 20000)) ** 2
    assert dur["skewness"] == "2.0000"
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
    ],
)
def test_bad_flag_values_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--alphabet", "H:1/2,T:1/2"])
    assert exc.value.code == 2


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
                 "pgf.first_passage", "pgf.matrix", "pgf.moments", "algebra.gcd", "algebra.limit",
                 "algebra.series", "algebra.solve", "equilibrium.solve", "oracle.simulate", "oracle.automaton"):
        assert calls[span] > 0, span
    assert calls["algebra.derivative"] == 0  # moments come from the expansion at z = 1
