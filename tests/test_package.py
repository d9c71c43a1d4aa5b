import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import patdual
from patdual import algebra, equilibrium, oracle, patterns, pgf

ROOT = Path(__file__).parents[1]
MODULES = (algebra, equilibrium, oracle, patterns, pgf)


def test_package_exports_exactly_the_modules_public_names():
    assert sorted(patdual.__all__) == [
        "Alphabet",
        "CHAIN_STATES_BUDGET",
        "DuelSolution",
        "EquilibriumSolution",
        "ExpansionError",
        "OracleStats",
        "ParseError",
        "Pattern",
        "PatternSet",
        "PatternSetError",
        "Poly",
        "RationalFunction",
        "SIMULATION_BUDGET",
        "SeriesPrefix",
        "SimReport",
        "SingularMatrixError",
        "SuffixAutomaton",
        "build_automaton",
        "build_duel_matrix",
        "build_equilibrium_system",
        "check_simulation_budget",
        "correlation_set",
        "exact_int",
        "exact_str",
        "first_passage_pgf",
        "max_overlap",
        "oracle_duration",
        "oracle_first_passage",
        "oracle_win_probs",
        "overlap_string",
        "parse_alphabet",
        "simulate",
        "solve_duel",
        "solve_equilibrium",
        "solve_linear_system",
        "solve_polynomial_system",
        "string_probability",
    ]
    assert "poly_gcd" not in patdual.__all__ and not hasattr(patdual, "poly_gcd")
    assert callable(algebra.poly_gcd)


def test_each_export_is_its_modules_object_and_declared_once():
    declared = [name for module in MODULES for name in module.__all__]
    # a star import lets the later module's object win without an error, so no name may be declared twice
    assert len(declared) == len(set(declared))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(patdual, name) is getattr(module, name), (module.__name__, name)


def test_import_patdual_does_not_import_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", "import sys, patdual; print('numpy' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_version_matches_pyproject():
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert patdual.__version__ == tomllib.load(f)["project"]["version"]


def test_readme_library_example_holds():
    block = re.search(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    sol, race, f = ns["sol"], ns["race"], ns["f"]
    assert sum(sol.win_probs) == 1
    assert sol.duration_series(20) == sol.duration.series(20) == ns["oracle_duration"](race, 20)
    assert f.derivative().limit_at_one() == 6
