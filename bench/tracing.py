"""Outside-in tracing of the patdual layers, used only by the traced run.

Nothing in the package is edited.  Each public callable is replaced where its
caller looks it up: names imported by value are patched in the importing
module (`patdual.cli.solve_duel`, `patdual.pgf.solve_linear_system`,
`patdual.algebra.poly_gcd` as `RationalFunction.__init__` finds it), and
methods are patched on their classes.  `uninstall` puts every original back.

A span records name, start, end, parent span and request id in memory; a
layer's self time is the sum over its spans of duration minus the time their
child spans cover.  Work done by the tracer after a call returns (such as
measuring coefficient bit lengths) runs inside a `trace.post` span, so it is
charged to no layer.  Wrappers record nothing while no request is open, so
the checker's own calls into patdual are not traced.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import patdual.algebra as algebra
import patdual.cli as cli
import patdual.equilibrium as equilibrium
import patdual.oracle as oracle
import patdual.pgf as pgf
from patdual.algebra import Poly, RationalFunction
from patdual.patterns import Pattern, PatternSet
from patdual.pgf import DuelSolution

LAYERS = ("cli", "patterns", "pgf", "algebra", "equilibrium", "oracle")

# Per-layer metric -> unit.  `_s` metrics are summed self times in seconds.
UNITS = {
    "cli.self_s": "s",
    "cli.argparse_s": "s",
    "cli.render_s": "s",
    "cli.decimal_str_calls": "count",
    "cli.output_bytes": "bytes",
    "patterns.parse_s": "s",
    "patterns.set_builds": "count",
    "patterns.set_build_s": "s",
    "pgf.solve_duel_s": "s",
    "pgf.solve_duel_calls": "count",
    "pgf.matrix_s": "s",
    "pgf.moments_s": "s",
    "pgf.first_passage_s": "s",
    "algebra.gcd_s": "s",
    "algebra.gcd_calls": "count",
    "algebra.gcd_useful_ratio": "ratio",
    "algebra.divmod_calls": "count",
    "algebra.rf_builds": "count",
    "algebra.derivative_s": "s",
    "algebra.limit_s": "s",
    "algebra.solve_s": "s",
    "algebra.solve_calls": "count",
    "algebra.solve_max_order": "count",
    "algebra.series_s": "s",
    "algebra.series_terms": "count",
    "algebra.max_coeff_bits": "bits",
    "equilibrium.solve_s": "s",
    "equilibrium.calls": "count",
    "oracle.simulate_s": "s",
    "oracle.trials": "count",
    "oracle.trials_per_s": "1/s",
    "oracle.automaton_s": "s",
    "oracle.automaton_states": "count",
    **{f"{layer}.layer_self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _coeff_bits(rf: RationalFunction) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in rf.num.coeffs + rf.den.coeffs
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, request id]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.request: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request_span(self, request_id: int):
        """Root span of one request: the call to `patdual.cli.main`."""
        self.request = request_id
        idx = self._open("cli.main")
        try:
            yield
        finally:
            self._close(idx)
            self.request = None

    def timed(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(result)` then runs in a `trace.post` span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                post = tracer._open("trace.post")
                after(result)
                tracer._close(post)
            return result

        return wrapper

    def counted(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _maximum(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    # ---- installation --------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        timed, counted = self.timed, self.counted

        def traced_parser():
            parser = timed("cli.argparse", build_parser)()
            if self.request is not None:
                parser.parse_args = timed("cli.argparse", parser.parse_args)
            return parser

        def gcd(a, b):
            if self.request is None:
                return poly_gcd(a, b)
            self.counts["algebra.gcd_calls"] += 1
            idx = self._open("algebra.gcd")
            try:
                g = poly_gcd(a, b)
            finally:
                self._close(idx)
            if g.degree > 0:
                self.counts["algebra.gcd_useful"] += 1
            return g

        def solved(x):
            self.counts["algebra.solve_calls"] += 1
            self._maximum("algebra.solve_max_order", len(x))

        def simulated(report):
            self.counts["oracle.trials"] += report.duration_sum

        build_parser, poly_gcd = cli.build_parser, algebra.poly_gcd
        self._patch(cli, "build_parser", traced_parser)
        self._patch(cli, "_render_table", timed("cli.render", cli._render_table))
        self._patch(cli, "_render_csv", timed("cli.render", cli._render_csv))
        self._patch(cli, "json", SimpleNamespace(dump=timed("cli.render", json.dump)))
        self._patch(cli, "decimal_str", counted("cli.decimal_str_calls", cli.decimal_str))

        self._patch(cli, "parse_alphabet", timed("patterns.parse", cli.parse_alphabet))
        self._patch(Pattern, "parse", classmethod(timed("patterns.parse", vars(Pattern)["parse"].__func__)))
        self._patch(PatternSet, "__post_init__", timed("patterns.set_build", PatternSet.__post_init__))

        bits = lambda rf: self._maximum("algebra.max_coeff_bits", _coeff_bits(rf))
        self._patch(cli, "solve_duel", timed("pgf.solve_duel", cli.solve_duel, lambda sol: bits(sol.duration)))
        self._patch(cli, "first_passage_pgf", timed("pgf.first_passage", cli.first_passage_pgf, bits))
        self._patch(pgf, "build_duel_matrix", timed("pgf.matrix", pgf.build_duel_matrix))
        for name in ("_second_factorial_moment", "_third_factorial_moment"):
            moment = cached_property(timed("pgf.moments", vars(DuelSolution)[name].func))
            moment.__set_name__(DuelSolution, name)
            self._patch(DuelSolution, name, moment)

        self._patch(algebra, "poly_gcd", gcd)
        self._patch(Poly, "__divmod__", counted("algebra.divmod_calls", Poly.__divmod__))
        self._patch(RationalFunction, "__init__", counted("algebra.rf_builds", RationalFunction.__init__))
        self._patch(RationalFunction, "derivative", timed("algebra.derivative", RationalFunction.derivative))
        self._patch(RationalFunction, "limit_at_one", timed("algebra.limit", RationalFunction.limit_at_one))
        self._patch(
            RationalFunction, "series",
            timed("algebra.series", RationalFunction.series,
                  lambda s: self.counts.update({"algebra.series_terms": len(s)})),
        )
        for module in (pgf, equilibrium, oracle):
            self._patch(module, "solve_linear_system", timed("algebra.solve", module.solve_linear_system, solved))

        self._patch(cli, "solve_equilibrium", timed("equilibrium.solve", cli.solve_equilibrium))

        self._patch(cli, "simulate", timed("oracle.simulate", cli.simulate, simulated))
        self._patch(
            oracle, "build_automaton",
            timed("oracle.automaton", oracle.build_automaton,
                  lambda auto: self._maximum("oracle.automaton_states", auto.n_states)),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- results -------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: summed self time, summed duration, and span count."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, total_s, calls = Counter(), Counter(), Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def metrics(self) -> dict[str, float]:
        self_s, total_s, calls = self.self_times()
        c = self.counts
        gcds = c["algebra.gcd_calls"]
        simulate_total = total_s["oracle.simulate"]
        out = {
            "cli.self_s": self_s["cli.main"],
            "cli.argparse_s": self_s["cli.argparse"],
            "cli.render_s": self_s["cli.render"],
            "cli.decimal_str_calls": c["cli.decimal_str_calls"],
            "cli.output_bytes": c["cli.output_bytes"],
            "patterns.parse_s": self_s["patterns.parse"],
            "patterns.set_builds": calls["patterns.set_build"],
            "patterns.set_build_s": self_s["patterns.set_build"],
            "pgf.solve_duel_s": self_s["pgf.solve_duel"],
            "pgf.solve_duel_calls": calls["pgf.solve_duel"],
            "pgf.matrix_s": self_s["pgf.matrix"],
            "pgf.moments_s": self_s["pgf.moments"],
            "pgf.first_passage_s": self_s["pgf.first_passage"],
            "algebra.gcd_s": self_s["algebra.gcd"],
            "algebra.gcd_calls": gcds,
            "algebra.gcd_useful_ratio": c["algebra.gcd_useful"] / gcds if gcds else 0.0,
            "algebra.divmod_calls": c["algebra.divmod_calls"],
            "algebra.rf_builds": c["algebra.rf_builds"],
            "algebra.derivative_s": self_s["algebra.derivative"],
            "algebra.limit_s": self_s["algebra.limit"],
            "algebra.solve_s": self_s["algebra.solve"],
            "algebra.solve_calls": c["algebra.solve_calls"],
            "algebra.solve_max_order": self.maxima["algebra.solve_max_order"],
            "algebra.series_s": self_s["algebra.series"],
            "algebra.series_terms": c["algebra.series_terms"],
            "algebra.max_coeff_bits": self.maxima["algebra.max_coeff_bits"],
            "equilibrium.solve_s": self_s["equilibrium.solve"],
            "equilibrium.calls": calls["equilibrium.solve"],
            "oracle.simulate_s": self_s["oracle.simulate"],
            "oracle.trials": c["oracle.trials"],
            "oracle.trials_per_s": c["oracle.trials"] / simulate_total if simulate_total else 0.0,
            "oracle.automaton_s": self_s["oracle.automaton"],
            "oracle.automaton_states": self.maxima["oracle.automaton_states"],
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS:
            out[f"{layer}.layer_self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as CSV, times in seconds from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "request"])
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                writer.writerow([i, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, request])
