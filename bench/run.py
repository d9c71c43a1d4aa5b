"""Closed-loop benchmark of the patdual command line.

One client in one thread calls `patdual.cli.main(argv)` in-process, with
stdout and stderr captured, on a seeded deck of requests that it sends over
and over, in passes, until the time is up (at least MIN_PASSES passes).  The
next request goes out only after the previous one has returned and its
output has been checked; the check runs outside the timed interval.

Every timed value is scaled to a reference host speed (see hostspeed.py):
the client times a fixed calibration task between requests and scales each
wall time by the calibration's reference time over its current time.  The
raw wall values are printed beside the scaled ones.  A request's latency is
the median of its scaled times over the passes, so a burst of load that
slows one pass does not move it; `requests_per_s` is the deck size over the
summed request latencies, and `latency_p50_ms` their median.

    python3 bench/run.py --workload race --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25     # each workload in a fresh interpreter

`--trace 0` prints the end-to-end metrics; `--trace 1` runs each request of
the deck once untraced and then once traced, and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import patdual.cli
except ImportError as exc:
    sys.exit(f"error: cannot import patdual from {ROOT / 'src'}: {exc}")
if Path(patdual.cli.__file__).resolve().parent != ROOT / "src" / "patdual":
    sys.exit(f"error: patdual imported from {patdual.cli.__file__}, not from {ROOT / 'src'}")

import workloads  # noqa: E402
from check import Checker  # noqa: E402
from hostspeed import REFERENCE_S, calibrate, scaled  # noqa: E402

SETUP_PROBES = 7
WARMUP_SEED = -1  # the warm-up request does not depend on --seed
MIN_PASSES = 3  # so that every request's median ignores one slow pass
TAIL_BEYOND = 10
SPANS_DIR = BENCH / "out"

# A request that must exit non-zero: HH is a substring of HHT (exit 3).
BAD_REQUEST = ["duel", "--alphabet", "H:1/2,T:1/2", "--patterns", "HH,HHT"]

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def execute(argv: list[str], span=contextlib.nullcontext()) -> tuple[float, int | None, str, str | None]:
    """Run one request inside `span`; returns (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with span:
                code = patdual.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raising request is a failed request
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


def verdict(checker: Checker, argv: list[str], code, stdout: str, error: str | None) -> str | None:
    """None for a correct request, else why it failed."""
    if error is not None:
        return error
    if code != 0:
        return f"exit {code}"
    return checker.check(argv, stdout)


def self_test(warm_argv: list[str], warm_stdout: str) -> None:
    """The correctness gate is not vacuous: a one-digit flip and a non-zero exit both fail."""
    fresh = Checker(digests={})
    if fresh.check(warm_argv, warm_stdout) is not None:
        sys.exit("error: checker rejects the warm-up output")
    fractions = list(re.finditer(r"\d+/(\d+)", warm_stdout))
    if not fractions:
        sys.exit("error: warm-up output holds no exact fraction")
    digit = fractions[-1].start(1)  # the last one is a result, not the echoed alphabet
    flipped = warm_stdout[:digit] + str((int(warm_stdout[digit]) + 1) % 10) + warm_stdout[digit + 1:]
    if Checker(digests={}).check(warm_argv, flipped) is None:
        sys.exit("error: checker self-test accepted an output with a flipped digit")
    _, code, stdout, error = execute(BAD_REQUEST)
    if verdict(fresh, BAD_REQUEST, code, stdout, error) is None:
        sys.exit("error: checker self-test accepted a request that exited non-zero")


def measure_setup(warm_argv: list[str]) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until its warm-up request returns.

    Returns the wall times and the calibrations timed around them, as `scaled` takes them.
    """
    times, calibrations = [], []
    for _ in range(SETUP_PROBES):
        calibrations.append(calibrate())
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), *warm_argv], stdout=subprocess.PIPE, text=True
        )
        with proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready 0" or proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {line.strip()!r}, exit {proc.returncode}")
    calibrations.append(calibrate())
    return times, calibrations


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def report(correct: bool, attempted: int, failures: list, metrics: dict[str, float], units: dict) -> None:
    for reason, argv in failures:
        print(f"FAILED ({reason}): patdual {' '.join(argv)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def warm_up(workload: str) -> tuple[Checker, list[str]]:
    """Serve the untimed warm-up request, then self-test the checker on its output."""
    warm_argv = workloads.deck(workload, WARMUP_SEED)[0]
    checker = Checker()
    _, code, stdout, error = execute(warm_argv)
    reason = verdict(checker, warm_argv, code, stdout, error)
    if reason is not None:
        sys.exit(f"error: warm-up request failed ({reason}): patdual {' '.join(warm_argv)}")
    self_test(warm_argv, stdout)
    return checker, warm_argv


def run_loop(workload: str, seed: int, seconds: float) -> None:
    checker, warm_argv = warm_up(workload)
    setup_wall, setup_calibrations = measure_setup(warm_argv)

    deck = workloads.deck(workload, seed)
    sent: list[int] = []  # deck index of each timed sample, in the order sent
    wall: list[float] = []
    calibrations: list[float] = []  # calibrations[j] just before wall[j], one more at the end
    failures: list[tuple[str, list[str]]] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_PASSES or time.perf_counter() < deadline:
        for index, argv in enumerate(deck):
            if rounds >= MIN_PASSES and time.perf_counter() >= deadline:
                break
            calibrations.append(calibrate())
            elapsed, code, stdout, error = execute(argv)
            sent.append(index)
            wall.append(elapsed)
            reason = verdict(checker, argv, code, stdout, error)
            if reason is not None:
                failures.append((reason, argv))
        rounds += 1
    calibrations.append(calibrate())

    def summary(samples: list[float]) -> tuple[float, float, float]:
        """(requests per second, p50 seconds, tail seconds) of one run's samples."""
        passes: list[list[float]] = [[] for _ in deck]
        for index, t in zip(sent, samples):
            passes[index].append(t)
        medians = [statistics.median(times) for times in passes]
        return len(deck) / sum(medians), statistics.median(medians), tail(samples)[0]

    n = len(wall)
    rps, p50, tail_s = summary(scaled(wall, calibrations))
    wall_rps, wall_p50, wall_tail = summary(wall)
    setup = scaled(setup_wall, setup_calibrations)
    tail_pct = tail(wall)[1]
    metrics = {
        "requests_per_s": rps,
        "latency_p50_ms": 1000 * p50,
        "latency_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"== {workload} (seed {seed}): {n} requests ({len(deck)} distinct, {rounds} passes), "
          f"{sum(wall):.3f} s inside requests, closed loop, 1 client")
    print(f"host speed: calibration median {1000 * statistics.median(calibrations):.3f} ms over "
          f"{len(calibrations)} timings, reference {1000 * REFERENCE_S:.3f} ms; "
          f"times below are at the reference speed, wall times in brackets")
    print(f"requests_per_s   {rps:.4f} 1/s  [{wall_rps:.4f}]  "
          f"({len(deck)} requests over their summed median latency)")
    print(f"latency_p50_ms   {1000 * p50:.3f} ms  [{1000 * wall_p50:.3f}]  "
          f"(median of {len(deck)} per-request medians over {n} samples)")
    print(f"latency_tail_ms  {1000 * tail_s:.3f} ms  [{1000 * wall_tail:.3f}]  "
          f"(p{tail_pct:.1f}, {TAIL_BEYOND} samples beyond, n={n})")
    print(f"failed_ratio     {len(failures) / n:.4f}  ({len(failures)} of {n} failed)")
    print(f"setup_s          {metrics['setup_s']:.4f} s  [{statistics.median(setup_wall):.4f}]  "
          f"(median of {SETUP_PROBES} fresh interpreters)")
    print(f"peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB")
    pass_s = [sum(wall[k * len(deck):(k + 1) * len(deck)]) for k in range(rounds)]
    print("wall seconds per pass: " + ", ".join(f"{t:.3f}" for t in pass_s) + "  (the last may be partial)")
    report(not failures, n, failures, metrics, END_TO_END_UNITS)


def run_traced(workload: str, seed: int) -> None:
    from tracing import LAYERS, UNITS, Tracer

    checker, _ = warm_up(workload)

    # Each request runs untraced and then traced, back to back, so that a
    # change in machine speed during the run does not show up as overhead.
    tracer = Tracer()
    failures: list[tuple[str, list[str]]] = []
    untraced_s = traced_s = 0.0
    deck = workloads.deck(workload, seed)
    for request_id, argv in enumerate(deck):
        elapsed, code, stdout, error = execute(argv)
        untraced_s += elapsed
        reason = verdict(checker, argv, code, stdout, error)
        tracer.install()
        try:
            elapsed, _, traced_out, _ = execute(argv, tracer.request_span(request_id))
        finally:
            tracer.uninstall()
        traced_s += elapsed
        tracer.counts["cli.output_bytes"] += len(traced_out.encode())
        if reason is None and traced_out != stdout:
            reason = "traced output differs from the untraced run"
        if reason is not None:
            failures.append((reason, argv))

    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    spans_path = SPANS_DIR / f"spans-{workload}-seed{seed}.csv"
    tracer.write_spans(spans_path)

    layer_self = {layer: metrics[f"{layer}.layer_self_s"] for layer in LAYERS}
    largest = max(layer_self, key=layer_self.get)
    print(f"== {workload} (seed {seed}) traced: {len(deck)} requests, untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s, overhead {metrics['trace.overhead_s']:.3f} s "
          f"({100 * metrics['trace.overhead_s'] / untraced_s:.1f}%)")
    print("layer self time: " + ", ".join(f"{k} {v:.3f} s" for k, v in layer_self.items()))
    print(f"largest self time: {largest}")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:28s} {shown} {UNITS[name]}")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    report(not failures, 2 * len(deck), failures, metrics, UNITS)


def run_all(seed: int, seconds: float, trace: int) -> None:
    """Every workload in its own fresh interpreter, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {workload} exited {proc.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    elif args.trace:
        run_traced(args.workload, args.seed)
    else:
        run_loop(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
