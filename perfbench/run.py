"""Benchmark for ramseykit: one workload per run, in this process, on one thread.

    python3 perfbench/run.py --workload full-ramsey --seed 1 --seconds 25 --trace 0

Set-up imports ``ramseykit`` from ``src/`` next to this directory and builds
the workload's inputs, several times, and reports the median as ``setup_s``.
The first pass over the operations is checked for correct answers outside
the timed window; further passes run while the time budget lasts, and every
pass must give the same answers.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` runs untraced and traced passes and prints the
per-layer metrics.  The last line of stdout is one JSON object.  A wrong
answer exits with 1, a missing program with 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, CheckFailed, Program

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 24
# latency percentiles need this many operations a pass (ten beyond the 90th)
PERCENTILE_MIN_OPS = 100
MODULES = ("cli", "coloring", "constructions", "errors", "formulas", "naive",
           "patterns", "search", "structure")

# name -> unit; the end-to-end metrics printed with --trace 0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "nodes": "count",
    "peak_rss_mb": "MB",
}


def load_program() -> Program:
    """A fresh import of ramseykit, as every CLI invocation pays it."""
    for name in [m for m in sys.modules if m == "ramseykit" or m.startswith("ramseykit.")]:
        del sys.modules[name]
    package = importlib.import_module("ramseykit")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ramseykit imported from {package.__file__}, not from {SRC}")
    return Program({name: importlib.import_module(f"ramseykit.{name}") for name in MODULES})


def set_up(workload: str, seed: int, reps: int):
    """Import and build the inputs ``reps`` times; returns the last build and
    the time of each."""
    workdir = OUT / workload
    times = []
    for _ in range(reps):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()  # the modules of the previous import
        start = time.perf_counter()
        prog = load_program()
        workdir.mkdir(parents=True)
        ops = WORKLOADS[workload](prog, seed, workdir)
        times.append(time.perf_counter() - start)
    return prog, ops, times


class Pass:
    """The time and outcome of each operation in one pass."""

    def __init__(self, times, outcomes, spans=(0, 0)):
        self.times = times
        self.outcomes = outcomes
        self.wall = sum(times)
        self.spans = spans


def run_pass(ops, tracer=None) -> Pass:
    times, outcomes = [], []
    first = len(tracer.spans) if tracer else 0
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        start = time.perf_counter()
        outcome = op.call()
        times.append(time.perf_counter() - start)
        outcomes.append(outcome)
    return Pass(times, outcomes, (first, len(tracer.spans) if tracer else 0))


def measure(ops, budget: float, tracer=None, after_first=None) -> list[Pass]:
    """Passes while the next one would end less than half a pass past ``budget``
    seconds; at least one."""
    passes = []
    elapsed = 0.0
    while True:
        gc.collect()
        p = run_pass(ops, tracer)
        passes.append(p)
        elapsed += p.wall
        if after_first is not None and len(passes) == 1:
            after_first(p)
        if elapsed + statistics.median(q.wall for q in passes) / 2 > budget:
            return passes


def check_answers(ops, reference: Pass) -> None:
    for op, outcome in zip(ops, reference.outcomes):
        op.check(outcome)


def check_same(ops, reference: Pass, passes: list[Pass], what: str) -> None:
    for p in passes:
        for op, a, b in zip(ops, reference.outcomes, p.outcomes):
            if (a.answer, a.nodes, a.failed) != (b.answer, b.nodes, b.failed):
                raise CheckFailed(f"{op.label}: {what} gave {b.answer!r} "
                                  f"({b.nodes} nodes), first pass {a.answer!r} ({a.nodes} nodes)")


def op_latencies(passes: list[Pass]) -> list[float]:
    """Each operation's median time over the passes."""
    return [statistics.median(ts) for ts in zip(*(p.times for p in passes))]


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": sum(op_latencies(passes)),
        "nodes": sum(o.nodes for o in passes[0].outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def print_latency_percentiles(passes: list[Pass]) -> None:
    """op_p50_ms and op_p90_ms, printed but not in the result line: they
    spread too much from run to run on a shared machine to hold a bound."""
    latencies = op_latencies(passes)
    if len(latencies) < PERCENTILE_MIN_OPS:
        return
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    print(f"op_p50_ms {p50 * 1000:.6g} ms; op_p90_ms {p90 * 1000:.6g} ms "
          f"(over {len(latencies)} operations, each the median of {len(passes)} passes)")


def traced_metrics(workload, prog, ops, budget, untraced: list[Pass]) -> dict[str, float]:
    tracer = tracing.Tracer(prog.modules)
    tracer.install()
    try:
        traced = measure(ops, budget, tracer)
    finally:
        tracer.uninstall()
    check_same(ops, untraced[0], traced, "the traced run")
    for layer, names in sorted(tracer.unmeasured.items()):
        print(f"unmeasured layer {layer}: {', '.join(names)} not found")
    metrics = tracing.median_metrics(
        [tracing.layer_metrics(tracer.spans, *p.spans) for p in traced]
    )
    metrics["trace.overhead_s"] = sum(op_latencies(traced)) - sum(op_latencies(untraced))
    tracer.write(OUT / f"trace-{workload}.txt")
    print(f"spans {len(tracer.spans)} over {len(traced)} traced passes, "
          f"written to {OUT / f'trace-{workload}.txt'}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="cheap operations only, one set-up, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (SRC / "ramseykit" / "__init__.py").is_file():
        print(f"perfbench: no ramseykit sources in {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    # half the set-ups now and half after the passes, so that the median
    # samples the machine at both ends of the run
    setup_reps = 1 if args.quick else SETUP_REPS // 2
    prog, ops, setup_times = set_up(args.workload, args.seed, setup_reps)
    if args.quick:
        ops = [op for op in ops if op.quick]
    budget = args.seconds / 2 if args.trace else args.seconds
    attempted = failed = 0
    try:
        untraced = measure(ops, budget, after_first=lambda p: check_answers(ops, p))
        check_same(ops, untraced[0], untraced[1:], "a later pass")
        attempted = sum(len(p.outcomes) for p in untraced)
        failed = sum(o.failed for p in untraced for o in p.outcomes)
        if args.trace:
            values = traced_metrics(args.workload, prog, ops, budget, untraced)
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        else:
            setup_times += set_up(args.workload, args.seed, setup_reps)[2]
            values = end_to_end(untraced, statistics.median(setup_times))
            units = END_TO_END
    except CheckFailed as err:
        print(f"WRONG ANSWER: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops a pass, "
          f"{len(untraced)} untraced passes")
    for label, outcome in zip((op.label for op in ops), untraced[0].outcomes):
        if outcome.failed:
            print(f"failed: {label}")
    print(f"fail_rate {failed / attempted:.4f} (failed {failed} of {attempted})")
    print_latency_percentiles(untraced)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
