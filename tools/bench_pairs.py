"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --seed 301 --seconds 25 \\
        --workload gallai-ramsey:10 --workload full-ramsey:3 \\
        --what "what the change does" --out BENCH_name.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once on the parent tree (``--parent``) and once on the change tree (the
checkout holding this script), one after the other, never at the same
time.  Which side goes first alternates from pair to pair, and every pair
has its own seed, counting up from ``--seed`` across all workloads.
Every run starts from a fresh copy of the tree's ``src`` and ``perfbench``
without ``__pycache__`` and writes no bytecode, as the benchmark runs a new
checkout.

The output holds every run and, per workload and end-to-end metric, the
parent's and the change's quartiles, how many pairs the change won (by the
direction ``BENCHMARK.json`` gives the metric), whether the median gap
exceeds the parent's interquartile range, and the change's median relative
to the parent's next to the metric's ``bound`` from ``BENCHMARK.json``,
flagged when it is worse by more than the bound; that last comparison is
also printed at the end.  A metric is flagged unresolved, and printed
UNRESOLVED, when it rests on fewer than ``MIN_PAIRS`` pairs, or when the
parent's interquartile range, relative to its median, exceeds the bound and
not every change run beats every parent run: then the runs spread too
widely to tell a move within the bound from none.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 6


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run on a fresh copy of ``tree``; the result line as a dict."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        skip = shutil.ignore_patterns("__pycache__", "out")
        for part in ("src", "perfbench"):
            shutil.copytree(tree / part, Path(tmp) / part, ignore=skip)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree} {workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric: quartiles of each side, the change's wins,
    its relative median change against the metric's bound, and whether the
    runs can resolve that bound."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        out[workload] = {}
        for spec in end_to_end:
            metric = spec["name"]
            both = [(p["parent"]["metrics"][metric], p["change"]["metrics"][metric])
                    for p in pairs.values()]
            sign = 1 if spec["better"] == "lower" else -1
            parent = quartiles([a for a, _ in both])
            change = quartiles([b for _, b in both])
            gap = sign * (parent["median"] - change["median"])
            relative = ((change["median"] - parent["median"]) / parent["median"]
                        if parent["median"] else 0.0)
            spread = ((parent["q3"] - parent["q1"]) / parent["median"]
                      if parent["median"] else 0.0)
            every_run_better = (min(sign * a for a, _ in both)
                                > max(sign * b for _, b in both))
            out[workload][metric] = {
                "pairs": len(both),
                "change_wins": sum(sign * (a - b) > 0 for a, b in both),
                "parent": parent,
                "change": change,
                "median_gap_exceeds_parent_iqr": gap > parent["q3"] - parent["q1"],
                "median_change": relative,
                "bound": spec["bound"],
                "worse_than_bound": sign * relative > spec["bound"],
                "unresolved": len(both) < MIN_PAIRS
                or (spread > spec["bound"] and not every_run_better),
            }
        failed = [r["failed"] for r in runs if r["workload"] == workload]
        out[workload]["failed_operations"] = sum(failed)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent source tree")
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:PAIRS, repeatable; workloads run in the order given")
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--what", default="", help="what the two trees are, for the file")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs = []
    seed = args.seed
    for item in args.workload:
        workload, _, count = item.partition(":")
        for pair in range(int(count or 1)):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], workload, seed, args.seconds)
                metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
                runs.append({
                    "workload": workload, "pair": pair, "seed": seed, "side": side,
                    "first": side == order[0], "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "metrics": metrics,
                })
                print(f"{workload} pair {pair} seed {seed} {side}: "
                      + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items()), flush=True)
            seed += 1
    summary = summarize(runs, end_to_end)
    for workload, metrics in summary.items():
        for metric, entry in metrics.items():
            if isinstance(entry, dict):
                print(f"{workload} {metric}: median {entry['median_change']:+.1%}"
                      f" (bound {entry['bound']:g})"
                      + (", WORSE THAN BOUND" if entry["worse_than_bound"] else "")
                      + (", UNRESOLVED" if entry["unresolved"] else ""))
    report = {
        "what": args.what,
        "command": f"perfbench/run.py --seconds {args.seconds:g} --trace 0, fresh copies of "
                   "src and perfbench, PYTHONDONTWRITEBYTECODE=1, sides alternating first",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
