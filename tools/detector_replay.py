"""Record the anchored mono tests that one benchmark workload's searches
make, then replay them on a source tree, timed per pattern kind.

    python3 tools/detector_replay.py --workload family-threshold
    python3 tools/detector_replay.py --workload family-threshold --src ../parent/src

The calls are recorded on ramseykit from ``src`` next to this script.  While
each operation of ``perfbench/workloads.py`` (read, never changed) runs once
at ``--seed``, every test that ``search.mono_test`` builds for ``_scan`` is
wrapped to keep its arguments (K_n, pattern, color class, u, v) and its
answer.  The calls are then replayed on ramseykit from ``--src`` (default:
the same tree): that tree's ``patterns.mono_test`` builds each pattern's
test once, and every recorded call is made once untimed, to compare the
answers, and then ``--repeat`` times in a timed loop per pattern kind.  A
line per kind gives its calls, the calls that found a copy, and the least
time of the repeats in seconds.

Exit status 1 when a replayed answer differs from the recorded one, or
when the workload records no call.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import pkgutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_ramseykit(src: Path):
    """A fresh import of ramseykit from ``src``: the package and every module."""
    for name in [m for m in sys.modules if m == "ramseykit" or m.startswith("ramseykit.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("ramseykit")
    finally:
        sys.path.remove(str(src))
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ramseykit imported from {package.__file__}, not from {src}")
    return {info.name: importlib.import_module(f"ramseykit.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)}


def record(workload: str, seed: int) -> list[tuple]:
    """Every anchored mono test call the workload's searches make, as
    (kind, pattern fields, n, class rows, u, v, answer)."""
    modules = import_ramseykit(ROOT / "src")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, Program

    search = modules["search"]
    build = search.mono_test
    calls: list[tuple] = []

    def recording(n, p):
        test = build(n, p)
        if test is None:
            return None
        kind, fields = type(p).__name__, dataclasses.astuple(p)

        def wrapped(adj, u, v):
            got = test(adj, u, v)
            calls.append((kind, fields, n, list(adj), u, v, bool(got)))
            return got

        return wrapped

    search.mono_test = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for op in WORKLOADS[workload](Program(modules), seed, Path(tmp)):
                op.call()
    finally:
        search.mono_test = build
    return calls


def replay(calls: list[tuple], src: Path, repeat: int) -> tuple[dict, int]:
    """Per kind (calls, hits, least seconds of ``repeat`` timed loops) on
    ramseykit from ``src``, and the number of answers that differ."""
    patterns = import_ramseykit(src)["patterns"]
    tests: dict[tuple, object] = {}
    by_kind: dict[str, list[tuple]] = {}
    wrong = 0
    for kind, fields, n, adj, u, v, want in calls:
        key = (kind, fields, n)
        if key not in tests:
            tests[key] = patterns.mono_test(n, getattr(patterns, kind)(*fields))
        test = tests[key]
        if test is None or bool(test(adj, u, v)) != want:
            wrong += 1
        by_kind.setdefault(kind, []).append((test, adj, u, v, want))
    rows = {}
    for kind, group in by_kind.items():
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            for test, adj, u, v, _want in group:
                test(adj, u, v)
            best = min(best, time.perf_counter() - start)
        rows[kind] = (len(group), sum(item[4] for item in group), best)
    return rows, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="family-threshold")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark's --seed")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree whose tests are replayed")
    parser.add_argument("--repeat", type=int, default=5, help="timed loops per kind")
    args = parser.parse_args(argv)
    calls = record(args.workload, args.seed)
    if not calls:
        print(f"{args.workload}: no anchored mono test call recorded", file=sys.stderr)
        return 1
    rows, wrong = replay(calls, args.src.resolve(), max(1, args.repeat))
    print("kind\tcalls\thits\tseconds")
    for kind, (count, hits, seconds) in sorted(rows.items()):
        print(f"{kind}\t{count}\t{hits}\t{seconds:.4f}")
    if wrong:
        print(f"{wrong} of {len(calls)} replayed answers differ from the recorded ones",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
