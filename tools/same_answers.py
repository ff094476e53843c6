"""Print the answer and node count of every benchmark operation and every
``selftest`` criterion, one line each, so that two source trees can be
compared by one diff.

    python tools/same_answers.py --src ../parent/src > before.txt
    python tools/same_answers.py > after.txt
    diff before.txt after.txt

A line is ``label<TAB>answer<TAB>nodes``.  The operations and their answers
are those of ``perfbench/workloads.py`` next to this script (read, never
changed), run once in the order the seed gives, with the files they write in
a temporary directory that the answers name as ``<workdir>``.  A criterion's
answer is its verdict and detail with every timing replaced by ``<t>``, and
its nodes are the sum over the search calls it makes; criteria run at
``selftest``'s default seed.  ramseykit is
imported from ``--src`` (default: ``src`` next to this script).
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCH_ENGINES = ("brute_force_ramsey", "compute_bk", "compute_t", "universal_check",
                  "gr_desk_verify")


def load(src: Path):
    """ramseykit's modules from ``src``, as the benchmark's ``Program``, and
    the benchmark's workload builders."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    package = importlib.import_module("ramseykit")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ramseykit imported from {package.__file__}, not from {src}")
    from run import MODULES
    from workloads import WORKLOADS, Program

    modules = {name: importlib.import_module(f"ramseykit.{name}") for name in MODULES}
    return Program(modules), WORKLOADS


def operation_lines(prog, workloads, seed: int):
    for name, build in workloads.items():
        with tempfile.TemporaryDirectory() as tmp:
            for op in build(prog, seed, Path(tmp)):
                out = op.call()
                answer = repr(out.answer).replace(tmp, "<workdir>")
                yield f"{name}: {op.label}\t{answer} failed={out.failed}\t{out.nodes}"


def criterion_lines():
    acceptance = importlib.import_module("ramseykit.acceptance")
    capability_error = importlib.import_module("ramseykit.errors").CapabilityError
    search = acceptance.search
    nodes = 0

    def counted(engine):
        def call(*args, **kwargs):
            nonlocal nodes
            try:
                rep = engine(*args, **kwargs)
            except capability_error as err:
                nodes += getattr(err.partial, "nodes_explored", 0)
                raise
            nodes += rep.nodes_explored
            return rep
        return call

    originals = {name: getattr(search, name) for name in SEARCH_ENGINES}
    try:
        for name, engine in originals.items():
            setattr(search, name, counted(engine))
        for ident, _, _ in acceptance.ALL_CRITERIA:
            nodes = 0
            result = acceptance.run_criterion(ident)
            detail = re.sub(r"\d+\.\d+s\b", "<t>", result.detail)
            yield f"selftest: {ident}\t{result.passed} {detail}\t{nodes}"
    finally:
        for name, engine in originals.items():
            setattr(search, name, engine)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree whose ramseykit is run")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark's --seed")
    args = parser.parse_args(argv)
    prog, workloads = load(args.src.resolve())
    for line in operation_lines(prog, workloads, args.seed):
        print(line, flush=True)
    for line in criterion_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
