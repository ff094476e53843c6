"""The summary of ``tools/bench_pairs.py`` on synthetic parent/change runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "rate", "better": "higher", "bound": 0.1},
]


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change):
    """One pair per position; each side's metrics as (wall_s, rate)."""
    runs = []
    for pair, sides in enumerate(zip(parent, change)):
        for side, (wall, rate) in zip(("parent", "change"), sides):
            runs.append({"workload": "w", "pair": pair, "side": side, "failed": 0,
                         "metrics": {"wall_s": wall, "rate": rate}})
    return runs


def test_summary_counts_wins_and_compares_the_median_change_with_the_bound():
    summarize = _load().summarize
    parent = [(w, 100.0) for w in (0.98, 0.99, 1.0, 1.0, 1.01, 1.02)]
    change = [(w, r) for w, r in zip((0.8, 0.79, 0.81, 0.8, 0.82, 1.05),
                                     (70.0, 69.0, 71.0, 70.0, 72.0, 101.0))]
    got = summarize(_runs(parent, change), END_TO_END)["w"]
    wall, rate = got["wall_s"], got["rate"]
    # lower is better: five of six pairs won, the median 1.0 -> 0.805
    assert wall["pairs"] == 6 and wall["change_wins"] == 5
    assert wall["median_change"] == pytest.approx(-0.195)
    assert not wall["worse_than_bound"] and not wall["unresolved"]
    assert wall["median_gap_exceeds_parent_iqr"]
    # higher is better: one pair won, the median 100 -> 70.5, past the bound
    assert rate["change_wins"] == 1
    assert rate["median_change"] == pytest.approx(-0.295)
    assert rate["worse_than_bound"] and not rate["unresolved"]
    assert got["failed_operations"] == 0


def test_summary_leaves_few_pairs_or_a_wide_parent_spread_unresolved():
    summarize = _load().summarize
    steady = [(1.0, 100.0)] * 6
    # fewer than six pairs, whatever they read
    got = summarize(_runs(steady[:5], [(0.5, 200.0)] * 5), END_TO_END)["w"]
    assert got["wall_s"]["unresolved"] and got["rate"]["unresolved"]
    # the parent's runs spread past the bound: unresolved, unless every
    # change run beats every parent run
    wide = [(w, r) for w, r in zip((1.0, 2.0) * 3, (100.0, 50.0) * 3)]
    got = summarize(_runs(wide, [(1.4, 80.0)] * 6), END_TO_END)["w"]
    assert got["wall_s"]["unresolved"] and got["rate"]["unresolved"]
    got = summarize(_runs(wide, [(0.9, 110.0)] * 6), END_TO_END)["w"]
    assert not got["wall_s"]["unresolved"] and not got["rate"]["unresolved"]
    assert got["wall_s"]["change_wins"] == got["rate"]["change_wins"] == 6
    # a steady parent resolves six pairs
    got = summarize(_runs(steady, [(1.05, 99.0)] * 6), END_TO_END)["w"]
    assert not got["wall_s"]["unresolved"] and not got["rate"]["unresolved"]
