"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _ops(prog, workload, tmp_path):
    return {op.label: op for op in workloads.WORKLOADS[workload](prog, 0, tmp_path)}


@pytest.fixture(scope="module")
def prog():
    sys.path.insert(0, str(run.SRC))
    return run.load_program()


def test_spec_names_the_metrics_and_workloads_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_mode_runs_every_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-ramsey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload, label, nodes", [
    ("full-ramsey", "r(P6,P6)<=8", 64_114),
    ("family-threshold", "b3(kipas:5)<=12", 70_089),
    ("gallai-ramsey", "gr3(P5:P4) N=6 full", 20_172),
])
def test_node_counts_are_pinned(prog, tmp_path, workload, label, nodes):
    op = _ops(prog, workload, tmp_path)[label]
    outcome = op.call()
    op.check(outcome)
    assert outcome.nodes == nodes


def test_a_flipped_witness_edge_fails_the_check(prog, tmp_path):
    op = _ops(prog, "full-ramsey", tmp_path)["r(kipas:3,K3)<=9"]
    outcome = op.call()
    op.check(outcome)
    aborted, verdict, (n, k, colors) = outcome.answer
    P, naive = prog.patterns, prog.naive
    caught = 0
    for i in range(len(colors)):
        flipped = list(colors)
        flipped[i] = 3 - flipped[i]
        coloring = prog.coloring.EdgeColoring(n, k, flipped)
        if not (naive.naive_has_mono(coloring, 1, P.Kipas(3))
                or naive.naive_has_mono(coloring, 2, P.CompleteGraph(3))):
            continue
        with pytest.raises(CheckFailed):
            op.check(workloads.Outcome((aborted, verdict, (n, k, tuple(flipped))), outcome.nodes))
        caught += 1
    assert caught > 0


def test_a_detect_witness_in_the_wrong_color_fails_the_check(prog, tmp_path):
    ops = _ops(prog, "cli-roundtrip", tmp_path)
    op = ops["detect mono:path:6 K8k4"]
    outcome = op.call()
    op.check(outcome)
    code, body, err = outcome.answer
    payload = json.loads(body)
    payload["color"] = payload["color"] % 4 + 1
    with pytest.raises(CheckFailed):
        op.check(workloads.Outcome((code, json.dumps(payload), err)))


def test_a_changed_expected_value_fails_the_check(prog, tmp_path, monkeypatch):
    op = _ops(prog, "family-threshold", tmp_path)["b3(P6)<=10"]
    outcome = op.call()
    op.check(outcome)
    formulas = prog.formulas
    monkeypatch.setattr(formulas, "bk_path", lambda k, n: formulas.exact(9))
    with pytest.raises(CheckFailed):
        _ops(prog, "family-threshold", tmp_path)["b3(P6)<=10"].check(outcome)

    formula_id, params, _ = workloads.FORMULA_CASES[0]
    cases = [(formula_id, params, workloads._value(8))] + workloads.FORMULA_CASES[1:]
    monkeypatch.setattr(workloads, "FORMULA_CASES", cases)
    op = _ops(prog, "cli-roundtrip", tmp_path)["formula path-path"]
    with pytest.raises(CheckFailed):
        op.check(op.call())


def test_a_missing_boundary_is_reported_unmeasured(prog):
    modules = dict(prog.modules)
    search = type(sys)("search")
    search.__dict__.update({k: v for k, v in vars(prog.search).items()
                            if k != "_rainbow_present_partial"})
    modules["search"] = search
    original = prog.patterns.has_mono_pattern
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert "patterns.rainbow" in tracer.unmeasured
        assert "search" not in tracer.unmeasured
        assert prog.patterns.has_mono_pattern is not original
    finally:
        tracer.uninstall()
    assert prog.patterns.has_mono_pattern is original
