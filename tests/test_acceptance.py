"""The acceptance gate: one test per exit criterion, at its stated bound.

Each test prints its pass/fail line (visible with ``pytest -s`` or in the
``ramseykit selftest`` table, which runs the same functions).
"""

import pytest

from ramseykit import constructions
from ramseykit.acceptance import ALL_CRITERIA, run_criterion
from ramseykit.coloring import EdgeColoring

_IDS = [ident for ident, _, _ in ALL_CRITERIA]


@pytest.mark.parametrize("ident", _IDS)
def test_criterion(ident):
    result = run_criterion(ident, seed=0)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.ident} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"{result.ident}: {result.detail}"


def test_witness_suite_names_a_witness_that_holds_its_target(monkeypatch):
    # every t witness (and the small kipas ones) built all in color 1
    def monochromatic(family, sizes):
        return EdgeColoring.constant(sum(sizes), 1, n_colors=3)

    monkeypatch.setattr(constructions, "complete_parts", monochromatic)
    result = run_criterion("witness-suite")
    assert not result.passed
    assert result.detail == "t-path-witness(4): t path witness (4) contains path:4 in color 1"
