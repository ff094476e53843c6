"""Search/formula agreement beyond the acceptance minimum.

These are the repository's central regression checks: every value is
recomputed by an engine that shares no arithmetic with the closed forms.
"""

import pytest

from ramseykit.formulas import (
    b3_kipas,
    r_path_kipas,
    r_star_kipas,
    r_star_star,
    t_kipas_upper,
    t_path,
)
from ramseykit.patterns import Kipas, Path, Star, has_mono_pattern
from ramseykit.search import brute_force_ramsey, compute_bk, compute_t
from ramseykit.structure import is_member


@pytest.mark.parametrize(
    "n,m",
    [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)],
)
def test_path_kipas_formula_by_search(n, m):
    want = r_path_kipas(n, m).value
    rep = brute_force_ramsey(Path(n), Kipas(m), max(want, m + 1))
    assert rep.value.value == want


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 4), (3, 5), (4, 2), (4, 3), (4, 4)])
def test_star_kipas_formula_by_search(n, m):
    want = r_star_kipas(n, m).value
    rep = brute_force_ramsey(Star(n), Kipas(m), max(want, m + 1))
    assert rep.value.value == want


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_star_star_formula_by_search(n, m):
    want = r_star_star(n, m).value
    rep = brute_force_ramsey(Star(n), Star(m), max(want, m + 1, n + 1))
    assert rep.value.value == want


@pytest.mark.parametrize("n,m,want", [(4, 2, 5), (6, 3, 8)])
def test_kipas_linear_family_formula_by_search(n, m, want):
    from ramseykit.formulas import r_kipas_linear_family
    from ramseykit.patterns import LinearForestMin

    assert r_kipas_linear_family(n, m, 2).value == want
    rep = brute_force_ramsey(Kipas(n), LinearForestMin(m, 2), want)
    assert rep.value.value == want
    assert rep.extremal_witness.n_vertices == want - 1


def test_b3_small_kipas_thresholds_by_family_search():
    # the two sporadic small cases and the first odd case of the exact formula
    assert compute_bk(3, Kipas(2), 6).value.value == b3_kipas(2).value == 5
    assert compute_bk(3, Kipas(3), 8).value.value == b3_kipas(3).value == 7


def test_b3_kipas5_threshold_by_family_search():
    rep = compute_bk(3, Kipas(5), 12)
    assert rep.value.value == b3_kipas(5).value == 12
    w = rep.extremal_witness
    assert w.n_vertices == 11
    assert is_member(w, "bk") is not None
    assert all(has_mono_pattern(w, c, Kipas(5)) is None for c in (1, 2, 3))


def test_t_kipas5_threshold_stays_below_the_upper_bound():
    rep = compute_t(Kipas(5), 12)
    assert rep.value.exact
    assert rep.value.value <= t_kipas_upper(5).hi
    # frozen from the restricted enumeration itself; the bound above is the
    # independent side of the check
    assert rep.value.value == 10
    assert rep.extremal_witness.n_vertices == 9
    assert is_member(rep.extremal_witness, "t") is not None


@pytest.mark.parametrize("order", [3, 4, 5])
def test_t_path_thresholds_match(order):
    assert compute_t(Path(order), 9).value.value == t_path(order).value
