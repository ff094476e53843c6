import pytest

from ramseykit.errors import DomainError
from ramseykit.formulas import (
    UNBOUNDED,
    ValueOrInterval,
    b3_kipas,
    bk_path,
    gr3_k13_kipas,
    gr_k13_path,
    gr_p4plus_path,
    gr_p5_path,
    r_kipas_linear_family,
    r_linear_forests,
    r_path_kipas,
    r_path_path,
    r_path_star,
    r_star_kipas,
    r_star_star,
    t_kipas_upper,
    t_path,
)
from ramseykit.patterns import LinearForestExact, Path
from ramseykit.search import brute_force_ramsey


def test_value_or_interval_invariants():
    v = ValueOrInterval(3, 3)
    assert v.exact and v.value == 3 and 3 in v
    iv = ValueOrInterval(3, 5)
    assert not iv.exact and 4 in iv and 6 not in iv
    with pytest.raises(DomainError):
        iv.value
    with pytest.raises(DomainError):
        ValueOrInterval(5, 3)
    assert str(ValueOrInterval(2, UNBOUNDED)) == "interval 2 unbounded"


def test_path_path_examples():
    assert r_path_path(3, 3).value == 3
    assert r_path_path(5, 4).value == 6
    assert r_path_path(2, 2).value == 2
    with pytest.raises(DomainError):
        r_path_path(3, 4)
    with pytest.raises(DomainError):
        r_path_path(4, 1)


def test_linear_forest_examples_against_brute_force():
    assert r_linear_forests(6, 0, 3, 1).value == 6
    rep = brute_force_ramsey(LinearForestExact((2, 4)), Path(3), 7)
    assert rep.value.value == 6

    # two three-vertex paths: the formula and the search agree on 3
    assert r_linear_forests(3, 1, 3, 1).value == 3
    rep = brute_force_ramsey(Path(3), Path(3), 6)
    assert rep.value.value == 3

    # paths-only reduction
    for n in range(2, 20):
        for m in range(2, n + 1):
            assert r_linear_forests(n, n % 2, m, m % 2) == r_path_path(n, m)

    with pytest.raises(DomainError):
        r_linear_forests(4, 2, 3, 1)  # two odd components need order >= 6
    with pytest.raises(DomainError):
        r_linear_forests(4, 1, 3, 1)  # parity mismatch
    with pytest.raises(DomainError):
        r_linear_forests(5, 6, 3, 1)


def test_path_star_is_an_interval_with_caveat():
    iv = r_path_star(4, 3)
    assert (iv.lo, iv.hi) == (5, 6) and iv.caveat
    assert r_path_star(2, 2).hi == 3
    assert r_path_star(3, 2).lo == 3
    # brute force resolves the small cases inside the interval
    from ramseykit.patterns import Star

    for m, n in ((2, 2), (3, 2), (4, 3)):
        rep = brute_force_ramsey(Path(m), Star(n), 7)
        assert rep.value.value in r_path_star(m, n)


def test_path_star_refuses_where_the_envelope_misses():
    # exhaustive search puts r(P_m, K_{1,n}) below [m+n-2, m+n-1] at each point
    for m, n in ((5, 3), (6, 3), (6, 4), (7, 3), (7, 4), (7, 5), (8, 3), (8, 4)):
        with pytest.raises(DomainError, match="envelope"):
            r_path_star(m, n)
    assert r_path_star(9, 2).lo == 9  # r(P_m, P_3) = m


def test_star_star_examples():
    assert r_star_star(4, 4).value == 7
    assert r_star_star(3, 3).value == 6
    assert r_star_star(2, 3).value == 5


def test_path_kipas_examples():
    assert r_path_kipas(5, 6).value == 9
    assert r_path_kipas(4, 2).value == 7
    iv = r_path_kipas(4, 8)
    assert (iv.lo, iv.hi) == (7, 11)
    with pytest.raises(DomainError):
        r_path_kipas(3, 8)  # n < 4 with m > 2n-1 is uncovered
    with pytest.raises(DomainError):
        r_path_kipas(1, 2)


def test_star_kipas_examples():
    assert r_star_kipas(2, 4).value == 5
    assert r_star_kipas(3, 7).value == 10
    assert r_star_kipas(4, 4).value == 9


def test_kipas_linear_family_examples():
    assert r_kipas_linear_family(4, 2, 2).value == 5
    assert r_kipas_linear_family(12, 6, 3).value == 15
    assert r_kipas_linear_family(6, 3, 2).value == 8
    with pytest.raises(DomainError):
        r_kipas_linear_family(6, 4, 2)
    with pytest.raises(DomainError):
        r_kipas_linear_family(12, 5, 3)
    with pytest.raises(DomainError):
        r_kipas_linear_family(8, 4, 4)


def test_bk_path_examples():
    assert bk_path(3, 4).value == 4
    assert bk_path(3, 6).value == 8
    assert bk_path(4, 12).value == 17
    with pytest.raises(DomainError):
        bk_path(3, 3)
    with pytest.raises(DomainError):
        bk_path(2, 6)
    # branch boundary: the last size inside the small band is the order itself
    assert bk_path(3, 5).value == 5
    assert bk_path(3, 6).value == 8


def test_t_path_examples():
    assert t_path(4).value == 5
    assert t_path(5).value == 7
    assert t_path(3).value == 4
    with pytest.raises(DomainError):
        t_path(2)


def test_gr_path_examples():
    assert gr_p5_path(4, 6).value == 7
    assert gr_p4plus_path(4, 6).value == 8
    assert gr_p4plus_path(5, 8).value == 8
    # past the small band both give ceil((3n-3)/2), as bk_path does
    for k, n, value in ((4, 10, 14), (4, 11, 15), (5, 14, 20)):
        assert gr_p5_path(k, n).value == gr_p4plus_path(k, n).value == bk_path(k, n).value == value
    assert gr_k13_path(3, 6).value == 8
    assert gr_k13_path(4, 6).value == 6
    with pytest.raises(DomainError):
        gr_p5_path(4, 5)  # the strip k <= n < 2(k-1) is out of domain
    with pytest.raises(DomainError):
        gr_p5_path(3, 8)
    with pytest.raises(DomainError):
        gr_p4plus_path(5, 4)
    with pytest.raises(DomainError):
        gr_k13_path(3, 3)


def test_kipas_gr_examples():
    assert gr3_k13_kipas(5).value == 12
    assert gr3_k13_kipas(3).value == 7
    assert gr3_k13_kipas(2).value == 5
    iv = gr3_k13_kipas(6)
    assert (iv.lo, iv.hi) == (14, 15)
    with pytest.raises(DomainError):
        gr3_k13_kipas(4)
    assert b3_kipas(7).value == 17


def test_t_kipas_upper_examples():
    assert t_kipas_upper(5).hi == 12
    assert t_kipas_upper(6).hi == 14
    assert t_kipas_upper(5).caveat
    with pytest.raises(DomainError):
        t_kipas_upper(4)


def test_reduction_identities():
    for k in range(4, 9):
        for n in range(2 * (k - 1), 61):
            assert gr_k13_path(k, n) == bk_path(k, n)
    for n in range(4, 61):
        assert gr_k13_path(3, n) == t_path(n)
    for n in range(6, 61):
        assert t_path(n).value >= bk_path(3, n).value


def test_exact_values_cover_the_pattern_order():
    # sanity floor: a Ramsey value is at least the order of its larger pattern
    for n in range(2, 12):
        for m in range(2, n + 1):
            assert r_path_path(n, m).value >= n
    for n in range(2, 8):
        for m in range(2, 2 * n):
            assert r_path_kipas(n, m).value >= max(n, m + 1)
