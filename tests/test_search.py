import pytest

from ramseykit.errors import CapabilityError, DomainError
from ramseykit.formulas import UNBOUNDED
from ramseykit.patterns import (
    CompleteGraph,
    Kipas,
    LinearForestExact,
    LinearForestMin,
    P4_PLUS,
    Path,
    Star,
    has_mono_pattern,
    has_rainbow,
    max_linear_forest,
)
from ramseykit.search import (
    brute_force_ramsey,
    compute_bk,
    compute_t,
    gr_desk_verify,
    randomized_kipas_forest_refutation,
    universal_check,
)
from ramseykit.structure import is_member


def _assert_mono_free(coloring, patterns_by_color):
    from ramseykit.naive import naive_has_mono, naive_max_linear_forest

    small = coloring.n_vertices <= 7
    for c, p in patterns_by_color:
        if isinstance(p, LinearForestMin):
            assert max_linear_forest(coloring, c, p.min_order)[0] < p.min_edges
            if small:
                assert naive_max_linear_forest(coloring, c, p.min_order) < p.min_edges
        else:
            assert has_mono_pattern(coloring, c, p) is None
            if small:
                assert not naive_has_mono(coloring, c, p)


def test_ramsey_path_values_and_witnesses():
    cases = [((3, 3), 3), ((4, 3), 4), ((4, 4), 5), ((5, 4), 6)]
    for (a, b), want in cases:
        rep = brute_force_ramsey(Path(a), Path(b), 6)
        assert rep.value.value == want
        w = rep.extremal_witness
        assert w is not None and w.n_vertices == want - 1
        _assert_mono_free(w, [(1, Path(a)), (2, Path(b))])


def test_ramsey_kipas_linear():
    rep = brute_force_ramsey(Kipas(4), LinearForestMin(2, 2), 6)
    assert rep.value.value == 5
    _assert_mono_free(rep.extremal_witness, [(1, Kipas(4)), (2, LinearForestMin(2, 2))])


def test_ramsey_anti_symmetry():
    a = brute_force_ramsey(Path(5), Path(4), 6)
    b = brute_force_ramsey(Path(4), Path(5), 6)
    assert a.value == b.value


def test_ramsey_determinism():
    one = brute_force_ramsey(Path(4), Path(4), 6)
    two = brute_force_ramsey(Path(4), Path(4), 6)
    assert one.value == two.value
    assert one.extremal_witness == two.extremal_witness
    assert one.nodes_explored == two.nodes_explored


def test_ramsey_not_reached_is_an_interval():
    rep = brute_force_ramsey(Path(6), Path(6), 6)
    assert not rep.value.exact
    assert rep.value.lo == 7 and rep.value.hi == UNBOUNDED


def test_ramsey_domain_errors():
    with pytest.raises(DomainError):
        brute_force_ramsey(Path(3), Path(3), 10)
    with pytest.raises(DomainError):
        brute_force_ramsey(Path(8), Path(3), 6)


def test_budget_abort_carries_partial():
    with pytest.raises(CapabilityError) as exc:
        brute_force_ramsey(Path(5), Path(4), 6, node_budget=50)
    partial = exc.value.partial
    assert partial is not None and not partial.value.exact


def test_compute_bk_values():
    rep = compute_bk(3, Path(4), 8)
    assert rep.value.value == 4
    assert rep.extremal_witness is None  # the family is empty below 2(k-1)

    rep = compute_bk(3, Path(6), 10)
    assert rep.value.value == 8
    w = rep.extremal_witness
    assert w.n_vertices == 7
    assert is_member(w, "bk") is not None
    _assert_mono_free(w, [(c, Path(6)) for c in (1, 2, 3)])

    rep = compute_bk(3, Kipas(2), 6)
    assert rep.value.value == 5
    assert is_member(rep.extremal_witness, "bk") is not None

    with pytest.raises(DomainError):
        compute_bk(2, Path(4), 8)
    with pytest.raises(DomainError):
        compute_bk(3, Path(4), 15)


def test_compute_t_values():
    for order, want in ((3, 4), (4, 5), (5, 7)):
        rep = compute_t(Path(order), 9)
        assert rep.value.value == want
        if rep.extremal_witness is not None:
            assert rep.extremal_witness.n_vertices == want - 1
            assert is_member(rep.extremal_witness, "t") is not None
            _assert_mono_free(rep.extremal_witness, [(c, Path(order)) for c in (1, 2, 3)])
    with pytest.raises(DomainError):
        compute_t(Path(4), 13)


def test_compute_t_not_reached():
    rep = compute_t(Path(6), 7)
    assert not rep.value.exact and rep.value.lo == 8


def test_universal_check_holds_and_fails():
    ok = universal_check(
        6, [(1, Kipas(5))], [(2, LinearForestExact((2, 2))), (2, Path(3))]
    )
    assert ok.holds and ok.counterexample is None

    bad = universal_check(4, [], [(2, Path(3))])
    assert not bad.holds
    cex = bad.counterexample
    assert cex is not None
    assert has_mono_pattern(cex, 2, Path(3)) is None
    # enumeration order makes the all-red coloring the first counterexample
    assert cex.colors_used() == {1}


def test_universal_check_budget():
    with pytest.raises(CapabilityError) as exc:
        universal_check(7, [(1, Kipas(5))], [(2, Path(5))], node_budget=100)
    assert exc.value.partial is not None


def test_universal_check_k11_aborts_on_budget():
    # matchings and paired stars alone give astronomically many colorings with
    # no order-3 forest of six edges, so K_11 is out of exhaustive reach; the
    # engine must abort with a partial report instead of faking an answer
    with pytest.raises(CapabilityError) as exc:
        universal_check(
            11,
            [(1, Kipas(8))],
            [(2, LinearForestMin(6, 3))],
            node_budget=5_000,
        )
    partial = exc.value.partial
    assert partial is not None and not partial.holds and partial.counterexample is None


def test_gr_full_mode_small():
    rep = gr_desk_verify(3, Star(3), Path(4), 5, mode="full")
    assert rep.holds
    rep4 = gr_desk_verify(3, Star(3), Path(4), 4, mode="full")
    assert not rep4.holds
    cex = rep4.counterexample
    assert cex.exact_flag
    assert has_rainbow(cex, Star(3)) is None
    _assert_mono_free(cex, [(c, Path(4)) for c in (1, 2, 3)])


def test_gr_structure_mode_matches_formula():
    up = gr_desk_verify(4, Path(5), Path(6), 7, mode="structure")
    assert up.holds
    low = gr_desk_verify(4, Path(5), Path(6), 6, mode="structure")
    assert not low.holds
    cex = low.counterexample
    # the first counterexample is the near-monochromatic shape: a one-color
    # K_5 plus a vertex whose star realizes the other three colors
    assert cex.n_vertices == 6
    rest = [cex.color_of(u, v) for u in range(5) for v in range(u + 1, 5)]
    assert set(rest) == {1}
    assert sorted(cex.color_of(u, 5) for u in range(5)) == [2, 2, 2, 3, 4]
    _assert_mono_free(cex, [(c, Path(6)) for c in (1, 2, 3, 4)])


def test_gr_structure_p4plus_context():
    # gr_4(P_4^+ : P_6) = 8: size 8 holds, size 7 has the g2 counterexample
    from ramseykit.patterns import P4_PLUS

    up = gr_desk_verify(4, P4_PLUS, Path(6), 8, mode="structure")
    assert up.holds
    low = gr_desk_verify(4, P4_PLUS, Path(6), 7, mode="structure")
    assert not low.holds
    assert is_member(low.counterexample, "g2") is not None


def test_gr_structure_k13_context():
    # gr_3(K_{1,3} : P_4) = 5 through the family case list as well
    up = gr_desk_verify(3, Star(3), Path(4), 5, mode="structure")
    assert up.holds
    low = gr_desk_verify(3, Star(3), Path(4), 4, mode="structure")
    assert not low.holds


def test_gr_full_mode_budget_guard():
    with pytest.raises(CapabilityError):
        gr_desk_verify(3, Star(3), Path(5), 9, mode="full")


def test_gr_unknown_rainbow_context():
    with pytest.raises(CapabilityError):
        gr_desk_verify(4, Star(4), Path(5), 6, mode="structure")


def test_gr_modes_agree_where_both_are_feasible():
    # gr_3(K_{1,3} : P_5) = 7: both engines must find a counterexample at 6
    full = gr_desk_verify(3, Star(3), Path(5), 6, mode="full")
    struct = gr_desk_verify(3, Star(3), Path(5), 6, mode="structure")
    assert not full.holds and not struct.holds
    for cex in (full.counterexample, struct.counterexample):
        assert has_rainbow(cex, Star(3)) is None
        assert cex.exact_flag
        _assert_mono_free(cex, [(c, Path(5)) for c in (1, 2, 3)])
    assert gr_desk_verify(3, Star(3), Path(5), 7, mode="structure").holds


def test_randomized_refutation_finds_nothing_at_the_smallest_instance():
    assert randomized_kipas_forest_refutation(12, 3, 2000, seed=0) is None
    assert randomized_kipas_forest_refutation(12, 3, 500, seed=7) is None


def test_node_counts_and_witnesses_are_pinned():
    # detection changes must not move a single prune: node counts and the
    # lexicographically least witnesses stay exactly as they are
    required = [(2, LinearForestExact((3, 3))), (2, Path(5)), (2, LinearForestExact((2, 4)))]
    rep = universal_check(7, [(1, Kipas(5))], required)
    assert rep.holds and rep.nodes_explored == 15_208

    rep = gr_desk_verify(3, Star(3), Path(4), 6, mode="full")
    assert rep.holds and rep.nodes_explored == 2_568

    # full mode with a rainbow pattern that has more edges than colors, or
    # that needs every color in use: the color-count bound prunes nothing
    for k, rainbow, target, n, nodes in [
        (3, Path(5), Path(4), 6, 20_172),
        (3, P4_PLUS, Path(4), 6, 20_172),
        (3, Star(3), CompleteGraph(3), 6, 12_702),
        (4, Star(3), Path(4), 5, 4_820),
    ]:
        rep = gr_desk_verify(k, rainbow, target, n, mode="full")
        assert rep.holds and rep.nodes_explored == nodes, (k, rainbow, target, n)

    rep = brute_force_ramsey(CompleteGraph(3), Path(5), 9)
    assert rep.value.value == 9 and rep.nodes_explored == 28_748
    assert rep.extremal_witness.colors == (
        1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 1, 1, 1, 2, 2, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 2, 2,
    )

    # fixed edges: one node per distinct fixed color before the free edges
    rep = compute_t(Path(5), 9)
    assert rep.value.value == 7 and rep.nodes_explored == 53
    assert rep.extremal_witness.colors == (1, 1, 1, 3, 3, 1, 1, 3, 3, 1, 2, 2, 2, 2, 2)

    rep = gr_desk_verify(4, Path(5), Path(6), 6, mode="structure")
    assert not rep.holds and rep.nodes_explored == 19
    assert rep.counterexample.colors == (1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2, 1, 3, 4)

    # each context scans its case-list rows in a fixed order
    rep = gr_desk_verify(4, P4_PLUS, Path(6), 7, mode="structure")
    assert not rep.holds and rep.nodes_explored == 5
    assert rep.counterexample.colors == (
        2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    )
    rep = gr_desk_verify(3, Star(3), Path(5), 6, mode="structure")
    assert not rep.holds and rep.nodes_explored == 23
    assert rep.counterexample.colors == (1, 1, 1, 3, 3, 1, 1, 3, 3, 1, 2, 2, 2, 2, 2)
    rep = gr_desk_verify(5, Path(5), Path(7), 7, mode="structure")
    assert not rep.holds and rep.nodes_explored == 54
    assert rep.counterexample.colors == (
        1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 3, 1, 4, 5,
    )


def test_capability_abort_is_labelled_apart_from_budget(monkeypatch):
    from ramseykit import search
    from ramseykit.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded) as exc:
        brute_force_ramsey(Path(5), Path(4), 6, node_budget=50)
    assert exc.value.partial.value.caveat == "aborted on budget"

    def refuses(*args):
        raise CapabilityError("detector limit")

    monkeypatch.setattr(search, "mono_present", refuses)
    with pytest.raises(CapabilityError) as exc:
        brute_force_ramsey(Path(5), Path(4), 6)
    assert not isinstance(exc.value, BudgetExceeded)
    assert exc.value.partial.value.caveat == "aborted on a capability limit"
    with pytest.raises(CapabilityError) as exc:
        universal_check(5, [(1, Path(3))], [(2, Path(3))])
    assert not isinstance(exc.value, BudgetExceeded)
    assert exc.value.partial.notes == ("aborted on a capability limit; no conclusion",)
