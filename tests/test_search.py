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
    RAINBOW,
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


def test_an_empty_size_range_leaves_every_size_from_the_first_open():
    # compute_t scans from K_3 and compute_bk from K_{2(k-1)}: a max_n below
    # that settles nothing, so the interval starts at the first size, as a
    # budget abort before the first counterexample does
    rep = compute_t(Path(5), 1)
    assert (rep.value.lo, rep.value.hi) == (3, UNBOUNDED)
    assert rep.value.caveat == "not forced by size 1"
    assert rep.extremal_witness is None and rep.nodes_explored == 0
    rep = compute_bk(4, Path(8), 4)
    assert (rep.value.lo, rep.value.hi, rep.extremal_witness) == (6, UNBOUNDED, None)
    # a size range that runs out past a counterexample starts just after it
    assert compute_t(Path(5), 3).value.lo == 4


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


def test_universal_check_refuses_colors_other_than_1_and_2():
    # refused, neither dropped (3) nor read as the rainbow key (0)
    for c in (0, 3):
        with pytest.raises(DomainError, match=f"color {c} of path:3"):
            universal_check(5, [(c, Path(3))], [(2, Path(3))])
        with pytest.raises(DomainError, match=f"color {c} of path:3"):
            universal_check(5, [(1, Path(3))], [(c, Path(3))])


def test_universal_check_refuses_fewer_than_one_vertex():
    # K_{-1} would have n(n-1)/2 = 1 allowed entry and no edge to put it on
    for n in (-1, 0):
        with pytest.raises(DomainError, match=f"at least 1 vertex, got {n}"):
            universal_check(n, [], [(1, Path(2))])
    assert universal_check(1, [], [(1, Path(2))]).counterexample.n_vertices == 1


def test_negative_node_budgets_are_refused():
    for run in (
        lambda b: brute_force_ramsey(Path(3), Path(3), 4, node_budget=b),
        lambda b: compute_t(Path(4), 5, node_budget=b),
        lambda b: universal_check(4, [], [(1, Path(3))], node_budget=b),
        lambda b: gr_desk_verify(3, Star(3), Path(4), 4, "full", node_budget=b),
    ):
        with pytest.raises(DomainError, match="node budget must be >= 0, got -5"):
            run(-5)
    # a budget of 0 is valid: the first node aborts
    with pytest.raises(CapabilityError, match="search exceeded 0 nodes"):
        brute_force_ramsey(Path(3), Path(3), 4, node_budget=0)


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


def test_gr_structure_mode_refuses_below_the_pattern_order():
    # K_4 has no 5-vertex rainbow pattern, so the case list misses colorings
    # like (1,2,3,3,2,4), which full mode finds
    for rainbow in (Path(5), P4_PLUS):
        cex = gr_desk_verify(4, rainbow, Path(3), 4, mode="full").counterexample
        assert cex is not None and cex.colors == (1, 2, 3, 3, 2, 4)
        for n in (1, 4):
            with pytest.raises(CapabilityError, match="--mode full") as err:
                gr_desk_verify(4, rainbow, Path(3), n, mode="structure")
            assert type(err.value) is CapabilityError and err.value.partial is None
    with pytest.raises(CapabilityError, match="starts at N = 4"):
        gr_desk_verify(3, Star(3), Path(4), 3, mode="structure")


def test_randomized_refutation_returns_a_checked_counterexample():
    from ramseykit.naive import naive_has_mono, naive_max_linear_forest

    cex = randomized_kipas_forest_refutation(4, 2, 300, 0)
    assert cex is not None and cex.n_vertices == 6 and cex.n_colors == 2
    assert not naive_has_mono(cex, 1, Kipas(4))
    assert naive_max_linear_forest(cex, 2, 3) < 4


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



def test_scans_through_the_explicit_and_rainbow_placers_are_pinned():
    # the mono test of p4plus and the rainbow test of every pattern but a
    # star run the whole-graph placers: verdicts, node counts and least
    # witnesses stay as they were under the placers' edge-anchored plans
    for k, rainbow, n, nodes, colors in [
        (4, Path(5), 5, 102, (1, 1, 1, 1, 2, 3, 4, 4, 3, 2)),
        (4, P4_PLUS, 5, 482, (1, 1, 1, 2, 3, 3, 4, 3, 4, 4)),
        (5, Path(5), 5, 183_005, None),
        (3, CompleteGraph(3), 6, 4_278, None),
    ]:
        rep = gr_desk_verify(k, rainbow, Path(4), n, mode="full")
        got = None if rep.counterexample is None else rep.counterexample.colors
        assert (rep.holds, rep.nodes_explored, got) == (colors is None, nodes, colors), (k, n)

    rep = brute_force_ramsey(P4_PLUS, Path(6), 9)
    assert rep.value.value == 7 and rep.nodes_explored == 4_067
    assert rep.extremal_witness.colors == (1, 1, 1, 1, 1) + (2,) * 10
    rep = brute_force_ramsey(P4_PLUS, Kipas(4), 9)
    assert rep.value.value == 9 and rep.nodes_explored == 52_974
    assert rep.extremal_witness.colors == (
        1, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1,
    )

def test_forest_checks_keep_their_counterexamples_and_node_counts():
    # universal checks that need a linear forest, pinned while the anchored
    # forest test still ran the placer: the verdict, the node count and the
    # least counterexample stay, and the naive oracle confirms that each
    # counterexample avoids every tracked pattern
    from ramseykit.naive import naive_has_mono

    F, star = LinearForestExact, (2, Star(3))
    cases = [
        (6, [(1, Kipas(4))], [(2, F((3, 3))), star], 192, "111121221221111"),
        (6, [(1, Kipas(5))], [(2, LinearForestMin(2, 3))], 96, "111121121211111"),
        (7, [(1, Kipas(3))], [(2, F((3, 3)))], 386, "111112222212221221211"),
        (7, [(1, Kipas(4))], [(2, F((4, 4))), star], 512, "111122111222211211111"),
        (7, [(1, Kipas(4))], [(2, F((5, 2))), star], 504, "111122111222211211111"),
        (7, [(1, Kipas(4))], [(2, F((3, 3, 2))), star], 512, "111122111222211211111"),
        (7, [(1, Kipas(4))], [(2, F((4, 3, 2))), star], 512, "111122111222211211111"),
        (7, [(1, Kipas(4))], [(2, F((2, 2, 2, 2))), star], 512, "111122111222211211111"),
        (8, [(1, Kipas(3))], [(2, F((5, 2)))], 1_540, "1111222222111221112111111222"),
        (8, [(1, CompleteGraph(3))], [(2, F((5, 2)))], 218, "1111222222111221112111111222"),
        (7, [(1, Kipas(5))], [(2, F((2, 2)))], 2_202, None),
        (7, [], [(1, F((3, 3))), (2, F((3, 3)))], 3_982, None),
        (7, [(1, Path(5))], [(2, F((2, 2, 2)))], 6_234, None),
        (7, [(1, CompleteGraph(3))], [(2, F((4, 2)))], 15_474, None),
    ]
    for n, forbidden, required, nodes, colors in cases:
        rep = universal_check(n, forbidden, required)
        got = None if rep.counterexample is None else "".join(map(str, rep.counterexample.colors))
        assert (rep.holds, rep.nodes_explored, got) == (colors is None, nodes, colors), required
        if got is not None:
            for c, p in forbidden + required:
                assert not naive_has_mono(rep.counterexample, c, p), (required, c, p)


def test_degenerate_branches_of_the_scan_are_pinned():
    # a tracked pattern with no edges holds in the empty graph: the scan
    # returns before its first free edge, so r(P_1, P_3) is 1 in no nodes
    rep = brute_force_ramsey(Path(1), Path(3), 3)
    assert rep.value.lo == rep.value.hi == 1 and rep.nodes_explored == 0
    # with one color every edge is fixed and each is a rainbow P_2: the
    # prefix skips its tests after the first and costs its one node
    rep = gr_desk_verify(1, Path(2), Path(5), 3, mode="full")
    assert rep.holds and rep.nodes_explored == 1
    # a rainbow P_1 has no edges, so its anchored test is the constant one
    rep = gr_desk_verify(2, Path(1), Path(9), 4, mode="full")
    assert rep.holds and rep.nodes_explored == 2


def test_capability_abort_is_labelled_apart_from_budget(monkeypatch):
    from ramseykit import search
    from ramseykit.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded) as exc:
        brute_force_ramsey(Path(5), Path(4), 6, node_budget=50)
    assert exc.value.partial.value.caveat == "aborted on budget"

    def refuses(*args):
        raise CapabilityError("detector limit")

    # _scan binds the tests that search.mono_test builds, once per scan
    monkeypatch.setattr(search, "mono_test", lambda n, p: refuses)
    with pytest.raises(CapabilityError) as exc:
        brute_force_ramsey(Path(5), Path(4), 6)
    assert not isinstance(exc.value, BudgetExceeded)
    assert exc.value.partial.value.caveat == "aborted on a capability limit"
    with pytest.raises(CapabilityError) as exc:
        universal_check(5, [(1, Path(3))], [(2, Path(3))])
    assert not isinstance(exc.value, BudgetExceeded)
    assert exc.value.partial.notes == ("aborted on a capability limit; no conclusion",)


# --- the mirror images of unused twin colors --------------------------------------


def _outcome(run):
    """Everything a search returns or raises, wall time left out."""
    try:
        rep = run()
    except CapabilityError as err:
        return type(err).__name__, str(err), _fields(err.partial)
    return "report", _fields(rep)


def _fields(rep):
    if rep is None:
        return None
    found = getattr(rep, "extremal_witness", None) or getattr(rep, "counterexample", None)
    return (
        rep.quantity, getattr(rep, "value", None), getattr(rep, "holds", None),
        found and (found.n_vertices, found.colors, found.exact_flag),
        rep.nodes_explored, rep.notes,
    )


def _mirror_and_plain(monkeypatch, run):
    from ramseykit import search

    mirrored = _outcome(run)
    monkeypatch.setattr(search, "_MIRROR", False)
    plain = _outcome(run)
    monkeypatch.setattr(search, "_MIRROR", True)
    return mirrored, plain


def _scan_outcome(n, k, allowed, tracked, surjective=False):
    from ramseykit.search import _Budget, _scan

    budget = _Budget(10**6)
    got = _scan(n, k, allowed, tracked, surjective, budget)
    return budget.mirrored, budget.nodes, got and got.colors


def _mirror_grid():
    from ramseykit.structure import CONTEXTS

    targets = (Path(4), CompleteGraph(3))
    for p in (Path(3), Path(4), Path(5), Path(6), CompleteGraph(3), Kipas(3), Star(3),
              LinearForestExact((2, 3))):
        yield lambda p=p: brute_force_ramsey(p, p, 7)
    # scans whose colors track different patterns, which never mirror
    yield lambda: brute_force_ramsey(CompleteGraph(3), Path(4), 7)
    yield lambda: brute_force_ramsey(Path(5), Kipas(3), 7)
    yield lambda: universal_check(6, [(1, Kipas(4))], [(2, Path(4))])
    for rainbow, least_k, _ in CONTEXTS.values():
        for target in targets:
            for k, top in ((2, 6), (3, 6), (4, 5)):
                for n in range(2, top + 1):
                    yield lambda k=k, n=n, r=rainbow, t=target: gr_desk_verify(k, r, t, n, "full")
            for k in (least_k, least_k + 1):
                for n in range(1, 8):
                    yield lambda k=k, n=n, r=rainbow, t=target: gr_desk_verify(
                        k, r, t, n, "structure"
                    )
    yield lambda: compute_bk(3, Path(4), 9)
    yield lambda: compute_bk(4, Kipas(3), 9)
    yield lambda: compute_t(Path(5), 9)
    yield lambda: compute_t(Kipas(4), 9)


def test_mirror_matches_the_plain_scan(monkeypatch):
    # values, witnesses, verdicts, notes, errors and node counts are those
    # of the plain rank-order scan
    for run in _mirror_grid():
        mirrored, plain = _mirror_and_plain(monkeypatch, run)
        assert mirrored == plain


def test_mirror_aborts_where_the_plain_scan_does(monkeypatch):
    # gr_4(K13:P4) on K_5 mirrors its first subtree of 1,205 nodes three
    # times, so most of these budgets run out inside a mirror image; the
    # first edge's color-1 subtree of gr_3(P5:P4) on K_6 spends 6,724 nodes,
    # and budgets spread over it run out inside mirror images of the second
    # to the sixth edge
    runs = [
        (4_821, 37, lambda b: gr_desk_verify(4, Star(3), Path(4), 5, "full", node_budget=b)),
        (1_088, 3, lambda b: brute_force_ramsey(Path(5), Path(5), 7, node_budget=b)),
        (6_725, 151, lambda b: gr_desk_verify(3, Path(5), Path(4), 6, "full", node_budget=b)),
    ]
    for top, step, run in runs:
        for budget in [*range(0, top, step), top - 2, top - 1, top]:
            mirrored, plain = _mirror_and_plain(monkeypatch, lambda: run(budget))
            assert mirrored == plain, budget


@pytest.fixture
def budgets(monkeypatch):
    """Every search budget made while the fixture is in use."""
    from ramseykit import search

    made = []

    class Recorded(search._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(search, "_Budget", Recorded)
    return made


def test_mirror_runs_only_on_color_symmetric_scans(budgets):
    from ramseykit.structure import CASE_CLIQUE_PLUS_VERTEX, CASE_HUB_TRIPLE, SHAPES

    def mirrored(run):
        budgets.clear()
        rep = run()
        return budgets[0].mirrored, rep.nodes_explored

    # every edge allows all colors and every color tracks the same target
    assert mirrored(lambda: gr_desk_verify(3, Path(5), Path(4), 6, "full")) == (16_807, 20_172)
    assert mirrored(lambda: gr_desk_verify(4, Star(3), Path(4), 5, "full")) == (4_590, 4_820)
    assert mirrored(lambda: brute_force_ramsey(Path(6), Path(6), 8)) == (32_021, 64_114)
    # different patterns per color
    assert mirrored(lambda: brute_force_ramsey(CompleteGraph(3), Path(5), 9)) == (0, 28_748)
    assert mirrored(lambda: universal_check(7, [(1, Kipas(5))], [(2, Path(5))])) == (0, 1_126)
    # free edges with different tuples
    assert mirrored(lambda: compute_bk(3, Path(4), 9))[0] == 0

    def row(label, n, target):
        (allowed,) = SHAPES[label][0](n, 4)
        return _scan_outcome(n, 4, allowed, [(c, target) for c in range(1, 5)], True)

    # the fixed edge is color 1, so only the colors 2..4 mirror each other,
    # and below the first free edge the two that it left unused;
    # no 4-coloring of K_3 is exact
    assert row(CASE_CLIQUE_PLUS_VERTEX, 3, Path(4)) == (13, 21, None)
    # the free edges allow colors 1 and 4, which fixed edges use as well:
    # color 1 fails at the first free edge where color 4 succeeds
    assert row(CASE_HUB_TRIPLE, 5, Path(5)) == (0, 8, (2, 3, 4, 4, 4, 1, 1, 1, 1, 1))

    paths = [(c, Path(3)) for c in (1, 2, 3)]
    # one shared color besides a fixed one: nothing to mirror
    assert _scan_outcome(4, 2, [(1,)] + [(1, 2)] * 5, paths[:2]) == (0, 5, None)
    # colors 1 and 2 at the first free edge, but the later edges allow 1 and 3
    assert _scan_outcome(3, 3, [(1, 2), (1, 3), (1, 3)], paths) == (0, 9, (2, 1, 3))
    # colors 1 and 3 mirror each other around color 2, which a fixed edge
    # uses and which cannot go on the first edge: 1 + 7 + 1 + 7 nodes
    lfx = [(2, LinearForestExact((2, 2)))]
    assert _scan_outcome(4, 3, [(1, 2, 3)] * 5 + [(2,)], paths + lfx) == (7, 16, None)


def test_mirror_counts_unused_twins_at_every_node(monkeypatch):
    from ramseykit import search

    # no exact 3-coloring of K_5 has a matching in every color class; 39
    # of the 48 nodes are mirror images, 32 of the first edge's color 1
    # and 7 counted at deeper nodes
    paths = [(c, Path(3)) for c in (1, 2, 3)]
    assert _scan_outcome(5, 3, [(1, 2, 3)] * 10, paths, True) == (39, 48, None)
    monkeypatch.setattr(search, "_MIRROR", False)
    assert _scan_outcome(5, 3, [(1, 2, 3)] * 10, paths, True) == (0, 48, None)


def test_mirror_skips_twins_that_an_earlier_free_edge_uses():
    # color 1 on edge 01 leaves only colors 2 and 3 unused at edge 02;
    # color 1 fails there, and must not stand for colors 2 and 3
    paths = [(c, Path(3)) for c in (1, 2, 3)]
    assert _scan_outcome(4, 3, [(1, 2, 3)] * 6, paths) == (0, 12, (1, 2, 3, 3, 2, 1))
    # the fixed edge 23 takes color 3, so only 1 and 2 are twins: color 2
    # mirrors color 1's 7 refuted nodes at edge 01, then edge 03 must
    # search color 2, as color 1 is on edge 02
    assert _scan_outcome(4, 3, [(1, 2, 3)] * 5 + [(3,)], paths) == (
        7, 22, (3, 1, 2, 2, 1, 3)
    )


# P_4 twice, so that it is drawn more often
_ORACLE_MONO = [Path(2), Path(3), Path(4), Path(4), Path(5), Star(2), Star(3), Kipas(2),
                Kipas(3), CompleteGraph(3), CompleteGraph(4), LinearForestExact((2, 2)),
                LinearForestExact((2, 3)), LinearForestMin(2, 2), P4_PLUS]
_ORACLE_RAINBOW = [Path(3), Path(4), Star(2), Star(3), P4_PLUS]


def _oracle_tables(count, limit=2000):
    """Random (n, k, allowed, tracked, surjective) with n <= 5 and k <= 3 and
    at most ``limit`` colorings.  In every other table the free edges share
    one tuple, and in every fourth the colors also track the same patterns,
    so that table is color-symmetric."""
    import random
    from math import prod

    rng = random.Random(17)
    for trial in range(count):
        n, k = rng.choice((2, 3, 4, 4, 5, 5, 5)), rng.choice((1, 2, 2, 3, 3))
        shared_tuple, symmetric = trial % 2 == 0, trial % 4 == 0
        shared = tuple(range(1, k + 1))
        allowed = []
        for _ in range(n * (n - 1) // 2):
            if rng.random() < 0.15:
                allowed.append((rng.randint(1, k),))
            elif shared_tuple:
                allowed.append(shared)
            else:
                allowed.append(tuple(sorted(rng.sample(shared, rng.randint(1, k)))))
        for i in rng.sample(range(len(allowed)), len(allowed)):
            if prod(map(len, allowed)) <= limit:
                break
            allowed[i] = (allowed[i][0],)
        picks = rng.sample(_ORACLE_MONO, rng.randint(1, 2))
        tracked = [(c, p) for c in range(1, k + 1)
                   for p in (picks if symmetric else rng.sample(_ORACLE_MONO, rng.randint(0, 2)))]
        if rng.random() < 0.5:
            tracked.append((RAINBOW, rng.choice(_ORACLE_RAINBOW)))
        yield n, k, allowed, tracked, rng.random() < 0.4


def test_scan_returns_the_naive_first_good_coloring(monkeypatch):
    # the rank-order scan, mirrored and plain, against itertools.product
    # over the allowed lists with every pattern tested by the naive oracles
    from ramseykit import search
    from ramseykit.naive import naive_first_good

    found = mirrored = 0
    for n, k, allowed, tracked, surjective in _oracle_tables(400):
        want = naive_first_good(n, k, allowed, tracked, surjective)
        want = want and (want.colors, want.exact_flag)
        for mirror in (True, False):
            monkeypatch.setattr(search, "_MIRROR", mirror)
            budget = search._Budget(10**6)
            got = search._scan(n, k, allowed, tracked, surjective, budget)
            assert (got and (got.colors, got.exact_flag)) == want, (n, k, allowed, tracked)
            mirrored += budget.mirrored > 0
        found += want is not None
    assert 140 < found < 280 and mirrored > 12, (found, mirrored)
