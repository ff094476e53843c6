import itertools
import random

import pytest

from ramseykit.cli import main
from ramseykit.coloring import EdgeColoring, pair_iter, read_coloring_file
from ramseykit.constructions import (
    FamilyDescriptor,
    _assert_free,
    build_family,
    complete_parts,
    g2_coloring,
    g3_coloring,
    witness_b3_kipas,
    witness_bk_path,
    witness_kipas_linear,
    witness_small_kipas,
    witness_t_path,
)
from ramseykit.errors import CapabilityError, DescriptorError, DomainError, RamseykitError
from ramseykit.naive import naive_has_mono
from ramseykit.patterns import (
    Kipas,
    LinearForestMin,
    Path,
    has_mono_pattern,
    longest_mono_path,
    max_linear_forest,
)
from ramseykit.structure import is_member


def test_build_bk_degenerate_choice_is_monochromatic():
    parts = ((0, 1), (2, 3, 4))
    choices = {(0, 1): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1}
    coloring = build_family(FamilyDescriptor("bk", 5, parts=parts, internal_choices=choices))
    assert coloring.colors_used() == {1}
    assert not coloring.exact_flag


def test_build_g2_example():
    coloring = g2_coloring(6)
    assert coloring.color_of(0, 1) == 2
    assert all(coloring.color_of(0, v) == 3 for v in range(2, 6))
    assert all(coloring.color_of(1, v) == 4 for v in range(2, 6))
    assert all(
        coloring.color_of(u, v) == 1 for u in range(2, 6) for v in range(u + 1, 6)
    )
    assert coloring.exact_flag


def test_build_g3_example():
    coloring = g3_coloring(5)
    assert coloring.color_of(0, 1) == 2
    assert coloring.color_of(1, 2) == 3
    assert coloring.color_of(0, 2) == 4
    others = [
        coloring.color_of(u, v)
        for u in range(5)
        for v in range(u + 1, 5)
        if (u, v) not in ((0, 1), (1, 2), (0, 2))
    ]
    assert set(others) == {1}


def _g2_by_readme(n, x, y):
    """One edge xy of color 2, x's other edges 3, y's other edges 4, the rest 1."""
    def color(u, v):
        if {u, v} == {x, y}:
            return 2
        return 3 if x in (u, v) else 4 if y in (u, v) else 1

    return [color(u, v) for u, v in pair_iter(n)]


def _g3_by_readme(n, a, b, c):
    """The triangle abc with ab 2, bc 3 and ca 4, every other edge 1."""
    triangle = {frozenset((a, b)): 2, frozenset((b, c)): 3, frozenset((c, a)): 4}
    return [triangle.get(frozenset((u, v)), 1) for u, v in pair_iter(n)]


def test_g2_g3_on_every_special_tuple_follow_the_readme_rule():
    for n in range(3, 8):
        for family, size, rule in (("g2", 2, _g2_by_readme), ("g3", 3, _g3_by_readme)):
            for special in itertools.permutations(range(n), size):
                got = build_family(FamilyDescriptor(family, n, special=special))
                want = rule(n, *special)
                assert list(got.colors) == want, (family, n, special)
                assert got.n_colors == 4 and got.exact_flag == (set(want) == {1, 2, 3, 4})
    assert g2_coloring(5, 3, 1).colors == tuple(_g2_by_readme(5, 3, 1))
    assert g3_coloring(6, 4, 0, 2).colors == tuple(_g3_by_readme(6, 4, 0, 2))


# every malformed descriptor build_family refuses, with its whole message
MALFORMED = [
    (FamilyDescriptor("bk", 4), "bk: needs at least 2 parts (k >= 3)"),
    (FamilyDescriptor("bk", 2, parts=((0, 1),)), "bk: needs at least 2 parts (k >= 3)"),
    (FamilyDescriptor("t", 3), "t: partition required"),
    (FamilyDescriptor("g1", 3, parts=((0,), (1, 2))), "g1: expected 3 parts, got 2"),
    (FamilyDescriptor("bk", 3, parts=((0,), (1, 2))), "bk: part (0,) smaller than 2"),
    (FamilyDescriptor("t", 3, parts=((0,), (1,), (3,))), "t: vertex 3 out of range"),
    (FamilyDescriptor("bk", 4, parts=((0, 1), (1, 2, 3))), "bk: vertex 1 in two parts"),
    (FamilyDescriptor("t", 2, parts=((0,), (1,), ())), "t: 1 empty parts, at most 0 allowed"),
    (FamilyDescriptor("g1", 1, parts=((0,), (), ())), "g1: 2 empty parts, at most 1 allowed"),
    (FamilyDescriptor("t", 4, parts=((0,), (1,), (2,))), "t: parts do not cover all vertices"),
    (
        FamilyDescriptor("bk", 4, parts=((0, 1), (2, 3)), internal_choices={(0, 1): 2}),
        "bk: internal edge (2, 3) has no color choice",
    ),
    (
        FamilyDescriptor("bk", 4, parts=((0, 1), (2, 3)), internal_choices={(0, 1): 4, (2, 3): 3}),
        "bk: internal edge (0, 1) colored 4, allowed [1, 2]",
    ),
    (FamilyDescriptor("g2", 5), "g2: needs special vertices (x, y)"),
    (FamilyDescriptor("g2", 5, special=(0, 1, 2)), "g2: needs special vertices (x, y)"),
    (FamilyDescriptor("g2", 5, special=(1, 1)), "g2: x, y must be distinct vertices"),
    (FamilyDescriptor("g2", 5, special=(0, 5)), "g2: x, y must be distinct vertices"),
    (FamilyDescriptor("g2", 5, special=(-1, 0)), "g2: x, y must be distinct vertices"),
    (FamilyDescriptor("g2", 2, special=(0, 1)), "g2: needs at least 3 vertices"),
    (FamilyDescriptor("g3", 5), "g3: needs special vertices (a, b, c)"),
    (FamilyDescriptor("g3", 5, special=(0, 1)), "g3: needs special vertices (a, b, c)"),
    (FamilyDescriptor("g3", 5, special=(0, 1, 0)), "g3: a, b, c must be distinct vertices"),
    (FamilyDescriptor("g3", 2, special=(0, 1, 2)), "g3: a, b, c must be distinct vertices"),
    (FamilyDescriptor("zz", 4), "unknown family 'zz'"),
    (FamilyDescriptor("hub-triple", 5, special=(0, 1, 2)), "unknown family 'hub-triple'"),
]


def test_descriptor_errors_name_the_clause():
    for d, message in MALFORMED:
        with pytest.raises(DescriptorError) as info:
            build_family(d)
        assert str(info.value) == message, d
    # g1 allows exactly one empty part
    ok = build_family(
        FamilyDescriptor("g1", 2, parts=((0,), (1,), ()), internal_choices={})
    )
    assert ok.color_of(0, 1) == 1


def test_witness_bk_path_shapes():
    w = witness_bk_path(3, 6)
    assert w.n_vertices == 7
    d = is_member(w, "bk")
    assert [len(p) for p in d.parts] == [2, 5]
    assert longest_mono_path(w, 1)[0] == 5
    assert longest_mono_path(w, 3)[0] == 5
    assert w.exact_flag

    w = witness_bk_path(4, 10)
    assert w.n_vertices == 13
    d = is_member(w, "bk")
    assert [len(p) for p in d.parts] == [2, 2, 9]

    # a split second clique appears once the order is large enough
    w = witness_bk_path(3, 10)
    assert w.n_vertices == 13
    for c in (1, 2, 3):
        assert has_mono_pattern(w, c, Path(10)) is None

    with pytest.raises(DomainError):
        witness_bk_path(2, 8)
    with pytest.raises(DomainError):
        witness_bk_path(3, 5)


def test_witness_t_path_shapes():
    w = witness_t_path(5)
    assert w.n_vertices == 6
    d = is_member(w, "t")
    assert [len(p) for p in d.parts] == [2, 2, 2]
    for c in (1, 2, 3):
        assert longest_mono_path(w, c)[0] == 4

    w = witness_t_path(4)
    assert w.n_vertices == 4
    d = is_member(w, "t")
    assert sorted(len(p) for p in d.parts) == [1, 1, 2]

    with pytest.raises(DomainError):
        witness_t_path(2)


def test_witness_b3_kipas_shapes():
    w = witness_b3_kipas(5)
    assert w.n_vertices == 11
    assert is_member(w, "bk") is not None
    for c in (1, 2, 3):
        assert has_mono_pattern(w, c, Kipas(5)) is None

    w6 = witness_b3_kipas(6)
    assert w6.n_vertices == 13
    with pytest.raises(DomainError):
        witness_b3_kipas(4)


def test_witness_small_kipas():
    gamma1 = witness_small_kipas(2)
    assert gamma1.n_vertices == 4
    # color 1 is the complete bipartite graph across {0,1} | {2,3}
    assert gamma1.colors == (2, 1, 1, 1, 1, 3)
    assert is_member(gamma1, "bk") is not None
    gamma2 = witness_small_kipas(3)
    assert gamma2.n_vertices == 6
    assert is_member(gamma2, "bk") is not None
    for g, order in ((gamma1, 2), (gamma2, 3)):
        for c in (1, 2, 3):
            assert has_mono_pattern(g, c, Kipas(order)) is None
    with pytest.raises(DomainError):
        witness_small_kipas(4)


def test_witness_kipas_linear():
    w = witness_kipas_linear(4, 2)
    assert w.n_vertices == 4
    assert w.colors_used() == {1}

    w = witness_kipas_linear(6, 4)
    assert w.n_vertices == 7
    assert has_mono_pattern(w, 1, Kipas(6)) is None
    assert max_linear_forest(w, 2, 2)[0] <= 3

    with pytest.raises(DomainError):
        witness_kipas_linear(4, 1)


def test_generators_validate_with_verify_flag():
    witness_t_path(6, verify=True)
    witness_bk_path(3, 7, verify=True)
    witness_b3_kipas(6, verify=True)
    witness_small_kipas(3, verify=True)
    witness_kipas_linear(8, 4, verify=True)


def test_assert_free_checks_a_min_edge_forest_by_the_largest_forest():
    # an all-blue K_6 holds blue linear forests of any size up to five edges
    all_blue = EdgeColoring.constant(6, 2, n_colors=2)
    with pytest.raises(RamseykitError) as info:
        _assert_free(all_blue, [(2, LinearForestMin(2))], "probe")
    assert not isinstance(info.value, CapabilityError)
    assert str(info.value) == "probe contains lf:minedges=2,minorder=2 in color 2"
    _assert_free(all_blue, [(1, LinearForestMin(2))], "probe")


def test_assert_free_decides_a_kipas_like_the_placer_and_the_naive_oracle():
    # a kipas target is decided by the path DP on each hub's neighbourhood;
    # it must agree with the whole-graph placer and, on small K_n, the
    # brute-force map search
    rng = random.Random(29)
    cases = hits = naive = 0
    for _ in range(1500):
        n = rng.randint(2, 8)
        k = rng.randint(1, 3)
        coloring = EdgeColoring(n, k, [rng.randint(1, k) for _ in pair_iter(n)])
        c, p = rng.randint(1, k), Kipas(rng.randint(1, n - 1))
        want = has_mono_pattern(coloring, c, p) is not None
        if n <= 6:
            assert naive_has_mono(coloring, c, p) == want, (coloring.colors, c, p)
            naive += 1
        try:
            _assert_free(coloring, [(c, p)], "probe")
        except RamseykitError as e:
            assert not isinstance(e, CapabilityError)
            assert want, (coloring.colors, c, p)
        else:
            assert not want, (coloring.colors, c, p)
        cases += 1
        hits += want
    assert hits > 400 and cases - hits > 400 and naive > 500, (cases, hits, naive)


def test_bk_witnesses_use_all_colors():
    for k, n in ((3, 6), (3, 7), (4, 10), (5, 14)):
        w = witness_bk_path(k, n)
        assert w.colors_used() == set(range(1, k + 1))
        assert w.exact_flag


# The families as the module docstring defines them, built edge by edge: the
# t family's cross colors and a part's index for each vertex.
T_CROSS = {(0, 1): 1, (1, 2): 2, (0, 2): 3}


def _consecutive(sizes):
    return [i for i, size in enumerate(sizes) for _ in range(size)]


def _edge_by_edge(n, k, color):
    """The coloring with color(u, v) on each edge u < v, exact when surjective."""
    colors = [color(u, v) for u, v in pair_iter(n)]
    return EdgeColoring(n, k, colors, exact_flag=set(colors) == set(range(1, k + 1)))


def _complete_parts_by_edge(family, sizes):
    """Part i (from 0) complete in color i+2 (bk) or i+1 (t, g1); cross edges
    1 in bk and T_CROSS in t and g1."""
    where = _consecutive(sizes)
    k = len(sizes) + 1 if family == "bk" else 3

    def color(u, v):
        i, j = where[u], where[v]
        if i == j:
            return i + 2 if family == "bk" else i + 1
        return 1 if family == "bk" else T_CROSS[(i, j)]

    return _edge_by_edge(len(where), k, color)


def _same(got, want):
    assert (got.n_vertices, got.n_colors, got.colors, got.exact_flag) == (
        want.n_vertices, want.n_colors, want.colors, want.exact_flag,
    )


def test_witnesses_match_their_edge_by_edge_definitions():
    for n in range(5, 13):
        # A, the first n vertices, complete in color 3; the rest three groups,
        # each internally 1, pairwise 2, and joined to A by 1
        b = [(n - 1) // 2] * 3 if n % 2 else [n // 2, n // 2 - 1, n // 2 - 1]
        where = _consecutive([n] + b)

        def color(u, v):
            if where[u] == where[v]:
                return 3 if where[u] == 0 else 1
            return 1 if where[u] == 0 else 2

        _same(witness_b3_kipas(n), _edge_by_edge(n + sum(b), 3, color))
    for n in (2, 3):
        # color 1 across the sides {0..n-1} and {n..2n-1}, colors 2 and 3 inside
        _same(witness_small_kipas(n), _edge_by_edge(
            2 * n, 3, lambda u, v: 1 if u < n <= v else (2 if v < n else 3)
        ))
    for n in range(3, 16):
        sizes = [(n - 1) // 2] * 3 if n % 2 else [n // 2, n // 2 - 1, n // 2 - 1]
        _same(witness_t_path(n), _complete_parts_by_edge("t", sizes))


def test_generate_family_matches_its_edge_by_edge_definition(tmp_path):
    cases = [("bk", [2, 3]), ("bk", [2, 3, 3]), ("bk", [4, 2, 2, 3]), ("bk", [3, 3]),
             ("t", [1, 1, 1]), ("t", [2, 2, 3]), ("t", [4, 1, 2]),
             ("g1", [2, 3, 1]), ("g1", [0, 2, 3]), ("g1", [3, 0, 2]), ("g1", [2, 2, 0])]
    for family, sizes in cases:
        out = tmp_path / f"{family}.ecg"
        parts = ",".join(map(str, sizes))
        assert main(["generate", "--family", family, "--parts", parts, "-o", str(out)]) == 0
        _same(read_coloring_file(out), _complete_parts_by_edge(family, sizes))


def test_generate_refuses_a_negative_part_size(tmp_path, capsys):
    # the error names the negative size, not an overlap of the parts
    for family in ("bk", "t", "g1"):
        with pytest.raises(DescriptorError, match="negative part size -1"):
            complete_parts(family, [3, -1, 2])
        assert main(["generate", "--family", family, "--parts", "3,-1,2"]) == 2
        assert capsys.readouterr().err == f"error: {family}: negative part size -1\n"
    # an empty part is still allowed where the family allows it
    out = tmp_path / "g1.ecg"
    assert main(["generate", "--family", "g1", "--parts", "0,2,2", "-o", str(out)]) == 0
    assert read_coloring_file(out).n_vertices == 4
