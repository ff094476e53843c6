import itertools
import random
import time

import pytest

from ramseykit.coloring import EdgeColoring, pair_iter
from ramseykit.constructions import (
    SPECIAL_SHAPES,
    FamilyDescriptor,
    _T_INTERNAL,
    build_family,
    g2_coloring,
    g3_coloring,
    special_allowed,
    witness_bk_path,
    witness_small_kipas,
    witness_t_path,
)
from ramseykit.errors import DescriptorError, DomainError
from ramseykit.patterns import P4_PLUS, Path, Star, has_rainbow
from ramseykit.structure import (
    CASE_CLIQUE_PLUS_VERTEX,
    CASE_DOMINANT,
    CASE_G1,
    CASE_G2,
    CASE_G3,
    CASE_HUB_TRIPLE,
    CASE_MATCHED_QUAD,
    CASE_SPORADIC_5,
    CONTEXTS,
    SHAPES,
    UNCLASSIFIED,
    classify_structure,
    dominant_descriptor,
    is_member,
    multipartite_ham,
    star_forest_check,
    three_part_descriptor,
)


# the t family's cross colors, as the constructions docstring states them
_T_CROSS = {(0, 1): 1, (1, 2): 2, (0, 2): 3}


def _members(label, n, k=4):
    """Every exact k-coloring of K_n that a shape row allows."""
    return [
        EdgeColoring(n, k, colors, exact_flag=True)
        for allowed in SHAPES[label][0](n, k)
        for colors in itertools.product(*allowed)
        if set(colors) == set(range(1, k + 1))
    ]


def _relabel(coloring, perm):
    """The coloring with vertex v renamed perm[v]."""
    return EdgeColoring.from_pairs(
        coloring.n_vertices,
        coloring.n_colors,
        {
            (min(perm[u], perm[v]), max(perm[u], perm[v])): coloring.color_of(u, v)
            for u, v in pair_iter(coloring.n_vertices)
        },
    )


def _coloring(n, k, special, default=1, exact=None):
    assignment = {}
    for u, v in pair_iter(n):
        assignment[(u, v)] = special.get((u, v), default)
    coloring = EdgeColoring.from_pairs(n, k, assignment)
    return coloring


def test_is_member_examples():
    gamma1 = witness_small_kipas(2)
    assert is_member(gamma1, "bk") is not None

    d = is_member(witness_t_path(5), "t")
    assert d is not None and [len(p) for p in d.parts] == [2, 2, 2]

    all_red = EdgeColoring.constant(5, 1, n_colors=3)
    assert is_member(all_red, "bk") is not None

    assert is_member(g2_coloring(6), "g2") is not None
    assert is_member(g2_coloring(6), "g3") is None
    assert is_member(g3_coloring(6), "g3") is not None
    assert is_member(witness_t_path(5), "g1") is not None
    with pytest.raises(DomainError):
        is_member(all_red, "nope")


def test_bk_membership_needs_disjoint_supports():
    # two colors sharing a vertex cannot split into parts
    bad = _coloring(5, 3, {(0, 1): 2, (0, 2): 3})
    assert is_member(bad, "bk") is None
    good = _coloring(5, 3, {(0, 1): 2, (2, 3): 3})
    d = is_member(good, "bk")
    assert d is not None
    # leftover vertex 4 joins the first part
    assert 4 in d.parts[0]


def test_classify_dominant_parts_recover_declared():
    w = witness_bk_path(3, 6)
    label, d = classify_structure(w, "k13")
    assert label == CASE_DOMINANT
    assert d.dominant_color == 1
    assert d.parts == ((0, 1), (2, 3, 4, 5, 6))


def test_classify_dominant_after_renumbering():
    # same structure with the dominant color called 3 instead of 1
    w = witness_bk_path(3, 6)
    remap = {1: 3, 2: 1, 3: 2}
    renamed = EdgeColoring(w.n_vertices, 3, [remap[c] for c in w.colors])
    label, d = classify_structure(renamed, "k13")
    assert label == CASE_DOMINANT
    assert d.dominant_color == 3


def test_classify_g2_g3():
    label, d = classify_structure(g2_coloring(6), "p4plus")
    assert label == CASE_G2 and d.special == (0, 1)
    label, d = classify_structure(g3_coloring(6), "p4plus")
    assert label == CASE_G3 and d.special == (0, 1, 2)
    # renumbered colors still classify: the matcher reads the color roles
    g = g2_coloring(6)
    remap = {1: 4, 2: 3, 3: 2, 4: 1}
    renamed = EdgeColoring(6, 4, [remap[c] for c in g.colors])
    label, _ = classify_structure(renamed, "p4plus")
    assert label == CASE_G2


def test_g2_g3_matchers_recover_every_special_tuple():
    # is_member rebuilds the member from the special vertices the matcher reads off
    for x, y in itertools.permutations(range(5), 2):
        g2 = g2_coloring(5, x, y)
        assert is_member(g2, "g2").special == (x, y) and is_member(g2, "g3") is None
    for a, b, c in itertools.permutations(range(5), 3):
        g3 = g3_coloring(5, a, b, c)
        assert is_member(g3, "g3").special == (a, b, c) and is_member(g3, "g2") is None
    for remap in itertools.permutations((1, 2, 3, 4)):
        for member, case in ((g2_coloring(5, 3, 1), CASE_G2), (g3_coloring(5, 4, 0, 2), CASE_G3)):
            renamed = EdgeColoring(5, 4, [remap[col - 1] for col in member.colors])
            assert classify_structure(renamed, "p4plus")[0] == case


def test_classify_exceptional_shapes():
    clique_plus = _coloring(
        6, 4, {(0, 5): 2, (1, 5): 2, (2, 5): 2, (3, 5): 3, (4, 5): 4}
    )
    label, d = classify_structure(clique_plus, "p5")
    assert label == CASE_CLIQUE_PLUS_VERTEX and d.special == (5,)

    hub = _coloring(6, 4, {(0, 1): 2, (0, 2): 3, (1, 2): 4, (0, 3): 4})
    label, d = classify_structure(hub, "p5")
    assert label == CASE_HUB_TRIPLE and d.special == (0, 1, 2)

    quad = _coloring(
        6,
        4,
        {(0, 1): 2, (2, 3): 2, (0, 2): 3, (1, 3): 3, (0, 3): 4, (1, 2): 4},
    )
    label, d = classify_structure(quad, "p5")
    assert label == CASE_MATCHED_QUAD and set(d.special) == {0, 1, 2, 3}

    (sporadic,) = _members(CASE_SPORADIC_5, 5)
    label, d = classify_structure(sporadic, "p5")
    assert label == CASE_SPORADIC_5


def test_classify_unclassified_and_preconditions():
    # a proper 3-edge-coloring of K_4 fits no rainbow-free case
    proper = _coloring(
        4, 3, {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
    )
    label, d = classify_structure(proper, "k13")
    assert label == UNCLASSIFIED and d is None

    with pytest.raises(DomainError):
        classify_structure(EdgeColoring.constant(4, 1, n_colors=3), "k13")
    with pytest.raises(DomainError):
        classify_structure(witness_t_path(5), "p5")  # needs four colors in use
    with pytest.raises(DomainError):
        classify_structure(witness_t_path(5), "bad-context")


def test_t_colorings_classify_as_g1():
    label, d = classify_structure(witness_t_path(5), "k13")
    assert label in (CASE_DOMINANT, CASE_G1)
    # three nonempty parts with pairwise cross colors is the g1 form
    assert label == CASE_G1
    assert all(d.parts)


def _three_part_by_product(coloring, allow_empty):
    """The first choice of allowed parts, in lexicographic order, that leaves
    at most ``allow_empty`` parts empty: the full ``itertools.product`` scan."""
    n = coloring.n_vertices
    if coloring.colors_used() - {1, 2, 3}:
        return None
    allowed = [
        [p for p, pair in enumerate(_T_INTERNAL)
         if all(coloring.color_of(v, w) in pair for w in range(n) if w != v)]
        for v in range(n)
    ]
    for assign in itertools.product(*allowed):
        if 3 - len(set(assign)) <= allow_empty:
            return tuple(tuple(v for v in range(n) if assign[v] == p) for p in range(3))
    return None


def test_three_part_descriptor_matches_the_product_scan():
    # t-like 3-colorings (random parts, internal colors from the part's pair,
    # fixed cross colors), some edges recolored at random
    rng = random.Random(21)
    found = 0
    for _ in range(2000):
        n = rng.randint(1, 9)
        part = [rng.randrange(3) for _ in range(n)]
        noise = rng.choice((0.0, 0.05, 0.3))
        colors = []
        for u, v in pair_iter(n):
            a, b = sorted((part[u], part[v]))
            c = rng.choice(sorted(_T_INTERNAL[a])) if a == b else _T_CROSS[(a, b)]
            colors.append(rng.randint(1, 3) if rng.random() < noise else c)
        coloring = EdgeColoring(n, 3, colors)
        for allow_empty in (0, 1):
            got = three_part_descriptor(coloring, allow_empty)
            want = _three_part_by_product(coloring, allow_empty)
            assert (got and got.parts) == want, (n, colors, allow_empty)
            found += want is not None
    assert found > 1500, found


def test_three_part_descriptor_is_polynomial():
    # every vertex fits parts 0 and 1 and none fits part 2: 2^32 choices
    coloring = EdgeColoring.constant(32, 1, 3)
    start = time.perf_counter()
    assert is_member(coloring, "t") is None
    assert is_member(coloring, "g1").parts == (tuple(range(31)), (31,), ())
    assert time.perf_counter() - start < 1


def test_k13_completeness_on_k4():
    # every surjective rainbow-star-free 3-coloring of K_4 classifies
    for colors in itertools.product((1, 2, 3), repeat=6):
        if set(colors) != {1, 2, 3}:
            continue
        coloring = EdgeColoring(4, 3, colors)
        if has_rainbow(coloring, Star(3)) is not None:
            continue
        label, _ = classify_structure(coloring, "k13")
        assert label in (CASE_DOMINANT, CASE_G1), colors


def test_star_forest_check_examples():
    assert star_forest_check(g2_coloring(6), 3)
    assert star_forest_check(g2_coloring(6), 2)
    quad = _coloring(
        6, 4, {(0, 1): 2, (0, 2): 3, (1, 3): 3, (0, 3): 4, (1, 2): 4}
    )
    assert star_forest_check(quad, 3)

    p4 = _coloring(5, 2, {(0, 1): 2, (1, 2): 2, (2, 3): 2})
    assert not star_forest_check(p4, 2)
    triangle = _coloring(5, 2, {(0, 1): 2, (1, 2): 2, (0, 2): 2})
    assert not star_forest_check(triangle, 2)


def test_star_forest_on_generated_shapes():
    for coloring in (
        g2_coloring(7),
        g3_coloring(7),
        _coloring(7, 4, {(0, 6): 2, (1, 6): 3, (2, 6): 4}),
    ):
        for c in range(2, coloring.n_colors + 1):
            assert star_forest_check(coloring, c)


def test_star_forest_on_every_exceptional_member():
    # every non-dominant color class of the exceptional shapes is a star forest
    members = (
        _members(CASE_CLIQUE_PLUS_VERTEX, 6)
        + _members(CASE_HUB_TRIPLE, 6)
        + _members(CASE_MATCHED_QUAD, 6)
        + _members(CASE_SPORADIC_5, 5)
    )
    assert members
    for coloring in members:
        for c in range(2, coloring.n_colors + 1):
            assert star_forest_check(coloring, c)


def test_shape_table_round_trip():
    # every member of every row, at its context's least k, is accepted by the
    # row's own matcher; an exceptional shape's member also classifies under
    # the row's label
    for context, (_, k, labels) in CONTEXTS.items():
        for label in labels:
            seen = 0
            for n in range(2, 8):
                for coloring in _members(label, n, k):
                    assert SHAPES[label][1](coloring) is not None, (label, coloring.colors)
                    if label not in ("bk", "t"):
                        got, _ = classify_structure(coloring, context)
                        assert got == label, (label, coloring.colors)
                    seen += 1
            assert seen, (context, label)


def test_special_shapes_are_rows_scanned_at_k4_and_their_sizes_only():
    # g2 and g3 from K_3, hub-triple and matched-quad from K_4, sporadic-5 on
    # K_5 alone; never at another k
    sizes = {
        CASE_G2: range(3, 14), CASE_G3: range(3, 14), CASE_HUB_TRIPLE: range(4, 14),
        CASE_MATCHED_QUAD: range(4, 14), CASE_SPORADIC_5: range(5, 6),
    }
    assert set(SPECIAL_SHAPES) == set(sizes) and set(SPECIAL_SHAPES) <= set(SHAPES)
    for label, want in sizes.items():
        for n in range(14):
            for k in range(1, 7):
                rows = list(SHAPES[label][0](n, k))
                assert len(rows) == (k == 4 and n in want), (label, n, k)
                if rows:
                    special = range(SPECIAL_SHAPES[label][0])
                    assert rows == [special_allowed(label, n, special)]
                    assert len(rows[0]) == n * (n - 1) // 2
    # the g2 and g3 rows fix every edge to the member build_family makes
    for n in range(3, 9):
        assert list(SHAPES[CASE_G2][0](n, 4)) == [[(c,) for c in g2_coloring(n).colors]]
        assert list(SHAPES[CASE_G3][0](n, 4)) == [[(c,) for c in g3_coloring(n).colors]]


def test_matched_quad_row_lists_its_k4_members():
    # cd may take color 1, so the row has exact members on K_4 too; they are,
    # up to relabelling and renaming, the 72 exact 4-colorings of K_4 that
    # classify as matched-quad
    members = _members(CASE_MATCHED_QUAD, 4)
    assert members
    orbit = {
        tuple(names[c - 1] for c in _relabel(coloring, perm).colors)
        for coloring in members
        for perm in itertools.permutations(range(4))
        for names in itertools.permutations((1, 2, 3, 4))
    }
    classified = {
        colors
        for colors in itertools.product((1, 2, 3, 4), repeat=6)
        if len(set(colors)) == 4
        and classify_structure(EdgeColoring(4, 4, colors), "p5")[0] == CASE_MATCHED_QUAD
    }
    assert classified == orbit and len(orbit) == 72


def _family_members(family, sizes, pairs):
    """build_family over every internal choice from ``pairs``, on consecutive
    parts of these sizes: the colors of each member, in lexicographic order."""
    parts, base = [], 0
    for size in sizes:
        parts.append(tuple(range(base, base + size)))
        base += size
    inside = [(e, i) for i, part in enumerate(parts) for e in itertools.combinations(part, 2)]
    members = []
    for picks in itertools.product(*(pairs[i] for _, i in inside)):
        choices = {e: c for (e, _), c in zip(inside, picks)}
        d = FamilyDescriptor(family, base, parts=tuple(parts), internal_choices=choices)
        members.append(build_family(d).colors)
    return members


def test_bk_t_rows_list_the_build_family_members():
    # each row is one ascending part-size multiset; its members are exactly
    # the colorings build_family makes from the internal pairs of the
    # constructions docstring: bk part i takes 1 or i+2, a t part the two
    # cross colors that meet it
    t_pairs = [sorted(c for (a, b), c in _T_CROSS.items() if p in (a, b)) for p in range(3)]
    cases = [("bk", k, 2, [(1, i + 2) for i in range(k - 1)]) for k in (3, 4)]
    cases.append(("t", 3, 1, t_pairs))
    for label, k, min_size, pairs in cases:
        for n in range(1, 8):
            sizes_from = itertools.combinations_with_replacement(range(min_size, n + 1), len(pairs))
            multisets = [sizes for sizes in sizes_from if sum(sizes) == n]
            rows = list(SHAPES[label][0](n, k))
            assert len(rows) == len(multisets), (label, k, n)
            for row, sizes in zip(rows, multisets):
                # same order too: the search tries colors ascending
                got = list(itertools.product(*row))
                assert got == _family_members(label, sizes, pairs), (label, sizes)
    # no other choice is accepted
    with pytest.raises(DescriptorError, match=r"\(0, 1\) colored 2, allowed \[1, 3\]"):
        build_family(
            FamilyDescriptor("g1", 3, parts=((0, 1), (2,), ()), internal_choices={(0, 1): 2})
        )


def _k13_six_way(coloring):
    """The k13 classification trying all six renumberings of the used colors
    in turn: the reference for the one renumbering classify_structure tries."""
    d = dominant_descriptor(coloring)
    if d is not None:
        return CASE_DOMINANT, d
    used = sorted(coloring.colors_used())
    for perm in itertools.permutations((1, 2, 3)):
        mapping = dict(zip(used, perm))
        renumbered = EdgeColoring(coloring.n_vertices, 3, [mapping[c] for c in coloring.colors])
        got = three_part_descriptor(renumbered, allow_empty=1)
        if got is not None:
            return CASE_G1, got
    return UNCLASSIFIED, None


def _literal_g(coloring, case):
    """g2 or g3 under the literal colors: the special vertices read from the
    single color-2 (and color-3) edge, the member rebuilt and compared."""
    n = coloring.n_vertices
    two = coloring.color_class(2).edges()
    if len(two) != 1:
        return None
    if case == CASE_G2:
        candidates, build = (two[0], two[0][::-1]), g2_coloring
    else:
        three = coloring.color_class(3).edges()
        shared = set(two[0]) & set(three[0]) if len(three) == 1 else set()
        if len(shared) != 1:
            return None
        (b,) = shared
        candidates, build = ((sum(two[0]) - b, b, sum(three[0]) - b),), g3_coloring
    for special in candidates:
        if build(n, *special).colors == coloring.colors:
            return FamilyDescriptor(case, n, special=special)
    return None


def _p4plus_24_way(coloring):
    """The p4plus classification trying all 24 renumberings of the used colors
    onto 1..4 in turn, for g2 and then for g3, then clique-plus-vertex: the
    reference for the role reading classify_structure does."""
    d = dominant_descriptor(coloring)
    if d is not None:
        return CASE_DOMINANT, d
    n = coloring.n_vertices
    used = sorted(coloring.colors_used())
    for case in (CASE_G2, CASE_G3) if len(used) == 4 else ():
        for perm in itertools.permutations((1, 2, 3, 4)):
            mapping = dict(zip(used, perm))
            got = _literal_g(EdgeColoring(n, 4, [mapping[c] for c in coloring.colors]), case)
            if got is not None:
                return case, got
    for a in range(n):
        rest = [v for v in range(n) if v != a]
        if len({coloring.color_of(u, v) for u, v in itertools.combinations(rest, 2)}) == 1:
            return CASE_CLIQUE_PLUS_VERTEX, FamilyDescriptor(CASE_CLIQUE_PLUS_VERTEX, n, special=(a,))
    return UNCLASSIFIED, None


def test_p4plus_role_reading_matches_all_24_renumberings():
    # every g2 and g3 member on K_4 to K_6 under all 24 renamings and seeded
    # relabellings, each also with one edge recolored, then random colorings
    rng = random.Random(8)
    corpus = []
    for label in (CASE_G2, CASE_G3):
        for n in (4, 5, 6):
            for member in _members(label, n):
                for names in itertools.permutations((1, 2, 3, 4)):
                    for perm in (range(n), rng.sample(range(n), n), rng.sample(range(n), n)):
                        colors = [names[c - 1] for c in _relabel(member, list(perm)).colors]
                        corpus.append(EdgeColoring(n, 4, colors))
                        i = rng.randrange(len(colors))
                        colors[i] = rng.choice([c for c in (1, 2, 3, 4) if c != colors[i]])
                        corpus.append(EdgeColoring(n, 4, colors))
    for _ in range(1500):
        n = rng.randint(4, 7)
        palette = rng.choice(((1, 2, 3, 4), (2, 3, 4, 5), (1, 5, 2, 4)))
        sparse = rng.random() < 0.5
        colors = [
            palette[rng.randrange(4)] if not sparse or rng.random() < 0.3 else palette[0]
            for _ in pair_iter(n)
        ]
        corpus.append(EdgeColoring(n, 5, colors))
    hits = dict.fromkeys((CASE_G2, CASE_G3, CASE_CLIQUE_PLUS_VERTEX), 0)
    for coloring in corpus:
        if len(coloring.colors_used()) < 4:
            continue
        got = classify_structure(coloring, "p4plus")
        assert got == _p4plus_24_way(coloring), coloring.colors
        hits[got[0]] = hits.get(got[0], 0) + 1
    assert hits[CASE_G2] >= 216 and hits[CASE_G3] >= 216 and hits[CASE_CLIQUE_PLUS_VERTEX], hits


def test_k13_one_renumbering_matches_all_six():
    # every exact 3-coloring of K_4, then t-like colorings up to K_9 with some
    # edges recolored, under palettes that are not 1, 2, 3
    corpus = [EdgeColoring(4, 3, c) for c in itertools.product((1, 2, 3), repeat=6)]
    rng = random.Random(5)
    for _ in range(1500):
        n = rng.randint(3, 9)
        palette = rng.choice(((1, 2, 3), (1, 2, 5), (2, 4, 5), (3, 1, 2), (5, 3, 1)))
        part = [rng.randrange(3) for _ in range(n)]
        noise = rng.choice((0.0, 0.05, 0.2))
        colors = []
        for u, v in pair_iter(n):
            a, b = sorted((part[u], part[v]))
            c = rng.choice(sorted(_T_INTERNAL[a])) if a == b else _T_CROSS[(a, b)]
            colors.append(palette[(rng.randint(1, 3) if rng.random() < noise else c) - 1])
        corpus.append(EdgeColoring(n, 5, colors))
    hits = 0
    for coloring in corpus:
        if len(coloring.colors_used()) != 3:
            continue
        label, d = classify_structure(coloring, "k13")
        want_label, want = _k13_six_way(coloring)
        assert (label, d) == (want_label, want), coloring.colors
        hits += label == CASE_G1
    assert hits > 500, hits


def test_p4plus_clique_plus_vertex_is_rainbow_free_only_on_k4():
    # p4plus classifies clique-plus-vertex, though structure mode has no such
    # row: its members lack a rainbow P_4^+ on K_4 and hold one from K_5 on
    for n, count, rainbow_free in ((4, 6, True), (5, 60, False), (6, 390, False)):
        members = _members(CASE_CLIQUE_PLUS_VERTEX, n)
        assert len(members) == count
        assert all((has_rainbow(c, P4_PLUS) is None) == rainbow_free for c in members)
    for coloring in _members(CASE_CLIQUE_PLUS_VERTEX, 4):
        label, d = classify_structure(coloring, "p4plus")
        assert label == CASE_CLIQUE_PLUS_VERTEX and d.special == (3,)


def test_matched_quad_label_survives_relabelling():
    # the singleton-color edge on the pair that avoids the first quad vertex
    opposite = EdgeColoring(5, 4, [1, 1, 1, 1, 1, 2, 3, 3, 2, 4])
    assert has_rainbow(opposite, Path(5)) is None
    label, d = classify_structure(opposite, "p5")
    assert label == CASE_MATCHED_QUAD and d.special == (3, 4, 1, 2)
    members = [opposite] + _members(CASE_MATCHED_QUAD, 5) + _members(CASE_MATCHED_QUAD, 6)
    assert len(members) == 5
    for coloring in members:
        for perm in itertools.permutations(range(coloring.n_vertices)):
            got, _ = classify_structure(_relabel(coloring, perm), "p5")
            assert got == CASE_MATCHED_QUAD, (coloring.colors, perm)


def test_exceptional_labels_survive_relabelling_and_renaming():
    # hub-triple, sporadic-5 and clique-plus-vertex members under seeded vertex
    # permutations and color names drawn from 1..5, one declared color unused
    rng = random.Random(34)
    cases = (
        (CASE_HUB_TRIPLE, 5), (CASE_HUB_TRIPLE, 6), (CASE_SPORADIC_5, 5),
        (CASE_CLIQUE_PLUS_VERTEX, 5),
    )
    for label, n in cases:
        members = _members(label, n)
        assert members, (label, n)
        for coloring in members:
            for _ in range(40):
                names = rng.sample((1, 2, 3, 4, 5), 4)
                relabelled = _relabel(coloring, rng.sample(range(n), n))
                renamed = EdgeColoring(n, 5, [names[c - 1] for c in relabelled.colors])
                got, _ = classify_structure(renamed, "p5")
                assert got == label, (label, renamed.colors)


def test_multipartite_ham_examples():
    assert len(multipartite_ham([2, 2, 3], "cycle")) == 7
    assert len(multipartite_ham([1, 2], "path")) == 3
    seq = multipartite_ham([3, 3], "cycle")
    assert [v // 3 for v in seq] == [0, 1, 0, 1, 0, 1]


def test_multipartite_ham_errors():
    with pytest.raises(DomainError):
        multipartite_ham([1, 1], "cycle")
    with pytest.raises(DomainError):
        multipartite_ham([2, 5], "cycle")
    with pytest.raises(DomainError):
        multipartite_ham([2, 2], "path")
    with pytest.raises(DomainError):
        multipartite_ham([], "cycle")
    with pytest.raises(DomainError):
        multipartite_ham([3], "nope")


def test_multipartite_ham_random(rng):
    for _ in range(200):
        sizes = [rng.randint(1, 7) for _ in range(rng.randint(2, 5))]
        total, largest = sum(sizes), max(sizes)
        if total >= 3 and total - largest >= largest:
            seq = multipartite_ham(sizes, "cycle")
            _validate(sizes, seq, wrap=True)
        others = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        sizes = others + [sum(others) + 1]
        rng.shuffle(sizes)
        seq = multipartite_ham(sizes, "path")
        _validate(sizes, seq, wrap=False)


def _ham_refusal(sizes, mode):
    """The refusal multipartite_ham owes these sizes, or None."""
    total, largest = sum(sizes), max(sizes, default=0)
    if not sizes:
        return "part sizes must be nonnegative"
    if not total:
        return "at least one nonempty part required"
    if mode == "path":
        if total - largest != largest - 1:
            return "path mode needs the other parts to sum to largest - 1"
    elif total < 3:
        return "a cycle needs at least 3 vertices"
    elif total - largest < largest:
        return "cycle mode needs the other parts to cover the largest"
    return None


def test_multipartite_ham_every_small_size_vector():
    # all 5,602 calls on at most 4 parts of 0..6 vertices, zero-size parts and
    # the one-vertex path included: each is a valid sequence or the refusal
    # of the first condition it breaks
    for r in range(5):
        for sizes in itertools.product(range(7), repeat=r):
            for mode in ("cycle", "path"):
                refusal = _ham_refusal(sizes, mode)
                if refusal is None:
                    _validate(sizes, multipartite_ham(list(sizes), mode), wrap=mode == "cycle")
                    continue
                with pytest.raises(DomainError) as caught:
                    multipartite_ham(list(sizes), mode)
                assert str(caught.value) == refusal, (sizes, mode)
    assert multipartite_ham([0, 1, 0], "path") == [0]
    with pytest.raises(DomainError) as caught:
        multipartite_ham([-1, 2], "nope")
    assert str(caught.value) == "mode must be 'cycle' or 'path'"


def _validate(sizes, seq, wrap):
    assert sorted(seq) == list(range(sum(sizes)))
    part_of = {}
    base = 0
    for i, s in enumerate(sizes):
        for v in range(base, base + s):
            part_of[v] = i
        base += s
    pairs = list(zip(seq, seq[1:]))
    if wrap:
        pairs.append((seq[-1], seq[0]))
    assert all(part_of[a] != part_of[b] for a, b in pairs)
