import itertools

import pytest

from ramseykit.coloring import EdgeColoring, pair_iter
from ramseykit.constructions import (
    g2_coloring,
    g3_coloring,
    witness_bk_path,
    witness_small_kipas,
    witness_t_path,
)
from ramseykit.errors import DomainError
from ramseykit.patterns import Path, Star, has_rainbow
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
    is_member,
    multipartite_ham,
    star_forest_check,
)


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
    assert is_member(all_red, "bk", require_exact=True) is None

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
    # renumbered colors still classify through role search
    g = g2_coloring(6)
    remap = {1: 4, 2: 3, 3: 2, 4: 1}
    renamed = EdgeColoring(6, 4, [remap[c] for c in g.colors])
    label, _ = classify_structure(renamed, "p4plus")
    assert label == CASE_G2


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
