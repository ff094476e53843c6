import itertools
import random
import typing

import pytest
from hypothesis import given

from ramseykit import naive, patterns
from ramseykit.cli import main
from ramseykit.coloring import EdgeColoring, pair_rank
from ramseykit.constructions import (
    g3_coloring,
    witness_b3_kipas,
    witness_kipas_linear,
    witness_small_kipas,
    witness_t_path,
)
from ramseykit.errors import CapabilityError, DomainError
from ramseykit.naive import (
    naive_has_mono,
    naive_has_rainbow,
    naive_longest_mono_path,
    naive_max_linear_forest,
)
from ramseykit.patterns import (
    CompleteGraph,
    Explicit,
    Kipas,
    LinearForestExact,
    LinearForestMin,
    P4_PLUS,
    Path,
    PatternSpec,
    Star,
    format_pattern,
    has_mono_pattern,
    has_rainbow,
    longest_mono_path,
    max_linear_forest,
    max_linear_forest_edges,
    parse_pattern,
    pattern_edges,
    pattern_order,
    rainbow_test,
    verify_embedding,
    verify_forest_witness,
)

from strategies import colorings


def test_pattern_parsing_round_trip():
    for text in [
        "path:5",
        "star:3",
        "kipas:4",
        "k:3",
        "lf:minedges=2,minorder=2",
        "lf:minedges=6,minorder=3",
        "lfx:2+2",
        "lfx:2+4",
        "lfx:2+3+3",
        "p4plus",
    ]:
        assert format_pattern(parse_pattern(text)) == text
    # component order is a multiset: either spelling is the same pattern
    assert parse_pattern("lfx:4+2") == LinearForestExact((2, 4))
    with pytest.raises(DomainError):
        parse_pattern("blob:3")
    with pytest.raises(DomainError):
        parse_pattern("lfx:1+2")
    with pytest.raises(DomainError):
        parse_pattern("lf:minorder=2")


def test_pattern_parsing_refuses_unknown_fields_and_keeps_range_errors():
    # a misspelled or extra lf field is refused, not dropped
    for text in ("lf:minedges=3,minorde=3", "lf:minedges=3,minorder=3,extra=1"):
        with pytest.raises(DomainError, match="unknown lf field"):
            parse_pattern(text)
    # a constructor's range check reaches the caller with its own message
    with pytest.raises(DomainError, match="complete graph order must be >= 1"):
        parse_pattern("k:0")
    with pytest.raises(DomainError, match="min component order must be 2 or 3"):
        parse_pattern("lf:minedges=3,minorder=4")


def test_pattern_parsing_refuses_repeated_lf_fields(capsys):
    # a repeated field is refused, not settled by its last value
    for text in ("lf:minedges=3,minedges=5", "lf:minedges=3,minorder=3,minorder=2"):
        with pytest.raises(DomainError, match="repeated lf field"):
            parse_pattern(text)
    argv = ["compute", "--quantity", "ramsey", "--red", "lf:minedges=2,minedges=3",
            "--blue", "path:3", "--max-n", "4"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: repeated lf field minedges in 'lf:minedges=2,minedges=3'\n"
    )


def test_pattern_spec_is_the_union_of_the_seven_kinds():
    kinds = (Path, Star, Kipas, LinearForestMin, LinearForestExact, CompleteGraph, Explicit)
    assert typing.get_args(PatternSpec) == kinds
    examples = (Path(3), Star(3), Kipas(3), LinearForestMin(2, 2), LinearForestExact((2, 2)),
                CompleteGraph(3), P4_PLUS)
    for kind, p in zip(kinds, examples):
        assert type(p) is kind and isinstance(p, PatternSpec)


def test_pattern_shapes():
    assert pattern_order(Kipas(4)) == 5
    assert len(pattern_edges(Kipas(4))) == 7
    assert pattern_order(P4_PLUS) == 5
    assert len(pattern_edges(P4_PLUS)) == 4
    assert pattern_order(LinearForestExact((2, 4))) == 6
    with pytest.raises(DomainError):
        Explicit(3, ((0, 0),))
    with pytest.raises(DomainError):
        Explicit(9, ())


def test_longest_path_examples():
    all_red = EdgeColoring.constant(4, 1)
    order, emb = longest_mono_path(all_red, 1)
    assert order == 4
    verify_embedding(all_red, emb)

    two_colors = EdgeColoring.constant(4, 1, n_colors=2)
    assert longest_mono_path(two_colors, 2)[0] == 1  # empty class holds a P_1

    witness = witness_t_path(5)
    order, emb = longest_mono_path(witness, 1)
    assert order == naive_longest_mono_path(witness, 1) == 4
    verify_embedding(witness, emb)


def test_longest_path_witness_is_lex_smallest():
    # enumerate all maximum paths naively and compare the chosen witness
    coloring = witness_t_path(5)
    for c in (1, 2, 3):
        order, emb = longest_mono_path(coloring, c)
        best = None
        for size in range(order, 0, -1):
            for perm in itertools.permutations(range(coloring.n_vertices), size):
                if all(
                    coloring.color_of(min(a, b), max(a, b)) == c
                    for a, b in zip(perm, perm[1:])
                ):
                    if best is None or perm < best:
                        best = perm
            if best is not None:
                break
        assert emb.vertex_map == best


def test_has_mono_pattern_examples():
    all_red = EdgeColoring.constant(5, 1)
    assert has_mono_pattern(all_red, 1, Kipas(4)) is not None

    gamma1 = witness_small_kipas(2)
    for c in (1, 2, 3):
        assert has_mono_pattern(gamma1, c, Kipas(2)) is None

    big = witness_b3_kipas(5)
    assert has_mono_pattern(big, 1, Kipas(5)) is None

    # embedding maps are validated independently
    emb = has_mono_pattern(all_red, 1, Kipas(3))
    verify_embedding(all_red, emb)


def test_kipas_semantics_spokes_and_rim_same_color():
    # color 1 holds the rim but the spokes are color 2: no kipas in either
    n = 5
    assignment = {}
    for u, v in itertools.combinations(range(n), 2):
        if u == 0:
            assignment[(u, v)] = 2
        else:
            assignment[(u, v)] = 1
    coloring = EdgeColoring.from_pairs(n, 2, assignment)
    assert has_mono_pattern(coloring, 1, Kipas(4)) is None
    assert has_mono_pattern(coloring, 2, Kipas(4)) is None
    assert has_mono_pattern(coloring, 2, Star(4)) is not None


def test_max_linear_forest_examples():
    # a path on seven vertices is its own maximum forest
    path_edges = {(i, i + 1): 2 for i in range(6)}
    assignment = {
        (u, v): path_edges.get((u, v), 1)
        for u, v in itertools.combinations(range(7), 2)
    }
    coloring = EdgeColoring.from_pairs(7, 2, assignment)
    edges, witness = max_linear_forest(coloring, 2, 3)
    assert edges == 6
    verify_forest_witness(coloring, witness, 3)

    # a star flattens to a single P_3
    star = {(0, v): 2 for v in range(1, 4)}
    assignment = {
        (u, v): star.get((u, v), 1) for u, v in itertools.combinations(range(4), 2)
    }
    coloring = EdgeColoring.from_pairs(4, 2, assignment)
    assert max_linear_forest(coloring, 2, 2)[0] == 2

    # the kipas-linear witness keeps its blue forests below m
    w = witness_kipas_linear(6, 4)
    edges, witness = max_linear_forest(w, 2, 2)
    assert edges == 2 <= 4 - 1
    verify_forest_witness(w, witness, 2)


def test_max_linear_forest_capability_bounds():
    big = EdgeColoring.constant(21, 1)
    with pytest.raises(CapabilityError):
        max_linear_forest(big, 1, 2)
    with pytest.raises(DomainError):
        max_linear_forest(EdgeColoring.constant(4, 1), 1, 4)


def test_max_linear_forest_stops_at_a_spanning_path():
    # a linear forest on n vertices has at most n - 1 edges; on this seeded
    # 2-coloring of K_12 both classes hold a Hamiltonian path, and without
    # that bound the search ran on to its 2M-node cap after finding one
    rng = random.Random("cli-roundtrip/2/12/2")
    coloring = EdgeColoring(12, 2, [rng.randint(1, 2) for _ in range(66)])
    for c in (1, 2):
        assert max_linear_forest_edges(12, coloring.adjacency(c), 3, node_budget=1_000)[0] == 11
        edges, witness = max_linear_forest(coloring, c, 3)
        assert edges == witness.edge_count == 11
        verify_forest_witness(coloring, witness, 3)


def test_max_linear_forest_returns_the_lexicographically_least_maximum():
    # the witness is the lexicographically least maximum edge set, found
    # here by enumerating edge subsets, largest first (a linear forest has
    # at most n - 1 edges), in combinations order
    rng = random.Random("forest-lex-least")
    for _ in range(300):
        n, k = rng.randint(2, 7), rng.randint(1, 3)
        coloring = EdgeColoring(n, k, [rng.randint(1, k) for _ in range(n * (n - 1) // 2)])
        for c in range(1, k + 1):
            edges = [e for e in itertools.combinations(range(n), 2) if coloring.color_of(*e) == c]
            for mo in (2, 3):
                least = next(
                    (s for size in range(min(len(edges), n - 1), 0, -1)
                     for s in itertools.combinations(edges, size)
                     if naive._is_linear_forest(s, mo)),
                    (),
                )
                count, witness = max_linear_forest(coloring, c, mo)
                assert count == len(least)
                assert witness.components == patterns._edges_to_components(least)


def test_max_linear_forest_abort_carries_the_best_edges_so_far():
    # the budget stops the search part way: the partial is the best edge
    # set it has found, so it pins the traversal order
    rng = random.Random("forest-abort")
    coloring = EdgeColoring(20, 2, [1 if rng.random() < 0.2 else 2 for _ in range(190)])
    with pytest.raises(CapabilityError, match="exceeded 50000 nodes") as exc:
        max_linear_forest_edges(20, coloring.adjacency(1), 3, node_budget=50_000)
    assert exc.value.partial == (18, (
        (0, 2), (0, 8), (1, 4), (1, 16), (2, 6), (4, 11), (5, 7), (5, 8), (6, 14),
        (7, 10), (9, 15), (9, 17), (10, 13), (11, 15), (12, 18), (12, 19), (13, 17), (14, 18),
    ))


def test_min_edges_forest_goes_through_max_linear_forest():
    coloring = EdgeColoring.constant(4, 1)
    with pytest.raises(CapabilityError):
        has_mono_pattern(coloring, 1, LinearForestMin(2, 2))


def test_has_rainbow_examples():
    g3 = g3_coloring(6)
    emb = has_rainbow(g3, CompleteGraph(3))
    assert emb is not None and set(emb.vertex_map) == {0, 1, 2}
    verify_embedding(g3, emb)

    mono = EdgeColoring.constant(5, 1, n_colors=3)
    assert has_rainbow(mono, Path(3)) is None
    assert has_rainbow(mono, CompleteGraph(3)) is None

    star = {(0, 1): 2, (0, 2): 3, (0, 3): 4}
    assignment = {
        (u, v): star.get((u, v), 1) for u, v in itertools.combinations(range(4), 2)
    }
    coloring = EdgeColoring.from_pairs(4, 4, assignment)
    emb = has_rainbow(coloring, Star(3))
    assert emb is not None
    verify_embedding(coloring, emb)

    with pytest.raises(CapabilityError):
        has_rainbow(coloring, Path(6))
    # one or two colors rule out any rainbow P_6, but the cap is still reported
    for few in (EdgeColoring.constant(7, 1), EdgeColoring(7, 2, [1, 2] * 10 + [1])):
        for p in (Path(6), Kipas(5)):
            with pytest.raises(CapabilityError):
                has_rainbow(few, p)


RAINBOW_SHAPES = [
    Path(2), Path(3), Path(4), Path(5), Star(1), Star(2), Star(3), Kipas(2),
    CompleteGraph(3), P4_PLUS, LinearForestExact((2, 2)),
]


def test_flat_array_addressing_matches_pair_rank():
    rng = random.Random(7)
    for n in range(2, 13):
        base = patterns._bases(n)
        assert len(base) == n
        for u, v in itertools.combinations(range(n), 2):
            assert base[u] + v == pair_rank(u, v, n), (n, u, v)
    for _ in range(300):
        n = rng.randint(2, 12)
        k = rng.randint(1, 5)
        colors = [rng.randint(0, k) for _ in range(n * (n - 1) // 2)]
        for w in range(n):
            want = {colors[pair_rank(min(w, z), max(w, z), n)] for z in range(n) if z != w}
            assert patterns._color_degree(n, colors, w) == len(want - {0}), (n, colors, w)


def test_fewer_colors_in_use_than_edges_means_no_rainbow_copy():
    rng = random.Random(8)
    checked = naive = 0
    for _ in range(200):
        n = rng.randint(2, 12)
        palette = rng.sample(range(1, 7), rng.randint(1, 4))
        colors = [rng.choice([0] + palette) for _ in range(n * (n - 1) // 2)]
        in_use = set(colors) - {0}
        # undecided edges take a color already in use: still no more colors
        filled = [c or min(in_use) for c in colors] if in_use else None
        decided = [(u, v) for u, v in itertools.combinations(range(n), 2)
                   if colors[pair_rank(u, v, n)]]
        for p in RAINBOW_SHAPES:
            if len(in_use) >= len(pattern_edges(p)):
                continue
            checked += 1
            assert patterns._rainbow_copy(n, colors, p) is None, (n, colors, p)
            # no test: p does not fit in K_n
            test = rainbow_test(n, p)
            for edge in decided:
                assert test is None or not test(colors, *edge), (n, colors, p, edge)
            if filled is not None and n <= 6:
                naive += 1
                coloring = EdgeColoring(n, max(in_use), filled)
                assert not naive_has_rainbow(coloring, p), (n, filled, p)
                assert has_rainbow(coloring, p) is None
    assert checked > 800 and naive > 400, (checked, naive)


def test_pattern_larger_than_host_is_absent():
    small = EdgeColoring.constant(4, 1)
    assert has_mono_pattern(small, 1, Kipas(4)) is None
    assert has_mono_pattern(small, 1, Path(5)) is None
    assert has_rainbow(small, Path(5)) is None


@given(colorings(max_n=6, max_k=3))
def test_oracle_equivalence_random(coloring):
    for c in range(1, coloring.n_colors + 1):
        order, emb = longest_mono_path(coloring, c)
        assert order == naive_longest_mono_path(coloring, c)
        verify_embedding(coloring, emb)
        for pattern in (Path(3), Kipas(2), Star(3), LinearForestExact((2, 2))):
            got = has_mono_pattern(coloring, c, pattern)
            assert (got is not None) == naive_has_mono(coloring, c, pattern)
            if got is not None:
                verify_embedding(coloring, got)
    got = has_rainbow(coloring, Star(3))
    assert (got is not None) == naive_has_rainbow(coloring, Star(3))


@given(colorings(max_n=6, max_k=3))
def test_forest_oracle_random(coloring):
    for c in range(1, coloring.n_colors + 1):
        for mo in (2, 3):
            edges, witness = max_linear_forest(coloring, c, mo)
            assert edges == naive_max_linear_forest(coloring, c, mo)
            verify_forest_witness(coloring, witness, mo)
            assert witness.edge_count == edges


@given(colorings(max_n=7, max_k=3))
def test_path_monotonicity_and_kipas_consistency(coloring):
    for c in range(1, coloring.n_colors + 1):
        order, _ = longest_mono_path(coloring, c)
        for shorter in range(1, order + 1):
            assert has_mono_pattern(coloring, c, Path(shorter)) is not None
        assert has_mono_pattern(coloring, c, Path(order + 1)) is None
        for kn in (2, 3, 4):
            if has_mono_pattern(coloring, c, Kipas(kn)) is not None:
                assert order >= kn


LEX_SHAPES = [
    Path(1), Path(2), Path(3), Path(4), Path(5), Star(1), Star(2), Star(3),
    Kipas(1), Kipas(2), Kipas(3), CompleteGraph(2), CompleteGraph(3), CompleteGraph(4),
    LinearForestExact((2, 2)), LinearForestExact((3, 2)), LinearForestExact((2, 2, 2)),
    P4_PLUS, Explicit(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
]


def _first_permutation(coloring, p, accepts):
    """The first vertex map in itertools.permutations order that ``accepts``."""
    edges = pattern_edges(p)
    for image in itertools.permutations(range(coloring.n_vertices), pattern_order(p)):
        if accepts([coloring.color_of(*sorted((image[a], image[b]))) for a, b in edges]):
            return image
    return None


def test_witnesses_are_the_first_permutation_the_naive_check_accepts():
    # the symmetry bounds of the placement plans must never skip the least map
    rng = random.Random(7)
    mono = rainbow = 0
    for trial in range(500):
        p = LEX_SHAPES[trial % len(LEX_SHAPES)]
        n = rng.randint(1, 7)
        colors = [rng.randint(1, 3) for _ in range(n * (n - 1) // 2)]
        coloring = EdgeColoring(n, 3, colors)
        for c in (1, 2, 3):
            got = has_mono_pattern(coloring, c, p)
            want = _first_permutation(coloring, p, lambda cols: all(x == c for x in cols))
            assert (got and got.vertex_map) == want, (p, n, colors, c)
            mono += 1
        if pattern_order(p) > 5:
            continue
        for k in (3, 4, 5):
            colors = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
            coloring = EdgeColoring(n, k, colors)
            got = has_rainbow(coloring, p)
            want = _first_permutation(coloring, p, lambda cols: len(set(cols)) == len(cols))
            assert (got and got.vertex_map) == want, (p, n, colors)
            rainbow += 1
    assert mono == 1500 and rainbow > 1300, (mono, rainbow)
