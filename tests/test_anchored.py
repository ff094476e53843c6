"""Anchored detection against the whole-graph detectors and the naive oracles.

The search engines bind the tests that ``mono_test`` and ``rainbow_test``
build and call them with the edge they just decided, on a graph that had no
copy before that edge.  These tests grow random graphs the same way: add one
random edge, compare the built test's answer, in both edge directions, with
the whole-graph placer's (``_mono_copy`` / ``_rainbow_copy``; for
``LinearForestMin``, the ``max_linear_forest_edges`` branch and bound), and
drop the edge again when it completed a copy, so every case keeps the "no
copy without the edge" rule.

The tests of explicit patterns and of rainbow patterns other than stars
are the whole-graph placers themselves, so for them that comparison checks
only the rule; the naive oracles, which try every injective map, check
every rainbow case and every explicit case up to K_7.
"""

import random
from itertools import combinations, permutations

from ramseykit.coloring import EdgeColoring, pair_rank
from ramseykit.naive import naive_has_mono
from ramseykit.patterns import (
    CompleteGraph,
    Explicit,
    Kipas,
    LinearForestExact,
    LinearForestMin,
    P4_PLUS,
    Path,
    Star,
    _grow,
    _kipas_through,
    _mono_copy,
    _rainbow_copy,
    max_linear_forest_edges,
    mono_test,
    pattern_edges,
    pattern_order,
    rainbow_test,
)

MONO_PATTERNS = [
    Path(2), Path(3), Path(4), Path(5), Path(6), Path(7),
    Star(1), Star(2), Star(3),
    # Kipas(6)'s rims miss 4 vertices and its spokes 5, past the direct
    # three-vertex branch of _grow; K_5 is the first clique left to _has_clique
    Kipas(1), Kipas(2), Kipas(3), Kipas(4), Kipas(5), Kipas(6),
    CompleteGraph(2), CompleteGraph(3), CompleteGraph(4), CompleteGraph(5),
    LinearForestExact((2, 2)), LinearForestExact((3, 3)), LinearForestExact((2, 4)),
    LinearForestExact((2, 2, 2)), LinearForestExact((3, 2, 2)),
    # two or more components left after the anchored one, equal orders,
    # and a path of order >= 4 left last
    LinearForestExact((4, 4)), LinearForestExact((5, 2)), LinearForestExact((3, 3, 2)),
    LinearForestExact((4, 3, 2)), LinearForestExact((2, 2, 2, 2)),
    P4_PLUS, Explicit(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    LinearForestMin(2, 2), LinearForestMin(3, 3), LinearForestMin(4, 3),
    LinearForestMin(5, 3), LinearForestMin(6, 3),
]

RAINBOW_PATTERNS = [
    Path(2), Path(3), Path(4), Path(5), Star(1), Star(2), Star(3),
    Kipas(1), Kipas(2), CompleteGraph(2), CompleteGraph(3), P4_PLUS, LinearForestExact((2, 2)),
]


def _as_coloring(n, adj):
    """Color 1 on the graph's edges, color 2 elsewhere."""
    return EdgeColoring(n, 2, [1 if adj[u] >> v & 1 else 2 for u, v in combinations(range(n), 2)])


def _whole_graph_mono(n, adj, p):
    """The whole-graph answer: the placer, or for ``LinearForestMin`` the
    branch and bound, which shares neither the greedy bound nor the exact
    forests with the anchored test."""
    if isinstance(p, LinearForestMin):
        return max_linear_forest_edges(n, adj, p.min_order)[0] >= p.min_edges
    return _mono_copy(n, adj, p) is not None


def _naive_rainbow(n, colors, p):
    """Rainbow copy on decided edges only, by trying every injective map."""
    edges = pattern_edges(p)
    for image in permutations(range(n), pattern_order(p)):
        cols = [colors[pair_rank(*sorted((image[a], image[b])), n)] for a, b in edges]
        if 0 not in cols and len(set(cols)) == len(cols):
            return True
    return False


def test_anchored_mono_matches_whole_graph_and_naive():
    rng = random.Random(11)
    cases = hits = 0
    for trial in range(432):  # 12 graphs per pattern
        p = MONO_PATTERNS[trial % len(MONO_PATTERNS)]
        # paths and kipas up to the sizes the benchmark searches, forests
        # up to K_10, which leaves room around a 9-vertex (4, 3, 2)
        forest = isinstance(p, (LinearForestExact, LinearForestMin))
        n = rng.randint(2, 12 if isinstance(p, (Path, Kipas)) else 10 if forest else 8)
        test = mono_test(n, p)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        adj = [0] * n
        for u, v in pairs:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            want = _whole_graph_mono(n, adj, p)
            for edge in ((u, v), (v, u)):
                assert (test is not None and test(adj, *edge)) == want, (p, n, adj, edge)
            if n <= 6 or isinstance(p, Explicit) and n <= 7:
                assert naive_has_mono(_as_coloring(n, adj), 1, p) == want, (p, n, adj)
            cases += 1
            if want:
                hits += 1
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
    assert cases > 3000 and hits > 800, (cases, hits)


def test_anchored_rainbow_matches_whole_graph_and_naive():
    rng = random.Random(12)
    cases = hits = 0
    for trial in range(360):
        p = RAINBOW_PATTERNS[trial % len(RAINBOW_PATTERNS)]
        n = rng.randint(2, 7)
        k = rng.randint(1, 6)
        test = rainbow_test(n, p)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        colors = [0] * len(pairs)
        for u, v in pairs:
            r = pair_rank(u, v, n)
            colors[r] = rng.randint(1, k)
            want = _rainbow_copy(n, colors, p) is not None
            for edge in ((u, v), (v, u)):
                assert (test is not None and test(colors, *edge)) == want, (p, n, colors, edge)
            assert _naive_rainbow(n, colors, p) == want, (p, n, colors)
            cases += 1
            if want:
                hits += 1
                colors[r] = 0
    assert cases > 3000 and hits > 800, (cases, hits)


def test_kipas_needs_a_triangle_on_its_edge():
    # from order 2 on, an edge whose ends have no common neighbour is on no
    # kipas, however many paths run through it; Kipas(1) is the edge itself
    rng = random.Random(14)
    cases = 0
    for _ in range(300):
        n = rng.randint(2, 10)
        adj = [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        for u, v in combinations(range(n), 2):
            if adj[u] >> v & 1 and not adj[u] & adj[v]:
                assert _kipas_through(1, adj, u, v) and _kipas_through(1, adj, v, u)
                for order in range(2, n):
                    assert not _kipas_through(order, adj, u, v), (order, adj, u, v)
                    assert not _kipas_through(order, adj, v, u), (order, adj, u, v)
                cases += 1
    assert cases > 400, cases


def test_smallest_patterns_are_the_edge_itself():
    adj = [0b10, 0b01, 0]
    for p in (Path(1), Path(2), CompleteGraph(1), CompleteGraph(2), Kipas(1), Star(1)):
        assert mono_test(3, p)(adj, 0, 1)
    for p in (Path(3), CompleteGraph(3), Kipas(2), Star(2)):
        assert not mono_test(3, p)(adj, 0, 1)
    colors = [5, 0, 0]
    assert rainbow_test(3, Path(2))(colors, 0, 1)
    assert not rainbow_test(3, Path(3))(colors, 0, 1)


def test_patterns_that_do_not_fit_get_no_test():
    for p in (Path(4), Star(3), Kipas(3), CompleteGraph(4), LinearForestExact((2, 2)),
              LinearForestMin(3, 2), P4_PLUS):
        assert mono_test(3, p) is None
    for p in (Path(4), Star(3), P4_PLUS):
        assert rainbow_test(3, p) is None


def _extensions(adj, free, start, count):
    """Vertex sets of the paths start, w_1, ..., w_count with every w in free."""
    found = set()

    def walk(v, seen, left):
        if not left:
            found.add(seen)
            return
        for w in range(len(adj)):
            if free >> w & 1 and not seen >> w & 1 and adj[v] >> w & 1:
                walk(w, seen | 1 << w, left - 1)

    walk(start, 0, count)
    return found


def test_grow_matches_path_enumeration():
    # _grow against every split of the missing vertices between the two ends
    # (up to 5 by walking either end, more by stepping the y end first),
    # with random allowed sets and the single-vertex path x == y
    rng = random.Random(13)
    cases = hits = 0
    three = [0, 0]  # need == 3 with x != y, with x == y
    for _ in range(3000):
        n = rng.randint(1, 9)
        adj = [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < rng.choice((0.3, 0.5, 0.8)):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        path = [rng.randrange(n)]
        for _ in range(rng.randint(0, 3)):
            nxt = [w for w in range(n) if adj[path[-1]] >> w & 1 and w not in path]
            if nxt:
                path.append(rng.choice(nxt))
        used = sum(1 << w for w in path)
        allowed = rng.randrange(1 << n) | used
        order = len(path) + rng.randint(-1, 7)
        free = allowed & ~used
        need = order - len(path)
        x, y = path[0], path[-1]
        want = need <= 0 or any(
            not a & b
            for s in range(need + 1)
            for a in _extensions(adj, free, x, s)
            for b in _extensions(adj, free, y, need - s)
        )
        assert _grow(allowed, need, adj, x, y, used) == want, (adj, allowed, path, order)
        cases += 1
        hits += want
        if need == 3:  # the direct branch, from a single vertex and from an edge
            three[x == y] += 1
    assert hits > 800 and cases - hits > 800, (cases, hits)
    assert min(three) > 100, three
    # the middle edge of the path 0-1-...-7 grows to all 8 vertices only by
    # the even split, 3 vertices at each end; that of 0-1-...-9 only by 4 + 4,
    # so its y end steps twice before the walks can finish
    for order in (8, 10):
        line = [0] * order
        for w in range(order - 1):
            line[w] |= 1 << w + 1
            line[w + 1] |= 1 << w
        mid = order // 2
        assert _grow((1 << order) - 1, order - 2, line, mid - 1, mid)
