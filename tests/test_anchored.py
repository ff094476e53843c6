"""Anchored detection against the whole-graph detectors and the naive oracles.

The search engines call ``mono_present`` and ``rainbow_present`` with the
edge they just decided, on a graph that had no copy before that edge.  These
tests grow random graphs the same way: add one random edge, compare the
anchored answer with the whole-graph one, and drop the edge again when it
completed a copy, so every case keeps the "no copy without the edge" rule.
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
    mono_present,
    pattern_edges,
    pattern_order,
    rainbow_present,
)

MONO_PATTERNS = [
    Path(2), Path(3), Path(4), Path(5), Path(6),
    Star(1), Star(2), Star(3),
    Kipas(1), Kipas(2), Kipas(3), Kipas(4),
    CompleteGraph(2), CompleteGraph(3), CompleteGraph(4),
    LinearForestExact((2, 2)), LinearForestExact((3, 3)), LinearForestExact((2, 4)),
    LinearForestExact((2, 2, 2)), LinearForestExact((3, 2, 2)),
    P4_PLUS, Explicit(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    LinearForestMin(2, 2), LinearForestMin(3, 3), LinearForestMin(4, 3),
]

RAINBOW_PATTERNS = [
    Path(2), Path(3), Path(4), Path(5), Star(1), Star(2), Star(3),
    Kipas(1), Kipas(2), CompleteGraph(2), CompleteGraph(3), P4_PLUS, LinearForestExact((2, 2)),
]


def _as_coloring(n, adj):
    """Color 1 on the graph's edges, color 2 elsewhere."""
    return EdgeColoring(n, 2, [1 if adj[u] >> v & 1 else 2 for u, v in combinations(range(n), 2)])


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
    for trial in range(280):
        p = MONO_PATTERNS[trial % len(MONO_PATTERNS)]
        n = rng.randint(2, 8)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        adj = [0] * n
        for u, v in pairs:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            want = mono_present(n, adj, p)
            assert mono_present(n, adj, p, (u, v)) == want, (p, n, adj, (u, v))
            assert mono_present(n, adj, p, (v, u)) == want, (p, n, adj, (v, u))
            if n <= 6:
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
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        colors = [0] * len(pairs)
        for u, v in pairs:
            r = pair_rank(u, v, n)
            colors[r] = rng.randint(1, k)
            want = rainbow_present(n, colors, p)
            assert rainbow_present(n, colors, p, (u, v)) == want, (p, n, colors, (u, v))
            if n <= 6:
                assert _naive_rainbow(n, colors, p) == want, (p, n, colors)
            cases += 1
            if want:
                hits += 1
                colors[r] = 0
    assert cases > 3000 and hits > 800, (cases, hits)


def test_smallest_patterns_are_the_edge_itself():
    adj = [0b10, 0b01, 0]
    for p in (Path(1), Path(2), CompleteGraph(1), CompleteGraph(2), Kipas(1), Star(1)):
        assert mono_present(3, adj, p, (0, 1))
    for p in (Path(3), CompleteGraph(3), Kipas(2), Star(2)):
        assert not mono_present(3, adj, p, (0, 1))
    colors = [5, 0, 0]
    assert rainbow_present(3, colors, Path(2), (0, 1))
    assert not rainbow_present(3, colors, Path(3), (0, 1))
