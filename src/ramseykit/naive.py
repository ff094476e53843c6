"""Brute-force reference checkers.

Deliberately simple enumerations (all subsets, all injections) used as
independent oracles by the self-test and the test suite.  Nothing here
shares code with the bitmask detection paths or the search's scan.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Sequence

from .coloring import EdgeColoring
from .patterns import (
    LinearForestMin,
    PatternSpec,
    pattern_edges,
    pattern_order,
)


def _class_has_edge(coloring: EdgeColoring, c: int, u: int, v: int) -> bool:
    return coloring.color_of(u, v) == c


def naive_longest_mono_path(coloring: EdgeColoring, c: int) -> int:
    """Longest path in color class c by exhaustive path extension.

    Stops as soon as a path covers all n vertices, since none is longer.
    """
    n = coloring.n_vertices
    best = 1

    def extend(seq: list[int], used: set[int]):
        nonlocal best
        best = max(best, len(seq))
        for u in range(n):
            if best == n:
                return
            if u in used:
                continue
            if _class_has_edge(coloring, c, min(u, seq[-1]), max(u, seq[-1])):
                seq.append(u)
                used.add(u)
                extend(seq, used)
                used.remove(u)
                seq.pop()

    for s in range(n):
        extend([s], {s})
    return best


def naive_has_mono(coloring: EdgeColoring, c: int, p: PatternSpec) -> bool:
    """Pattern containment by trying every injective vertex map."""
    if isinstance(p, LinearForestMin):
        return naive_max_linear_forest(coloring, c, p.min_order) >= p.min_edges
    order = pattern_order(p)
    n = coloring.n_vertices
    if order > n:
        return False
    edges = pattern_edges(p)
    for image in permutations(range(n), order):
        if all(
            _class_has_edge(coloring, c, min(image[a], image[b]), max(image[a], image[b]))
            for a, b in edges
        ):
            return True
    return False


def naive_max_linear_forest(coloring: EdgeColoring, c: int, min_order: int) -> int:
    """Maximum linear forest edges by enumerating all edge subsets."""
    n = coloring.n_vertices
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if _class_has_edge(coloring, c, u, v)
    ]
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for subset in combinations(edges, size):
            if _is_linear_forest(subset, min_order):
                best = max(best, size)
                break
    return best


def _is_linear_forest(edge_subset, min_order: int) -> bool:
    degree: dict[int, int] = {}
    for u, v in edge_subset:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        if degree[u] > 2 or degree[v] > 2:
            return False
    # acyclic: per component, edges = vertices - 1
    parent = {v: v for v in degree}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_subset:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    if min_order >= 3:
        comp_sizes: dict[int, int] = {}
        for v in degree:
            r = find(v)
            comp_sizes[r] = comp_sizes.get(r, 0) + 1
        if any(s < min_order for s in comp_sizes.values()):
            return False
    return True


def naive_has_rainbow(coloring: EdgeColoring, p: PatternSpec) -> bool:
    order = pattern_order(p)
    n = coloring.n_vertices
    if order > n:
        return False
    edges = pattern_edges(p)
    for image in permutations(range(n), order):
        cols = [coloring.color_of(min(image[a], image[b]), max(image[a], image[b])) for a, b in edges]
        if len(set(cols)) == len(cols):
            return True
    return False


def naive_first_good(
    n: int,
    k: int,
    allowed: Sequence[Sequence[int]],
    tracked: Sequence[tuple[int, PatternSpec]],
    surjective: bool,
) -> EdgeColoring | None:
    """First coloring of K_n, edge i (in ``pair_rank`` order) colored from
    ``allowed[i]``, without any tracked pattern, or None.

    Every choice is walked with ``itertools.product``: the first edge
    varies slowest and each edge takes its colors in the order given.  Each
    (key, pattern) is tested on the whole coloring, as a mono pattern of
    color key, or as a rainbow pattern when the key is 0.  ``surjective``
    keeps only colorings that use all k colors.
    """
    for colors in product(*allowed):
        exact = len(set(colors)) == k
        if surjective and not exact:
            continue
        coloring = EdgeColoring(n, k, colors, exact_flag=exact)
        if not any(
            naive_has_mono(coloring, key, p) if key else naive_has_rainbow(coloring, p)
            for key, p in tracked
        ):
            return coloring
    return None
