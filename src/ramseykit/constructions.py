"""Generators for coloring families and explicit lower-bound witnesses.

Families
--------
bk        k-1 disjoint parts of size >= 2; edges between parts get color 1,
          edges inside part i get color 1 or i+1.
t         three nonempty parts; edges between parts i<j get the color of the
          pair (1 for 1-2, 2 for 2-3, 3 for 1-3) and internal edges pick one
          of the two cross colors meeting their part.
g1        like t, but at most one part may be empty.
g2        one edge xy of color 2, the other x-edges color 3, the other
          y-edges color 4, everything else color 1.
g3        one triangle abc with colors 2, 3, 4, everything else color 1.

``part_allowed`` writes the bk/t/g1 rule down once, as the allowed colors of
every edge: ``build_family`` checks a descriptor's choices against it,
``complete_parts`` (behind ``generate`` and the witnesses) builds through
``build_family``, and the ``bk`` and ``t`` rows of ``structure.SHAPES`` scan it.

``SPECIAL_SHAPES`` states g2, g3 and the three exceptional shapes of the p5
case list once each, as one table over their special vertices, and
``special_allowed`` reads a row onto K_n: ``build_family`` builds g2 and g3
from it, and ``structure.SHAPES`` scans and checks all five.

Part-to-vertex assignment is deterministic: parts occupy consecutive vertex
ranges in declaration order, so generated files are stable test fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coloring import EdgeColoring, pair_iter
from .errors import DescriptorError, DomainError, RamseykitError
from . import patterns
from .patterns import Kipas, LinearForestMin, Path


@dataclass
class FamilyDescriptor:
    """A parse/classification result placing a coloring inside a family."""

    family: str
    n_vertices: int
    parts: tuple[tuple[int, ...], ...] | None = None
    internal_choices: dict[tuple[int, int], int] | None = None
    special: tuple[int, ...] | None = None
    # classification extra for the dominant-color form
    dominant_color: int | None = None


# internal color pairs of the three parts in the t and g1 families, ascending
# as the search tries them
_T_INTERNAL = ((1, 3), (1, 2), (2, 3))

# The k = 4 shapes on s special vertices a, b, ...; the p5 ones follow Thomason
# and Wagner, "Complete graphs with no rainbow path", J. Graph Theory 54 (2007).
# label -> (s, least N, greatest N or None, allowed colors): the key "ab" gives
# the special pair ab, the key "a" each edge from a to an ordinary vertex, and
# every other edge has color 1.  A tuple lists its colors in scan order.
SPECIAL_SHAPES = {
    "g2": (2, 3, None, {"ab": (2,), "a": (3,), "b": (4,)}),  # a, b are x, y
    "g3": (3, 3, None, {"ab": (2,), "bc": (3,), "ac": (4,)}),
    "hub-triple": (3, 4, None, {"ab": (2,), "ac": (3,), "bc": (4,), "a": (1, 4)}),
    "matched-quad": (
        4, 4, None, {"ab": (2,), "cd": (1, 2), "ac": (3,), "bd": (3,), "ad": (4,), "bc": (4,)},
    ),
    "sporadic-5": (5, 5, 5, {
        "ac": (2,), "bd": (2,), "be": (2,), "ab": (3,), "cd": (3,), "ce": (3,), "de": (4,),
    }),
}


def special_allowed(label: str, n: int, special) -> list[tuple[int, ...]]:
    """The allowed colors of every edge of K_n, in pair_rank order, for the
    ``SPECIAL_SHAPES`` row ``label`` with special vertex i at ``special[i]``."""
    shape = SPECIAL_SHAPES[label][3]
    name = dict(zip(special, "abcde"))
    return [
        shape.get("".join(sorted(name.get(u, "") + name.get(v, ""))), (1,))
        for u, v in pair_iter(n)
    ]


def _check_partition(d: FamilyDescriptor, min_size: int, n_parts: int, allow_empty: int) -> None:
    if d.parts is None:
        raise DescriptorError(f"{d.family}: partition required")
    if len(d.parts) != n_parts:
        raise DescriptorError(f"{d.family}: expected {n_parts} parts, got {len(d.parts)}")
    seen: set[int] = set()
    empty = 0
    for part in d.parts:
        if not part:
            empty += 1
            continue
        if len(part) < min_size:
            raise DescriptorError(f"{d.family}: part {part} smaller than {min_size}")
        for v in part:
            if not 0 <= v < d.n_vertices:
                raise DescriptorError(f"{d.family}: vertex {v} out of range")
            if v in seen:
                raise DescriptorError(f"{d.family}: vertex {v} in two parts")
            seen.add(v)
    if empty > allow_empty:
        raise DescriptorError(f"{d.family}: {empty} empty parts, at most {allow_empty} allowed")
    if len(seen) != d.n_vertices:
        raise DescriptorError(f"{d.family}: parts do not cover all vertices")


def part_allowed(family: str, parts) -> list[tuple[int, ...]]:
    """The allowed colors of every edge of a bk, t or g1 member with these
    parts, in pair_rank order.

    An edge inside part i takes a color of the part's internal pair: (1, i+2)
    in bk, ``_T_INTERNAL[i]`` in t and g1.  An edge between two parts is fixed
    to the one color their pairs share, their cross color: always 1 in bk,
    and 1, 2, 3 for the t parts 1-2, 2-3, 1-3.
    """
    pairs = [(1, i + 2) for i in range(len(parts))] if family == "bk" else _T_INTERNAL
    where = {v: i for i, part in enumerate(parts) for v in part}
    allowed = []
    for u, v in pair_iter(len(where)):
        i, j = where[u], where[v]
        allowed.append(pairs[i] if i == j else tuple(set(pairs[i]) & set(pairs[j])))
    return allowed


def build_family(d: FamilyDescriptor) -> EdgeColoring:
    """Build the coloring a descriptor determines; cross colors are fixed."""
    n = d.n_vertices
    if d.family in ("bk", "t", "g1"):
        if d.family == "bk":
            if d.parts is None or len(d.parts) < 2:
                raise DescriptorError("bk: needs at least 2 parts (k >= 3)")
            _check_partition(d, min_size=2, n_parts=len(d.parts), allow_empty=0)
        else:
            _check_partition(d, min_size=1, n_parts=3, allow_empty=0 if d.family == "t" else 1)
        allowed_list = part_allowed(d.family, d.parts)
        k = len(d.parts) + 1 if d.family == "bk" else 3
    elif d.family in ("g2", "g3"):
        names = "x, y" if d.family == "g2" else "a, b, c"
        s, least, *_ = SPECIAL_SHAPES[d.family]
        if d.special is None or len(d.special) != s:
            raise DescriptorError(f"{d.family}: needs special vertices ({names})")
        if len(set(d.special)) != s or not all(0 <= v < n for v in d.special):
            raise DescriptorError(f"{d.family}: {names} must be distinct vertices")
        if n < least:
            raise DescriptorError(f"{d.family}: needs at least {least} vertices")
        allowed_list = special_allowed(d.family, n, d.special)
        k = 4
    else:
        raise DescriptorError(f"unknown family {d.family!r}")
    choices = d.internal_choices or {}
    colors = []
    for e, allowed in zip(pair_iter(n), allowed_list):
        c = allowed[0] if len(allowed) == 1 else choices.get(e)
        if c is None:
            raise DescriptorError(f"{d.family}: internal edge {e} has no color choice")
        if c not in allowed:
            raise DescriptorError(
                f"{d.family}: internal edge {e} colored {c}, allowed {list(allowed)}"
            )
        colors.append(c)
    return EdgeColoring(n, k, colors, exact_flag=len(set(colors)) == k)


def _ranges(sizes: list[int]) -> tuple[tuple[int, ...], ...]:
    parts = []
    base = 0
    for s in sizes:
        parts.append(tuple(range(base, base + s)))
        base += s
    return tuple(parts)


def _three_groups(n: int) -> list[int]:
    """The three parts of witness_t_path and groups of witness_b3_kipas."""
    return [n // 2] + [(n - 1) // 2] * 2


def complete_parts(family: str, sizes) -> EdgeColoring:
    """The bk, t or g1 member on consecutive parts of these sizes with part i
    complete in color i+2 (bk) or i+1 (t and g1)."""
    for size in sizes:
        if size < 0:
            raise DescriptorError(f"{family}: negative part size {size}")
    parts = _ranges(sizes)
    first = 2 if family == "bk" else 1
    choices = {e: first + i for i, part in enumerate(parts) for e in combinations(part, 2)}
    return build_family(FamilyDescriptor(family, sum(sizes), parts=parts, internal_choices=choices))


def g2_coloring(n: int, x: int = 0, y: int = 1) -> EdgeColoring:
    return build_family(FamilyDescriptor("g2", n, special=(x, y)))


def g3_coloring(n: int, a: int = 0, b: int = 1, c: int = 2) -> EdgeColoring:
    return build_family(FamilyDescriptor("g3", n, special=(a, b, c)))


def witness_kipas_linear(n: int, m: int, verify: bool = False) -> EdgeColoring:
    """Red clique of size n, all other edges blue, on n + ceil(m/2) - 1 vertices.

    Contains no red kipas of path order n and no blue linear forest with m or
    more edges.  The construction is valid for any m >= 2; the matching
    Ramsey formula additionally needs m <= n/2.
    """
    if m < 2 or n < 2:
        raise DomainError("need n, m >= 2")
    extra = (m + 1) // 2 - 1
    size = n + extra
    colors = [1 if v < n else 2 for u, v in pair_iter(size)]
    coloring = EdgeColoring(size, 2, colors, exact_flag=len(set(colors)) == 2)
    if verify:
        _assert_free(
            coloring, [(1, Kipas(n)), (2, LinearForestMin(m))], f"kipas-linear witness ({n}, {m})"
        )
    return coloring


def witness_bk_path(k: int, n: int, verify: bool = False) -> EdgeColoring:
    """A bk member on ceil((3n-3)/2) - 1 vertices with no monochromatic P_n.

    k-2 parts of size 2 carry one edge each of colors 2..k-1; the last part
    splits into two cliques of color k (the smaller one may be empty), with
    color 1 everywhere else.
    """
    if k < 3:
        raise DomainError("need k >= 3")
    if n <= 4 * (k - 2) + 1:
        raise DomainError("need n > 4(k-2)+1")
    total = -((3 * n - 3) // -2) - 1
    sizes = [2] * (k - 2) + [total - 2 * (k - 2)]
    parts = _ranges(sizes)
    big = parts[-1]
    h1 = set(big[: len(big) - (n - 1)])
    choices = {pair: i + 2 for i, pair in enumerate(parts[:-1])}
    choices.update({(u, v): k if (u in h1) == (v in h1) else 1 for u, v in combinations(big, 2)})
    coloring = build_family(FamilyDescriptor("bk", total, parts=parts, internal_choices=choices))
    if verify:
        _assert_free(coloring, [(c, Path(n)) for c in range(1, k + 1)], f"bk path witness ({k}, {n})")
    return coloring


def witness_t_path(n: int, verify: bool = False) -> EdgeColoring:
    """A t member with part i complete in color i and no monochromatic P_n."""
    if n < 3:
        raise DomainError("need n >= 3")
    coloring = complete_parts("t", _three_groups(n))
    if verify:
        _assert_free(coloring, [(c, Path(n)) for c in (1, 2, 3)], f"t path witness ({n})")
    return coloring


def witness_b3_kipas(n: int, verify: bool = False) -> EdgeColoring:
    """A b3 member avoiding a monochromatic kipas of path order n in every color.

    One part A of size n is complete in color 3; the rest splits into three
    groups internally colored 1, pairwise colored 2, and joined to A by 1.
    """
    if n < 5:
        raise DomainError("need n >= 5")
    a_part, *groups = _ranges([n] + _three_groups(n))
    b_part = sum(groups, ())
    group = {v: i for i, g in enumerate(groups) for v in g}
    # the bk parts are (B, A), so B's edges take 1 or 2 and A's 1 or 3
    choices = {e: 3 for e in combinations(a_part, 2)}
    choices.update({(u, v): 1 if group[u] == group[v] else 2 for u, v in combinations(b_part, 2)})
    coloring = build_family(
        FamilyDescriptor("bk", n + len(b_part), parts=(b_part, a_part), internal_choices=choices)
    )
    if verify:
        _assert_free(coloring, [(c, Kipas(n)) for c in (1, 2, 3)], f"b3 kipas witness ({n})")
    return coloring


def witness_small_kipas(n: int, verify: bool = False) -> EdgeColoring:
    """Tiny kipas-free b3 members: color 1 a balanced complete bipartite graph,
    colors 2 and 3 the two sides (an edge each for n=2, triangles for n=3)."""
    if n not in (2, 3):
        raise DomainError("only n in {2, 3}")
    coloring = complete_parts("bk", [n, n])
    if verify:
        _assert_free(coloring, [(c, Kipas(n)) for c in (1, 2, 3)], f"small kipas witness ({n})")
    return coloring


def _assert_free(coloring: EdgeColoring, targets, label: str) -> None:
    """Raise unless no (color, pattern) target occurs; a Path target occurs
    when the color's longest path reaches its order, a Kipas target when a
    path of its rim order lies in some hub's neighbourhood, a
    LinearForestMin target when the color's largest linear forest reaches
    its edges."""
    for c, pattern in targets:
        if isinstance(pattern, Path):
            n = coloring.n_vertices
            present = patterns.longest_path_order(n, coloring.adjacency(c)) >= pattern.order
        elif isinstance(pattern, Kipas):
            present = _has_kipas(coloring.adjacency(c), pattern.order)
        else:
            edges, _ = patterns.max_linear_forest(coloring, c, pattern.min_order)
            present = edges >= pattern.min_edges
        if present:
            raise RamseykitError(
                f"{label} contains {patterns.format_pattern(pattern)} in color {c}"
            )


def _has_kipas(adj: tuple[int, ...], order: int) -> bool:
    """Does some hub's neighbourhood, relabelled onto 0..d-1, hold a path of
    ``order`` vertices?"""
    for nb in adj:
        if nb.bit_count() >= order:
            rim = [w for w in range(len(adj)) if nb >> w & 1]
            sub = [sum(1 << j for j, w in enumerate(rim) if adj[u] >> w & 1) for u in rim]
            if patterns.longest_path_order(len(rim), sub) >= order:
                return True
    return False
