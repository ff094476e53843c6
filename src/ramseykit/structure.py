"""Structure classifiers for rainbow-free colorings and related machinery.

``classify_structure`` recognizes, per rainbow context, the structural forms
a coloring without that rainbow pattern must take: the dominant-color form
(the supports of all non-dominant colors are pairwise disjoint), the
clique-plus-vertex shape, the g1 family, and the five shapes of
``constructions.SPECIAL_SHAPES`` (hub-triple, matched-quad, sporadic-5, g2
and g3), each under any color names.

``CONTEXTS`` is the one place that knows a case list: for each rainbow
context, its pattern, its least number of colors and its rows.  ``SHAPES``
holds each row's allowed-colors builder, which the search engines scan, beside
its matcher.  The builder is the only statement of a shape; the five
``SPECIAL_SHAPES`` rows share one, which reads that table with the special
vertices at 0..s-1.  A matcher reads candidate roles off the coloring, its
special vertices in order and which color plays which part, and ``_fits``
confirms that the coloring so relabelled and renamed is allowed by the row's
builder.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .coloring import EdgeColoring, pair_iter
from .constructions import (
    SPECIAL_SHAPES, FamilyDescriptor, _T_INTERNAL, _ranges, part_allowed, special_allowed,
)
from .errors import DomainError
from .patterns import P4_PLUS, Path, Star, _bits, _size_multisets

# case labels, in the order classification attempts them
CASE_DOMINANT = "dominant"
CASE_CLIQUE_PLUS_VERTEX = "clique-plus-vertex"  # all but one vertex monochromatic
CASE_HUB_TRIPLE = "hub-triple"  # two singleton colors at a hub plus one opposite edge
CASE_MATCHED_QUAD = "matched-quad"  # four vertices carrying three pair-matchings
CASE_SPORADIC_5 = "sporadic-5"  # the single exceptional 5-vertex coloring
CASE_G1 = "g1"
CASE_G2 = "g2"
CASE_G3 = "g3"
UNCLASSIFIED = "unclassified"


def _supports(coloring: EdgeColoring) -> dict[int, int]:
    """Bitmask of vertices incident to each color, for colors with edges."""
    out: dict[int, int] = {}
    for c in range(1, coloring.n_colors + 1):
        adj = coloring.adjacency(c)
        sup = 0
        for v in range(coloring.n_vertices):
            if adj[v]:
                sup |= 1 << v
        if sup:
            out[c] = sup
    return out


def _dominant_parts(coloring: EdgeColoring, dominant: int) -> list[list[int]] | None:
    """Parts from the supports of the non-dominant colors, when pairwise disjoint.

    Vertices meeting no non-dominant color join the first part (a documented
    non-canonical choice); colors without edges get parts filled from those
    free vertices, two each, when possible.
    """
    sup = _supports(coloring)
    others = [c for c in range(1, coloring.n_colors + 1) if c != dominant]
    union = 0
    for c in others:
        if union & sup.get(c, 0):
            return None
        union |= sup.get(c, 0)
    free = [v for v in range(coloring.n_vertices) if not (union >> v) & 1]
    parts: list[list[int]] = []
    for c in others:
        if c in sup:
            parts.append(sorted(_bits(sup[c])))
        elif len(free) < 2:
            return None
        else:
            parts.append([free.pop(0), free.pop(0)])
    if free and parts:
        parts[0] = sorted(parts[0] + free)
    elif free:
        parts.append(sorted(free))
    return parts


def dominant_descriptor(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """Try each color as dominant; succeed when the other supports are disjoint."""
    for dominant in range(1, coloring.n_colors + 1):
        parts = _dominant_parts(coloring, dominant)
        if parts is not None:
            return FamilyDescriptor(
                "dominant",
                coloring.n_vertices,
                parts=tuple(tuple(p) for p in parts),
                dominant_color=dominant,
            )
    return None


def _match_clique_plus_vertex(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """Is there a vertex whose removal leaves a monochromatic complete graph?"""
    n = coloring.n_vertices
    if n < 3:
        return None
    for a in range(n):
        rest = [v for v in range(n) if v != a]
        colors = {coloring.color_of(u, v) for u, v in combinations(rest, 2)}
        if len(colors) == 1:
            return FamilyDescriptor("clique-plus-vertex", n, special=(a,))
    return None


def _classes(coloring: EdgeColoring, size: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """(color, edges) of each color class of ``size`` edges, colors ascending."""
    classes = (coloring.color_class(c).edges() for c in range(1, coloring.n_colors + 1))
    return [(c, es) for c, es in enumerate(classes, 1) if len(es) == size]


def _fits(coloring: EdgeColoring, label: str, order, rename: dict[int, int]) -> bool:
    """Does some allowed list of the row ``label`` allow every edge, read
    through the roles a matcher found?

    Host vertex ``order[i]`` is read as the builder's vertex i, the vertices
    ``order`` leaves out following in ascending order, and host color c as
    ``rename.get(c, 1)``: color 1 is each row's background.  The renaming
    must be one to one on the colors in use; the row is built for the
    largest color it names.
    """
    used = coloring.colors_used()
    if len({rename.get(c, 1) for c in used}) < len(used):
        return False
    n = coloring.n_vertices
    order = list(order) + [v for v in range(n) if v not in order]
    read = [rename.get(coloring.color_of(order[i], order[j]), 1) for i, j in pair_iter(n)]
    return any(
        all(c in choices for c, choices in zip(read, allowed))
        for allowed in SHAPES[label][0](n, max(rename.values()))
    )


def _match_hub_triple(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """Ordered pairs of one-edge classes ab, ac meeting at the hub a, colors
    ascending; bc carries the row's color 4."""
    for (c2, [ab]), (c3, [ac]) in permutations(_classes(coloring, 1), 2):
        shared = set(ab) & set(ac)
        if len(shared) != 1:
            continue
        (a,) = shared
        b, c = sum(ab) - a, sum(ac) - a
        if _fits(coloring, CASE_HUB_TRIPLE, (a, b, c), {c2: 2, c3: 3, coloring.color_of(b, c): 4}):
            return FamilyDescriptor(CASE_HUB_TRIPLE, coloring.n_vertices, special=(a, b, c))
    return None


def _match_matched_quad(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """Ordered pairs of two-edge matchings {ac, bd}, {ad, bc} on one quad,
    colors ascending, with a the least quad vertex; ab carries the row's
    color 2, or else cd under the swapped pairing."""
    matchings = [(c, es) for c, es in _classes(coloring, 2) if not set(es[0]) & set(es[1])]
    for (c3, m3), (c4, m4) in permutations(matchings, 2):
        quad = sorted({*m3[0], *m3[1]})
        if quad != sorted({*m4[0], *m4[1]}):
            continue
        a = quad[0]
        c = next(sum(e) - a for e in m3 if a in e)
        d = next(sum(e) - a for e in m4 if a in e)
        b = sum(quad) - a - c - d
        for order in ((a, b, c, d), (c, d, a, b)):
            rename = {coloring.color_of(*order[:2]): 2, c3: 3, c4: 4}
            if _fits(coloring, CASE_MATCHED_QUAD, order, rename):
                return FamilyDescriptor(CASE_MATCHED_QUAD, coloring.n_vertices, special=order)
    return None


def _match_sporadic_5(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """The one-edge class de, each other vertex r named by the color of rd."""
    singles = _classes(coloring, 1)
    if len(singles) != 1:
        return None
    ((c4, [(d, e)]),) = singles
    rest = [v for v in range(coloring.n_vertices) if v not in (d, e)]
    rename = {coloring.color_of(r, d): i for i, r in enumerate(rest, 1)}
    if _fits(coloring, CASE_SPORADIC_5, rest + [d, e], rename | {c4: 4}):
        return FamilyDescriptor(CASE_SPORADIC_5, 5, special=(d, e))
    return None


def _match_g2(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """xy a one-edge class, colors ascending, and x the end whose other
    edges carry the smaller color."""
    n = coloring.n_vertices
    if n < 3:
        return None
    for c2, [(u, v)] in _classes(coloring, 1):
        z = next(w for w in range(n) if w not in (u, v))
        x, y = (u, v) if coloring.color_of(u, z) < coloring.color_of(v, z) else (v, u)
        rename = {c2: 2, coloring.color_of(x, z): 3, coloring.color_of(y, z): 4}
        if _fits(coloring, CASE_G2, (x, y), rename):
            return FamilyDescriptor(CASE_G2, n, special=(x, y))
    return None


def _match_g3(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """ab, bc and ac the three one-edge classes in ascending color order."""
    singles = _classes(coloring, 1)
    if len(singles) != 3:
        return None
    (c2, [ab]), (c3, [bc]), (c4, _) = singles
    shared = set(ab) & set(bc)
    if len(shared) != 1:
        return None
    (b,) = shared
    a, c = sum(ab) - b, sum(bc) - b
    if _fits(coloring, CASE_G3, (a, b, c), {c2: 2, c3: 3, c4: 4}):
        return FamilyDescriptor(CASE_G3, coloring.n_vertices, special=(a, b, c))
    return None


def _match_g1(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """g1 after renumbering the used colors onto 1, 2, 3 in ascending order.

    One renumbering is enough: renaming the colors permutes ``_T_INTERNAL``'s
    three pairs, that is the three parts, so when any renumbering admits a
    split the ascending one does too.
    """
    used = sorted(coloring.colors_used())
    if len(used) != 3:
        return None
    rename = {c: i for i, c in enumerate(used, 1)}
    renamed = EdgeColoring(coloring.n_vertices, 3, [rename[c] for c in coloring.colors])
    return three_part_descriptor(renamed, allow_empty=1)


def three_part_descriptor(
    coloring: EdgeColoring, allow_empty: int
) -> FamilyDescriptor | None:
    """Find a three-part split with the fixed cross colors 1/2/3.

    Part i may only touch colors from its internal pair, so each vertex's
    allowed parts follow from the colors incident to it.  Every choice of
    allowed parts is then a split: an edge inside part i has a color of its
    pair, and an edge between two parts the one color both pairs hold, their
    cross color.  The first choice in lexicographic order that leaves at
    most ``allow_empty`` parts empty is returned.

    It is built vertex by vertex: each vertex takes its least allowed part
    that still lets the vertices after it fill enough of the empty parts.
    How many they can fill is a matching of empty parts to distinct later
    vertices; by Hall's theorem it is the number of empty parts less the
    largest deficiency |X| - |N(X)| over sets X of them, with |N(X)| read
    from suffix counts.
    """
    n = coloring.n_vertices
    sup = _supports(coloring)
    if any(c > 3 for c in sup):
        return None
    allowed = []
    for v in range(n):
        met = {c for c, mask in sup.items() if (mask >> v) & 1}
        allowed.append([p for p, pair in enumerate(_T_INTERNAL) if met.issubset(pair)])
    if not all(allowed):
        return None
    # reach[i][x]: how many of the vertices i.. may go to a part in the set x
    reach = [[0] * 8]
    for choices in reversed(allowed):
        mask = sum(1 << p for p in choices)
        reach.append([r + (x & mask != 0) for x, r in enumerate(reach[-1])])
    reach.reverse()

    def filled(i: int, used: int) -> int:
        """The most parts in use once the vertices i.. are placed too."""
        return 3 - max(x.bit_count() - reach[i][x] for x in range(8) if not x & used)

    need = 3 - allow_empty
    if filled(0, 0) < need:
        return None
    assign = []
    used = 0
    for v in range(n):
        part = next(p for p in allowed[v] if filled(v + 1, used | 1 << p) >= need)
        assign.append(part)
        used |= 1 << part
    parts = tuple(tuple(v for v in range(n) if assign[v] == p) for p in range(3))
    return FamilyDescriptor("t" if all(parts) else "g1", n, parts=parts)


def is_member(coloring: EdgeColoring, family: str) -> FamilyDescriptor | None:
    """A witnessing descriptor iff the coloring is a member of the family
    under its literal colors."""
    if family == "bk":
        # the dominant-color form with the literal color 1 dominant
        parts = _dominant_parts(coloring, 1) if coloring.n_colors >= 3 else None
        if parts is None:
            return None
        return FamilyDescriptor("bk", coloring.n_vertices, parts=tuple(tuple(p) for p in parts))
    if family == "t":
        got = three_part_descriptor(coloring, allow_empty=0)
        return got if got and got.family == "t" else None
    if family == "g1":
        return three_part_descriptor(coloring, allow_empty=1)
    if family in (CASE_G2, CASE_G3):
        got = (_match_g2 if family == CASE_G2 else _match_g3)(coloring)
        if got is None:
            return None
        allowed = special_allowed(family, coloring.n_vertices, got.special)
        return got if all(c in a for c, a in zip(coloring.colors, allowed)) else None
    raise DomainError(f"unknown family {family!r}")


# --- the case-list rows as searchable families -----------------------------------
#
# A builder gives, for K_n with k colors, zero or more lists of allowed colors,
# one tuple per edge in pair_rank order (a 1-tuple fixes the edge).  The
# members of a row are the colorings its lists allow (the surjective ones in
# structure mode); the matcher recognizes each of them.


def _parts_allowed(n: int, family: str, count: int, min_size: int):
    """One list per part-size multiset, parts consecutive vertex ranges."""
    for sizes in _size_multisets(n, count, min_size):
        yield part_allowed(family, _ranges(sizes))


def _bk_allowed(n: int, k: int):
    """k-1 parts of at least two vertices."""
    return _parts_allowed(n, "bk", k - 1, 2)


def _t_allowed(n: int, k: int):
    """Three nonempty parts (k = 3 only)."""
    if k != 3:
        return
    yield from _parts_allowed(n, "t", 3, 1)


def _clique_plus_vertex_allowed(n: int, k: int):
    """All but the last vertex induce color 1; the last vertex's edges are free."""
    last = tuple(range(1, k + 1))
    yield [last if v == n - 1 else (1,) for _, v in pair_iter(n)]


def _special_row(label: str):
    """Builder for a ``constructions.SPECIAL_SHAPES`` row: its special vertices
    at 0..s-1, at k = 4 and the row's sizes only."""
    s, least, most, _ = SPECIAL_SHAPES[label]

    def allowed(n: int, k: int):
        if k == 4 and least <= n <= (most or n):
            yield special_allowed(label, n, range(s))

    return allowed


# label -> (allowed-colors builder, matcher)
SHAPES = {
    "bk": (_bk_allowed, dominant_descriptor),
    "t": (_t_allowed, _match_g1),
    CASE_CLIQUE_PLUS_VERTEX: (_clique_plus_vertex_allowed, _match_clique_plus_vertex),
    CASE_HUB_TRIPLE: (_special_row(CASE_HUB_TRIPLE), _match_hub_triple),
    CASE_MATCHED_QUAD: (_special_row(CASE_MATCHED_QUAD), _match_matched_quad),
    CASE_SPORADIC_5: (_special_row(CASE_SPORADIC_5), _match_sporadic_5),
    CASE_G2: (_special_row(CASE_G2), _match_g2),
    CASE_G3: (_special_row(CASE_G3), _match_g3),
}

# context -> (rainbow pattern, least k, its case list as SHAPES rows in scan order)
CONTEXTS = {
    "p5": (
        Path(5),
        4,
        ("bk", CASE_CLIQUE_PLUS_VERTEX, CASE_HUB_TRIPLE, CASE_MATCHED_QUAD, CASE_SPORADIC_5),
    ),
    "k13": (Star(3), 3, ("bk", "t")),
    "p4plus": (P4_PLUS, 4, ("bk", CASE_G2, CASE_G3)),
}


# classify reports these rows under their case names
_CASE_OF_ROW = {"bk": CASE_DOMINANT, "t": CASE_G1}
# rows that classify tries after a context's search rows
_CLASSIFY_ONLY = {"p4plus": (CASE_CLIQUE_PLUS_VERTEX,)}


def classify_structure(
    coloring: EdgeColoring, rainbow_context: str
) -> tuple[str, FamilyDescriptor | None]:
    """Classify a coloring against the case list of its rainbow context.

    ``rainbow_context`` is one of ``p5``, ``k13``, ``p4plus``.  Returns the
    first matching case with its descriptor, else (``unclassified``, None).

    The cases are the rows ``CONTEXTS`` lists for the context, tried in
    order through their ``SHAPES`` matchers, which take any color names.
    The ``bk`` row, first in every context, is the dominant-color form and
    is reported as ``dominant``; the ``t`` row is reported as ``g1``.

    * ``k13``: the ``t`` row's matcher is g1 after renumbering the used
      colors onto 1, 2, 3.  The search tracks the target in every color, so
      one naming of each t member suffices there; a coloring to classify
      comes in any naming, and g1's empty part adds nothing the dominant
      form misses.
    * ``p4plus``: after its rows, classify also tries clique-plus-vertex,
      which ``CONTEXTS`` leaves out.  Its members are free of a rainbow
      P_4^+ only on K_4: none of the 6 exact ones there holds one, while all
      60 on K_5 and all 390 on K_6 do.  Structure mode starts at K_5, the
      pattern's order, where the row would only add colorings that hold one.
    """
    if rainbow_context not in CONTEXTS:
        raise DomainError(f"unknown rainbow context {rainbow_context!r}")
    k_used = len(coloring.colors_used())
    _, minimum, rows = CONTEXTS[rainbow_context]
    if k_used < minimum:
        raise DomainError(
            f"context {rainbow_context} needs at least {minimum} colors in use, got {k_used}"
        )
    for label in rows + _CLASSIFY_ONLY.get(rainbow_context, ()):
        got = SHAPES[label][1](coloring)
        if got is not None:
            return _CASE_OF_ROW.get(label, label), got
    return UNCLASSIFIED, None


def star_forest_check(coloring: EdgeColoring, c: int) -> bool:
    """True iff color class c is a disjoint union of stars.

    Every neighbor of a vertex of degree >= 2 must be a leaf; a path with
    three edges breaks that at an inner vertex, a triangle at every vertex.
    """
    adj = coloring.adjacency(c)
    n = coloring.n_vertices
    for u in range(n):
        if adj[u].bit_count() < 2:
            continue
        # a branching vertex: all its neighbors must be leaves
        for v in _bits(adj[u]):
            if adj[v] != (1 << u):
                return False
    return True


def multipartite_ham(part_sizes: list[int], mode: str = "cycle") -> list[int]:
    """Hamiltonian cycle or path of the complete multipartite graph.

    Vertices are numbered consecutively by part.  Cycle mode needs the other
    parts to sum to at least the largest and a total of at least 3; path
    mode needs them to sum to exactly largest-1.

    List the n vertices largest part first, so that each part is a run of
    the list L, and let h = ceil(n/2).  Both modes interleave the first h
    entries with the rest: L[0], L[h], L[1], L[h+1], ...  Each step joins
    an entry before L[h] to one h or h-1 places later, so a part holding a
    step would be a run of at least h vertices across L[h-1], L[h].  The
    largest part has at most h vertices, so its run ends by L[h-1]; any
    other part of h vertices comes after it, from L[h] on.  The cycle closes
    from L[h-1] (n odd) or L[n-1] (n even) to L[0], and the largest part
    stops before either: it has at most n/2 vertices, fewer than h when n
    is odd.
    """
    if mode not in ("cycle", "path"):
        raise DomainError("mode must be 'cycle' or 'path'")
    if not part_sizes or any(s < 0 for s in part_sizes):
        raise DomainError("part sizes must be nonnegative")
    n = sum(part_sizes)
    if not n:
        raise DomainError("at least one nonempty part required")
    largest = max(part_sizes)
    if mode == "cycle":
        if n < 3:
            raise DomainError("a cycle needs at least 3 vertices")
        if n - largest < largest:
            raise DomainError("cycle mode needs the other parts to cover the largest")
    elif n - largest != largest - 1:
        raise DomainError("path mode needs the other parts to sum to largest - 1")
    lo = sum(part_sizes[: part_sizes.index(largest)])
    order = [*range(lo, lo + largest), *range(lo), *range(lo + largest, n)]
    h = (n + 1) // 2
    seq = [0] * n
    seq[::2], seq[1::2] = order[:h], order[h:]
    return seq
