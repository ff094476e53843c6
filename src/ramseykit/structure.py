"""Structure classifiers for rainbow-free colorings and related machinery.

``classify_structure`` recognizes, per rainbow context, the structural forms
a coloring without that rainbow pattern must take: the dominant-color form
(the supports of all non-dominant colors are pairwise disjoint), a handful
of small exceptional shapes built around at most four special vertices, and
the g1/g2/g3 families.  "After renumbering the colors" is implemented as an
explicit search over candidate dominant colors and color-role assignments.

``CONTEXTS`` is the one place that knows a case list: for each rainbow
context, its pattern, its least number of colors and its rows.  ``SHAPES``
holds each row's allowed-colors builder, which the search engines scan, beside
its matcher.
"""

from __future__ import annotations

from itertools import combinations

from .coloring import EdgeColoring, pair_iter
from .constructions import FamilyDescriptor, _T_CROSS, _T_INTERNAL, g2_coloring, g3_coloring
from .errors import DomainError
from .patterns import P4_PLUS, Path, Star, _bits

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
                part_colors=tuple(c for c in range(1, coloring.n_colors + 1) if c != dominant),
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


def _match_hub_triple(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """Two singleton color classes ab, ac at a hub a; a fourth color owns bc
    plus possibly more a-incident edges; everything else one color."""
    n = coloring.n_vertices
    if coloring.n_colors < 4 or n < 3:
        return None
    class_edges = {c: coloring.color_class(c).edges() for c in range(1, coloring.n_colors + 1)}
    singles = [c for c, es in class_edges.items() if len(es) == 1]
    for c2 in singles:
        for c3 in singles:
            if c3 == c2:
                continue
            (u1, v1), = class_edges[c2]
            (u2, v2), = class_edges[c3]
            shared = {u1, v1} & {u2, v2}
            if len(shared) != 1:
                continue
            a = shared.pop()
            b = ({u1, v1} - {a}).pop()
            c = ({u2, v2} - {a}).pop()
            bc = (min(b, c), max(b, c))
            c4 = coloring.color_of(*bc)
            if c4 in (c2, c3):
                continue
            e4 = class_edges[c4]
            if any(e != bc and a not in e for e in e4):
                continue
            remaining = [
                cc
                for cc, es in class_edges.items()
                if es and cc not in (c2, c3, c4)
            ]
            if len(remaining) != 1:
                continue
            return FamilyDescriptor("hub-triple", n, special=(a, b, c))
    return None


def _match_matched_quad(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """Four vertices a,b,c,d with classes {ab}(+cd), {ac,bd}, {ad,bc}; rest one color."""
    n = coloring.n_vertices
    if coloring.n_colors < 4 or n < 4:
        return None
    class_edges = {c: coloring.color_class(c).edges() for c in range(1, coloring.n_colors + 1)}
    pair_classes = [c for c, es in class_edges.items() if len(es) == 2]
    for c3 in pair_classes:
        (e1, e2) = class_edges[c3]
        if set(e1) & set(e2):
            continue
        quad = sorted(set(e1) | set(e2))
        for c4 in pair_classes:
            if c4 == c3:
                continue
            if sorted(set(class_edges[c4][0]) | set(class_edges[c4][1])) != quad:
                continue
            if set(class_edges[c4][0]) & set(class_edges[c4][1]):
                continue
            # determine a,b,c,d: c3 = {ac, bd}, c4 = {ad, bc}; c2 holds ab (+ cd)
            a = quad[0]
            cc = next(v for e in class_edges[c3] for v in e if a in e and v != a)
            d = next(v for e in class_edges[c4] for v in e if a in e and v != a)
            b = next(v for v in quad if v not in (a, cc, d))
            # the singleton-color edge is ab or cd; swapping the pairs keeps c3, c4
            for a, b, cc, d in ((a, b, cc, d), (cc, d, a, b)):
                ab = (min(a, b), max(a, b))
                cd = (min(cc, d), max(cc, d))
                c2 = coloring.color_of(*ab)
                if c2 in (c3, c4):
                    continue
                if not ({ab} <= set(class_edges[c2]) <= {ab, cd}):
                    continue
                remaining = [x for x, es in class_edges.items() if es and x not in (c2, c3, c4)]
                if len(remaining) != 1:
                    continue
                c1 = remaining[0]
                special_edges = {ab, cd} | set(class_edges[c3]) | set(class_edges[c4])
                ok = all(
                    (min(u, v), max(u, v)) in special_edges
                    or coloring.color_of(u, v) == c1
                    for u, v in pair_iter(n)
                )
                if ok:
                    return FamilyDescriptor("matched-quad", n, special=(a, b, cc, d))
    return None


def _match_sporadic_5(coloring: EdgeColoring) -> FamilyDescriptor | None:
    """The exceptional 5-vertex coloring: three perfect-matching-plus-edge
    classes of size 3 and one singleton class."""
    n = coloring.n_vertices
    if n != 5 or coloring.n_colors < 4:
        return None
    class_edges = {c: coloring.color_class(c).edges() for c in range(1, coloring.n_colors + 1)}
    sizes = sorted(len(es) for es in class_edges.values() if es)
    if sizes != [1, 3, 3, 3]:
        return None
    single = next(c for c, es in class_edges.items() if len(es) == 1)
    d, e = class_edges[single][0]
    rest = [v for v in range(5) if v not in (d, e)]
    # each size-3 class must be {xy, xd', ye'} with {x,y,?} = rest pattern:
    # class i pairs the edge inside `rest` opposite to vertex i with a matching
    for c, es in class_edges.items():
        if c == single:
            continue
        touching = {v for edge in es for v in edge}
        if len(touching) != 5:
            return None
        inner = [edge for edge in es if edge[0] in rest and edge[1] in rest]
        if len(inner) != 1:
            return None
        matched = [edge for edge in es if edge not in inner]
        if {v for edge in matched for v in edge if v in (d, e)} != {d, e}:
            return None
        apex = ({*rest} - set(inner[0])).pop()
        if not all(apex in edge for edge in matched):
            return None
    return FamilyDescriptor("sporadic-5", 5, special=(d, e))


def three_part_descriptor(
    coloring: EdgeColoring, allow_empty: int
) -> FamilyDescriptor | None:
    """Find a three-part split with the fixed cross colors 1/2/3.

    Part i may only touch colors from its internal pair, so each vertex's
    allowed parts follow from the colors incident to it; the remaining
    freedom is searched exhaustively with pairwise consistency pruning.
    """
    n = coloring.n_vertices
    sup = _supports(coloring)
    if any(c > 3 for c in sup):
        return None
    # part i excluded for vertices meeting the color that avoids part i
    missing_color = {0: 2, 1: 3, 2: 1}  # part index -> color its vertices never meet
    allowed = []
    for v in range(n):
        opts = []
        for p in range(3):
            c = missing_color[p]
            if not (sup.get(c, 0) >> v) & 1:
                opts.append(p)
        if not opts:
            return None
        allowed.append(opts)

    assign = [-1] * n

    def consistent(v: int, p: int) -> bool:
        for u in range(v):
            pu = assign[u]
            c = coloring.color_of(u, v)
            if pu == p:
                if c not in _T_INTERNAL[p]:
                    return False
            else:
                if c != _T_CROSS[(min(pu, p), max(pu, p))]:
                    return False
        return True

    def solve(v: int):
        if v == n:
            empty = 3 - len(set(assign))
            return tuple(assign) if empty <= allow_empty else None
        for p in allowed[v]:
            if consistent(v, p):
                assign[v] = p
                got = solve(v + 1)
                if got:
                    return got
                assign[v] = -1
        return None

    got = solve(0)
    if got is None:
        return None
    parts = tuple(tuple(v for v in range(n) if got[v] == p) for p in range(3))
    return FamilyDescriptor(
        "t" if all(parts) else "g1", n, parts=parts
    )


def is_member(coloring: EdgeColoring, family: str, require_exact: bool = False) -> FamilyDescriptor | None:
    """A witnessing descriptor iff some partition satisfies the family clauses.

    ``require_exact`` additionally demands every declared color appear.
    """
    if require_exact and coloring.colors_used() != frozenset(
        range(1, coloring.n_colors + 1)
    ):
        return None
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
    if family == "g2":
        return _g2_descriptor(coloring)
    if family == "g3":
        return _g3_descriptor(coloring)
    raise DomainError(f"unknown family {family!r}")


def _g2_descriptor(coloring: EdgeColoring) -> FamilyDescriptor | None:
    n = coloring.n_vertices
    if coloring.n_colors < 4 or n < 3:
        return None
    two = coloring.color_class(2).edges()
    if len(two) != 1:
        return None
    for x, y in (two[0], two[0][::-1]):
        ok = True
        for u, v in pair_iter(n):
            c = coloring.color_of(u, v)
            if {u, v} == {x, y}:
                want = 2
            elif x in (u, v):
                want = 3
            elif y in (u, v):
                want = 4
            else:
                want = 1
            if c != want:
                ok = False
                break
        if ok:
            return FamilyDescriptor("g2", n, special=(x, y))
    return None


def _g3_descriptor(coloring: EdgeColoring) -> FamilyDescriptor | None:
    n = coloring.n_vertices
    if coloring.n_colors < 4 or n < 3:
        return None
    classes = {c: coloring.color_class(c).edges() for c in (2, 3, 4)}
    if any(len(es) != 1 for es in classes.values()):
        return None
    ab, bc, ac = classes[2][0], classes[3][0], classes[4][0]
    verts = set(ab) | set(bc) | set(ac)
    if len(verts) != 3:
        return None
    a = (set(ab) & set(ac)).pop() if set(ab) & set(ac) else None
    b = (set(ab) & set(bc)).pop() if set(ab) & set(bc) else None
    c = (set(bc) & set(ac)).pop() if set(bc) & set(ac) else None
    if a is None or b is None or c is None or len({a, b, c}) != 3:
        return None
    special = {tuple(sorted(ab)), tuple(sorted(bc)), tuple(sorted(ac))}
    for u, v in pair_iter(n):
        if (u, v) in special:
            continue
        if coloring.color_of(u, v) != 1:
            return None
    return FamilyDescriptor("g3", n, special=(a, b, c))


# --- the case-list rows as searchable families -----------------------------------
#
# A builder gives, for K_n with k colors, zero or more lists of allowed colors,
# one tuple per edge in pair_rank order (a 1-tuple fixes the edge).  The
# members of a row are the colorings its lists allow (the surjective ones in
# structure mode); the matcher recognizes each of them.


def _size_multisets(total: int, count: int, min_size: int):
    """Ascending size tuples of ``count`` parts, each >= min_size, summing to total."""

    def rec(remaining: int, parts_left: int, floor: int):
        if parts_left == 1:
            if remaining >= floor:
                yield (remaining,)
            return
        for first in range(floor, remaining // parts_left + 1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    yield from rec(total, count, min_size)


def _parts_allowed(n: int, count: int, min_size: int, cross, internal):
    """One list per part-size multiset: parts are consecutive vertex ranges,
    the edge between parts i < j is fixed to ``cross[(i, j)]`` and an edge
    inside part i is colored from ``internal[i]``."""
    for sizes in _size_multisets(n, count, min_size):
        where = [i for i, size in enumerate(sizes) for _ in range(size)]
        yield [
            internal[where[u]] if where[u] == where[v] else (cross[(where[u], where[v])],)
            for u, v in pair_iter(n)
        ]


def _bk_allowed(n: int, k: int):
    """k-1 parts of at least two vertices, color 1 across, part i from (1, i+2)."""
    cross = {(i, j): 1 for i in range(k - 1) for j in range(i + 1, k - 1)}
    internal = [(1, i + 2) for i in range(k - 1)]
    return _parts_allowed(n, k - 1, 2, cross, internal)


def _t_allowed(n: int, k: int):
    """Three nonempty parts with the t family's cross and internal colors (k = 3 only)."""
    if k != 3:
        return
    internal = [tuple(sorted(pair)) for pair in _T_INTERNAL]
    yield from _parts_allowed(n, 3, 1, _T_CROSS, internal)


def _color1_except(n: int, special: dict[tuple[int, int], tuple[int, ...]]) -> list[tuple[int, ...]]:
    """``special`` edges as given, every other edge fixed to color 1."""
    return [special.get(e, (1,)) for e in pair_iter(n)]


def _clique_plus_vertex_allowed(n: int, k: int):
    """All but the last vertex induce color 1; the last vertex's edges are free."""
    last = tuple(range(1, k + 1))
    yield [last if v == n - 1 else (1,) for _, v in pair_iter(n)]


def _hub_triple_allowed(n: int, k: int):
    """E2={ab}, E3={ac}, E4 = {bc} + a subset of a's other edges, on a,b,c = 0,1,2."""
    if k != 4 or n < 4:
        return
    special = {(0, 1): (2,), (0, 2): (3,), (1, 2): (4,)}
    special.update({(0, j): (1, 4) for j in range(3, n)})
    yield _color1_except(n, special)


def _matched_quad_allowed(n: int, k: int):
    """Special vertices 0..3; the color-2 class is {01} or {01, 23}."""
    if k != 4 or n < 5:
        return  # color 1 would be empty, so never an exact 4-coloring
    yield _color1_except(
        n, {(0, 1): (2,), (2, 3): (1, 2), (0, 2): (3,), (1, 3): (3,), (0, 3): (4,), (1, 2): (4,)}
    )


def _sporadic_5_allowed(n: int, k: int):
    if k != 4 or n != 5:
        return
    yield _color1_except(5, {
        (0, 2): (2,), (1, 3): (2,), (1, 4): (2,),
        (0, 1): (3,), (2, 3): (3,), (2, 4): (3,),
        (3, 4): (4,),
    })


def _fixed_allowed(build):
    """Builder for a shape with one member per size n >= 4 (k = 4 only)."""

    def allowed(n: int, k: int):
        if k == 4 and n >= 4:
            yield [(c,) for c in build(n).colors]

    return allowed


# label -> (allowed-colors builder, matcher)
SHAPES = {
    "bk": (_bk_allowed, lambda coloring: is_member(coloring, "bk")),
    "t": (_t_allowed, lambda coloring: is_member(coloring, "t")),
    CASE_CLIQUE_PLUS_VERTEX: (_clique_plus_vertex_allowed, _match_clique_plus_vertex),
    CASE_HUB_TRIPLE: (_hub_triple_allowed, _match_hub_triple),
    CASE_MATCHED_QUAD: (_matched_quad_allowed, _match_matched_quad),
    CASE_SPORADIC_5: (_sporadic_5_allowed, _match_sporadic_5),
    CASE_G2: (_fixed_allowed(g2_coloring), _g2_descriptor),
    CASE_G3: (_fixed_allowed(g3_coloring), _g3_descriptor),
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


def _color_permutations(coloring: EdgeColoring, target_k: int):
    """Colorings obtained by renumbering the used colors onto 1..target_k."""
    from itertools import permutations

    used = sorted(coloring.colors_used())
    if len(used) > target_k:
        return
    for perm in permutations(range(1, target_k + 1), len(used)):
        mapping = dict(zip(used, perm))
        yield EdgeColoring(
            coloring.n_vertices,
            target_k,
            [mapping[c] for c in coloring.colors],
        )


def classify_structure(
    coloring: EdgeColoring, rainbow_context: str
) -> tuple[str, FamilyDescriptor | None]:
    """Classify a coloring against the case list of its rainbow context.

    ``rainbow_context`` is one of ``p5``, ``k13``, ``p4plus``.  Returns the
    first matching case with its descriptor, else (``unclassified``, None).
    """
    if rainbow_context not in CONTEXTS:
        raise DomainError(f"unknown rainbow context {rainbow_context!r}")
    k_used = len(coloring.colors_used())
    _, minimum, rows = CONTEXTS[rainbow_context]
    if k_used < minimum:
        raise DomainError(
            f"context {rainbow_context} needs at least {minimum} colors in use, got {k_used}"
        )
    d = dominant_descriptor(coloring)
    if d is not None:
        return CASE_DOMINANT, d
    if rainbow_context == "p5":
        # the bk row never matches here: its members are dominant
        for label in rows:
            got = SHAPES[label][1](coloring)
            if got is not None:
                return label, got
    elif rainbow_context == "k13":
        if k_used == 3:
            for renumbered in _color_permutations(coloring, 3):
                got = three_part_descriptor(renumbered, allow_empty=1)
                if got is not None:
                    return CASE_G1, got
    else:  # p4plus
        if k_used == 4:
            for renumbered in _color_permutations(coloring, 4):
                got = _g2_descriptor(renumbered)
                if got is not None:
                    return CASE_G2, got
            for renumbered in _color_permutations(coloring, 4):
                got = _g3_descriptor(renumbered)
                if got is not None:
                    return CASE_G3, got
        got = _match_clique_plus_vertex(coloring)
        if got is not None:
            return CASE_CLIQUE_PLUS_VERTEX, got
    return UNCLASSIFIED, None


def star_forest_check(coloring: EdgeColoring, c: int) -> bool:
    """True iff color class c is a disjoint union of stars."""
    adj = coloring.adjacency(c)
    n = coloring.n_vertices
    for u in range(n):
        if adj[u].bit_count() < 2:
            continue
        # a branching vertex: all its neighbors must be leaves
        for v in _bits(adj[u]):
            if adj[v] != (1 << u):
                return False
    # exclude triangles among degree-issues: a triangle has all degrees 2
    for u in range(n):
        for v in _bits(adj[u]):
            if v > u and adj[u] & adj[v]:
                return False
    return True


def multipartite_ham(part_sizes: list[int], mode: str = "cycle") -> list[int]:
    """Hamiltonian cycle or path of the complete multipartite graph.

    Vertices are numbered consecutively by part.  Follows the inductive
    construction (peel one vertex from each largest part, recurse, splice)
    rather than a generic solver, so it doubles as a trace of that argument.

    Cycle mode needs the other parts to sum to at least the largest and a
    total of at least 3; path mode needs them to sum to exactly largest-1.
    """
    if mode not in ("cycle", "path"):
        raise DomainError("mode must be 'cycle' or 'path'")
    if not part_sizes or any(s < 0 for s in part_sizes):
        raise DomainError("part sizes must be nonnegative")
    sizes = [s for s in part_sizes if s > 0]
    if not sizes:
        raise DomainError("at least one nonempty part required")
    # vertex labels per part, in declaration order
    labels: list[list[int]] = []
    base = 0
    for s in part_sizes:
        labels.append(list(range(base, base + s)))
        base += s
    parts = [list(p) for p in labels if p]
    total = sum(len(p) for p in parts)
    largest = max(len(p) for p in parts)
    rest = total - largest
    if mode == "cycle":
        if total < 3:
            raise DomainError("a cycle needs at least 3 vertices")
        if rest < largest:
            raise DomainError("cycle mode needs the other parts to cover the largest")
        return _ham_cycle(parts)
    if rest != largest - 1:
        raise DomainError("path mode needs the other parts to sum to largest - 1")
    return _ham_path(parts)


def _ham_cycle(parts: list[list[int]]) -> list[int]:
    parts = sorted(parts, key=lambda p: (len(p), p))
    r = len(parts)
    if all(len(p) == 1 for p in parts):
        return [p[0] for p in parts]
    if r == 2:
        # the size condition forces balance here: alternate the two sides
        return [v for pair in zip(parts[0], parts[1]) for v in pair]
    maxsz = len(parts[-1])
    s = next(i for i in range(r) if len(parts[i]) == maxsz)
    peeled = [parts[i][-1] for i in range(s, r)]
    sub = [p[:-1] if i >= s else list(p) for i, p in enumerate(parts)]
    cycle = _ham_cycle([p for p in sub if p])

    loc = {}
    for i, p in enumerate(parts):
        for v in p:
            loc[v] = i

    # chain to splice in: just [v_{r-1}] when one part was peeled, else the
    # peeled clique's cycle minus one edge: v_{r-2}, v_{r-3}, ..., v_s, v_{r-1}
    if len(peeled) == 1:
        chain = peeled
        head_part = tail_part = r - 1
    else:
        chain = peeled[-2::-1] + [peeled[-1]]
        head_part = r - 2
        tail_part = r - 1
    m = len(cycle)
    for i in range(m):
        x, y = cycle[i], cycle[(i + 1) % m]
        if loc[x] != head_part and loc[y] != tail_part:
            return cycle[: i + 1] + chain + cycle[i + 1:]
    raise AssertionError("splice point must exist for r >= 3")


def _ham_path(parts: list[list[int]]) -> list[int]:
    parts = sorted(parts, key=lambda p: (len(p), p))
    total = sum(len(p) for p in parts)
    if total == 1:
        return [parts[0][0]]
    if total == 2:
        return [parts[0][0], parts[1][0]]
    big = parts[-1]
    if total == 3:
        # necessarily sizes (1, 2): largest part takes the two endpoints
        return [big[0], parts[0][0], big[1]]
    v = big[-1]
    sub = [list(p) for p in parts]
    sub[-1] = sub[-1][:-1]
    cycle = _ham_cycle([p for p in sub if p])
    bigset = set(big)
    m = len(cycle)
    for i in range(m):
        if cycle[i] not in bigset:
            # break the edge after position i and hang v off cycle[i]
            return [v] + cycle[i::-1] + cycle[:i:-1]
    raise AssertionError("some cycle vertex lies outside the largest part")
