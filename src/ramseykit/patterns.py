"""Target patterns and their detection in edge colorings.

Every fixed-shape pattern can be found by running its placement plan:
vertices 0..order-1 in order, each with its placed pattern neighbors and
a symmetry bound, so the first map found is the lexicographically
smallest copy.  One placer runs the plan in a color class (per-color
adjacency bitmasks), one for rainbow copies (a flat color array, 0 =
undecided).  The rainbow placer reads the pair (u, v), u < v, as
``colors[base[u] + v]`` from a per-n table of row offsets
(``base[u] + v == pair_rank(u, v, n)``), and a rainbow copy needs one
distinct decided color per edge, so the rainbow finder answers "absent"
at once when fewer colors are in use than the pattern has edges.  The
longest path order comes from the classic DP over (vertex subset,
endpoint) states, and minimum-edge forests use one exact forest per
component-order partition.

The search binds one anchored test per tracked pattern and scan, built by
:func:`mono_test` or :func:`rainbow_test`, which settle the pattern kind
and its fit in K_n once.  In a color class, paths, stars, cliques, kipas
and exact linear forests have fast paths through the decided edge (a path
or kipas rim fits its last two vertices in closed form, a triangle is one
AND and a K_4 one loop, a forest tries each path through uv against the
rest); explicit patterns, rainbow patterns other than stars and the
witness finders run the placers, which give the least map.

Conventions: every graph contains a path of order 1 (a single vertex), and
the empty graph contains no linear forest with at least one edge.  The P_1
convention is this artifact's own, chosen for a total ``longest path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Sequence

from .coloring import EdgeColoring, pair_iter, pair_rank
from .errors import CapabilityError, DomainError

# Subset DP tables above this size would not fit in memory anyway.
PATH_DP_MAX_VERTICES = 24

# --- pattern specifications --------------------------------------------------


@dataclass(frozen=True)
class Path:
    """Path of the given order (number of vertices)."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("path order must be >= 1")


@dataclass(frozen=True)
class Star:
    """K_{1,n}: a center joined to ``leaves`` leaves."""

    leaves: int

    def __post_init__(self):
        if self.leaves < 1:
            raise DomainError("star needs at least one leaf")


@dataclass(frozen=True)
class Kipas:
    """The join of one vertex with a path of the given order (n+1 vertices)."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("kipas path order must be >= 1")


@dataclass(frozen=True)
class LinearForestMin:
    """Any linear forest with >= min_edges edges, components of order >= min_order."""

    min_edges: int
    min_order: int = 2

    def __post_init__(self):
        if self.min_edges < 1:
            raise DomainError("min_edges must be >= 1")
        if self.min_order not in (2, 3):
            raise DomainError("min component order must be 2 or 3")


@dataclass(frozen=True)
class LinearForestExact:
    """A vertex-disjoint union of paths with exactly the given orders."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders:
            raise DomainError("forest needs at least one component")
        if any(o < 2 for o in self.orders):
            raise DomainError("forest components must have order >= 2")
        object.__setattr__(self, "orders", tuple(sorted(self.orders, reverse=True)))


@dataclass(frozen=True)
class CompleteGraph:
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("complete graph order must be >= 1")


@dataclass(frozen=True)
class Explicit:
    """A small explicit graph given by order and edge list (<= 8 vertices)."""

    order: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 1 <= self.order <= 8:
            raise DomainError("explicit patterns support 1..8 vertices")
        norm = []
        seen = set()
        for u, v in self.edges:
            if u == v or not (0 <= u < self.order and 0 <= v < self.order):
                raise DomainError(f"invalid pattern edge ({u}, {v})")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise DomainError(f"duplicate pattern edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))


# A `|` union, not typing.Union: Union's cache would keep these classes, and
# through their methods this module, alive after a re-import.
PatternSpec = Path | Star | Kipas | LinearForestMin | LinearForestExact | CompleteGraph | Explicit

# P_4 with one extra edge hanging off an inner vertex (5 vertices).
P4_PLUS = Explicit(5, ((0, 1), (1, 2), (2, 3), (1, 4)))


def parse_pattern(text: str) -> PatternSpec:
    """Parse the CLI pattern syntax.

    ``path:N``, ``star:N``, ``kipas:N``, ``k:P``, ``p4plus``,
    ``lf:minedges=M,minorder=2|3``, ``lfx:2+2`` (orders joined by '+').
    """
    text = text.strip()
    if text == "p4plus":
        return P4_PLUS
    head, _, rest = text.partition(":")
    try:
        if head == "path":
            return Path(int(rest))
        if head == "star":
            return Star(int(rest))
        if head == "kipas":
            return Kipas(int(rest))
        if head == "k":
            return CompleteGraph(int(rest))
        if head == "lfx":
            return LinearForestExact(tuple(int(p) for p in rest.split("+")))
        if head == "lf":
            fields: dict[str, str] = {}
            for item in rest.split(","):
                key, value = item.split("=", 1)
                if key in fields:
                    raise DomainError(f"repeated lf field {key} in {text!r}")
                fields[key] = value
            min_edges, min_order = int(fields.pop("minedges")), int(fields.pop("minorder", 2))
            if fields:
                raise DomainError(f"unknown lf field(s) {', '.join(fields)} in {text!r}")
            return LinearForestMin(min_edges, min_order)
    except DomainError:
        raise  # a constructor's range check, or a repeated or leftover field above
    except (ValueError, KeyError):
        pass
    raise DomainError(f"unrecognized pattern {text!r}")


def format_pattern(p: PatternSpec) -> str:
    if isinstance(p, Path):
        return f"path:{p.order}"
    if isinstance(p, Star):
        return f"star:{p.leaves}"
    if isinstance(p, Kipas):
        return f"kipas:{p.order}"
    if isinstance(p, CompleteGraph):
        return f"k:{p.order}"
    if isinstance(p, LinearForestMin):
        return f"lf:minedges={p.min_edges},minorder={p.min_order}"
    if isinstance(p, LinearForestExact):
        return "lfx:" + "+".join(str(o) for o in sorted(p.orders))
    if isinstance(p, Explicit):
        if p == P4_PLUS:
            return "p4plus"
        return f"explicit:{p.order}:" + ";".join(f"{u}-{v}" for u, v in p.edges)
    raise DomainError(f"unknown pattern {p!r}")


def pattern_order(p: PatternSpec) -> int:
    """Number of vertices of a fixed-shape pattern."""
    if isinstance(p, Path):
        return p.order
    if isinstance(p, Star):
        return p.leaves + 1
    if isinstance(p, Kipas):
        return p.order + 1
    if isinstance(p, CompleteGraph):
        return p.order
    if isinstance(p, LinearForestExact):
        return sum(p.orders)
    if isinstance(p, Explicit):
        return p.order
    raise DomainError(f"{format_pattern(p)} has no fixed vertex count")


@lru_cache(maxsize=128)
def pattern_edges(p: PatternSpec) -> tuple[tuple[int, int], ...]:
    """Edges of a fixed-shape pattern over vertices 0..order-1.

    Paths are numbered along the path; stars put the center at 0; a kipas
    puts the hub at 0 followed by the path; exact forests number component
    by component in decreasing order of length.
    """
    if isinstance(p, Path):
        return tuple((i, i + 1) for i in range(p.order - 1))
    if isinstance(p, Star):
        return tuple((0, i) for i in range(1, p.leaves + 1))
    if isinstance(p, Kipas):
        spokes = tuple((0, i) for i in range(1, p.order + 1))
        rim = tuple((i, i + 1) for i in range(1, p.order))
        return spokes + rim
    if isinstance(p, CompleteGraph):
        return tuple((i, j) for i in range(p.order) for j in range(i + 1, p.order))
    if isinstance(p, LinearForestExact):
        edges = []
        base = 0
        for o in p.orders:
            edges.extend((base + i, base + i + 1) for i in range(o - 1))
            base += o
        return tuple(edges)
    if isinstance(p, Explicit):
        return p.edges
    raise DomainError(f"{format_pattern(p)} has no fixed edge list")


def pattern_min_edges(p: PatternSpec) -> int:
    if isinstance(p, LinearForestMin):
        return p.min_edges
    return len(pattern_edges(p))


# --- witnesses ----------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """A witness mapping pattern vertices to host vertices.

    ``color`` is the class a monochromatic copy lives in; rainbow witnesses
    carry ``color=None`` and require pairwise distinct edge colors instead.
    """

    pattern: PatternSpec
    vertex_map: tuple[int, ...]
    color: int | None = None


@dataclass(frozen=True)
class ForestWitness:
    """A linear forest in one color class, one vertex sequence per component."""

    components: tuple[tuple[int, ...], ...]
    color: int

    @property
    def total_order(self) -> int:
        return sum(len(c) for c in self.components)

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def edge_count(self) -> int:
        return self.total_order - self.component_count


def verify_embedding(coloring: EdgeColoring, emb: Embedding) -> None:
    """Re-validate a witness against the host coloring; raises on failure."""
    order = pattern_order(emb.pattern)
    vm = emb.vertex_map
    if len(vm) != order:
        raise DomainError(f"vertex map covers {len(vm)} of {order} pattern vertices")
    if len(set(vm)) != len(vm):
        raise DomainError("vertex map is not injective")
    for w in vm:
        if not 0 <= w < coloring.n_vertices:
            raise DomainError(f"host vertex {w} out of range")
    edge_colors = [coloring.color_of(vm[a], vm[b]) for a, b in pattern_edges(emb.pattern)]
    if emb.color is not None:
        bad = [c for c in edge_colors if c != emb.color]
        if bad:
            raise DomainError(f"edge colored {bad[0]} instead of {emb.color}")
    else:
        if len(set(edge_colors)) != len(edge_colors):
            raise DomainError("rainbow witness repeats a color")


def verify_forest_witness(
    coloring: EdgeColoring,
    witness: ForestWitness,
    min_component_order: int = 2,
) -> None:
    seen: set[int] = set()
    for comp in witness.components:
        if len(comp) < min_component_order:
            raise DomainError(f"component of order {len(comp)} below {min_component_order}")
        for w in comp:
            if w in seen:
                raise DomainError(f"vertex {w} reused across components")
            seen.add(w)
        for a, b in zip(comp, comp[1:]):
            if coloring.color_of(a, b) != witness.color:
                raise DomainError(f"edge ({a}, {b}) not colored {witness.color}")


# --- bitmask detection core ---------------------------------------------------
#
# These functions take (n, adj) where adj[v] is the neighbor bitmask of v in
# one color class.


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def longest_path_order(n: int, adj: Sequence[int]) -> int:
    """Maximum order of a path."""
    if n == 0:
        return 0
    if n > PATH_DP_MAX_VERTICES:
        raise CapabilityError(f"path search supports at most {PATH_DP_MAX_VERTICES} vertices")
    best = 1
    full = 1 << n
    dp = [0] * full
    for v in range(n):
        dp[1 << v] = 1 << v
    for mask in range(1, full):
        ends = dp[mask]
        if not ends:
            continue
        size = mask.bit_count()
        if size > best:
            best = size
        for v in _bits(ends):
            ext = adj[v] & ~mask
            for u in _bits(ext):
                dp[mask | (1 << u)] |= 1 << u
    return best


def _has_clique(adj: Sequence[int], mask: int, order: int) -> bool:
    """Is there a clique of the given order inside the vertex set ``mask``?"""
    if order <= 1:
        return order <= 0 or mask != 0
    while mask.bit_count() >= order:
        w = (mask & -mask).bit_length() - 1
        mask ^= 1 << w
        if _has_clique(adj, mask & adj[w], order - 1):
            return True
    return False


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


def greedy_forest_edges(n: int, adj: Sequence[int], min_order: int) -> int:
    """Cheap lower bound on the maximum linear forest: grow vertex-disjoint
    paths greedily and count the edges of components of sufficient order."""
    used = 0
    total = 0
    for s in range(n):
        if (used >> s) & 1:
            continue
        used |= 1 << s
        order = 1
        # grow from s one way, then from s the other way
        for _ in range(2):
            v = s
            while ext := adj[v] & ~used:
                v = (ext & -ext).bit_length() - 1
                used |= 1 << v
                order += 1
        if order >= min_order:
            total += order - 1
    return total


@lru_cache(maxsize=128)
def _min_forests(min_edges: int, min_order: int) -> tuple[LinearForestExact, ...]:
    """The exact forests a ``LinearForestMin(min_edges, min_order)`` test
    looks for, one per component-order partition.

    A forest with more edges can always be trimmed down to min_edges
    (order-2 components) or to min_edges/min_edges+1 (order-3 components),
    so a class holds the target exactly when it holds one of these.
    """
    edge_targets = [min_edges] if min_order == 2 else [min_edges, min_edges + 1]
    return tuple(
        LinearForestExact(tuple(size + 1 for size in sizes))
        for target in edge_targets
        for count in range(1, target // (min_order - 1) + 1)
        for sizes in _size_multisets(target, count, min_order - 1)
    )


def forest_min_edges_exists(n: int, adj: Sequence[int], min_edges: int, min_order: int) -> bool:
    """Any linear forest with >= min_edges edges and components >= min_order?

    The greedy bound first, then each of :func:`_min_forests`, placed by its
    whole-graph plan.
    """
    if greedy_forest_edges(n, adj, min_order) >= min_edges:
        return True
    return any(_mono_copy(n, adj, f) is not None for f in _min_forests(min_edges, min_order))


def max_linear_forest_edges(
    n: int,
    adj: Sequence[int],
    min_order: int,
    node_budget: int = 2_000_000,
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact maximum edge count of a linear forest, with chosen components.

    Branch and bound over edges with degree-<=2 and acyclicity pruning plus an
    edges-left upper bound.  Deterministic: edges are considered in
    lexicographic order, each taken before it is skipped, and the first
    optimum found is kept, so the components are those of the
    lexicographically least maximum edge set.
    """
    edges = [(u, v) for u, v in pair_iter(n) if adj[u] >> v & 1]
    m = len(edges)
    degree = [0] * n
    # end[v]: the far end of the path ending at v (v itself when v is alone);
    # read only while v has degree below 2
    end = list(range(n))
    best_count = 0
    best_edges: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []
    nodes = 0

    def rec(i: int):
        nonlocal best_count, best_edges, nodes
        nodes += 1
        if nodes > node_budget:
            raise CapabilityError(
                f"linear forest search exceeded {node_budget} nodes",
                partial=(best_count, tuple(best_edges)),
            )
        # with order-3 components, a lone edge (both ends of degree 1) is
        # the only component too small
        if len(chosen) > best_count and (
            min_order == 2 or all(degree[u] == 2 or degree[v] == 2 for u, v in chosen)
        ):
            best_count = len(chosen)
            best_edges = list(chosen)
        # a linear forest on n vertices has at most n - 1 edges, which also
        # covers the degree capacity: 2n - 2 len(chosen) free degree left
        if i == m or min(len(chosen) + m - i, n - 1) <= best_count:
            return
        u, v = edges[i]
        if degree[u] < 2 and degree[v] < 2 and end[u] != v:
            a, b = end[u], end[v]
            end[a], end[b] = b, a
            degree[u] += 1
            degree[v] += 1
            chosen.append((u, v))
            rec(i + 1)
            chosen.pop()
            degree[u] -= 1
            degree[v] -= 1
            end[a], end[b] = u, v
        rec(i + 1)

    rec(0)
    return best_count, _edges_to_components(best_edges)


def _edges_to_components(edge_list: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Turn a degree-<=2 acyclic edge set into canonical path sequences."""
    nbr: dict[int, list[int]] = {}
    for u, v in edge_list:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    seen: set[int] = set()
    comps = []
    for start in sorted(nbr):
        if start in seen or len(nbr[start]) != 1:
            continue
        seq = [start]
        seen.add(start)
        while True:
            nxt = [w for w in nbr[seq[-1]] if w not in seen]
            if not nxt:
                break
            seq.append(nxt[0])
            seen.add(nxt[0])
        comps.append(tuple(seq))
    comps.sort(key=lambda c: (-len(c), c))
    return tuple(comps)


# --- anchored detection ---------------------------------------------------------
#
# The builders of the anchored tests, and the fast paths behind them.  Each
# test is called with the edge uv just decided, on a graph that held no copy
# without it, so every copy it can find uses uv.


def mono_test(n: int, p: PatternSpec) -> Callable[[Sequence[int], int, int], bool] | None:
    """The anchored test of p in a color class of K_n, a function of
    (adj, u, v), or None when p does not fit in K_n.

    The test assumes that the class without its edge uv holds no copy of p,
    so every copy it holds uses uv, and gives the whole-graph answer under
    that assumption.  Search engines add one edge at a time and stop at the
    first copy, so the assumption holds after every edge they add.  Paths,
    stars, cliques and kipas are looked for only through uv (a triangle or
    a K_4 as a vertex or an edge in N(u) ∩ N(v)), exact linear
    forests through :func:`_forest_through`, and an explicit pattern by the
    whole-graph :func:`_mono_copy`.  A ``LinearForestMin``
    test runs the greedy bound on the whole class, then each of
    :func:`_min_forests` anchored on uv: the class without uv held none of
    them, so every one it now holds uses uv.
    """
    if isinstance(p, LinearForestMin):
        forests = _min_forests(p.min_edges, p.min_order)
        tests = [test for f in forests if (test := mono_test(n, f)) is not None]
        if not tests:
            return None
        min_edges, min_order = p.min_edges, p.min_order

        def forest(adj: Sequence[int], u: int, v: int) -> bool:
            return greedy_forest_edges(n, adj, min_order) >= min_edges or any(
                t(adj, u, v) for t in tests
            )

        return forest
    order = pattern_order(p)
    if order > n:
        return None
    if isinstance(p, Path):
        return partial(_grow, (1 << n) - 1, order - 2)
    if isinstance(p, LinearForestExact):  # each distinct order of uv's path, and the others
        splits = {o: p.orders[:i] + p.orders[i + 1:] for i, o in enumerate(p.orders)}
        return partial(_forest_through, (1 << n) - 1, tuple(splits.items()))
    if isinstance(p, Kipas):
        return partial(_kipas_through, p.order)
    if isinstance(p, Star):
        leaves = p.leaves
        return lambda adj, u, v: adj[u].bit_count() >= leaves or adj[v].bit_count() >= leaves
    if isinstance(p, CompleteGraph):
        rest = order - 2  # a clique on uv plus K_rest in N(u) ∩ N(v)
        if rest == 1:
            return lambda adj, u, v: adj[u] & adj[v] != 0
        if rest == 2:
            return _k4_through
        return lambda adj, u, v: _has_clique(adj, adj[u] & adj[v], rest)
    return lambda adj, u, v: _mono_copy(n, adj, p) is not None


def _grow(allowed: int, need: int, adj: Sequence[int], x: int, y: int, used: int = 0) -> bool:
    """Can the path on the vertex set ``used`` (ends x and y) take ``need``
    more vertices of ``allowed``?  ``used`` = 0 stands for the edge xy
    itself.  With x == y it asks for a path through that vertex.

    The x end walks by all but two of the missing vertices and the last two
    go to either end (:func:`_walk`, :func:`_fit_two`; with three missing,
    one step and :func:`_fit_two` in line).  With at most five missing, the
    y end is then tried the same way: every split of up to five vertices
    between the ends puts all but two at one of them.  With more missing,
    the y end takes one step and the rest is grown again.
    """
    if not used:
        used = 1 << x | 1 << y
    free = allowed & ~used
    if free.bit_count() < need:
        return False
    if need <= 1:
        return need <= 0 or (adj[x] | adj[y]) & free != 0
    if need == 2:
        return _fit_two(adj, free, 1 << x, y)
    if need == 3:  # one step from either end, then two more
        return _fit_two(adj, free, adj[x] & free, y) or (
            x != y and _fit_two(adj, free, adj[y] & free, x)
        )
    if _walk(adj, free, x, y, need - 2):
        return True
    if need <= 5:
        return x != y and _walk(adj, free, y, x, need - 2)
    ext = adj[y] & free
    while ext:
        low = ext & -ext
        ext ^= low
        if _grow(allowed, need - 1, adj, x, low.bit_length() - 1, used | low):
            return True
    return False


def _walk(adj: Sequence[int], free: int, x: int, y: int, steps: int) -> bool:
    """Can the x end of a path with ends x and y take ``steps`` vertices of
    ``free``, depth first, and the path then two more at either end?"""
    ext = adj[x] & free
    if steps == 1:
        return _fit_two(adj, free, ext, y)
    while ext:
        low = ext & -ext
        ext ^= low
        if _walk(adj, free & ~low, low.bit_length() - 1, y, steps - 1):
            return True
    return False


def _fit_two(adj: Sequence[int], free: int, ends: int, y: int) -> bool:
    """Is there a z in ``ends`` (a vertex of the path, or a free neighbour
    of its end) such that the path with ends z and y takes two more
    vertices of ``free`` - z?  Either one at each end (both ends have a
    free neighbour, and together at least two), or two at one end (a free
    neighbour of either end has a free neighbour of its own)."""
    ey = adj[y] & free
    while ends:
        low = ends & -ends
        ends ^= low
        rest = free & ~low
        ez = adj[low.bit_length() - 1] & rest
        e = ey & ~low
        if ez and e and (ez | e).bit_count() >= 2:
            return True
        both = ez | e
        while both:
            b = both & -both
            both ^= b
            if adj[b.bit_length() - 1] & rest:
                return True
    return False


def _kipas_through(order: int, adj: Sequence[int], u: int, v: int) -> bool:
    """A kipas using uv: uv is a spoke (hub u, then hub v, rim through the
    other end) or a rim edge (each hub in N(u) ∩ N(v), rim through uv).

    From order 2 on, every kipas through uv has a triangle on uv (a spoke's
    hub with a rim neighbour of its rim end, or a rim edge's hub), so
    without a common neighbour of u and v there is none.
    """
    common = adj[u] & adj[v]
    if not common:
        return order < 2
    nb = adj[u]
    if nb.bit_count() >= order and _grow(nb, order - 1, adj, v, v, 1 << v):
        return True
    nb = adj[v]
    if nb.bit_count() >= order and _grow(nb, order - 1, adj, u, u, 1 << u):
        return True
    while common:
        low = common & -common
        common ^= low
        nb = adj[low.bit_length() - 1]
        if nb.bit_count() >= order and _grow(nb, order - 2, adj, u, v):
            return True
    return False


def _k4_through(adj: Sequence[int], u: int, v: int) -> bool:
    """A K_4 on uv: an edge inside N(u) ∩ N(v), looked for from its lower end."""
    common = adj[u] & adj[v]
    while common:
        low = common & -common
        common ^= low
        if adj[low.bit_length() - 1] & common:
            return True
    return False


def _forest_through(allowed: int, splits: tuple, adj: Sequence[int], u: int, v: int) -> bool:
    """A linear forest using uv: for some (o, others) in ``splits``, uv lies
    on a path of order o, grown from both ends, and the rest of ``allowed``
    holds paths of the other orders."""
    for o, others in splits:
        left: set[int] = set()
        _path_leftovers(adj, allowed & ~(1 << u | 1 << v), o - 2, u, v, True, left)
        for rest in left:
            if _holds_forest(adj, rest, others):
                return True
    return False


def _holds_forest(adj: Sequence[int], allowed: int, orders: tuple[int, ...]) -> bool:
    """Does ``allowed`` hold disjoint paths of these orders (descending)?
    Each path of the first order is taken out in turn, and the last order
    left is grown from each edge by :func:`_grow`."""
    if not orders:
        return True
    if allowed.bit_count() < sum(orders):
        return False
    o, others = orders[0], orders[1:]
    left: set[int] = set()
    todo = allowed
    while todo:
        low = todo & -todo
        todo ^= low
        w = low.bit_length() - 1
        ext = adj[w] & todo  # each edge once, from its lower end
        while ext:
            b = ext & -ext
            ext ^= b
            if not others:
                if _grow(allowed, o - 2, adj, w, b.bit_length() - 1):
                    return True
            else:
                _path_leftovers(adj, allowed ^ low ^ b, o - 2, w, b.bit_length() - 1, True, left)
    for rest in left:
        if _holds_forest(adj, rest, others):
            return True
    return False


def _path_leftovers(
    adj: Sequence[int], free: int, need: int, x: int, y: int, turn: bool, left: set[int]
) -> None:
    """Add to ``left`` what is left of ``free`` after each way to grow the
    path with ends x and y by ``need`` vertices of ``free``: the x end
    grows first, then, while ``turn``, the y end, so each path is reached
    once."""
    if not need:
        left.add(free)
        return
    ext = adj[x] & free
    while ext:
        low = ext & -ext
        ext ^= low
        _path_leftovers(adj, free ^ low, need - 1, low.bit_length() - 1, y, turn, left)
    if turn:
        _path_leftovers(adj, free, need, y, x, False, left)


# --- placement plans -------------------------------------------------------------
#
# A plan places pattern vertices 0..order-1 one at a time, so a map is
# indexed by pattern vertex.  Step j is (the placed pattern neighbors of
# vertex j, the earlier vertex its image must exceed or -1, its pattern
# degree, and its frontier: the earlier vertices it or a later step refers
# to, or None when the mono placer need not remember the step's failures).
# Two placers run plans: one in a color class, one for rainbow copies.

_Plan = tuple[tuple[tuple[int, ...], int, int, "tuple[int, ...] | None"], ...]


@lru_cache(maxsize=128)
def _whole_plan(p: PatternSpec) -> _Plan:
    """Pattern vertices 0..order-1, in order.

    The bounds break the pattern's symmetries: a path or a forest component
    ends above where it starts, so does a kipas rim, star leaves and clique
    vertices ascend, and components of equal order start in ascending
    order.  A map that breaks a bound has a symmetric image that is
    lexicographically smaller, so the first map placed with ascending
    candidates is still the lexicographically least copy.
    """
    order = pattern_order(p)
    above = [-1] * order
    if isinstance(p, (Path, LinearForestExact)):
        orders = (p.order,) if isinstance(p, Path) else p.orders
        base = 0
        for i, o in enumerate(orders):
            if o > 1:
                above[base + o - 1] = base
            if i and orders[i - 1] == o:
                above[base] = base - o
            base += o
    elif isinstance(p, Kipas) and p.order > 1:
        above[p.order] = 1
    elif isinstance(p, (Star, CompleteGraph)):
        first = 2 if isinstance(p, Star) else 1
        for x in range(first, order):
            above[x] = x - 1
    nbrs: list[list[int]] = [[] for _ in range(order)]
    for a, b in pattern_edges(p):
        nbrs[a].append(b)
        nbrs[b].append(a)
    steps = []
    referred: set[int] = set()
    for x in range(order - 1, -1, -1):
        placed = tuple(y for y in nbrs[x] if y < x)
        referred.update(placed)
        if above[x] >= 0:
            referred.add(above[x])
        frontier = None  # the first step runs once; the last three are cheap to redo
        if 0 < x < order - 3:
            frontier = tuple(sorted(y for y in referred if y < x))
        steps.append((placed, above[x], len(nbrs[x]), frontier))
    return tuple(reversed(steps))


def _place_mono(n: int, adj: Sequence[int], plan: _Plan) -> tuple[int, ...] | None:
    """The first map the plan places inside one color class, or None.

    A vertex goes to a host vertex joined to the images of its placed
    neighbors and whose class degree is at least its pattern degree.
    Candidates are tried in ascending order.  What the rest of the plan can
    still do depends only on the used host vertices and the images of the
    placed vertices it refers to, so a step with a frontier that fails is
    remembered under those and not retried, and a long path plan visits
    each (vertex set, first, last vertex) at most once, as a subset DP
    would.
    """
    everyone = (1 << n) - 1
    shift = n.bit_length()
    mapping = [-1] * len(plan)
    failed: set[int] = set()

    def place(j: int, used: int) -> bool:
        if j == len(plan):
            return True
        placed, above, degree, frontier = plan[j]
        if frontier is not None:
            key = used
            for y in frontier:
                key = key << shift | mapping[y]
            key = key << shift | j
            if key in failed:
                return False
        cand = everyone & ~used
        for y in placed:
            cand &= adj[mapping[y]]
        if above >= 0:
            cand &= -2 << mapping[above]
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            if adj[w].bit_count() >= degree:
                mapping[j] = w
                if place(j + 1, used | low):
                    return True
        if frontier is not None:
            failed.add(key)
        return False

    return tuple(mapping) if place(0, 0) else None


def _place_rainbow(n: int, colors: Sequence[int], plan: _Plan) -> tuple[int, ...] | None:
    """The first map the plan places with its edges on decided colors
    (0 = undecided), pairwise distinct, or None.

    A vertex with no placed neighbor only goes where at least its pattern
    degree of distinct decided colors meet.  Candidates are tried in
    ascending order.
    """

    base = _bases(n)
    mapping = [-1] * len(plan)
    taken: set[int] = set()

    def place(j: int, used: int) -> bool:
        if j == len(plan):
            return True
        placed, above, degree, _ = plan[j]
        spread = 0 if placed else degree  # colors a vertex with no placed neighbor needs
        for w in range(mapping[above] + 1 if above >= 0 else 0, n):
            if used >> w & 1 or spread > 1 and _color_degree(n, colors, w) < spread:
                continue
            new: list[int] = []
            row = base[w]
            for y in placed:
                a = mapping[y]
                c = colors[base[a] + w if a < w else row + a]
                if c == 0 or c in taken or c in new:
                    break
                new.append(c)
            else:
                mapping[j] = w
                taken.update(new)
                if place(j + 1, used | 1 << w):
                    return True
                taken.difference_update(new)
        return False

    return tuple(mapping) if place(0, 0) else None


@lru_cache(maxsize=64)
def _bases(n: int) -> tuple[int, ...]:
    """Row offsets of the flat color array: base[u] + v == pair_rank(u, v, n)
    for u < v, so the placers index a pair without a call."""
    return tuple(pair_rank(u, u + 1, n) - u - 1 for u in range(n))


@lru_cache(maxsize=64)
def _incident(n: int) -> tuple:
    """Per vertex w, a getter of the colors on the n - 1 edges at w from
    the flat color array, as a tuple."""
    base = _bases(n)
    getters = []
    for w in range(n):
        ranks = [base[z] + w for z in range(w)] + list(range(base[w] + w + 1, base[w] + n))
        if len(ranks) > 1:
            getters.append(itemgetter(*ranks))
        else:  # itemgetter of one index returns the bare value, of none fails
            getters.append(lambda colors, ranks=tuple(ranks): tuple(colors[r] for r in ranks))
    return tuple(getters)


def _color_degree(n: int, colors: Sequence[int], w: int) -> int:
    """Number of distinct decided colors on the edges at w, read through
    the cached getter of w's n - 1 pairs."""
    seen = set(_incident(n)[w](colors))
    seen.discard(0)
    return len(seen)


def _mono_copy(n: int, adj: Sequence[int], p: PatternSpec) -> tuple[int, ...] | None:
    """Lexicographically least map of a copy of p in one color class."""
    plan = _whole_plan(p)
    return _place_mono(n, adj, plan) if len(plan) <= n else None


def _rainbow_copy(n: int, colors: Sequence[int], p: PatternSpec) -> tuple[int, ...] | None:
    """Lexicographically least map of a rainbow copy of p in a flat color
    array indexed by ``pair_rank``, where 0 marks an undecided edge.

    A rainbow copy needs one distinct decided color per edge, so with fewer
    colors in use than p has edges there is none to look for.
    """
    plan = _whole_plan(p)
    in_use = set(colors)
    in_use.discard(0)
    if len(plan) > n or len(in_use) < len(pattern_edges(p)):
        return None
    return _place_rainbow(n, colors, plan)


# --- public operations on colorings -------------------------------------------


def longest_mono_path(coloring: EdgeColoring, c: int) -> tuple[int, Embedding]:
    """Maximum order of a path in color class c, with a witness path."""
    adj = coloring.adjacency(c)
    order = longest_path_order(coloring.n_vertices, adj)
    witness = _mono_copy(coloring.n_vertices, adj, Path(order))
    assert witness is not None
    return order, Embedding(Path(order), witness, color=c)


def has_mono_pattern(coloring: EdgeColoring, c: int, p: PatternSpec) -> Embedding | None:
    """The lexicographically least embedding of p into color class c, or None.

    A kipas is present when some hub vertex has a path of the required order
    inside its class-neighborhood (hub, spokes and path edges all colored c).
    """
    if isinstance(p, LinearForestMin):
        raise CapabilityError(
            "minimum-edge forests have no fixed vertex set; use max_linear_forest"
        )
    w = _mono_copy(coloring.n_vertices, coloring.adjacency(c), p)
    return None if w is None else Embedding(p, w, color=c)


def max_linear_forest(
    coloring: EdgeColoring, c: int, min_component_order: int = 2
) -> tuple[int, ForestWitness]:
    """Maximum edges over linear forests in class c, components >= min order."""
    n = coloring.n_vertices
    if n > 20:
        raise CapabilityError("linear forest search supports at most 20 vertices")
    if min_component_order not in (2, 3):
        raise DomainError("min component order must be 2 or 3")
    adj = coloring.adjacency(c)
    count, comps = max_linear_forest_edges(n, adj, min_component_order)
    return count, ForestWitness(comps, color=c)


def has_rainbow(coloring: EdgeColoring, p: PatternSpec) -> Embedding | None:
    """The lexicographically least embedding of p whose edges carry pairwise
    distinct colors, or None."""
    if pattern_order(p) > 5:
        raise CapabilityError("rainbow detection supports patterns on at most 5 vertices")
    w = _rainbow_copy(coloring.n_vertices, coloring.colors, p)
    return None if w is None else Embedding(p, w, color=None)


def rainbow_test(n: int, p: PatternSpec) -> Callable[[Sequence[int], int, int], bool] | None:
    """The anchored rainbow test of p in K_n, a function of (colors, u, v)
    for a decided edge uv, or None when p does not fit in K_n.

    As in :func:`mono_test`, the test assumes that no rainbow copy avoids
    uv.  A star is looked for only through uv: centred at u or v, by its
    number of distinct decided colors, u first.  Every other pattern runs
    the whole-graph :func:`_rainbow_copy`, whose answer is the anchored
    one under that assumption.
    """
    if pattern_order(p) > n:
        return None
    if isinstance(p, Star):
        leaves = p.leaves
        return lambda colors, u, v: (
            _color_degree(n, colors, u) >= leaves or _color_degree(n, colors, v) >= leaves
        )
    return lambda colors, u, v: _rainbow_copy(n, colors, p) is not None
