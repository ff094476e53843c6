"""Target patterns and their detection in edge colorings.

Every fixed-shape pattern is found by running a placement plan: its
vertices in order, each with its placed pattern neighbors.  A whole-graph
plan places vertices 0..order-1 with symmetry bounds, so the first map
found is the lexicographically smallest copy; anchored plans start from a
pattern edge laid on the host edge the search just decided.  One placer
runs plans in a color class (per-color adjacency bitmasks), one runs them
for rainbow copies (a flat color array, 0 = undecided).  The rainbow
placer reads the pair (u, v), u < v, as ``colors[base[u] + v]`` from a
per-n table of row offsets (``base[u] + v == pair_rank(u, v, n)``), and a
rainbow copy needs one distinct decided color per edge, so the
whole-graph rainbow tests answer "absent" at once when fewer colors are in
use than the pattern has edges.  Paths, stars, cliques and kipas also have
anchored fast paths, the longest path order comes from the classic DP over
(vertex subset, endpoint) states, and minimum-edge forests use one plan
per component-order partition.

Conventions: every graph contains a path of order 1 (a single vertex), and
the empty graph contains no linear forest with at least one edge.  The P_1
convention is this artifact's own, chosen for a total ``longest path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

from .coloring import EdgeColoring, pair_rank
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


PatternSpec = Union[Path, Star, Kipas, LinearForestMin, LinearForestExact, CompleteGraph, Explicit]

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
            fields = dict(item.split("=", 1) for item in rest.split(","))
            return LinearForestMin(
                int(fields.pop("minedges")),
                int(fields.pop("minorder", 2)),
            )
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
    if order <= 0:
        return True
    while mask.bit_count() >= order:
        w = (mask & -mask).bit_length() - 1
        mask ^= 1 << w
        if _has_clique(adj, mask & adj[w], order - 1):
            return True
    return False


def _partitions(total: int, min_part: int):
    """Partitions of ``total`` into parts >= min_part, descending tuples."""

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), min_part - 1, -1):
            if remaining - first and remaining - first < min_part:
                continue
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(total, total)


def greedy_forest_edges(n: int, adj: Sequence[int], min_order: int) -> int:
    """Cheap lower bound on the maximum linear forest: grow vertex-disjoint
    paths greedily and count the edges of components of sufficient order."""
    used = 0
    total = 0
    for s in range(n):
        if (used >> s) & 1:
            continue
        comp = [s]
        used |= 1 << s
        for endpoint in (0, -1):
            while True:
                ext = adj[comp[endpoint]] & ~used
                if not ext:
                    break
                v = (ext & -ext).bit_length() - 1
                used |= 1 << v
                if endpoint == 0:
                    comp.insert(0, v)
                else:
                    comp.append(v)
        if len(comp) >= min_order:
            total += len(comp) - 1
    return total


def forest_min_edges_exists(n: int, adj: Sequence[int], min_edges: int, min_order: int) -> bool:
    """Any linear forest with >= min_edges edges and components >= min_order?

    A forest with more edges can always be trimmed down to min_edges (order-2
    components) or to min_edges/min_edges+1 (order-3 components), so checking
    the exact edge counts via component-order partitions is equivalent.
    Each partition is one exact forest, placed by its whole-graph plan.
    """
    if greedy_forest_edges(n, adj, min_order) >= min_edges:
        return True
    edge_targets = [min_edges] if min_order == 2 else [min_edges, min_edges + 1]
    for target in edge_targets:
        for part in _partitions(target, min_order - 1):
            forest = LinearForestExact(tuple(p + 1 for p in part))
            if _mono_copy(n, adj, forest) is not None:
                return True
    return False


def max_linear_forest_edges(
    n: int,
    adj: Sequence[int],
    min_order: int,
    node_budget: int = 2_000_000,
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact maximum edge count of a linear forest, with chosen components.

    Branch and bound over edges with degree-<=2 and acyclicity pruning plus a
    degree-capacity upper bound.  Deterministic: edges are considered in
    lexicographic order and the first optimum found is kept.
    """
    edges = []
    for u in range(n):
        row = adj[u] >> (u + 1)
        v = u + 1
        while row:
            if row & 1:
                edges.append((u, v))
            row >>= 1
            v += 1
    m = len(edges)
    degree = [0] * n
    # union-find without path compression so single unions undo cleanly
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    best_count = 0
    best_edges: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []
    nodes = 0

    def components_ok() -> bool:
        if min_order == 2:
            return True
        # no component may be a single edge
        by_root: dict[int, int] = {}
        for u, v in chosen:
            r = find(u)
            by_root[r] = by_root.get(r, 0) + 1
        return all(cnt >= 2 for cnt in by_root.values())

    def bound(i: int) -> int:
        # a linear forest on n vertices has at most n - 1 edges
        cap = sum(2 - degree[v] for v in range(n) if degree[v] < 2)
        return min(len(chosen) + min(m - i, cap // 2), n - 1)

    def rec(i: int):
        nonlocal best_count, best_edges, nodes
        nodes += 1
        if nodes > node_budget:
            raise CapabilityError(
                f"linear forest search exceeded {node_budget} nodes",
                partial=(best_count, tuple(best_edges)),
            )
        if len(chosen) > best_count and components_ok():
            best_count = len(chosen)
            best_edges = list(chosen)
        if i == m or bound(i) <= best_count:
            return
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if degree[u] < 2 and degree[v] < 2 and ru != rv:
            parent[ru] = rv
            degree[u] += 1
            degree[v] += 1
            chosen.append((u, v))
            rec(i + 1)
            chosen.pop()
            degree[u] -= 1
            degree[v] -= 1
            parent[ru] = ru
        rec(i + 1)

    rec(0)
    comps = _edges_to_components(best_edges)
    return best_count, comps


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
        if seq[0] > seq[-1]:
            seq.reverse()
        comps.append(tuple(seq))
    comps.sort(key=lambda c: (-len(c), c))
    return tuple(comps)


def mono_present(
    n: int, adj: Sequence[int], p: PatternSpec, edge: tuple[int, int] | None = None
) -> bool:
    """Presence test used inside search loops.

    With ``edge`` = (u, v), an edge of the class, the test is anchored: it
    assumes the class without uv holds no copy of p and looks only for
    copies through uv, so under that assumption it gives the whole-graph
    answer.  Search engines add one edge at a time and stop at the first
    copy, so the assumption holds after every edge they add.  Without
    ``edge`` it runs the pattern's whole-graph plan.  ``LinearForestMin``
    has no anchored form and is always tested on the whole graph.
    """
    if isinstance(p, LinearForestMin):
        return forest_min_edges_exists(n, adj, p.min_edges, p.min_order)
    if edge is None:
        return _mono_copy(n, adj, p) is not None
    if pattern_order(p) > n:
        return False
    u, v = edge
    if isinstance(p, Path):
        return _grow(adj, (1 << n) - 1, u, v, 1 << u | 1 << v, 2, p.order)
    if isinstance(p, Star):
        return max(adj[u].bit_count(), adj[v].bit_count()) >= p.leaves
    if isinstance(p, Kipas):
        return _kipas_through(adj, p.order, u, v)
    if isinstance(p, CompleteGraph):
        return _has_clique(adj, adj[u] & adj[v], p.order - 2)
    plans = _anchor_plans(p)
    if not plans:  # no edges: present whenever it fits
        return True
    mapping = [u, v] + [-1] * (pattern_order(p) - 2)
    return _place_mono(n, adj, plans, mapping, 1 << u | 1 << v)


# --- anchored detection ---------------------------------------------------------
#
# The fast paths behind the anchored tests.  Each looks only for copies that
# use the edge uv.


def _grow(
    adj: Sequence[int], allowed: int, x: int, y: int, used: int, size: int, order: int
) -> bool:
    """Can the path on the vertex set ``used`` (``size`` vertices, ends x and
    y) grow inside ``allowed`` to ``order`` vertices?

    Grows the y end depth first and, after each step, tries to finish from
    the x end.  With x == y it asks for a path through that vertex.
    """
    if (allowed & ~used).bit_count() < order - size:
        return False
    if _grow_end(adj, allowed, x, used, order - size):
        return True
    ext = adj[y] & allowed & ~used
    while ext:
        low = ext & -ext
        ext ^= low
        if _grow(adj, allowed, x, low.bit_length() - 1, used | low, size + 1, order):
            return True
    return False


def _grow_end(adj: Sequence[int], allowed: int, x: int, used: int, need: int) -> bool:
    """Is there a path of ``need`` more vertices from x inside ``allowed`` - ``used``?"""
    if need <= 0:
        return True
    ext = adj[x] & allowed & ~used
    if need == 1:
        return ext != 0
    while ext:
        low = ext & -ext
        ext ^= low
        if _grow_end(adj, allowed, low.bit_length() - 1, used | low, need - 1):
            return True
    return False


def _kipas_through(adj: Sequence[int], order: int, u: int, v: int) -> bool:
    """A kipas using uv: uv is a spoke (hub u or v, rim through the other
    end) or a rim edge (hub in N(u) ∩ N(v), rim through uv)."""
    for hub, rim in ((u, v), (v, u)):
        nb = adj[hub]
        if nb.bit_count() >= order and _grow(adj, nb, rim, rim, 1 << rim, 1, order):
            return True
    for hub in _bits(adj[u] & adj[v]):
        nb = adj[hub]
        if nb.bit_count() >= order and _grow(adj, nb, u, v, 1 << u | 1 << v, 2, order):
            return True
    return False


# --- placement plans -------------------------------------------------------------
#
# A plan places pattern vertices one at a time; a map is indexed by
# placement position.  Each step is (its position, the positions of its
# pattern neighbors placed before it, the earlier position its image must
# exceed or -1, its pattern degree, and its frontier: the earlier positions
# it or a later step refers to, or None when the mono placer need not
# remember the step's failures).  A whole-graph plan places vertices
# 0..order-1 in order, so positions are pattern vertices.  An anchored plan
# starts with a pattern edge at positions 0 and 1, already on the host edge
# uv.  Two placers run plans: one in a color class, one for rainbow copies.

_Plan = tuple[tuple[int, tuple[int, ...], int, int, "tuple[int, ...] | None"], ...]


def _neighbors(p: PatternSpec) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(pattern_order(p))]
    for a, b in pattern_edges(p):
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def _steps(seq: Sequence[int], nbrs: list[list[int]], above: Sequence[int], first: int) -> _Plan:
    """The plan placing the pattern vertices seq[first:] after seq[:first]."""
    pos = {x: i for i, x in enumerate(seq)}
    steps = []
    referred: set[int] = set()
    for i in range(len(seq) - 1, first - 1, -1):
        x = seq[i]
        placed = tuple(pos[y] for y in nbrs[x] if pos[y] < i)
        bound = pos[above[x]] if above[x] >= 0 else -1
        referred.update(placed)
        if bound >= 0:
            referred.add(bound)
        frontier = None  # the first step runs once; the last three are cheap to redo
        if first < i < len(seq) - 3:
            frontier = tuple(sorted(y for y in referred if y < i))
        steps.append((i, placed, bound, len(nbrs[x]), frontier))
    return tuple(reversed(steps))


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
    return _steps(range(order), _neighbors(p), above, 0)


@lru_cache(maxsize=128)
def _anchor_plans(p: PatternSpec) -> tuple[_Plan, ...]:
    """The ways to lay a pattern edge ab on a host edge uv, a at position 0
    and b at position 1, each with the plan placing the other vertices.

    Every edge is tried in both directions, except on paths and linear
    forests: reversing a component maps one direction onto the other, and
    components of equal order are interchangeable, so one direction of
    each edge of one component per order covers every copy.  The placement
    order is breadth first from {a, b}, then component by component, so
    every vertex of the anchored component has a placed neighbor.  Anchored
    plans carry no symmetry bounds.
    """
    order = pattern_order(p)
    edges = pattern_edges(p)
    nbrs = _neighbors(p)
    if isinstance(p, (Path, LinearForestExact)):
        anchors = []
        base = 0
        orders = (p.order,) if isinstance(p, Path) else p.orders
        for i, o in enumerate(orders):
            if o not in orders[:i]:
                anchors.extend((base + j, base + j + 1) for j in range(o - 1))
            base += o
    else:
        anchors = list(edges) + [(b, a) for a, b in edges]

    def breadth_first(seq: list[int]) -> None:
        for x in seq:  # the list grows while it is read
            for y in nbrs[x]:
                if y not in seq:
                    seq.append(y)

    plans = []
    for a, b in anchors:
        seq = [a, b]
        breadth_first(seq)
        for root in range(order):
            if root not in seq:
                seq.append(root)
                breadth_first(seq)
        plans.append(_steps(seq, nbrs, [-1] * order, 2))
    return tuple(plans)


def _place_mono(
    n: int, adj: Sequence[int], plans: Sequence[_Plan], mapping: list[int], used: int
) -> bool:
    """Complete ``mapping`` by one of the plans inside one color class,
    trying them in turn from the same placed positions (host set ``used``).

    A vertex goes to a host vertex joined to the images of its placed
    neighbors and whose class degree is at least its pattern degree.
    Candidates are tried in ascending order; on success ``mapping`` holds
    the first map found.  What the rest of a plan can still do depends only
    on the used host vertices and the images of the placed vertices it
    refers to, so a step with a frontier that fails is remembered under
    those and not retried, and a long path plan visits each (vertex set,
    first, last vertex) at most once, as a subset DP would.
    """
    everyone = (1 << n) - 1
    shift = n.bit_length()

    def place(j: int, used: int) -> bool:
        if j == len(plan):
            return True
        x, placed, above, degree, frontier = plan[j]
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
                mapping[x] = w
                if place(j + 1, used | low):
                    return True
        if frontier is not None:
            failed.add(key)
        return False

    for plan in plans:
        failed: set[int] = set()
        if place(0, used):
            return True
    return False


def _place_rainbow(
    n: int, colors: Sequence[int], plans: Sequence[_Plan], mapping: list[int], used: int,
    taken: set[int],
) -> bool:
    """Complete ``mapping`` by one of the plans so that the new edges carry
    decided colors (0 = undecided), pairwise distinct and outside ``taken``,
    trying the plans in turn from the same placed positions (host set
    ``used``).

    A vertex with no placed neighbor only goes where at least its pattern
    degree of distinct decided colors meet.  Candidates are tried in
    ascending order; on success ``mapping`` holds the first map found.
    """

    base = _bases(n)

    def place(j: int, used: int) -> bool:
        if j == len(plan):
            return True
        x, placed, above, degree, _ = plan[j]
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
                mapping[x] = w
                taken.update(new)
                if place(j + 1, used | 1 << w):
                    return True
                taken.difference_update(new)
        return False

    for plan in plans:
        if place(0, used):
            return True
    return False


@lru_cache(maxsize=64)
def _bases(n: int) -> tuple[int, ...]:
    """Row offsets of the flat color array: base[u] + v == pair_rank(u, v, n)
    for u < v, so the placers index a pair without a call."""
    return tuple(pair_rank(u, u + 1, n) - u - 1 for u in range(n))


def _color_degree(n: int, colors: Sequence[int], w: int) -> int:
    """Number of distinct decided colors on the edges at w."""
    base = _bases(n)
    seen = set(colors[base[w] + w + 1 : base[w] + n])  # the pairs (w, z), z > w
    seen.update(colors[base[z] + w] for z in range(w))
    seen.discard(0)
    return len(seen)


def _mono_copy(n: int, adj: Sequence[int], p: PatternSpec) -> tuple[int, ...] | None:
    """Lexicographically least map of a copy of p in one color class."""
    mapping = [-1] * pattern_order(p)
    if len(mapping) <= n and _place_mono(n, adj, (_whole_plan(p),), mapping, 0):
        return tuple(mapping)
    return None


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
    mapping = [-1] * len(plan)
    if _place_rainbow(n, colors, (plan,), mapping, 0, set()):
        return tuple(mapping)
    return None


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


def rainbow_present(
    n: int, colors: Sequence[int], p: PatternSpec, edge: tuple[int, int] | None = None
) -> bool:
    """Is there a rainbow copy of p in a flat color array (0 = undecided)?

    With ``edge`` = (u, v), a decided edge, the test is anchored as in
    :func:`mono_present`: it assumes no rainbow copy avoids uv and looks
    only for copies through it.  The whole-graph test answers "absent" at
    once when fewer colors are in use than p has edges; the anchored test
    leaves that count to its caller, which keeps it per color class.
    """
    if edge is None:
        return _rainbow_copy(n, colors, p) is not None
    u, v = edge
    if isinstance(p, Star):
        return max(_color_degree(n, colors, u), _color_degree(n, colors, v)) >= p.leaves
    if pattern_order(p) > n:
        return False
    plans = _anchor_plans(p)
    if not plans:  # no edges: present whenever it fits
        return True
    mapping = [u, v] + [-1] * (pattern_order(p) - 2)
    taken = {colors[pair_rank(min(u, v), max(u, v), n)]}
    return _place_rainbow(n, colors, plans, mapping, 1 << u | 1 << v, taken)
