"""Target patterns and their detection in edge colorings.

Monochromatic detection operates on per-color adjacency bitmasks; the
longest-path routines use the classic DP over (vertex subset, endpoint)
states.  Witness-returning operations break ties by the lexicographically
smallest vertex sequence so outputs are reproducible.

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
# one color class.  They answer yes/no questions only; witness extraction is
# layered on top.


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def longest_path_order(n: int, adj: Sequence[int], stop_at: int | None = None) -> int:
    """Maximum order of a path; optionally stops early once >= stop_at."""
    if n == 0:
        return 0
    if n > PATH_DP_MAX_VERTICES:
        raise CapabilityError(f"path search supports at most {PATH_DP_MAX_VERTICES} vertices")
    best = 1
    if stop_at is not None and stop_at <= 1:
        return best
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
            if stop_at is not None and best >= stop_at:
                return best
        for v in _bits(ends):
            ext = adj[v] & ~mask
            for u in _bits(ext):
                dp[mask | (1 << u)] |= 1 << u
    return best


def path_exists(n: int, adj: Sequence[int], order: int) -> bool:
    if order <= 1:
        return n >= order
    if order > n:
        return False
    return longest_path_order(n, adj, stop_at=order) >= order


def _longest_from(n: int, adj: Sequence[int], start: int, allowed: int, stop_at: int) -> int:
    """Longest path starting at ``start`` inside the ``allowed`` vertex set."""
    best = 1
    if stop_at <= 1:
        return best
    full = 1 << n
    start_bit = 1 << start
    dp = {start_bit: start_bit}
    frontier = [start_bit]
    while frontier:
        new_frontier = []
        for mask in frontier:
            ends = dp[mask]
            for v in _bits(ends):
                ext = adj[v] & allowed & ~mask
                for u in _bits(ext):
                    nm = mask | (1 << u)
                    prev = dp.get(nm, 0)
                    if not prev:
                        new_frontier.append(nm)
                    if not prev & (1 << u):
                        dp[nm] = prev | (1 << u)
                        size = nm.bit_count()
                        if size > best:
                            best = size
                            if best >= stop_at:
                                return best
        frontier = new_frontier
    return best


def find_path_witness(n: int, adj: Sequence[int], order: int) -> tuple[int, ...] | None:
    """Lexicographically smallest vertex sequence of a path of exactly ``order``."""
    if order < 1 or order > n:
        return None
    if order == 1:
        return (0,)
    allowed = (1 << n) - 1
    seq: list[int] = []
    prev = None
    remaining = order
    while remaining:
        candidates = range(n) if prev is None else _bits(adj[prev] & allowed)
        chosen = None
        for c in candidates:
            if not (allowed >> c) & 1:
                continue
            if remaining == 1 or _longest_from(n, adj, c, allowed, remaining) >= remaining:
                chosen = c
                break
        if chosen is None:
            if prev is None:
                return None
            # greedy prefix can always be extended: feasibility was checked
            raise AssertionError("path reconstruction lost feasibility")
        seq.append(chosen)
        allowed &= ~(1 << chosen)
        prev = chosen
        remaining -= 1
    return tuple(seq)


def star_max_degree(n: int, adj: Sequence[int]) -> int:
    return max((adj[v].bit_count() for v in range(n)), default=0)


def kipas_exists(n: int, adj: Sequence[int], order: int) -> bool:
    """Is there a hub whose class-neighborhood holds a path of the given order?"""
    if order + 1 > n:
        return False
    for v in range(n):
        nb = adj[v]
        if nb.bit_count() < order:
            continue
        verts = list(_bits(nb))
        idx = {w: i for i, w in enumerate(verts)}
        sub = [0] * len(verts)
        for i, w in enumerate(verts):
            row = adj[w] & nb
            for u in _bits(row):
                sub[i] |= 1 << idx[u]
        if path_exists(len(verts), sub, order):
            return True
    return False


def find_kipas_witness(n: int, adj: Sequence[int], order: int) -> tuple[int, ...] | None:
    """Hub followed by the path, lexicographically smallest (hub first)."""
    if order + 1 > n:
        return None
    for v in range(n):
        nb = adj[v]
        if nb.bit_count() < order:
            continue
        verts = list(_bits(nb))
        idx = {w: i for i, w in enumerate(verts)}
        sub = [0] * len(verts)
        for i, w in enumerate(verts):
            row = adj[w] & nb
            for u in _bits(row):
                sub[i] |= 1 << idx[u]
        path = find_path_witness(len(verts), sub, order)
        if path is not None:
            return (v,) + tuple(verts[i] for i in path)
    return None


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


def find_clique_witness(n: int, adj: Sequence[int], order: int) -> tuple[int, ...] | None:
    if order > n:
        return None
    if order == 0:
        return ()

    def extend(chosen: list[int], common: int, start: int):
        if len(chosen) == order:
            return tuple(chosen)
        for v in _bits(common >> start << start):
            chosen.append(v)
            got = extend(chosen, common & adj[v], v + 1)
            if got:
                return got
            chosen.pop()
        return None

    if order == 1:
        return (0,)
    return extend([], (1 << n) - 1, 0)


def find_explicit_witness(
    n: int,
    adj: Sequence[int],
    pattern_edges_: Sequence[tuple[int, int]],
    order: int,
) -> tuple[int, ...] | None:
    """Smallest injective map embedding the pattern edges into the class."""
    if order > n:
        return None
    nbrs: list[list[int]] = [[] for _ in range(order)]
    for a, b in pattern_edges_:
        nbrs[a].append(b)
        nbrs[b].append(a)
    mapping = [-1] * order
    used = 0

    def place(i: int):
        nonlocal used
        if i == order:
            return tuple(mapping)
        must_match = [mapping[w] for w in nbrs[i] if w < i]
        for hv in range(n):
            if (used >> hv) & 1:
                continue
            if any(not (adj[hv] >> m) & 1 for m in must_match):
                continue
            mapping[i] = hv
            used |= 1 << hv
            got = place(i + 1)
            if got:
                return got
            used &= ~(1 << hv)
            mapping[i] = -1
        return None

    return place(0)


def find_forest_exact_witness(
    n: int,
    adj: Sequence[int],
    orders: Sequence[int],
) -> tuple[tuple[int, ...], ...] | None:
    """Vertex-disjoint paths with exactly the given orders (sorted descending)."""
    orders = sorted(orders, reverse=True)
    if sum(orders) > n:
        return None
    components: list[tuple[int, ...]] = []

    def path_search(order: int, allowed: int, min_start: int):
        # enumerate paths of the given order inside allowed, starts ascending
        for s in range(min_start, n):
            if not (allowed >> s) & 1:
                continue
            yield from _paths_from(s, order, allowed)

    def _paths_from(start: int, order: int, allowed: int):
        seq = [start]
        used = [1 << start]

        def rec():
            if len(seq) == order:
                yield tuple(seq)
                return
            for u in _bits(adj[seq[-1]] & allowed & ~used[0]):
                seq.append(u)
                used[0] |= 1 << u
                yield from rec()
                used[0] &= ~(1 << u)
                seq.pop()

        yield from rec()

    def solve(i: int, allowed: int):
        if i == len(orders):
            return tuple(components)
        order = orders[i]
        # identical component orders are forced to start at increasing vertices
        min_start = 0
        if i > 0 and orders[i - 1] == order:
            min_start = components[-1][0] + 1
        for seq in path_search(order, allowed, min_start):
            # canonical component orientation: smaller endpoint first
            if order > 1 and seq[0] > seq[-1]:
                continue
            mask = 0
            for w in seq:
                mask |= 1 << w
            components.append(seq)
            got = solve(i + 1, allowed & ~mask)
            if got:
                return got
            components.pop()
        return None

    return solve(0, (1 << n) - 1)


def forest_exact_exists(n: int, adj: Sequence[int], orders: Sequence[int]) -> bool:
    return find_forest_exact_witness(n, adj, orders) is not None


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
    """
    if greedy_forest_edges(n, adj, min_order) >= min_edges:
        return True
    edge_targets = [min_edges] if min_order == 2 else [min_edges, min_edges + 1]
    for target in edge_targets:
        for part in _partitions(target, min_order - 1):
            orders = [p + 1 for p in part]
            if sum(orders) > n:
                continue
            if forest_exact_exists(n, adj, orders):
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
    copy, so the assumption holds after every edge they add.
    ``LinearForestMin`` has no anchored form and is always tested on the
    whole graph.
    """
    if isinstance(p, LinearForestMin):
        return forest_min_edges_exists(n, adj, p.min_edges, p.min_order)
    if edge is None:
        if isinstance(p, Path):
            return path_exists(n, adj, p.order)
        if isinstance(p, Star):
            return star_max_degree(n, adj) >= p.leaves
        if isinstance(p, Kipas):
            return kipas_exists(n, adj, p.order)
        if isinstance(p, CompleteGraph):
            return _has_clique(adj, (1 << n) - 1, p.order)
        if isinstance(p, LinearForestExact):
            return forest_exact_exists(n, adj, p.orders)
        if isinstance(p, Explicit):
            return find_explicit_witness(n, adj, p.edges, p.order) is not None
        raise CapabilityError(f"unsupported pattern {p!r}")
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
    if isinstance(p, (LinearForestExact, Explicit)):
        return _mono_embed_through(n, adj, p, u, v)
    raise CapabilityError(f"unsupported pattern {p!r}")


# --- anchored detection ---------------------------------------------------------
#
# The helpers behind the anchored tests.  Each looks only for copies that
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


# (vertex, its pattern neighbors placed before it), in placement order
_Plan = tuple[tuple[int, tuple[int, ...]], ...]


@lru_cache(maxsize=64)
def _anchor_plans(p: PatternSpec) -> tuple[tuple[int, int, _Plan], ...]:
    """The ways to lay a pattern edge on a host edge uv: (a, b, plan) sends
    a to u and b to v, and the plan lists the other pattern vertices in
    placement order, each with its pattern neighbors placed before it.

    Every edge is tried in both directions, except on paths and linear
    forests: reversing a component maps one direction onto the other, and
    components of equal order are interchangeable, so one direction of
    each edge of one component per order covers every copy.  The placement
    order is breadth first from {a, b}, then component by component, so
    every vertex of the anchored component has a placed neighbor.
    """
    order = pattern_order(p)
    edges = pattern_edges(p)
    nbrs: list[list[int]] = [[] for _ in range(order)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
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
        plan = tuple((x, tuple(y for y in nbrs[x] if y in seq[:i])) for i, x in enumerate(seq))
        plans.append((a, b, plan[2:]))
    return tuple(plans)


def _mono_embed_through(n: int, adj: Sequence[int], p: PatternSpec, u: int, v: int) -> bool:
    """Lay some pattern edge on uv and place the other vertices."""
    plans = _anchor_plans(p)
    if not plans:  # no edges: present whenever it fits
        return True
    everyone = (1 << n) - 1
    mapping = [-1] * pattern_order(p)

    def place(plan, j: int, used: int) -> bool:
        if j == len(plan):
            return True
        x, placed = plan[j]
        cand = everyone & ~used
        for y in placed:
            cand &= adj[mapping[y]]
        while cand:
            low = cand & -cand
            cand ^= low
            mapping[x] = low.bit_length() - 1
            if place(plan, j + 1, used | low):
                return True
        return False

    for a, b, plan in plans:
        mapping[a], mapping[b] = u, v
        if place(plan, 0, 1 << u | 1 << v):
            return True
    return False


# --- public operations on colorings -------------------------------------------


def longest_mono_path(coloring: EdgeColoring, c: int) -> tuple[int, Embedding]:
    """Maximum order of a path in color class c, with a witness path."""
    adj = coloring.adjacency(c)
    n = coloring.n_vertices
    order = longest_path_order(n, adj)
    witness = find_path_witness(n, adj, order)
    assert witness is not None
    return order, Embedding(Path(order), witness, color=c)


def has_mono_pattern(coloring: EdgeColoring, c: int, p: PatternSpec) -> Embedding | None:
    """An embedding of p into color class c, or None.

    A kipas is present when some hub vertex has a path of the required order
    inside its class-neighborhood (hub, spokes and path edges all colored c).
    """
    if isinstance(p, LinearForestMin):
        raise CapabilityError(
            "minimum-edge forests have no fixed vertex set; use max_linear_forest"
        )
    adj = coloring.adjacency(c)
    n = coloring.n_vertices
    if isinstance(p, Path):
        w = find_path_witness(n, adj, p.order)
    elif isinstance(p, Star):
        w = _find_star_witness(n, adj, p.leaves)
    elif isinstance(p, Kipas):
        w = find_kipas_witness(n, adj, p.order)
    elif isinstance(p, CompleteGraph):
        w = find_clique_witness(n, adj, p.order)
    elif isinstance(p, LinearForestExact):
        comps = find_forest_exact_witness(n, adj, p.orders)
        w = None if comps is None else tuple(v for comp in comps for v in comp)
    elif isinstance(p, Explicit):
        w = find_explicit_witness(n, adj, p.edges, p.order)
    else:
        raise CapabilityError(f"unsupported pattern {p!r}")
    if w is None:
        return None
    return Embedding(p, tuple(w), color=c)


def _find_star_witness(n: int, adj: Sequence[int], leaves: int) -> tuple[int, ...] | None:
    for v in range(n):
        if adj[v].bit_count() >= leaves:
            chosen = []
            for u in _bits(adj[v]):
                chosen.append(u)
                if len(chosen) == leaves:
                    return (v, *chosen)
    return None


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
    """An embedding of p whose edges carry pairwise distinct colors, or None."""
    if pattern_order(p) > 5:
        raise CapabilityError("rainbow detection supports patterns on at most 5 vertices")
    w = rainbow_map(coloring.n_vertices, coloring.colors, p)
    return None if w is None else Embedding(p, w, color=None)


def rainbow_map(n: int, colors: Sequence[int], p: PatternSpec) -> tuple[int, ...] | None:
    """Smallest vertex map of a rainbow copy of p in a flat color array.

    ``colors`` is indexed by ``pair_rank``; a 0 marks an undecided edge,
    which no copy may use, so search engines run it on partial colorings.
    """
    if isinstance(p, Star):
        return _rainbow_star_map(n, colors, p.leaves)
    order = pattern_order(p)
    if order > n:
        return None
    nbrs: list[list[int]] = [[] for _ in range(order)]
    for a, b in pattern_edges(p):
        nbrs[a].append(b)
        nbrs[b].append(a)
    mapping = [-1] * order
    used = 0
    taken: set[int] = set()

    def place(i: int):
        nonlocal used
        if i == order:
            return tuple(mapping)
        for hv in range(n):
            if (used >> hv) & 1:
                continue
            new_cols = []
            ok = True
            for w in nbrs[i]:
                if w < i:
                    a = mapping[w]
                    c = colors[pair_rank(a, hv, n) if a < hv else pair_rank(hv, a, n)]
                    if c == 0 or c in taken or c in new_cols:
                        ok = False
                        break
                    new_cols.append(c)
            if not ok:
                continue
            mapping[i] = hv
            used |= 1 << hv
            taken.update(new_cols)
            got = place(i + 1)
            if got:
                return got
            taken.difference_update(new_cols)
            used &= ~(1 << hv)
            mapping[i] = -1
        return None

    return place(0)


def rainbow_present(
    n: int, colors: Sequence[int], p: PatternSpec, edge: tuple[int, int] | None = None
) -> bool:
    """Is there a rainbow copy of p in a flat color array (0 = undecided)?

    With ``edge`` = (u, v), a decided edge, the test is anchored as in
    :func:`mono_present`: it assumes no rainbow copy avoids uv and looks
    only for copies through it.
    """
    if edge is None:
        return rainbow_map(n, colors, p) is not None
    u, v = edge

    def color(a: int, b: int) -> int:
        return colors[pair_rank(a, b, n) if a < b else pair_rank(b, a, n)]

    if isinstance(p, Star):
        return any(
            len({color(w, x) for x in range(n) if x != w} - {0}) >= p.leaves for w in (u, v)
        )
    if pattern_order(p) > n:
        return False
    plans = _anchor_plans(p)
    if not plans:  # no edges: present whenever it fits
        return True
    mapping = [-1] * pattern_order(p)
    taken = {color(u, v)}

    def place(plan, j: int, used: int) -> bool:
        if j == len(plan):
            return True
        x, placed = plan[j]
        for w in range(n):
            if used >> w & 1:
                continue
            new: list[int] = []
            for y in placed:
                c = color(mapping[y], w)
                if c == 0 or c in taken or c in new:
                    break
                new.append(c)
            else:
                mapping[x] = w
                taken.update(new)
                if place(plan, j + 1, used | 1 << w):
                    return True
                taken.difference_update(new)
        return False

    for a, b, plan in plans:
        mapping[a], mapping[b] = u, v
        if place(plan, 0, 1 << u | 1 << v):
            return True
    return False


def _rainbow_star_map(n: int, colors: Sequence[int], leaves: int) -> tuple[int, ...] | None:
    """First center (then its first leaves) meeting ``leaves`` distinct decided colors."""
    for v in range(n):
        first: dict[int, int] = {}  # color -> first leaf carrying it
        for u in range(n):
            if u == v:
                continue
            c = colors[pair_rank(u, v, n) if u < v else pair_rank(v, u, n)]
            if c and c not in first:
                first[c] = u
                if len(first) == leaves:
                    return (v, *first.values())
    return None
