"""Exhaustive and family-restricted search engines.

All engines share one pruning idea: edges are decided one at a time in
lexicographic order, and a branch is cut as soon as a tracked pattern is
present among the decided edges alone, since every completion then contains
it too.  Surviving leaves are exactly the colorings avoiding every tracked
pattern.  Counterexamples are therefore the lexicographically least in
enumeration order (edges lexicographic, colors ascending).

Every engine is one call of :func:`_scan`, which takes the allowed colors
of each edge: all k for a full enumeration, a single color for an edge a
family or shape fixes, a pair inside a part of the bk or t family.  The
family engines (``compute_bk``, ``compute_t`` and structure mode) share one
loop, :func:`_rows_counterexample`, over rows of ``structure.SHAPES``, each
row a builder of allowed-color lists; ``structure.CONTEXTS`` names the rows
of each rainbow context's case list.

Node budgets abort with a partial result attached to a
:class:`CapabilityError` rather than running unbounded.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .coloring import EdgeColoring, pair_iter
from .errors import BudgetExceeded, CapabilityError, DomainError
from .formulas import UNBOUNDED, ValueOrInterval, exact, interval
from .patterns import (
    Kipas,
    LinearForestMin,
    PatternSpec,
    forest_min_edges_exists,
    format_pattern,
    mono_present,
    pattern_edges,
    pattern_min_edges,
    pattern_order,
    rainbow_present,
)
from .structure import CONTEXTS, SHAPES

#: color key marking a rainbow (rather than monochromatic) tracked pattern
RAINBOW = 0

DEFAULT_NODE_BUDGET = 20_000_000


@dataclass
class SearchReport:
    """Result of a threshold search."""

    quantity: str
    value: ValueOrInterval
    extremal_witness: EdgeColoring | None
    nodes_explored: int
    wall_time: float
    notes: tuple[str, ...] = ()


@dataclass
class CheckReport:
    """Result of a universal ("every coloring contains ...") check."""

    quantity: str
    holds: bool
    counterexample: EdgeColoring | None
    nodes_explored: int
    wall_time: float
    notes: tuple[str, ...] = ()


class _Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def spend(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.limit:
            raise BudgetExceeded(f"search exceeded {self.limit} nodes")


def _abort_cause(err: CapabilityError) -> str:
    return "budget" if isinstance(err, BudgetExceeded) else "a capability limit"


def _scan(
    n: int,
    k: int,
    allowed: list[tuple[int, ...]],
    tracked: list[tuple[int, PatternSpec]],
    surjective: bool,
    budget: _Budget,
) -> EdgeColoring | None:
    """First coloring of K_n, edge i colored from ``allowed[i]``, avoiding every
    tracked pattern.

    ``allowed`` holds one color tuple per edge in ``pair_rank`` order.  An
    edge with a single allowed color is fixed: fixed edges are placed up
    front, and the fixed prefix costs one node per distinct fixed color, in
    ascending order up to the first color it is pruned on.  The free edges
    are then decided in rank order, one node per color tried.  A tracked
    pair (color, pattern) prunes a branch once the pattern shows up in that
    color class of the decided edges; the RAINBOW key tracks rainbow copies
    instead.  Only copies through the newest edge are looked for, since the
    branch was free of every tracked pattern before it.  A rainbow copy
    needs one color per edge, so a rainbow pattern with more edges than k
    is dropped, and its test is skipped while fewer color classes are
    nonempty than it has edges.  ``surjective``
    keeps only colorings using all k colors; the result is flagged exact
    when it uses them all.
    """
    edges = list(pair_iter(n))
    ecolor = [0] * len(edges)
    adj: list[list[int]] = [[0] * n for _ in range(k + 1)]
    class_edges = [0] * (k + 1)
    mono: list[list[tuple[int, PatternSpec]]] = [[] for _ in range(k + 1)]
    rainbow: list[tuple[int, PatternSpec]] = []
    for key, p in tracked:
        if key == RAINBOW:
            size = len(pattern_edges(p))
            if size <= k:
                rainbow.append((size, p))
            continue
        # a forest with m edges needs at least m+1 vertices
        order = p.min_edges + 1 if isinstance(p, LinearForestMin) else pattern_order(p)
        if order <= n and 1 <= key <= k:  # larger patterns never appear
            mono[key].append((pattern_min_edges(p), p))

    def put(i: int, c: int) -> None:
        u, v = edges[i]
        ecolor[i] = c
        adj[c][u] |= 1 << v
        adj[c][v] |= 1 << u
        class_edges[c] += 1

    # Every test is anchored on the edge just colored: the coloring before
    # it held no tracked pattern, or its branch would have been cut.
    def mono_hit(c: int, edge: tuple[int, int]) -> bool:
        for min_edges, p in mono[c]:
            if class_edges[c] >= min_edges and mono_present(n, adj[c], p, edge):
                return True
        return False

    def rainbow_hit(edge: tuple[int, int]) -> bool:
        if not rainbow:
            return False
        in_use = k + 1 - class_edges.count(0)  # class_edges[0] stays 0
        return any(
            in_use >= size and rainbow_present(n, ecolor, p, edge) for size, p in rainbow
        )

    # Fixed edges go in one at a time; a color class stops being tested once
    # it holds a pattern, and every test stops once a rainbow copy shows up.
    free = []
    hit: set[int] = set()
    rainbow_seen = False
    for i, choices in enumerate(allowed):
        if len(choices) > 1:
            free.append(i)
            continue
        c = choices[0]
        put(i, c)
        if rainbow_seen:
            continue
        if c not in hit and mono_hit(c, edges[i]):
            hit.add(c)
        rainbow_seen = rainbow_hit(edges[i])
    for c in sorted({choices[0] for choices in allowed if len(choices) == 1}):
        budget.spend()
        if rainbow_seen or c in hit:
            return None
    # patterns present in the empty graph (single-vertex paths) hold everywhere
    if any(min_edges == 0 for specs in mono for min_edges, _ in specs):
        return None

    def dfs(j: int) -> EdgeColoring | None:
        if j == len(free):
            exact = 0 not in class_edges[1:]
            if surjective and not exact:
                return None
            return EdgeColoring(n, k, ecolor, exact_flag=exact)
        i = free[j]
        edge = u, v = edges[i]
        bu, bv = 1 << u, 1 << v
        for c in allowed[i]:
            budget.spend()
            ecolor[i] = c
            row = adj[c]
            row[u] |= bv
            row[v] |= bu
            class_edges[c] += 1
            if not (mono_hit(c, edge) or rainbow_hit(edge)):
                got = dfs(j + 1)
                if got is not None:
                    return got
            ecolor[i] = 0
            row[u] &= ~bv
            row[v] &= ~bu
            class_edges[c] -= 1
        return None

    return dfs(0)


def _rows_counterexample(
    labels, n: int, k: int, target: PatternSpec, surjective: bool, budget: _Budget
) -> EdgeColoring | None:
    """First member of K_n avoiding the target in every color, scanning the
    ``structure.SHAPES`` rows in ``labels`` in turn, each allowed-colors list
    of a row in the order its builder gives them."""
    tracked = [(c, target) for c in range(1, k + 1)]
    for label in labels:
        for allowed in SHAPES[label][0](n, k):
            got = _scan(n, k, allowed, tracked, surjective, budget)
            if got is not None:
                return got
    return None


def _threshold_scan(
    quantity: str,
    sizes: range,
    counterexample,
    node_budget: int,
    beyond: str,
) -> SearchReport:
    """Smallest size in ``sizes`` where ``counterexample(n, budget)`` finds none.

    The extremal witness is the counterexample on the size before.  Past the
    last size the value is an interval with the caveat ``beyond``; a budget
    abort carries the interval reached so far as its partial result.
    """
    start = time.monotonic()
    budget = _Budget(node_budget)
    witness: EdgeColoring | None = None

    def report(value: ValueOrInterval) -> SearchReport:
        return SearchReport(quantity, value, witness, budget.nodes, time.monotonic() - start)

    try:
        for n in sizes:
            cex = counterexample(n, budget)
            if cex is None:
                return report(exact(n))
            witness = cex
    except CapabilityError as err:
        lo = witness.n_vertices + 1 if witness is not None else sizes.start
        value = interval(lo, UNBOUNDED, caveat=f"aborted on {_abort_cause(err)}")
        raise type(err)(str(err), partial=report(value)) from None
    return report(interval(sizes.stop, UNBOUNDED, caveat=beyond))


def brute_force_ramsey(
    red: PatternSpec,
    blue: PatternSpec,
    max_n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchReport:
    """Smallest N <= max_n forcing a red or blue copy in every 2-coloring.

    Full enumeration with pruning; the extremal witness is the counterexample
    found on N-1 vertices.  Returns the interval [max_n+1, unbounded] when
    max_n does not suffice.
    """
    if max_n > 9:
        raise DomainError("full 2-color enumeration supports max_n <= 9")
    for p in (red, blue):
        if not isinstance(p, LinearForestMin) and pattern_order(p) > max_n:
            raise DomainError(
                f"pattern {format_pattern(p)} does not fit in K_{max_n}"
            )
    tracked = [(1, red), (2, blue)]
    return _threshold_scan(
        f"ramsey({format_pattern(red)}, {format_pattern(blue)})",
        range(1, max_n + 1),
        lambda n, budget: _scan(n, 2, [(1, 2)] * (n * (n - 1) // 2), tracked, False, budget),
        node_budget,
        f"not forced by K_{max_n}",
    )


def compute_bk(
    k: int,
    target: PatternSpec,
    max_n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchReport:
    """Smallest N <= max_n such that every bk member of K_N has a mono target.

    The scan starts at 2(k-1), the least size where the family is nonempty.
    """
    if k < 3:
        raise DomainError("need k >= 3")
    if max_n > 14:
        raise DomainError("family-restricted enumeration supports max_n <= 14")
    return _threshold_scan(
        f"bk(k={k}, {format_pattern(target)})",
        range(2 * (k - 1), max_n + 1),
        lambda n, budget: _rows_counterexample(("bk",), n, k, target, False, budget),
        node_budget,
        f"not forced by size {max_n}",
    )


def compute_t(
    target: PatternSpec,
    max_n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchReport:
    """Smallest N <= max_n such that every t member of K_N has a mono target."""
    if max_n > 12:
        raise DomainError("t-family enumeration supports max_n <= 12")
    return _threshold_scan(
        f"t({format_pattern(target)})",
        range(3, max_n + 1),
        lambda n, budget: _rows_counterexample(("t",), n, 3, target, False, budget),
        node_budget,
        f"not forced by size {max_n}",
    )


def randomized_kipas_forest_refutation(
    n: int, a: int, samples: int, seed: int
) -> EdgeColoring | None:
    """Sample 2-colorings of K_{n+a} hunting one with no red kipas of path
    order n and no blue order-3 linear forest with >= 2a edges.

    A sampling search, not a proof: the instances this targets sit beyond
    the exhaustive engines, so absence of a counterexample is only evidence.
    """
    size = n + a
    m = size * (size - 1) // 2
    edges = list(pair_iter(size))
    rng = random.Random(seed)
    need = 2 * a
    for _ in range(samples):
        bits = rng.getrandbits(m)
        blue = [0] * size
        for i, (u, v) in enumerate(edges):
            if (bits >> i) & 1:
                blue[u] |= 1 << v
                blue[v] |= 1 << u
        if forest_min_edges_exists(size, blue, need, 3):
            continue
        red = [((1 << size) - 1) & ~(1 << v) & ~blue[v] for v in range(size)]
        if mono_present(size, red, Kipas(n)):
            continue
        colors = [2 if (bits >> i) & 1 else 1 for i in range(m)]
        return EdgeColoring(size, 2, colors, exact_flag=len(set(colors)) == 2)
    return None


def _check(quantity: str, find, node_budget: int, notes: tuple[str, ...] = ()) -> CheckReport:
    """Run ``find(budget)`` for a counterexample; it holds when none exists.

    A budget abort carries a partial report that draws no conclusion.
    """
    start = time.monotonic()
    budget = _Budget(node_budget)
    try:
        cex = find(budget)
    except CapabilityError as err:
        raise type(err)(
            str(err),
            partial=CheckReport(
                quantity, False, None, budget.nodes, time.monotonic() - start,
                notes=notes + (f"aborted on {_abort_cause(err)}; no conclusion",),
            ),
        ) from None
    return CheckReport(
        quantity, cex is None, cex, budget.nodes, time.monotonic() - start, notes=notes
    )


def universal_check(
    n: int,
    forbidden: list[tuple[int, PatternSpec]],
    required: list[tuple[int, PatternSpec]],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CheckReport:
    """Does every 2-coloring of K_n avoiding ``forbidden`` contain a ``required``?

    Both lists prune identically (a coloring with a forbidden pattern is
    outside the hypothesis, one with a required pattern satisfies the claim),
    so a surviving leaf is exactly a counterexample.
    """
    if n > 11:
        raise DomainError("universal checks support at most 11 vertices")
    desc = "universal(n={}, avoid {}, need {})".format(
        n,
        ",".join(f"{c}:{format_pattern(p)}" for c, p in forbidden),
        ",".join(f"{c}:{format_pattern(p)}" for c, p in required),
    )
    tracked = list(forbidden) + list(required)
    allowed = [(1, 2)] * (n * (n - 1) // 2)
    return _check(
        desc, lambda budget: _scan(n, 2, allowed, tracked, False, budget), node_budget
    )


# --- desk-scale Gallai-Ramsey verification -------------------------------------


def gr_desk_verify(
    k: int,
    rainbow: PatternSpec,
    target: PatternSpec,
    n: int,
    mode: str = "structure",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CheckReport:
    """Verify that every exact k-coloring of K_n has a rainbow copy of
    ``rainbow`` or a monochromatic ``target``.

    Full mode enumerates all surjective colorings.  Structure mode instead
    runs over the families that rainbow-free colorings are known to form
    (the certificate is relative to that case list): the rows that
    ``structure.CONTEXTS`` lists for the rainbow pattern, in order.
    """
    quantity = (
        f"gr(k={k}, rainbow {format_pattern(rainbow)} : {format_pattern(target)}, n={n}, {mode})"
    )
    if mode == "full":
        feasible = k ** (n * (n - 1) // 2)
        if feasible > 10 ** 9:
            raise CapabilityError(
                f"full enumeration of {k}^{n * (n - 1) // 2} colorings is out of budget"
            )
        tracked = [(RAINBOW, rainbow)] + [(c, target) for c in range(1, k + 1)]
        allowed = [tuple(range(1, k + 1))] * (n * (n - 1) // 2)
        return _check(
            quantity, lambda budget: _scan(n, k, allowed, tracked, True, budget), node_budget
        )
    if mode != "structure":
        raise DomainError("mode must be 'full' or 'structure'")
    context = next((name for name, (p, _, _) in CONTEXTS.items() if p == rainbow), None)
    if context is None:
        raise CapabilityError(
            f"no structure case list for rainbow {format_pattern(rainbow)};"
            " use full enumeration"
        )
    _, least_k, labels = CONTEXTS[context]
    if k < least_k:
        raise DomainError(f"context {context} needs k >= {least_k}")
    return _check(
        quantity,
        lambda budget: _rows_counterexample(labels, n, k, target, True, budget),
        node_budget,
        notes=(f"relative to the rainbow-free case list for {format_pattern(rainbow)}",),
    )
