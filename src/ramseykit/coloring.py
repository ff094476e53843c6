"""Edge colorings of complete graphs: data model, queries and ecg v1 I/O.

Vertices are labeled 0..n-1 and colors 1..k.  A coloring is total: every
unordered pair {u, v} carries exactly one color.  Colorings are immutable
after construction, so all queries are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import DomainError, ParseError

MAX_VERTICES = 32


def pair_rank(u: int, v: int, n: int) -> int:
    """Rank of the pair (u, v), u < v, in lexicographic order."""
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def pair_iter(n: int) -> Iterator[tuple[int, int]]:
    """All unordered pairs in lexicographic order."""
    for u in range(n):
        for v in range(u + 1, n):
            yield u, v


class EdgeColoring:
    """A k-edge-coloring of the complete graph on ``n_vertices`` vertices.

    ``exact_flag`` records whether the coloring is asserted to use every one
    of the k declared colors; setting it is validated at construction.
    """

    __slots__ = ("n_vertices", "n_colors", "exact_flag", "_colors", "_adj_cache")

    def __init__(
        self,
        n_vertices: int,
        n_colors: int,
        colors: Sequence[int],
        exact_flag: bool = False,
    ):
        if n_vertices < 1:
            raise DomainError("need at least one vertex")
        if n_vertices > MAX_VERTICES:
            raise DomainError(f"at most {MAX_VERTICES} vertices are supported")
        if n_colors < 1:
            raise DomainError("need at least one color")
        m = n_vertices * (n_vertices - 1) // 2
        colors = tuple(colors)
        if len(colors) != m:
            raise DomainError(f"expected {m} edge colors, got {len(colors)}")
        for c in colors:
            if not 1 <= c <= n_colors:
                raise DomainError(f"edge color {c} outside [1, {n_colors}]")
        if exact_flag:
            used = set(colors)
            missing = [c for c in range(1, n_colors + 1) if c not in used]
            if missing:
                raise DomainError(
                    f"exact_flag set but colors {missing} never appear"
                )
        self.n_vertices = n_vertices
        self.n_colors = n_colors
        self.exact_flag = exact_flag
        self._colors = colors
        self._adj_cache: dict[int, tuple[int, ...]] = {}

    @classmethod
    def from_pairs(
        cls,
        n_vertices: int,
        n_colors: int,
        assignment: Mapping[tuple[int, int], int],
        exact_flag: bool = False,
    ) -> "EdgeColoring":
        """Build from a {(u, v): color} map covering every pair."""
        m = n_vertices * (n_vertices - 1) // 2
        colors = [0] * m
        seen = 0
        for (u, v), c in assignment.items():
            if u > v:
                u, v = v, u
            if not (0 <= u < v < n_vertices):
                raise DomainError(f"invalid pair ({u}, {v})")
            r = pair_rank(u, v, n_vertices)
            if colors[r]:
                raise DomainError(f"pair ({u}, {v}) assigned twice")
            colors[r] = c
            seen += 1
        if seen != m:
            raise DomainError(f"assignment covers {seen} of {m} pairs")
        return cls(n_vertices, n_colors, colors, exact_flag)

    @classmethod
    def constant(cls, n_vertices: int, color: int, n_colors: int | None = None) -> "EdgeColoring":
        """Monochromatic coloring; declares ``n_colors`` colors (default ``color``)."""
        k = color if n_colors is None else n_colors
        m = n_vertices * (n_vertices - 1) // 2
        return cls(n_vertices, k, [color] * m, exact_flag=(k == 1 and m > 0))

    def color_of(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if not (0 <= u < v < self.n_vertices):
            raise DomainError(f"invalid pair ({u}, {v})")
        return self._colors[pair_rank(u, v, self.n_vertices)]

    @property
    def colors(self) -> tuple[int, ...]:
        """Edge colors as a flat tuple in lexicographic pair order."""
        return self._colors

    def edge_count(self) -> int:
        return len(self._colors)

    def colors_used(self) -> frozenset[int]:
        """The set of colors appearing on at least one edge."""
        return frozenset(self._colors)

    def adjacency(self, color: int) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks of the given color class."""
        if not 1 <= color <= self.n_colors:
            raise DomainError(f"color {color} outside [1, {self.n_colors}]")
        cached = self._adj_cache.get(color)
        if cached is not None:
            return cached
        n = self.n_vertices
        adj = [0] * n
        i = 0
        cols = self._colors
        for u in range(n):
            for v in range(u + 1, n):
                if cols[i] == color:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                i += 1
        result = tuple(adj)
        self._adj_cache[color] = result
        return result

    def color_class(self, color: int) -> "ColorClass":
        """The simple graph whose edges are the pairs of the given color."""
        return ColorClass(self, color, self.adjacency(color))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeColoring)
            and self.n_vertices == other.n_vertices
            and self.n_colors == other.n_colors
            and self.exact_flag == other.exact_flag
            and self._colors == other._colors
        )

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.n_colors, self.exact_flag, self._colors))

    def __repr__(self) -> str:
        return (
            f"EdgeColoring(n={self.n_vertices}, k={self.n_colors}, "
            f"exact={self.exact_flag})"
        )


@dataclass(frozen=True)
class ColorClass:
    """One color class of a coloring, viewed as a simple graph.

    The vertex set always equals the host's vertex set; ``adj[v]`` is the
    bitmask of neighbors of v inside this class.
    """

    host: EdgeColoring
    color: int
    adj: tuple[int, ...]

    @property
    def n_vertices(self) -> int:
        return self.host.n_vertices

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in pair_iter(self.n_vertices) if self.adj[u] >> v & 1]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


# --- ecg v1 serialization ---------------------------------------------------
#
# line 1: "ecg 1"
# line 2: "<n> <k> <exact:0|1>"
# then exactly C(n,2) lines "<u> <v> <c>"; '#' lines are comments.
# The writer emits edges in lexicographic order; readers accept any order.


def dumps_coloring(coloring: EdgeColoring) -> str:
    n = coloring.n_vertices
    lines = [
        "ecg 1",
        f"{n} {coloring.n_colors} {1 if coloring.exact_flag else 0}",
    ]
    cols = coloring.colors
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            lines.append(f"{u} {v} {cols[i]}")
            i += 1
    return "\n".join(lines) + "\n"


def loads_coloring(text: str) -> EdgeColoring:
    lines = text.splitlines()
    content: list[tuple[int, str]] = []
    for idx, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        content.append((idx, stripped))
    if not content:
        raise ParseError("empty file")
    line_no, header = content[0]
    if header != "ecg 1":
        raise ParseError(f"expected 'ecg 1' header, got {header!r}", line_no)
    if len(content) < 2:
        raise ParseError("missing dimension line", line_no)
    line_no, dims = content[1]
    parts = dims.split()
    if len(parts) != 3:
        raise ParseError(f"expected '<n> <k> <exact>', got {dims!r}", line_no)
    try:
        n, k, exact = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"non-integer dimension in {dims!r}", line_no) from None
    if exact not in (0, 1):
        raise ParseError(f"exact flag must be 0 or 1, got {exact}", line_no)
    if n < 1 or n > MAX_VERTICES or k < 1:
        raise ParseError(f"unsupported dimensions n={n}, k={k}", line_no)
    m = n * (n - 1) // 2
    colors = [0] * m
    seen = [False] * m
    edge_lines = content[2:]
    for line_no, entry in edge_lines:
        parts = entry.split()
        if len(parts) != 3:
            raise ParseError(f"expected '<u> <v> <c>', got {entry!r}", line_no)
        try:
            u, v, c = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer field in {entry!r}", line_no) from None
        if not 0 <= u < v < n:
            raise ParseError(f"invalid pair ({u}, {v})", line_no)
        if not 1 <= c <= k:
            raise ParseError(f"color {c} outside [1, {k}]", line_no)
        r = pair_rank(u, v, n)
        if seen[r]:
            raise ParseError(f"duplicate edge ({u}, {v})", line_no)
        seen[r] = True
        colors[r] = c
    if not all(seen):
        u, v = next(pair for pair, ok in zip(pair_iter(n), seen) if not ok)
        raise ParseError(f"missing edge ({u}, {v})")
    try:
        return EdgeColoring(n, k, colors, exact_flag=bool(exact))
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def read_coloring_file(path) -> EdgeColoring:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_coloring(fh.read())


def write_coloring_file(coloring: EdgeColoring, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_coloring(coloring))
