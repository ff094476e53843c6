"""Closed-form evaluators for the Ramsey-type quantities the toolkit checks.

Every function returns a :class:`ValueOrInterval`.  Results stated only as
inequalities come back as genuine intervals, never a silently chosen
endpoint, and parameter ranges not covered by a known formula raise
:class:`DomainError` instead of extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

#: Sentinel for "no finite upper bound is known".
UNBOUNDED = 1 << 62


@dataclass(frozen=True)
class ValueOrInterval:
    """An exact integer or a closed integer interval [lo, hi]."""

    lo: int
    hi: int
    caveat: str | None = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.exact:
            raise DomainError(f"interval [{self.lo}, {self.hi}] is not exact")
        return self.lo

    def __contains__(self, v: int) -> bool:
        return self.lo <= v <= self.hi

    def __str__(self) -> str:
        if self.exact:
            return f"exact {self.lo}"
        hi = "unbounded" if self.hi >= UNBOUNDED else str(self.hi)
        return f"interval {self.lo} {hi}"


def exact(v: int, caveat: str | None = None) -> ValueOrInterval:
    return ValueOrInterval(v, v, caveat)


def interval(lo: int, hi: int, caveat: str | None = None) -> ValueOrInterval:
    return ValueOrInterval(lo, hi, caveat)


# --- two-color Ramsey numbers -------------------------------------------------


def r_path_path(n: int, m: int) -> ValueOrInterval:
    """r(P_n, P_m) = n + floor(m/2) - 1 for 2 <= m <= n."""
    if not 2 <= m <= n:
        raise DomainError("need 2 <= m <= n (order the arguments)")
    return exact(n + m // 2 - 1)


def r_linear_forests(size1: int, odd1: int, size2: int, odd2: int) -> ValueOrInterval:
    """Ramsey number of two forests of paths, all components of order >= 2.

    ``size`` is the total order, ``odd`` the number of odd-order components:
    max over both orderings of |L| + floor((|L'| - j')/2) - 1.
    """
    for size, odd in ((size1, odd1), (size2, odd2)):
        if size < 2 or odd < 0:
            raise DomainError("forest orders must be >= 2, odd counts >= 0")
        if odd > size:
            raise DomainError(f"more odd components ({odd}) than vertices ({size})")
        if 3 * odd > size and odd > 0:
            raise DomainError(f"{odd} odd components need order >= {3 * odd}, got {size}")
        if (size - odd) % 2:
            raise DomainError(f"order {size} and {odd} odd components have impossible parity")
    return exact(
        max(
            size1 + (size2 - odd2) // 2 - 1,
            size2 + (size1 - odd1) // 2 - 1,
        )
    )


def r_path_star(m: int, n: int) -> ValueOrInterval:
    """r(P_m, K_{1,n}): only the envelope [m+n-2, m+n-1] is safe to state.

    The published branch condition is vacuous (it holds for every n >= 2),
    so the result is the two-branch interval.  Exhaustive search puts the
    value below the envelope at (m, n) = (5,3), (6,3), (6,4), (7,3), (7,4),
    (7,5), (8,3) and (8,4), so the envelope is stated only where search
    confirms it: n = 2, or m <= n + 1.
    """
    if m < 2 or n < 2:
        raise DomainError("need m, n >= 2")
    if n >= 3 and m >= n + 2:
        raise DomainError(
            f"no formula covers m={m}, n={n}: for n >= 3 and m >= n+2 the envelope"
            " [m+n-2, m+n-1] misses the value found by exhaustive search"
        )
    return interval(
        m + n - 2,
        m + n - 1,
        caveat="branch condition defective; both branch values returned",
    )


def r_star_star(n: int, m: int) -> ValueOrInterval:
    """r(K_{1,n}, K_{1,m}) = m+n-1 when both even, else m+n."""
    if m < 2 or n < 2:
        raise DomainError("need m, n >= 2")
    if m % 2 == 0 and n % 2 == 0:
        return exact(m + n - 1)
    return exact(m + n)


def r_path_kipas(n: int, m: int) -> ValueOrInterval:
    """r(P_n, kipas of path order m).

    Exact for m <= 2n-1; for n >= 4 and m >= 2n only [2n-1, m+n-1] is known
    (the lower endpoint is the trivial path bound 2n-1).
    """
    if m < 2 or n < 2:
        raise DomainError("need m, n >= 2")
    if m <= 2 * n - 1:
        return exact(max(2 * n - 1, -(3 * m // -2) - 1, 2 * (m // 2) + n - 2))
    if n >= 4:
        return interval(2 * n - 1, m + n - 1)
    raise DomainError(f"no formula covers n={n}, m={m} (n < 4 with m > 2n-1)")


def r_star_kipas(n: int, m: int) -> ValueOrInterval:
    """r(K_{1,n}, kipas of path order m); exact for all m, n >= 2.

    For m < 2n the value is 2n + floor(m/2) - 1 when n and floor(m/2) are
    both even, else 2n + floor(m/2).
    """
    if m < 2 or n < 2:
        raise DomainError("need m, n >= 2")
    if m >= 2 * n:
        return exact(m + n - 1 if m % 2 == 0 and n % 2 == 0 else m + n)
    half = m // 2
    return exact(
        2 * n + half - 1 if n % 2 == 0 and half % 2 == 0 else 2 * n + half,
        caveat="m < 2n: parity condition corrected against exhaustive search",
    )


def r_kipas_linear_family(n: int, m: int, min_component: int = 2) -> ValueOrInterval:
    """Ramsey number of a kipas versus all linear forests of size >= m.

    n + ceil(m/2), for 2 <= m <= n/2 (components of order >= 2) or
    6 <= m <= n/2 (components of order >= 3).
    """
    if min_component == 2:
        if not (2 <= m and 2 * m <= n):
            raise DomainError("need 2 <= m <= n/2")
    elif min_component == 3:
        if not (6 <= m and 2 * m <= n):
            raise DomainError("need 6 <= m <= n/2 for order-3 components")
    else:
        raise DomainError("min component order must be 2 or 3")
    return exact(n + -(m // -2))


# --- family thresholds --------------------------------------------------------


def bk_path(k: int, n: int) -> ValueOrInterval:
    """Least size forcing a monochromatic P_n in every bk member."""
    if k < 3:
        raise DomainError("need k >= 3")
    if n < 2 * (k - 1):
        raise DomainError("need n >= 2(k-1)")
    if n <= 4 * (k - 2) + 1:
        return exact(n)
    return exact(-((3 * n - 3) // -2))


def t_path(n: int) -> ValueOrInterval:
    """Least size forcing a monochromatic P_n in every t member."""
    if n < 3:
        raise DomainError("need n >= 3")
    if n % 2 == 0:
        return exact(3 * n // 2 - 1)
    return exact((3 * n - 1) // 2)


def b3_kipas(n: int) -> ValueOrInterval:
    """Least size forcing a monochromatic kipas of path order n in b3 members.

    Exact floor(5n/2) for odd n >= 5 and for n in {2, 3}; for even n >= 5
    only [floor(5n/2)-1, floor(5n/2)] is known; n = 4 is not covered.
    """
    if n in (2, 3):
        return exact(5 * n // 2)
    if n < 5:
        raise DomainError("no value known for n = 4 (and n < 2 is undefined)")
    if n % 2 == 1:
        return exact(5 * n // 2)
    return interval(5 * n // 2 - 1, 5 * n // 2)


def t_kipas_upper(n: int) -> ValueOrInterval:
    """Only an upper bound is known for the t-family kipas threshold."""
    if n < 5:
        raise DomainError("need n >= 5")
    hi = 5 * n // 2 if n % 2 == 1 else 5 * n // 2 - 1
    return interval(1, hi, caveat="upper bound only; no matching lower bound is known")


# --- Gallai-Ramsey numbers ----------------------------------------------------


def _band(k: int, n: int) -> bool:
    """True in the small band 2(k-1) <= n <= 4(k-2)+1."""
    return 2 * (k - 1) <= n <= 4 * (k - 2) + 1


def _require_band_domain(k: int, n: int) -> None:
    if k < 4:
        raise DomainError("need k >= 4")
    if n < k:
        raise DomainError("need n >= k")
    if n < 2 * (k - 1):
        raise DomainError(f"the strip k <= n < 2(k-1) has no stated formula (k={k}, n={n})")


def gr_p5_path(k: int, n: int) -> ValueOrInterval:
    """gr_k(P_5 : P_n) for n >= k >= 4, n >= 2(k-1)."""
    _require_band_domain(k, n)
    if _band(k, n):
        return exact(n + 1)
    return exact(-((3 * n - 3) // -2))


def gr_p4plus_path(k: int, n: int) -> ValueOrInterval:
    """gr_k(P_4^+ : P_n) for n >= k >= 4, n >= 2(k-1)."""
    _require_band_domain(k, n)
    if _band(k, n):
        return exact(n + 2 if k == 4 else n)
    return exact(-((3 * n - 3) // -2))


def gr_k13_path(k: int, n: int) -> ValueOrInterval:
    """gr_k(K_{1,3} : P_n); k >= 4 needs n >= 2(k-1), k = 3 needs n >= 4."""
    if k == 3:
        if n < 4:
            raise DomainError("need n >= 4 when k = 3")
        return t_path(n)
    if k < 3:
        raise DomainError("need k >= 3")
    if n < 2 * (k - 1):
        raise DomainError("need n >= 2(k-1) when k >= 4")
    if _band(k, n):
        return exact(n)
    return exact(-((3 * n - 3) // -2))


def gr3_k13_kipas(n: int) -> ValueOrInterval:
    """gr_3(K_{1,3} : kipas of path order n); same values as b3_kipas."""
    return b3_kipas(n)


FORMULAS = {
    "path-path": (r_path_path, ("n", "m")),
    "linear-forests": (r_linear_forests, ("size1", "odd1", "size2", "odd2")),
    "path-star": (r_path_star, ("m", "n")),
    "star-star": (r_star_star, ("n", "m")),
    "path-kipas": (r_path_kipas, ("n", "m")),
    "star-kipas": (r_star_kipas, ("n", "m")),
    "kipas-linear": (r_kipas_linear_family, ("n", "m", "min_component")),
    "bk-path": (bk_path, ("k", "n")),
    "t-path": (t_path, ("n",)),
    "b3-kipas": (b3_kipas, ("n",)),
    "t-kipas-upper": (t_kipas_upper, ("n",)),
    "gr-p5-path": (gr_p5_path, ("k", "n")),
    "gr-p4plus-path": (gr_p4plus_path, ("k", "n")),
    "gr-k13-path": (gr_k13_path, ("k", "n")),
    "gr3-k13-kipas": (gr3_k13_kipas, ("n",)),
}
