"""The acceptance suite: one callable per exit criterion.

Each criterion returns (passed, detail); the runner adds timing and renders
one line per criterion.  The same functions back the ``selftest`` CLI
subcommand and the pytest acceptance tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable

from . import constructions, formulas, naive, patterns, search, structure
from .coloring import EdgeColoring
from .patterns import (
    Kipas,
    LinearForestExact,
    LinearForestMin,
    Path,
    Star,
    CompleteGraph,
    P4_PLUS,
)


@dataclass
class CriterionResult:
    ident: str
    description: str
    passed: bool
    detail: str
    seconds: float


def _crit_ramsey_paths(seed: int) -> tuple[bool, str]:
    cases = [((3, 3), 3), ((4, 3), 4), ((4, 4), 5), ((5, 4), 6)]
    details = []
    for (a, b), want in cases:
        t0 = time.monotonic()
        rep = search.brute_force_ramsey(Path(a), Path(b), 6)
        dt = time.monotonic() - t0
        ok = rep.value.exact and rep.value.value == want and dt < 10.0
        details.append(f"r(P{a},P{b})={rep.value.lo} [{dt:.2f}s]")
        if not ok:
            return False, "; ".join(details)
    return True, "; ".join(details)


def _crit_kipas_linear(seed: int) -> tuple[bool, str]:
    t0 = time.monotonic()
    rep = search.brute_force_ramsey(Kipas(4), LinearForestMin(2, 2), 6)
    dt = time.monotonic() - t0
    if not (rep.value.exact and rep.value.value == 5 and dt < 10.0):
        return False, f"search gave {rep.value} in {dt:.2f}s"
    w = constructions.witness_kipas_linear(4, 2)
    if patterns.has_mono_pattern(w, 1, Kipas(4)) is not None:
        return False, "witness contains a red kipas"
    edges, _ = patterns.max_linear_forest(w, 2)
    if edges >= 2:
        return False, f"witness has a blue forest with {edges} edges"
    return True, f"r=5 [{dt:.2f}s]; witness on K_4 target-free"


def _crit_forced_blue_forests(seed: int) -> tuple[bool, str]:
    t0 = time.monotonic()
    a1 = search.universal_check(
        6, [(1, Kipas(5))], [(2, LinearForestExact((2, 2))), (2, Path(3))]
    )
    a2 = search.universal_check(
        7,
        [(1, Kipas(5))],
        [(2, LinearForestExact((3, 3))), (2, Path(5)), (2, LinearForestExact((2, 4)))],
    )
    dt = time.monotonic() - t0
    ok = a1.holds and a2.holds and dt < 60.0
    return ok, f"K_6 holds={a1.holds}, K_7 holds={a2.holds} [{dt:.2f}s combined]"


def _crit_t_thresholds(seed: int) -> tuple[bool, str]:
    details = []
    for order in (3, 4, 5):
        t0 = time.monotonic()
        rep = search.compute_t(Path(order), 9)
        dt = time.monotonic() - t0
        want = formulas.t_path(order).value
        ok = rep.value.exact and rep.value.value == want and dt < 60.0
        details.append(f"t(P{order})={rep.value.lo} (formula {want}) [{dt:.2f}s]")
        if not ok:
            return False, "; ".join(details)
    return True, "; ".join(details)


def _crit_bk_thresholds(seed: int) -> tuple[bool, str]:
    details = []
    for order, max_n in ((4, 8), (6, 10)):
        t0 = time.monotonic()
        rep = search.compute_bk(3, Path(order), max_n)
        dt = time.monotonic() - t0
        want = formulas.bk_path(3, order).value
        ok = rep.value.exact and rep.value.value == want and dt < 300.0
        details.append(f"b3(P{order})={rep.value.lo} (formula {want}) [{dt:.2f}s]")
        if not ok:
            return False, "; ".join(details)
    return True, "; ".join(details)


def _witness_cases():
    for order in (4, 5, 6):
        yield (
            f"t-path-witness({order})",
            constructions.witness_t_path(order),
            "t",
            [(c, Path(order)) for c in (1, 2, 3)],
        )
    for order in (6, 7):
        yield (
            f"bk-path-witness(3,{order})",
            constructions.witness_bk_path(3, order),
            "bk",
            [(c, Path(order)) for c in (1, 2, 3)],
        )
    yield (
        "b3-kipas-witness(5)",
        constructions.witness_b3_kipas(5),
        "bk",
        [(c, Kipas(5)) for c in (1, 2, 3)],
    )
    for order in (2, 3):
        yield (
            f"small-kipas-witness({order})",
            constructions.witness_small_kipas(order),
            "bk",
            [(c, Kipas(order)) for c in (1, 2, 3)],
        )
    for n, m in ((4, 2), (6, 3), (8, 4)):
        yield (
            f"kipas-linear-witness({n},{m})",
            constructions.witness_kipas_linear(n, m),
            None,
            [(1, Kipas(n)), (2, LinearForestMin(m, 2))],
        )


def _crit_witness_suite(seed: int) -> tuple[bool, str]:
    t0 = time.monotonic()
    checked = 0
    for label, coloring, family, targets in _witness_cases():
        if family is not None:
            if structure.is_member(coloring, family) is None:
                return False, f"{label}: rejected by the {family} classifier"
        for c, pattern in targets:
            if isinstance(pattern, LinearForestMin):
                edges, _ = patterns.max_linear_forest(coloring, c, pattern.min_order)
                if edges >= pattern.min_edges:
                    return False, f"{label}: color {c} holds a forest with {edges} edges"
            elif patterns.has_mono_pattern(coloring, c, pattern) is not None:
                return False, f"{label}: contains {patterns.format_pattern(pattern)} in color {c}"
        checked += 1
    dt = time.monotonic() - t0
    return dt < 30.0, f"{checked} witnesses family-checked and target-free [{dt:.2f}s]"


def _crit_gr4_p5_p6(seed: int) -> tuple[bool, str]:
    t0 = time.monotonic()
    up = search.gr_desk_verify(4, Path(5), Path(6), 7, mode="structure")
    low = search.gr_desk_verify(4, Path(5), Path(6), 6, mode="structure")
    dt = time.monotonic() - t0
    if not up.holds:
        return False, "K_7 claim failed"
    if low.holds or low.counterexample is None:
        return False, "no counterexample on K_6"
    cex = low.counterexample
    bad = any(
        patterns.has_mono_pattern(cex, c, Path(6)) is not None for c in range(1, 5)
    ) or patterns.has_rainbow(cex, Path(5)) is not None
    if bad:
        return False, "counterexample fails re-validation"
    ok = dt < 300.0
    return ok, f"K_7 holds, K_6 counterexample re-validated [{dt:.2f}s]"


def _crit_k13_completeness(seed: int) -> tuple[bool, str]:
    t0 = time.monotonic()
    total = 0
    outcomes: dict[str, int] = {}
    for colors in product((1, 2, 3), repeat=10):
        if set(colors) != {1, 2, 3}:
            continue
        coloring = EdgeColoring(5, 3, colors)
        if patterns.has_rainbow(coloring, Star(3)) is not None:
            continue
        total += 1
        label, desc = structure.classify_structure(coloring, "k13")
        outcomes[label] = outcomes.get(label, 0) + 1
        if label not in (structure.CASE_DOMINANT, structure.CASE_G1):
            return False, f"coloring {colors} classified as {label}"
    dt = time.monotonic() - t0
    ok = total > 0 and dt < 60.0
    return ok, f"{total} rainbow-free colorings: {outcomes} [{dt:.2f}s]"


def _crit_formula_reductions(seed: int) -> tuple[bool, str]:
    for k in range(4, 9):
        for n in range(2 * (k - 1), 61):
            if formulas.gr_k13_path(k, n) != formulas.bk_path(k, n):
                return False, f"gr_k13 != bk at k={k}, n={n}"
    for n in range(4, 61):
        if formulas.gr_k13_path(3, n) != formulas.t_path(n):
            return False, f"gr_k13(3) != t at n={n}"
    return True, "gr reductions hold for k in [4,8] up to n=60 and k=3 up to n=60"


_ORACLE_PATTERNS = [
    Path(3),
    Path(4),
    Path(5),
    Star(3),
    Kipas(2),
    Kipas(3),
    CompleteGraph(3),
    LinearForestExact((2, 2)),
    LinearForestExact((2, 4)),
    P4_PLUS,
]


def _agree(coloring: EdgeColoring, c: int, pattern) -> bool:
    got = patterns.has_mono_pattern(coloring, c, pattern) is not None
    want = naive.naive_has_mono(coloring, c, pattern)
    return got == want


def _crit_oracle_equivalence(seed: int) -> tuple[bool, str]:
    t0 = time.monotonic()
    checks = 0
    for colors in product((1, 2), repeat=10):
        coloring = EdgeColoring(5, 2, colors)
        for c in (1, 2):
            order, emb = patterns.longest_mono_path(coloring, c)
            if order != naive.naive_longest_mono_path(coloring, c):
                return False, f"longest path disagrees on {colors} color {c}"
            patterns.verify_embedding(coloring, emb)
            pattern = _ORACLE_PATTERNS[checks % len(_ORACLE_PATTERNS)]
            if not _agree(coloring, c, pattern):
                return False, f"pattern {pattern} disagrees on {colors} color {c}"
            checks += 1
    rng = random.Random(seed)
    for i in range(10_000):
        n = rng.randint(4, 7)
        k = rng.randint(1, 4)
        coloring = EdgeColoring(
            n, k, [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
        )
        c = rng.randint(1, k)
        order, emb = patterns.longest_mono_path(coloring, c)
        if order != naive.naive_longest_mono_path(coloring, c):
            return False, f"longest path disagrees on random coloring {i}"
        patterns.verify_embedding(coloring, emb)
        pattern = _ORACLE_PATTERNS[i % len(_ORACLE_PATTERNS)]
        if not _agree(coloring, c, pattern):
            return False, f"pattern {pattern} disagrees on random coloring {i}"
        checks += 1
    dt = time.monotonic() - t0
    return True, f"{checks} oracle comparisons, 100% agreement [{dt:.1f}s]"


def _crit_ham_construction(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    t0 = time.monotonic()
    done = {"cycle": 0, "path": 0}
    while done["cycle"] < 1000:
        sizes = [rng.randint(1, 8) for _ in range(rng.randint(2, 6))]
        total, largest = sum(sizes), max(sizes)
        if total < 3 or total - largest < largest:
            continue
        seq = structure.multipartite_ham(sizes, "cycle")
        if not _valid_sequence(sizes, seq, wrap=True):
            return False, f"invalid cycle for sizes {sizes}"
        done["cycle"] += 1
    while done["path"] < 1000:
        others = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        sizes = others + [sum(others) + 1]
        rng.shuffle(sizes)
        seq = structure.multipartite_ham(sizes, "path")
        if not _valid_sequence(sizes, seq, wrap=False):
            return False, f"invalid path for sizes {sizes}"
        done["path"] += 1
    dt = time.monotonic() - t0
    return True, f"1000 cycles and 1000 paths validated [{dt:.1f}s]"


def _valid_sequence(sizes: list[int], seq: list[int], wrap: bool) -> bool:
    total = sum(sizes)
    if sorted(seq) != list(range(total)):
        return False
    part_of = {}
    base = 0
    for i, s in enumerate(sizes):
        for v in range(base, base + s):
            part_of[v] = i
        base += s
    pairs = list(zip(seq, seq[1:]))
    if wrap:
        pairs.append((seq[-1], seq[0]))
    return all(part_of[a] != part_of[b] for a, b in pairs)


ALL_CRITERIA: list[tuple[str, str, Callable[[int], tuple[bool, str]]]] = [
    ("ramsey-paths", "path vs path Ramsey values by full search", _crit_ramsey_paths),
    ("ramsey-kipas-linear", "kipas vs small linear forests by full search", _crit_kipas_linear),
    ("forced-blue-forests", "kipas-free 2-colorings force small blue forests", _crit_forced_blue_forests),
    ("t-path", "t-family path thresholds match the formula", _crit_t_thresholds),
    ("bk-path", "bk-family path thresholds match the formula", _crit_bk_thresholds),
    ("witness-suite", "every generated witness is family-valid and target-free", _crit_witness_suite),
    ("gr4-p5-p6", "gr_4(P_5:P_6)=7 via the structure case list", _crit_gr4_p5_p6),
    ("k13-completeness", "rainbow-star-free K_5 colorings all classify", _crit_k13_completeness),
    ("formula-reductions", "gr reductions to family thresholds", _crit_formula_reductions),
    ("oracle-equivalence", "detectors agree with brute-force enumeration", _crit_oracle_equivalence),
    ("ham-construction", "multipartite Hamiltonian sequences validate", _crit_ham_construction),
]


def run_criterion(ident: str, seed: int = 0) -> CriterionResult:
    for cid, desc, fn in ALL_CRITERIA:
        if cid == ident:
            t0 = time.monotonic()
            passed, detail = fn(seed)
            return CriterionResult(cid, desc, passed, detail, time.monotonic() - t0)
    raise KeyError(f"unknown criterion {ident!r}")


def run_all(only: str | None = None, seed: int = 0) -> list[CriterionResult]:
    return [
        run_criterion(cid, seed)
        for cid, _, _ in ALL_CRITERIA
        if only is None or only in cid
    ]
