"""The four workloads: their operations, expected answers and checks.

An operation is one top-level public call, into the library for the search
workloads and into the in-process CLI (``cli.main``) for cli-roundtrip.  It
returns an :class:`Outcome`; its ``answer`` must be the same on every pass
and in the traced run, and its check re-derives the answer independently
(closed forms in ``formulas``, published Ramsey values, the brute-force
oracles in ``naive``) outside the timed window.

Nothing here imports ramseykit at module level: the runner times the import
as part of set-up and passes the freshly imported modules in.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

# Largest number of vertex maps (or edge subsets) a naive re-check may try;
# bigger absence claims are left to the witness checks.
NAIVE_LIMIT = 400_000

# The mono:lf detections run on the colorings this seed draws, whatever
# --seed is.  The forest branch and bound behind them costs anything from
# 0.01 s to an abort at its 2M-node cap (about 5 s) depending on the
# coloring, so drawn from --seed they alone would move wall_s and op_p90_ms
# far beyond their bounds from seed to seed.  This seed's K_12 2-coloring
# aborts at the cap, as it does for most seeds.
LF_PROBE_SEED = 2


class CheckFailed(Exception):
    """The program gave a wrong answer."""


@dataclass
class Outcome:
    answer: object  # compared across passes and against the traced run
    nodes: int = 0
    failed: bool = False  # no answer: an abort that was not the expected outcome


@dataclass
class Op:
    label: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], None]
    quick: bool = False


@dataclass
class Program:
    """The ramseykit modules of one import."""

    modules: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.modules[name]
        except KeyError:
            raise AttributeError(name) from None


# --- checks shared by the workloads --------------------------------------------


def _naive_free(prog: Program, coloring, targets, label: str) -> None:
    """Every (color, pattern) target is absent; color None means rainbow."""
    naive = prog.naive
    for color, pattern in targets:
        if color is None:
            hit = naive.naive_has_rainbow(coloring, pattern)
        else:
            hit = naive.naive_has_mono(coloring, color, pattern)
        if hit:
            what = "rainbow" if color is None else f"color {color}"
            raise CheckFailed(
                f"{label}: witness has a {what} {prog.patterns.format_pattern(pattern)}"
            )


def _naive_affordable(prog: Program, coloring, color, pattern) -> bool:
    if isinstance(pattern, prog.patterns.LinearForestMin):
        edges = coloring.color_class(color).edge_count()
        return 2 ** edges <= NAIVE_LIMIT
    return math.perm(coloring.n_vertices, prog.patterns.pattern_order(pattern)) <= NAIVE_LIMIT


def _coloring_key(coloring):
    if coloring is None:
        return None
    return (coloring.n_vertices, coloring.n_colors, tuple(coloring.colors))


# --- search workloads -------------------------------------------------------------


def _search_op(prog, label, call, *, truth=None, holds=None, targets=(), exact_k=None,
               abort_ok=False, quick=False) -> Op:
    """One call of a search engine.

    ``truth`` is the threshold the search must find (or, when it aborts or
    stops at max_n, an interval that contains it); ``holds`` is the verdict
    of a universal check.  ``targets`` lists the (color, pattern) pairs the
    extremal witness or counterexample must avoid; a color of ``"all"``
    stands for each of the coloring's colors.
    """
    capability_error = prog.errors.CapabilityError

    def run() -> Outcome:
        aborted = False
        try:
            rep = call()
        except capability_error as err:
            if err.partial is None:
                raise
            rep, aborted = err.partial, True
        if hasattr(rep, "value"):
            verdict = (rep.value.lo, rep.value.hi)
            witness = rep.extremal_witness
        else:
            verdict = rep.holds
            witness = rep.counterexample
        answer = (aborted, verdict, _coloring_key(witness))
        return Outcome(answer, rep.nodes_explored, failed=aborted and not abort_ok)

    def check(out: Outcome) -> None:
        aborted, verdict, witness_key = out.answer
        if truth is not None:
            lo, hi = verdict
            if not lo <= truth <= hi:
                raise CheckFailed(f"{label}: interval [{lo}, {hi}] misses the known value {truth}")
            if not aborted and lo != hi:
                raise CheckFailed(f"{label}: no exact value, expected {truth}")
            if witness_key is not None and witness_key[0] != lo - 1:
                raise CheckFailed(f"{label}: witness on {witness_key[0]} vertices for lower bound {lo}")
        elif not aborted and verdict != holds:
            raise CheckFailed(f"{label}: verdict {verdict}, expected {holds}")
        if witness_key is None:
            if truth is not None and not aborted:
                raise CheckFailed(f"{label}: no extremal witness")
            return
        n, k, colors = witness_key
        coloring = prog.coloring.EdgeColoring(n, k, colors)
        if exact_k is not None and coloring.colors_used() != frozenset(range(1, exact_k + 1)):
            raise CheckFailed(f"{label}: counterexample does not use all {exact_k} colors")
        expanded = []
        for color, pattern in targets:
            colors_ = range(1, k + 1) if color == "all" else [color]
            expanded.extend((c, pattern) for c in colors_)
        _naive_free(prog, coloring, expanded, label)

    return Op(label, run, check, quick)


def build_full_ramsey(prog: Program, seed: int, workdir) -> list[Op]:
    P, S, F = prog.patterns, prog.search, prog.formulas
    path6, path5, k3, k4 = P.Path(6), P.Path(5), P.CompleteGraph(3), P.CompleteGraph(4)
    kipas3 = P.Kipas(3)
    required = [(2, P.LinearForestExact((3, 3))), (2, path5), (2, P.LinearForestExact((2, 4)))]
    ops = [
        _search_op(prog, "r(P6,P6)<=8", lambda: S.brute_force_ramsey(path6, path6, 8),
                   truth=F.r_path_path(6, 6).value, targets=[(1, path6), (2, path6)]),
        # R(K3, P5) = 9 and R(K4-e, K3) = 7 (Radziszowski, Small Ramsey Numbers, DS1)
        _search_op(prog, "r(K3,P5)<=9", lambda: S.brute_force_ramsey(k3, path5, 9),
                   truth=9, targets=[(1, k3), (2, path5)]),
        _search_op(prog, "r(kipas:3,K3)<=9", lambda: S.brute_force_ramsey(kipas3, k3, 9),
                   truth=7, targets=[(1, kipas3), (2, k3)], quick=True),
        _search_op(prog, "K7 check 3.1ii",
                   lambda: S.universal_check(7, [(1, P.Kipas(5))], required), holds=True),
        # R(3,4) = 9; the budget stops the search after it has found the K_8
        # witness, so the expected outcome is an abort carrying lo = 9
        _search_op(prog, "R(3,4)<=9 budget 100k",
                   lambda: S.brute_force_ramsey(k3, k4, 9, node_budget=100_000),
                   truth=9, targets=[(1, k3), (2, k4)], abort_ok=True, quick=True),
    ]
    random.Random(f"full-ramsey/{seed}").shuffle(ops)
    return ops


def build_family_threshold(prog: Program, seed: int, workdir) -> list[Op]:
    P, S, F = prog.patterns, prog.search, prog.formulas
    kipas5, path5, path6, path8 = P.Kipas(5), P.Path(5), P.Path(6), P.Path(8)
    ops = [
        _search_op(prog, "b3(kipas:5)<=12", lambda: S.compute_bk(3, kipas5, 12),
                   truth=F.b3_kipas(5).value, targets=[("all", kipas5)]),
        _search_op(prog, "b3(P6)<=10", lambda: S.compute_bk(3, path6, 10),
                   truth=F.bk_path(3, 6).value, targets=[("all", path6)], quick=True),
        _search_op(prog, "b4(P8)<=14", lambda: S.compute_bk(4, path8, 14),
                   truth=F.bk_path(4, 8).value, targets=[("all", path8)], quick=True),
        _search_op(prog, "t(P5)<=9", lambda: S.compute_t(path5, 9),
                   truth=F.t_path(5).value, targets=[("all", path5)], quick=True),
    ]
    random.Random(f"family-threshold/{seed}").shuffle(ops)
    return ops


# Verdicts without a closed form in formulas.py are the ones this benchmark
# was built against; the node counts in the tests pin the same runs.
def build_gallai_ramsey(prog: Program, seed: int, workdir) -> list[Op]:
    P, S, F = prog.patterns, prog.search, prog.formulas
    path4, path5, path6, star3 = P.Path(4), P.Path(5), P.Path(6), P.Star(3)
    k3, p4plus = P.CompleteGraph(3), P.P4_PLUS

    def gr(label, k, rainbow, target, n, mode, holds, quick=False):
        return _search_op(
            prog, label, lambda: S.gr_desk_verify(k, rainbow, target, n, mode=mode),
            holds=holds, targets=[(None, rainbow), ("all", target)], exact_k=k, quick=quick,
        )

    gr_p5_p6 = F.gr_p5_path(4, 6).value  # 7
    ops = [
        gr("gr3(P5:P4) N=6 full", 3, path5, path4, 6, "full", True),
        gr("gr3(p4plus:P4) N=6 full", 3, p4plus, path4, 6, "full", True),
        gr("gr3(K13:K3) N=6 full", 3, star3, k3, 6, "full", True),
        gr("gr3(K13:P4) N=6 full", 3, star3, path4, 6, "full",
           6 >= F.gr_k13_path(3, 4).value, quick=True),
        gr("gr4(K13:P4) N=5 full", 4, star3, path4, 5, "full", True, quick=True),
        gr("gr4(P5:P6) N=6 structure", 4, path5, path6, 6, "structure", 6 >= gr_p5_p6, quick=True),
        gr("gr4(P5:P6) N=7 structure", 4, path5, path6, 7, "structure", 7 >= gr_p5_p6, quick=True),
    ]
    random.Random(f"gallai-ramsey/{seed}").shuffle(ops)
    return ops


# --- cli-roundtrip ----------------------------------------------------------------


def _cli_op(prog: Program, label: str, argv: list[str], check, quick=False) -> Op:
    """One ``cli.main(argv)`` call with stdout and stderr captured.

    The answer is the exit code and the parsed JSON (or the text) on stdout;
    exit 2 where an answer was expected counts as a failed operation.
    """
    cli = prog.cli

    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        text = out.getvalue()
        payload = None
        if "--json" in argv and text.strip():
            payload = json.loads(text)
            payload.pop("time", None)  # wall time of a search, not an answer
        answer = (code, json.dumps(payload, sort_keys=True) if payload is not None else text,
                  err.getvalue())
        nodes = payload.get("nodes", 0) if isinstance(payload, dict) else 0
        return Outcome(answer, nodes, failed=code == 2)

    def checked(out: Outcome) -> None:
        code, body, err = out.answer
        if out.failed:
            return  # no answer to check
        payload = json.loads(body) if "--json" in argv and body.strip() else body
        check(code, payload, err)

    return Op(label, run, checked, quick)


def _cell_coloring(prog: Program, seed: int, n: int, k: int):
    """A coloring of K_n with each edge color uniform in 1..k."""
    rng = random.Random(f"cli-roundtrip/{seed}/{n}/{k}")
    colors = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
    return prog.coloring.EdgeColoring(n, k, colors, exact_flag=len(set(colors)) == k)


def _detect_check(prog: Program, coloring, pattern_text: str, label: str):
    P = prog.patterns
    mode, _, rest = pattern_text.partition(":")
    pattern = P.parse_pattern(rest)

    def absent(colors) -> None:
        for c in colors:
            target = None if mode == "rainbow" else c
            if _naive_affordable(prog, coloring, c, pattern):
                _naive_free(prog, coloring, [(target, pattern)], label)

    def check(code, payload, err) -> None:
        if code == 1 and payload == {"present": False}:
            absent([None] if mode == "rainbow" else range(1, coloring.n_colors + 1))
            return
        if code != 0 or not payload.get("present"):
            raise CheckFailed(f"{label}: exit {code} with {payload!r} {err.strip()}")
        try:
            if isinstance(pattern, P.LinearForestMin):
                comps = tuple(tuple(c) for c in payload["components"])
                witness = P.ForestWitness(comps, payload["color"])
                P.verify_forest_witness(coloring, witness, pattern.min_order)
                if witness.edge_count != payload["edges"] or payload["edges"] < pattern.min_edges:
                    raise CheckFailed(f"{label}: forest has {witness.edge_count} edges, "
                                      f"reported {payload['edges']}")
            else:
                color = payload.get("color")
                P.verify_embedding(coloring, P.Embedding(pattern, tuple(payload["map"]), color))
        except prog.errors.DomainError as exc:
            raise CheckFailed(f"{label}: witness rejected: {exc}") from None
        if mode == "mono":
            absent(range(1, payload["color"]))  # --any-color reports the first color

    return check


def _expect(label: str, code: int, payload=None):
    def check(got_code, got_payload, err) -> None:
        if got_code != code or (payload is not None and got_payload != payload):
            raise CheckFailed(f"{label}: exit {got_code} {got_payload!r} {err.strip()}, "
                              f"expected exit {code} {payload!r}")
    return check


def _value(lo, hi=None, caveat=None):
    hi = lo if hi is None else hi
    out = {"lo": lo, "hi": hi, "exact": lo == hi}
    if caveat:
        out["caveat"] = caveat
    return out


# Closed forms evaluated by hand from the docstrings of formulas.py.
FORMULA_CASES = [
    ("path-path", {"n": 6, "m": 5}, _value(7)),
    ("linear-forests", {"size1": 6, "odd1": 0, "size2": 5, "odd2": 1}, _value(7)),
    ("path-star", {"m": 5, "n": 4},
     _value(7, 8, "branch condition defective; both branch values returned")),
    ("star-star", {"n": 4, "m": 6}, _value(9)),
    ("path-kipas", {"n": 5, "m": 6}, _value(9)),
    ("star-kipas", {"n": 3, "m": 8}, _value(11)),
    ("kipas-linear", {"n": 8, "m": 4, "min-component": 2}, _value(10)),
    ("bk-path", {"k": 3, "n": 6}, _value(8)),
    ("t-path", {"n": 5}, _value(7)),
    ("b3-kipas", {"n": 5}, _value(12)),
    ("t-kipas-upper", {"n": 5},
     _value(1, 12, "upper bound only; no matching lower bound is known")),
    ("gr-p5-path", {"k": 4, "n": 6}, _value(7)),
    ("gr-p4plus-path", {"k": 4, "n": 6}, _value(8)),
    ("gr-k13-path", {"k": 3, "n": 5}, _value(7)),
    ("gr3-k13-kipas", {"n": 5}, _value(12)),
]


def build_cli_roundtrip(prog: Program, seed: int, workdir) -> list[Op]:
    P = prog.patterns
    write = prog.coloring.write_coloring_file
    ops: list[Op] = []

    def detect(name, coloring, path, pattern_text, quick=False):
        argv = ["detect", "--input", str(path), "--pattern", pattern_text, "--json"]
        if pattern_text.startswith("mono:"):
            argv.append("--any-color")
        label = f"detect {pattern_text} {name}"
        ops.append(_cli_op(prog, label, argv, _detect_check(prog, coloring, pattern_text, label),
                           quick=quick))

    for n in range(8, 13):
        for k in range(2, 5):
            quick = (n, k) == (8, 4)
            name = f"K{n}k{k}"
            coloring = _cell_coloring(prog, seed, n, k)
            path = workdir / f"{name}.ecg"
            write(coloring, path)
            for pattern_text in ("mono:path:6", "mono:kipas:4", "mono:lfx:3+3", "rainbow:path:5"):
                detect(name, coloring, path, pattern_text, quick)
            # the case lists need 3 (k13) or 4 (p5, p4plus) colors in use
            for context in {3: ("k13",), 4: ("p5", "p4plus")}.get(len(coloring.colors_used()), ()):
                ops.append(_cli_op(
                    prog, f"classify {context} {name}",
                    ["classify", "--input", str(path), "--context", context, "--json"],
                    _random_classify_check(coloring, f"classify {context} {name}"), quick=quick,
                ))
            probe = _cell_coloring(prog, LF_PROBE_SEED, n, k)
            probe_path = workdir / f"{name}-lf.ecg"
            write(probe, probe_path)
            detect(f"{name}-lf", probe, probe_path, "mono:lf:minedges=5,minorder=3", quick)

    C = prog.constructions
    members = [
        ("g2-6", C.g2_coloring(6), "p4plus", "g2"),
        ("g3-6", C.g3_coloring(6), "p4plus", "g3"),
        ("t-path-witness-6", C.witness_t_path(6), "k13", "g1"),
        ("bk-path-witness-4-10", C.witness_bk_path(4, 10), "p5", "dominant"),
    ]
    for name, coloring, context, case in members:
        path = workdir / f"{name}.ecg"
        write(coloring, path)
        label = f"classify {context} {name}"
        ops.append(_cli_op(prog, label,
                           ["classify", "--input", str(path), "--context", context, "--json"],
                           _classify_member_check(coloring, case, label), quick=True))

    generated = [
        ("t-path-witness", ["--n", "6"], [("all", P.Path(6))], True),
        ("bk-path-witness", ["--k", "3", "--n", "7"], [("all", P.Path(7))], True),
        ("b3-kipas-witness", ["--n", "5"], [("all", P.Kipas(5))], False),
        ("kipas-linear-witness", ["--n", "6", "--m", "3"],
         [(1, P.Kipas(6)), (2, P.LinearForestMin(3, 2))], True),
        ("gamma1", [], [("all", P.Kipas(2))], True),
        ("gamma2", [], [("all", P.Kipas(3))], True),
        ("g2", ["--n", "6"], [], True),
        ("g3", ["--n", "6"], [], True),
        ("bk", ["--parts", "2,3,3"], [], True),
        ("t", ["--parts", "2,2,3"], [], True),
    ]
    for family, extra, targets, quick in generated:
        out_path = workdir / f"generated-{family}.ecg"
        argv = ["generate", "--family", family, *extra, "--verify", "-o", str(out_path)]
        label = f"generate {family}"
        ops.append(_cli_op(prog, label, argv,
                           _generated_check(prog, out_path, targets, label), quick=quick))

    for formula_id, params, want in FORMULA_CASES:
        argv = ["formula", "--id", formula_id, "--json"]
        for key, val in params.items():
            argv += [f"--{key}", str(val)]
        ops.append(_cli_op(prog, f"formula {formula_id}", argv,
                           _expect(f"formula {formula_id}", 0, {"id": formula_id, **want}),
                           quick=True))

    samples = 40
    note = (f"randomized refutation search over {samples} samples (seed {seed});"
            " finding nothing is evidence, not a proof")
    ops.append(_cli_op(
        prog, "check 3.2",
        ["check", "--lemma", "3.2", "--n", "12", "--a", "3", "--samples", str(samples),
         "--seed", str(seed), "--json"],
        _expect("check 3.2", 0, {"check": "3.2", "holds": True, "samples": samples, "note": note}),
        quick=True,
    ))
    # the two search subcommands, so the CLI's search paths are covered too
    ops.append(_cli_op(
        prog, "compute t(P5)",
        ["compute", "--quantity", "t", "--target", "path:5", "--max-n", "9", "--json"],
        _expect_value("compute t(P5)", prog.formulas.t_path(5).value), quick=True,
    ))
    ops.append(_cli_op(
        prog, "grverify gr4(P5:P6) N=7",
        ["grverify", "--k", "4", "--rainbow", "p5", "--target", "path:6", "--N", "7", "--json"],
        _expect_holds("grverify gr4(P5:P6) N=7", 7 >= prog.formulas.gr_p5_path(4, 6).value),
        quick=True,
    ))
    random.Random(f"cli-roundtrip/{seed}").shuffle(ops)
    return ops


def _expect_value(label: str, truth: int):
    def check(code, payload, err) -> None:
        if code != 0 or payload.get("lo") != truth or payload.get("hi") != truth:
            raise CheckFailed(f"{label}: exit {code} {payload!r}, expected exact {truth}")
    return check


def _expect_holds(label: str, holds: bool):
    def check(code, payload, err) -> None:
        if code != (0 if holds else 1) or payload.get("holds") is not holds:
            raise CheckFailed(f"{label}: exit {code} {payload!r}, expected holds={holds}")
    return check


def _classify_member_check(coloring, case: str, label: str):
    def check(code, payload, err) -> None:
        if code != 0 or payload.get("case") != case:
            raise CheckFailed(f"{label}: exit {code} {payload!r}, expected case {case}")
        _check_parts(coloring, payload, label)
    return check


def _random_classify_check(coloring, label: str):
    def check(code, payload, err) -> None:
        if code == 1 and payload == {"case": "unclassified"}:
            return
        if code != 0:
            raise CheckFailed(f"{label}: exit {code} {payload!r} {err.strip()}")
        _check_parts(coloring, payload, label)
    return check


def _check_parts(coloring, payload, label: str) -> None:
    """A reported partition covers the vertices; under a dominant color every
    edge between two parts has that color."""
    parts = payload.get("parts")
    if parts is None:
        return
    flat = sorted(v for p in parts for v in p)
    if flat != list(range(coloring.n_vertices)):
        raise CheckFailed(f"{label}: parts {parts} do not partition the vertices")
    dominant = payload.get("dominant_color")
    if dominant is None:
        return
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            for u in a:
                for v in b:
                    if coloring.color_of(min(u, v), max(u, v)) != dominant:
                        raise CheckFailed(f"{label}: cross edge ({u}, {v}) not in color {dominant}")


def _generated_check(prog: Program, path, targets, label: str):
    def check(code, payload, err) -> None:
        if code != 0:
            raise CheckFailed(f"{label}: exit {code} {err.strip()}")
        coloring = prog.coloring.read_coloring_file(path)
        expanded = []
        for color, pattern in targets:
            colors = range(1, coloring.n_colors + 1) if color == "all" else [color]
            expanded.extend((c, pattern) for c in colors)
        _naive_free(prog, coloring, expanded, label)
    return check


WORKLOADS = {
    "full-ramsey": build_full_ramsey,
    "family-threshold": build_family_threshold,
    "gallai-ramsey": build_gallai_ramsey,
    "cli-roundtrip": build_cli_roundtrip,
}
