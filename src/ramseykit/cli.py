"""Command-line entry point.

Subcommands are thin adapters over the library: no combinatorial logic
lives here.  Exit codes are uniform across subcommands: 0 when a value was
found, a property holds, a pattern is present, or a coloring classified;
1 for absent / counterexample / failing self-test; 2 for usage errors,
missing, unreadable or malformed input files and exceeded capability or
budget.  Plain line-oriented reports by default, ``--json`` emits the same
fields as one JSON object, an error included (``{"error": ...}``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, constructions, formulas, patterns, search, structure
from .coloring import (
    EdgeColoring,
    dumps_coloring,
    read_coloring_file,
    write_coloring_file,
)
from .errors import BudgetExceeded, CapabilityError, RamseykitError
from .patterns import (
    Kipas,
    LinearForestExact,
    LinearForestMin,
    Path,
    parse_pattern,
)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _value_lines(v: formulas.ValueOrInterval) -> list[str]:
    lines = [str(v)]
    if v.caveat:
        lines.append(f"caveat: {v.caveat}")
    return lines


def _value_payload(v: formulas.ValueOrInterval) -> dict:
    out: dict = {"lo": v.lo, "hi": v.hi, "exact": v.exact}
    if v.caveat:
        out["caveat"] = v.caveat
    return out


def _emit_abort(args, err: CapabilityError) -> int:
    """Report an exceeded capability or budget with its partial result; exit 2."""
    payload: dict = {"error": str(err)}
    label = "budget exceeded" if isinstance(err, BudgetExceeded) else "capability limit"
    lines = [f"{label}: {err}"]
    rep = err.partial
    if rep is not None:
        payload.update(quantity=rep.quantity, nodes=rep.nodes_explored)
        if isinstance(rep, search.SearchReport):
            payload.update(_value_payload(rep.value))
            lines.extend(_value_lines(rep.value))
        else:
            payload["notes"] = list(rep.notes)
            lines.extend(rep.notes)
    _emit(args, payload, lines)
    return 2


def _maybe_write_witness(args, coloring: EdgeColoring | None) -> str | None:
    path = getattr(args, "witness_out", None)
    if path and coloring is not None:
        write_coloring_file(coloring, path)
        return path
    return None


def _cmd_detect(args) -> int:
    coloring = read_coloring_file(args.input)
    spec = args.pattern
    mode, _, rest = spec.partition(":")
    if mode not in ("mono", "rainbow"):
        raise RamseykitError(f"pattern must start with mono: or rainbow:, got {spec!r}")
    pattern = parse_pattern(rest)
    try:
        return _detect(args, coloring, mode, pattern)
    except CapabilityError as err:
        return _emit_abort(args, err)


def _detect(args, coloring: EdgeColoring, mode: str, pattern: patterns.PatternSpec) -> int:
    if mode == "rainbow":
        emb = patterns.has_rainbow(coloring, pattern)
        if emb is None:
            _emit(args, {"present": False}, ["absent"])
            return 1
        _emit(
            args,
            {"present": True, "map": list(emb.vertex_map)},
            [f"present map={','.join(map(str, emb.vertex_map))}"],
        )
        return 0
    if args.any_color:
        colors = range(1, coloring.n_colors + 1)
    elif args.color is not None:
        colors = [args.color]
    else:
        raise RamseykitError("mono detection needs --color or --any-color")
    for c in colors:
        if isinstance(pattern, LinearForestMin):
            edges, witness = patterns.max_linear_forest(coloring, c, pattern.min_order)
            if edges >= pattern.min_edges:
                comps = ";".join(",".join(map(str, comp)) for comp in witness.components)
                _emit(
                    args,
                    {"present": True, "color": c, "edges": edges, "components": [list(x) for x in witness.components]},
                    [f"present color={c} edges={edges} components={comps}"],
                )
                return 0
        else:
            emb = patterns.has_mono_pattern(coloring, c, pattern)
            if emb is not None:
                _emit(
                    args,
                    {"present": True, "color": c, "map": list(emb.vertex_map)},
                    [f"present color={c} map={','.join(map(str, emb.vertex_map))}"],
                )
                return 0
    _emit(args, {"present": False}, ["absent"])
    return 1


def _parse_parts(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


def _cmd_generate(args) -> int:
    fam = args.family
    if fam in ("bk", "t", "g1"):
        if not args.parts:
            raise RamseykitError(f"family {fam} needs --parts SIZES (e.g. --parts 2,3)")
        sizes = _parse_parts(args.parts)
        parts = constructions._ranges(sizes)
        if fam == "bk":
            part_colors = [i + 2 for i in range(len(parts))]
        else:
            part_colors = [1, 2, 3][: len(parts)]
        choices = constructions._complete_internal(parts, part_colors)
        coloring = constructions.build_family(
            constructions.FamilyDescriptor(fam, sum(sizes), parts=parts, internal_choices=choices)
        )
    elif fam == "g2":
        coloring = constructions.g2_coloring(args.n)
    elif fam == "g3":
        coloring = constructions.g3_coloring(args.n)
    elif fam == "bk-path-witness":
        coloring = constructions.witness_bk_path(args.k or 3, args.n, verify=args.verify)
    elif fam == "t-path-witness":
        coloring = constructions.witness_t_path(args.n, verify=args.verify)
    elif fam == "b3-kipas-witness":
        coloring = constructions.witness_b3_kipas(args.n, verify=args.verify)
    elif fam == "kipas-linear-witness":
        if args.m is None:
            raise RamseykitError("kipas-linear-witness needs --m")
        coloring = constructions.witness_kipas_linear(args.n, args.m, verify=args.verify)
    elif fam == "gamma1":
        coloring = constructions.witness_small_kipas(2, verify=args.verify)
    elif fam == "gamma2":
        coloring = constructions.witness_small_kipas(3, verify=args.verify)
    else:
        raise RamseykitError(f"unknown family {fam!r}")
    if args.output:
        write_coloring_file(coloring, args.output)
        print(f"wrote {args.output} (n={coloring.n_vertices}, k={coloring.n_colors})")
    else:
        sys.stdout.write(dumps_coloring(coloring))
    return 0


def _cmd_compute(args) -> int:
    try:
        if args.quantity == "ramsey":
            if not args.red or not args.blue:
                raise RamseykitError("ramsey needs --red and --blue patterns")
            rep = search.brute_force_ramsey(
                parse_pattern(args.red), parse_pattern(args.blue), args.max_n,
                node_budget=args.budget,
            )
        elif args.quantity == "bk":
            if not args.target or args.k is None:
                raise RamseykitError("bk needs --k and --target")
            rep = search.compute_bk(args.k, parse_pattern(args.target), args.max_n, node_budget=args.budget)
        elif args.quantity == "t":
            if not args.target:
                raise RamseykitError("t needs --target")
            rep = search.compute_t(parse_pattern(args.target), args.max_n, node_budget=args.budget)
        else:
            raise RamseykitError(f"unknown quantity {args.quantity!r}")
    except CapabilityError as err:
        return _emit_abort(args, err)
    written = _maybe_write_witness(args, rep.extremal_witness)
    lines = _value_lines(rep.value)
    lines.append(f"nodes {rep.nodes_explored}")
    lines.append(f"time {rep.wall_time:.2f}s")
    if written:
        lines.append(f"witness {written}")
    payload = {
        "quantity": rep.quantity,
        **_value_payload(rep.value),
        "nodes": rep.nodes_explored,
        "time": rep.wall_time,
    }
    if written:
        payload["witness"] = written
    _emit(args, payload, lines)
    return 0 if rep.value.exact else 2


def _cmd_formula(args) -> int:
    if args.id not in formulas.FORMULAS:
        raise RamseykitError(
            f"unknown formula {args.id!r}; known: {', '.join(sorted(formulas.FORMULAS))}"
        )
    fn, params = formulas.FORMULAS[args.id]
    supplied = {
        "k": args.k,
        "n": args.n,
        "m": args.m,
        "min_component": args.min_component,
        "size1": args.size1,
        "odd1": args.odd1,
        "size2": args.size2,
        "odd2": args.odd2,
    }
    kwargs = {}
    for name in params:
        if supplied.get(name) is None:
            raise RamseykitError(f"formula {args.id} needs --{name.replace('_', '-')}")
        kwargs[name] = supplied[name]
    if args.id == "path-star" and args.trust_exact:
        kwargs["trust_exact"] = True
    result = fn(**kwargs)
    _emit(args, {"id": args.id, **_value_payload(result)}, _value_lines(result))
    return 0


_CHECKS_31 = {
    "3.1i": (
        lambda n: (n + 1, [(2, LinearForestExact((2, 2))), (2, Path(3))]),
        4,
    ),
    "3.1ii": (
        lambda n: (
            n + 2,
            [(2, LinearForestExact((3, 3))), (2, Path(5)), (2, LinearForestExact((2, 4)))],
        ),
        5,
    ),
}


def _cmd_check(args) -> int:
    if args.lemma in _CHECKS_31:
        build, min_n = _CHECKS_31[args.lemma]
        if args.n < min_n:
            raise RamseykitError(f"check {args.lemma} needs --n >= {min_n}")
        size, required = build(args.n)
        try:
            rep = search.universal_check(size, [(1, Kipas(args.n))], required)
        except CapabilityError as err:
            return _emit_abort(args, err)
        witness = _maybe_write_witness(args, rep.counterexample)
        lines = [
            f"{'holds' if rep.holds else 'counterexample'} over all 2-colorings of K_{size}",
            f"nodes {rep.nodes_explored}",
        ]
        if witness:
            lines.append(f"witness {witness}")
        _emit(
            args,
            {"check": args.lemma, "holds": rep.holds, "nodes": rep.nodes_explored},
            lines,
        )
        return 0 if rep.holds else 1
    if args.lemma == "3.2":
        if args.a is None:
            raise RamseykitError("check 3.2 needs --a")
        n, a = args.n, args.a
        if not (3 <= a <= n // 4):
            raise RamseykitError("check 3.2 needs 3 <= a <= n/4")
        found = search.randomized_kipas_forest_refutation(n, a, args.samples, args.seed)
        note = (
            f"randomized refutation search over {args.samples} samples (seed {args.seed});"
            " finding nothing is evidence, not a proof"
        )
        if found is None:
            _emit(
                args,
                {"check": "3.2", "holds": True, "samples": args.samples, "note": note},
                [f"no counterexample among {args.samples} random colorings of K_{n + a}", note],
            )
            return 0
        witness = _maybe_write_witness(args, found)
        lines = [f"counterexample found on K_{n + a}", note]
        if witness:
            lines.append(f"witness {witness}")
        _emit(args, {"check": "3.2", "holds": False, "note": note}, lines)
        return 1
    raise RamseykitError(f"unknown check {args.lemma!r}; known: 3.1i, 3.1ii, 3.2")


def _cmd_grverify(args) -> int:
    context = structure.CONTEXTS.get(args.rainbow)
    rainbow = context[0] if context else parse_pattern(args.rainbow)
    target = parse_pattern(args.target)
    try:
        rep = search.gr_desk_verify(
            args.k, rainbow, target, args.N, mode=args.mode, node_budget=args.budget,
        )
    except CapabilityError as err:
        return _emit_abort(args, err)
    witness = _maybe_write_witness(args, rep.counterexample)
    lines = [f"{'holds' if rep.holds else 'counterexample'}", f"nodes {rep.nodes_explored}"]
    lines.extend(rep.notes)
    if witness:
        lines.append(f"witness {witness}")
    _emit(
        args,
        {
            "quantity": rep.quantity,
            "holds": rep.holds,
            "nodes": rep.nodes_explored,
            "notes": list(rep.notes),
        },
        lines,
    )
    return 0 if rep.holds else 1


def _cmd_classify(args) -> int:
    coloring = read_coloring_file(args.input)
    label, desc = structure.classify_structure(coloring, args.context)
    lines = [f"case {label}"]
    payload: dict = {"case": label}
    if desc is not None:
        if desc.parts is not None:
            parts_text = " | ".join(",".join(map(str, p)) for p in desc.parts)
            lines.append(f"parts {parts_text}")
            payload["parts"] = [list(p) for p in desc.parts]
        if desc.special is not None:
            lines.append(f"special {','.join(map(str, desc.special))}")
            payload["special"] = list(desc.special)
        if desc.dominant_color is not None:
            lines.append(f"dominant-color {desc.dominant_color}")
            payload["dominant_color"] = desc.dominant_color
    _emit(args, payload, lines)
    return 0 if label != structure.UNCLASSIFIED else 1


def _cmd_selftest(args) -> int:
    results = acceptance.run_all(only=args.only, seed=args.seed)
    if not results:
        print(f"no criteria match {args.only!r}")
        return 2
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.ident:22s} {r.seconds:7.2f}s  {r.detail}")
        if not r.passed:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseykit",
        description="Search and verification toolkit for Ramsey-type quantities on edge-colored complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect a mono/rainbow pattern in an ecg file")
    p.add_argument("--input", required=True)
    p.add_argument("--pattern", required=True, help="mono:<pat> or rainbow:<pat>")
    p.add_argument("--color", type=int)
    p.add_argument("--any-color", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("generate", help="generate a family member or witness coloring")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--parts", help="comma-separated part sizes for bk/t/g1")
    p.add_argument("--verify", action="store_true", help="re-check the avoidance claim before writing")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compute", help="search a Ramsey-type threshold")
    p.add_argument("--quantity", required=True, choices=["ramsey", "bk", "t"])
    p.add_argument("--red")
    p.add_argument("--blue")
    p.add_argument("--target")
    p.add_argument("--k", type=int)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--budget", type=int, default=search.DEFAULT_NODE_BUDGET)
    p.add_argument("--witness-out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("formula", help="evaluate a closed-form value")
    p.add_argument("--id", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--min-component", type=int, dest="min_component")
    p.add_argument("--size1", type=int)
    p.add_argument("--odd1", type=int)
    p.add_argument("--size2", type=int)
    p.add_argument("--odd2", type=int)
    p.add_argument("--trust-exact", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("check", help="run a built-in implication check")
    p.add_argument("--lemma", required=True, help="3.1i, 3.1ii or 3.2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--witness-out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("grverify", help="verify a Gallai-Ramsey claim at one size")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--rainbow", required=True, help=f"{', '.join(structure.CONTEXTS)} or a pattern"
    )
    p.add_argument("--target", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--mode", choices=["full", "structure"], default="structure")
    p.add_argument("--budget", type=int, default=search.DEFAULT_NODE_BUDGET)
    p.add_argument("--witness-out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_grverify)

    p = sub.add_parser("classify", help="classify an ecg file against a rainbow context")
    p.add_argument("--input", required=True)
    p.add_argument("--context", required=True, choices=list(structure.CONTEXTS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", help="run only criteria whose id contains this substring")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RamseykitError, OSError) as err:  # OSError: an unreadable input file
        if getattr(args, "json", False):
            _emit(args, {"error": str(err)}, [])
        else:
            print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
