"""Spans around the calls that cross a ramseykit module boundary.

The tracer rebinds the names callers look up (module attributes and the
formula table) to wrappers that record one span per call, and restores them
afterwards.  No file of the program changes.  Intra-module calls are not
boundaries and are not wrapped, except where a caller reaches a function
through its defining module's attribute (``patterns.has_mono_pattern``).
"""

from __future__ import annotations

import os
import statistics
import time

# Span name, the module whose attribute the callers look up, and the
# attribute names.  A span name ending in "." takes its last part from the
# pattern argument (patterns.mono.<kind>).  A span name is unmeasured when
# none of its attributes exists any more.
BOUNDARIES = [
    ("search", "search", (
        "brute_force_ramsey", "compute_bk", "compute_t", "universal_check",
        "gr_desk_verify", "randomized_kipas_forest_refutation",
    )),
    ("patterns.mono.", "search", ("mono_present",)),
    ("patterns.mono.kipas", "search", ("kipas_exists",)),
    ("patterns.mono.lf", "search", ("forest_min_edges_exists",)),
    ("patterns.rainbow", "search", ("_rainbow_present_partial",)),
    ("patterns.find.mono", "patterns", ("has_mono_pattern",)),
    ("patterns.find.rainbow", "patterns", ("has_rainbow",)),
    ("patterns.find.forest", "patterns", ("max_linear_forest",)),
    ("structure.classify", "structure", ("classify_structure",)),
    ("constructions", "constructions", (
        "build_family", "g2_coloring", "g3_coloring", "witness_bk_path",
        "witness_t_path", "witness_b3_kipas", "witness_kipas_linear",
        "witness_small_kipas",
    )),
    ("coloring.read", "cli", ("read_coloring_file",)),
    ("coloring.write", "cli", ("write_coloring_file",)),
    ("cli", "cli", ("main",)),
]

MONO_KINDS = {
    "Path": "path", "Star": "star", "Kipas": "kipas", "CompleteGraph": "clique",
    "LinearForestExact": "lfx", "LinearForestMin": "lf", "Explicit": "explicit",
}

# name -> (unit, better)
PER_LAYER = {
    "search.calls": ("count", "lower"),
    "search.s": ("s", "lower"),
    "search.self_s": ("s", "lower"),
    "search.nodes_per_s": ("1/s", "higher"),
    "search.aborts": ("count", "lower"),
}
for _kind in MONO_KINDS.values():
    PER_LAYER[f"patterns.mono.{_kind}.calls"] = ("count", "lower")
    PER_LAYER[f"patterns.mono.{_kind}.s"] = ("s", "lower")
    PER_LAYER[f"patterns.mono.{_kind}.hit_ratio"] = ("ratio", "higher")
PER_LAYER.update({
    "patterns.rainbow.calls": ("count", "lower"),
    "patterns.rainbow.s": ("s", "lower"),
    "patterns.rainbow.hit_ratio": ("ratio", "higher"),
    "patterns.find.mono.s": ("s", "lower"),
    "patterns.find.rainbow.s": ("s", "lower"),
    "patterns.find.forest.s": ("s", "lower"),
    "patterns.find.forest.aborts": ("count", "lower"),
    "structure.classify.calls": ("count", "lower"),
    "structure.classify.s": ("s", "lower"),
    "constructions.calls": ("count", "lower"),
    "constructions.s": ("s", "lower"),
    "formulas.calls": ("count", "lower"),
    "formulas.s": ("s", "lower"),
    "coloring.read.calls": ("count", "lower"),
    "coloring.read.s": ("s", "lower"),
    "coloring.read.bytes": ("bytes", "lower"),
    "coloring.write.calls": ("count", "lower"),
    "coloring.write.s": ("s", "lower"),
    "coloring.write.bytes": ("bytes", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def _search_nodes(result, err):
    report = result if err is None else getattr(err, "partial", None)
    return getattr(report, "nodes_explored", 0)


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# What a span's value records, by span-name prefix.
def _value_of(name, args, result, err):
    if name == "search":
        return _search_nodes(result, err)
    if name.startswith("patterns.mono.") or name == "patterns.rainbow":
        return 1 if err is None and result else 0  # a prune
    if name == "coloring.read":
        return _file_bytes(args[0]) if args else 0
    if name == "coloring.write":
        return _file_bytes(args[1]) if len(args) > 1 else 0
    return 0


class Tracer:
    """Records spans (name, op, parent, start, end, ok, value) in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op = -1
        self.unmeasured: dict[str, list[str]] = {}
        self._restore: list = []

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        by_kind = name.endswith(".")

        def traced(*args, **kwargs):
            span_name = name
            if by_kind:
                pattern = args[2] if len(args) > 2 else kwargs.get("p")
                span_name = name + MONO_KINDS.get(type(pattern).__name__, "other")
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            result = err = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                err = exc
                raise
            finally:
                end = clock()
                stack.pop()
                value = _value_of(span_name, args, result, err)
                spans[sid] = (span_name, tracer.op, parent, start, end, err is None, value)

        return traced

    def install(self) -> None:
        for name, module_name, attrs in BOUNDARIES:
            module = self.modules[module_name]
            found = [a for a in attrs if callable(getattr(module, a, None))]
            if not found:
                self.unmeasured[name.rstrip(".")] = [f"{module_name}.{a}" for a in attrs]
            for attr in found:
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        formulas = self.modules["formulas"]
        table = getattr(formulas, "FORMULAS", None)
        if not isinstance(table, dict):
            self.unmeasured["formulas"] = ["formulas.FORMULAS"]
            return
        for key, (fn, params) in list(table.items()):
            self._restore.append((table, key, (fn, params)))
            table[key] = (self._wrap("formulas", fn), params)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        """One line per span: id parent op name start end ok value."""
        with open(path, "w", encoding="utf-8") as fh:
            for layer, names in sorted(self.unmeasured.items()):
                fh.write(f"# unmeasured {layer}: {' '.join(names)} not found\n")
            fh.write("# id parent op name start end ok value\n")
            for sid, (name, op, parent, start, end, ok, value) in enumerate(self.spans):
                fh.write(f"{sid} {parent} {op} {name} {start:.9f} {end:.9f} {int(ok)} {value}\n")


def layer_metrics(spans: list[tuple], first: int, last: int) -> dict[str, float]:
    """Per-layer totals over spans[first:last] (one traced pass)."""
    window = spans[first:last]
    child = [0.0] * len(window)
    for name, _op, parent, start, end, _ok, _value in window:
        if parent >= first:
            child[parent - first] += end - start
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    selfs: dict[str, float] = {}
    values: dict[str, int] = {}
    errors: dict[str, int] = {}
    for i, (name, _op, parent, start, end, ok, value) in enumerate(window):
        dur = end - start
        selfs[name] = selfs.get(name, 0.0) + dur - child[i]
        # a call nested inside a call of the same span name is part of it
        p = parent
        nested = False
        while p >= first:
            if window[p - first][0] == name:
                nested = True
                break
            p = window[p - first][2]
        if nested:
            continue
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + dur
        values[name] = values.get(name, 0) + value
        if not ok:
            errors[name] = errors.get(name, 0) + 1
    out: dict[str, float] = {
        "search.calls": calls.get("search", 0),
        "search.s": secs.get("search", 0.0),
        "search.self_s": selfs.get("search", 0.0),
        "search.nodes_per_s": (
            values.get("search", 0) / secs["search"] if secs.get("search") else 0.0
        ),
        "search.aborts": errors.get("search", 0),
    }
    for kind in MONO_KINDS.values():
        name = f"patterns.mono.{kind}"
        n = calls.get(name, 0)
        out[f"{name}.calls"] = n
        out[f"{name}.s"] = secs.get(name, 0.0)
        out[f"{name}.hit_ratio"] = values.get(name, 0) / n if n else 0.0
    n = calls.get("patterns.rainbow", 0)
    out["patterns.rainbow.calls"] = n
    out["patterns.rainbow.s"] = secs.get("patterns.rainbow", 0.0)
    out["patterns.rainbow.hit_ratio"] = values.get("patterns.rainbow", 0) / n if n else 0.0
    for name in ("mono", "rainbow", "forest"):
        out[f"patterns.find.{name}.s"] = secs.get(f"patterns.find.{name}", 0.0)
    out["patterns.find.forest.aborts"] = errors.get("patterns.find.forest", 0)
    for name in ("structure.classify", "constructions", "formulas"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = secs.get(name, 0.0)
    for name in ("coloring.read", "coloring.write"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = secs.get(name, 0.0)
        out[f"{name}.bytes"] = values.get(name, 0)
    out["cli.calls"] = calls.get("cli", 0)
    out["cli.self_s"] = selfs.get("cli", 0.0)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
