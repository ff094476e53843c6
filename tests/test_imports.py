"""What importing ramseykit keeps alive and loads, each checked in a fresh
interpreter so that ``sys.modules`` starts clean, and what each module
imports."""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import ramseykit

SRC = str(Path(ramseykit.__file__).resolve().parent.parent)


def _run(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n" + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return result.stdout.strip()


def test_reimport_releases_the_previous_import():
    # a benchmark set-up, importlib.reload or notebook autoreload imports the
    # package again; nothing of the first import may survive the second
    out = _run("""
        import gc, weakref
        import ramseykit
        from ramseykit import coloring, patterns
        refs = [weakref.ref(patterns.Path), weakref.ref(coloring.EdgeColoring),
                weakref.ref(patterns._grow)]
        del ramseykit, coloring, patterns
        for name in [m for m in sys.modules if m == "ramseykit" or m.startswith("ramseykit.")]:
            del sys.modules[name]
        import ramseykit
        gc.collect()
        print([r() is None for r in refs])
    """)
    assert out == "[True, True, True]"


def test_cli_import_leaves_the_acceptance_suite_unloaded():
    out = _run("""
        import ramseykit.cli
        print("ramseykit.acceptance" in sys.modules)
    """)
    assert out == "False"


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is the one module left out
    package = Path(ramseykit.__file__).resolve().parent
    unused = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = _unused_imports(path)
        if names:
            unused[path.name] = names
    assert unused == {}
