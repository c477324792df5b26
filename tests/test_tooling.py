"""Static checks over the package source."""

import ast
import runpy
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polyrec"


def test_no_assert_statements():
    # python -O strips assert statements, which would silently drop an
    # invariant check; invariants raise VerificationFailed instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def test_no_thread_imports():
    # scenarios run one after another, and bench/tracer.py keeps one span
    # stack for the whole process, which only holds while polyrec runs
    # single-threaded
    banned = {"concurrent", "threading"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] in banned]
    assert not found, f"thread imports in the package: {found}"


def test_tracer_names_exist():
    # bench/tracer.py wraps these by name with setattr after import, so a
    # rename under src/polyrec would silently drop a per-layer metric
    from polyrec import cli

    tracer = runpy.run_path(str(SRC.parent.parent / "bench" / "tracer.py"))
    wrapped = [
        (mod, name)
        for table in (tracer["SPANNED"], tracer["COUNTED"])
        for mod, names in table.items()
        for name in names
    ]
    wrapped += [
        ("intpoly", "evaluate"),
        ("lattice", "contains"),
        ("dynamics", "return_measure"),
        ("dynamics", "map_orders"),
        ("cli", "json"),
    ]
    missing = [
        f"{mod}.{name}"
        for mod, name in wrapped
        if not hasattr(cli if mod == "cli" else getattr(cli, mod), name)
    ]
    assert not missing, f"bench/tracer.py wraps names that do not exist: {missing}"


def _module_level(node):
    """The nodes under node that run at import, not inside a function body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


def test_jsonschema_is_imported_only_inside_functions():
    # the schema checker in cli.py accepts valid documents on its own;
    # jsonschema is imported only to word the error of a rejected one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in _module_level(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "jsonschema"]
    assert not found, f"module-level jsonschema imports: {found}"
