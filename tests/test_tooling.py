"""Static checks over the package source."""

import ast
import re
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


def _imports():
    """(file:line, top-level module) of each absolute import in the package."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            yield from ((f"{path.name}:{node.lineno}", n.split(".")[0]) for n in names)


def test_no_thread_imports():
    # scenarios run one after another, and bench/tracer.py keeps one span
    # stack for the whole process, which only holds while polyrec runs
    # single-threaded
    found = [where for where, module in _imports() if module in {"concurrent", "threading"}]
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


def test_no_module_imports_jsonschema():
    # the schema checker in cli.py decides and words every input error;
    # jsonschema is the oracle of the tests, not a dependency
    found = [where for where, module in _imports() if module == "jsonschema"]
    assert not found, f"jsonschema imports in the package: {found}"


# Top-level names no command reaches that the tests still need: the exact
# Gaussian-rational matrix layer of spectral, which checks that realized
# limit projections are commuting orthogonal projections, the fixed spaces
# they are checked against, and the averaging expansion; and the monomial
# constructor the tests build polynomials with.  (matrix_exact and
# ComplexMatrix are reached through the methods of ProjectionDesc, a class
# the commands use.)
TEST_ONLY = {
    "intpoly": {"from_monomial_coeffs"},
    "spectral": {
        "mat_mul",
        "mat_adjoint",
        "ProjectionCheck",
        "is_orthogonal_projection",
        "orbit_fixed_projection",
        "AveragingExpansion",
        "_coerce_vector",
        "inner",
        "vdc_expansion",
    },
}


def _package_modules():
    """Per module: its top-level definitions, and the names its imports and
    its lazy bindings bind to a module or to a (module, name) pair inside the
    package."""
    modules = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs, imports = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    imports[bound] = alias.name if node.module is None else (node.module, alias.name)
            elif isinstance(node, ast.Assign) and ast.unparse(node.value).startswith("_lazy("):
                # cli's `name = _lazy("name")` binds the module of that name
                imports[node.targets[0].id] = node.value.args[0].value
        modules[path.stem] = (tree, defs, imports)
    return modules


def test_every_definition_is_reached_from_the_cli():
    # a top-level function or class that no code reachable from the cli
    # module names is dead weight, unless TEST_ONLY lists it for the tests
    modules = _package_modules()
    reached, pending, seen_modules = set(), [], set()

    def visit_module(name):
        if name in seen_modules or name not in modules:
            return
        seen_modules.add(name)
        tree, defs, _ = modules[name]
        # code outside the definitions runs at import
        pending.extend((name, node) for node in tree.body if node not in defs.values())

    def resolve(mod, node):
        _, defs, imports = modules[mod]
        if isinstance(node, ast.Name):
            if node.id in defs:
                return mod, node.id
            bound = imports.get(node.id)
            if isinstance(bound, tuple):
                return bound
            if bound is not None:
                visit_module(bound)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            bound = imports.get(node.value.id)
            if isinstance(bound, str):
                return bound, node.attr
        return None

    visit_module("cli")
    while pending:
        mod, root = pending.pop()
        for node in ast.walk(root):
            target = resolve(mod, node)
            if target is None or target in reached or target[0] not in modules:
                continue
            reached.add(target)
            visit_module(target[0])
            definition = modules[target[0]][1].get(target[1])
            if definition is not None:
                pending.append((target[0], definition))

    unreached = sorted(
        f"{mod}.{name}"
        for mod, (_, defs, _) in modules.items()
        for name in defs
        if (mod, name) not in reached and name not in TEST_ONLY.get(mod, ())
    )
    assert not unreached, f"definitions no command reaches: {unreached}"
    stale = sorted(
        f"{mod}.{name}" for mod, names in TEST_ONLY.items() for name in names if (mod, name) in reached
    )
    assert not stale, f"TEST_ONLY names that a command reaches after all: {stale}"


def test_certificate_documents_have_one_writer_and_one_reader():
    # the runners write each certificate document and verify-certificate in
    # cli reads it; no domain module knows the layout
    found = sorted(
        path.name
        for path in SRC.rglob("*.py")
        if '"certificate_kind"' in path.read_text()
    )
    assert found == ["cli.py", "runners.py"], found


# Each certificate kind's constructor, by its module.
CONSTRUCTORS = {
    "key-lemma": ("keyengine", "key_lemma_lattice"),
    "stable-rank": ("keyengine", "stable_rank_subgroup"),
    "spectral-limit": ("spectral", "limit_projection"),
}


def _called(nodes):
    """(module or None, name) of each call under nodes, as written."""
    return [
        (getattr(call.func.value, "id", None), call.func.attr)
        if isinstance(call.func, ast.Attribute)
        else (None, getattr(call.func, "id", None))
        for node in nodes
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    ]


def test_each_certificate_kind_has_one_check():
    # verify-certificate runs one check per kind, and the kind's constructor
    # ends with the same function, so a constructed certificate and a read
    # one fail alike; the keyengine constructors word no failure themselves
    functions = {
        path.stem: {node.name: node for node in ast.parse(path.read_text()).body
                    if isinstance(node, ast.FunctionDef)}
        for path in SRC.glob("*.py")
    }
    verify = functions["cli"]["cmd_verify_certificate"]
    node = next(n for n in ast.walk(verify) if isinstance(n, ast.If) and "kind ==" in ast.unparse(n.test))
    branches = {}
    while isinstance(node, ast.If):
        branches[node.test.comparators[0].value] = node.body
        rest = node.orelse
        node = rest[0] if len(rest) == 1 else None
    # the last kind is the final else
    (last,) = set(CONSTRUCTORS) - set(branches)
    branches[last] = rest
    for kind, body in branches.items():
        module, constructor = CONSTRUCTORS[kind]
        checks = [call for call in _called(body) if call[1].startswith("verify_")]
        assert checks == [(module, checks[0][1])], (kind, checks)
        built = {name for _, name in _called(body)} & {"VerificationFailed", "SaturationFailed"}
        assert not built, (kind, built)
        called = _called([functions[module][constructor]])
        assert (None, checks[0][1]) in called, (kind, constructor)
        if module == "keyengine":
            built = {name for _, name in called} & {"VerificationFailed", "SaturationFailed"}
            assert not built, (constructor, built)


def test_sweep_cap_exceeded_is_raised_by_charge_only():
    # every --cap refusal is decided and worded by errors.charge, so no
    # other code constructs or raises SweepCapExceeded
    def sites(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            target = child.func if isinstance(child, ast.Call) else getattr(child, "exc", None)
            if isinstance(child, (ast.Call, ast.Raise)) and target is not None:
                name = getattr(target, "id", None) or getattr(target, "attr", None)
                if name == "SweepCapExceeded":
                    yield where
            yield from sites(child, inner)

    found = sorted(
        f"{path.name}:{where}"
        for path in SRC.rglob("*.py")
        for where in sites(ast.parse(path.read_text(), filename=str(path)), None)
    )
    assert found == ["errors.py:charge"], found


def test_spectral_phases_are_integers_past_the_parser():
    # PhaseUnitary's order and table are derived from the parsed phases in
    # one place, so they cannot drift apart; the certificate path then works
    # in integers, with Fraction left to parsing, JSON and the matrix layer
    def builds(node):
        return isinstance(node, ast.Call) and "PhaseUnitary" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}
    functions = {node.name: node for node in trees["spectral"].body if isinstance(node, ast.FunctionDef)}
    everywhere = sum(builds(node) for tree in trees.values() for node in ast.walk(tree))
    assert everywhere == sum(builds(node) for node in ast.walk(functions["phase_unitary"])) == 1
    integer_path = ["_phase_polys", "_check_budget", "limit_projection", "verify_limit_certificate"]
    found = [
        name
        for name in integer_path
        if any(isinstance(node, ast.Name) and node.id == "Fraction" for node in ast.walk(functions[name]))
    ]
    assert not found, found


def test_every_mutant_applies_once_and_names_existing_tests(monkeypatch):
    # tools/mutants.py replaces each old text, which must occur exactly once
    # and leave a file that still parses, and runs the named tests, which
    # must exist; the mutant runs themselves stay outside this suite
    root = SRC.parent.parent
    monkeypatch.syspath_prepend(str(root / "tools"))
    mutants = runpy.run_path(str(root / "tools" / "mutants.py"))["MUTANTS"]
    assert len({m.name for m in mutants}) == len(mutants)
    problems = []
    for m in mutants:
        source = (root / m.path).read_text()
        if source.count(m.old) != 1:
            problems.append(f"{m.name}: old text occurs {source.count(m.old)} times in {m.path}")
        else:
            ast.parse(source.replace(m.old, m.new), filename=m.path)
        for node_id in m.tests:
            path, *names = node_id.split("::")
            scope = ast.parse((root / path).read_text()).body
            for name in names:
                scope = next((node.body for node in scope if getattr(node, "name", None) == name), None)
                if scope is None:
                    problems.append(f"{m.name}: no test {node_id}")
                    break
    assert not problems, problems


def test_readme_names_every_tool_and_only_tools_that_exist():
    # a tool that goes must leave the docs, and a new one must enter them
    root = SRC.parent.parent
    named = set(re.findall(r"tools/([\w.]+\.py)", (root / "README.md").read_text()))
    present = {path.name for path in (root / "tools").iterdir() if path.is_file()}
    assert named == present, {"named, missing": named - present, "present, unnamed": present - named}
