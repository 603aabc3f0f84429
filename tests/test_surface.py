"""The package's public surface: the README's Library block runs and states
true values, every exported name and every function and method has a use
in the package or in that block, and no module imports a name it never
uses or a private name of another module."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

import duadic

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "duadic"

# Names whose only caller is still to come, or that only the benchmark's
# tracing hooks call. check_poly holds the package's only division; no
# command divides, and the long-division oracle is tests/_oracles.py's.
PENDING = {"sqrt_bounds": "ROADMAP item 1", "check_poly": "perfbench tracing target until ROADMAP item 2"}


def _library_block():
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert match, "README.md has no ```python block under ## Library"
    return match.group(1)


def _reference_sites(tree):
    """(name, line) of every Name or Attribute read in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _references(tree):
    """Names read as a Name or an Attribute anywhere in tree."""
    return {name for name, _ in _reference_sites(tree)}


def _package_sites():
    """Name -> the (module, line) of each place a module of the package reads it."""
    sites = defaultdict(set)
    for path in _modules():
        for name, line in _reference_sites(ast.parse(path.read_text())):
            sites[name].add((path.stem, line))
    return sites


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_readme_library_block_states_true_values():
    source = _library_block()
    namespace, values = {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            expr = ast.Expression(stmt.value)
            values[ast.get_source_segment(source, stmt)] = eval(compile(expr, "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)

    assert values["D.is_duadic(spec)"] is True
    T, code = namespace["T"], namespace["code"]
    assert (T.n, T.size) == (511, 255)
    assert (code.n, code.k) == (511, 256)
    verdict = values["D.classify(spec)"]
    assert (verdict.theorem, verdict.d_lower) == ("T4", 19)
    cert = values["D.best_certificate(T)"]
    assert (cert.v, cert.run_length, cert.d_lower) == (15, 18, 19)
    dual, ext = namespace["dual"], namespace["ext"]
    assert (dual.n, dual.k) == (511, 255) and dual.T == T.with_zero()
    assert (ext.n, ext.k) == (512, 256)
    assert values["D.is_self_dual(ext), D.is_doubly_even(ext)"] == (True, True)
    assert values["D.exact_min_distance(small).lower"] == 7
    assert values["D.weight_distribution(D.extend(small)).is_doubly_even"] is True


def _used_outside(name, home, definition, sites):
    """Whether the package reads name anywhere but on the lines of its definition in module home."""
    own = range(definition.lineno, definition.end_lineno + 1)
    return any(stem != home or line not in own for stem, line in sites[name])


def test_every_exported_name_has_a_use():
    trees = {p.stem: ast.parse(p.read_text()) for p in _modules()}
    sites = _package_sites()
    documented = _references(ast.parse(_library_block()))
    unused = []
    for name in duadic.__all__:
        if name in documented or name in PENDING:
            continue
        home = getattr(duadic, name).__module__.rpartition(".")[2]
        definition = next(
            node for node in trees[home].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        )
        if not _used_outside(name, home, definition, sites):
            unused.append(name)
    assert not unused, f"exported but used by no module and not in the README Library block: {unused}"


def test_every_function_and_method_has_a_use():
    # by name: a method counts as used when any module reads an attribute of its name
    sites = _package_sites()
    documented = _references(ast.parse(_library_block()))
    unused = [
        f"{path.stem}.{node.name}"
        for path in _modules()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in documented
        and node.name not in PENDING
        and not _used_outside(node.name, path.stem, node, sites)
    ]
    assert not unused, f"defined but used by no module and not in the README Library block: {unused}"


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    unused = sorted(imported - _references(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_no_module_imports_a_private_name():
    # a name another module needs is public in its home module
    private = [
        f"{path.name}: {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"private names imported across modules: {private}"


def test_all_is_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    assert sorted(duadic.__all__) == sorted(imported)
    assert len(duadic.__all__) == len(set(duadic.__all__))
