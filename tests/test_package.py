"""The package namespace: every public name resolves, once; every module
parses at the declared Python floor; no module-level definition, method or
property is reached only from the tests."""

import ast
import importlib
import re
from pathlib import Path

import hivealg

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves_and_is_listed_once():
    names = hivealg.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(hivealg, name)] == []


def test_every_definition_is_exported_or_used_in_the_library():
    """Each module-level function or class of src/hivealg is in __all__, or
    is named (as a name, an attribute or an import) somewhere in the
    package: a helper that only the tests call is dead code."""
    modules = sorted((ROOT / "src" / "hivealg").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in modules}
    named = {getattr(node, attr) for tree in trees.values() for node in ast.walk(tree)
             for kind, attr in ((ast.Name, "id"), (ast.Attribute, "attr"), (ast.alias, "name"))
             if isinstance(node, kind)}
    defined = [(stem, node.name) for stem, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert defined
    assert [f"{stem}.{name}" for stem, name in defined
            if name not in hivealg.__all__ and name not in named] == []


def test_every_method_is_used_in_the_library_or_the_bench():
    """Each method or property of a class in src/hivealg is read as an
    attribute somewhere in src/hivealg or hivebench/.  Dunders, which Python
    calls by operator, and overrides of a base-class method are exempt."""
    modules = sorted((ROOT / "src" / "hivealg").glob("*.py"))
    used = {node.attr for path in modules + sorted((ROOT / "hivebench").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}
    methods = []
    for path in modules:
        module = importlib.import_module(f"hivealg.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                methods += [(f"{path.stem}.{node.name}.{item.name}", item.name, bases)
                            for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert methods
    assert [label for label, name, bases in methods
            if not (name.startswith("__") and name.endswith("__"))
            and not any(hasattr(base, name) for base in bases) and name not in used] == []


def test_every_module_parses_at_the_declared_python_floor():
    """pyproject.toml's requires-python floor, checked by parsing each module
    with that version's grammar (except*, for one, is rejected before 3.11)."""
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    version = (int(floor[1]), int(floor[2]))
    modules = sorted((ROOT / "src" / "hivealg").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
