"""The package namespace: every public name resolves, once; every module
parses at the declared Python floor; no module-level definition is reached
only from the tests."""

import ast
import re
from pathlib import Path

import hivealg


def test_every_export_resolves_and_is_listed_once():
    names = hivealg.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(hivealg, name)] == []


def test_every_definition_is_exported_or_used_in_the_library():
    """Each module-level function or class of src/hivealg is in __all__, or
    is named (as a name, an attribute or an import) somewhere in the
    package: a helper that only the tests call is dead code."""
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "hivealg").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in modules}
    named = {getattr(node, attr) for tree in trees.values() for node in ast.walk(tree)
             for kind, attr in ((ast.Name, "id"), (ast.Attribute, "attr"), (ast.alias, "name"))
             if isinstance(node, kind)}
    defined = [(stem, node.name) for stem, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert defined
    assert [f"{stem}.{name}" for stem, name in defined
            if name not in hivealg.__all__ and name not in named] == []


def test_every_module_parses_at_the_declared_python_floor():
    """pyproject.toml's requires-python floor, checked by parsing each module
    with that version's grammar (except*, for one, is rejected before 3.11)."""
    root = Path(__file__).resolve().parents[1]
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (root / "pyproject.toml").read_text())
    version = (int(floor[1]), int(floor[2]))
    modules = sorted((root / "src" / "hivealg").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
