"""The package namespace: every public name resolves, once; every module
parses at the declared Python floor."""

import ast
import re
from pathlib import Path

import hivealg


def test_every_export_resolves_and_is_listed_once():
    names = hivealg.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(hivealg, name)] == []


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
