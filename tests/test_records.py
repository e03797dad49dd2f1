"""The package's record types: immutable and printed as pinned; and
the imports they cost a short-lived CLI process."""

import subprocess
import sys
from pathlib import Path

import pytest

import hivealg
from hivealg.cone import presentation
from hivealg.hive import Hive
from hivealg.polynomial import ColumnTableau
from hivealg.report import CheckResult
from hivealg.tableau import hive_to_tableau
from hivealg.tensor_algebra import build_generators, highest_weight_vector


H1 = presentation(2).basis[0]
# one instance of each record type, with the name of its first field
RECORDS = [
    (H1, "n"),
    (ColumnTableau(1, (2,)), "empty"),
    (hive_to_tableau(H1), "outer"),
    (CheckResult("a check", True), "name"),
    (presentation(4).relations[0], "name"),
    (presentation(2), "n"),
    (build_generators(2), "n"),
    (highest_weight_vector(2, H1), "boundary"),
]


@pytest.mark.parametrize("record, name", RECORDS,
                         ids=[type(record).__name__ for record, _ in RECORDS])
def test_assigning_a_field_raises(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):  # no instance dict either: each record is a bare tuple
        record.extra = 0


def test_hive_sum_is_entrywise_and_a_hive():
    g, h = presentation(2).basis[:2]
    total = g + h
    assert type(total) is Hive
    assert total.n == 2 and total.flat == tuple(a + b for a, b in zip(g.flat, h.flat))


def test_hive_repr_is_pinned():
    assert repr(H1) == "Hive(n=2, flat=(0, 0, 1, 0, 1, 2))"


def test_check_result_detail_defaults_to_empty():
    assert CheckResult("a check", False).detail == ""


def test_import_loads_no_heavy_module():
    # dataclasses pulls in inspect, ast, dis and tokenize, fractions pulls
    # in decimal, linecache tokenize, and typing is most of a bare import;
    # every CLI run would pay for them before any work.  The shipped
    # kernels load at their first use.
    src = str(Path(hivealg.__file__).resolve().parents[1])
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "linecache", "typing",
             "hivealg._kernels"}
    code = (f"import sys; sys.path.insert(0, {src!r}); import hivealg, hivealg.cli; "
            f"print(*sorted({heavy!r} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []
