"""The generated code: the hive kernel (counting._kernel) and the cone
membership predicate (hive.membership).  Both build at every rank and their
source is inspectable; counts agree with enumeration and with the tableau
route, also at ranks too deep for one nested loop, and membership agrees
with a row-by-row reading of cone_rows."""

import inspect
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivealg import counting, hive
from hivealg.cone import hives_up_to_degree
from hivealg.counting import (_kernel, enumerate_hives, lr_coefficient,
                              lr_via_tableaux)
from hivealg.hive import cone_rows, hive_violations, in_cone, membership, triangle_size
from hivealg.shapes import partitions_of


@pytest.mark.parametrize("count", [True, False])
def test_kernel_builds_for_every_rank(count):
    for n in range(1, 11):
        assert callable(_kernel(n, count))


def test_kernel_source_is_inspectable():
    kernel = _kernel(4, True)
    source = inspect.getsource(kernel)
    assert kernel.__code__.co_filename == "<hivealg kernel n=4 count>"
    # bounds of the first interior entry, h[3][2] = a[4]
    assert "lo = max(a[5] + a[1] - a[2], a[3] + a[2] - a[1])" in source
    assert "hi = a[1] + a[2] - a[0]" in source


def test_kernel_rejects_coefficients_other_than_one(monkeypatch):
    # rank 3's one interior entry a[4], with a lower bound row 2 * a[4] - a[1] >= 0
    row_bounds, interior, boundary_only, attached = counting._fill_plan(3)
    bad = ((2, ((1, -1),)),) + attached[0]
    monkeypatch.setattr(counting, "_fill_plan",
                        lambda n: (row_bounds, interior, boundary_only, (bad,)))
    with pytest.raises(ValueError, match="coefficient other than"):
        counting._kernel_source(3, True)


@pytest.mark.parametrize("n, lam, mu, nu, expected", [
    (8, (6, 4, 3, 2, 2, 1, 1), (4, 3, 2, 1), (3, 2, 2, 1, 1), 10),
    (8, (4, 3, 2, 2, 1, 1, 1, 1), (3, 2, 1, 1), (2, 2, 1, 1, 1, 1), 4),
    (9, (5, 3, 3, 2, 2, 1, 1), (3, 2, 2, 1, 1), (3, 2, 1, 1, 1), 6),
    (9, (4, 3, 3, 2, 2, 1, 1, 1, 1), (3, 2, 1, 1, 1), (2, 2, 2, 1, 1, 1, 1), 4),
])
def test_deep_ranks_agree_with_tableaux(n, lam, mu, nu, expected):
    assert lr_via_tableaux(n, lam, mu, nu) == expected
    assert lr_coefficient(n, lam, mu, nu) == expected
    assert len(enumerate_hives(n, lam, mu, nu)) == expected


@st.composite
def dominant_triples(draw):
    """(n, lam, mu, nu) with |lam| = |mu| + |nu|, all with at most n parts."""
    n = draw(st.integers(2, 6))
    mu = draw(st.sampled_from(partitions_of(draw(st.integers(0, 7)), n)))
    nu = draw(st.sampled_from(partitions_of(draw(st.integers(0, 7)), n)))
    lam = draw(st.sampled_from(partitions_of(sum(mu) + sum(nu), n)))
    return n, lam, mu, nu


@settings(max_examples=150, deadline=None)
@given(dominant_triples())
def test_count_equals_enumeration_and_tableaux(triple):
    n, lam, mu, nu = triple
    c = lr_coefficient(n, lam, mu, nu)
    assert c == len(enumerate_hives(n, lam, mu, nu)) == lr_via_tableaux(n, lam, mu, nu)


@settings(max_examples=150, deadline=None)
@given(dominant_triples())
def test_swapping_mu_and_nu_keeps_the_coefficient(triple):
    # enumerate_hives keeps the order it is given, unlike the cached count
    n, lam, mu, nu = triple
    assert (len(enumerate_hives(n, lam, mu, nu)) == len(enumerate_hives(n, lam, nu, mu))
            == lr_coefficient(n, lam, nu, mu))


# ---------------------------------------------------------------------------
# The membership predicate

def interpreted_in_cone(flat, n):
    """The membership test as it read before it was generated: the apex,
    then each cone row summed term by term."""
    if flat[0]:
        return False
    for _kind, _i, _j, terms in cone_rows(n):
        if sum(c * flat[k] for k, c in terms) < 0:
            return False
    return True


def rows_of(flat, n):
    starts = [i * (i - 1) // 2 for i in range(1, n + 3)]
    return [flat[a:b] for a, b in zip(starts, starts[1:])]


def test_in_cone_builds_for_every_rank():
    for n in range(1, 11):
        assert membership(n)((0,) * triangle_size(n)) is True


def test_in_cone_source_is_inspectable():
    predicate = membership(4)
    source = inspect.getsource(predicate)
    assert predicate.__code__.co_filename == "<hivealg in_cone n=4>"
    assert "    return (a[0] == 0\n" in source
    # rhombus family 2 at (i, j) = (2, 1): h[2][1] + h[2][2] >= h[3][2] + h[1][1]
    assert "            and a[1] + a[2] - a[4] - a[0] >= 0\n" in source


@pytest.mark.parametrize("n", range(1, 7))
def test_in_cone_source_lists_every_row_in_order(n):
    # read each row line back into {flat index: coeff}, independently of _linear
    lines = [line for line in inspect.getsource(membership(n)).splitlines()
             if line.endswith(">= 0") or line.endswith(">= 0)")]
    read = [{int(k): (-1 if sign == "-" else 1)
             for sign, k in re.findall(r"(-?)\s*a\[(\d+)\]", line)} for line in lines]
    assert read == [dict(terms) for *_, terms in cone_rows(n)]


def test_in_cone_rejects_coefficients_other_than_one(monkeypatch):
    original = cone_rows(4)
    kind, i, j, terms = original[-1]
    bad = original[:-1] + ((kind, i, j, ((terms[0][0], 2),) + terms[1:]),)
    monkeypatch.setattr(hive, "cone_rows", lambda n: bad)
    with pytest.raises(ValueError, match="coefficient other than"):
        hive._in_cone_source(4)


@pytest.mark.parametrize("n", range(1, 7))
def test_in_cone_zero_and_shifted_arrays(n):
    size = triangle_size(n)
    assert in_cone([0] * size, n)   # every row holds with equality
    # each row's coefficients sum to 0, so a constant shift fails the apex only
    assert [v.kind for v in hive_violations(rows_of([1] * size, n))] == ["apex"]
    assert not in_cone([1] * size, n)


@pytest.mark.parametrize("n", range(1, 5))
def test_in_cone_rejects_each_row_failing_alone(n):
    """Single-entry moves of hives of degree <= 6 that fail exactly one cone
    row; they reach every row that the other rows do not imply."""
    failing_alone = set()
    for h in hives_up_to_degree(n, 6):
        flat = list(h.to_flat())
        for k in range(1, len(flat)):
            for step in (-1, 1):
                moved = flat[:k] + [flat[k] + step] + flat[k + 1:]
                found = hive_violations(rows_of(moved, n))
                if len(found) == 1:
                    assert not in_cone(moved, n)
                    failing_alone.add((found[0].kind, found[0].i, found[0].j))
    # the rhombus rows make every edge decrease and give
    # lambda_n >= mu_n + nu_n, so only the edge rows of part n are needed
    needed = {(kind, i, j) for kind, i, j, _ in cone_rows(n)
              if kind.startswith("rhombus") or (kind in ("mu", "nu") and i == n)}
    assert failing_alone == needed


@st.composite
def membership_cases(draw):
    """(n, flat): random small entries, or a hive of degree <= 4 with up to
    three entries moved by +-1, for n = 1..6."""
    n = draw(st.integers(1, 6))
    size = triangle_size(n)
    if draw(st.booleans()):
        return n, draw(st.lists(st.integers(-2, 4), min_size=size, max_size=size))
    flat = list(draw(st.sampled_from(hives_up_to_degree(n, 4 if n <= 4 else 3))).to_flat())
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, size - 1))] += draw(st.sampled_from((-1, 1)))
    return n, draw(st.sampled_from((list, tuple)))(flat)


@settings(max_examples=500, deadline=None)
@given(membership_cases())
def test_in_cone_agrees_with_interpreted_rows(case):
    n, flat = case
    assert in_cone(flat, n) == membership(n)(flat) == interpreted_in_cone(flat, n)
