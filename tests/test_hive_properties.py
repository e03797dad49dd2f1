"""Property tests of the one list of hive conditions (hive.cone_rows): the
membership predicate, the violation report and decomposition agree."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hivealg.cone import decompose, hives_up_to_degree, presentation
from hivealg.hive import (Hive, InvalidHiveError, flat_index, hive_violations,
                          in_cone, triangle_size)

RANKS = st.integers(2, 5)


def rows_of(flat, n):
    return [flat[flat_index(i, 1):flat_index(i + 1, 1)] for i in range(1, n + 2)]


def edges_of(flat, n):
    """(lambda, mu, nu) read off the array as in Hive.boundary()."""
    rows = rows_of(flat, n)
    lam = [rows[i + 1][i + 1] - rows[i][i] for i in range(n)]
    mu = [rows[i + 1][0] - rows[i][0] for i in range(n)]
    nu = [rows[n][j + 1] - rows[n][j] for j in range(n)]
    return lam, mu, nu


@st.composite
def random_arrays(draw):
    n = draw(RANKS)
    size = triangle_size(n)
    return n, draw(st.lists(st.integers(-2, 4), min_size=size, max_size=size))


@st.composite
def perturbed_hives(draw):
    """A hive of degree <= 5 with up to three entries moved by +-1."""
    n = draw(RANKS)
    flat = list(draw(st.sampled_from(hives_up_to_degree(n, 5))).to_flat())
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, len(flat) - 1))] += draw(st.sampled_from((-1, 1)))
    return n, flat


arrays = st.one_of(random_arrays(), perturbed_hives())


@settings(max_examples=400, deadline=None)
@given(arrays)
def test_in_cone_agrees_with_violation_report(case):
    n, flat = case
    assert in_cone(flat, n) == (flat[0] == 0 and hive_violations(rows_of(flat, n)) == [])


@settings(max_examples=300, deadline=None)
@given(arrays)
def test_increasing_edge_is_rejected_by_a_rhombus(case):
    n, flat = case
    assume(any(a < b for edge in edges_of(flat, n) for a, b in zip(edge, edge[1:])))
    found = hive_violations(rows_of(flat, n))
    assert any(v.kind.startswith("rhombus") for v in found)
    assert not in_cone(flat, n)
    with pytest.raises(InvalidHiveError):
        Hive.from_rows(rows_of(flat, n))


@st.composite
def basis_sums(draw):
    n = draw(st.sampled_from((3, 4)))
    picks = draw(st.lists(st.integers(1, len(presentation(n).basis)), max_size=12))
    return n, picks


@settings(max_examples=150, deadline=None)
@given(basis_sums())
def test_decompose_sums_back_to_the_hive(case):
    n, picks = case
    basis = presentation(n).basis
    hive = sum((basis[k - 1] for k in picks), Hive.zero(n))
    indices = decompose(hive, presentation(n))
    assert sum((basis[k - 1] for k in indices), Hive.zero(n)) == hive
