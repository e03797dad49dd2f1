"""Property tests of the one list of hive conditions (hive.cone_rows): the
violation report and decomposition, which no array outside the cone passes,
agree; and of the flat storage of Hive against rows read off by row length."""

from functools import cache
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hivealg.cone import (NoDecompositionError, decompose, hives_up_to_degree,
                          presentation)
from hivealg.hive import (Hive, InvalidHiveError, cone_rows, flat_index,
                          hive_violations, triangle_size)

RANKS = st.integers(2, 5)
hive_pool = cache(hives_up_to_degree)  # drawn from on every example


def decomposes(flat, n):
    """Whether the array decomposes over the pinned rank-n basis (n = 2..4),
    which, the basis being complete, is whether it is a hive."""
    try:
        decompose(Hive(n, tuple(flat)), presentation(n))
    except NoDecompositionError:
        return False
    return True


def zero_hive(n):
    """The hive of degree 0: every entry 0."""
    return Hive.from_flat((0,) * triangle_size(n))


def rows_of(flat, n):
    """Rows of lengths 1..n+1, cut from the flat coordinates in turn."""
    entries = iter(flat)
    return tuple(tuple(islice(entries, i)) for i in range(1, n + 2))


def edges_of(flat, n):
    """(lambda, mu, nu) read off the rows: the right edge, the left edge and
    the bottom row."""
    rows = rows_of(flat, n)
    lam = tuple(rows[i + 1][i + 1] - rows[i][i] for i in range(n))
    mu = tuple(rows[i + 1][0] - rows[i][0] for i in range(n))
    nu = tuple(rows[n][j + 1] - rows[n][j] for j in range(n))
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
    flat = list(draw(st.sampled_from(hive_pool(n, 5))).to_flat())
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, len(flat) - 1))] += draw(st.sampled_from((-1, 1)))
    return n, flat


arrays = st.one_of(random_arrays(), perturbed_hives())


@settings(max_examples=400)
@given(arrays)
def test_decompose_agrees_with_violation_report(case):
    n, flat = case
    assume(n <= 4)
    assert decomposes(flat, n) == (flat[0] == 0 and hive_violations(rows_of(flat, n)) == [])


@settings(max_examples=300)
@given(arrays)
def test_increasing_edge_is_rejected_by_a_rhombus(case):
    n, flat = case
    assume(any(a < b for edge in edges_of(flat, n) for a, b in zip(edge, edge[1:])))
    found = hive_violations(rows_of(flat, n))
    assert any(v.kind.startswith("rhombus") for v in found)
    assert n > 4 or not decomposes(flat, n)
    with pytest.raises(InvalidHiveError):
        Hive.from_rows(rows_of(flat, n))


@st.composite
def hive_pairs(draw):
    """Two hives of one rank n = 1..5 and degree <= 6."""
    pool = hive_pool(draw(st.integers(1, 5)), 6)
    return draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@settings(max_examples=300)
@given(hive_pairs())
def test_flat_hive_reads_as_its_rows(pair):
    a, b = pair
    n = a.n
    rows = rows_of(a.flat, n)
    assert a.rows == rows and a.to_flat() == a.flat
    assert Hive.from_rows(a.rows) == a and Hive.from_flat(a.to_flat()) == a
    assert all(a.flat[flat_index(i, j)] == rows[i - 1][j - 1]
               for i in range(1, n + 2) for j in range(1, i + 1))
    assert a.degree == rows[-1][-1]
    assert a.boundary() == edges_of(a.flat, n)
    total = a + b
    assert total.n == n and total.flat == tuple(x + y for x, y in zip(a.flat, b.flat))
    assert total.boundary() == edges_of(total.flat, n)


@st.composite
def basis_sums(draw, ranks=(3, 4), max_size=12):
    n = draw(st.sampled_from(ranks))
    picks = draw(st.lists(st.integers(1, len(presentation(n).basis)), max_size=max_size))
    return n, picks


@settings(max_examples=150)
@given(basis_sums())
def test_decompose_sums_back_to_the_hive(case):
    n, picks = case
    basis = presentation(n).basis
    hive = sum((basis[k - 1] for k in picks), zero_hive(n))
    indices = decompose(hive, presentation(n))
    assert sum((basis[k - 1] for k in indices), zero_hive(n)) == hive


def interpreted_decompositions(hive, pres, first_only):
    """The decomposition search as it read before it was generated: each
    trial subtraction is summed row by row over cone_rows.  With
    first_only it stops at the first decomposition found; without, it returns
    the hive's fibre, its full set of decompositions."""
    n = pres.n
    rows = [terms for *_, terms in cone_rows(n)]
    basis_flats = [b.to_flat() for b in pres.basis]
    zero = (0,) * triangle_size(n)
    found = set()

    def member(flat):
        return not flat[0] and all(sum(c * flat[k] for k, c in terms) >= 0 for terms in rows)

    def search(flat, k, picked):
        if flat == zero:
            found.add(tuple(picked))
            return True
        if k == len(basis_flats):
            return False
        stack = [flat]
        current = flat
        while True:
            current = tuple(a - b for a, b in zip(current, basis_flats[k]))
            if not member(current):
                break
            stack.append(current)
        for count in range(len(stack) - 1, -1, -1):
            picked.extend([k + 1] * count)
            done = search(stack[count], k + 1, picked)
            del picked[len(picked) - count:]
            if done and first_only:
                return True
        return False

    search(hive.to_flat(), 0, [])
    return found


@settings(max_examples=60)
@given(basis_sums())
def test_decompositions_equal_the_interpreted_search(case):
    n, picks = case
    pres = presentation(n)
    hive = sum((pres.basis[k - 1] for k in picks), zero_hive(n))
    assert {decompose(hive, pres)} == interpreted_decompositions(hive, pres, True)


@settings(max_examples=60)
@given(basis_sums(ranks=(2, 3, 4), max_size=8))
def test_decompose_takes_the_greatest_exponent_vector(case):
    # at most 8 summands: the fibre, and the oracle's time, grow fast with their number
    n, picks = case
    pres = presentation(n)
    hive = sum((pres.basis[k - 1] for k in picks), zero_hive(n))

    def exponents(indices):
        return tuple(indices.count(k) for k in range(1, len(pres.basis) + 1))

    assert decompose(hive, pres) == max(interpreted_decompositions(hive, pres, False),
                                        key=exponents)


def test_apex_one_array_has_no_decomposition():
    # a valid hive shifted by one everywhere: every row holds, the apex fails
    flat = [v + 1 for v in presentation(4).basis[16].to_flat()]
    shifted = Hive(4, tuple(flat))
    assert shifted.flat[0] == 1
    assert interpreted_decompositions(shifted, presentation(4), False) == set()
    with pytest.raises(NoDecompositionError):
        decompose(shifted, presentation(4))
    # shifted by -1, a basis hive of degree 1 keeps its rows and has degree
    # 0: a search that read the degree alone would return ()
    for b in presentation(4).basis:
        shifted = Hive(4, tuple(v - 1 for v in b.flat))
        assert shifted.flat[0] == -1
        with pytest.raises(NoDecompositionError):
            decompose(shifted, presentation(4))
