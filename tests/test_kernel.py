"""The compiled hive kernel (counting._kernel): it builds at every rank,
its source is inspectable, and counts agree with enumeration and with the
tableau route, also at ranks too deep for one nested loop."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivealg import counting
from hivealg.counting import (_kernel, enumerate_hives, lr_coefficient,
                              lr_via_tableaux)
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
