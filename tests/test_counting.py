import importlib
import pkgutil
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hivealg
from hivealg import cone, polynomial, shapes, tensor_algebra
from hivealg.counting import (SERIES_DENOMINATOR, SERIES_NUMERATOR, enumerate_hives,
                              hp_series_closed_form, hp_series_enumerated,
                              hp_series_reference, lr_coefficient, lr_via_schur,
                              lr_via_tableaux, md_sum)
from hivealg.hive import Hive, cone_rows
from hivealg.shapes import contains, is_dominant, normalize, pad, partitions_of
from hivealg.tableau import enumerate_tableaux


def test_lr_coefficient_examples():
    assert lr_coefficient(3, (3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coefficient(2, (1, 1), (1,), (1,)) == 1
    # the tableau oracle fixes the value for the size-mismatched triple
    assert lr_via_tableaux(4, (2, 1), (1,), (1,)) == 0
    assert lr_coefficient(4, (2, 1), (1,), (1,)) == 0


def test_lr_coefficient_rejects_non_partitions():
    with pytest.raises(ValueError):
        lr_coefficient(3, (1, 2), (1,), (1, 1))
    with pytest.raises(ValueError):
        lr_via_schur(3, (2, 1), (-1,), (2, 1, 1))


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("call", [
    lambda n: lr_coefficient(n, (), (), ()),
    lambda n: enumerate_hives(n, (), (), ()),
    lambda n: lr_via_tableaux(n, (), (), ()),
    lambda n: lr_via_schur(n, (), (), ()),
    lambda n: md_sum(n, 0),
    lambda n: hp_series_enumerated(n, 2),
    lambda n: cone.hives_up_to_degree(n, 3),
    lambda n: cone.hilbert_basis(n, 3),
], ids=["lr_coefficient", "enumerate_hives", "lr_via_tableaux", "lr_via_schur",
        "md_sum", "hp_series_enumerated", "hives_up_to_degree", "hilbert_basis"])
def test_counting_rejects_rank_below_one(call, n):
    with pytest.raises(ValueError, match="rank must be >= 1"):
        call(n)


def test_lr_symmetric_in_mu_nu():
    assert (lr_coefficient(3, (4, 2, 1), (2, 1), (3, 1))
            == lr_coefficient(3, (4, 2, 1), (3, 1), (2, 1))
            == lr_via_tableaux(3, (4, 2, 1), (3, 1), (2, 1)))


def test_enumerate_hives_worked_example():
    hives = enumerate_hives(3, (3, 2, 1), (2, 1), (2, 1))
    assert {h.rows for h in hives} == {
        ((0,), (2, 3), (3, 4, 5), (3, 5, 6, 6)),
        ((0,), (2, 3), (3, 5, 5), (3, 5, 6, 6)),
    }


def test_enumerate_hives_empty_on_size_mismatch():
    assert enumerate_hives(3, (2, 1), (1,), (1, 1, 1)) == []
    assert enumerate_hives(2, (1,), (), (2,)) == []


def test_rank2_coefficients_are_at_most_one():
    for d in range(7):
        for lam in partitions_of(d, 2):
            for j in range(d + 1):
                for mu in partitions_of(j, 2):
                    for nu in partitions_of(d - j, 2):
                        hives = enumerate_hives(2, lam, mu, nu)
                        assert len(hives) <= 1
                        assert len(hives) == lr_via_tableaux(2, lam, mu, nu)


def test_md_sums():
    assert md_sum(2, 3) == 10
    assert md_sum(3, 3) == 14
    assert md_sum(4, 4) == 34


@pytest.mark.parametrize("n", range(1, 7))
def test_md_sum_equals_lr_coefficients_over_the_sweep(n):
    # md_sum counts only the pairs with |mu| <= |nu|, the lambda edge free;
    # the full sum of lr_coefficient over every admitted triple is the oracle
    for d in range(8):
        assert md_sum(n, d) == sum(lr_coefficient(n, *t) for t in swept_triples(n, d))


@pytest.mark.parametrize("n", range(1, 6))
def test_hives_up_to_degree_equals_enumeration_over_the_sweep(n):
    # the pairs kernel frees the lambda edge; the oracle enumerates each
    # admitted triple with the fixed-lambda kernel
    flats = sorted((h.to_flat() for d in range(7) for t in swept_triples(n, d)
                    for h in enumerate_hives(n, *t)), key=lambda flat: (flat[-1], flat))
    assert [h.to_flat() for h in cone.hives_up_to_degree(n, 6)] == flats


@pytest.mark.parametrize("n", range(1, 9))
def test_det_hives_have_every_rhombus_row_at_slack_zero(n):
    # X = det X, h[i][j] = i - 1, and Y = det Y, h[i][j] = j - 1: subtracting
    # mu_n X + nu_n Y from a hive keeps its rhombus rows and lowers its
    # edges, the bijection behind the reduced series sweep
    rows = [range(1, i + 1) for i in range(1, n + 2)]
    X = Hive.from_flat(i - 1 for i, row in enumerate(rows, 1) for _ in row)
    Y = Hive.from_flat(j - 1 for row in rows for j in row)
    ones = (1,) * n
    assert (X.boundary(), Y.boundary()) == ((ones, ones, (0,) * n), (ones, (0,) * n, ones))
    for kind, *_, terms in cone_rows(n):
        if kind.startswith("rhombus"):
            assert sum(c * X.flat[k] for k, c in terms) == 0
            assert sum(c * Y.flat[k] for k, c in terms) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_hp_series_enumerated_equals_md_sum_per_degree(n):
    # the series convolves the reduced sums by prefix passes; md_sum reads
    # them at d, d - n, d - 2n, ...; degree 2n + 1 reaches k = 2
    top = 2 * n + 1
    assert hp_series_enumerated(n, top) == tuple(md_sum(n, d) for d in range(top + 1))


def test_hp_series_enumerated_rank5_prefix():
    # m_d for GL(5), d = 0..11, counted by LR tableaux, a route that shares
    # no code with the hive count; from d = 10 on, m_d holds a reduced sum
    # with k = 2 (m'_(d - 10), three times)
    assert hp_series_enumerated(5, 11) == (
        1, 2, 6, 14, 34, 74, 157, 316, 625, 1190, 2220, 4030)


def test_hp_series_enumerated_prefixes():
    assert hp_series_enumerated(2, 5) == (1, 2, 6, 10, 20, 30)
    assert hp_series_enumerated(3, 5) == (1, 2, 6, 14, 29, 56)
    assert hp_series_enumerated(4, 5) == (1, 2, 6, 14, 34, 68)


@pytest.mark.parametrize("call", [
    lambda: hp_series_enumerated(2, -1),
    lambda: hp_series_closed_form((1,), (1,), -1),
], ids=["enumerated", "closed_form"])
def test_series_reject_a_negative_degree(call):
    with pytest.raises(ValueError, match="max_degree must be >= 0"):
        call()


def test_closed_form_geometric_series():
    assert hp_series_closed_form((1,), (1,), 6) == (1,) * 7


def test_closed_form_matches_enumeration_at_rank_2():
    assert (hp_series_closed_form((1,), (1, 1, 2, 2, 2), 9)
            == hp_series_enumerated(2, 9)
            == (1, 2, 6, 10, 20, 30, 50, 70, 105, 140))


def test_closed_form_rank4_prefix():
    assert hp_series_reference(4, 9) == (1, 2, 6, 14, 34, 68, 142, 268, 508, 902)


def test_closed_form_matches_enumeration_at_rank_4_to_degree_16():
    # acceptance criterion 2 stops at degree 9; degrees 10..16 also check
    # the numerator coefficients N_10..N_16, and through the palindrome
    # N_16..N_22
    assert hp_series_reference(4, 16) == hp_series_enumerated(4, 16)


def test_rank4_numerator_is_palindromic():
    coeffs = SERIES_NUMERATOR[4]
    assert len(coeffs) == 33
    assert coeffs == tuple(reversed(coeffs))


def test_closed_form_rejects_bad_exponents():
    with pytest.raises(ValueError):
        hp_series_closed_form((1,), (0,), 3)
    with pytest.raises(ValueError):
        hp_series_reference(5, 3)


@pytest.mark.parametrize("numerator, exponents, message", [
    ((1.5, 0.9), (1,), "numerator coefficient 1.5 is not an integer"),
    ((Fraction(1, 2),), (1,), "numerator coefficient Fraction(1, 2) is not an integer"),
    (("2",), (1,), "numerator coefficient '2' is not an integer"),
    ((1,), (1.5,), "denominator exponent 1.5 is not an integer"),
    ((1,), ("2",), "denominator exponent '2' is not an integer"),
])
def test_closed_form_rejects_non_integers(numerator, exponents, message):
    with pytest.raises(ValueError) as err:
        hp_series_closed_form(numerator, exponents, 3)
    assert str(err.value) == message


@pytest.mark.parametrize("function, args, message", [
    (hp_series_closed_form, ((1,), (1,), 2.5), "max_degree 2.5 is not an integer"),
    (hp_series_enumerated, (3, 2.5), "max_degree 2.5 is not an integer"),
    (md_sum, (3, 2.5), "degree 2.5 is not an integer"),
    (cone.hives_up_to_degree, (3, 2.5), "max_degree 2.5 is not an integer"),
    (cone.hilbert_basis, (3, 2.5), "max_degree 2.5 is not an integer"),
    (cone.hilbert_basis, (3, "12"), "max_degree '12' is not an integer"),
    (cone.hives_up_to_degree, (3, [2]), "max_degree [2] is not an integer"),
])
def test_degree_bounds_reject_non_integers(function, args, message):
    with pytest.raises(ValueError) as err:
        function(*args)
    assert str(err.value) == message


TRIPLE = ((2, 1), (1,), (1,))


@pytest.mark.parametrize("function, args, message", [
    (lr_coefficient, ("3", *TRIPLE), "rank '3' is not an integer"),
    (lr_coefficient, (2.5, *TRIPLE), "rank 2.5 is not an integer"),
    (enumerate_hives, (2.5, *TRIPLE), "rank 2.5 is not an integer"),
    (lr_via_tableaux, (2.5, *TRIPLE), "rank 2.5 is not an integer"),
    (lr_via_schur, (2.5, *TRIPLE), "rank 2.5 is not an integer"),
    (md_sum, (2.5, 3), "rank 2.5 is not an integer"),
    (hp_series_enumerated, (2.5, 3), "rank 2.5 is not an integer"),
    (cone.hives_up_to_degree, (2.5, 3), "rank 2.5 is not an integer"),
    (cone.hilbert_basis, (None, 3), "rank None is not an integer"),
    (cone.hilbert_basis, ([2], 3), "rank [2] is not an integer"),
    (cone.inequalities_input_text, (2.5,), "rank 2.5 is not an integer"),
    (enumerate_tableaux, (2.5, *TRIPLE), "rank 2.5 is not an integer"),
    (enumerate_tableaux, (0, *TRIPLE), "rank must be >= 1"),
    (cone.presentation, ([2],), "rank [2] is not an integer"),
    (cone.presentation, (2.0,), "rank 2.0 is not an integer"),
    (tensor_algebra.build_generators, ([2],), "rank [2] is not an integer"),
    (tensor_algebra.build_generators, (2.0,), "rank 2.0 is not an integer"),
])
def test_ranks_reject_non_integers(function, args, message):
    with pytest.raises(ValueError) as err:
        function(*args)
    assert str(err.value) == message


def test_denominator_degree_counts():
    assert sorted(SERIES_DENOMINATOR[3]) == [1, 1, 2, 2, 2, 3, 3, 3, 3, 4]
    assert sorted(SERIES_DENOMINATOR[4]) == [1] * 4 + [2] * 6 + [12] * 4


def test_schur_oracle_pieri_case():
    assert lr_via_schur(2, (2,), (1,), (1,)) == 1
    assert lr_via_schur(2, (1, 1), (1,), (1,)) == 1


def test_schur_oracle_worked_example():
    assert lr_via_schur(3, (3, 2, 1), (2, 1), (2, 1)) == 2


def test_schur_oracle_homogeneity():
    assert lr_via_schur(3, (3, 1), (1,), (1,)) == 0


def test_schur_oracle_sums_over_the_shorter_part():
    # Pieri: lam / mu is a horizontal strip of two cells.  With nu = (2,) the
    # Jacobi-Trudi sum has 1! terms, in either order of mu and nu; over mu,
    # of length 9, it would have 9! = 362,880
    mu, nu = tuple(range(9, 0, -1)), (2,)
    lam = (10, *mu[1:], 1)
    for pair in ((mu, nu), (nu, mu)):
        start = time.process_time()
        assert lr_via_schur(10, lam, *pair) == 1
        assert time.process_time() - start < 0.5, pair


def test_schur_oracle_cost_does_not_grow_with_the_rank():
    # the partitions are worked at length l(lam), not padded to n
    start = time.process_time()
    assert lr_via_schur(4000, (3, 2, 1), (2, 1), (2, 1)) == 2
    assert time.process_time() - start < 0.1
    assert lr_via_schur(4000, (2,), (1, 1), ()) == 0  # mu is longer than lam


def test_schur_oracle_expands_by_column_subsets():
    # both parts of length 9: 2^9 = 512 column sets, where a sum over S_9
    # would take 9! = 362,880 terms
    start = time.process_time()
    assert lr_via_schur(9, (2,) * 9, (1,) * 9, (1,) * 9) == 1
    assert time.process_time() - start < 0.5


def test_three_routes_agree_on_spot_checks():
    triples = [
        (3, (4, 2), (2, 1), (2, 1)),
        (4, (3, 2, 1), (2, 1), (2, 1)),
        (4, (2, 2, 1, 1), (1, 1), (2, 1, 1)),
        (2, (4, 2), (2, 1), (2, 1)),
    ]
    for n, lam, mu, nu in triples:
        a = lr_coefficient(n, lam, mu, nu)
        assert a == lr_via_tableaux(n, lam, mu, nu) == lr_via_schur(n, lam, mu, nu)


def swept_triples(n, d):
    """Oracle: every padded (lam, mu, nu) of degree d that can carry a hive
    (lam contains mu and nu, lam_1 <= mu_1 + nu_1), every (mu, nu) pair
    against every lam, tested one by one."""
    lams = [pad(lam, n) for lam in partitions_of(d, n)]
    return [(lam, mu, nu)
            for j in range(d + 1)
            for mu in (pad(p, n) for p in partitions_of(j, n))
            for nu in (pad(p, n) for p in partitions_of(d - j, n))
            for lam in lams
            if lam[0] <= mu[0] + nu[0] and contains(lam, mu) and contains(lam, nu)]


def normalized_boundary_triple(n, lam, mu, nu):
    """Oracle: the triple check as it read before padded tuples skipped
    normalize and pad."""
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    for name, p in (("lambda", lam), ("mu", mu), ("nu", nu)):
        if not is_dominant(p):
            raise ValueError(f"{name} = {p} is not a partition")
    if max(len(lam), len(mu), len(nu)) > n or sum(lam) != sum(mu) + sum(nu):
        return None
    return pad(lam, n), pad(mu, n), pad(nu, n)


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def boundary_args(draw):
    """(n, lam, mu, nu): half the time all three padded to length n, else
    of any length up to n + 1 and some with trailing zeros appended; often
    lam a partition of |mu| + |nu|; now and then a list, not a tuple."""
    n = draw(st.integers(1, 5))
    padded = draw(st.booleans())

    def parts(values=st.integers(-1, 4)):
        size = n if padded else draw(st.integers(0, n + 1))
        return tuple(draw(st.lists(values, min_size=size, max_size=size)))

    def loosen(p):
        if not padded:
            p += (0,) * draw(st.integers(0, 2))
        return list(p) if draw(st.integers(0, 3)) == 0 else p

    mu, nu = parts(), parts()
    lam = parts()
    if draw(st.booleans()) and sum(mu) + sum(nu) >= 0:
        lam = draw(st.sampled_from(partitions_of(sum(mu) + sum(nu), n) or ((),)))
        lam = pad(lam, n) if padded else lam
    return n, loosen(lam), loosen(mu), loosen(nu)


# The draws seldom give a part of more than n nonzero entries whose sums
# still match, so such triples are pinned, one for each part: no hive
# carries them.
@example((1, (1, 1), (1,), (1,)))
@example((1, (3,), (1, 1), (1,)))
@example((2, [4, 2], (2, 1), [1, 1, 1]))
@settings(max_examples=400)
@given(boundary_args())
def test_hive_routes_match_normalizing_check(case):
    # both routes raise the oracle's message, or give 0 and [] where it
    # returns None, or agree with the tableau count
    expected = outcome(normalized_boundary_triple, *case)
    if expected is None or isinstance(expected, str):
        assert outcome(lr_coefficient, *case) == (0 if expected is None else expected)
        assert outcome(enumerate_hives, *case) == ([] if expected is None else expected)
    else:
        assert lr_coefficient(*case) == len(enumerate_hives(*case)) == lr_via_tableaux(*case)


# The keys one process needs at once: the 28 (d, n) keys of a series batch
# (hp-series -n 4 to 15 and -n 5 to 11); every rank with generators (2, 3, 4).
LEAST_MAXSIZE = {shapes.partitions_of: 28, cone._presentation: 3,
                 cone._search: 3, polynomial.variable_labels: 3,
                 tensor_algebra._build_generators: 3}


def package_caches() -> list:
    """Every function a hivealg module defines with an lru_cache, found by
    its cache_info; a name another module imports is counted once, where it
    is defined."""
    modules = (importlib.import_module(f"hivealg.{m.name}")
               for m in pkgutil.iter_modules(hivealg.__path__))
    return [obj for module in modules for obj in vars(module).values()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__]


def test_every_cache_is_found():
    # a cache on a method or a nested function would escape package_caches
    sources = Path(hivealg.__file__).parent.glob("*.py")
    assert len(package_caches()) == sum(p.read_text().count("@lru_cache") for p in sources)


@pytest.mark.parametrize("cached", package_caches())
def test_caches_are_bounded(cached):
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None and maxsize >= LEAST_MAXSIZE.get(cached, 1)
