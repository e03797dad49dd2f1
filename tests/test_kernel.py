"""The generated code: the hive kernel (counting._kernel) and the cone
membership predicate (hive.membership).  Both build at every rank and their
source is inspectable; the kernel's plan holds the cone rows plus cancelled
pairs of them, all of which every hive satisfies, and its bottom-row-up
fill order prunes; enumeration comes out in lexicographic order whatever
the search order; counts agree with enumeration and with the tableau route,
also at ranks too deep for one nested loop, and with the symmetries and
saturation of LR coefficients; and membership agrees with a row-by-row
reading of cone_rows."""

import inspect
import re
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hivealg import counting, hive
from hivealg.cone import hives_up_to_degree
from hivealg.counting import (_kernel, boundary_triples, enumerate_hives,
                              lr_coefficient, lr_via_tableaux)
from hivealg.hive import (cone_rows, flat_index, hive_violations, membership,
                          triangle_size)
from hivealg.shapes import contains, pad, partitions_of


@pytest.mark.parametrize("count", [True, False])
def test_kernel_builds_for_every_rank(count):
    for n in range(1, 11):
        assert callable(_kernel(n, count))


def test_kernel_source_is_inspectable():
    kernel = _kernel(4, True)
    source = inspect.getsource(kernel)
    assert kernel.__code__.co_filename == "<hivealg kernel n=4 count>"
    # bounds of the first interior entry, h[4][3] = a[8]: its three rhombus
    # rows, then the sums that cancel a[7] and a[4]
    assert ("lo = max(a[13] + a[5] - a[9], a[12] + a[9] - a[13], "
            "a[11] + a[3] + a[13] - a[6] - a[12], a[6] + a[13] - a[11], "
            "a[1] + a[12] - a[3], a[1] + a[9] - a[2], "
            "a[3] + a[2] + a[9] - a[1] - a[5], a[5] + a[6] - a[3])") in source
    assert "hi = min(a[13] + a[9] - a[14], a[12] + a[6] - a[10], a[5] + a[1] - a[0])" in source


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
def dominant_triples(draw, low=2, high=6, size=7):
    """(n, lam, mu, nu) with |lam| = |mu| + |nu|, all with at most n parts,
    for low <= n <= high and |mu|, |nu| <= size."""
    n = draw(st.integers(low, high))
    mu = draw(st.sampled_from(partitions_of(draw(st.integers(0, size)), n)))
    nu = draw(st.sampled_from(partitions_of(draw(st.integers(0, size)), n)))
    lam = draw(st.sampled_from(partitions_of(sum(mu) + sum(nu), n)))
    return n, lam, mu, nu


@lru_cache(maxsize=4)
def multiple_triples(n: int) -> tuple:
    """Every (n, lam, mu, nu) of degree <= 10 whose coefficient, by the
    tableau route, is at least 2."""
    return tuple((n, *t) for d in range(11) for t in boundary_triples(n, d)
                 if lr_via_tableaux(n, *t) >= 2)


@st.composite
def mixed_triples(draw):
    """A third of the draws from dominant_triples, which alone gives c >= 2
    in a few percent of draws (hypothesis favours small sizes and one-row
    shapes), and the rest from multiple_triples: about half of all draws
    have c >= 2, so a kernel that miscounts only intervals longer than one
    fails."""
    if draw(st.integers(0, 2)) == 0:
        return draw(dominant_triples())
    return draw(st.sampled_from(multiple_triples(draw(st.integers(3, 6)))))


@settings(max_examples=150)
@given(mixed_triples())
def test_count_equals_enumeration_and_tableaux(triple):
    n, lam, mu, nu = triple
    c = lr_coefficient(n, lam, mu, nu)
    assert c == len(enumerate_hives(n, lam, mu, nu)) == lr_via_tableaux(n, lam, mu, nu)


@settings(max_examples=150)
@given(mixed_triples())
def test_swapping_mu_and_nu_keeps_the_coefficient(triple):
    # enumerate_hives keeps the order it is given, unlike the cached count
    n, lam, mu, nu = triple
    assert (len(enumerate_hives(n, lam, mu, nu)) == len(enumerate_hives(n, lam, nu, mu))
            == lr_coefficient(n, lam, nu, mu))


@st.composite
def admitted_triples(draw, low, high, size):
    """(n, lam, mu, nu) with size / 2 <= |mu|, |nu| <= size and lam one of
    the boundaries boundary_triples admits (lam contains mu and nu, lam_1 <=
    mu_1 + nu_1), so that the coefficient is often positive and sometimes
    above 1.  mu + nu is always admitted."""
    n = draw(st.integers(low, high))
    mu, nu = (draw(st.sampled_from(partitions_of(draw(st.integers(size // 2, size)), n)))
              for _ in range(2))
    lam = draw(st.sampled_from([
        lam for lam in partitions_of(sum(mu) + sum(nu), n)
        if contains(lam, mu) and contains(lam, nu) and lam[0] <= mu[0] + nu[0]]))
    return n, lam, mu, nu


def both_kernels(n, lam, mu, nu):
    """The coefficient from the count kernel, checked against the number of
    hives the enumeration kernel yields."""
    c = lr_coefficient(n, lam, mu, nu)
    assert len(enumerate_hives(n, lam, mu, nu)) == c
    return c


def complement(p, n, k):
    """p^v = (k - p_n, ..., k - p_1): the complement of p in the n x k box."""
    return tuple(k - v for v in reversed(pad(p, n)))


@settings(max_examples=150)
@given(st.one_of(mixed_triples(), admitted_triples(3, 6, 8)))
def test_complement_symmetry(triple):
    # c^lam_{mu nu} = c^{mu^v}_{nu, lam^v} in any n x k box that holds lam
    # and mu; k = lam_1 whenever mu fits under it
    n, lam, mu, nu = triple
    k = max(pad(lam, n)[0], pad(mu, n)[0])
    assert (both_kernels(n, lam, mu, nu)
            == both_kernels(n, complement(mu, n, k), nu, complement(lam, n, k)))


@settings(max_examples=200)
@given(admitted_triples(3, 6, 8))
def test_saturation(triple):
    # Knutson-Tao: c(2 lam, 2 mu, 2 nu) > 0 exactly when c(lam, mu, nu) > 0
    n, lam, mu, nu = triple
    doubled = [tuple(2 * v for v in p) for p in (lam, mu, nu)]
    assert (both_kernels(n, *doubled) > 0) == (both_kernels(n, lam, mu, nu) > 0)


# ---------------------------------------------------------------------------
# The fill plan: cone rows plus one round of cancelled pairs

def plan_rows(n):
    """Every row of _fill_plan(n) as (the interior entry it is attached to,
    or None on the boundary alone, {flat index: coeff})."""
    _row_bounds, interior, boundary_only, attached = counting._fill_plan(n)
    rows = [(None, dict(terms)) for terms in boundary_only]
    rows += [(pos, {pos: coeff, **dict(rest)})
             for pos, rows_k in zip(interior, attached) for coeff, rest in rows_k]
    return rows


@pytest.mark.parametrize("n", range(1, 9))
def test_added_rows_are_cancelled_pairs(n):
    order = {k: place for place, k in enumerate(counting._fill_plan(n)[1])}
    cone = [dict(terms) for *_, terms in cone_rows(n)[3 * n:]]

    def last(row):
        """The interior entry of row that is placed last in plan order."""
        return max((k for k in row if k in order), key=order.get, default=None)

    pairs = []
    for low in cone:
        for up in cone:
            x = last(low)
            if x is not None and last(up) == x and low[x] == 1 and up[x] == -1:
                summed = Counter(low)
                summed.update(up)
                pairs.append({k: c for k, c in summed.items() if c})
    rows = plan_rows(n)
    keys = [frozenset(row.items()) for _, row in rows]
    cone_keys = {frozenset(row.items()) for row in cone}
    assert len(set(keys)) == len(keys) and cone_keys <= set(keys)
    for pos, row in rows:
        assert pos == last(row)
    # the rest: every sum of a lower and an upper row of one entry x that
    # keeps its coefficients +-1 and mentions an interior entry placed
    # before x
    added = {frozenset(p.items()) for p in pairs
             if set(p.values()) <= {1, -1} and last(p) is not None}
    assert set(keys) - cone_keys == added - cone_keys
    assert n < 4 or len(rows) > len(cone)


def assert_plan_holds(n, flat):
    for _pos, row in plan_rows(n):
        assert sum(c * flat[k] for k, c in row.items()) >= 0, row


@pytest.mark.parametrize("n", range(1, 5))
def test_plan_rows_hold_on_every_small_hive(n):
    for h in hives_up_to_degree(n, 6):
        assert_plan_holds(n, h.to_flat())


@settings(max_examples=100)
@given(admitted_triples(5, 6, 8))
def test_plan_rows_hold_on_enumerated_hives(triple):
    n, lam, mu, nu = triple
    for h in enumerate_hives(n, lam, mu, nu):
        assert_plan_holds(n, h.to_flat())


# ---------------------------------------------------------------------------
# The fill order: the search runs bottom row first, the output is sorted

def row_major_hives(n, lam, mu, nu):
    """Oracle: the flat coordinates of every hive with the padded boundary
    (lam, mu, nu), filling the interior in row-major order, each entry
    bounded by the cone rows whose largest interior index it is, each
    interval swept upward; so they come in lexicographic order."""
    flat = [0] * triangle_size(n)
    for i in range(1, n + 1):  # left and right edges, then the bottom one
        flat[flat_index(i + 1, 1)] = flat[flat_index(i, 1)] + mu[i - 1]
        flat[flat_index(i + 1, i + 1)] = flat[flat_index(i, i)] + lam[i - 1]
    for j in range(1, n + 1):
        flat[flat_index(n + 1, j + 1)] = flat[flat_index(n + 1, j)] + nu[j - 1]
    interior = [flat_index(i, j) for i in range(3, n + 1) for j in range(2, i)]
    rows = {k: [] for k in [None] + interior}
    for *_, terms in cone_rows(n):
        rows[max((k for k, _ in terms if k in rows), default=None)].append(terms)

    def rest(terms, k=None):
        return sum(c * flat[q] for q, c in terms if q != k)

    def fill(place):
        if place == len(interior):
            yield tuple(flat)
            return
        k = interior[place]
        # +-flat[k] + rest >= 0
        lo = max(-rest(t, k) for t in rows[k] if (k, 1) in t)
        hi = min(rest(t, k) for t in rows[k] if (k, -1) in t)
        for v in range(lo, hi + 1):
            flat[k] = v
            yield from fill(place + 1)

    if all(rest(t) >= 0 for t in rows[None]):
        yield from fill(0)


@st.composite
def order_triples(draw):
    """(n, lam, mu, nu) for n = 2..5: half from dominant_triples, half with
    c >= 2, so that there is an order to check."""
    if draw(st.booleans()):
        return draw(dominant_triples(high=5))
    return draw(st.sampled_from(multiple_triples(draw(st.integers(3, 5)))))


# The kernel's search order is seldom not lexicographic, which the draws
# above do not reach: not below degree 12 at ranks 4 and 5, and at degree
# 12 on 2 of the 368 rank-4 boundaries with c >= 2 and 4 of the 654 rank-5
# ones.  These are two of them.
@example((4, (5, 4, 2, 1), (3, 2), (4, 2, 1)))
@example((5, (4, 3, 2, 2, 1), (3, 2, 1), (3, 2, 1)))
@settings(max_examples=150)
@given(order_triples())
def test_enumeration_order_is_lexicographic(triple):
    n, lam, mu, nu = triple
    flats = [h.to_flat() for h in enumerate_hives(n, lam, mu, nu)]
    assert flats == sorted(flats)
    assert flats == list(row_major_hives(n, *(pad(p, n) for p in (lam, mu, nu))))


def plan_nodes(n, lam, mu, nu):
    """Interior DFS nodes (entries set to one value) that _fill_plan(n)
    visits for a padded boundary, read row by row from the plan."""
    _row_bounds, interior, _boundary_only, attached = counting._fill_plan(n)
    flat = counting._boundary_array(n, lam, mu, nu)
    if flat is None:
        return 0

    def visit(place):
        if place == len(interior):
            return 0
        rests = [(coeff, sum(c * flat[q] for q, c in rest)) for coeff, rest in attached[place]]
        lo = max(-r for coeff, r in rests if coeff == 1)
        hi = min(r for coeff, r in rests if coeff == -1)
        nodes = 0
        for v in range(lo, hi + 1):
            flat[interior[place]] = v
            nodes += 1 + visit(place + 1)
        return nodes

    return visit(0)


# Nodes on every rank-6 boundary of degree <= 8 with the bottom-row-up
# fill order; the row-major order, under the same plan rule, visits 25,520.
RANK6_NODES = 15_519


def test_fill_plan_prunes_rank6():
    nodes = sum(plan_nodes(6, *triple) for d in range(9) for triple in boundary_triples(6, d))
    assert nodes <= RANK6_NODES


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
    assert membership(n)([0] * size)   # every row holds with equality
    # each row's coefficients sum to 0, so a constant shift fails the apex only
    assert [v.kind for v in hive_violations(rows_of([1] * size, n))] == ["apex"]
    assert not membership(n)([1] * size)


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
                    assert not membership(n)(moved)
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


@settings(max_examples=500)
@given(membership_cases())
def test_in_cone_agrees_with_interpreted_rows(case):
    n, flat = case
    assert membership(n)(flat) == interpreted_in_cone(flat, n)
