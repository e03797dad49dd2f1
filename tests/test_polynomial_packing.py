"""Packed-int monomials against a tuple-exponent oracle.

Random polynomials for n = 2..4 are drawn as {exponent tuple: coefficient},
turned into Polynomials through monomial_exponents, and every operation is
compared with the same operation on the tuples.  Then the 8-bit fields are
checked at the top of their range: degree 255 works, and anything that
could pass it raises ValueError.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivealg.polynomial import (NotHomogeneousError, Polynomial, Weight,
                                monomial_exponents, raising_derivation,
                                render_monomial, variable_count, variable_index,
                                variable_labels)

# -- the oracle: exponent tuples -------------------------------------------


def encode(n, exps):
    factors = [label for label, e in zip(variable_labels(n), exps) for _ in range(e)]
    return monomial_exponents(n, factors)


def to_poly(n, terms):
    return Polynomial(n, {encode(n, e): c for e, c in terms.items()})


def to_terms(n, terms):
    return {encode(n, e): c for e, c in terms.items()}


def accumulate(pairs):
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def oracle_mul(p, q):
    return accumulate((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                      for e1, c1 in p.items() for e2, c2 in q.items())


def oracle_add(p, q):
    return accumulate(list(p.items()) + list(q.items()))


def oracle_partial(n, p, idx):
    return accumulate((e[:idx] + (e[idx] - 1,) + e[idx + 1:], c * e[idx])
                      for e, c in p.items() if e[idx])


def oracle_raising(n, factor, k, p):
    vi = variable_index
    if factor == 1:
        pairs = [(vi(n, kind, k, j), vi(n, kind, k + 1, j))
                 for j in range(1, n + 1) for kind in "xy"]
    else:
        kind = "x" if factor == 2 else "y"
        pairs = [(vi(n, kind, i, k), vi(n, kind, i, k + 1)) for i in range(1, n + 1)]
    out = []
    for e, c in p.items():
        for src, tgt in pairs:
            if e[tgt]:
                moved = list(e)
                moved[tgt] -= 1
                moved[src] += 1
                out.append((tuple(moved), c * e[tgt]))
    return accumulate(out)


def oracle_weight(n, e):
    lam, mu, nu = [0] * n, [0] * n, [0] * n
    for (kind, i, j), power in zip(variable_labels(n), e):
        lam[i - 1] += power
        (mu if kind == "x" else nu)[j - 1] += power
    return Weight(tuple(lam), tuple(mu), tuple(nu))


def oracle_render(n, e):
    parts = [f"{kind}[{i}][{j}]" + (f"^{p}" if p > 1 else "")
             for (kind, i, j), p in zip(variable_labels(n), e) if p]
    return "*".join(parts) if parts else "1"


def oracle_json(n, p):
    return [{"coeff": str(p[e]),
             "exps": {f"{kind}{i}{j}": power
                      for (kind, i, j), power in zip(variable_labels(n), e) if power}}
            for e in sorted(p, reverse=True)]


# -- strategies --------------------------------------------------------------

COEFFS = st.integers(-10**12, 10**12).filter(bool)


def monomials(n):
    """Sparse exponent tuples of total degree at most 124, so that a product
    of two stays within the 8-bit fields; exponents up to 31 reach into the
    upper bits of a field."""
    size = variable_count(n)
    return st.dictionaries(st.integers(0, size - 1), st.integers(1, 31),
                           max_size=4).map(
        lambda d: tuple(d.get(idx, 0) for idx in range(size)))


def term_dicts(n, max_terms=6):
    return st.dictionaries(monomials(n), COEFFS, max_size=max_terms)


def with_rank(build):
    return st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), *build(n)))


@st.composite
def homogeneous(draw, n):
    """Terms of one weight: a monomial and others reached from it by moving
    one power around a rectangle of one block (i,a),(r,b) -> (i,b),(r,a)."""
    start = list(draw(monomials(n)))
    terms = {tuple(start): draw(COEFFS)}
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from("xy"))
        i, r = draw(st.integers(1, n)), draw(st.integers(1, n))
        a, b = draw(st.integers(1, n)), draw(st.integers(1, n))
        ia, rb = variable_index(n, kind, i, a), variable_index(n, kind, r, b)
        ib, ra = variable_index(n, kind, i, b), variable_index(n, kind, r, a)
        if len({ia, rb, ib, ra}) == 4 and start[ia] and start[rb]:
            start[ia] -= 1
            start[rb] -= 1
            start[ib] += 1
            start[ra] += 1
            terms[tuple(start)] = draw(COEFFS)
    return terms


@st.composite
def near_homogeneous(draw, n):
    """Terms of one weight plus a term off by one move: a power moved to
    another row in the same column (same column degrees, other row degrees)
    or to another column in the same row (the converse)."""
    terms = draw(homogeneous(n))
    start = list(draw(st.sampled_from(sorted(terms))))
    src = draw(st.sampled_from([idx for idx, e in enumerate(start) if e] or [None]))
    if src is None:
        return None
    kind, i, j = variable_labels(n)[src]
    other = draw(st.sampled_from([(kind, r, j) for r in range(1, n + 1) if r != i]
                                 + [(k, i, c) for k in "xy" for c in range(1, n + 1)
                                    if (k, c) != (kind, j)]))
    start[src] -= 1
    start[variable_index(n, *other)] += 1
    terms[tuple(start)] = draw(COEFFS)
    return terms


# -- properties --------------------------------------------------------------


@given(with_rank(lambda n: (term_dicts(n), term_dicts(n))))
def test_product_matches_oracle(case):
    n, p, q = case
    assert (to_poly(n, p) * to_poly(n, q)).terms == to_terms(n, oracle_mul(p, q))


@given(with_rank(lambda n: (term_dicts(n), term_dicts(n))))
def test_sum_matches_oracle(case):
    n, p, q = case
    assert (to_poly(n, p) + to_poly(n, q)).terms == to_terms(n, oracle_add(p, q))


@given(with_rank(lambda n: (term_dicts(n, 10),)))
def test_raising_derivations_match_oracle(case):
    n, p = case
    poly = to_poly(n, p)
    for factor in (1, 2, 3):
        for k in range(1, n):
            assert (raising_derivation(factor, k, poly).terms
                    == to_terms(n, oracle_raising(n, factor, k, p)))


@given(with_rank(lambda n: (term_dicts(n, 10), st.integers(0, variable_count(n) - 1))))
def test_partial_matches_oracle(case):
    n, p, idx = case
    kind, i, j = variable_labels(n)[idx]
    assert to_poly(n, p).partial(kind, i, j).terms == to_terms(n, oracle_partial(n, p, idx))


@given(with_rank(lambda n: (homogeneous(n),)))
def test_weight_of_homogeneous_terms_matches_oracle(case):
    n, p = case
    first = next(iter(p))
    assert {oracle_weight(n, e) for e in p} == {oracle_weight(n, first)}
    assert to_poly(n, p).weight() == oracle_weight(n, first)


@given(with_rank(lambda n: (near_homogeneous(n).filter(bool),)))
def test_weight_detects_one_move_off(case):
    n, p = case
    with pytest.raises(NotHomogeneousError):
        to_poly(n, p).weight()


@given(with_rank(lambda n: (term_dicts(n).filter(bool),)))
def test_weight_or_inhomogeneity_matches_oracle(case):
    n, p = case
    weights = {oracle_weight(n, e) for e in p}
    if len(weights) == 1:
        assert to_poly(n, p).weight() == weights.pop()
    else:
        with pytest.raises(NotHomogeneousError):
            to_poly(n, p).weight()


@given(with_rank(lambda n: (term_dicts(n).filter(bool),)))
def test_leading_term_is_lex_greatest_tuple(case):
    n, p = case
    lead = max(p)
    assert to_poly(n, p).leading_term() == (encode(n, lead), p[lead])


@given(with_rank(lambda n: (term_dicts(n),)))
@settings(max_examples=50)
def test_json_and_rendering_match_oracle(case):
    n, p = case
    poly = to_poly(n, p)
    obj = poly.to_json_obj()
    assert obj == oracle_json(n, p)
    for e in p:
        assert render_monomial(n, encode(n, e)) == oracle_render(n, e)


@given(with_rank(lambda n: (term_dicts(n),)))
@settings(max_examples=50)
def test_evaluate_matches_oracle(case):
    n, p = case
    point = [(3 * idx) % 7 - 3 for idx in range(variable_count(n))]
    expected = 0
    for e, c in p.items():
        for v, power in zip(point, e):
            c *= v ** power
        expected += c
    assert to_poly(n, p).evaluate(point) == expected


# -- the top of the 8-bit fields ----------------------------------------------


def var(n, kind, i, j):
    return Polynomial.variable(n, kind, i, j)


def test_degree_255_is_the_last_that_multiplies():
    x11 = var(2, "x", 1, 1)
    top = x11 ** 255
    assert top.leading_term() == (monomial_exponents(2, [("x", 1, 1)] * 255), 1)
    assert top.weight() == Weight((255, 0), (255, 0), (0, 0))
    assert str(top) == "x[1][1]^255"
    assert top * Polynomial.one(2) == top and (top + 1) * Polynomial.one(2) == top + 1
    with pytest.raises(ValueError):
        top * x11
    with pytest.raises(ValueError):
        (top + 1) * x11
    mixed = var(2, "y", 2, 2) ** 200 * x11 ** 55
    with pytest.raises(ValueError):
        mixed * var(2, "x", 2, 1)


def test_derivations_stay_in_range_at_degree_255():
    p = var(2, "x", 1, 1) ** 100 * var(2, "x", 2, 1) ** 155
    raised = raising_derivation(1, 1, p)
    expected = monomial_exponents(2, [("x", 1, 1)] * 101 + [("x", 2, 1)] * 154)
    assert raised.terms == {expected: 155}
    assert raised.weight() == Weight((101, 154), (255, 0), (0, 0))
    assert p.partial("x", 2, 1).terms == {
        monomial_exponents(2, [("x", 1, 1)] * 100 + [("x", 2, 1)] * 154): 155}


def test_weight_at_degree_255():
    a = var(2, "x", 1, 1) ** 100 * var(2, "x", 2, 2) ** 155
    b = var(2, "x", 1, 2) ** 100 * var(2, "x", 2, 1) ** 100 * var(2, "x", 2, 2) ** 55
    assert (a - b).weight() == Weight((100, 155), (100, 155), (0, 0))
    with pytest.raises(NotHomogeneousError):
        (var(2, "x", 1, 1) ** 255 + var(2, "x", 2, 1) ** 255).weight()
