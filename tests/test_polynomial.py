import random
from itertools import combinations

import pytest

from hivealg.polynomial import (ColumnTableau, NotHomogeneousError, Polynomial,
                                Weight, det, minor, monomial_exponents,
                                raising_derivation, render_monomial)


def var(n, kind, i, j):
    return Polynomial.variable(n, kind, i, j)


def all_column_tableaux(n):
    for empty in range(n + 1):
        for k in range(n - empty + 1):
            for entries in combinations(range(1, n + 1), k):
                if empty + k > 0:
                    yield ColumnTableau(empty, entries)


def cofactor_det(matrix):
    """Independent determinant oracle: first-row cofactor expansion."""
    m = len(matrix)
    if m == 1:
        return matrix[0][0]
    n = matrix[0][0].n
    total = Polynomial.zero(n)
    for c in range(m):
        sub = [row[:c] + row[c + 1:] for row in matrix[1:]]
        total = total + (-1) ** c * matrix[0][c] * cofactor_det(sub)
    return total


def test_additive_inverse_gives_zero():
    p = var(2, "x", 1, 1) * var(2, "y", 2, 2) + 3 * var(2, "x", 2, 1)
    assert (p + (-1) * p).is_zero


def test_variable_product_is_a_single_monomial():
    p = var(2, "x", 1, 1) * var(2, "y", 1, 1)
    assert p.terms == {monomial_exponents(2, [("x", 1, 1), ("y", 1, 1)]): 1}


def test_minor_single_empty_box_is_x11():
    assert minor(2, ColumnTableau(1, ())) == var(2, "x", 1, 1)


def test_minor_two_entry_column_expands_by_hand():
    got = minor(2, ColumnTableau(0, (1, 2)))
    expected = (var(2, "y", 1, 1) * var(2, "y", 2, 2)
                - var(2, "y", 1, 2) * var(2, "y", 2, 1))
    assert got == expected


def test_minor_matches_explicit_submatrix():
    # every column tableau of ranks 2, 3 and 4
    for n in (2, 3, 4):
        for col in all_column_tableaux(n):
            columns = ([("x", c) for c in range(1, col.empty + 1)]
                       + [("y", e) for e in col.entries])
            matrix = [[var(n, kind, r, c) for kind, c in columns]
                      for r in range(1, col.size + 1)]
            assert minor(n, col) == det(matrix) == cofactor_det(matrix), (n, col)


def test_det_matches_cofactor_oracle_on_generic_matrix():
    labels = [("x", i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    matrix = [[var(3, *labels[3 * r + c]) for c in range(3)] for r in range(3)]
    assert det(matrix) == cofactor_det(matrix)


def test_det_of_repeated_rows_vanishes():
    row = [var(2, "x", 1, 1), var(2, "y", 1, 2)]
    assert det([row, row]).is_zero


def test_invalid_column_tableaux_rejected():
    with pytest.raises(ValueError, match=r"^column entries \(2, 1\) must strictly increase$"):
        minor(2, ColumnTableau(0, (2, 1)))
    with pytest.raises(ValueError, match="^column size 3 out of range for rank 2$"):
        minor(2, ColumnTableau(2, (1,)))
    with pytest.raises(ValueError, match="^column size 0 out of range for rank 3$"):
        minor(3, ColumnTableau(0, ()))
    with pytest.raises(ValueError, match=r"^invalid column tableau .* for rank 2$"):
        minor(2, ColumnTableau(0, (3,)))


def test_minor_leading_term_is_main_diagonal():
    # rows 1..3, columns 1, n+1, n+2: diagonal x11 * y21 * y32
    exps, coeff = minor(3, ColumnTableau(1, (1, 2))).leading_term()
    assert coeff == 1
    assert exps == monomial_exponents(3, [("x", 1, 1), ("y", 2, 1), ("y", 3, 2)])
    for n in (2, 3, 4):
        for col in all_column_tableaux(n):
            exps, coeff = minor(n, col).leading_term()
            diagonal = ([("x", r, r) for r in range(1, col.empty + 1)]
                        + [("y", col.empty + b, e)
                           for b, e in enumerate(col.entries, start=1)])
            assert coeff == 1 and exps == monomial_exponents(n, diagonal)


def test_weight_of_rank2_minor():
    p = minor(2, ColumnTableau(1, (1,)))
    assert p.weight() == Weight((1, 1), (1, 0), (1, 0))


def test_weight_of_constant_is_zero():
    assert Polynomial.one(3).weight() == Weight((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_weight_rejects_inhomogeneous_sum():
    with pytest.raises(NotHomogeneousError):
        (var(2, "x", 1, 1) + var(2, "y", 1, 1)).weight()


def test_weight_additive_under_multiplication():
    rng = random.Random(5)
    cols = list(all_column_tableaux(4))
    for _ in range(50):
        p, q = (minor(4, rng.choice(cols)) for _ in range(2))
        pw, qw, prodw = p.weight(), q.weight(), (p * q).weight()
        assert prodw == Weight(*(tuple(a + b for a, b in zip(x, y))
                                 for x, y in zip(pw, qw)))


def test_minors_are_multihomogeneous():
    for n in (2, 3, 4):
        for col in all_column_tableaux(n):
            minor(n, col).weight()  # raises if some term disagrees


def test_raising_derivation_chain_rule():
    assert raising_derivation(2, 1, var(2, "x", 1, 2)) == var(2, "x", 1, 1)


def test_raising_derivation_kills_rank2_cross_minor():
    g2 = minor(2, ColumnTableau(1, (1,)))  # x11*y21 - x21*y11
    assert raising_derivation(1, 1, g2).is_zero


def test_raising_derivation_argument_validation():
    with pytest.raises(ValueError):
        raising_derivation(4, 1, Polynomial.one(3))
    with pytest.raises(ValueError):
        raising_derivation(1, 3, Polynomial.one(3))


def test_derivations_satisfy_leibniz_rule():
    rng = random.Random(11)
    cols = list(all_column_tableaux(3))
    for _ in range(20):
        p, q = (minor(3, rng.choice(cols)) for _ in range(2))
        for factor in (1, 2, 3):
            for k in (1, 2):
                d = lambda f: raising_derivation(factor, k, f)
                assert d(p * q) == d(p) * q + p * d(q)


def main_diagonal(col):
    """Variables on the main diagonal of the minor labelled by col."""
    return ([("x", r, r) for r in range(1, col.empty + 1)]
            + [("y", col.empty + b, e) for b, e in enumerate(col.entries, start=1)])


def test_leading_term_multiplicative_on_minor_products():
    rng = random.Random(23)
    cols = list(all_column_tableaux(4))
    for _ in range(500):
        a, b = rng.choice(cols), rng.choice(cols)
        p, q = minor(4, a), minor(4, b)
        pe, pc = p.leading_term()
        qe, qc = q.leading_term()
        exps, coeff = (p * q).leading_term()
        assert exps == monomial_exponents(4, main_diagonal(a) + main_diagonal(b))
        assert (Polynomial(4, {pe: pc}) * Polynomial(4, {qe: qc})).terms == {exps: coeff}


def test_lex_order_prefers_earlier_rows_then_x_before_y():
    n = 2
    assert var(n, "x", 1, 1).leading_term() > var(n, "x", 1, 2).leading_term()
    assert var(n, "x", 1, 2).leading_term() > var(n, "y", 1, 1).leading_term()
    assert var(n, "y", 1, 2).leading_term() > var(n, "x", 2, 1).leading_term()


def test_rendering_and_json_round_trip():
    p = 2 * var(2, "x", 1, 1) * var(2, "x", 1, 1) - var(2, "y", 2, 1)
    assert str(p) == "2*x[1][1]^2 - y[2][1]"
    assert p.to_json_obj() == [{"coeff": "2", "exps": {"x11": 2}},
                               {"coeff": "-1", "exps": {"y21": 1}}]


def test_rank_mismatch_is_rejected():
    with pytest.raises(ValueError):
        var(2, "x", 1, 1) + var(3, "x", 1, 1)
    with pytest.raises(ValueError):
        var(2, "x", 1, 1) * var(3, "x", 1, 1)


def test_render_monomial_constant():
    assert render_monomial(2, monomial_exponents(2, [])) == "1"
    assert render_monomial(2, Polynomial.one(2).leading_term()[0]) == "1"
