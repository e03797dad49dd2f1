"""Generators of the GL(n) tensor product algebras for n = 2, 3, 4, each
derived from its Hilbert basis hive as the one combination of column-minor
products of the hive's weight that the raising operators kill; lifting of
hive decompositions to explicit highest weight vectors; and symbolic
verification of the presentation relations and the classical determinantal
identities behind them."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from itertools import chain, combinations, product
from math import gcd

from . import cone
from .counting import enumerate_hives
from .hive import Boundary, Hive
from .polynomial import (ColumnTableau, Polynomial, Weight, det, minor,
                         monomial_exponents, raising_derivation,
                         render_monomial, variable_count, variable_labels)
from .report import CheckResult, ConsistencyError
from .shapes import _integer, pad
from .tableau import LRTableau, hive_to_tableau


class GeneratorTable(namedtuple("GeneratorTable", "n generators")):
    """The generators g_1..g_m of the rank-n tensor product algebra, indexed
    in step with the Hilbert basis hives h_1..h_m of the hive cone."""

    __slots__ = ()

    def generator(self, index: int) -> Polynomial:
        """1-based access, matching the h_i numbering."""
        return self.generators[index - 1]

    def product(self, indices) -> Polynomial:
        """g^indices: the product of g_k over the 1-based indices, in order."""
        return reduce(Polynomial.__mul__, map(self.generator, indices), Polynomial.one(self.n))


def lemma_initial_exponents(n: int, tab: LRTableau):
    """Exponent vector of prod_i x[i][i]^(mu_i) * prod_{i,j} y[i][j]^(t_ij),
    where t_ij counts the j's in row i of the tableau.  Under the monoid
    isomorphism this is the initial monomial of the vector lifted from the
    tableau's hive."""
    factors = []
    for i, m in enumerate(pad(tab.inner, n), start=1):
        factors.extend([("x", i, i)] * m)
    for i, row in enumerate(tab.rows, start=1):
        for v in row:
            factors.append(("y", i, v))
    return monomial_exponents(n, factors)


def _check_highest_weight(name: str, poly: Polynomial, hive: Hive, boundary: Boundary) -> None:
    """The paper's central fact for one vector: poly has torus weight
    `boundary`, that of `hive`, is killed by all 3(n-1) raising operators,
    and its leading term is 1 times the tableau monomial of `hive`.  `name`
    is formatted with the hive only when a check fails."""
    n = poly.n
    weight = Weight(*boundary)
    if poly.weight() != weight:
        raise ConsistencyError(
            f"{name.format(hive)} has weight {poly.weight()}, expected {weight}")
    for factor in (1, 2, 3):
        for k in range(1, n):
            if not raising_derivation(factor, k, poly).is_zero:
                raise ConsistencyError(f"{name.format(hive)} is not annihilated "
                                       f"by raising operator ({factor}, {k})")
    exps, coeff = poly.leading_term()
    expected = lemma_initial_exponents(n, hive_to_tableau(hive))
    if coeff != 1 or exps != expected:
        raise ConsistencyError(
            f"{name.format(hive)} has initial monomial {coeff}*{render_monomial(n, exps)}, "
            f"expected {render_monomial(n, expected)}")


def build_generators(n: int) -> GeneratorTable:
    """Derive and fully validate the generator table for n = 2, 3, 4: g_k is
    the vector of Hilbert basis hive h_k, whose boundary is its torus weight."""
    return _build_generators(_integer("rank", n))


@lru_cache(maxsize=4)
def _build_generators(n: int) -> GeneratorTable:
    basis = cone.presentation(n).basis  # a ValueError past rank 4
    generators = tuple(map(_derive_generator, basis))
    for idx, (g, h) in enumerate(zip(generators, basis), start=1):
        _check_highest_weight(f"g_{idx}", g, h, h.boundary())
    return GeneratorTable(n, generators)


def _column_fillings(n: int, boundary: Boundary):
    """The column-minor products of weight `boundary` = (lam, mu, nu), as lists
    of columns: column j of the skew shape lam/mu has size lam'_j and mu'_j
    empty boxes, and the entries together have content nu.  Equal columns
    take their entries in increasing order, so each product comes once."""
    lam, mu, nu = boundary
    shape = [(sum(p > j for p in lam), sum(p > j for p in mu)) for j in range(max(lam))]
    word = [v for v, count in enumerate(nu, start=1) for _ in range(count)]
    for fill in product(*(combinations(range(1, n + 1), size - empty)
                          for size, empty in shape)):
        if (sorted(chain(*fill)) == word
                and all(a <= b for s, t, a, b in zip(shape, shape[1:], fill, fill[1:]) if s == t)):
            yield [ColumnTableau(empty, entries) for (_, empty), entries in zip(shape, fill)]


def _derive_generator(hive: Hive) -> Polynomial:
    """The highest weight vector of a Hilbert basis hive: the combination of
    its column products that every y-column raising operator kills (the row
    and x-column ones kill each minor), scaled to leading coefficient 1.
    That kernel of coefficient vectors must be a line."""
    n = hive.n
    products = [reduce(Polynomial.__mul__, (minor(n, col) for col in columns))
                for columns in _column_fillings(n, hive.boundary())]
    kernel = _nullspace([{(k, e): c for k in range(1, n)
                         for e, c in raising_derivation(3, k, p).terms.items()}
                        for p in products])
    if len(kernel) != 1:
        raise ConsistencyError(f"the column products of hive {hive} have a "
                               f"{len(kernel)}-dimensional kernel, expected 1")
    total = sum((Polynomial.constant(n, c) * products[i] for i, c in kernel[0].items()),
                Polynomial.zero(n))
    lead = total.leading_term()[1]
    if any(c % lead for c in total.terms.values()):
        raise ConsistencyError(f"the vector of hive {hive} has a non-integer coefficient")
    return Polynomial(n, {e: c // lead for e, c in total.terms.items()})


def _scale_add(target: dict, scale: int, factor: int, source: dict) -> None:
    """target = scale * target + factor * source, on sparse vectors without zeros."""
    for key in target:
        target[key] *= scale
    for key, c in source.items():
        s = target.get(key, 0) + factor * c
        if s:
            target[key] = s
        else:
            target.pop(key, None)


def _nullspace(vectors: list[dict]) -> list[dict]:
    """A basis of the integer relations {i: r_i} with sum_i r_i vectors[i] = 0
    among sparse integer vectors, by fraction-free elimination: each vector
    is reduced by the pivots before it, v <- p v - c pivot where p is the
    pivot's entry and c the vector's at the pivot key, with the same step on
    its relation; then both are divided by the gcd of all their entries.
    A vector that reduces to zero gives a relation."""
    pivots, relations = [], []
    for i, vector in enumerate(vectors):
        vector, relation = {k: c for k, c in vector.items() if c}, {i: 1}
        for key, pivot, pivot_relation in pivots:
            if c := vector.get(key):
                p = pivot[key]
                _scale_add(vector, p, -c, pivot)
                _scale_add(relation, p, -c, pivot_relation)
        divisor = gcd(*vector.values(), *relation.values())
        vector, relation = ({k: c // divisor for k, c in d.items()} for d in (vector, relation))
        if vector:
            pivots.append((max(vector), vector, relation))
        else:
            relations.append(relation)
    return relations


class HighestWeightVector(namedtuple("HighestWeightVector",
                                      "boundary hive decomposition polynomial")):
    __slots__ = ()  # decomposition: 1-based generator indices, sorted

    def to_json_dict(self) -> dict:
        return {
            "n": self.hive.n,
            "boundary": {"lambda": list(self.boundary.lam),
                         "mu": list(self.boundary.mu),
                         "nu": list(self.boundary.nu)},
            "hive": self.hive.to_json_dict(),
            "decomposition": list(self.decomposition),
            "polynomial": self.polynomial.to_json_obj(),
        }


def highest_weight_vector(n: int, hive: Hive) -> HighestWeightVector:
    """Lift a hive to an explicit highest weight vector: decompose it over
    the Hilbert basis, multiply the matching generators, and check the
    product."""
    table = build_generators(n)
    indices = cone.decompose(hive, cone.presentation(n))
    poly = table.product(indices)
    boundary = hive.boundary()
    _check_highest_weight("lifted vector for hive {}", poly, hive, boundary)
    return HighestWeightVector(boundary, hive, indices, poly)


def hwv_basis(n: int, lam, mu, nu) -> list[HighestWeightVector]:
    """One highest weight vector per hive with boundary (lam, mu, nu); their
    initial monomials are asserted pairwise distinct, so they are a basis of
    the corresponding graded component."""
    vectors = [highest_weight_vector(n, h) for h in enumerate_hives(n, lam, mu, nu)]
    initials = [v.polynomial.leading_term()[0] for v in vectors]
    if len(set(initials)) != len(initials):
        raise ConsistencyError(
            f"initial monomials collide for boundary ({lam}, {mu}, {nu})")
    return vectors


def _subduce(table: GeneratorTable, pres: cone.ConePresentation, poly: Polynomial) -> Polynomial:
    """SAGBI subduction (Robbiano and Sweedler, 1990): while poly's leading
    term c*x^e is c times the tableau monomial of a hive h of its weight, set
    poly -= c * g^decompose(h), and return the rest.  As in(g^a) is the tableau
    monomial of sum a_k h_k, each step lowers the leading monomial: one per hive at most."""
    if poly.is_zero:
        return poly
    hives = {lemma_initial_exponents(table.n, hive_to_tableau(h)): h
             for h in enumerate_hives(table.n, *poly.weight())}
    for _ in hives:
        exps, c = poly.leading_term()
        if exps not in hives:
            break
        poly = poly - c * table.product(cone.decompose(hives[exps], pres))
        if poly.is_zero:
            break
    return poly


def verify_presentation_relations(n: int) -> list[CheckResult]:
    """Lift each hive binomial: g^left - g^right must subduce to zero."""
    table, pres = build_generators(n), cone.presentation(n)
    results = []
    for rel in pres.relations:
        rest = _subduce(table, pres, table.product(rel.left) - table.product(rel.right))
        if rest.is_zero:
            results.append(CheckResult(f"relation {rel.name}", True))
        else:
            exps, coeff = rest.leading_term()
            results.append(CheckResult(
                f"relation {rel.name}", False,
                f"nonzero: surviving term {coeff}*{render_monomial(n, exps)}"))
    return results


def verify_independence() -> list[CheckResult]:
    """Algebraic independence of the five rank-2 generators, from their
    initial monomials: the exponent vectors of in(g_1)..in(g_5) have rank 5
    over the rationals.

    That suffices.  Let P be a nonzero polynomial with P(g) = 0.  Each term
    c_a t^a of P gives c_a g^a, whose initial monomial is in(g)^a; as the
    exponent vectors are independent, a -> in(g)^a is injective, so the
    lex-greatest in(g)^a over P's terms comes from one term alone and cannot
    cancel, and P(g) != 0.  So a dependent table fails this check."""
    table = build_generators(2)
    rows = [dict(enumerate(g.leading_term()[0].to_bytes(variable_count(2), "big")))
            for g in table.generators]
    rank = len(rows) - len(_nullspace(rows))
    return [CheckResult("rank-2 generators algebraically independent", rank == len(rows),
                        f"initial exponent vectors of g_1..g_{len(rows)} have rank {rank}")]


# ---------------------------------------------------------------------------
# Classical determinantal identities

def _bordered_determinant_data(n: int):
    """The three bordered matrices whose double-cofactor identities underlie
    relations r1, r3, r5 of the rank-4 presentation, with the column-tableau
    identifications of their corner minors.

    Each item: (name, matrix, ((signed minor),) * 6) where the minors are
    (det A, det A', det A_m^m, det A_1^1, det A_m^1, det A_1^m).
    """
    def x(i, j):
        return Polynomial.variable(n, "x", i, j)

    def y(i, j):
        return Polynomial.variable(n, "y", i, j)

    def m(empty, *entries):
        return minor(n, ColumnTableau(empty, tuple(entries)))

    zero = Polynomial.zero(n)
    one = Polynomial.one(n)
    first = [
        [zero, zero, one, zero],
        [y(1, 1), x(1, 1), x(1, 2), y(1, 2)],
        [y(2, 1), x(2, 1), x(2, 2), y(2, 2)],
        [y(3, 1), x(3, 1), x(3, 2), y(3, 2)],
    ]
    second = [[zero, zero, zero, one, zero]] + [
        [y(i, 1), x(i, 1), x(i, 2), x(i, 3), y(i, 2)] for i in range(1, 5)
    ]
    third = [[zero, zero, zero, one, zero]] + [
        [y(i, 2), x(i, 1), y(i, 1), x(i, 2), y(i, 3)] for i in range(1, 5)
    ]
    return (
        ("r1", first, (-m(1, 1, 2), m(2), -m(1, 1), m(2, 2), -m(1, 2), m(2, 1))),
        ("r3", second, (-m(2, 1, 2), m(3), -m(2, 1), m(3, 2), m(2, 2), -m(3, 1))),
        ("r5", third, (-m(1, 1, 2, 3), -m(2, 1), -m(1, 1, 2), -m(2, 1, 3),
                       m(1, 1, 3), m(2, 1, 2))),
    )


def _double_cofactor_residual(corners) -> Polynomial:
    """det A * det A' - (det A_m^m * det A_1^1 - det A_m^1 * det A_1^m),
    zero by the Desnanot-Jacobi identity."""
    a, inner, mm, oo, m1, om = corners
    return a * inner - (mm * oo - m1 * om)


def _desnanot_jacobi_corners(matrix):
    size = len(matrix)
    inner = [row[1:-1] for row in matrix[1:-1]]

    def drop(rows, cols):
        return [[matrix[r][c] for c in range(size) if c not in cols]
                for r in range(size) if r not in rows]

    return (det(matrix), det(inner), det(drop({size - 1}, {size - 1})),
            det(drop({0}, {0})), det(drop({size - 1}, {0})), det(drop({0}, {size - 1})))


def _fresh_matrix(n: int, size: int):
    """A size x size matrix of distinct variables from the rank-n ring."""
    if size * size > variable_count(n):
        raise ValueError("not enough variables for a generic matrix")
    entries = iter(variable_labels(n))
    return [[Polynomial.variable(n, *next(entries)) for _ in range(size)]
            for _ in range(size)]


def verify_classical_identities(n: int) -> list[CheckResult]:
    """Determinantal identities used by the presentations.

    (a) the double-cofactor (Desnanot-Jacobi) identity for generic 3x3, 4x4
        and 5x5 matrices;
    (b) the two-column straightening identity behind rewriting a y-column
        times an x-column (checked in the rank-n ring);
    (c) for n = 4, the bordered matrices whose double-cofactor identities
        specialize to relations r1, r3, r5: the corner minors are identified
        with the column-tableau minors and the induced identities expand to
        zero.
    """
    results = []
    for size in (3, 4, 5):
        residual = _double_cofactor_residual(_desnanot_jacobi_corners(_fresh_matrix(4, size)))
        results.append(CheckResult(
            f"double-cofactor identity, generic {size}x{size}", residual.is_zero,
            "" if residual.is_zero else "nonzero residual"))

    col = lambda empty, *entries: minor(n, ColumnTableau(empty, tuple(entries)))
    straighten = (col(0, 1, 2) * col(1)
                  - col(1, 2) * col(0, 1) + col(1, 1) * col(0, 2))
    results.append(CheckResult(
        "two-column straightening identity", straighten.is_zero,
        "" if straighten.is_zero else "nonzero residual"))

    if n == 4:
        for name, matrix, expected in _bordered_determinant_data(4):
            corners = _desnanot_jacobi_corners(matrix)
            residual = _double_cofactor_residual(corners)
            results.append(CheckResult(
                f"double-cofactor identity on the {name} bordered matrix",
                residual.is_zero, "" if residual.is_zero else "nonzero residual"))
            matched = all((c - e).is_zero for c, e in zip(corners, expected))
            results.append(CheckResult(
                f"corner minors of the {name} matrix match column-tableau minors",
                matched, "" if matched else "some corner disagrees"))
            induced = _double_cofactor_residual(expected)
            results.append(CheckResult(
                f"minor-form identity behind {name} expands to zero", induced.is_zero,
                "" if induced.is_zero else "nonzero residual"))
    return results
