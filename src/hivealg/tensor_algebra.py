"""Generators of the GL(n) tensor product algebras for n = 2, 3, 4, lifting
of hive decompositions to explicit highest weight vectors, and symbolic
verification of the presentation relations and the classical determinantal
identities behind them."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import cone
from .hive import Boundary, Hive
from .polynomial import (ColumnTableau, Polynomial, Weight, det, minor,
                         monomial_exponents, raising_derivation,
                         render_monomial, variable_count, variable_labels)
from .report import CheckResult, ConsistencyError
from .shapes import pad
from .tableau import LRTableau, hive_to_tableau

# Each generator is a signed sum of products of column-tableau minors:
# a tuple of (coefficient, ((empty, entries), ...)) terms.
_GENERATOR_TERMS: dict[int, tuple] = {
    2: (
        ((1, ((0, (1, 2)),)),),
        ((1, ((1, (1,)),)),),
        ((1, ((1, ()),)),),
        ((1, ((2, ()),)),),
        ((1, ((0, (1,)),)),),
    ),
    3: (
        ((1, ((0, (1,)),)),),
        ((1, ((0, (1, 2, 3)),)),),
        ((1, ((0, (1, 2)),)),),
        ((1, ((1, ()),)),),
        ((1, ((1, (1,)),)),),
        ((1, ((1, (1, 2)),)),),
        ((1, ((2, ()),)),),
        ((1, ((2, (1,)),)),),
        ((1, ((3, ()),)),),
        ((1, ((2, (2,)), (0, (1,)))), (-1, ((2, (1,)), (0, (2,))))),
    ),
    4: (
        ((1, ((0, (1,)),)),),
        ((1, ((0, (1, 2)),)),),
        ((1, ((0, (1, 2, 3)),)),),
        ((1, ((0, (1, 2, 3, 4)),)),),
        ((1, ((1, ()),)),),
        ((1, ((1, (1,)),)),),
        ((1, ((1, (1, 2)),)),),
        ((1, ((1, (1, 2, 3)),)),),
        ((1, ((2, ()),)),),
        ((1, ((2, (1,)),)),),
        ((1, ((2, (1, 2)),)),),
        ((1, ((3, ()),)),),
        ((1, ((3, (1,)),)),),
        ((1, ((4, ()),)),),
        ((1, ((2, (2,)), (0, (1,)))), (-1, ((2, (1,)), (0, (2,))))),
        ((1, ((2, (2, 3)), (0, (1,)))), (-1, ((2, (1, 3)), (0, (2,)))),
         (1, ((2, (1, 2)), (0, (3,))))),
        ((1, ((2, (1, 3)), (0, (1, 2)))), (-1, ((2, (1, 2)), (0, (1, 3))))),
        ((1, ((3, (2,)), (0, (1,)))), (-1, ((3, (1,)), (0, (2,))))),
        ((1, ((3, (3,)), (0, (1, 2)))), (-1, ((3, (2,)), (0, (1, 3)))),
         (1, ((3, (1,)), (0, (2, 3))))),
        ((1, ((3, (2,)), (1, (1,)))), (-1, ((3, (1,)), (1, (2,))))),
    ),
}

@dataclass(frozen=True)
class GeneratorTable:
    """The generators g_1..g_m of the rank-n tensor product algebra, indexed
    in step with the Hilbert basis hives h_1..h_m of the hive cone."""

    n: int
    generators: tuple[Polynomial, ...]

    def generator(self, index: int) -> Polynomial:
        """1-based access, matching the h_i numbering."""
        return self.generators[index - 1]


def _signed_sum(n: int, terms, factor) -> Polynomial:
    """Sum over (coeff, items) terms of coeff * prod(factor(item))."""
    total = Polynomial.zero(n)
    for coeff, items in terms:
        prod = Polynomial.constant(n, coeff)
        for item in items:
            prod = prod * factor(item)
        total = total + prod
    return total


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


@lru_cache(maxsize=4)
def build_generators(n: int) -> GeneratorTable:
    """Construct and fully validate the generator table for n = 2, 3, 4:
    each generator is checked against the index-matched Hilbert basis hive,
    whose boundary is its torus weight."""
    if n not in _GENERATOR_TERMS:
        raise ValueError(f"no generator data for rank {n}")
    generators = tuple(_signed_sum(n, terms, lambda col: minor(n, ColumnTableau(*col)))
                       for terms in _GENERATOR_TERMS[n])
    for idx, (g, h) in enumerate(zip(generators, cone.presentation(n).basis), start=1):
        _check_highest_weight(f"g_{idx}", g, h, h.boundary())
    return GeneratorTable(n, generators)


@dataclass(frozen=True)
class HighestWeightVector:
    boundary: Boundary
    hive: Hive
    decomposition: tuple[int, ...]  # 1-based generator indices, sorted
    polynomial: Polynomial

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
    poly = Polynomial.one(n)
    for k in indices:
        poly = poly * table.generator(k)
    boundary = hive.boundary()
    _check_highest_weight("lifted vector for hive {}", poly, hive, boundary)
    return HighestWeightVector(boundary, hive, indices, poly)


def hwv_basis(n: int, lam, mu, nu) -> list[HighestWeightVector]:
    """One highest weight vector per hive with boundary (lam, mu, nu); their
    initial monomials are asserted pairwise distinct, so they are a basis of
    the corresponding graded component."""
    from .counting import enumerate_hives

    vectors = [highest_weight_vector(n, h) for h in enumerate_hives(n, lam, mu, nu)]
    initials = [v.polynomial.leading_term()[0] for v in vectors]
    if len(set(initials)) != len(initials):
        raise ConsistencyError(
            f"initial monomials collide for boundary ({lam}, {mu}, {nu})")
    return vectors


def verify_presentation_relations(n: int) -> list[CheckResult]:
    """Expand each tabulated relation among the generators and test that it is
    identically zero."""
    table = build_generators(n)
    results = []
    for name, signed_terms in cone.PRESENTATION_RELATIONS[n]:
        total = _signed_sum(n, signed_terms, table.generator)
        if total.is_zero:
            results.append(CheckResult(f"relation {name}", True))
        else:
            exps, coeff = total.leading_term()
            results.append(CheckResult(
                f"relation {name}", False,
                f"nonzero: surviving term {coeff}*{render_monomial(n, exps)}"))
    return results


def verify_independence(trials: int = 5, seed: int = 20240814) -> list[CheckResult]:
    """Algebraic independence of the five rank-2 generators: the 5 x 8
    Jacobian has full rank at some random integer point (exact rank over the
    rationals), which suffices in characteristic zero."""
    table = build_generators(2)
    jacobian = [[g.partial(*var) for var in variable_labels(2)] for g in table.generators]
    rng = random.Random(seed)
    ranks = []
    for _ in range(trials):
        point = [rng.randint(-9, 9) for _ in range(variable_count(2))]
        if not any(point):
            point[0] = 1
        rows = [[Fraction(entry.evaluate(point)) for entry in row] for row in jacobian]
        ranks.append(_rank(rows))
    ok = max(ranks) == len(table.generators)
    detail = f"jacobian ranks at {trials} sample points: {ranks}"
    return [CheckResult("rank-2 generators algebraically independent", ok, detail)]


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                factor = rows[r][c] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


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
