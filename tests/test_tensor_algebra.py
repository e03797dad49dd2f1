import hashlib
import math

import pytest

from hivealg import cone, tensor_algebra
from hivealg.cli import run
from hivealg.cone import (BinomialRelation, ConePresentation, decompose,
                          hives_up_to_degree, presentation, verify_relations)
from hivealg.counting import enumerate_hives
from hivealg.hive import Hive, triangle_size
from hivealg.polynomial import ColumnTableau, Polynomial, Weight, minor
from hivealg.report import ConsistencyError
from hivealg.tableau import hive_to_tableau
from hivealg.tensor_algebra import (GeneratorTable, _check_highest_weight, _subduce,
                                    build_generators, highest_weight_vector, hwv_basis,
                                    lemma_initial_exponents,
                                    verify_classical_identities,
                                    verify_independence,
                                    verify_presentation_relations)
from test_hive_properties import interpreted_decompositions


# The paper's relations among the generators, as (name, signed products of
# generator indices); each expands to zero.  The first two terms are the
# relation's hive binomial, which cone.PRESENTATION_RELATIONS keeps; the rest
# is its tail, which verify finds by subduction.
PAPER_RELATIONS = {
    3: (("r1", ((1, (1, 6, 7)), (-1, (5, 10)), (1, (3, 4, 8)))),),
    4: (
        ("r1", ((1, (1, 7, 9)), (-1, (6, 15)), (1, (2, 5, 10)))),
        ("r2", ((1, (1, 8, 9)), (-1, (6, 16)), (1, (5, 17)))),
        ("r3", ((1, (1, 11, 12)), (-1, (10, 18)), (1, (13, 15)))),
        ("r4", ((1, (6, 11, 12)), (-1, (10, 20)), (1, (7, 9, 13)))),
        ("r5", ((1, (2, 8, 10)), (-1, (7, 17)), (1, (3, 6, 11)))),
        ("r6", ((1, (2, 8, 12)), (-1, (7, 19)), (1, (3, 20)))),
        ("r7", ((1, (6, 18)), (-1, (1, 20)), (-1, (2, 5, 13)))),
        ("r8", ((1, (7, 16)), (-1, (8, 15)), (-1, (3, 5, 11)))),
        ("r9", ((1, (10, 19)), (-1, (12, 17)), (-1, (3, 9, 13)))),
        ("r10", ((1, (15, 17)), (-1, (2, 10, 16)), (-1, (1, 3, 9, 11)))),
        ("r11", ((1, (15, 19)), (-1, (2, 12, 16)), (-1, (3, 9, 18)))),
        ("r12", ((1, (15, 20)), (-1, (7, 9, 18)), (-1, (2, 5, 11, 12)))),
        ("r13", ((1, (16, 20)), (-1, (8, 9, 18)), (-1, (5, 11, 19)))),
        ("r14", ((1, (17, 20)), (-1, (6, 11, 19)), (-1, (2, 8, 9, 13)))),
        ("r15", ((1, (17, 18)), (-1, (1, 11, 19)), (-1, (2, 13, 16)))),
    ),
}


def mono(n, *factors):
    from hivealg.polynomial import monomial_exponents

    return monomial_exponents(n, factors)


@pytest.mark.parametrize("n,count", [(2, 5), (3, 10), (4, 20)])
def test_generator_tables_build_and_validate(n, count):
    table = build_generators(n)
    assert len(table.generators) == count
    assert len(presentation(n).basis) == count


def test_rank2_first_generator_weight():
    table = build_generators(2)
    assert table.generator(1).weight() == Weight((1, 1), (0, 0), (1, 1))


def test_rank3_tenth_generator_is_the_two_term_combination():
    g10 = build_generators(3).generator(10)
    expected = (minor(3, ColumnTableau(2, (2,))) * minor(3, ColumnTableau(0, (1,)))
                - minor(3, ColumnTableau(2, (1,))) * minor(3, ColumnTableau(0, (2,))))
    assert g10 == expected


def test_rank4_generators_include_multi_term_combinations():
    table = build_generators(4)
    g16 = (minor(4, ColumnTableau(2, (2, 3))) * minor(4, ColumnTableau(0, (1,)))
           - minor(4, ColumnTableau(2, (1, 3))) * minor(4, ColumnTableau(0, (2,)))
           + minor(4, ColumnTableau(2, (1, 2))) * minor(4, ColumnTableau(0, (3,))))
    assert table.generator(16) == g16
    # the eighth generator is the single-column minor with one empty box
    assert table.generator(8) == minor(4, ColumnTableau(1, (1, 2, 3)))


def test_rank4_seventeenth_weight_matches_table():
    assert build_generators(4).generator(17).weight() == Weight(
        (2, 2, 1, 1), (1, 1, 0, 0), (2, 1, 1, 0))


def test_worked_example_vector_f():
    table = build_generators(3)
    h = Hive.from_rows([[0], [2, 3], [3, 4, 5], [3, 5, 6, 6]])
    vec = highest_weight_vector(3, h)
    assert vec.decomposition == (3, 4, 8)
    assert vec.polynomial == (table.generator(3) * table.generator(4)
                              * table.generator(8))
    exps, coeff = vec.polynomial.leading_term()
    assert coeff == 1
    assert exps == mono(3, ("x", 1, 1), ("x", 1, 1), ("x", 2, 2),
                        ("y", 1, 1), ("y", 2, 2), ("y", 3, 1))


def test_worked_example_vector_f_prime():
    h_prime = Hive.from_rows([[0], [2, 3], [3, 5, 5], [3, 5, 6, 6]])
    vec = highest_weight_vector(3, h_prime)
    assert vec.decomposition == (1, 6, 7)
    exps, _ = vec.polynomial.leading_term()
    assert exps == mono(3, ("x", 1, 1), ("x", 1, 1), ("x", 2, 2),
                        ("y", 1, 1), ("y", 2, 1), ("y", 3, 2))


def test_zero_hive_lifts_to_one():
    vec = highest_weight_vector(3, Hive.from_flat((0,) * triangle_size(3)))
    assert vec.decomposition == ()
    assert vec.polynomial == Polynomial.one(3)


def test_hwv_basis_worked_example():
    vectors = hwv_basis(3, (3, 2, 1), (2, 1), (2, 1))
    initials = {v.polynomial.leading_term()[0] for v in vectors}
    assert initials == {
        mono(3, ("x", 1, 1), ("x", 1, 1), ("x", 2, 2),
             ("y", 1, 1), ("y", 2, 2), ("y", 3, 1)),
        mono(3, ("x", 1, 1), ("x", 1, 1), ("x", 2, 2),
             ("y", 1, 1), ("y", 2, 1), ("y", 3, 2)),
    }


def test_hwv_basis_empty_for_zero_coefficient():
    assert hwv_basis(2, (2,), (1, 1), (1,)) == []


def test_hwv_basis_size_matches_coefficient():
    from hivealg.counting import lr_coefficient

    vectors = hwv_basis(2, (2, 1), (1,), (2,))
    assert len(vectors) == lr_coefficient(2, (2, 1), (1,), (2,)) == 1


@pytest.mark.parametrize("n,count", [(2, 0), (3, 1), (4, 15)])
def test_presentation_relations_expand_to_zero(n, count):
    results = verify_presentation_relations(n)
    assert len(results) == count
    assert all(r.ok for r in results)


def test_rank3_relation_correction_term():
    g = build_generators(3).generator
    assert g(1) * g(6) * g(7) - g(5) * g(10) == -(g(3) * g(4) * g(8))


def test_rank4_r7_correction_term():
    # the two-term side minus the lifted side leaves exactly +g2*g5*g13,
    # fixing the sign of the correction in the stored relation
    g = build_generators(4).generator
    assert g(6) * g(18) - g(1) * g(20) == g(2) * g(5) * g(13)


def test_two_decompositions_lift_to_same_initial_and_weight():
    pres = presentation(3)
    table = build_generators(3)
    h = pres.basis[0] + pres.basis[5] + pres.basis[6]
    assert interpreted_decompositions(h, pres, False) == {(1, 6, 7), (5, 10)}
    p167, p510 = table.product((1, 6, 7)), table.product((5, 10))
    assert p167.weight() == p510.weight()
    assert p167.leading_term() == p510.leading_term()


def test_generator_product_multiplies_in_order():
    table = build_generators(3)
    g = table.generator
    assert table.product((3, 4, 8)) == g(3) * g(4) * g(8)
    assert table.product(()) == Polynomial.one(3)


@pytest.mark.parametrize("n", [3, 4])
def test_first_two_terms_of_each_relation_are_its_leading_binomial(n):
    table = build_generators(n)
    for name, terms in PAPER_RELATIONS[n]:
        assert sum((c * table.product(indices) for c, indices in terms),
                   Polynomial.zero(n)).is_zero, name
        first, second, *rest = (table.product(indices).leading_term()
                                for _, indices in terms)
        assert first == second, name
        assert all(exps < first[0] for exps, _ in rest), name
    assert presentation(n).relations == tuple(
        BinomialRelation(name, left, right)
        for name, ((_, left), (_, right), *_) in PAPER_RELATIONS[n])


def _subduction_steps(monkeypatch, table, poly):
    """The remainder of poly and the generator products subduction took off,
    in order."""
    steps, product = [], GeneratorTable.product
    monkeypatch.setattr(GeneratorTable, "product",
                        lambda self, indices: steps.append(indices) or product(self, indices))
    rest = _subduce(table, presentation(table.n), poly)
    monkeypatch.undo()
    return rest, steps


@pytest.mark.parametrize("n", [3, 4])
def test_subduction_finds_each_paper_tail(n, monkeypatch):
    # the tail's products in order; as the paper's relation expands to zero,
    # so that g^left - g^right is minus the tail, this fixes each sign too
    table = build_generators(n)
    for name, ((_, left), (_, right), *tail) in PAPER_RELATIONS[n]:
        binomial = table.product(left) - table.product(right)
        rest, steps = _subduction_steps(monkeypatch, table, binomial)
        assert rest.is_zero and steps == [indices for _, indices in tail], name


def _initial_pairs(pres):
    """The pairs i <= j with decompose(h_i + h_j) != (i, j)."""
    m = len(pres.basis)
    return {(i, j) for i in range(1, m + 1) for j in range(i, m + 1)
            if decompose(pres.basis[i - 1] + pres.basis[j - 1], pres) != (i, j)}


@pytest.mark.parametrize("n,count", [(2, 0), (3, 1), (4, 15)])
def test_initial_pairs_are_one_side_of_each_relation(n, count):
    # the side that is not an initial pair is decompose's output
    pres = presentation(n)
    pairs, sides = _initial_pairs(pres), set()
    assert len(pairs) == count
    for rel in pres.relations:
        (i, j), standard = (rel.left, rel.right) if rel.left in pairs else (rel.right, rel.left)
        assert (i, j) in pairs, rel.name
        assert decompose(pres.basis[i - 1] + pres.basis[j - 1], pres) == standard, rel.name
        sides.add((i, j))
    assert sides == pairs


@pytest.mark.parametrize("n", [3, 4])
def test_each_initial_pair_subduces_to_zero_in_two_steps(n, monkeypatch):
    # g_i g_j less the product of decompose's side leaves the relation's
    # tail, whose leading term is one more step
    table = build_generators(n)
    for pair in sorted(_initial_pairs(presentation(n))):
        rest, steps = _subduction_steps(monkeypatch, table, table.product(pair))
        assert rest.is_zero and len(steps) == 2, pair


def test_subduction_stops_at_a_monomial_outside_the_algebra():
    # the second term of g_16 alone: its weight has one hive, whose tableau
    # monomial is g_16's leading one, so no generator product can remove it
    table = build_generators(4)
    exps = sorted(table.generator(16).terms)[-2]
    stuck = Polynomial(4, {exps: 3})
    assert _subduce(table, presentation(4), stuck) == stuck


def test_verify_reports_the_surviving_term_of_a_relation(monkeypatch):
    monkeypatch.setattr(tensor_algebra, "_subduce", lambda table, pres, poly: poly)
    results = verify_presentation_relations(3)
    assert [r.ok for r in results] == [False]
    assert results[0].line().startswith("FAIL  relation r1: nonzero: surviving term ")


# ---------------------------------------------------------------------------
# The checks on the pinned tables stay live: a broken table is rejected.

def test_unbalanced_pinned_binomial_is_rejected(rebuilt, monkeypatch):
    # r13's right side replaced by its tail product
    relations = dict(cone.PRESENTATION_RELATIONS)
    name, left, _ = relations[4][12]
    assert name == PAPER_RELATIONS[4][12][0] == "r13"
    (_, tail), = PAPER_RELATIONS[4][12][1][2:]
    relations[4] = relations[4][:12] + ((name, left, tail),) + relations[4][13:]
    monkeypatch.setattr(cone, "PRESENTATION_RELATIONS", relations)
    with pytest.raises(ConsistencyError, match=r"unbalanced pinned relations: hive relation r13$"):
        presentation(4)


def test_verify_relations_reports_an_unbalanced_binomial():
    broken = ConePresentation(4, presentation(4).basis,
                              (BinomialRelation("r13", (16, 20), (5, 11, 19)),))
    [result] = verify_relations(broken)
    assert not result.ok
    assert result.line().startswith("FAIL  hive relation r13: sides differ at coordinate ")


def test_swapped_generator_terms_are_rejected(rebuilt, monkeypatch):
    # the vectors of h_15 and h_16 swapped
    derive, basis = tensor_algebra._derive_generator, presentation(4).basis
    swap = {basis[14]: basis[15], basis[15]: basis[14]}
    monkeypatch.setattr(tensor_algebra, "_derive_generator",
                        lambda h: derive(swap.get(h, h)))
    with pytest.raises(ConsistencyError, match="g_15 has weight"):
        build_generators(4)


@pytest.mark.parametrize("n,digest", [
    (2, "13864cbd3d03bfb53c5b0c1c811fc08f464ee3a25c56403f3fd7e1ad0ff30d95"),
    (3, "d2d75bb44d7bd7975f306d7126e79ccafa8c546fed9d481e391245971d10b109"),
    (4, "7d417e3c1271ccd3daaa0189afe34a80edaad060c581109056e6c38fdb0426e9"),
])
def test_derived_generators_are_the_tabulated_ones(n, digest):
    # SHA-256 of the generators as the hand-copied table of the paper built
    # them, one per line, before they were derived from the basis hives
    text = "\n".join(str(g) for g in build_generators(n).generators) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_derivation_rejects_a_kernel_that_is_not_a_line():
    # c = 2: the vectors of both hives of this boundary lie in the span of
    # its three column products, one for each column of lambda/mu that takes
    # the entry 2
    hive = enumerate_hives(4, (3, 2, 1), (2, 1), (2, 1))[0]
    with pytest.raises(ConsistencyError) as err:
        tensor_algebra._derive_generator(hive)
    assert str(err.value) == (f"the column products of hive {hive} have a "
                              "2-dimensional kernel, expected 1")


def test_check_runs_the_raising_operators():
    # the leading monomial of g_1 alone has g_1's weight and leading term,
    # so only a raising operator can reject it
    lead, _ = build_generators(2).generator(1).leading_term()
    h1 = presentation(2).basis[0]
    assert Polynomial(2, {lead: 1}).weight() == Weight(*h1.boundary())
    with pytest.raises(ConsistencyError,
                       match=r"not annihilated by raising operator \(1, 1\)"):
        _check_highest_weight("v", Polynomial(2, {lead: 1}), h1, h1.boundary())


def test_failing_lift_names_its_hive(monkeypatch):
    # decompose answers h_1 for the hive h_2, so the product has h_1's weight
    hive = presentation(3).basis[1]
    monkeypatch.setattr(cone, "decompose", lambda h, pres: (1,))
    with pytest.raises(ConsistencyError) as err:
        highest_weight_vector(3, hive)
    assert str(err.value).startswith(f"lifted vector for hive {hive} has weight ")


def test_passing_lift_does_not_render_its_hive(monkeypatch):
    hive = presentation(3).basis[1] + presentation(3).basis[2]
    monkeypatch.setattr(Hive, "__str__", lambda self: pytest.fail("hive rendered"))
    assert highest_weight_vector(3, hive).hive == hive


def test_independence_of_rank2_generators():
    [result] = verify_independence()
    assert result.ok
    assert result.detail == "initial exponent vectors of g_1..g_5 have rank 5"


def test_a_dependent_rank2_table_fails_independence(monkeypatch, capsys):
    # g_4 := g_3 * g_3 is a relation g_4 - g_3^2 = 0; its initial monomial
    # x[1][1]^2 doubles that of g_3 = x[1][1]
    g = build_generators(2).generators
    dependent = tensor_algebra.GeneratorTable(2, g[:3] + (g[2] * g[2],) + g[4:])
    monkeypatch.setattr(tensor_algebra, "build_generators", lambda n: dependent)
    [result] = verify_independence()
    assert not result.ok
    assert result.detail == "initial exponent vectors of g_1..g_5 have rank 4"
    assert run(["verify", "-n", "2"]) == 2
    assert "FAIL  rank-2 generators algebraically independent" in capsys.readouterr().out


def test_nullspace_relations_are_primitive_over_any_pivot():
    # pivots 4 and 2, not +-1: the second vector reduces to 4 v_1 - 6 v_0,
    # which the gcd division must bring to 2 v_1 - 3 v_0
    vectors = [{0: 2, 1: 4}, {0: 3, 1: 6}, {0: 1, 1: 5}]
    [relation] = tensor_algebra._nullspace(vectors)
    assert relation == {0: -3, 1: 2}
    assert all(type(r) is int for r in relation.values())
    assert math.gcd(*relation.values()) == 1
    assert all(sum(r * vectors[i].get(k, 0) for i, r in relation.items()) == 0
               for k in (0, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_identities(n):
    results = verify_classical_identities(n)
    assert all(r.ok for r in results)
    if n == 4:
        names = [r.name for r in results]
        assert sum("bordered matrix" in s for s in names) == 3
        assert sum("corner minors" in s for s in names) == 3


def test_lemma_monomial_matches_lift_on_small_hives():
    for h in hives_up_to_degree(3, 4):
        vec = highest_weight_vector(3, h)
        assert (vec.polynomial.leading_term()
                == (lemma_initial_exponents(3, hive_to_tableau(h)), 1))


def test_hwv_json_bundle():
    h = Hive.from_rows([[0], [2, 3], [3, 4, 5], [3, 5, 6, 6]])
    vec = highest_weight_vector(3, h)
    obj = vec.to_json_dict()
    assert obj["decomposition"] == [3, 4, 8]
    assert obj["boundary"] == {"lambda": [3, 2, 1], "mu": [2, 1, 0], "nu": [2, 1, 0]}
    assert obj["hive"]["rows"][3] == [3, 5, 6, 6]
    assert obj["polynomial"] == vec.polynomial.to_json_obj()
    assert obj["polynomial"][0] == {"coeff": "1", "exps": {"x11": 2, "x22": 1,
                                                           "y11": 1, "y22": 1, "y31": 1}}


def test_generator_table_rejects_unknown_rank():
    with pytest.raises(ValueError):
        build_generators(5)
