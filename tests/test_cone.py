import random
from dataclasses import fields

import pytest

from hivealg import cone
from hivealg.cone import (ConePresentation, NoDecompositionError, decompose,
                          generators_input_text, hilbert_basis,
                          hives_up_to_degree, inequalities_input_text,
                          presentation, verify_relations)
from hivealg.hive import Hive, cone_rows, hive_violations, triangle_size
from test_hive_properties import decomposes, interpreted_decompositions

RANK4_INEQUALITY_ROWS = [
    "-1 1 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 -1 0 1 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 -1 0 0 1 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 -1 0 0 0 1 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 -1 1 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 -1 1 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 -1 1 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 -1 1",
    "-1 0 1 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 -1 0 0 1 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 -1 0 0 0 1 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 -1 0 0 0 0 1",
    "-1 1 1 0 -1 0 0 0 0 0 0 0 0 0 0",
    "0 -1 0 1 1 0 0 -1 0 0 0 0 0 0 0",
    "0 0 -1 0 1 1 0 0 -1 0 0 0 0 0 0",
    "0 0 0 -1 0 0 1 1 0 0 0 -1 0 0 0",
    "0 0 0 0 -1 0 0 1 1 0 0 0 -1 0 0",
    "0 0 0 0 0 -1 0 0 1 1 0 0 0 -1 0",
    "0 -1 1 0 1 -1 0 0 0 0 0 0 0 0 0",
    "0 0 0 -1 1 0 0 1 -1 0 0 0 0 0 0",
    "0 0 0 0 -1 1 0 0 1 -1 0 0 0 0 0",
    "0 0 0 0 0 0 -1 1 0 0 0 1 -1 0 0",
    "0 0 0 0 0 0 0 -1 1 0 0 0 1 -1 0",
    "0 0 0 0 0 0 0 0 -1 1 0 0 0 1 -1",
    "0 1 -1 -1 1 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 1 -1 0 -1 1 0 0 0 0 0 0 0",
    "0 0 0 0 1 -1 0 -1 1 0 0 0 0 0 0",
    "0 0 0 0 0 0 1 -1 0 0 -1 1 0 0 0",
    "0 0 0 0 0 0 0 1 -1 0 0 -1 1 0 0",
    "0 0 0 0 0 0 0 0 1 -1 0 0 -1 1 0",
]
RANK4_EQUATION_ROW = "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0"


def zero_hive(n):
    """The hive of degree 0: every entry 0."""
    return Hive.from_flat((0,) * triangle_size(n))


def test_rank4_inequality_rows_are_pinned_exactly():
    lines = inequalities_input_text(4).splitlines()
    assert lines[:2] == ["30", "15"]
    assert lines[2:32] == RANK4_INEQUALITY_ROWS
    assert lines[32:] == ["inequalities", "", "1", "15", RANK4_EQUATION_ROW, "equations"]


@pytest.mark.parametrize("n", range(2, 9))
def test_export_writes_each_cone_row_then_the_apex_equation(n):
    dim = triangle_size(n)
    count = 3 * n + 3 * n * (n - 1) // 2
    lines = inequalities_input_text(n).splitlines()
    assert lines[:2] == [str(count), str(dim)] and len(lines) == count + 8
    vectors = [[int(c) for c in line.split()] for line in lines[2:2 + count]]
    assert all(len(v) == dim for v in vectors)
    assert [{k: c for k, c in enumerate(v) if c} for v in vectors] == \
        [dict(terms) for *_, terms in cone_rows(n)]
    assert lines[2 + count:] == ["inequalities", "", "1", str(dim),
                                 " ".join(["1"] + ["0"] * (dim - 1)), "equations"]


def test_rank2_system_shape_and_zero_membership():
    assert inequalities_input_text(2).splitlines()[:2] == [str(6 + 3), "6"]
    assert decompose(Hive.from_flat((0,) * 6), presentation(2)) == ()
    with pytest.raises(ValueError, match="rank must be >= 2"):
        inequalities_input_text(1)


@pytest.mark.parametrize("n", [2, 3])
def test_membership_agrees_with_validation_on_random_arrays(n):
    rng = random.Random(411)
    dim = (n + 1) * (n + 2) // 2
    pool = hives_up_to_degree(n, 4)
    members = 0
    for trial in range(1000):
        if trial % 2:
            # perturb a genuine hive so both sides of the fence get sampled
            flat = list(rng.choice(pool).to_flat())
            for _ in range(rng.randint(0, 2)):
                flat[rng.randrange(dim)] += rng.choice((-1, 1))
        else:
            flat = [rng.randint(-2, 4) for _ in range(dim)]
        rows = []
        k = 0
        for i in range(1, n + 2):
            rows.append(flat[k:k + i])
            k += i
        valid = flat[0] == 0 and not hive_violations(rows)
        assert decomposes(flat, n) == valid
        members += valid
    assert 0 < members < 1000  # sample straddles the boundary


def test_hive_counts_up_to_degree():
    assert len(hives_up_to_degree(2, 3)) == 1 + 2 + 6 + 10
    assert len(hives_up_to_degree(3, 4)) == 1 + 2 + 6 + 14 + 29
    assert hives_up_to_degree(3, 0) == (zero_hive(3),)


def test_hives_up_to_degree_sorted_and_unique():
    hives = hives_up_to_degree(3, 3)
    keys = [(h.degree, h.to_flat()) for h in hives]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("n,degree_bound,expected_size", [(2, 8, 5), (3, 8, 10)])
def test_hilbert_basis_small_ranks(n, degree_bound, expected_size):
    basis = hilbert_basis(n, degree_bound)
    assert len(basis) == expected_size
    assert ({h.to_flat() for h in basis}
            == {h.to_flat() for h in presentation(n).basis})


def test_hilbert_basis_rank2_flat_coordinates():
    assert sorted(h.to_flat() for h in hilbert_basis(2, 8)) == [
        (0, 0, 1, 0, 1, 1),
        (0, 0, 1, 0, 1, 2),
        (0, 1, 1, 1, 1, 1),
        (0, 1, 1, 1, 2, 2),
        (0, 1, 1, 2, 2, 2),
    ]


def test_hilbert_basis_stable_under_degree_bound():
    twelve = {h.to_flat() for h in hilbert_basis(4, 12)}
    thirteen = {h.to_flat() for h in hilbert_basis(4, 13)}
    assert twelve == thirteen
    assert len(twelve) == 20


@pytest.mark.parametrize("n, max_degree", [(1, 30), (2, 14), (3, 10), (4, 8), (5, 6)])
def test_hive_entries_lie_between_apex_and_corner(n, max_degree):
    # the lemma that makes hilbert_basis's packed keys exact
    for h in hives_up_to_degree(n, max_degree):
        rows = h.rows
        assert rows[0] == (0,)
        assert all(a <= b for row in rows for a, b in zip(row, row[1:]))
        assert all(upper[j] <= lower[j] for upper, lower in zip(rows, rows[1:])
                   for j in range(len(upper)))
        assert max(h.flat) == h.degree


def test_hilbert_basis_with_keys_wider_than_a_byte():
    assert [h.to_flat() for h in hilbert_basis(1, 200)] == [(0, 0, 1), (0, 1, 1)]


def test_hilbert_basis_rejects_a_degree_past_the_widest_key(monkeypatch):
    def unreachable(n, max_degree):
        raise AssertionError("hives_up_to_degree called")

    monkeypatch.setattr(cone, "hives_up_to_degree", unreachable)
    with pytest.raises(ValueError, match="max_degree 9223372036854775808"):
        hilbert_basis(1, 2 ** 63)


def test_hilbert_basis_lists_the_hives_once(monkeypatch):
    calls, listed = [], cone.hives_up_to_degree

    def counted(n, max_degree):
        calls.append((n, max_degree))
        return listed(n, max_degree)

    monkeypatch.setattr(cone, "hives_up_to_degree", counted)
    hilbert_basis(3, 6)
    assert calls == [(3, 6)]


def test_presentation_degrees():
    def degrees(n):
        return tuple(h.degree for h in presentation(n).basis)

    assert degrees(2) == (2, 2, 1, 2, 1)
    assert degrees(3) == (1, 3, 2, 1, 2, 3, 2, 3, 3, 4)
    assert degrees(4) == (1, 2, 3, 4, 1, 2, 3, 4, 2, 3,
                          4, 3, 4, 4, 4, 5, 6, 5, 6, 6)
    with pytest.raises(ValueError):
        presentation(5)


def test_verify_relations_counts():
    assert verify_relations(presentation(2)) == []
    assert [r.ok for r in verify_relations(presentation(3))] == [True]
    results = verify_relations(presentation(4))
    assert len(results) == 15 and all(r.ok for r in results)


def test_decompose_worked_example():
    pres = presentation(3)
    h = Hive.from_rows([[0], [2, 3], [3, 4, 5], [3, 5, 6, 6]])
    h_prime = Hive.from_rows([[0], [2, 3], [3, 5, 5], [3, 5, 6, 6]])
    assert decompose(h, pres) == (3, 4, 8)
    assert decompose(zero_hive(3), pres) == ()
    found = decompose(h_prime, pres)
    assert sum((pres.basis[k - 1] for k in found), zero_hive(3)) == h_prime
    assert (1, 6, 7) in interpreted_decompositions(h_prime, pres, False)


def test_decompose_sees_both_relation_sides():
    pres = presentation(3)
    h = pres.basis[0] + pres.basis[5] + pres.basis[6]
    assert interpreted_decompositions(h, pres, False) == {(1, 6, 7), (5, 10)}
    assert decompose(h, pres) == (1, 6, 7)


def test_decompose_of_a_basis_element_is_itself():
    pres = presentation(3)
    for k, h in enumerate(pres.basis, start=1):
        assert interpreted_decompositions(h, pres, False) == {(k,)}


def test_rank4_relation_side_decomposes_both_ways():
    pres = presentation(4)
    h = pres.basis[0] + pres.basis[6] + pres.basis[8]  # h_1 + h_7 + h_9
    assert (6, 15) in interpreted_decompositions(h, pres, False)


def without(pres, drop):
    """The presentation with basis element drop (0-based) left out."""
    return ConePresentation(pres.n,
                            pres.basis[:drop] + pres.basis[drop + 1:],
                            ())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_is_minimal(n):
    pres = presentation(n)
    for drop in range(len(pres.basis)):
        with pytest.raises(NoDecompositionError):
            decompose(pres.basis[drop], without(pres, drop))


def test_a_zero_basis_element_is_rejected():
    # it bounds no multiplicity: the search could not be built
    pres = presentation(2)
    with pytest.raises(ValueError, match="a basis element raises no cone row"):
        decompose(pres.basis[0], ConePresentation(2, (zero_hive(2),) + pres.basis, ()))


def test_decompose_rejects_a_presentation_of_another_rank():
    with pytest.raises(ValueError, match="rank mismatch: hive 3, presentation 4"):
        decompose(presentation(3).basis[0], presentation(4))
    with pytest.raises(ValueError, match="rank mismatch: hive 4, presentation 3"):
        decompose(presentation(4).basis[16], presentation(3))


def brute_force_irreducibles(n, max_degree):
    """Nonzero hives that are not the sum of two nonzero hives, by trying
    every other nonzero hive as one summand."""
    nonzero = [h.to_flat() for h in hives_up_to_degree(n, max_degree)
               if any(h.to_flat())]
    members = set(nonzero)
    return [Hive.from_flat(h) for h in nonzero
            if not any(tuple(a - b for a, b in zip(h, g)) in members
                       for g in nonzero if g != h)]


@pytest.mark.parametrize("n, max_degree", [(2, 8), (3, 8), (4, 8), (5, 6)])
def test_hilbert_basis_matches_brute_force(n, max_degree):
    assert list(hilbert_basis(n, max_degree)) == brute_force_irreducibles(n, max_degree)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_presentation_is_its_four_fields(n):
    pres = presentation(n)
    fresh = ConePresentation(n, pres.basis, pres.relations)
    assert fresh == pres and hash(fresh) == hash(pres)
    assert [f.name for f in fields(pres)] == ["n", "basis", "relations"]


def test_inequalities_export_text_layout():
    text = inequalities_input_text(4)
    lines = text.splitlines()
    assert lines[0] == "30"
    assert lines[1] == "15"
    assert lines[2:32] == RANK4_INEQUALITY_ROWS
    assert lines[32] == "inequalities"
    assert lines[33] == ""
    assert lines[34:38] == ["1", "15", RANK4_EQUATION_ROW, "equations"]


def test_generators_export_lists_basis_in_coordinate_order():
    text = generators_input_text(4)
    lines = text.splitlines()
    assert lines[0] == "amb_space 15"
    assert lines[1] == "cone 20"
    vectors = [tuple(int(v) for v in line.split()) for line in lines[2:22]]
    assert vectors == sorted(vectors)
    assert {tuple(v) for v in vectors} == {h.to_flat() for h in presentation(4).basis}
    assert all(line.startswith(" ") for line in lines[2:22])
    assert lines[22] == ""
    assert lines[23] == "grading"
    assert lines[24] == " " + " ".join(["0"] * 14 + ["1"])
