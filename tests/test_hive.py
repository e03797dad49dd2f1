import random

import pytest

from hivealg import hive as hive_module
from hivealg.cone import hives_up_to_degree, presentation
from hivealg.hive import (Hive, InvalidHiveError, MalformedArrayError,
                          hive_violations, triangle_size)

WORKED_H = ((0,), (2, 3), (3, 4, 5), (3, 5, 6, 6))
WORKED_H_PRIME = ((0,), (2, 3), (3, 5, 5), (3, 5, 6, 6))


def zero_hive(n):
    """The hive of degree 0: every entry 0."""
    return Hive.from_flat((0,) * triangle_size(n))


def test_valid_rank2_basis_element():
    h = Hive.from_rows([[0], [0, 1], [0, 1, 2]])
    assert h.n == 2
    assert h.boundary() == ((1, 1), (0, 0), (1, 1))


def test_zero_hive_is_valid():
    h = zero_hive(2)
    assert hive_violations(h.rows) == []
    assert h.boundary() == ((0, 0), (0, 0), (0, 0))
    assert h.degree == 0


def test_invalid_array_reports_rhombus_position():
    bad = [[0], [0, 2], [0, 1, 2]]
    violations = hive_violations(bad)
    assert [(v.kind, v.i, v.j) for v in violations] == [("rhombus1", 2, 1)]
    with pytest.raises(InvalidHiveError):
        Hive.from_rows(bad)


def test_malformed_shape_is_a_distinct_error():
    with pytest.raises(MalformedArrayError):
        hive_violations([[0], [1, 2, 3]])
    with pytest.raises(MalformedArrayError):
        Hive.from_flat([0, 1, 2, 3])  # 4 entries never fill a triangle
    with pytest.raises(MalformedArrayError):
        Hive.from_rows([[0]])


def test_worked_example_boundary():
    h = Hive.from_rows(WORKED_H)
    assert h.boundary() == ((3, 2, 1), (2, 1, 0), (2, 1, 0))


def test_rank2_h3_boundary_matches_weight_table_row():
    h3 = Hive.from_rows([[0], [1, 1], [1, 1, 1]])
    assert h3.boundary() == ((1, 0), (1, 0), (0, 0))


def test_add_identity_and_worked_sums():
    pres = presentation(3)
    h = Hive.from_rows(WORKED_H)
    assert (h + zero_hive(3)).rows == h.rows
    b = pres.basis
    assert (b[2] + b[3] + b[7]).rows == WORKED_H          # h_3 + h_4 + h_8
    assert (b[0] + b[5] + b[6]).rows == WORKED_H_PRIME    # h_1 + h_6 + h_7


def test_add_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        zero_hive(2) + zero_hive(3)


def test_degrees_of_named_basis_elements():
    assert presentation(3).basis[9].degree == 4    # h_10
    assert presentation(4).basis[19].degree == 6   # h_20
    assert zero_hive(4).degree == 0


def test_monoid_closure_degree_and_boundary_additivity():
    pool = hives_up_to_degree(3, 4)
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        s = a + b
        assert hive_violations(s.rows) == []
        assert s.degree == a.degree + b.degree
        assert s.boundary() == tuple(
            tuple(x + y for x, y in zip(pa, pb))
            for pa, pb in zip(a.boundary(), b.boundary()))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_only_degree_zero_hive_is_zero(n):
    assert hives_up_to_degree(n, 0) == (zero_hive(n),)


def test_grading_equation_holds_on_sample():
    for h in hives_up_to_degree(3, 4):
        lam, mu, nu = h.boundary()
        assert sum(lam) == sum(mu) + sum(nu) == h.degree


def test_difference_detects_cone_exit():
    pres = presentation(3)

    def minus_h1(rows):
        return tuple(a - b for a, b in zip(Hive.from_rows(rows).to_flat(),
                                           pres.basis[0].to_flat()))

    rest = minus_h1(WORKED_H_PRIME)   # h' - h_1 = h_6 + h_7
    assert Hive.from_flat(rest) == pres.basis[5] + pres.basis[6]
    with pytest.raises(InvalidHiveError):
        Hive.from_flat(minus_h1(WORKED_H))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_perturbed_hive_fails_flat_and_row_validation_alike(n):
    # one entry moved by one: well-shaped, and mostly no longer a hive
    rng = random.Random(n)
    pool = hives_up_to_degree(n, 3)
    rejected = 0
    for hive in rng.sample(pool, min(len(pool), 20)):
        for pos in range(triangle_size(n)):
            for delta in (-1, 1):
                flat = list(hive.flat)
                flat[pos] += delta
                rows = Hive(n, tuple(flat)).rows
                expected = hive_violations(rows)
                if not expected:
                    assert Hive.from_flat(flat) == Hive.from_rows(rows) == Hive(n, tuple(flat))
                    continue
                rejected += 1
                for build, given in ((Hive.from_flat, flat), (Hive.from_rows, rows)):
                    with pytest.raises(InvalidHiveError) as err:
                        build(given)
                    assert err.value.violations == expected
    assert rejected


def test_only_row_input_runs_the_shape_check(monkeypatch):
    calls = []
    check = hive_module._check_shape
    monkeypatch.setattr(hive_module, "_check_shape", lambda rows: calls.append(1) or check(rows))
    h = Hive.from_flat((0, 2, 3, 3, 4, 5, 3, 5, 6, 6))
    assert calls == []
    assert Hive.from_rows(WORKED_H) == h and calls == [1]


def test_flat_and_json_round_trips():
    h = Hive.from_rows(WORKED_H)
    assert Hive.from_flat(h.to_flat()).rows == h.rows
    assert h.to_flat() == (0, 2, 3, 3, 4, 5, 3, 5, 6, 6)
    assert h.to_json_dict() == {"n": 3, "rows": [list(r) for r in WORKED_H]}
