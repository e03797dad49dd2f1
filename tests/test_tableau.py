import pytest

from hivealg.counting import enumerate_hives
from hivealg.hive import Hive, triangle_size
from hivealg.shapes import partitions_of
from hivealg.tableau import (LRTableau, TableauError, enumerate_tableaux,
                             hive_to_tableau, tableau_to_hive,
                             validate_tableau)

# skew (11,7,5,3)/(5,3,1,0) filled with content (7,5,3,2)
BIG_EXAMPLE = {
    "outer": (11, 7, 5, 3),
    "inner": (5, 3, 1),
    "rows": ((1, 1, 1, 1, 1, 1), (1, 2, 2, 2), (2, 3, 3, 3), (2, 4, 4)),
}


def test_big_example_is_valid():
    tab = validate_tableau(BIG_EXAMPLE["outer"], BIG_EXAMPLE["inner"],
                           BIG_EXAMPLE["rows"], n=4)
    assert tab.content == (7, 5, 3, 2)


def test_superstandard_straight_shape():
    tab = validate_tableau((2, 1), (), ((1, 1), (2,)))
    assert tab.content == (2, 1)


def test_broken_column_is_rejected():
    rows = (BIG_EXAMPLE["rows"][0], BIG_EXAMPLE["rows"][1],
            BIG_EXAMPLE["rows"][2], (2, 2, 4))  # col 2 now repeats a 2
    with pytest.raises(TableauError, match="column"):
        validate_tableau(BIG_EXAMPLE["outer"], BIG_EXAMPLE["inner"], rows, n=4)


def test_size_mismatch_is_rejected():
    with pytest.raises(TableauError, match="entries"):
        validate_tableau((2, 1), (), ((1,), (2,)))
    with pytest.raises(TableauError, match="rows"):
        validate_tableau((2, 1), (), ((1, 1),))


def test_skew_shape_validation():
    with pytest.raises(TableauError, match="not contained"):
        validate_tableau((2, 1), (3,), ((), ()))
    with pytest.raises(TableauError, match="not partitions"):
        validate_tableau((1, 2), (), ((1,), (2, 2)))


def test_lattice_word_violation():
    # straight shape (1,1) filled 2 then ... a lone leading 2 breaks lattice
    with pytest.raises(TableauError, match="lattice"):
        validate_tableau((1,), (), ((2,),))


def test_worked_example_enumeration():
    tabs = enumerate_tableaux(3, (3, 2, 1), (2, 1), (2, 1))
    assert {t.rows for t in tabs} == {((1,), (2,), (1,)), ((1,), (1,), (2,))}
    assert all(t.content == (2, 1) for t in tabs)


def test_rank2_degree3_sweep_matches_display():
    expected = {
        ((3,), (3,), ((),)),
        ((2, 1), (2, 1), ((), ())),
        ((3,), (2,), ((1,),)),
        ((2, 1), (2,), ((), (1,))),
        ((2, 1), (1, 1), ((1,), ())),
        ((3,), (1,), ((1, 1),)),
        ((2, 1), (1,), ((1,), (1,))),
        ((2, 1), (1,), ((1,), (2,))),
        ((3,), (), ((1, 1, 1),)),
        ((2, 1), (), ((1, 1), (2,))),
    }
    found = set()
    for lam in partitions_of(3, 2):
        for mu in (p for d in range(4) for p in partitions_of(d, 2)):
            for nu in partitions_of(3 - sum(mu), 2):
                for t in enumerate_tableaux(2, lam, mu, nu):
                    found.add((t.outer, t.inner, t.rows))
    assert found == expected
    assert len(found) == 10


def test_shape_with_too_many_rows_gives_nothing():
    assert enumerate_tableaux(3, (1, 1, 1, 1), (), (1, 1, 1, 1)) == []


def test_mismatched_sizes_give_nothing():
    assert enumerate_tableaux(2, (1,), (), (2,)) == []


def test_tableau_to_hive_worked_example():
    t, t_prime = (LRTableau((3, 2, 1), (2, 1), rows)
                  for rows in (((1,), (2,), (1,)), ((1,), (1,), (2,))))
    assert tableau_to_hive(t, 3).rows == ((0,), (2, 3), (3, 4, 5), (3, 5, 6, 6))
    assert tableau_to_hive(t_prime, 3).rows == ((0,), (2, 3), (3, 5, 5), (3, 5, 6, 6))


def test_superstandard_column_maps_to_first_basis_hive():
    tab = LRTableau((1, 1), (), ((1,), (2,)))
    assert tableau_to_hive(tab, 2).rows == ((0,), (0, 1), (0, 1, 2))


def test_hive_to_tableau_worked_example_and_zero():
    h = Hive.from_rows([[0], [2, 3], [3, 4, 5], [3, 5, 6, 6]])
    assert hive_to_tableau(h).rows == ((1,), (2,), (1,))
    assert hive_to_tableau(Hive.from_flat((0,) * triangle_size(3))) == LRTableau((), (), ())


def test_round_trip_small_degrees():
    for n in (2, 3):
        for d in range(5):
            for lam in partitions_of(d, n):
                for j in range(d + 1):
                    for mu in partitions_of(j, n):
                        for nu in partitions_of(d - j, n):
                            hives = enumerate_hives(n, lam, mu, nu)
                            tabs = enumerate_tableaux(n, lam, mu, nu)
                            assert len(hives) == len(tabs)
                            for h in hives:
                                assert tableau_to_hive(hive_to_tableau(h), n) == h
                            for t in tabs:
                                assert hive_to_tableau(tableau_to_hive(t, n)) == t


def test_json_round_trip_uses_zero_for_inner_cells():
    tab = LRTableau((3, 2, 1), (2, 1), ((1,), (2,), (1,)))
    obj = tab.to_json_dict()
    assert obj == {"outer": [3, 2, 1], "inner": [2, 1], "rows": [[0, 0, 1], [0, 2], [1]]}
