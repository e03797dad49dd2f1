import re
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hivealg.shapes import contains, is_dominant, normalize, pad, partitions_of


def partitions_up_to(d, max_parts):
    """The graded sweep the enumerators make: partitions_of(k) for k = 0..d."""
    return [p for k in range(d + 1) for p in partitions_of(k, max_parts)]


def brute_force_partitions(d, max_parts):
    """Oracle: filter all tuples in [0,d]^max_parts."""
    found = set()
    for tup in product(range(d + 1), repeat=max_parts):
        if sum(tup) <= d and all(a >= b for a, b in zip(tup, tup[1:])):
            found.add(normalize(tup))
    return found


def test_is_dominant_examples():
    assert is_dominant((3, 2, 1))
    assert is_dominant((0, 0, 0))
    assert not is_dominant((1, 2))
    assert not is_dominant((2, -1))
    assert is_dominant(())


def test_partitions_up_to_small():
    assert partitions_up_to(1, 2) == [(), (1,)]
    assert partitions_up_to(0, 4) == [()]


def test_partitions_up_to_d3_matches_oracle():
    got = partitions_up_to(3, 2)
    assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1)]
    assert set(got) == brute_force_partitions(3, 2)


@pytest.mark.parametrize("d,parts", [(4, 2), (5, 3), (6, 4)])
def test_partitions_up_to_counts_match_oracle(d, parts):
    got = partitions_up_to(d, parts)
    assert len(got) == len(set(got))  # each exactly once
    assert set(got) == brute_force_partitions(d, parts)
    assert all(is_dominant(p) for p in got)


def test_partitions_up_to_order_is_graded_then_lex_descending():
    got = partitions_up_to(5, 3)
    sizes = [sum(p) for p in got]
    assert sizes == sorted(sizes)
    for k in set(sizes):
        grade = [p for p in got if sum(p) == k]
        assert grade == sorted(grade, reverse=True)


def test_partitions_of_exact_size():
    assert partitions_of(4, 2) == ((4,), (3, 1), (2, 2))


def test_partitions_of_is_empty_for_impossible_arguments():
    assert partitions_of(-1, 2) == ()
    assert partitions_of(3, 0) == ()
    assert partitions_of(0, 0) == ((),)


def test_normalize_and_pad():
    assert normalize((2, 1, 0, 0)) == (2, 1)
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    assert pad((2, 1, 0, 0, 0), 3) == (2, 1, 0)
    with pytest.raises(ValueError):
        pad((2, 1, 1), 2)


def test_contains():
    assert contains((3, 2, 1), (2, 1))
    assert contains((3, 2, 1), (3, 2, 1))
    assert not contains((3, 2), (2, 2, 1))
    assert contains((2,), (2, 0, 0))
    assert contains((2, 1, 0), (2,))
    assert not contains((1,), (1, 1))
    assert not contains((1, 0, 0), (1, 1))


def reference_is_dominant(seq):
    return not any(p < 0 for p in seq) and all(a >= b for a, b in zip(seq, seq[1:]))


def reference_normalize(seq):
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq


def reference_pad(seq, length):
    if any(seq[length:]):
        raise ValueError(f"{seq} has more than {length} nonzero parts")
    return (seq + (0,) * length)[:length]


@given(st.lists(st.integers(-2, 3), max_size=6).map(tuple), st.integers(0, 6))
def test_shape_helpers_match_reference(seq, length):
    assert is_dominant(seq) == reference_is_dominant(seq)
    assert is_dominant(iter(seq)) == reference_is_dominant(seq)
    assert normalize(iter(seq)) == reference_normalize(seq)
    try:
        expected = reference_pad(seq, length)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            pad(iter(seq), length)
    else:
        assert pad(iter(seq), length) == expected
