"""Partitions (non-negative dominant integer sequences).

Partitions are plain tuples of ints.  Trailing zeros are meaningless:
(2, 1) and (2, 1, 0) label the same Young diagram, so everything here
normalizes on input and compares after zero-padding.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import zip_longest
from operator import ge, index

Parts = tuple[int, ...]


def is_dominant(parts: Iterable[int]) -> bool:
    """True iff the sequence is weakly decreasing with all entries >= 0."""
    seq = tuple(parts)
    return not seq or (seq[-1] >= 0 and all(map(ge, seq, seq[1:])))


def _integer(what: str, value, least: int | None = None) -> int:
    """value read through operator.index, or a ValueError naming it or least."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


def normalize(parts: Iterable[int]) -> Parts:
    """Strip trailing zeros."""
    seq = tuple(parts)
    end = len(seq)
    while end and seq[end - 1] == 0:
        end -= 1
    return seq[:end]


def require_partitions(lam: Parts, mu: Parts, nu: Parts) -> None:
    """Raise ValueError naming the first of lambda, mu, nu that is not a
    partition."""
    for name, p in (("lambda", lam), ("mu", mu), ("nu", nu)):
        if not is_dominant(p):
            raise ValueError(f"{name} = {normalize(p)} is not a partition")


def pad(parts: Iterable[int], length: int) -> Parts:
    """Zero-pad to the given length; reject nonzero parts beyond it."""
    seq = tuple(parts)
    if len(seq) < length:
        return seq + (0,) * (length - len(seq))
    if any(seq[length:]):
        raise ValueError(f"{seq} has more than {length} nonzero parts")
    return seq[:length]


def contains(outer: Iterable[int], inner: Iterable[int]) -> bool:
    """Diagram containment: inner_i <= outer_i for all i."""
    return all(x >= y for x, y in zip_longest(outer, inner, fillvalue=0))


@lru_cache(maxsize=256)
def partitions_of(d: int, max_parts: int) -> tuple[Parts, ...]:
    """All partitions of d with at most max_parts parts, lexicographically
    decreasing."""
    if d < 0 or max_parts < 0:
        return ()
    found: list[Parts] = []

    def grow(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            found.append(tuple(prefix))
            return
        if len(prefix) == max_parts:
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            grow(remaining - part, part, prefix)
            prefix.pop()

    grow(d, d, [])
    return tuple(found)
