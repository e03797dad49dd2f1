"""Littlewood-Richardson tableaux and their bijection with hives.

An LR tableau is a semistandard filling of a skew diagram outer/inner whose
reverse reading word (rows top to bottom, each row right to left) is a
lattice word.  The number of LR tableaux on lambda/mu with content nu equals
the number of hives with boundary (lambda, mu, nu); the conversion in both
directions is explicit.
"""

from __future__ import annotations

from collections import namedtuple
from operator import sub

from .hive import Hive, flat_index
from .report import ConsistencyError
from .shapes import Parts, _integer, contains, is_dominant, normalize, pad, require_partitions


class TableauError(ValueError):
    """First violated cell or condition of a candidate filling."""


class LRTableau(namedtuple("LRTableau", "outer inner rows")):
    __slots__ = ()  # rows: the filled entries only, row i left to right

    @property
    def content(self) -> Parts:
        counts: dict[int, int] = {}
        for row in self.rows:
            for v in row:
                counts[v] = counts.get(v, 0) + 1
        top = max(counts, default=0)
        return normalize(tuple(counts.get(v, 0) for v in range(1, top + 1)))

    def __str__(self) -> str:
        parts = []
        for inner_i, row in zip(pad(self.inner, len(self.outer)), self.rows):
            parts.append(" ".join(["."] * inner_i + [str(v) for v in row]))
        return " | ".join(parts) if parts else "(empty)"

    def to_json_dict(self) -> dict:
        padded_inner = pad(self.inner, len(self.outer))
        return {
            "outer": list(self.outer),
            "inner": list(self.inner),
            "rows": [[0] * padded_inner[i] + list(row) for i, row in enumerate(self.rows)],
        }


def validate_tableau(outer, inner, rows, n: int | None = None) -> LRTableau:
    """Check a filling against the semistandard and lattice-word conditions.

    rows holds the filled entries of each row of outer/inner, left to right.
    Raises TableauError naming the first violated cell or condition.
    """
    outer = normalize(outer)
    inner = normalize(inner)
    if not is_dominant(outer) or not is_dominant(inner):
        raise TableauError(f"shape {outer}/{inner}: not partitions")
    if not contains(outer, inner):
        raise TableauError(f"shape {outer}/{inner}: inner not contained in outer")
    padded_inner = pad(inner, len(outer)) if outer else ()
    rows = tuple(tuple(int(v) for v in row) for row in rows)
    if len(rows) != len(outer):
        raise TableauError(f"{len(rows)} filled rows for a {len(outer)}-row shape")
    for i, row in enumerate(rows, start=1):
        expected = outer[i - 1] - padded_inner[i - 1]
        if len(row) != expected:
            raise TableauError(f"row {i} has {len(row)} entries, expected {expected}")

    for i, row in enumerate(rows, start=1):
        offset = padded_inner[i - 1]
        for k, v in enumerate(row):
            col = offset + k + 1
            if v < 1 or (n is not None and v > n):
                raise TableauError(f"cell ({i},{col}): entry {v} out of range")
            if k > 0 and v < row[k - 1]:
                raise TableauError(f"cell ({i},{col}): row {i} not weakly increasing")
            if i > 1 and col > padded_inner[i - 2]:
                above = rows[i - 2][col - 1 - padded_inner[i - 2]]
                if v <= above:
                    raise TableauError(f"cell ({i},{col}): column {col} not strictly increasing")

    counts: dict[int, int] = {}
    for i, row in enumerate(rows, start=1):
        for v in reversed(row):
            counts[v] = counts.get(v, 0) + 1
            if v > 1 and counts[v] > counts.get(v - 1, 0):
                raise TableauError(
                    f"lattice-word condition fails at a '{v}' in row {i}")
    return LRTableau(outer, inner, rows)


def enumerate_tableaux(n, lam, mu, nu) -> list[LRTableau]:
    """All LR tableaux on lam/mu with content nu and entries in 1..n,
    in a fixed backtracking order."""
    n = _integer("rank", n, 1)
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    require_partitions(lam, mu, nu)
    if max(len(lam), len(mu), len(nu)) > n:
        return []
    if not contains(lam, mu) or sum(lam) != sum(mu) + sum(nu):
        return []
    if not lam:
        return [LRTableau((), (), ())]

    inner = pad(mu, len(lam))
    target = pad(nu, n)
    # cells in reverse reading order: rows top to bottom, right to left
    cells = [(i, c) for i in range(1, len(lam) + 1)
             for c in range(lam[i - 1], inner[i - 1], -1)]
    grid = {}
    counts = [0] * (n + 1)
    results: list[LRTableau] = []

    def place(k: int) -> None:
        if k == len(cells):
            if all(counts[v] == target[v - 1] for v in range(1, n + 1)):
                rows = tuple(tuple(grid[(i, c)] for c in range(inner[i - 1] + 1, lam[i - 1] + 1))
                             for i in range(1, len(lam) + 1))
                results.append(LRTableau(lam, mu, rows))
            return
        i, c = cells[k]
        right = grid.get((i, c + 1), n)
        above = grid.get((i - 1, c), 0) if (i > 1 and c > inner[i - 2]) else 0
        for v in range(above + 1, right + 1):
            if counts[v] >= target[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            grid[(i, c)] = v
            counts[v] += 1
            place(k + 1)
            counts[v] -= 1
            del grid[(i, c)]

    place(0)
    return results


def tableau_to_hive(tab: LRTableau, n: int) -> Hive:
    """Hive of rank n whose entry h[i][j] counts the empty boxes plus the
    boxes filled with values < j among the first i-1 rows of the tableau."""
    n = _integer("rank", n, 1)
    if len(tab.outer) > n or any(v > n for row in tab.rows for v in row):
        raise ValueError(f"tableau does not fit GL({n})")
    inner = pad(tab.inner, len(tab.outer)) if tab.outer else ()
    # prefix[r][v] = empties + entries <= v in row r+1 (v = 0..n)
    prefix = []
    for r in range(n):
        if r < len(tab.outer):
            row = tab.rows[r]
            counts = [inner[r]] * (n + 1)
            for v in row:
                for w in range(v, n + 1):
                    counts[w] += 1
        else:
            counts = [0] * (n + 1)
        prefix.append(counts)

    rows = []
    for i in range(1, n + 2):
        rows.append(tuple(sum(prefix[r][j - 1] for r in range(i - 1))
                          for j in range(1, i + 1)))
    return Hive.from_rows(rows)


def hive_to_tableau(hive: Hive) -> LRTableau:
    """Inverse of tableau_to_hive: the row-i count of value j is the second
    difference (h[i+1][j+1]-h[i+1][j]) - (h[i][j+1]-h[i][j]), reading h[i][j]
    as h[i][i] beyond the triangle."""
    n = hive.n
    lam, mu, nu = hive.boundary()

    def steps(i: int) -> list[int]:
        """h[i][j+1] - h[i][j] for j = 1..n: 0 from j = i on."""
        row = hive.flat[flat_index(i, 1):flat_index(i + 1, 1)]
        return list(map(sub, row[1:], row)) + [0] * (n + 1 - i)

    rows = []
    for i in range(1, len(normalize(lam)) + 1):
        entries = []
        for j, t in enumerate(map(sub, steps(i + 1), steps(i)), start=1):
            if t < 0:
                raise ConsistencyError(
                    f"negative multiplicity t[{i}][{j}] = {t} for hive {hive}")
            entries.extend([j] * t)
        rows.append(tuple(entries))

    tab = validate_tableau(normalize(lam), normalize(mu), rows, n=n)
    if tab.content != normalize(nu):
        raise ConsistencyError(
            f"content {tab.content} != nu {normalize(nu)} for hive {hive}")
    return tab
