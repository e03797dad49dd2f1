"""Hives: triangular integer arrays with rhombus and boundary constraints.

A hive of rank n is a triangular array h[i][j], 1 <= j <= i <= n+1, with
h[1][1] = 0, all three families of rhombus inequalities satisfied, and a
non-negative dominant boundary.  Hives form a monoid under entrywise
addition; the bottom-right corner h[n+1][n+1] grades it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain
from operator import add, sub

from .shapes import Parts

Rows = tuple[tuple[int, ...], ...]

# One hive condition sum(coeff * flat[k]) >= 0 as (kind, i, j, terms), with
# terms ((flat index, coeff), ...).
ConeRow = tuple[str, int, int, tuple[tuple[int, int], ...]]


class Violation(namedtuple("Violation", "kind i j detail")):
    __slots__ = ()  # kind: "apex", "rhombus1/2/3", or the edge "lambda", "mu", "nu"


class MalformedArrayError(ValueError):
    """Entry count or row lengths do not form a triangular array."""


class InvalidHiveError(ValueError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        head = "; ".join(v.detail for v in violations[:3])
        extra = f" (+{len(violations) - 3} more)" if len(violations) > 3 else ""
        super().__init__(f"not a valid hive: {head}{extra}")


class Boundary(namedtuple("Boundary", "lam mu nu")):
    """Edge increments (lam, mu, nu), each a length-n integer vector."""

    __slots__ = ()


def triangle_size(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def flat_index(i: int, j: int) -> int:
    """Row-major position of h[i][j] in the flat coordinate vector."""
    return i * (i - 1) // 2 + (j - 1)


def rank_for_length(count: int) -> int:
    """Rank n with (n+1)(n+2)/2 == count, or raise."""
    n = 1
    while triangle_size(n) < count:
        n += 1
    if triangle_size(n) != count:
        raise MalformedArrayError(f"{count} entries do not fill a triangle of rank >= 1")
    return n


@lru_cache(maxsize=32)
def cone_rows(n: int) -> tuple[ConeRow, ...]:
    """Every hive condition of rank n, in the pinned order: mu, nu and lambda
    edge non-negativity (i = part index, j = 0), then the rhombus families
    2, 3 and 1, each swept by increasing (i, j).

    A rhombus row asserts obtuse-corner sum >= acute-corner sum.  Together
    the rhombus rows force every edge to be weakly decreasing, e.g. rhombi
    (3, i, i) and (2, i, i-1) add up to lambda_{i-1} >= lambda_i.
    """
    def row(kind, i, j, *terms):
        return (kind, i, j, tuple((flat_index(p, q), c) for (p, q), c in terms))

    edge = range(1, n + 1)
    out = [row("mu", i, 0, ((i, 1), -1), ((i + 1, 1), 1)) for i in edge]
    out += [row("nu", j, 0, ((n + 1, j), -1), ((n + 1, j + 1), 1)) for j in edge]
    out += [row("lambda", i, 0, ((i, i), -1), ((i + 1, i + 1), 1)) for i in edge]
    for i in range(2, n + 1):
        for j in range(1, i):
            out.append(row("rhombus2", i, j, ((i, j), 1), ((i, j + 1), 1),
                           ((i + 1, j + 1), -1), ((i - 1, j), -1)))
    for i in range(2, n + 1):
        for j in range(2, i + 1):
            out.append(row("rhombus3", i, j, ((i + 1, j), 1), ((i, j), 1),
                           ((i + 1, j + 1), -1), ((i, j - 1), -1)))
    for i in range(2, n + 1):
        for j in range(1, i):
            out.append(row("rhombus1", i, j, ((i, j), 1), ((i + 1, j + 1), 1),
                           ((i + 1, j), -1), ((i, j + 1), -1)))
    return tuple(out)


def _require_unit(coeffs, where: str) -> None:
    """Generated sources add and subtract entries; any other coefficient is
    an error in the row list, not something to compile."""
    if set(coeffs) - {1, -1}:
        raise ValueError(f"{where} has a coefficient other than +-1")


def _linear(terms, cell: str = "a[{}]") -> str:
    """Source of sum(c * a[k]) for c = +-1, positive terms first, a[k] as cell.format(k)."""
    out = ""
    for k, c in sorted(terms, key=lambda term: -term[1]):
        sign = "-" if c < 0 else "+"
        out += f" {sign} {cell.format(k)}" if out else ("-" if c < 0 else "") + cell.format(k)
    return out


def _compile(source: str, filename: str, name: str):
    """Function `name` from generated source, compiled in one piece.  The
    source is registered with linecache under its filename, so tracebacks,
    profiles and inspect.getsource show it.  linecache, which loads
    tokenize, is imported at the first compile: a process that counts only
    at ranks up to 6, whose kernels counting ships as modules, never loads
    it."""
    import linecache

    namespace = {"__name__": __name__}
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


@lru_cache(maxsize=32)
def _edge_cells(n: int) -> tuple[Parts, Parts, Parts]:
    """Flat indices of the n + 1 cells of the lambda, mu and nu edges, each
    from its end at the apex, nu's at the foot of mu: part i of an edge is
    its cell i + 1 less its cell i."""
    cells = range(1, n + 2)
    return (tuple(flat_index(i, i) for i in cells), tuple(flat_index(i, 1) for i in cells),
            tuple(flat_index(n + 1, j) for j in cells))


def _check_shape(rows: Iterable[Iterable[int]]) -> Rows:
    rows = tuple(tuple(int(v) for v in row) for row in rows)
    if not rows:
        raise MalformedArrayError("empty array")
    for i, row in enumerate(rows, start=1):
        if len(row) != i:
            raise MalformedArrayError(f"row {i} has {len(row)} entries, expected {i}")
    if len(rows) < 2:
        raise MalformedArrayError("rank must be at least 1 (need 2 rows)")
    return rows


def _violations(n: int, flat) -> list[Violation]:
    """hive_violations of rank-n flat coordinates, whose shape is given."""
    found: list[Violation] = []
    if flat[0] != 0:
        found.append(Violation("apex", 1, 1, f"h[1][1] = {flat[0]}, expected 0"))
    for kind, i, j, terms in cone_rows(n):
        value = sum(c * flat[k] for k, c in terms)
        if value >= 0:
            continue
        if kind.startswith("rhombus"):
            detail = f"rhombus family {kind[-1]} fails at (i,j)=({i},{j}) by {-value}"
        else:
            detail = f"{kind}_{i} = {value} is negative"
        found.append(Violation(kind, i, j, detail))
    return found


def hive_violations(rows: Iterable[Iterable[int]]) -> list[Violation]:
    """Every violated hive condition, as (kind, i, j, message), in the order
    of cone_rows.

    Raises MalformedArrayError when the entries do not even form a triangle;
    constraint violations are reported, not raised.
    """
    rows = _check_shape(rows)
    return _violations(len(rows) - 1, tuple(chain.from_iterable(rows)))


class Hive(namedtuple("Hive", "n flat")):
    """A validated hive, stored as its flat row-major coordinates.  Construct
    through from_rows/from_flat; direct construction skips validation and is
    reserved for internal fast paths."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Hive":
        return cls.from_flat(chain.from_iterable(_check_shape(rows)))

    @classmethod
    def from_flat(cls, coords: Iterable[int]) -> "Hive":
        flat = tuple(int(v) for v in coords)
        n = rank_for_length(len(flat))
        bad = _violations(n, flat)
        if bad:
            raise InvalidHiveError(bad)
        return cls(n, flat)

    @property
    def rows(self) -> Rows:
        """Row i holds h[i][1..i]; derived, for display and row readers."""
        return tuple(self.flat[flat_index(i, 1):flat_index(i + 1, 1)]
                     for i in range(1, self.n + 2))

    def to_flat(self) -> Parts:
        return self.flat

    @property
    def degree(self) -> int:
        """Grading value h[n+1][n+1] = |lambda| = |mu| + |nu|."""
        return self.flat[-1]

    def boundary(self) -> Boundary:
        edges = (tuple(map(self.flat.__getitem__, cells)) for cells in _edge_cells(self.n))
        return Boundary(*(tuple(map(sub, edge[1:], edge)) for edge in edges))

    def __add__(self, other: "Hive") -> "Hive":
        if not isinstance(other, Hive):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")
        # closed under addition: both summands satisfy every linear condition
        return Hive(self.n, tuple(map(add, self.flat, other.flat)))

    def __str__(self) -> str:
        return "; ".join(" ".join(str(v) for v in row) for row in self.rows)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rows": [list(row) for row in self.rows]}
