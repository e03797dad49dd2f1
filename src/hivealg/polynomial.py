"""Exact sparse polynomials in the 2n^2 matrix entries x[i][j], y[i][j].

Variables are ordered row-major across the combined n x 2n matrix: row 1's
x entries (by column), then row 1's y entries, then row 2, and so on.  The
term order is pure lexicographic in that variable order; under it the
leading term of any minor on increasing row and column sets is its main
diagonal, with coefficient +1.

A monomial is one int: its exponent vector packed into 8-bit fields, with
variable 0 in the most significant field (Kronecker substitution, as in
Monagan and Pearce's packed exponent vectors).  Multiplying two monomials
is an integer add, the lex order is the int order, and
key.to_bytes(2 * n * n, "big") is the exponent vector.  No term may have
total degree above 255, so no field ever carries into its neighbour: a
product or a monomial past that raises ValueError, and the derivations
never raise the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, NamedTuple

Exponents = int  # packed exponent vector, see the module docstring

MAX_DEGREE = 255


def variable_count(n: int) -> int:
    return 2 * n * n


def variable_index(n: int, kind: str, i: int, j: int) -> int:
    """Position of x[i][j] or y[i][j] in the significance order (0 = most
    significant)."""
    if kind not in ("x", "y") or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"no variable {kind}[{i}][{j}] for rank {n}")
    return (i - 1) * 2 * n + (0 if kind == "x" else n) + (j - 1)


def _shift(n: int, idx: int) -> int:
    """Bit offset of variable idx's field."""
    return 8 * (variable_count(n) - 1 - idx)


@lru_cache(maxsize=16)
def variable_labels(n: int) -> tuple[tuple[str, int, int], ...]:
    """(kind, i, j) for each variable index."""
    out = []
    for i in range(1, n + 1):
        out.extend(("x", i, j) for j in range(1, n + 1))
        out.extend(("y", i, j) for j in range(1, n + 1))
    return tuple(out)


@lru_cache(maxsize=16)
def _names(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Per variable index: the rendered name x[i][j] and the JSON name xij."""
    labels = variable_labels(n)
    return (tuple(f"{kind}[{i}][{j}]" for kind, i, j in labels),
            tuple(f"{kind}{i}{j}" for kind, i, j in labels))


def _degree(terms) -> int:
    """Largest total degree of the packed keys.  A key is congruent to its
    field sum mod 255 (256 = 1 mod 255) and no stored term has degree above
    255, so only a nonconstant key of degree exactly 255 reads 0."""
    residues = list(map(MAX_DEGREE.__rmod__, terms))
    if residues.count(0) > (0 in terms):
        return MAX_DEGREE
    return max(residues, default=0)


class Weight(NamedTuple):
    """Torus weight triple: row degrees, x-column degrees, y-column degrees."""

    lam: tuple[int, ...]
    mu: tuple[int, ...]
    nu: tuple[int, ...]


class NotHomogeneousError(ValueError):
    pass


@lru_cache(maxsize=16)
def _weight_maps(n: int) -> tuple[int, int, int]:
    """Ints that turn a packed key into its weight in one or two operations,
    so weight() compares all terms at C speed.  With width = 2n fields per
    row of [X | Y]:

    - key % (2^(8 width) - 1) adds the n row blocks field by field: the
      column degrees, x columns then y columns;
    - key * (1 + 2^8 + ... + 2^(8 (width - 1))) holds the sum of each row
      block in that block's most significant field; the mask keeps those.

    Both are exact because every partial sum of fields is at most the term's
    total degree, which is at most 255: nothing carries, and the column sums
    cannot fill all their fields with 255, which the modulus would read as 0."""
    width = 2 * n
    ones = sum(1 << 8 * t for t in range(width))
    row_mask = sum(0xFF << 8 * (width * r + width - 1) for r in range(n))
    return ones, row_mask, (1 << 8 * width) - 1


def _term_weight(n: int, exps: Exponents) -> Weight:
    powers = exps.to_bytes(variable_count(n), "big")
    width = 2 * n  # one row of [X | Y]
    return Weight(tuple(sum(powers[r * width:(r + 1) * width]) for r in range(n)),
                  tuple(sum(powers[j::width]) for j in range(n)),
                  tuple(sum(powers[n + j::width]) for j in range(n)))


class Polynomial:
    """Integer-coefficient polynomial, stored as {packed exponents: coefficient}
    with no zero coefficients.  Treat instances as immutable."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Exponents, int] | None = None):
        self.n = n
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, c: int) -> "Polynomial":
        return cls(n, {0: c} if c else {})

    @classmethod
    def variable(cls, n: int, kind: str, i: int, j: int) -> "Polynomial":
        return cls(n, {1 << _shift(n, variable_index(n, kind, i, j)): 1})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError(f"rank mismatch: {self.n} != {other.n}")
            return other
        if isinstance(other, int):
            return Polynomial.constant(self.n, other)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero(self.n)
            return Polynomial(self.n, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        degree = _degree(self.terms) + _degree(other.terms)
        if degree > MAX_DEGREE:
            raise ValueError(f"product of degree up to {degree}: packed exponents "
                             f"allow total degree at most {MAX_DEGREE}")
        out: dict[Exponents, int] = {}
        get = out.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                key = e1 + e2
                s = get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.one(self.n)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.n == other.n
                and self.terms == other.terms)

    __hash__ = None

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self) -> tuple[Exponents, int]:
        """Greatest term under the lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def weight(self) -> Weight:
        """The common multidegree of all terms; raises NotHomogeneousError
        with two offending terms when they disagree."""
        if not self.terms:
            raise ValueError("zero polynomial has no weight")
        terms = self.terms
        first = next(iter(terms))
        w = _term_weight(self.n, first)
        ones, row_mask, column_mod = _weight_maps(self.n)
        if (len(set(map(column_mod.__rmod__, terms))) > 1
                or len(set(map(row_mask.__and__, map(ones.__mul__, terms)))) > 1):
            other = next(e for e in terms if _term_weight(self.n, e) != w)
            raise NotHomogeneousError(
                f"terms {render_monomial(self.n, first)} and "
                f"{render_monomial(self.n, other)} have different weights")
        return w

    # -- rendering and serialization ----------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # each distinct top and bottom half of a key (n^2 fields) is rendered once
        half = self.n * self.n
        names, shift = _names(self.n)[0], 8 * half
        top_names, bottom_names, low = names[:half], names[half:], (1 << shift) - 1
        tops, bottoms, pieces = {}, {}, []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            top, bottom = exps >> shift, exps & low
            t = tops.get(top)
            if t is None:
                t = tops[top] = _render(top_names, top.to_bytes(half, "big"))
            b = bottoms.get(bottom)
            if b is None:
                b = bottoms[bottom] = _render(bottom_names, bottom.to_bytes(half, "big"))
            mono = f"{t}*{b}" if t and b else t or b
            a = abs(c)
            body = str(a) if not mono else mono if a == 1 else f"{a}*{mono}"
            pieces.append(("- " if c < 0 else "+ ") + body)
        del tops, bottoms  # freed before the join, which sets the peak memory
        pieces[0] = pieces[0][2:] if pieces[0][0] == "+" else "-" + pieces[0][2:]
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, {len(self.terms)} terms)"

    def to_json_obj(self) -> list[dict]:
        names = _names(self.n)[1]
        size = variable_count(self.n)
        return [{"coeff": str(self.terms[exps]),
                 "exps": {names[idx]: e
                          for idx, e in enumerate(exps.to_bytes(size, "big")) if e}}
                for exps in sorted(self.terms, reverse=True)]


def _render(names: tuple[str, ...], powers: bytes) -> str:
    """The factors name^e of an exponent vector, joined by *; "" for none."""
    return "*".join([names[idx] if e == 1 else f"{names[idx]}^{e}"
                     for idx, e in enumerate(powers) if e])


def render_monomial(n: int, exps: Exponents) -> str:
    return _render(_names(n)[0], exps.to_bytes(variable_count(n), "big")) or "1"


def monomial_exponents(n: int, factors: Iterable[tuple[str, int, int]]) -> Exponents:
    """Packed exponents of a product of variables given as (kind, i, j)."""
    exps = [0] * variable_count(n)
    for kind, i, j in factors:
        exps[variable_index(n, kind, i, j)] += 1
    if sum(exps) > MAX_DEGREE:
        raise ValueError(f"monomial of degree {sum(exps)}: packed exponents "
                         f"allow total degree at most {MAX_DEGREE}")
    return int.from_bytes(bytes(exps), "big")


@lru_cache(maxsize=64)
def _raising_moves(n: int, factor: int, k: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The mask of the fields a raising operator differentiates, and for each
    variable pair: the differentiated field's bit offset, and the packed
    change that moves one power from that variable to its partner."""
    pairs = []  # (index gaining a power, index differentiated)
    if factor == 1:
        for j in range(1, n + 1):
            pairs.append((variable_index(n, "x", k, j), variable_index(n, "x", k + 1, j)))
            pairs.append((variable_index(n, "y", k, j), variable_index(n, "y", k + 1, j)))
    elif factor == 2:
        for i in range(1, n + 1):
            pairs.append((variable_index(n, "x", i, k), variable_index(n, "x", i, k + 1)))
    else:
        for i in range(1, n + 1):
            pairs.append((variable_index(n, "y", i, k), variable_index(n, "y", i, k + 1)))
    mask = sum(0xFF << _shift(n, tgt) for _, tgt in pairs)
    return mask, tuple((_shift(n, tgt), (1 << _shift(n, src)) - (1 << _shift(n, tgt)))
                       for src, tgt in pairs)


def raising_derivation(factor: int, k: int, p: Polynomial) -> Polynomial:
    """Infinitesimal simple-root raising operator on the k-th root of one of
    the three group factors: factor 1 acts on rows of both matrix blocks
    (x[k][j] d/dx[k+1][j] + y[k][j] d/dy[k+1][j], summed over j), factor 2
    on x-columns, factor 3 on y-columns.  A polynomial is invariant under
    the product of the three unipotent groups iff every one of the 3(n-1)
    operators annihilates it.  A memo local to the call maps a term's
    differentiated fields (key & mask) to the moves that hit a nonzero
    exponent, with that exponent, so each term visits only its hits."""
    n = p.n
    if factor not in (1, 2, 3):
        raise ValueError("factor must be 1, 2, or 3")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}")
    mask, moves = _raising_moves(n, factor, k)
    hits: dict[int, tuple[tuple[int, int], ...]] = {}
    out: dict[Exponents, int] = {}
    get = out.get
    for exps, c in p.terms.items():
        fields = exps & mask
        found = hits.get(fields)
        if found is None:
            found = hits[fields] = tuple((delta, e) for shift, delta in moves
                                         if (e := fields >> shift & 0xFF))
        for delta, e in found:
            key = exps + delta
            s = get(key, 0) + c * e
            if s:
                out[key] = s
            else:
                del out[key]
    return Polynomial(n, out)


# ---------------------------------------------------------------------------
# Determinants and minors

def _parity(perm: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def det(matrix: list[list["Polynomial"]]) -> Polynomial:
    """Determinant of a square matrix of polynomials, by permutation
    expansion (intended for sizes up to 5)."""
    m = len(matrix)
    if any(len(row) != m for row in matrix):
        raise ValueError("matrix is not square")
    n = matrix[0][0].n
    total = Polynomial.zero(n)
    for perm in permutations(range(m)):
        prod = Polynomial.constant(n, _parity(perm))
        for r in range(m):
            prod = prod * matrix[r][perm[r]]
        total = total + prod
    return total


@dataclass(frozen=True)
class ColumnTableau:
    """A single column: `empty` empty boxes then strictly increasing entries.

    Labels the minor of the n x 2n matrix [X | Y] on rows 1..empty+k and
    columns 1..empty (from X) followed by the entry columns (from Y).
    """

    empty: int
    entries: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.empty + len(self.entries)


def minor(n: int, col: ColumnTableau) -> Polynomial:
    """The determinant labeled by a column tableau, expanded over the
    permutations of its columns straight into packed keys: distinct
    permutations give distinct monomials, so no two terms merge."""
    ent = col.entries
    if col.empty < 0 or any(e < 1 or e > n for e in ent):
        raise ValueError(f"invalid column tableau {col} for rank {n}")
    if any(a >= b for a, b in zip(ent, ent[1:])):
        raise ValueError(f"column entries {ent} must strictly increase")
    if col.size > n or col.size == 0:
        raise ValueError(f"column size {col.size} out of range for rank {n}")
    columns = [("x", c) for c in range(1, col.empty + 1)] + [("y", e) for e in ent]
    fields = [[1 << _shift(n, variable_index(n, kind, r, c)) for kind, c in columns]
              for r in range(1, col.size + 1)]
    return Polynomial(n, {sum(row[c] for row, c in zip(fields, perm)): _parity(perm)
                          for perm in permutations(range(col.size))})
