"""The hive cone as a polyhedral object: inequality systems, degree-bounded
Hilbert basis search, decomposition over a fixed basis, and the two
plain-text export formats used by lattice-point software."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import sub

from .counting import _check_rank, _iter_hive_flats, boundary_triples
from .hive import Hive, cone_rows, membership, triangle_size
from .report import CheckResult, ConsistencyError

# Hilbert bases of the hive cones for n = 2, 3, 4 in the numbering used
# throughout this package (h_1, h_2, ...), as flat row-major coordinates.
HILBERT_BASIS_COORDS: dict[int, tuple[tuple[int, ...], ...]] = {
    2: (
        (0, 0, 1, 0, 1, 2),
        (0, 1, 1, 1, 2, 2),
        (0, 1, 1, 1, 1, 1),
        (0, 1, 1, 2, 2, 2),
        (0, 0, 1, 0, 1, 1),
    ),
    3: (
        (0, 0, 1, 0, 1, 1, 0, 1, 1, 1),
        (0, 0, 1, 0, 1, 2, 0, 1, 2, 3),
        (0, 0, 1, 0, 1, 2, 0, 1, 2, 2),
        (0, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        (0, 1, 1, 1, 2, 2, 1, 2, 2, 2),
        (0, 1, 1, 1, 2, 2, 1, 2, 3, 3),
        (0, 1, 1, 2, 2, 2, 2, 2, 2, 2),
        (0, 1, 1, 2, 2, 2, 2, 3, 3, 3),
        (0, 1, 1, 2, 2, 2, 3, 3, 3, 3),
        (0, 1, 2, 2, 3, 3, 2, 3, 4, 4),
    ),
    4: (
        (0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1),
        (0, 0, 1, 0, 1, 2, 0, 1, 2, 2, 0, 1, 2, 2, 2),
        (0, 0, 1, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3, 3),
        (0, 0, 1, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3, 4),
        (0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        (0, 1, 1, 1, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2),
        (0, 1, 1, 1, 2, 2, 1, 2, 3, 3, 1, 2, 3, 3, 3),
        (0, 1, 1, 1, 2, 2, 1, 2, 3, 3, 1, 2, 3, 4, 4),
        (0, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
        (0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 2, 3, 3, 3, 3),
        (0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 2, 3, 4, 4, 4),
        (0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3),
        (0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4),
        (0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4),
        (0, 1, 2, 2, 3, 3, 2, 3, 4, 4, 2, 3, 4, 4, 4),
        (0, 1, 2, 2, 3, 3, 2, 3, 4, 4, 2, 3, 4, 5, 5),
        (0, 1, 2, 2, 3, 4, 2, 4, 5, 5, 2, 4, 5, 6, 6),
        (0, 1, 2, 2, 3, 3, 3, 4, 4, 4, 3, 4, 5, 5, 5),
        (0, 1, 2, 2, 3, 4, 3, 4, 5, 5, 3, 4, 5, 6, 6),
        (0, 2, 2, 3, 4, 4, 4, 5, 5, 5, 4, 5, 6, 6, 6),
    ),
}

BASIS_DEGREES: dict[int, tuple[int, ...]] = {
    2: (2, 2, 1, 2, 1),
    3: (1, 3, 2, 1, 2, 3, 2, 3, 3, 4),
    4: (1, 2, 3, 4, 1, 2, 3, 4, 2, 3, 4, 3, 4, 4, 4, 5, 6, 5, 6, 6),
}

# Additive relations between basis elements, as (name, left indices, right
# indices): the two index multisets sum to the same hive.
BASIC_RELATIONS: dict[int, tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]] = {
    2: (),
    3: (("r1", (1, 6, 7), (5, 10)),),
    4: (
        ("r1", (1, 7, 9), (6, 15)),
        ("r2", (1, 8, 9), (6, 16)),
        ("r3", (1, 11, 12), (10, 18)),
        ("r4", (6, 11, 12), (10, 20)),
        ("r5", (2, 8, 10), (7, 17)),
        ("r6", (2, 8, 12), (7, 19)),
        ("r7", (6, 18), (1, 20)),
        ("r8", (7, 16), (8, 15)),
        ("r9", (10, 19), (12, 17)),
        ("r10", (15, 17), (2, 10, 16)),
        ("r11", (15, 19), (2, 12, 16)),
        ("r12", (15, 20), (7, 9, 18)),
        ("r13", (16, 20), (8, 9, 18)),
        ("r14", (17, 20), (6, 11, 19)),
        ("r15", (17, 18), (1, 11, 19)),
    ),
}


@dataclass(frozen=True)
class BinomialRelation:
    name: str
    left: tuple[int, ...]   # 1-based basis indices, with multiplicity
    right: tuple[int, ...]


@dataclass(frozen=True)
class InequalitySystem:
    """Facet description of the hive cone in flat coordinates: 3n boundary
    non-negativity rows plus 3*n(n-1)/2 rhombus rows, and one equation fixing
    the apex entry to zero."""

    n: int
    rows: tuple[tuple[int, ...], ...]
    equations: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=16)
def cone_inequalities(n: int) -> InequalitySystem:
    """The rows of hive.cone_rows as dense vectors, plus the apex equation."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    dim = triangle_size(n)

    def dense(terms) -> tuple[int, ...]:
        out = [0] * dim
        for k, c in terms:
            out[k] = c
        return tuple(out)

    equation = (1,) + (0,) * (dim - 1)
    return InequalitySystem(n, tuple(dense(terms) for *_, terms in cone_rows(n)),
                            (equation,))


@lru_cache(maxsize=4)
def hives_up_to_degree(n: int, max_degree: int) -> tuple[Hive, ...]:
    """Every hive of degree <= max_degree, by sweeping boundary triples and
    enumerating interiors; sorted by (degree, coordinates)."""
    _check_rank(n)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    return tuple(Hive(n, flat) for d in range(max_degree + 1)
                 for flat in sorted(f for triple in boundary_triples(n, d)
                                    for f in _iter_hive_flats(n, *triple)))


def hilbert_basis(n: int, max_degree: int = 12) -> tuple[Hive, ...]:
    """All irreducible hives of degree <= max_degree: hives that are not the
    sum of two nonzero hives.  Complete for the true Hilbert basis whenever
    max_degree is at least twice the largest generator degree (a degree-d
    reducible hive splits into parts of degree < d).  Sorted by (degree,
    coordinates)."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return tuple(_new_generators(n, max_degree, ()))


def _new_generators(n: int, max_degree: int, generators):
    """The one sweep behind hilbert_basis and undecomposable_hives.

    Walks the hives of degree <= max_degree in (degree, coordinates) order.
    A nonzero hive is new when no generator leaves a difference among the
    hives already met; a new hive is yielded and joins the generators.  So
    every hive met is a sum of generators, and a hive is yielded exactly
    when it is not such a sum.
    """
    gens = list(generators)
    met = set()
    for h in hives_up_to_degree(n, max_degree):
        flat = h.flat   # ends in the degree, 0 only for the zero hive
        if flat[-1] and not any(tuple(map(sub, flat, g)) in met for g in gens):
            gens.append(flat)
            yield h
        met.add(flat)


@dataclass(frozen=True)
class ConePresentation:
    """A fixed generating set with degrees and additive relations."""

    n: int
    basis: tuple[Hive, ...]
    degrees: tuple[int, ...]
    relations: tuple[BinomialRelation, ...]


@lru_cache(maxsize=4)
def presentation(n: int) -> ConePresentation:
    """The pinned presentation of the rank-n hive cone (n = 2, 3, 4),
    validated on construction."""
    if n not in HILBERT_BASIS_COORDS:
        raise ValueError(f"no presentation data for rank {n}")
    basis = tuple(Hive.from_flat(c) for c in HILBERT_BASIS_COORDS[n])
    degrees = BASIS_DEGREES[n]
    for k, (h, d) in enumerate(zip(basis, degrees), start=1):
        if h.degree != d:
            raise ConsistencyError(f"basis element {k} has degree {h.degree}, table says {d}")
    relations = tuple(BinomialRelation(*r) for r in BASIC_RELATIONS[n])
    pres = ConePresentation(n, basis, degrees, relations)
    bad = [r.name for r in verify_relations(pres) if not r.ok]
    if bad:
        raise ConsistencyError(f"unbalanced pinned relations: {', '.join(bad)}")
    return pres


def verify_relations(pres: ConePresentation) -> list[CheckResult]:
    """Entrywise balance of every relation's two sides."""
    results = []
    for rel in pres.relations:
        left = [0] * triangle_size(pres.n)
        right = [0] * triangle_size(pres.n)
        for k in rel.left:
            left = [a + b for a, b in zip(left, pres.basis[k - 1].flat)]
        for k in rel.right:
            right = [a + b for a, b in zip(right, pres.basis[k - 1].flat)]
        if left == right:
            results.append(CheckResult(f"hive relation {rel.name}", True))
        else:
            pos = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
            results.append(CheckResult(
                f"hive relation {rel.name}", False,
                f"sides differ at coordinate {pos}: {left[pos]} != {right[pos]}"))
    return results


class NoDecompositionError(ConsistencyError):
    """A valid hive failed to decompose over the basis; with a complete
    basis this cannot happen, so it is an internal-consistency failure."""


def decompose(hive: Hive, pres: ConePresentation) -> tuple[int, ...]:
    """Express a hive as a multiset of basis indices (returned sorted).

    Depth-first search over basis elements in index order, preferring high
    multiplicities of low indices, so the result is the decomposition with
    the lexicographically greatest exponent vector.
    """
    result = _decompose_search(hive, pres, first_only=True)
    if not result:
        raise NoDecompositionError(f"hive {hive} does not decompose over the rank-{pres.n} basis")
    return next(iter(result))


def all_decompositions(hive: Hive, pres: ConePresentation) -> frozenset[tuple[int, ...]]:
    """Every multiset of basis indices summing to the hive."""
    return frozenset(_decompose_search(hive, pres, first_only=False))


def _decompose_search(hive: Hive, pres: ConePresentation, first_only: bool) -> set[tuple[int, ...]]:
    if hive.n != pres.n:
        raise ValueError(f"rank mismatch: hive {hive.n}, presentation {pres.n}")
    member = membership(pres.n)
    basis_flats = [h.flat for h in pres.basis]
    zero = (0,) * triangle_size(pres.n)
    found: set[tuple[int, ...]] = set()

    def search(flat, k: int, picked: list[int]) -> bool:
        if flat == zero:
            found.add(tuple(picked))
            return True
        if k == len(basis_flats):
            return False
        # feasible multiplicities of basis element k form an interval [0, top]
        stack = [flat]
        current = flat
        b = basis_flats[k]
        while True:
            current = tuple(map(sub, current, b))
            if not member(current):
                break
            stack.append(current)
        for count in range(len(stack) - 1, -1, -1):
            picked.extend([k + 1] * count)
            done = search(stack[count], k + 1, picked)
            del picked[len(picked) - count:]
            if done and first_only:
                return True
        return False

    search(hive.flat, 0, [])
    return found


def undecomposable_hives(n: int, max_degree: int, pres: ConePresentation) -> list[Hive]:
    """Hives of degree <= max_degree that are not sums of basis elements and
    of the hives listed before them: empty exactly when the basis generates
    every hive up to that degree, and otherwise the missing generators."""
    if n != pres.n:
        raise ValueError(f"rank mismatch: hive {n}, presentation {pres.n}")
    return list(_new_generators(n, max_degree, (h.flat for h in pres.basis)))


# ---------------------------------------------------------------------------
# Plain-text export formats

def inequalities_input_text(n: int) -> str:
    """Cone-by-inequalities input file: row count, dimension, the inequality
    rows, then the single apex equation block."""
    system = cone_inequalities(n)
    dim = triangle_size(n)
    lines = [str(len(system.rows)), str(dim)]
    lines += [" ".join(str(c) for c in row) for row in system.rows]
    lines.append("inequalities")
    lines.append("")
    lines.append(str(len(system.equations)))
    lines.append(str(dim))
    lines += [" ".join(str(c) for c in row) for row in system.equations]
    lines.append("equations")
    return "\n".join(lines) + "\n"


def generators_input_text(n: int) -> str:
    """Cone-by-generators input file: ambient dimension, the basis vectors in
    coordinate order, and the grading that reads off the last coordinate."""
    pres = presentation(n)
    dim = triangle_size(n)
    vectors = sorted(h.flat for h in pres.basis)
    lines = [f"amb_space {dim}", f"cone {len(vectors)}"]
    lines += [" " + " ".join(str(c) for c in v) for v in vectors]
    lines.append("")
    lines.append("grading")
    grading = (0,) * (dim - 1) + (1,)
    lines.append(" " + " ".join(str(c) for c in grading))
    return "\n".join(lines) + "\n"
