"""The hive cone as a polyhedral object: degree-bounded Hilbert basis
search, decomposition over a fixed basis, and the two plain-text export
formats used by lattice-point software."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain, repeat, starmap
from operator import attrgetter
from struct import Struct, calcsize

from .counting import _interval, _kernel, _padded_partitions
from .hive import Hive, _compile, _linear, _require_unit, cone_rows, triangle_size
from .report import CheckResult, ConsistencyError
from .shapes import _integer

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

# Relations among the generators g_1, g_2, ... of the tensor product
# algebra, as the paper names and orients them: (name, left, right), two
# sides of 1-based basis indices whose basis hives sum to the same hive.
# tensor_algebra lifts each hive binomial to a relation by subduction.
PRESENTATION_RELATIONS: dict[int, tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]] = {
    2: (),
    3: (("r1", (1, 6, 7), (5, 10)),),
    4: (("r1", (1, 7, 9), (6, 15)), ("r2", (1, 8, 9), (6, 16)), ("r3", (1, 11, 12), (10, 18)),
        ("r4", (6, 11, 12), (10, 20)), ("r5", (2, 8, 10), (7, 17)), ("r6", (2, 8, 12), (7, 19)),
        ("r7", (6, 18), (1, 20)), ("r8", (7, 16), (8, 15)), ("r9", (10, 19), (12, 17)),
        ("r10", (15, 17), (2, 10, 16)), ("r11", (15, 19), (2, 12, 16)),
        ("r12", (15, 20), (7, 9, 18)), ("r13", (16, 20), (8, 9, 18)),
        ("r14", (17, 20), (6, 11, 19)), ("r15", (17, 18), (1, 11, 19))),
}


class BinomialRelation(namedtuple("BinomialRelation", "name left right")):
    __slots__ = ()  # left, right: 1-based basis indices, with multiplicity


def hives_up_to_degree(n: int, max_degree: int) -> tuple[Hive, ...]:
    """Every hive of degree <= max_degree, sorted by (degree, coordinates):
    for each degree d, the pairs enumerate kernel's hives over every (mu,
    nu) with |mu| + |nu| = d, the lambda edge free, sorted as flat tuples.
    Each Hive is made by tuple.__new__, which is all of Hive's __new__, with
    no check: the kernel yields hives."""
    n = _integer("rank", n, 1)
    max_degree = _integer("max_degree", max_degree, 0)
    flats, by_size = _kernel(n, False, True), _padded_partitions(n, max_degree)

    def degree(d):
        pairs = [(mu, nu) for j in range(d + 1) for mu in by_size[j] for nu in by_size[d - j]]
        return sorted(chain.from_iterable(starmap(flats, pairs)))

    ordered = chain.from_iterable(map(degree, range(max_degree + 1)))
    return tuple(map(tuple.__new__, repeat(Hive), zip(repeat(n), ordered)))


def hilbert_basis(n: int, max_degree: int = 12) -> tuple[Hive, ...]:
    """The irreducible hives of degree <= max_degree, sorted by (degree,
    coordinates): the nonzero hives that are not the sum of two nonzero
    hives.  Nothing past max_degree is checked, so a generator of higher
    degree would be missed.  One sweep over hives_up_to_degree in (degree,
    coordinates) order keeps a nonzero hive h unless h - g is a hive for
    some kept g; so every hive is a sum of kept hives, and h is kept exactly
    when it is not one.  The hives met are all keyed first: for a kept g,
    h - g has a lower degree than h, so it is met before h or not at all.
    A hive's int key packs its L flat coordinates into big-endian w-byte
    fields, 2 * max_degree < 256**w.  Keys are exact: by rhombus1 and mu >=
    0 (rhombus3 and nu >= 0) each step down a column (along a row) is >= 0,
    so a hive of degree d has its entries in 0..d; then each c = h - g - h'
    has |c_k| <= 2 * max_degree < 256**w, and sum c_k 256**(w(L-1-k)) = 0
    forces c = 0."""
    n = _integer("rank", n, 1)
    max_degree = _integer("max_degree", max_degree, 1)
    code = next((c for c in "BHIQ" if 2 * max_degree < 256 ** calcsize(c)), None)
    if code is None:
        raise ValueError(f"max_degree {max_degree} is too large for 8-byte hive keys")
    pack, gens = Struct(f">{triangle_size(n)}{code}").pack, {}
    hives = hives_up_to_degree(n, max_degree)
    keys = list(map(int.from_bytes, starmap(pack, map(attrgetter("flat"), hives)), repeat("big")))
    met = set(keys)
    for key, h in zip(keys[1:], hives[1:]):   # after the zero hive, key 0
        for g in gens:
            if key - g in met:
                break
        else:
            gens[key] = h
    return tuple(gens.values())


class ConePresentation(namedtuple("ConePresentation", "n basis relations")):
    """A fixed generating set with additive relations."""

    __slots__ = ()

    def __hash__(self) -> int:
        # n alone: decompose finds its search by the presentation on every call
        return hash(self.n)


def presentation(n: int) -> ConePresentation:
    """The pinned presentation of the rank-n hive cone (n = 2, 3, 4),
    validated on construction."""
    return _presentation(_integer("rank", n))


@lru_cache(maxsize=4)
def _presentation(n: int) -> ConePresentation:
    if n not in HILBERT_BASIS_COORDS:
        raise ValueError(f"no presentation data for rank {n}")
    basis = tuple(Hive.from_flat(c) for c in HILBERT_BASIS_COORDS[n])
    relations = tuple(starmap(BinomialRelation, PRESENTATION_RELATIONS[n]))
    pres = ConePresentation(n, basis, relations)
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


_CHUNK = 4  # levels per compile() call, whose transient memory grows with its tokens


@lru_cache(maxsize=4)
def _search(pres: ConePresentation):
    """The compiled first-match search over pres's basis, built on first use.
    search(a) on a hive's flat coordinates tests the apex and sets the slack
    s<r> of each cone row r, none negative, and the degree d.  One nested
    loop per basis element k, in basis order, runs c<k> from the min of
    s<r> // row(b_k) over the rows with row(b_k) > 0 down to 0, taking
    c<k> * row(b_k) off the slacks a later level reads; at d = 0 the rest is
    the zero hive, and the picks are returned.  Every _CHUNK levels the nest
    goes on in _levels<k>(the slacks still read, d), a piece compiled apart."""
    rows = [terms for *_, terms in cone_rows(pres.n)]
    _require_unit((c for terms in rows for _, c in terms), f"a rank-{pres.n} cone row")
    raised = [{r: v for r, terms in enumerate(rows)  # row(b_k) on the rows b_k raises
               if (v := sum(c * b.flat[q] for q, c in terms)) > 0} for b in pres.basis]
    if not all(raised):
        raise ValueError("a basis element raises no cone row")
    slack, degree, first, pieces = [f"s{r}" for r in range(len(rows))], "d", 0, []
    lines = ["def search(a):", "    if a[0]:", "        return None",
             *(f"    {s} = {_linear(terms)}" for s, terms in zip(slack, rows)),
             f"    if min({', '.join(slack)}) < 0:", "        return None",
             f"    d = a[{triangle_size(pres.n) - 1}]", "    if not d:", "        return ()"]

    def picks(stop):  # the indices picked by this piece's levels before stop
        return " + ".join(f"({j + 1},) * c{j}" for j in range(first, stop))

    for k, b in enumerate(pres.basis):
        if k % _CHUNK == 0 < k:
            args = ", ".join([slack[r] for r in sorted(set().union(*raised[k:]))] + [degree])
            lines.append(f"{'    ' * (_CHUNK + 1)}if (found := _levels{k}({args})) is not None:"
                         f" return {picks(k)} + found")
            pieces.append("\n".join(lines) + "\n")
            lines, first = ["", f"def _levels{k}({args}):"], k
        indent, later = "    " * (k - first + 1), set().union(*raised[k + 1:])
        bounds = [slack[r] + f" // {v}" * (v > 1) for r, v in raised[k].items()]
        lines += [indent + line for line in _interval("top", bounds, "<")]
        lines.append(f"{indent}for c{k} in range(top, -1, -1):")
        for r, v in raised[k].items():
            if r in later:
                lines.append(f"{indent}    s{r}_{k} = {slack[r]} - {f'{v} * ' * (v > 1)}c{k}")
                slack[r] = f"s{r}_{k}"
        lines += [f"{indent}    d{k} = {degree} - {f'{b.flat[-1]} * ' * (b.flat[-1] > 1)}c{k}",
                  f"{indent}    if not d{k}:", f"{indent}        return {picks(k + 1)}"]
        degree = f"d{k}"
    digest = hash(tuple(h.flat for h in pres.basis)) & 0xFFFFFFFF
    return _compile(pieces + ["\n".join(lines) + "\n"],
                    f"<hivealg decompose n={pres.n} basis {digest:08x}>", "search")


def decompose(hive: Hive, pres: ConePresentation) -> tuple[int, ...]:
    """Express a hive as a multiset of basis indices (returned sorted).

    Depth-first search over basis elements in index order, preferring high
    multiplicities of low indices, so the first decomposition reached is the
    one with the lexicographically greatest exponent vector.
    """
    if hive.n != pres.n:
        raise ValueError(f"rank mismatch: hive {hive.n}, presentation {pres.n}")
    found = _search(pres)(hive.flat)
    if found is None:
        raise NoDecompositionError(f"hive {hive} does not decompose over the rank-{pres.n} basis")
    return found


# ---------------------------------------------------------------------------
# Plain-text export formats

def inequalities_input_text(n: int) -> str:
    """Cone-by-inequalities input file: row count, dimension, each row of
    hive.cone_rows as a dense vector, then the single apex equation block."""
    n = _integer("rank", n, 2)
    dim = triangle_size(n)

    def dense(terms) -> str:
        out = [0] * dim
        for k, c in terms:
            out[k] = c
        return " ".join(map(str, out))

    rows = cone_rows(n)
    lines = [str(len(rows)), str(dim), *(dense(terms) for *_, terms in rows),
             "inequalities", "", "1", str(dim), dense([(0, 1)]), "equations"]
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
