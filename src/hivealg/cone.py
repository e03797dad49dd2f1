"""The hive cone as a polyhedral object: degree-bounded Hilbert basis
search, decomposition over a fixed basis, and the two plain-text export
formats used by lattice-point software."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from itertools import chain, repeat, starmap
from operator import attrgetter, or_
from struct import Struct, calcsize

from .counting import _kernel, _padded_partitions
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
    """A rank, its basis hives and their relations; decompose accepts only
    the pinned one, presentation(n), or an equal copy."""

    __slots__ = ()


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
    bad = [f"{r.name}: {r.detail}" for r in verify_relations(pres) if not r.ok]
    if bad:
        raise ConsistencyError(f"pinned relations fail their check: {'; '.join(bad)}")
    return pres


def verify_relations(pres: ConePresentation) -> list[CheckResult]:
    """Entrywise balance of every relation's two sides; a basis index outside
    1..m, m the basis size, fails its relation."""
    m, zero, results = len(pres.basis), (0,) * triangle_size(pres.n), []
    for rel in pres.relations:
        name = f"hive relation {rel.name}"
        outside = [k for k in rel.left + rel.right if not 1 <= k <= m]
        if outside:
            results.append(CheckResult(name, False, f"basis index {outside[0]} is not in 1..{m}"))
            continue
        left, right = (list(map(sum, zip(zero, *(pres.basis[k - 1].flat for k in side))))
                       for side in (rel.left, rel.right))
        if left == right:
            results.append(CheckResult(name, True))
        else:
            pos = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
            results.append(CheckResult(
                name, False, f"sides differ at coordinate {pos}: {left[pos]} != {right[pos]}"))
    return results


class NoDecompositionError(ConsistencyError):
    """A valid hive failed to decompose over the pinned basis; it generates the
    hive monoid, so this cannot happen: an internal-consistency failure.  That
    also makes the output right (see _search)."""


def _facets(pres: ConePresentation) -> list[int]:
    """The maximal sets of basis indices, as bitmasks over 0..m-1, that hold no
    initial pair, a relation's lex-smaller side when that is two distinct
    indices: pivoted Bron-Kerbosch, free[v] the indices no pair joins to v."""
    m = len(pres.basis)
    free = [(1 << m) - 1 ^ 1 << v for v in range(m)]
    for rel in pres.relations:
        low = min(rel.left, rel.right, key=lambda side: [side.count(i) for i in range(1, m + 1)])
        if len(set(low)) == len(low) == 2:
            free[low[0] - 1] &= ~(1 << low[1] - 1)
            free[low[1] - 1] &= ~(1 << low[0] - 1)

    def grow(chosen, open_, closed):
        if not open_ | closed:
            yield chosen
        pivot = max((v for v in range(m) if (open_ | closed) >> v & 1), default=0,
                    key=lambda v: (open_ & free[v]).bit_count())
        for v in [v for v in range(m) if (open_ & ~free[pivot]) >> v & 1]:
            yield from grow(chosen | 1 << v, open_ & free[v], closed & free[v])
            open_, closed = open_ ^ 1 << v, closed | 1 << v
    return list(grow(0, (1 << m) - 1, 0))


def _witnessed(facets: list[int], raised):
    """Per level k, {r: row(b_k)} over its bounds and over the rows it updates:
    for each facet F, a witness r (r(b_k) > 0, r(b_i) = 0 for each i in F past
    k), updated at each level of F before k whose element raises it.  Greedy:
    the row witnessing most facets left, then needing fewest new updates."""
    lifts = {r: sum(1 << i for i, level in enumerate(raised) if r in level)
             for r in set().union(*raised)}   # the levels whose element raises r
    done, kept = dict.fromkeys(lifts, 0), []   # the levels that update r
    for k, level in enumerate(raised):
        met = {r: {f for f in facets if not f & lifts[r] & -1 << k + 1} for r in level}

        def new(r, fs):   # the levels of fs before k that would newly update r
            return reduce(or_, fs, 0) & lifts[r] & ~done[r] & (1 << k) - 1
        left, bounds = set(facets), {}
        while left:
            r = max(level, key=lambda r: (len(met[r] & left), -new(r, met[r] & left).bit_count()))
            if not met[r] & left:
                raise ConsistencyError(f"no cone row witnesses a facet at level {k + 1}")
            bounds[r], left = level[r], left - met[r]
        for f in facets:   # F's witness: the kept one needing fewest new updates
            r = min((r for r in bounds if f in met[r]), key=lambda r: new(r, [f]).bit_count())
            done[r] |= new(r, [f])
        kept.append(bounds)
    return kept, [{r: v for r, v in level.items() if done[r] >> k & 1}
                  for k, level in enumerate(raised)]


@lru_cache(maxsize=4)
def _search(n: int):
    """The compiled greedy search over the pinned rank-n presentation, built
    on first use.  search(a) tests the apex and that no slack s<r> is
    negative over the rhombus rows and the mu_n and nu_n rows, which imply
    the rest.  Level k sets c<k> to the min of s<r> // row(b_k) over its
    bounds, rows b_k raises, and if c<k> > 0 takes c<k> * row(b_k) off each
    slack it updates and adds k + 1 to the picks c<k> times; they are
    returned if their degrees add up to a's.  The bounds are _witnessed
    rows: the lex-greatest vector y holds no initial pair, or the relation's
    other side would give a greater one, so y lies in a facet F, and at
    level k, the rest sum(y_i b_i, i >= k), F's witness reads y_k and every
    raised row at least y_k (Sturmfels, Groebner Bases and Convex Polytopes,
    ch. 8).  This needs a generating basis, the paper's theorem: else a
    wrong multiset could pass the degree check."""
    pres = _presentation(n)
    rows = [terms for *_, terms in cone_rows(n)]
    _require_unit((c for terms in rows for _, c in terms), f"a rank-{n} cone row")
    raised = [{r: v for r, terms in enumerate(rows)  # row(b_k) on the rows b_k raises
               if (v := sum(c * b.flat[q] for q, c in terms)) > 0} for b in pres.basis]
    kept, updates = _witnessed(_facets(pres), raised)
    member = [r for r, (kind, i, *_) in enumerate(cone_rows(n))
              if kind.startswith("rhombus") or kind in ("mu", "nu") and i == n]
    slack = {r: f"s{r}" for r in sorted(set(member).union(*kept))}
    lines = ["def search(a):", "    if a[0]:", "        return None",
             *(f"    {s} = {_linear(rows[r])}" for r, s in slack.items()),
             f"    if min({', '.join(slack[r] for r in member)}) < 0:", "        return None",
             "    p = ()"]
    for k, (bounds, level) in enumerate(zip(kept, updates)):
        first, *rest = (slack[r] + f" // {v}" * (v > 1) for r, v in bounds.items())
        lines += [f"    c{k} = {first}", *(f"    if {b} < c{k}: c{k} = {b}" for b in rest),
                  f"    if c{k}:",
                  *(f"        {slack[r]} -= {f'{v} * ' * (v > 1)}c{k}" for r, v in level.items()),
                  f"        p += ({k + 1},) * c{k}"]
    degree = " + ".join(f"{f'{b.flat[-1]} * ' * (b.flat[-1] > 1)}c{k}"
                        for k, b in enumerate(pres.basis))
    lines += [f"    if a[{triangle_size(n) - 1}] != {degree}:", "        return None",
              "    return p"]
    return _compile("\n".join(lines) + "\n", f"<hivealg decompose n={n}>", "search")


def decompose(hive: Hive, pres: ConePresentation) -> tuple[int, ...]:
    """Express a hive as a multiset of basis indices (returned sorted), greedily:
    b_1, b_2, ... each taken as often as the rest stays a hive.  The pinned
    basis generates the hive monoid, so that is the lex-greatest exponent
    vector a*: the greedy c_1 >= a*_1, and were it greater, h - c_1 b_1 would
    be a sum of basis hives giving a vector above a*; likewise at later levels.
    pres must be presentation(n), or an equal copy: the search reads facet
    witnesses (_search), exact only over that basis, so any other raises
    ValueError.  Acceptance criterion 3 (every hive of degree <= 12
    decomposes, and sums back, at n = 2, 3, 4) so also checks greedy there."""
    if hive.n != pres.n:
        raise ValueError(f"rank mismatch: hive {hive.n}, presentation {pres.n}")
    pinned = _presentation(pres.n)
    if pres is not pinned and pres != pinned:
        raise ValueError(f"decompose searches the pinned rank-{pres.n} presentation only")
    found = _search(pres.n)(hive.flat)
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
