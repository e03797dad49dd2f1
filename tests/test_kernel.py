"""The generated code: the hive kernel (counting._kernel) and the
decomposition search (cone._search).  Both build and their source is
inspectable; the kernel nests one loop per interior entry, split
across functions only at CPython's block limit; its plan holds the cone
rows plus cancelled pairs of them, all of which every hive satisfies, and
its bottom-row-up fill order prunes, as does the pairs plan's order, by
diagonals from the mu/nu corner, whose every entry is bounded both ways
by rows over entries placed before it; enumeration comes out in
lexicographic order whatever the search order; counts agree with
enumeration and with the tableau route, also at ranks whose nest passes
that limit, with the symmetries and saturation of LR coefficients, and
at every rank that holds lambda, and stretch polynomially.  The
search bounds each basis element by the rows it raises, in pieces of a few
levels, and agrees with the interpreted search and with a row-by-row reading
of cone_rows on any array."""

import inspect
import linecache
import re
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import product, takewhile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hivealg import cone, counting
from hivealg.cone import ConePresentation, hilbert_basis, hives_up_to_degree, presentation
from hivealg.counting import _kernel, enumerate_hives, lr_coefficient, lr_via_tableaux
from hivealg.hive import Hive, cone_rows, flat_index, hive_violations, triangle_size
from hivealg.shapes import contains, normalize, pad, partitions_of
from test_counting import swept_triples
from test_hive_properties import hive_pool, interpreted_decompositions


@pytest.mark.parametrize("count", [True, False])
def test_kernel_builds_for_every_rank(count):
    for n in range(1, 11):
        assert callable(_kernel(n, count))
    for n in range(1, 13):
        assert callable(_kernel(n, count, True))


def kernel_source(n, count, pairs=False):
    """The whole generated kernel source, as linecache holds it."""
    kernel = _kernel(n, count, pairs)
    return "".join(linecache.getlines(kernel.__code__.co_filename))


def test_kernel_source_is_inspectable():
    kernel = _kernel(4, True)
    source = kernel_source(4, True)
    assert kernel.__code__.co_filename == "<hivealg kernel n=4 count>"
    assert inspect.getsource(kernel).startswith("def entry(lam, mu, nu):\n")
    # bounds of the first interior entry, h[4][3] = a8: its three rhombus
    # rows, then the sums that cancel a7 and a4; then its loop
    assert ("    total = 0\n"
            "    lo = a13 + a5 - a9\n"
            "    t = a12 + a9 - a13\n"
            "    if t > lo: lo = t\n"
            "    t = a11 + a3 + a13 - a6 - a12\n"
            "    if t > lo: lo = t\n"
            "    t = a6 + a13 - a11\n"
            "    if t > lo: lo = t\n"
            "    t = a1 + a12 - a3\n"
            "    if t > lo: lo = t\n"
            "    t = a1 + a9 - a2\n"
            "    if t > lo: lo = t\n"
            "    t = a3 + a2 + a9 - a1 - a5\n"
            "    if t > lo: lo = t\n"
            "    t = a5 + a6 - a3\n"
            "    if t > lo: lo = t\n"
            "    hi = a13 + a9 - a14\n"
            "    t = a12 + a6 - a10\n"
            "    if t < hi: hi = t\n"
            "    t = a5 + a1\n"
            "    if t < hi: hi = t\n"
            "    for a8 in range(lo, hi + 1):\n") in source
    assert "max(" not in source and "min(" not in source


@pytest.mark.parametrize("count", [True, False])
def test_kernel_source_never_reads_the_apex(count):
    # the apex is 0: no bound or boundary row reads a local a0, and the
    # enumerated coordinates start with the literal 0
    for n in range(1, 11):
        source = kernel_source(n, count)
        assert not re.search(r"\ba0\b", source), n
        assert count or "yield (0, a1, " in source, n


def read_linear(text):
    """{flat index: coeff} of a generated sum of +-a<k>, read independently
    of _linear."""
    return {int(k): (-1 if sign == "-" else 1)
            for sign, k in re.findall(r"(-?)\s*\ba(\d+)\b", text)}


LOOP = re.compile(r"( *)for a(\d+) in range\(lo, hi \+ 1\):")
LAST_COUNT = "if hi >= lo: total += hi - lo + 1"


def edge_cells(n, pairs=False):
    """Flat indices of the boundary cells but the apex; with pairs, of the
    mu and nu edges alone."""
    return sorted({flat_index(i, 1) for i in range(2, n + 2)}
                  | {flat_index(i, i) for i in range(2, n + 2) if not pairs}
                  | {flat_index(n + 1, j) for j in range(2, n + 2)})


def kernel_functions(n, count, pairs=False):
    """{function name: its lines} of the generated kernel, in source order."""
    functions = {}
    for block in kernel_source(n, count, pairs).split("\ndef "):
        head, _, body = block.removeprefix("def ").partition("\n")
        functions[head.split("(")[0]] = [head, *body.splitlines()]
    return functions


# Both plans: fixing lambda for n = 1..6, and freeing it (the pairs
# kernel, ids "pairs<n>") for n = 1..12, whose nest passes the block limit
# from rank 7 enumerating and rank 8 counting.
PLANS = dict(argnames="n, pairs", argvalues=[(n, False) for n in range(1, 7)]
             + [(n, True) for n in range(1, 13)],
             ids=[str(n) for n in range(1, 7)] + [f"pairs{n}" for n in range(1, 13)])


@pytest.mark.parametrize("count", [True, False])
@pytest.mark.parametrize(**PLANS)
def test_kernel_source_bounds_every_plan_row_and_sets_every_edge(n, pairs, count):
    _row_bounds, interior, boundary_only, attached = counting._fill_plan(n, pairs)
    functions = kernel_functions(n, count, pairs)
    lines = [line.strip() for body in functions.values() for line in body]
    # each entry's bounds are the lo and hi lines before its loop, or, for
    # the last entry counted, before the line adding its interval length
    bounded, read = [], {"lo": [], "hi": []}
    for line, after in zip(lines, lines[1:] + [""]):
        first = re.fullmatch(r"(lo|hi) = (.*)", line)
        update = re.fullmatch(r"if t (<|>) (lo|hi): \2 = t", after)
        loop = LOOP.fullmatch(line)
        if first:
            read[first[1]].append(read_linear(first[2]))
        elif line.startswith("t = ") and update:
            assert update[1] == {"lo": ">", "hi": "<"}[update[2]]
            read[update[2]].append(read_linear(line))
        elif loop or line == LAST_COUNT:
            bounded.append((int(loop[2]) if loop else interior[-1], read))
            read = {"lo": [], "hi": []}
    # each plan row once, entries in fill order; coeff * a[pos] + rest >= 0
    # is a lower bound -rest or an upper one rest, and the apex a[0] = 0 is
    # left out
    assert [pos for pos, _ in bounded] == list(interior)
    for (pos, read), rows_k in zip(bounded, attached):
        assert read["lo"] and read["hi"], pos
        want = {"lo": [], "hi": []}
        for coeff, rest in rows_k:
            want["lo" if coeff == 1 else "hi"].append({q: -coeff * c for q, c in rest if q})
        for side in want:
            assert (Counter(frozenset(r.items()) for r in read[side])
                    == Counter(frozenset(r.items()) for r in want[side])), (pos, side)
    assert lines.count(LAST_COUNT) == (1 if count and interior else 0)

    # entry starts with the edge sums and the rows on the boundary alone.
    # Part entries are weighted so that each partial sum reads back as the
    # set of entries it adds up; every boundary cell but the apex is set
    # once, to its value in boundary_flat
    entry = functions["entry"]
    assert entry[0] == ("entry(mu, nu):" if pairs else "entry(lam, mu, nu):")
    head = list(takewhile(lambda line: re.fullmatch(r"    (a\d+ = .*|if .*|    return.*)", line),
                          entry[1:]))
    parts = {p: [1 << (n * s + i) for i in range(n)] for s, p in enumerate(("lam", "mu", "nu"))}
    sums = dict(m.groups() for m in map(re.compile(r"    a(\d+) = (.*)").fullmatch, head) if m)

    def value(expr):
        total = 0
        for term in expr.split(" + "):
            entry_of = re.fullmatch(r"(lam|mu|nu)\[(\d+)\]", term)
            total += (parts[entry_of[1]][int(entry_of[2])] if entry_of
                      else value(sums[term.removeprefix("a")]))
        return total

    flat = boundary_flat(n, *parts.values())
    assert len(sums) == len([line for line in head if re.match(r"    a\d+ = ", line)])
    assert ({int(k): value(expr) for k, expr in sums.items()}
            == {k: flat[k] for k in edge_cells(n, pairs)})
    checks = [line for line in head if line.startswith("    if ")]
    assert all(line.endswith(" < 0:") for line in checks)
    assert [read_linear(line) for line in checks] == [{k: c for k, c in terms if k}
                                                       for terms in boundary_only]
    assert [line for line in head if line.startswith("        ")] == (
        ["        return 0" if count else "        return"] * len(checks))
    # then the search: counting returns the total, enumerating yields the
    # flat coordinates from the innermost loop
    if count:
        assert entry[-1] == "    return total"
        assert interior or entry[-2] == "    total += 1"
    else:
        cells = ", ".join(f"a{k}" for k in range(1, triangle_size(n)))
        assert [line for line in lines if line.startswith("yield (")] == [f"yield (0, {cells})"]


@pytest.mark.parametrize("count", [True, False])
@pytest.mark.parametrize("n", range(1, 13))
def test_kernel_nests_one_loop_per_entry_split_only_at_the_block_limit(n, count):
    """Each function's loops nest one inside the last, at most
    counting._BLOCK_LIMIT deep; a full one ends by passing the locals placed
    so far, in flat order, to _rest<p>, which goes on with fill place p."""
    _row_bounds, interior, _boundary_only, _attached = counting._fill_plan(n)
    loops = len(interior) - (1 if count and interior else 0)
    functions = kernel_functions(n, count)
    limit = counting._BLOCK_LIMIT
    assert list(functions) == ["entry"] + [f"_rest{p}" for p in range(limit, loops, limit)]
    assert n > 7 or len(functions) == 1
    place = 0
    for name, body in functions.items():
        if name != "entry":
            args = ", ".join(f"a{k}" for k in sorted(edge_cells(n) + list(interior[:place])))
            assert body[0] == f"{name}({args}):"
            call = ("total += " if count else "yield from ") + f"{name}({args})"
            assert previous[-2 if count else -1] == " " * (4 * (limit + 1)) + call
        depths = [(len(m[1]), int(m[2])) for m in map(LOOP.fullmatch, body) if m]
        assert [pos for _, pos in depths] == list(interior[:loops][place:place + limit])
        assert [depth for depth, _ in depths] == [4 * d for d in range(1, len(depths) + 1)]
        place, previous = place + len(depths), body
    assert place == loops


def test_kernel_rejects_coefficients_other_than_one(monkeypatch):
    # rank 3's one interior entry a[4], with a lower bound row 2 * a[4] - a[1] >= 0
    row_bounds, interior, boundary_only, attached = counting._fill_plan(3)
    bad = ((2, ((1, -1),)),) + attached[0]
    monkeypatch.setattr(counting, "_fill_plan",
                        lambda n: (row_bounds, interior, boundary_only, (bad,)))
    with pytest.raises(ValueError, match="coefficient other than"):
        counting._kernel_source(3, True)


# Rank 8 enumerating is the first search to pass counting._BLOCK_LIMIT
# nested loops; ranks 9 and 10 cross it once in both kernels and rank 11
# twice.
@pytest.mark.parametrize("n, lam, mu, nu, expected", [
    (8, (6, 4, 3, 2, 2, 1, 1), (4, 3, 2, 1), (3, 2, 2, 1, 1), 10),
    (8, (4, 3, 2, 2, 1, 1, 1, 1), (3, 2, 1, 1), (2, 2, 1, 1, 1, 1), 4),
    (9, (5, 3, 3, 2, 2, 1, 1), (3, 2, 2, 1, 1), (3, 2, 1, 1, 1), 6),
    (9, (4, 3, 3, 2, 2, 1, 1, 1, 1), (3, 2, 1, 1, 1), (2, 2, 2, 1, 1, 1, 1), 4),
    (10, (5, 3, 3, 2, 2, 1, 1, 1, 1), (3, 2, 2, 1, 1, 1), (3, 2, 1, 1, 1, 1), 6),
    (11, (5, 3, 3, 2, 2, 2, 1, 1, 1, 1), (3, 2, 2, 1, 1, 1, 1), (3, 2, 1, 1, 1, 1, 1), 6),
])
def test_deep_ranks_agree_with_tableaux(n, lam, mu, nu, expected):
    assert lr_via_tableaux(n, lam, mu, nu) == expected
    assert lr_coefficient(n, lam, mu, nu) == expected
    assert len(enumerate_hives(n, lam, mu, nu)) == expected
    padded = [pad(p, n) for p in (lam, mu, nu)]
    assert sorted(_kernel(n, False)(*padded)) == list(row_major_hives(n, *padded))


# Rank 7 enumerating and rank 8 both ways pass counting._BLOCK_LIMIT
# nested loops in the pairs kernel.
@pytest.mark.parametrize("n", range(1, 9))
def test_pairs_kernel_sums_the_fixed_lambda_kernel_over_lambda(n):
    count, flats = _kernel(n, True, True), _kernel(n, False, True)
    for d in range(7):
        lams = [pad(lam, n) for lam in partitions_of(d, n)]
        for j in range(d + 1):
            for mu, nu in product(partitions_of(j, n), partitions_of(d - j, n)):
                mu, nu = pad(mu, n), pad(nu, n)
                assert count(mu, nu) == sum(lr_coefficient(n, lam, mu, nu) for lam in lams)
                assert sorted(flats(mu, nu)) == sorted(
                    f for lam in lams for f in _kernel(n, False)(lam, mu, nu))


@st.composite
def dominant_triples(draw, low=2, high=6, size=7):
    """(n, lam, mu, nu) with |lam| = |mu| + |nu|, all with at most n parts,
    for low <= n <= high and |mu|, |nu| <= size."""
    n = draw(st.integers(low, high))
    mu = draw(st.sampled_from(partitions_of(draw(st.integers(0, size)), n)))
    nu = draw(st.sampled_from(partitions_of(draw(st.integers(0, size)), n)))
    lam = draw(st.sampled_from(partitions_of(sum(mu) + sum(nu), n)))
    return n, lam, mu, nu


@lru_cache(maxsize=4)
def multiple_triples(n: int) -> tuple:
    """Every (n, lam, mu, nu) of degree <= 10 whose coefficient, by the
    tableau route, is at least 2."""
    return tuple((n, *t) for d in range(11) for t in swept_triples(n, d)
                 if lr_via_tableaux(n, *t) >= 2)


@st.composite
def mixed_triples(draw):
    """A third of the draws from dominant_triples, which alone gives c >= 2
    in a few percent of draws (hypothesis favours small sizes and one-row
    shapes), and the rest from multiple_triples: about half of all draws
    have c >= 2, so a kernel that miscounts only intervals longer than one
    fails."""
    if draw(st.integers(0, 2)) == 0:
        return draw(dominant_triples())
    return draw(st.sampled_from(multiple_triples(draw(st.integers(3, 6)))))


@settings(max_examples=150)
@given(mixed_triples())
def test_count_equals_enumeration_and_tableaux(triple):
    n, lam, mu, nu = triple
    c = lr_coefficient(n, lam, mu, nu)
    assert c == len(enumerate_hives(n, lam, mu, nu)) == lr_via_tableaux(n, lam, mu, nu)


@settings(max_examples=150)
@given(mixed_triples())
def test_swapping_mu_and_nu_keeps_the_coefficient(triple):
    # both routes search the triple in the order given, so each must be
    # symmetric in (mu, nu) by itself
    n, lam, mu, nu = triple
    assert (len(enumerate_hives(n, lam, mu, nu)) == len(enumerate_hives(n, lam, nu, mu))
            == lr_coefficient(n, lam, mu, nu) == lr_coefficient(n, lam, nu, mu))


@settings(max_examples=150)
@given(mixed_triples())
def test_coefficient_is_the_same_at_every_rank_that_holds_lambda(triple):
    # lr_coefficient counts at rank min(n, len(lam)); padding lam to n + k
    # makes it count at rank n + k, and stripping its zeros at l(lam)
    n, lam, mu, nu = triple
    c = lr_via_tableaux(n, lam, mu, nu)
    for k in range(3):
        assert (lr_coefficient(n, lam, mu, nu) == lr_coefficient(n + k, lam, mu, nu)
                == lr_coefficient(n + k, pad(lam, n + k), mu, nu)
                == lr_coefficient(n + k, normalize(lam), mu, nu) == c)


@pytest.mark.parametrize("n, lam, mu, nu, expected", [
    (5, (), (), (), 1),
    (5, (), (0, 0, 0), (0,), 1),
    (5, (), (1,), (), 0),
    (3, (2, 1, 0, 0, 0), (1,), (1, 1), 1),
    (2, (2, 1, 0), (1, 0, 0, 0), (1, 1), 1),
    (6, (2, 2), (1, 1, 1), (1,), 0),  # mu is not under lam
    (6, (3, 1), (1,), (1, 1, 1), 0),
    (6, (2, 2), (1, 1, 0), (1, 1), 1),
])
def test_least_rank_edge_cases(n, lam, mu, nu, expected):
    assert lr_coefficient(n, lam, mu, nu) == lr_via_tableaux(n, lam, mu, nu) == expected


@pytest.mark.parametrize("n, lam, mu, nu, message", [
    (6, (2, 1), (1, 0, 2), (), "mu = (1, 0, 2) is not a partition"),
    (6, (2, 1), (1, 0, 2, 0), (), "mu = (1, 0, 2) is not a partition"),
    (6, (1, 2), (1, 1, 1), (), "lambda = (1, 2) is not a partition"),
    (2, (2, 1), (1,), (1, 0, -1), "nu = (1, 0, -1) is not a partition"),
    (6, (2, 1), (2, 1), (0, -1), "nu = (0, -1) is not a partition"),
])
def test_least_rank_keeps_the_partition_messages(n, lam, mu, nu, message):
    with pytest.raises(ValueError) as err:
        lr_coefficient(n, lam, mu, nu)
    assert str(err.value) == message


def test_lr_coefficient_builds_only_the_kernel_of_the_least_rank(monkeypatch):
    built, kernel = [], counting._kernel
    monkeypatch.setattr(counting, "_kernel", lambda *args: built.append(args) or kernel(*args))
    counting._count_entry.cache_clear()
    assert lr_coefficient(8, (2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient(8, (2, 1), (1, 0, 0), (1, 1)) == 1  # mu longer than lam
    assert built == [(2, True)]
    # enumerating at rank 8 builds its own kernel, but no rank-8 count kernel
    assert len(enumerate_hives(8, (2, 1), (1,), (1, 1))) == 1
    assert built == [(2, True), (8, False)]


@st.composite
def admitted_triples(draw, low, high, size):
    """(n, lam, mu, nu) with size / 2 <= |mu|, |nu| <= size and lam one of
    the boundaries swept_triples admits (lam contains mu and nu, lam_1 <=
    mu_1 + nu_1), so that the coefficient is often positive and sometimes
    above 1.  mu + nu is always admitted."""
    n = draw(st.integers(low, high))
    mu, nu = (draw(st.sampled_from(partitions_of(draw(st.integers(size // 2, size)), n)))
              for _ in range(2))
    lam = draw(st.sampled_from([
        lam for lam in partitions_of(sum(mu) + sum(nu), n)
        if contains(lam, mu) and contains(lam, nu) and lam[0] <= mu[0] + nu[0]]))
    return n, lam, mu, nu


def both_kernels(n, lam, mu, nu):
    """The coefficient from the count kernel, checked against the number of
    hives the enumeration kernel yields."""
    c = lr_coefficient(n, lam, mu, nu)
    assert len(enumerate_hives(n, lam, mu, nu)) == c
    return c


def complement(p, n, k):
    """p^v = (k - p_n, ..., k - p_1): the complement of p in the n x k box."""
    return tuple(k - v for v in reversed(pad(p, n)))


@settings(max_examples=150)
@given(st.one_of(mixed_triples(), admitted_triples(3, 6, 8)))
def test_complement_symmetry(triple):
    # c^lam_{mu nu} = c^{mu^v}_{nu, lam^v} in any n x k box that holds lam
    # and mu; k = lam_1 whenever mu fits under it
    n, lam, mu, nu = triple
    k = max(pad(lam, n)[0], pad(mu, n)[0])
    assert (both_kernels(n, lam, mu, nu)
            == both_kernels(n, complement(mu, n, k), nu, complement(lam, n, k)))


@settings(max_examples=200)
@given(admitted_triples(3, 6, 8))
def test_saturation(triple):
    # Knutson-Tao: c(2 lam, 2 mu, 2 nu) > 0 exactly when c(lam, mu, nu) > 0
    n, lam, mu, nu = triple
    doubled = [tuple(2 * v for v in p) for p in (lam, mu, nu)]
    assert (both_kernels(n, *doubled) > 0) == (both_kernels(n, lam, mu, nu) > 0)


@settings(max_examples=200)
@given(st.one_of(mixed_triples(), admitted_triples(3, 6, 8)))
def test_saturation_at_three(triple):
    # Knutson-Tao at N = 3: c(3 lam, 3 mu, 3 nu) > 0 exactly when
    # c(lam, mu, nu) > 0; the mixed draws often have c >= 2
    n, lam, mu, nu = triple
    tripled = [tuple(3 * v for v in p) for p in (lam, mu, nu)]
    assert (both_kernels(n, *tripled) > 0) == (both_kernels(n, lam, mu, nu) > 0)


def conjugate(p):
    """p': the column lengths of the diagram of p."""
    return tuple(sum(v > i for v in p) for i in range(max(p, default=0)))


@settings(max_examples=150)
@given(mixed_triples().filter(lambda triple: pad(triple[1], triple[0])[0] <= triple[0]))
def test_conjugation_symmetry(triple):
    # c^lam_{mu nu} = c^{lam'}_{mu' nu'}; lam_1 <= n, so lam' fits in rank
    # n.  A mu or nu not under lam has c = 0 on both sides, even where its
    # conjugate has more than n parts.
    n, lam, mu, nu = triple
    assert (both_kernels(n, lam, mu, nu)
            == both_kernels(n, conjugate(lam), conjugate(mu), conjugate(nu)))


@pytest.mark.parametrize("n", range(3, 7))
def test_stretched_coefficients_are_polynomial(n):
    # Derksen-Weyman, Rassart: N -> c(N lam, N mu, N nu) is a polynomial of
    # degree at most b = (l - 1)(l - 2)/2 at rank l, so with l = l(lam), a
    # tighter bound than rank n gives, as the coefficient is the same at every
    # rank >= l(lam).  Its differences of order b + 1 over N = 1..b + 2
    # vanish; N = 0 is left out, as it gives 1 even where c = 0.  Every triple
    # has c >= 2.  King-Tollu-Toumazet conjecture that the coefficients of
    # the polynomial are positive; that is not checked here.
    for _, lam, mu, nu in multiple_triples(n):
        length = len(normalize(lam))
        b = (length - 1) * (length - 2) // 2
        values = [lr_coefficient(n, *(tuple(N * v for v in p) for p in (lam, mu, nu)))
                  for N in range(1, b + 3)]
        for _ in range(b + 1):
            values = [y - x for x, y in zip(values, values[1:])]
        assert values == [0], (lam, mu, nu)


# ---------------------------------------------------------------------------
# The fill plan: cone rows plus one round of cancelled pairs

def plan_rows(n, pairs=False):
    """Every row of _fill_plan(n, pairs) as (the free entry it is attached
    to, or None on the boundary alone, {flat index: coeff})."""
    _row_bounds, interior, boundary_only, attached = counting._fill_plan(n, pairs)
    rows = [(None, dict(terms)) for terms in boundary_only]
    rows += [(pos, {pos: coeff, **dict(rest)})
             for pos, rows_k in zip(interior, attached) for coeff, rest in rows_k]
    return rows


@pytest.mark.parametrize("n, pairs", [(n, False) for n in range(1, 9)]
                         + [(n, True) for n in range(1, 9)],
                         ids=[str(n) for n in range(1, 9)] + [f"pairs{n}" for n in range(1, 9)])
def test_added_rows_are_cancelled_pairs(n, pairs):
    # the cone rows but those of the fixed edges, whose parts are dominant
    order = {k: place for place, k in enumerate(counting._fill_plan(n, pairs)[1])}
    cone = [dict(terms) for *_, terms in cone_rows(n)[(2 if pairs else 3) * n:]]

    def last(row):
        """The free entry of row that is placed last in plan order."""
        return max((k for k in row if k in order), key=order.get, default=None)

    sums = []
    for low in cone:
        for up in cone:
            x = last(low)
            if x is not None and last(up) == x and low[x] == 1 and up[x] == -1:
                summed = Counter(low)
                summed.update(up)
                sums.append({k: c for k, c in summed.items() if c})
    rows = plan_rows(n, pairs)
    keys = [frozenset(row.items()) for _, row in rows]
    cone_keys = {frozenset(row.items()) for row in cone}
    assert len(set(keys)) == len(keys) and cone_keys <= set(keys)
    for pos, row in rows:
        assert pos == last(row)
    # the rest: every sum of a lower and an upper row of one entry x that
    # keeps its coefficients +-1 and mentions a free entry placed before x
    added = {frozenset(p.items()) for p in sums
             if set(p.values()) <= {1, -1} and last(p) is not None}
    assert set(keys) - cone_keys == added - cone_keys
    assert n < 4 or len(rows) > len(cone)


def assert_plan_holds(n, flat, pairs=False):
    for _pos, row in plan_rows(n, pairs):
        assert sum(c * flat[k] for k, c in row.items()) >= 0, row


@pytest.mark.parametrize("n", range(1, 5))
def test_plan_rows_hold_on_every_small_hive(n):
    for h in hives_up_to_degree(n, 6):
        assert_plan_holds(n, h.to_flat())
        assert_plan_holds(n, h.to_flat(), pairs=True)


@settings(max_examples=100)
@given(admitted_triples(5, 6, 8))
def test_plan_rows_hold_on_enumerated_hives(triple):
    n, lam, mu, nu = triple
    for h in enumerate_hives(n, lam, mu, nu):
        assert_plan_holds(n, h.to_flat())


# ---------------------------------------------------------------------------
# The fill order: the search runs bottom row first, the output is sorted

def boundary_flat(n, lam, mu, nu):
    """The flat array of the padded boundary (lam, mu, nu), its edges set
    from partial sums and its interior at zero; with lam None, the pairs
    boundary, whose lambda cells are free and stay at zero too."""
    flat = [0] * triangle_size(n)
    for i in range(1, n + 1):  # left and right edges, then the bottom one
        flat[flat_index(i + 1, 1)] = flat[flat_index(i, 1)] + mu[i - 1]
        if lam is not None:
            flat[flat_index(i + 1, i + 1)] = flat[flat_index(i, i)] + lam[i - 1]
    for j in range(1, n + 1):
        flat[flat_index(n + 1, j + 1)] = flat[flat_index(n + 1, j)] + nu[j - 1]
    return flat


def row_major_hives(n, lam, mu, nu):
    """Oracle: the flat coordinates of every hive with the padded boundary
    (lam, mu, nu), filling the interior in row-major order, each entry
    bounded by the cone rows whose largest interior index it is, each
    interval swept upward; so they come in lexicographic order."""
    flat = boundary_flat(n, lam, mu, nu)
    interior = [flat_index(i, j) for i in range(3, n + 1) for j in range(2, i)]
    rows = {k: [] for k in [None] + interior}
    for *_, terms in cone_rows(n):
        rows[max((k for k, _ in terms if k in rows), default=None)].append(terms)

    def rest(terms, k=None):
        return sum(c * flat[q] for q, c in terms if q != k)

    def fill(place):
        if place == len(interior):
            yield tuple(flat)
            return
        k = interior[place]
        # +-flat[k] + rest >= 0
        lo = max(-rest(t, k) for t in rows[k] if (k, 1) in t)
        hi = min(rest(t, k) for t in rows[k] if (k, -1) in t)
        for v in range(lo, hi + 1):
            flat[k] = v
            yield from fill(place + 1)

    if all(rest(t) >= 0 for t in rows[None]):
        yield from fill(0)


@st.composite
def order_triples(draw):
    """(n, lam, mu, nu) for n = 2..5: half from dominant_triples, half with
    c >= 2, so that there is an order to check."""
    if draw(st.booleans()):
        return draw(dominant_triples(high=5))
    return draw(st.sampled_from(multiple_triples(draw(st.integers(3, 5)))))


# The kernel's search order is seldom not lexicographic, which the draws
# above do not reach: not below degree 12 at ranks 4 and 5, and at degree
# 12 on 2 of the 368 rank-4 boundaries with c >= 2 and 4 of the 654 rank-5
# ones.  These are two of them.
@example((4, (5, 4, 2, 1), (3, 2), (4, 2, 1)))
@example((5, (4, 3, 2, 2, 1), (3, 2, 1), (3, 2, 1)))
@settings(max_examples=150)
@given(order_triples())
def test_enumeration_order_is_lexicographic(triple):
    n, lam, mu, nu = triple
    flats = [h.to_flat() for h in enumerate_hives(n, lam, mu, nu)]
    assert flats == sorted(flats)
    assert flats == list(row_major_hives(n, *(pad(p, n) for p in (lam, mu, nu))))


def plan_nodes(n, lam, mu, nu):
    """Free-entry DFS nodes (entries set to one value) that _fill_plan(n)
    visits for a padded boundary, read row by row from the plan; with lam
    None, those that the pairs plan _fill_plan(n, True) visits for (mu, nu)."""
    _row_bounds, interior, boundary_only, attached = counting._fill_plan(n, lam is None)
    flat = boundary_flat(n, lam, mu, nu)
    if any(sum(c * flat[k] for k, c in terms) < 0 for terms in boundary_only):
        return 0

    def visit(place):
        if place == len(interior):
            return 0
        rests = [(coeff, sum(c * flat[q] for q, c in rest)) for coeff, rest in attached[place]]
        lo = max(-r for coeff, r in rests if coeff == 1)
        hi = min(r for coeff, r in rests if coeff == -1)
        nodes = 0
        for v in range(lo, hi + 1):
            flat[interior[place]] = v
            nodes += 1 + visit(place + 1)
        return nodes

    return visit(0)


# Nodes on every rank-6 boundary of degree <= 8 with the bottom-row-up
# fill order; the row-major order, under the same plan rule, visits 25,520.
RANK6_NODES = 15_519


def test_fill_plan_prunes_rank6():
    nodes = sum(plan_nodes(6, *triple) for d in range(9) for triple in swept_triples(6, d))
    assert nodes <= RANK6_NODES


def face_pairs(n, d):
    """The padded (mu, nu) of degree d that counting._reduced_sums sweeps:
    mu_n = nu_n = 0, |mu| <= |nu|, and at |mu| = |nu| mu no later than nu
    in partitions_of order."""
    by_size = [[pad(p, n) for p in partitions_of(j, n - 1)] for j in range(d + 1)]
    return [(mu, nu) for j in range(d // 2 + 1) for a, mu in enumerate(by_size[j])
            for nu in (by_size[d - j][a:] if 2 * j == d else by_size[d - j])]


# Nodes of the rank-6 pairs sweep of degree <= 8 with the diagonal fill
# order from the mu/nu corner; columns 2..n from the mu edge, each from
# row n up, visit 8,769, and rows from the bottom, each from the mu edge,
# 5,595.
RANK6_PAIRS_NODES = 4_984


def test_pairs_plan_prunes():
    nodes = sum(plan_nodes(6, None, mu, nu) for d in range(9) for mu, nu in face_pairs(6, d))
    assert nodes <= RANK6_PAIRS_NODES


def test_pairs_plan_fills_diagonals_from_the_corner_each_bounded_both_ways():
    assert counting._fill_plan(4, True)[1] == (7, 8, 4, 9, 5, 2)
    for n in range(2, 13):
        rows = {(kind, i, j): dict(terms) for kind, i, j, terms in cone_rows(n)}
        attached = {}
        for pos, row in plan_rows(n, pairs=True):
            attached.setdefault(pos, []).append(row)
        cell = {flat_index(i, j): (i, j) for i in range(2, n + 1) for j in range(2, i + 1)}
        interior = counting._fill_plan(n, True)[1]
        assert sorted(interior) == sorted(cell)
        for pos in interior:
            i, j = cell[pos]
            # rhombus3 (i, j) reads (i+1, j+1), (i, j-1) and (i+1, j): a
            # lower bound; rhombus1 (i, j-1) reads (i, j-1), (i+1, j) and
            # (i+1, j-1): an upper one.  Attached to (i, j), each reads
            # only cells on the fixed edges or placed before it
            lower, upper = rows["rhombus3", i, j], rows["rhombus1", i, j - 1]
            assert lower[pos] == 1 and lower in attached[pos], (n, i, j)
            assert upper[pos] == -1 and upper in attached[pos], (n, i, j)


# ---------------------------------------------------------------------------
# The decomposition search (cone._search), which is also the membership test:
# an array that is not a hive never decomposes

def interpreted_in_cone(flat, n):
    """The membership test as it read before it was generated: the apex,
    then each cone row summed term by term."""
    if flat[0]:
        return False
    for _kind, _i, _j, terms in cone_rows(n):
        if sum(c * flat[k] for k, c in terms) < 0:
            return False
    return True


def rows_of(flat, n):
    starts = [i * (i - 1) // 2 for i in range(1, n + 3)]
    return [flat[a:b] for a, b in zip(starts, starts[1:])]


@lru_cache(maxsize=None)
def search_presentation(n):
    """The pinned presentation at n = 2, 3, 4; at other ranks the irreducible
    hives of degree <= 2, a complete basis at n = 1 only."""
    return presentation(n) if n in (2, 3, 4) else ConePresentation(n, hilbert_basis(n, 2), ())


def search_source(pres):
    """The whole generated search source, as linecache holds it."""
    return "".join(linecache.getlines(cone._search(pres).__code__.co_filename))


def raised_rows(pres):
    """Per basis element b, {cone row r: row(b)} over the rows with row(b) > 0."""
    rows = [terms for *_, terms in cone_rows(pres.n)]
    return [{r: value for r, terms in enumerate(rows)
             if (value := sum(c * b.flat[k] for k, c in terms)) > 0} for b in pres.basis]


def test_search_builds_for_every_rank():
    for n in range(1, 7):
        assert cone._search(search_presentation(n))((0,) * triangle_size(n)) == ()


def test_search_source_is_inspectable():
    search = cone._search(presentation(4))
    source = search_source(presentation(4))
    assert re.fullmatch(r"<hivealg decompose n=4 basis [0-9a-f]{8}>", search.__code__.co_filename)
    assert inspect.getsource(search).startswith("def search(a):\n    if a[0]:\n        return None\n")
    # rhombus family 2 at (i, j) = (2, 1): h[2][1] + h[2][2] >= h[3][2] + h[1][1]
    assert "    s12 = a[1] + a[2] - a[4] - a[0]\n" in source
    # h_1 raises five rows by one; the first four are read again later
    assert ("    top = s4\n    t = s8\n    if t < top: top = t\n"
            "    t = s18\n    if t < top: top = t\n    t = s19\n    if t < top: top = t\n"
            "    t = s21\n    if t < top: top = t\n"
            "    for c0 in range(top, -1, -1):\n"
            "        s4_0 = s4 - c0\n") in source
    assert (" return (1,) * c0 + (2,) * c1 + (3,) * c2 + (4,) * c3 + found\n"
            "\ndef _levels4(") in source


@pytest.mark.parametrize("n", range(1, 7))
def test_search_source_lists_every_row_in_order(n):
    # read each slack line back into {flat index: coeff}, independently of _linear
    lines = re.findall(r"^    s\d+ = (.*)$", search_source(search_presentation(n)), re.M)
    read = [{int(k): (-1 if sign == "-" else 1)
             for sign, k in re.findall(r"(-?)\s*a\[(\d+)\]", line)} for line in lines]
    assert read == [dict(terms) for *_, terms in cone_rows(n)]


def test_search_rejects_coefficients_other_than_one(monkeypatch):
    original = cone_rows(4)
    kind, i, j, terms = original[-1]
    bad = original[:-1] + ((kind, i, j, ((terms[0][0], 2),) + terms[1:]),)
    monkeypatch.setattr(cone, "cone_rows", lambda n: bad)
    with pytest.raises(ValueError, match="coefficient other than"):
        cone._search.__wrapped__(presentation(4))


@pytest.mark.parametrize("n", range(1, 7))
def test_search_zero_and_shifted_arrays(n):
    size = triangle_size(n)
    search = cone._search(search_presentation(n))
    assert search([0] * size) == ()   # every row holds with equality
    # each row's coefficients sum to 0, so a constant shift fails the apex only
    assert [v.kind for v in hive_violations(rows_of([1] * size, n))] == ["apex"]
    assert search([1] * size) is None and search([-1] * size) is None


@pytest.mark.parametrize("n", range(1, 5))
def test_search_rejects_each_row_failing_alone(n):
    """Single-entry moves of hives of degree <= 6 that fail exactly one cone
    row; they reach every row that the other rows do not imply."""
    search = cone._search(search_presentation(n))
    failing_alone = set()
    for h in hives_up_to_degree(n, 6):
        flat = list(h.to_flat())
        for k in range(1, len(flat)):
            for step in (-1, 1):
                moved = flat[:k] + [flat[k] + step] + flat[k + 1:]
                found = hive_violations(rows_of(moved, n))
                if len(found) == 1:
                    assert search(moved) is None
                    failing_alone.add((found[0].kind, found[0].i, found[0].j))
    # the rhombus rows make every edge decrease and give
    # lambda_n >= mu_n + nu_n, so only the edge rows of part n are needed
    needed = {(kind, i, j) for kind, i, j, _ in cone_rows(n)
              if kind.startswith("rhombus") or (kind in ("mu", "nu") and i == n)}
    assert failing_alone == needed


@st.composite
def membership_cases(draw):
    """(n, flat): random small entries, or a hive of degree <= 4 with up to
    three entries moved by +-1, for n = 1..6."""
    n = draw(st.integers(1, 6))
    size = triangle_size(n)
    if draw(st.booleans()):
        return n, draw(st.lists(st.integers(-2, 4), min_size=size, max_size=size))
    flat = list(draw(st.sampled_from(hive_pool(n, 4 if n <= 4 else 3))).to_flat())
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, size - 1))] += draw(st.sampled_from((-1, 1)))
    return n, draw(st.sampled_from((list, tuple)))(flat)


@settings(max_examples=500)
@given(membership_cases())
def test_search_agrees_with_interpreted_rows(case):
    # on any array, hive or not, the first match of the interpreted search
    n, flat = case
    pres = search_presentation(n)
    found = cone._search(pres)(flat)
    assert ({found} - {None}) == interpreted_decompositions(Hive(n, tuple(flat)), pres, True)
    if n <= 4:   # a complete basis: every hive decomposes
        assert (found is not None) == interpreted_in_cone(flat, n)


def search_levels(source):
    """Read the generated search: {level k: {cone row: divisor}} from the
    bound lines before `for c<k>`, and the levels of each function in turn."""
    levels, functions, bounds = {}, [], {}
    for line in source.splitlines():
        if line.startswith("def "):
            functions.append([])
        elif match := re.fullmatch(r"\s*(?:top|t) = s(\d+)(?:_\d+)?(?: // (\d+))?", line):
            bounds[int(match[1])] = int(match[2] or 1)
        elif match := re.fullmatch(r"\s*for c(\d+) in range\(top, -1, -1\):", line):
            levels[int(match[1])], bounds = bounds, {}
            functions[-1].append(int(match[1]))
    return levels, functions


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_bounds_each_level_by_the_rows_its_element_raises(n):
    pres = presentation(n)
    levels, functions = search_levels(search_source(pres))
    assert levels == dict(enumerate(raised_rows(pres)))
    # basis order, one function per cone._CHUNK levels
    size = len(pres.basis)
    assert functions == [list(range(p, min(p + cone._CHUNK, size)))
                         for p in range(0, size, cone._CHUNK)]


def test_building_the_rank4_search_stays_small():
    # the 20-level nest compiled in one piece peaks at about 2.2 MB, enough
    # to push the decompose benchmark's peak RSS past its bound
    presentation(4)
    tracemalloc.start()
    try:
        cone._search.__wrapped__(presentation(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
