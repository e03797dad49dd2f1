"""The generated code: the hive kernel (counting._kernel) and the
decomposition search (cone._search).  Both build and their source is
inspectable; the kernels of ranks up to 6 load from the shipped modules,
each the generator's text, and later ones compile, the lambda-fixed kernel
sources of ranks 7 to 12 pinned by digest; the lambda-fixed kernel runs in
two stages, entry(mu, nu) binding each bound over mu/nu cells alone and
search(lam) reading it, every plan row read once, and admits its own
triple, refusing one that is not three partitions of balanced size; a
coefficient never depends on the calls before it, which may leave a stage;
the kernel nests one loop per interior entry, split across functions only at
CPython's block limit; its plan holds the cone rows plus cancelled pairs of
them, all of which every hive satisfies, less each bound that another always
meets through rows already held, which changes no search node, and its
bottom-row-up fill order
prunes, as does the pairs plan's order, by diagonals from the mu/nu corner,
whose every entry is bounded both ways by rows over entries placed before
it; enumeration comes out in lexicographic order whatever the search order;
counts agree with enumeration and with the tableau route, also at ranks
whose nest passes that limit, with the symmetries and saturation of LR
coefficients, and at every rank that holds lambda, and stretch
polynomially, out to 100 times, agreeing with the tableau and Schur routes
up to 4 times.  The search is one straight-line function, greedy, built
for the pinned presentations only: it bounds each basis element by a
witness row for every facet, exact where the facet needs it, and catches
the drop of any bound or update on the witness hives, as
tools/scan_search.py reports.  It tests membership on the rows that imply
the rest, ends with a degree check, and agrees with the interpreted search
and with a row-by-row reading of cone_rows on any array."""

import hashlib
import inspect
import linecache
import re
import runpy
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import product, takewhile
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hivealg import cone, counting
from hivealg.cone import ConePresentation, decompose, hives_up_to_degree, presentation
from hivealg.counting import (_kernel, enumerate_hives, lr_coefficient, lr_via_schur,
                              lr_via_tableaux)
from hivealg.hive import Hive, cone_rows, flat_index, hive_violations, triangle_size
from hivealg.report import ConsistencyError
from hivealg.shapes import contains, is_dominant, normalize, pad, partitions_of
from search_witnesses import witness_hives
from test_counting import swept_triples
from test_hive_properties import hive_pool, interpreted_decompositions
from test_tensor_algebra import _initial_pairs


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


# ranks 1 to 6: the modules tools/regen_kernels.py writes, each file the
# generator's text
SHIPPED = Path(counting.__file__).with_name("_kernels")
SHIPPED_KINDS = {"count": (True, False), "enumerate": (False, False),
                 "pairs_count": (True, True), "pairs_enumerate": (False, True)}


def test_kernel_source_is_inspectable():
    kernel = _kernel(4, True)
    source = kernel_source(4, True)
    assert Path(kernel.__code__.co_filename) == SHIPPED / "kernel_n4_count.py"
    assert inspect.getsource(kernel).startswith("def entry(mu, nu):\n")
    # the first stage binds the bounds over mu/nu cells alone; search takes
    # them, and the mu/nu cells, as defaults
    assert ("    b0 = a11 + a3 + a13 - a6 - a12\n"
            "    b1 = a6 + a13 - a11\n"
            "    b2 = a12 + a6 - a10\n"
            "    b3 = a1 + a12 - a3\n") in source
    assert inspect.getsource(kernel(pad((2, 1), 4), pad((2, 1), 4))).startswith(
        "    def search(lam, a1=a1, a3=a3, a6=a6, a10=a10, a11=a11, a12=a12, a13=a13, a14=a14, "
        "b0=b0, ")
    # bounds of the first interior entry, h[4][3] = a8: its three rhombus
    # rows, then the sums that cancel a7 and a4, those over mu/nu cells
    # alone read from the first stage; then its loop
    assert ("        total = 0\n"
            "        lo = a13 + a5 - a9\n"
            "        t = a12 + a9 - a13\n"
            "        if t > lo: lo = t\n"
            "        t = b0\n"
            "        if t > lo: lo = t\n"
            "        t = b1\n"
            "        if t > lo: lo = t\n"
            "        t = b3\n"
            "        if t > lo: lo = t\n"
            "        t = a1 + a9 - a2\n"
            "        if t > lo: lo = t\n"
            "        t = a3 + a2 + a9 - a1 - a5\n"
            "        if t > lo: lo = t\n"
            "        t = a5 + a6 - a3\n"
            "        if t > lo: lo = t\n"
            "        hi = a13 + a9 - a14\n"
            "        t = b2\n"
            "        if t < hi: hi = t\n"
            "        t = a5 + a1\n"
            "        if t < hi: hi = t\n"
            "        for a8 in range(lo, hi + 1):\n") in source
    assert "max(" not in source and "min(" not in source


def test_shipped_kernels_are_the_generated_sources():
    regen = "regenerate them: python3 tools/regen_kernels.py"
    expected = {}
    for n in range(1, 7):
        for kind, (count, pairs) in SHIPPED_KINDS.items():
            expected[f"kernel_n{n}_{kind}.py"] = counting._kernel_source(n, count, pairs)
    files = {path.name: path.read_text() for path in SHIPPED.glob("*.py")}
    init = files.pop("__init__.py", None)
    assert sorted(files) == sorted(expected), f"missing or extra modules; {regen}"
    assert [name for name in expected if files[name] != expected[name]] == [], \
        f"these differ from the generator's text; {regen}"
    script = runpy.run_path(str(SHIPPED.parents[2] / "tools" / "regen_kernels.py"))
    assert script["shipped"]() == {"__init__.py": init, **expected}


@pytest.mark.parametrize("n", range(1, 8))
def test_kernels_load_shipped_up_to_rank_6_and_compile_past_it(n):
    for kind, (count, pairs) in SHIPPED_KINDS.items():
        code = _kernel(n, count, pairs).__code__
        name = counting._kernel_name(n, count, pairs)
        if n <= 6:
            assert Path(code.co_filename) == SHIPPED / f"kernel_n{n}_{kind}.py"
        else:
            assert code.co_filename == f"<hivealg {name}>"
            assert "".join(linecache.getlines(code.co_filename)) == \
                counting._kernel_source(n, count, pairs)


# sha256 of _kernel_source(n, count) with lambda fixed, for the ranks past
# the shipped modules, which compile from it
LATE_KERNEL_DIGESTS = {
    (7, True): "26ab4e81761678980f5249e7395fb060f5653b0dff92aae99ce78eb00dc2aecd",
    (7, False): "ddc02a4daf27423870c0af45bc4466022a60313a000b216c67191e5e5ae9a467",
    (8, True): "c17ad5ea3ae5da5d11bf617728d5fb871623627220915f159c4b6669458e04c0",
    (8, False): "a6b475c20baa3be6f95dd22804392828aa68b3438988c3abaeb9d0d278046772",
    (9, True): "e366fd9bae58116d89625afe8897dad49ad164e0752f6dfaa473d8c6c1bf34de",
    (9, False): "c5d8440826575f114cb21f228be91beb087bc9aebb97a0c465e78375119bb70e",
    (10, True): "b73b3e04794eef10b2f2e22e96f9eb86c36e3f31edcc4efadcc46cb4b6f16cc9",
    (10, False): "6fee9545f52ce3cd7344fa3bac3008114a951c3ed56be90d2f6ed523f91b8640",
    (11, True): "4862103633d0cb2e2e961968558912944de97eddaa20913c140126c396d926f1",
    (11, False): "3a5a6e0330773b40ad1515a07cbc2ee160c98ea5820e6e9adb09217e6fa6bf94",
    (12, True): "a51b9ffab2a398d4293dc36e6eaac9e94aab3c236fce476b4badad07d49ae5f2",
    (12, False): "c219c30bf44d2d7f42881b50cc9e86ea3419455f211371c8488d4e0d34e7791c",
}


@pytest.mark.parametrize("n, count", sorted(LATE_KERNEL_DIGESTS))
def test_late_kernel_sources_are_pinned(n, count):
    source = counting._kernel_source(n, count)
    assert hashlib.sha256(source.encode()).hexdigest() == LATE_KERNEL_DIGESTS[n, count]


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


def admission_lines(n, count):
    """The lines that open the two lambda-fixed stages: entry's, mu and nu
    each weakly decreasing down to >= 0, a refused one returning None; then
    search's, lam so too with |lam| the corner cell, |mu| + |nu|, a refused
    lam returning -1, or nothing when enumerating."""
    def chain(p):
        return " >= ".join([f"{p}[{i}]" for i in range(n)] + ["0"])

    size = " + ".join(f"lam[{i}]" for i in range(n)) + f" == a{flat_index(n + 1, n + 1)}"
    return ([f"    if not ({chain('mu')}", f"            and {chain('nu')}):", "        return None"],
            [f"        if not ({chain('lam')}", f"                and {size}):",
             "            return -1" if count else "            return"])


def fixed_lambda(n, count, lam, mu, nu):
    """Both stages of the rank-n lambda-fixed kernel on padded parts: the
    count, or the list of flat coordinates; -1 or [] where the first stage
    refuses mu or nu."""
    search = _kernel(n, count)(mu, nu)
    if search is None:
        return -1 if count else []
    return search(lam) if count else list(search(lam))


# Both plans: fixing lambda for n = 1..6, and at ranks 23 and 24, whose
# entry at fill place _BLOCK_LIMIT (the first of _rest20) has bounds over
# mu/nu cells alone; and freeing it (the pairs kernel, ids "pairs<n>") for
# n = 1..12, whose nest passes the block limit from rank 7 enumerating and
# rank 8 counting.
FIXED = [*range(1, 7), 23, 24]
PLANS = dict(argnames="n, pairs", argvalues=[(n, False) for n in FIXED]
             + [(n, True) for n in range(1, 13)],
             ids=[str(n) for n in FIXED] + [f"pairs{n}" for n in range(1, 13)])


@pytest.mark.parametrize("count", [True, False])
@pytest.mark.parametrize(**PLANS)
def test_kernel_source_bounds_every_plan_row_and_sets_every_edge(n, pairs, count):
    _row_bounds, interior, boundary_only, attached = counting._fill_plan(n, pairs)
    functions = kernel_functions(n, count, pairs)
    entry = functions["entry"]
    # lambda fixed, entry is the first stage and search(lam) the second:
    # each b<i> the first stage binds is a bound of two or more terms over
    # mu/nu cells alone, none bound twice
    staged = set(edge_cells(n, True))
    at = next((i for i, line in enumerate(entry) if line.startswith("    def search(lam")), 1)
    constants = dict(m.groups() for m in map(re.compile(r"    (b\d+) = (.*)").fullmatch, entry[:at])
                     if m)
    assert len(set(constants.values())) == len(constants)
    for bound in constants.values():
        assert len(read_linear(bound)) > 1 and set(read_linear(bound)) <= staged, bound
    # each entry's bounds are the lo and hi lines before its loop, or, for
    # the last entry counted, before the line adding its interval length; a
    # b<i> reads its bound from the first stage, which leaves none over
    # mu/nu cells alone to search, and past a split reads none
    lines = [(name, line.strip()) for name, body in functions.items()
             for line in (body[at:] if name == "entry" else body)]
    bounded, read, used = [], {"lo": [], "hi": []}, set()
    for (name, line), (_, after) in zip(lines, lines[1:] + [("", "")]):
        first = re.fullmatch(r"(lo|hi) = (.*)", line)
        update = re.fullmatch(r"if t (<|>) (lo|hi): \2 = t", after)
        loop = LOOP.fullmatch(line)
        if line.startswith("t = ") and update:
            assert update[1] == {"lo": ">", "hi": "<"}[update[2]]
            first = (None, update[2], line.removeprefix("t = "))
        if first:
            used.update({first[2]} & constants.keys())
            terms = read_linear(constants.get(first[2], first[2]))
            assert (first[2] in constants) == (name == "entry" and not pairs and len(terms) > 1
                                               and set(terms) <= staged), (name, line)
            read[first[1]].append(terms)
        elif loop or line == LAST_COUNT:
            bounded.append((int(loop[2]) if loop else interior[-1], read))
            read = {"lo": [], "hi": []}
    assert sorted(used) == sorted(constants)
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
    assert [line for _, line in lines].count(LAST_COUNT) == (1 if count and interior else 0)

    # entry starts with the admission of mu and nu (lambda fixed), then the
    # mu and nu edge sums; search with that of lam, then the lam edge sums
    # and the rows on the boundary alone; with pairs, entry sets both edges
    # and checks those rows.
    # Part entries are weighted so that each partial sum reads back as the
    # set of entries it adds up; every boundary cell but the apex is set
    # once, to its value in boundary_flat
    assert entry[0] == "entry(mu, nu):"
    indent = "    " if pairs else "        "
    if pairs:
        stage, search = [], entry[1:]
    else:
        opening, closing = admission_lines(n, count)
        stage, search = entry[1:at], entry[at + 1:]
        assert stage[:3] == opening and search[:3] == closing
        stage, search = stage[3:], search[3:-1]
        assert entry[-1] == "    return search"
    head = list(takewhile(lambda line: re.fullmatch(rf"{indent}(a\d+ = .*|if .*|    return.*)", line),
                          search))
    parts = {p: [1 << (n * s + i) for i in range(n)] for s, p in enumerate(("lam", "mu", "nu"))}
    sums = dict(m.groups() for m in map(re.compile(rf"(?:    |{indent})a(\d+) = (.*)").fullmatch,
                                        stage + head) if m)
    assert len(sums) == len([line for line in stage + head if re.match(r" *a\d+ = ", line)])
    assert all(re.match(r"    [ab]\d+ = ", line) for line in stage)
    assert {int(k) for k in re.findall(r"    a(\d+) = ", "\n".join(stage))} == (
        set() if pairs else staged)

    def value(expr):
        total = 0
        for term in expr.split(" + "):
            entry_of = re.fullmatch(r"(lam|mu|nu)\[(\d+)\]", term)
            total += (parts[entry_of[1]][int(entry_of[2])] if entry_of
                      else value(sums[term.removeprefix("a")]))
        return total

    flat = boundary_flat(n, *parts.values())
    assert ({int(k): value(expr) for k, expr in sums.items()}
            == {k: flat[k] for k in edge_cells(n, pairs)})
    # search takes the stage's cells and constants as its defaults, each
    # under its own name
    if not pairs:
        defaults = re.fullmatch(r"    def search\(lam, (.*)\):", entry[at])[1].split(", ")
        assert defaults == [f"{v}={v}" for v in [*(f"a{k}" for k in sorted(staged)), *constants]]
    checks = [line for line in head if line.startswith(f"{indent}if ")]
    assert all(line.endswith(" < 0:") for line in checks)
    assert [read_linear(line) for line in checks] == [{k: c for k, c in terms if k}
                                                       for terms in boundary_only]
    assert [line for line in head if line.startswith(f"{indent}    ")] == (
        [f"{indent}    return 0" if count else f"{indent}    return"] * len(checks))
    # then the search: counting returns the total, enumerating yields the
    # flat coordinates from the innermost loop
    if count:
        assert search[-1] == f"{indent}return total"
        assert interior or search[-2] == f"{indent}total += 1"
    else:
        cells = ", ".join(f"a{k}" for k in range(1, triangle_size(n)))
        assert [line for _, line in lines if line.startswith("yield (")] == [f"yield (0, {cells})"]


@pytest.mark.parametrize("count", [True, False])
@pytest.mark.parametrize("n", range(1, 13))
def test_kernel_nests_one_loop_per_entry_split_only_at_the_block_limit(n, count):
    """Each function's loops nest one inside the last, at most
    counting._BLOCK_LIMIT deep, entry's in search(lam), which it defines and
    returns; a full one ends by passing the locals placed so far, in flat
    order, to _rest<p>, which goes on with fill place p."""
    _row_bounds, interior, _boundary_only, _attached = counting._fill_plan(n)
    loops = len(interior) - (1 if count and interior else 0)
    functions = kernel_functions(n, count)
    limit = counting._BLOCK_LIMIT
    assert list(functions) == ["entry"] + [f"_rest{p}" for p in range(limit, loops, limit)]
    assert n > 7 or len(functions) == 1
    place = 0
    for name, body in functions.items():
        indent = 8 if name == "entry" else 4
        if name != "entry":
            args = ", ".join(f"a{k}" for k in sorted(edge_cells(n) + list(interior[:place])))
            assert body[0] == f"{name}({args}):"
            call = ("total += " if count else "yield from ") + f"{name}({args})"
            assert previous[-2 if count else -1] == " " * (4 * limit + previous_indent) + call
        else:
            assert body[-1] == "    return search"
            body = body[:-1]
        depths = [(len(m[1]), int(m[2])) for m in map(LOOP.fullmatch, body) if m]
        assert [pos for _, pos in depths] == list(interior[:loops][place:place + limit])
        assert [depth for depth, _ in depths] == [indent + 4 * d for d in range(len(depths))]
        place, previous, previous_indent = place + len(depths), body, indent
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
# twice.  At ranks 23 and 24 the first entry of _rest20 has bounds over
# mu/nu cells alone, which it reads inline, not from the first stage.
@pytest.mark.parametrize("n, lam, mu, nu, expected", [
    (8, (6, 4, 3, 2, 2, 1, 1), (4, 3, 2, 1), (3, 2, 2, 1, 1), 10),
    (8, (4, 3, 2, 2, 1, 1, 1, 1), (3, 2, 1, 1), (2, 2, 1, 1, 1, 1), 4),
    (9, (5, 3, 3, 2, 2, 1, 1), (3, 2, 2, 1, 1), (3, 2, 1, 1, 1), 6),
    (9, (4, 3, 3, 2, 2, 1, 1, 1, 1), (3, 2, 1, 1, 1), (2, 2, 2, 1, 1, 1, 1), 4),
    (10, (5, 3, 3, 2, 2, 1, 1, 1, 1), (3, 2, 2, 1, 1, 1), (3, 2, 1, 1, 1, 1), 6),
    (11, (5, 3, 3, 2, 2, 2, 1, 1, 1, 1), (3, 2, 2, 1, 1, 1, 1), (3, 2, 1, 1, 1, 1, 1), 6),
    (23, (1,) * 23, (1,) * 22, (1,), 1),
    (24, (2,) + (1,) * 22, (1,) * 23, (1,), 1),
])
def test_deep_ranks_agree_with_tableaux(n, lam, mu, nu, expected):
    assert lr_via_tableaux(n, lam, mu, nu) == expected
    assert lr_coefficient(n, lam, mu, nu) == expected
    assert len(enumerate_hives(n, lam, mu, nu)) == expected
    padded = [pad(p, n) for p in (lam, mu, nu)]
    assert sorted(fixed_lambda(n, False, *padded)) == list(row_major_hives(n, *padded))


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
                    f for lam in lams for f in fixed_lambda(n, False, lam, mu, nu))


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


@pytest.mark.parametrize("route", [lr_coefficient, enumerate_hives], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n, lam, mu, nu, message", [
    (6, (2, 1), (1, 0, 2), (), "mu = (1, 0, 2) is not a partition"),
    (6, (2, 1), (1, 0, 2, 0), (), "mu = (1, 0, 2) is not a partition"),
    (6, (1, 2), (1, 1, 1), (), "lambda = (1, 2) is not a partition"),
    (2, (2, 1), (1,), (1, 0, -1), "nu = (1, 0, -1) is not a partition"),
    (6, (2, 1), (2, 1), (0, -1), "nu = (0, -1) is not a partition"),
])
def test_least_rank_keeps_the_partition_messages(n, lam, mu, nu, message, route):
    with pytest.raises(ValueError) as err:
        route(n, lam, mu, nu)
    assert str(err.value) == message


def refused_triples(n):
    """Padded rank-n triples that the admission refuses: a rising part (from
    rank 2, in each of the three), a negative last part (in mu, and in nu),
    and |lam| != |mu| + |nu| with every part a partition.  Without the
    admission, the kernel finds a hive for each of the last three."""
    zeros, one = (0,) * n, pad((1,), n)
    rising = [] if n < 2 else [(zeros[1:] + (1,), one, zeros), (pad((3,), n), pad((1, 2), n), zeros),
                               (pad((3,), n), zeros, zeros[1:] + (3,))]
    negative = zeros[1:] + (-1,)
    return rising + [(one, negative, pad((2,), n)), (one, pad((2,), n), negative),
                     ((1,) * n, (1,) * (n - 1) + (0,), zeros)]


@pytest.mark.parametrize("n", range(1, 9))
def test_lambda_fixed_kernels_refuse_what_the_admission_refuses(n):
    # called directly, with no wrapper's check in front: the first stage
    # refuses mu or nu, search(lam) the rest
    for lam, mu, nu in refused_triples(n):
        stage = is_dominant(mu) and is_dominant(nu)
        for count in (True, False):
            search = _kernel(n, count)(mu, nu)
            assert (search is not None) == stage, (lam, mu, nu)
        assert fixed_lambda(n, True, lam, mu, nu) == -1, (lam, mu, nu)
        assert fixed_lambda(n, False, lam, mu, nu) == [], (lam, mu, nu)
    # and the same parts, admitted, still count
    assert fixed_lambda(n, True, pad((2,), n), pad((1,), n), pad((1,), n)) == 1


def test_lr_coefficient_checks_the_partitions_only_of_a_refused_triple(monkeypatch):
    checked = []
    monkeypatch.setattr(counting, "require_partitions", lambda *parts: checked.append(parts))
    assert lr_coefficient(4, (3, 1), (2, 2), ()) == 0  # admitted; mu is not under lam
    assert lr_coefficient(4, (2, 1), (1,), (1, 1)) == 1
    assert checked == []
    assert lr_coefficient(4, (3, 1), (2, 1), ()) == 0  # refused: 4 != 3
    assert checked == [((3, 1), (2, 1), ())]


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


def dressed(parts, kind):
    """parts as a tuple or list of ints, a tuple of floats, or a tuple with
    each 0 or 1 a bool: equal parts of other types."""
    return {"tuple": tuple, "list": list,
            "float": lambda p: tuple(map(float, p)),
            "bool": lambda p: tuple(bool(v) if v <= 1 else v for v in p)}[kind](parts)


KINDS = st.sampled_from(["tuple", "list", "float", "bool"])


@st.composite
def call_sequences(draw):
    """Calls of lr_coefficient that sweep lambda over a few (mu, nu) pairs
    at ranks 1 to 6, interleaved: the pool holds each pair in one or more
    dressings, so the same objects recur and equal ones of other types
    follow them; a pair may be swapped, and lambda is any partition of the
    size, so its length, the rank counted at, varies within a sweep."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 6))
        mu, nu = (draw(st.sampled_from(partitions_of(draw(st.integers(0, 4)), n)))
                  for _ in range(2))
        pool += [(n, dressed(mu, kind), dressed(nu, kind))
                 for kind in draw(st.lists(KINDS, min_size=1, max_size=3))]
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        n, mu, nu = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            mu, nu = nu, mu
        lam = draw(st.sampled_from(partitions_of(int(sum(mu) + sum(nu)), n)))
        calls.append((n, dressed(lam, draw(KINDS)), mu, nu))
    return calls


def outcome(call):
    """What lr_coefficient gives for call: the result and its type, or the
    error's type and message."""
    try:
        c = lr_coefficient(*call)
    except Exception as err:
        return type(err), str(err)
    return type(c), c


@settings(max_examples=200)
@given(call_sequences())
@example([(4, (3, 2, 1), (2, 1), (2, 1)), (4, (3, 2, 1), (2.0, 1.0), (2, 1))])
def test_a_coefficient_never_depends_on_earlier_calls(calls):
    # lr_coefficient keeps each rank's last first stage; every call must
    # give what it gives with nothing kept (2.0, not 2, in the example: an
    # equal mu of ints came just before)
    counting._count_entry.cache_clear()
    kept = [outcome(call) for call in calls]
    fresh = []
    for call in calls:
        counting._count_entry.cache_clear()
        fresh.append(outcome(call))
    assert kept == fresh


def test_a_call_made_while_a_stage_is_built_leaves_no_mismatched_slot(monkeypatch):
    # a second call at the same rank runs while the first call's stage is
    # built, as another thread might: neither may leave the rank's slot
    # pairing one call's mu and nu with the other's stage
    lam, (mu, nu), (mu2, nu2) = (3, 2, 1), ((2, 1), (2, 1)), ((3, 1), (1, 1))
    kernel, inner = counting._kernel, []

    def interrupted(*args):
        entry = kernel(*args)

        def stage(*parts):
            if not inner:
                inner.append(None)
                inner[0] = lr_coefficient(3, lam, mu2, nu2)
            return entry(*parts)
        return stage

    monkeypatch.setattr(counting, "_kernel", interrupted)
    counting._count_entry.cache_clear()
    want = lr_via_tableaux(3, lam, mu, nu), lr_via_tableaux(3, lam, mu2, nu2)
    assert want == (2, 1)
    assert lr_coefficient(3, lam, mu, nu) == want[0]
    assert inner == [want[1]]
    assert (lr_coefficient(3, lam, mu2, nu2), lr_coefficient(3, lam, mu, nu)) == want[::-1]
    counting._count_entry.cache_clear()


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
    # the polynomial are positive; that is not checked here.  The Lagrange
    # polynomial through N = 1..b + 1, in Newton's form sum_k C(N - 1, k) *
    # (difference k at N = 1), exact in integers, must also give c at
    # N = 100, whose intervals are far longer than those up to N = b + 2: a
    # count wrong only on intervals longer than 13, or than 60, fails here.
    for _, lam, mu, nu in multiple_triples(n):
        def stretched(N):
            return lr_coefficient(n, *(tuple(N * v for v in p) for p in (lam, mu, nu)))

        length = len(normalize(lam))
        b = (length - 1) * (length - 2) // 2
        values, heads = [stretched(N) for N in range(1, b + 3)], []
        for _ in range(b + 1):
            heads.append(values[0])
            values = [y - x for x, y in zip(values, values[1:])]
        assert values == [0], (lam, mu, nu)
        assert sum(comb(99, k) * d for k, d in enumerate(heads)) == stretched(100), (lam, mu, nu)


@pytest.mark.parametrize("n", range(3, 7))
def test_three_routes_agree_on_stretched_triples(n):
    # every triple with c >= 2 of degree <= 10, its parts times N = 2..4, so
    # |lambda| up to 40; ranks 5 and 6 take every third triple, to keep the
    # Schur route's skew Kostka chains (about 1 s over all of them) short
    for _, lam, mu, nu in multiple_triples(n)[::1 if n < 5 else 3]:
        for N in range(2, 5):
            triple = [tuple(N * v for v in p) for p in (lam, mu, nu)]
            c = lr_coefficient(n, *triple)
            assert c == lr_via_tableaux(n, *triple) == lr_via_schur(n, *triple), (N, triple)


# ---------------------------------------------------------------------------
# The fill plan: cone rows plus one round of cancelled pairs, less the
# dominated bounds

def plan_rows(n, pairs=False):
    """Every row of _fill_plan(n, pairs) as (the free entry it is attached
    to, or None on the boundary alone, {flat index: coeff})."""
    _row_bounds, interior, boundary_only, attached = counting._fill_plan(n, pairs)
    rows = [(None, dict(terms)) for terms in boundary_only]
    rows += [(pos, {pos: coeff, **dict(rest)})
             for pos, rows_k in zip(interior, attached) for coeff, rest in rows_k]
    return rows


def minus(row, other):
    """row - other as {flat index: coeff}, zero terms and the apex (always 0)
    left out."""
    total = Counter(row)
    total.subtract(other)
    return {k: c for k, c in total.items() if c and k}


@pytest.mark.parametrize("n, pairs", [(n, False) for n in range(1, 9)]
                         + [(n, True) for n in range(1, 9)],
                         ids=[str(n) for n in range(1, 9)] + [f"pairs{n}" for n in range(1, 9)])
def test_added_rows_are_cancelled_pairs(n, pairs):
    # the cone rows but those of the fixed edges, whose parts are dominant
    order = {k: place for place, k in enumerate(counting._fill_plan(n, pairs)[1])}
    edge = [dict(terms) for *_, terms in cone_rows(n)[:(2 if pairs else 3) * n]]
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
    keys = {frozenset(row.items()) for _, row in rows}
    cone_keys = {frozenset(row.items()) for row in cone}
    assert len(keys) == len(rows)
    for pos, row in rows:
        assert pos == last(row)
    # every sum of a lower and an upper row of one entry x that keeps its
    # coefficients +-1 and mentions a free entry placed before x
    added = {frozenset(p.items()) for p in sums
             if set(p.values()) <= {1, -1} and last(p) is not None}
    assert keys <= cone_keys | added
    assert n < 4 or len(rows) > len(cone)
    # the rest were dropped: each row on x that another kept row on x meets,
    # as they differ by a row that holds at x's node or by a sum of two; the
    # rows that hold there are on the fixed edges alone, on the boundary
    # alone, or on entries placed before x, dropped rows included.  The
    # lambda-fixed plan drops none
    full = [dict(key) for key in cone_keys | added]
    dropped = [row for row in full if frozenset(row.items()) not in keys]
    assert pairs or not dropped
    for row in dropped:
        x = last(row)
        held = [minus(h, {}) for h in edge + full if last(h) is None or order[last(h)] < order[x]]
        held_keys = {frozenset(h.items()) for h in held}
        assert any(pos == x and kept[x] == row[x]
                   and (frozenset((diff := minus(row, kept)).items()) in held_keys
                        or any(frozenset(minus(diff, h).items()) in held_keys for h in held))
                   for pos, kept in rows), row
    assert n < 4 or not pairs or dropped


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
# 5,595.  Exactly: dropping the dominated bounds leaves every interval as
# it was.
RANK6_PAIRS_NODES = 4_984


def test_pairs_plan_prunes():
    nodes = sum(plan_nodes(6, None, mu, nu) for d in range(9) for mu, nu in face_pairs(6, d))
    assert nodes == RANK6_PAIRS_NODES


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


def search_source(pres):
    """The whole generated search source, as linecache holds it."""
    return "".join(linecache.getlines(cone._search(pres.n).__code__.co_filename))


def raised_rows(pres):
    """Per basis element b, {cone row r: row(b)} over the rows with row(b) > 0."""
    rows = [terms for *_, terms in cone_rows(pres.n)]
    return [{r: value for r, terms in enumerate(rows)
             if (value := sum(c * b.flat[k] for k, c in terms)) > 0} for b in pres.basis]


def test_search_builds_for_every_rank():
    for n in range(2, 5):
        assert cone._search(n)((0,) * triangle_size(n)) == ()


def test_search_source_is_inspectable():
    search = cone._search(4)
    source = search_source(presentation(4))
    assert search.__code__.co_filename == "<hivealg decompose n=4>"
    assert inspect.getsource(search).startswith("def search(a):\n    if a[0]:\n        return None\n")
    # rhombus family 2 at (i, j) = (2, 1): h[2][1] + h[2][2] >= h[3][2] + h[1][1]
    assert "    s12 = a[1] + a[2] - a[4] - a[0]\n" in source
    # h_1 raises five rows by one; s18, s21 and s19 witness the facets, each
    # exact at a later level of a facet that holds 1, so each is updated;
    # s4 and s8 are read by nothing, so they get no slack line
    assert ("    p = ()\n    c0 = s18\n    if s21 < c0: c0 = s21\n    if s19 < c0: c0 = s19\n"
            "    if c0:\n        s18 -= c0\n        s19 -= c0\n        s21 -= c0\n"
            "        p += (1,) * c0\n    c1 = s20\n") in source
    assert "    s4 = " not in source and "    s8 = " not in source
    # the picks gathered as they are taken, returned once their degrees add up
    assert source.endswith(
        "    if a[14] != c0 + 2 * c1 + 3 * c2 + 4 * c3 + c4 + 2 * c5 + 3 * c6 + 4 * c7"
        " + 2 * c8 + 3 * c9 + 4 * c10 + 3 * c11 + 4 * c12 + 4 * c13 + 4 * c14 + 5 * c15"
        " + 6 * c16 + 5 * c17 + 6 * c18 + 6 * c19:\n        return None\n    return p\n")
    assert source.count("    p += ") == 20 and source.count("return ") == 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_source_lists_every_row_in_order(n):
    # read each slack line back into {flat index: coeff}, independently of _linear
    source = search_source(presentation(n))
    lines = re.findall(r"^    s(\d+) = (.*)$", source, re.M)
    read = [{int(k): (-1 if sign == "-" else 1)
             for sign, k in re.findall(r"(-?)\s*a\[(\d+)\]", line)} for _, line in lines]
    written = [int(r) for r, _ in lines]
    rows = [terms for *_, terms in cone_rows(n)]
    assert written == sorted(set(written)) and read == [dict(rows[r]) for r in written]
    # the membership test reads the rhombus rows and the mu_n and nu_n edge
    # rows, which imply the rest; any other slack line is one a bound reads
    member = [r for r, (kind, i, _, _) in enumerate(cone_rows(n))
              if kind.startswith("rhombus") or (kind in ("mu", "nu") and i == n)]
    assert re.findall(r"^    if min\((.*)\) < 0:$", source, re.M) == [
        ", ".join(f"s{r}" for r in member)]
    bounds, _ = search_levels(source)
    assert set(written) == set(member).union(*bounds.values())


def test_search_rejects_coefficients_other_than_one(monkeypatch):
    original = cone_rows(4)
    kind, i, j, terms = original[-1]
    bad = original[:-1] + ((kind, i, j, ((terms[0][0], 2),) + terms[1:]),)
    monkeypatch.setattr(cone, "cone_rows", lambda n: bad)
    with pytest.raises(ValueError, match="coefficient other than"):
        cone._search.__wrapped__(4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_zero_and_shifted_arrays(n):
    size = triangle_size(n)
    search = cone._search(n)
    assert search([0] * size) == ()   # every row holds with equality
    # each row's coefficients sum to 0, so a constant shift fails the apex only
    assert [v.kind for v in hive_violations(rows_of([1] * size, n))] == ["apex"]
    assert search([1] * size) is None and search([-1] * size) is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_rejects_each_row_failing_alone(n):
    """Single-entry moves of hives of degree <= 6 that fail exactly one cone
    row; they reach every row that the other rows do not imply."""
    search = cone._search(n)
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
    three entries moved by +-1, for n = 2..4."""
    n = draw(st.integers(2, 4))
    size = triangle_size(n)
    if draw(st.booleans()):
        return n, draw(st.lists(st.integers(-2, 4), min_size=size, max_size=size))
    flat = list(draw(st.sampled_from(hive_pool(n, 4))).to_flat())
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, size - 1))] += draw(st.sampled_from((-1, 1)))
    return n, draw(st.sampled_from((list, tuple)))(flat)


@settings(max_examples=500)
@given(membership_cases())
def test_search_agrees_with_interpreted_rows(case):
    # on any array, hive or not, the first match of the interpreted search
    n, flat = case
    pres = presentation(n)
    found = cone._search(n)(flat)
    assert ({found} - {None}) == interpreted_decompositions(Hive(n, tuple(flat)), pres, True)
    assert (found is not None) == interpreted_in_cone(flat, n)


def search_levels(source):
    """Read the generated search: {level k: {cone row: divisor}} from its
    bound lines, and {level k: {cone row: divisor}} from its update lines."""
    bounds, updates = {}, {}
    for line in source.splitlines():
        if match := (re.fullmatch(r"    c(?P<k>\d+) = s(?P<r>\d+)(?: // (?P<v>\d+))?", line) or
                     re.fullmatch(r"    if (?P<b>s(?P<r>\d+)(?: // (?P<v>\d+))?) < c(?P<k>\d+):"
                                  r" c(?P=k) = (?P=b)", line)):
            bounds.setdefault(int(match["k"]), {})[int(match["r"])] = int(match["v"] or 1)
        elif match := re.fullmatch(r"        s(\d+) -= (?:(\d+) \* )?c(\d+)", line):
            updates.setdefault(int(match[3]), {})[int(match[1])] = int(match[2] or 1)
    return bounds, updates


def facets_of(pres):
    """The maximal sets of basis indices that hold no initial pair
    (test_tensor_algebra._initial_pairs), grown one index v at a time: a set
    that meets v's neighbours stays, and also gives them up to take v."""
    pairs = [(i, j) for i, j in _initial_pairs(pres) if i != j]
    near = {v: {u for pair in pairs if v in pair for u in pair} - {v}
            for v in range(1, len(pres.basis) + 1)}
    grown = {frozenset()}
    for v, joined in near.items():
        grown = ({s for s in grown if s & joined} | {s - joined | {v} for s in grown})
    return sorted((s for s in grown if all(s & near[u] for u in near.keys() - s)), key=sorted)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_keeps_an_exact_witness_for_every_facet(n):
    # a hive's lex-greatest vector lies in a facet F; at level k a witness of
    # F, raised by b_k and zero on b_i for each i in F past k, reads exactly
    # y_k, if its slack is taken down at each earlier level of F raising it
    pres = presentation(n)
    bounds, updates = search_levels(search_source(pres))
    raised, facets = raised_rows(pres), facets_of(pres)
    assert len(facets) == {2: 1, 3: 2, 4: 14}[n]
    assert sorted(bounds) == list(range(len(pres.basis)))
    for k, level in enumerate(raised):
        assert bounds[k] and bounds[k].items() <= level.items()
        assert updates.get(k, {}).items() <= level.items()
        for facet in facets:
            assert any(all(r not in raised[i - 1] for i in facet if i > k + 1) and
                       all(r in updates.get(i - 1, {}) for i in facet
                           if i <= k and r in raised[i - 1])
                       for r in bounds[k]), (k, sorted(facet))
    # bound and update lines, of the 19/62/190 and 10/44/160 rows the elements raise
    assert sum(map(len, bounds.values())) == {2: 5, 3: 11, 4: 30}[n]
    assert sum(map(len, updates.values())) == {2: 0, 3: 4, 4: 19}[n]


def test_witnessed_refuses_a_facet_that_no_row_witnesses():
    # without its relations the rank-4 basis is one facet, and no row that h_1
    # raises is 0 on all of h_2..h_20
    pres = presentation(4)
    with pytest.raises(ConsistencyError, match="no cone row witnesses a facet at level 1"):
        cone._witnessed(cone._facets(ConePresentation(4, pres.basis, ())), raised_rows(pres))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decompose_on_the_witness_hives(n):
    # dropping any one kept bound or update line of the pinned search
    # changes the output on one of these; pinned against the search before
    # the facets pruned it, which kept every bound the _Held rule kept
    pres = presentation(n)
    hives = witness_hives(pres, facets_of(pres))
    found = [decompose(h, pres) for h in hives]
    for h, picks in zip(hives, found):
        assert tuple(map(sum, zip(*(pres.basis[k - 1].flat for k in picks)))) == h.flat
    # the lex-greatest vector, as the interpreted search finds it first
    for h in hives[::{2: 1, 3: 1, 4: 50}[n]]:
        assert interpreted_decompositions(h, pres, True) == {decompose(h, pres)}
    assert (len(hives), hashlib.sha256(repr(found).encode()).hexdigest()[:16]) == {
        2: (71, "c659169a8e5073f9"), 3: (509, "c97a009cad7725ce"),
        4: (10042, "0d57a962d0662b71")}[n]


@pytest.mark.parametrize("n, dropped", [(2, 0), (3, 6), (4, 38)])
def test_scan_catches_every_dropped_search_line(n, dropped, capsys):
    # tools/scan_search.py drops each bound and update line in turn (a level's
    # only bound stays); a witness hive or a hive of degree <= 11 catches each
    scan = runpy.run_path(str(SHIPPED.parents[2] / "tools" / "scan_search.py"))["scan"]
    assert scan(n) == 0
    assert f"n = {n}: {dropped} of {dropped} dropped lines caught" in capsys.readouterr().out


def test_building_the_rank4_search_stays_small():
    # the pinned search, built from the facets' witnesses, peaks at about
    # 0.47 MB; with every bound and update it took about 2.2 MB, enough to
    # push the decompose benchmark's peak RSS past its bound
    presentation(4)
    tracemalloc.start()
    try:
        cone._search.__wrapped__(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 700_000
