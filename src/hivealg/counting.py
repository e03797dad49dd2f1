"""Littlewood-Richardson coefficients by three routes, graded dimension
counts m_d, and Hilbert-Poincare series (enumerated and closed form)."""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat

from .hive import Hive, _compile, _edge_cells, _linear, _require_unit, cone_rows, flat_index
from .shapes import Parts, _integer, normalize, pad, partitions_of, require_partitions
from .tableau import enumerate_tableaux

SeriesPrefix = tuple[int, ...]

# Numerator coefficients and denominator factor exponents of the closed-form
# series: the rank-n series is numerator(t) / prod (1 - t^e) over the listed
# exponents e.
SERIES_NUMERATOR: dict[int, tuple[int, ...]] = {
    2: (1,),
    3: (1, 0, 0, 0, 0, 0, -1),
    4: (1, -2, -2, 10, -2, -24, 22, 32, -54, -18, 80, -14, -72, 34, 44, -18,
        -25,
        -18, 44, 34, -72, -14, 80, -18, -54, 32, 22, -24, -2, 10, -2, -2, 1),
}
SERIES_DENOMINATOR: dict[int, tuple[int, ...]] = {
    2: (1, 1, 2, 2, 2),
    3: (1, 1, 2, 2, 2, 3, 3, 3, 3, 4),
    4: (1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 12, 12, 12, 12),
}


@lru_cache(maxsize=32)
def _fill_plan(n: int, pairs: bool = False):
    """Flat (start, stop) of each row; the free entries' flat indices in
    fill order.  With lambda fixed, the free entries are the interior, in
    the reverse of row-major order: rows n down to 3, each from its right
    end to its left, so the bottom row, next to the nu edge and the tail of
    lambda, whose intervals are tightest, is placed first.  With pairs, the
    lambda cells are free too, and all go by diagonals parallel to the
    lambda edge, from i - j = n - 2 at the mu/nu corner to i = j, each from
    row n up.  So h[i][j] has a lower bound from rhombus3 at (i, j) and an
    upper one from rhombus1 at (i, j-1), over cells of a fixed edge, of an
    earlier diagonal or below it on its own.  Each cone row is attached to
    the free entry it mentions that is placed last; rows on the boundary
    alone are kept apart.  The edge rows of the fixed edges come first in
    cone_rows and are left out: every dominant boundary satisfies them.

    Then one round of cancelled pairs: for each free entry x, the sum of
    each row bounding x from below with each row bounding it from above.  x
    cancels, and every hive satisfies the sum, so attaching it to the
    free entry it mentions that is placed last prunes partial fillings
    that no hive extends before their subtree is entered.  A sum is kept
    only when every coefficient stays +-1: the bounds are then plain sums of
    entries, with no rounding division.  Sums already in the plan, and sums
    on the boundary alone, are dropped.

    Then the dominated bounds go: on each free entry x, in fill order, a row
    goes when another kept row with the same coefficient on x differs from
    it by a held row or a sum of two, where the held rows, which hold at x's
    node, are the fixed edges' rows, the rows on the boundary alone and
    every row of an entry placed before x, those dropped too.  The other row
    then always meets its bound, so every interval, and the search's nodes,
    stay as they were.  The round runs on the pairs plan alone: with lambda
    fixed it drops no row at n = 2..12, yet it was most of that plan's
    build, and a row it would drop is only a pruned bound, never a count.

    Attached rows are split as (coeff on that entry, residual terms), so
    interval bounds fall out once everything earlier is placed."""
    row_bounds = tuple((flat_index(i, 1), flat_index(i + 1, 1)) for i in range(1, n + 2))
    interior = (tuple(flat_index(i, i - k) for k in range(n - 2, -1, -1)
                      for i in range(n, k + 1, -1)) if pairs else
                tuple(flat_index(i, j) for i in range(n, 2, -1) for j in range(i - 1, 1, -1)))
    boundary_only = []
    attached = {k: [] for k in interior}
    place = {k: p for p, k in enumerate(interior)}

    def attach(terms) -> bool:
        pivot = max((k for k, _ in terms if k in place), key=place.get, default=None)
        if pivot is not None:
            attached[pivot].append(terms)
        return pivot is not None

    fixed = (2 if pairs else 3) * n
    for *_, terms in cone_rows(n)[fixed:]:
        if not attach(terms):
            boundary_only.append(terms)

    def combined(row, other, sign=1):  # row + sign * other, zero terms left out
        total = dict(row)
        for k, c in other:
            total[k] = total.get(k, 0) + sign * c
        return tuple((k, c) for k, c in total.items() if c)

    # taken before any sum is attached: one round, of cone rows alone
    opposed = [(low, up) for x in interior
               for low in attached[x] if (x, 1) in low
               for up in attached[x] if (x, -1) in up]
    seen = {frozenset(terms) for rows in attached.values() for terms in rows}
    for low, up in opposed:
        terms = combined(low, up)
        if all(c in (1, -1) for _, c in terms) and frozenset(terms) not in seen:
            seen.add(frozenset(terms))
            attach(terms)

    def form(terms):  # as a set, the apex (always 0) left out
        return frozenset((k, c) for k, c in terms if k)

    def met(diff) -> bool:
        """diff is a held row or a sum of two, one of which has diff's
        greatest term (k, c), halved at c = +-2: held rows are +-1."""
        k, c = max(diff, default=(0, 0))
        return diff in held or any(form(combined(diff, h, -1)) in held
                                   for h in near.get((k, c // 2 if c in (2, -2) else c), ()))

    held, near = set(), {}  # near[k, c]: the held rows with the term c * a[k]

    def hold(rows):
        for row in map(form, rows):
            held.add(row)
            for term in row:
                near.setdefault(term, []).append(row)

    hold([terms for *_, terms in cone_rows(n)[:fixed]] + boundary_only)
    for x in interior if pairs else ():
        every = attached[x][:]
        for row in every:
            side = (x, dict(row)[x])
            if any(other != row and side in other and met(form(combined(row, other, -1)))
                   for other in attached[x]):
                attached[x].remove(row)
        hold(every)
    return (row_bounds, interior, tuple(boundary_only),
            tuple(tuple((dict(terms)[k], tuple((q, c) for q, c in terms if q != k))
                        for terms in attached[k]) for k in interior))


_BLOCK_LIMIT = 20  # CPython's CO_MAXBLOCKS: nested loops (blocks) per function


def _interval(name: str, bounds: list[str], cmp: str) -> list[str]:
    """Lines setting name to the tightest of bounds, each one after the
    first kept when it compares cmp against the bound so far."""
    lines = [f"{name} = {bounds[0]}"]
    for bound in bounds[1:]:
        lines += [f"t = {bound}", f"if t {cmp} {name}: {name} = t"]
    return lines


def _kernel_source(n: int, count: bool, pairs: bool = False) -> str:
    """entry(lam, mu, nu) on a padded triple, with entry k the local a<k>:
    the left, right and bottom edges as partial sums of mu, lam and nu (the
    bottom from |mu| sets the shared corner), then each row on the boundary
    alone, a failing one leaving no hive.  Then one nested loop per free
    entry in fill order (_fill_plan), over the max of its lower rows to the
    min of its upper rows, read from the entries placed before it.
    Counting, the last entry adds its interval length to the total;
    enumerating, the innermost loop yields the flat coordinates, the apex as
    0.  A nest that would pass _BLOCK_LIMIT loops goes on in _rest<p>, which
    takes the locals placed before fill place p as arguments.  With pairs
    it is entry(mu, nu), which sets the left and bottom edges alone and
    searches the lambda cells with the interior."""
    row_bounds, interior, boundary_only, attached = _fill_plan(n, True) if pairs else _fill_plan(n)

    def local(k):
        return _linear(((k, 1),), "a{}")

    edges, (lam, mu, nu) = {}, _edge_cells(n)
    fixed = (("mu", mu), ("nu", nu)) if pairs else (("mu", mu), ("lam", lam[:-1]), ("nu", nu))
    for part, cells in fixed:
        for i, (prev, k) in enumerate(zip(cells, cells[1:])):
            edges[k] = f"{local(prev)} + {part}[{i}]" if prev else f"{part}[{i}]"
    lines = [f"def entry({'mu, nu' if pairs else 'lam, mu, nu'}):",
             *(f"    {local(k)} = {sum_}" for k, sum_ in edges.items())]
    for terms in boundary_only:
        lines += [f"    if {_linear(((k, c) for k, c in terms if k), 'a{}')} < 0:",
                  f"        return{' 0' if count else ''}"]
    call, start, end = (("total += ", ["    total = 0"], ["    return total"]) if count
                        else ("yield from ", [], []))
    lines += start
    placed, loops = sorted(edges), 0
    for place, (pos, rows_k) in enumerate(zip(interior, attached)):
        low, high = [], []
        for coeff, rest in rows_k:
            _require_unit((coeff, *(c for _, c in rest)), f"a row on a[{pos}]")
            # coeff * a[pos] + rest >= 0: a[pos] >= -rest, or a[pos] <= rest (a[0] = 0)
            (low if coeff == 1 else high).append(
                _linear(((q, -coeff * c) for q, c in rest if q), "a{}") or "0")
        if not low or not high:
            raise ValueError(f"free entry a[{pos}] has an unbounded interval")
        last = count and place == len(interior) - 1
        if loops == _BLOCK_LIMIT and not last:
            args = ", ".join(map(local, placed))
            lines += ["    " * (loops + 1) + f"{call}_rest{place}({args})", *end,
                      "", f"def _rest{place}({args}):", *start]
            loops = 0
        step = ("if hi >= lo: total += hi - lo + 1" if last
                else f"for {local(pos)} in range(lo, hi + 1):")
        lines += ["    " * (loops + 1) + line
                  for line in (*_interval("lo", low, ">"), *_interval("hi", high, "<"), step)]
        loops += 1
        placed = sorted(placed + [pos])
    if not count:  # row_bounds[-1][1] is the triangle size
        cells = ", ".join(map(local, range(1, row_bounds[-1][1])))
        lines.append("    " * (loops + 1) + f"yield (0, {cells})")
    elif not interior:
        lines.append("    total += 1")
    return "\n".join(lines + end) + "\n"


def _module_name(name: str) -> str:
    """The shipped module of the generated code `name`: "kernel n=4 count"
    is hivealg._kernels.kernel_n4_count."""
    return f"{__package__}._kernels.{name.replace('=', '').replace(' ', '_')}"


def _generated(name: str, function: str, source):
    """Function `function` of the generated code `name`, from its shipped
    module where there is one (ranks up to 6; tools/regen_kernels.py writes
    them from source), so Python's bytecode cache spares each process the
    plan, the source and the compile; else compiled from source() by
    hive._compile under the filename <hivealg name>."""
    from importlib import import_module
    from importlib.util import find_spec

    spec = find_spec(_module_name(name))
    if spec is None:
        return _compile(source(), f"<hivealg {name}>", function)
    return getattr(import_module(spec.name), function)


@lru_cache(maxsize=32)
def _kernel(n: int, count: bool, pairs: bool = False):
    """The rank-n hive search: entry(lam, mu, nu), on a dominant triple
    padded to length n with |lam| = |mu| + |nu| (lr_coefficient pads its own
    at rank min(n, len(lam)), see there), gives the number of hives (count)
    or yields the flat coordinates of each in search order, which is not
    lexicographic (enumerate_hives sorts); with pairs, entry(mu, nu) does so
    over every lambda.  The source holds only integer indices from
    cone_rows (_generated: shipped up to rank 6, compiled past it).  One
    nested loop over locals, so a search node costs no call and no list
    subscript; a further function only past the block limit (rank 8
    enumerating, rank 9 and up; with pairs, a rank lower)."""
    return _generated(_kernel_name(n, count, pairs), "entry",
                      lambda: _kernel_source(n, count, pairs))


def _kernel_name(n: int, count: bool, pairs: bool = False) -> str:
    return f"kernel n={n} {'pairs ' * pairs}{'count' if count else 'enumerate'}"


def _padded_partitions(n: int, d: int) -> list[list[Parts]]:
    """By size j = 0..d, the partitions of j with at most n parts, each
    padded to length n, in partitions_of order."""
    return [[pad(p, n) for p in partitions_of(j, n)] for j in range(d + 1)]


def enumerate_hives(n, lam, mu, nu) -> list[Hive]:
    """All hives with boundary (lam, mu, nu), in lexicographic order of their
    flat coordinates.  lr_coefficient's admission without its count, the
    long-part rule and then _count_entry(m)'s check, returns [] and raises
    the partition errors; an admitted triple has no nonzero part past m."""
    n = _integer("rank", n, 1)
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    m = min(n, len(lam)) or 1
    if len(lam) > m or len(mu) > m or len(nu) > m:
        require_partitions(lam, mu, nu)
        if any(lam[m:]) or any(mu[m:]) or any(nu[m:]):
            return []
    triple = pad(lam[:m], m), pad(mu[:m], m), pad(nu[:m], m)
    if not _count_entry(m)[0](*triple):
        require_partitions(*triple)
        return []
    return [Hive(n, flat) for flat in sorted(_kernel(n, False)(*(pad(p, n) for p in triple)))]


def _triple_check_source(m: int) -> str:
    """triple_ok(lam, mu, nu) on a triple padded to length m: each part
    weakly decreasing down to a non-negative last part, one line each, and
    |lam| = |mu| + |nu|."""
    def entries(p):
        return [f"{p}[{i}]" for i in range(m)]

    lines = [" >= ".join(entries(p) + ["0"]) for p in ("lam", "mu", "nu")]
    lines.append(f"{' + '.join(entries('lam'))} == {' + '.join(entries('mu') + entries('nu'))}")
    return "def triple_ok(lam, mu, nu):\n    return (" + "\n            and ".join(lines) + ")\n"


@lru_cache(maxsize=32)
def _count_entry(m: int):
    """lr_coefficient's rank-m triple check (_triple_check_source, through
    _generated), count kernel and padding zeros."""
    return (_generated(f"triple check n={m}", "triple_ok", lambda: _triple_check_source(m)),
            _kernel(m, True), (0,) * m)


def lr_coefficient(n, lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient for GL(n), counted by hives at rank
    m = min(n, len(lam)), at least 1: exact, as c^lam_mu,nu is the same at
    every rank >= l(lam).  Trailing zeros change neither dominance nor the
    sums, so a part longer than m is checked as given and then cut to m; a
    nonzero mu_i or nu_i, i > m, is not under lam, or past rank n."""
    n = _integer("rank", n, 1)
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    m = min(n, len(lam)) or 1
    if len(lam) > m or len(mu) > m or len(nu) > m:
        require_partitions(lam, mu, nu)
        if any(lam[m:]) or any(mu[m:]) or any(nu[m:]):
            return 0
        lam, mu, nu = lam[:m], mu[:m], nu[:m]
    ok, kernel, zeros = _count_entry(m)
    lam, mu, nu = lam + zeros[len(lam):], mu + zeros[len(mu):], nu + zeros[len(nu):]
    if ok(lam, mu, nu):
        return kernel(lam, mu, nu)
    require_partitions(lam, mu, nu)
    return 0


def lr_via_tableaux(n, lam, mu, nu) -> int:
    """Independent count of the same coefficient by tableau enumeration."""
    return len(enumerate_tableaux(n, lam, mu, nu))


def _reduced_sums(n: int, degrees: range):
    """Yield m'_e for each e in degrees: P(mu, nu) of md_sum summed over |mu| +
    |nu| = e, mu_n = nu_n = 0.  P is symmetric: a pair with |mu| < |nu| counts
    twice; at |mu| = |nu|, mu before nu in partitions_of order twice, mu = nu once."""
    count = _kernel(n, True, True)
    by_size = [[p for p in ps if not p[-1]] for ps in _padded_partitions(n, max(degrees))]
    for e in degrees:
        total = 0
        for j in range(e // 2 + 1):
            nus = by_size[e - j]
            for a, mu in enumerate(by_size[j]):
                if 2 * j < e:
                    total += 2 * sum(map(count, repeat(mu), nus))
                else:
                    total += count(mu, mu) + 2 * sum(map(count, repeat(mu), nus[a + 1:]))
        yield total


def md_sum(n: int, d: int) -> int:
    """Sum of LR coefficients over triples with |lambda| = |mu| + |nu| = d,
    all parts bounded by n: the degree-d dimension of the hive algebra.
    P(mu, nu), the sum over lambda for one pair, is one pairs-kernel call.
    X: h[i][j] = i - 1 and Y: h[i][j] = j - 1 (det X, det Y) have apex 0 and
    each rhombus row at slack 0, so h -> h - a X - b Y, a = mu_n, b = nu_n,
    keeps apex and rhombi and lowers the edges by a, b and a + b, to >= 0
    (rhombi make edges decrease, lambda_n >= a + b); adding back inverts it.
    So m_d sums m'_(d - nk) (_reduced_sums) over k >= 0 and a + b = k."""
    n = _integer("rank", n, 1)
    d = _integer("degree", d, 0)
    return sum((k + 1) * m for k, m in enumerate(_reduced_sums(n, range(d, -1, -n))))


def hp_series_enumerated(n: int, max_degree: int) -> SeriesPrefix:
    """Coefficients m_0..m_D of the Hilbert-Poincare series, by enumeration:
    m'_0..m'_D times 1 / (1 - t^n)^2, two passes c_k += c_(k-n) (md_sum)."""
    n = _integer("rank", n, 1)
    max_degree = _integer("max_degree", max_degree, 0)
    coeffs = list(_reduced_sums(n, range(max_degree + 1)))
    for _ in range(2):
        for k in range(n, max_degree + 1):
            coeffs[k] += coeffs[k - n]
    return tuple(coeffs)


def hp_series_closed_form(numerator, denominator_exponents, max_degree: int) -> SeriesPrefix:
    """Expand numerator(t) / prod (1 - t^e) up to t^D; both must hold integers."""
    max_degree = _integer("max_degree", max_degree, 0)
    exponents = [_integer("denominator exponent", e) for e in denominator_exponents]
    coeffs = [_integer("numerator coefficient", c) for c in numerator][:max_degree + 1]
    coeffs += [0] * (max_degree + 1 - len(coeffs))
    for e in exponents:
        if e < 1:
            raise ValueError(f"denominator exponent {e} must be positive")
        for k in range(e, max_degree + 1):
            coeffs[k] += coeffs[k - e]
    return tuple(coeffs)


def hp_series_reference(n: int, max_degree: int) -> SeriesPrefix:
    """Closed-form series for n = 2, 3, 4 from the tabulated presentation data."""
    if n not in SERIES_NUMERATOR:
        raise ValueError(f"no closed-form series data for rank {n}")
    return hp_series_closed_form(SERIES_NUMERATOR[n], SERIES_DENOMINATOR[n], max_degree)


# ---------------------------------------------------------------------------
# Schur oracle by Jacobi-Trudi

def lr_via_schur(n, lam, mu, nu) -> int:
    """Third route, by symmetric functions alone: c = <s_(lam/mu), s_nu>, and
    s_nu = det(h_(nu_i - i + j)) (Jacobi-Trudi; Macdonald, Symmetric
    Functions and Hall Polynomials, I.5), expanded row by row: column s at
    row i gives the sign (-1)^(free columns below s) and a horizontal strip
    of nu_i - i + s cells.  A DP over (used columns, kappa) counts the chains
    of strips from mu to lam: 2^l column sets, not l! permutations.  c is
    symmetric in mu and nu, so nu is the shorter, of length l; the parts have
    length l(lam), whatever n.  The counts are kept in a dict for this call."""
    n = _integer("rank", n, 1)
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    require_partitions(lam, mu, nu)
    if len(lam) > n or max(len(mu), len(nu)) > len(lam) or sum(lam) != sum(mu) + sum(nu):
        return 0
    if len(mu) < len(nu):
        mu, nu = nu, mu
    chains, full = {}, (1 << len(nu)) - 1

    def strips(old, size):
        """Each kappa inside lam with kappa / old a horizontal strip of size
        cells: old_j <= kappa_j <= top_j = min(lam_j, old_(j-1)), row by row,
        leaving no more cells than the rows below have room for (so none
        for a negative size)."""
        tops = (lam[0], *map(min, lam[1:], old))
        room = [top - o for top, o in zip(tops, old)]
        rows = [((), size)]
        for j, o in enumerate(old):
            rest = sum(room[j + 1:])
            rows = [(kappa + (v,), left - v + o) for kappa, left in rows
                    for v in range(max(o, o + left - rest), min(tops[j], o + left) + 1)]
        return [kappa for kappa, _ in rows]

    def expand(used, kappa):
        """The signed chains from kappa to lam whose rows from i = |used| on
        take the columns not in used, one each."""
        if used == full:
            return int(kappa == lam)
        if (used, kappa) not in chains:
            i, total, sign = used.bit_count(), 0, 1
            for s in (s for s in range(len(nu)) if not used >> s & 1):
                steps = strips(kappa, nu[i] - i + s)
                total += sign * sum(expand(used | 1 << s, k) for k in steps)
                sign = -sign
            chains[used, kappa] = total
        return chains[used, kappa]

    return expand(0, pad(mu, len(lam)))
