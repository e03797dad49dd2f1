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

    for *_, terms in cone_rows(n)[(2 if pairs else 3) * n:]:
        if not attach(terms):
            boundary_only.append(terms)
    # taken before any sum is attached: one round, of cone rows alone
    opposed = [(low, up) for x in interior
               for low in attached[x] if (x, 1) in low
               for up in attached[x] if (x, -1) in up]
    seen = {frozenset(terms) for rows in attached.values() for terms in rows}
    for low, up in opposed:
        total: dict[int, int] = {}
        for k, c in low + up:
            total[k] = total.get(k, 0) + c
        terms = tuple((k, c) for k, c in total.items() if c)
        if all(c in (1, -1) for _, c in terms) and frozenset(terms) not in seen:
            seen.add(frozenset(terms))
            attach(terms)
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


@lru_cache(maxsize=32)
def _kernel(n: int, count: bool, pairs: bool = False):
    """The compiled rank-n hive search: entry(lam, mu, nu), on a dominant
    triple padded to length n with |lam| = |mu| + |nu| (lr_coefficient pads
    its own at rank min(n, len(lam)), see there), gives the number of hives
    (count) or yields the flat coordinates of each in search order, which is
    not lexicographic (enumerate_hives sorts); with pairs, entry(mu, nu)
    does so over every lambda.  The source holds only integer indices from
    cone_rows, compiled by hive._compile under its filename.  One nested
    loop over locals, so a search node costs no call and no list subscript;
    a further function only past the block limit (rank 8 enumerating, rank 9
    and up; with pairs, a rank lower)."""
    filename = f"<hivealg kernel n={n} {'pairs ' * pairs}{'count' if count else 'enumerate'}>"
    return _compile(_kernel_source(n, count, pairs), filename, "entry")


def _padded_partitions(n: int, d: int) -> list[list[Parts]]:
    """By size j = 0..d, the partitions of j with at most n parts, each
    padded to length n, in partitions_of order."""
    return [[pad(p, n) for p in partitions_of(j, n)] for j in range(d + 1)]


def enumerate_hives(n, lam, mu, nu) -> list[Hive]:
    """All hives with boundary (lam, mu, nu), in lexicographic order of their
    flat coordinates.  lr_coefficient admits the triple and raises the
    partition errors; a positive count leaves no nonzero part past n."""
    n = _integer("rank", n, 1)
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if not lr_coefficient(n, lam, mu, nu):
        return []
    triple = pad(lam, n), pad(mu, n), pad(nu, n)
    return [Hive(n, flat) for flat in sorted(_kernel(n, False)(*triple))]


@lru_cache(maxsize=32)
def _count_entry(m: int):
    """lr_coefficient's rank-m count kernel and padding zeros, after its
    compiled check on a triple padded to length m: each part weakly
    decreasing down to a non-negative last part, one line each, and
    |lam| = |mu| + |nu|."""
    def entries(p):
        return [f"{p}[{i}]" for i in range(m)]

    lines = [" >= ".join(entries(p) + ["0"]) for p in ("lam", "mu", "nu")]
    lines.append(f"{' + '.join(entries('lam'))} == {' + '.join(entries('mu') + entries('nu'))}")
    source = "def triple_ok(lam, mu, nu):\n    return (" + "\n            and ".join(lines) + ")\n"
    return (_compile(source, f"<hivealg triple check n={m}>", "triple_ok"),
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
    ok, count, zeros = _count_entry(m)
    lam, mu, nu = lam + zeros[len(lam):], mu + zeros[len(mu):], nu + zeros[len(nu):]
    if ok(lam, mu, nu):
        return count(lam, mu, nu)
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
# Schur-product oracle

@lru_cache(maxsize=1024)
def schur_monomials(n: int, lam: Parts) -> dict:
    """Schur polynomial s_lam in n variables as {exponent vector: coefficient},
    summing x^weight over semistandard tableaux of shape lam."""
    lam = normalize(lam)
    if len(lam) > n:
        return {}
    result: dict[tuple, int] = {}
    cells = [(i, c) for i in range(len(lam)) for c in range(lam[i])]
    fill = {}
    weight = [0] * n

    def place(k: int) -> None:
        if k == len(cells):
            key = tuple(weight)
            result[key] = result.get(key, 0) + 1
            return
        i, c = cells[k]
        lo = max(fill.get((i, c - 1), 1), fill.get((i - 1, c), 0) + 1)
        for v in range(lo, n + 1):
            fill[(i, c)] = v
            weight[v - 1] += 1
            place(k + 1)
            weight[v - 1] -= 1
        fill.pop((i, c), None)

    place(0)
    return result


@lru_cache(maxsize=256)
def _schur_product_expansion(n: int, mu: Parts, nu: Parts) -> dict:
    """Expand s_mu * s_nu in the Schur basis by peeling leading monomials.

    The lex-leading monomial of a symmetric polynomial is x^lam for a
    partition lam, with the full coefficient of s_lam; subtract and repeat.
    """
    product: dict[tuple, int] = {}
    right = schur_monomials(n, nu)
    for w1, c1 in schur_monomials(n, mu).items():
        for w2, c2 in right.items():
            key = tuple(a + b for a, b in zip(w1, w2))
            c = product.get(key, 0) + c1 * c2
            if c:
                product[key] = c
            else:
                del product[key]
    expansion: dict[Parts, int] = {}
    while product:
        lead = max(product)
        if normalize(lead) != normalize(sorted(lead, reverse=True)):
            raise ArithmeticError(f"leading weight {lead} is not a partition")
        coeff = product[lead]
        expansion[normalize(lead)] = coeff
        for w, c in schur_monomials(n, normalize(lead)).items():
            c = product.get(w, 0) - coeff * c
            if c:
                product[w] = c
            else:
                product.pop(w, None)
    return expansion


def lr_via_schur(n, lam, mu, nu) -> int:
    """Third route: coefficient of s_lam in the product s_mu * s_nu."""
    n = _integer("rank", n, 1)
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    require_partitions(lam, mu, nu)
    if max(len(lam), len(mu), len(nu)) > n or sum(lam) != sum(mu) + sum(nu):
        return 0
    return _schur_product_expansion(n, mu, nu).get(lam, 0)
