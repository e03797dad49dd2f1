"""One benchmark process.  It imports hivealg from the checkout's src/, runs
one workload in a closed loop (one thread; the next operation starts only
after the previous one returns), checks every output outside the timed
region and prints one JSON object as its last line of output.

    python3 hivebench/worker.py <workload> --seed N (--seconds S | --ops N) [--round K]
                                [--trace] [--pace READ_FD,WRITE_FD]

Each operation is timed around the public library call that the matching
CLI subcommand makes.  Inputs are generated from the seed before the clock
starts; the library only ever sees the generated inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

from hostspeed import WINDOW, Pacer
from setup_probe import lazy_setup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The rank-4 Hilbert basis h_1..h_20 in flat row-major coordinates, kept here
# as an independent copy: the benchmark builds its inputs from it and checks
# decompositions and the computed basis against it.
BASIS4 = (
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
)
BASIS4_DEGREES = tuple(b[-1] for b in BASIS4)

# Number of terms of the generator polynomials g_1..g_20 for n = 4.  Used only
# as a cost proxy when drawing inputs: the vector lifted from a sum of basis
# hives is about as large as the product of these counts.
GENERATOR_TERMS4 = (1, 2, 6, 24, 1, 2, 6, 24, 2, 6, 24, 6, 24, 24, 8, 36, 64, 36, 72, 64)
RANKED_SET = 6
# A product's cost varies more at a given proxy value than a lift's, so its
# pairs are ranked among more candidates.
TENSOR_RANKED_SET = 24

# m_d for GL(5), d = 0..11, counted once by LR tableaux (summing
# lr_via_tableaux over every triple with |lambda| = |mu| + |nu| = d and at
# most 5 parts), a route that shares no code with the hive count.
SERIES5_BY_TABLEAUX = (1, 2, 6, 14, 34, 74, 157, 316, 625, 1190, 2220, 4030)
HIVES4_TO_DEGREE_12 = 10771   # number of rank-4 hives of degree <= 12


def partitions(total: int, parts: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of total with at most `parts` parts, largest first."""
    cap = total if cap is None else cap
    if total == 0:
        return [()]
    if parts == 0:
        return []
    return [(p,) + rest for p in range(min(total, cap), 0, -1)
            for rest in partitions(total - p, parts - 1, p)]


def contains(outer, inner) -> bool:
    return len(inner) <= len(outer) and all(a >= b for a, b in zip(outer, inner))


def weyl_dimension(lam, n: int) -> int:
    """dim V_lambda for GL(n) by the Weyl dimension formula."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def basis_sum(rng: random.Random, degree: int) -> tuple[tuple[int, ...], float]:
    """A random sum of rank-4 basis hives of the given total degree, and the
    cost proxy of lifting it: the log of the product of the term counts of
    the matching generators."""
    flat = [0] * 15
    left, cost = degree, 0.0
    while left:
        k = rng.choice([i for i, d in enumerate(BASIS4_DEGREES) if d <= left])
        flat = [a + b for a, b in zip(flat, BASIS4[k])]
        left -= BASIS4_DEGREES[k]
        cost += math.log(GENERATOR_TERMS4[k])
    return tuple(flat), cost


def ranked_pick(draw, rank: int, size: int = RANKED_SET):
    """Ranked set sampling: draw `size` candidates, each a (cost, input)
    pair, and keep the one whose cost has the given rank.  Cycling the rank
    over successive picks spreads a run's inputs evenly over the cost
    distribution: the runs of different seeds then differ far less than with
    plain random draws, while the inputs stay random and the mean unbiased."""
    candidates = sorted((draw() for _ in range(size)), key=lambda c: c[0])
    return candidates[rank % size][1]


def edges(rows) -> tuple[tuple[int, ...], ...]:
    """Boundary (lambda, mu, nu) of a hive given by its rows."""
    n = len(rows) - 1
    return (tuple(rows[i + 1][i + 1] - rows[i][i] for i in range(n)),
            tuple(rows[i + 1][0] - rows[i][0] for i in range(n)),
            tuple(rows[n][j + 1] - rows[n][j] for j in range(n)))


def hive_arg(flat) -> str:
    """A rank-4 hive in the CLI's --hive syntax."""
    rows, k = [], 0
    for i in range(1, 6):
        rows.append(",".join(str(v) for v in flat[k:k + i]))
        k += i
    return ";".join(rows)


def run_cli(lib, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.run(argv)
    return code, out.getvalue()


class Library:
    """The hivealg modules, imported from src/ and looked up at call time, so
    the tracer's wrappers are seen by the benchmark's own calls."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import hivealg
        from hivealg import cli, cone, counting, shapes, tableau, tensor_algebra
        from hivealg.polynomial import Polynomial, raising_derivation

        if Path(hivealg.__file__).resolve().parent != SRC / "hivealg":
            raise SystemExit(f"hivealg was imported from {hivealg.__file__}, not {SRC}")
        self.hivealg, self.cli, self.cone, self.counting = hivealg, cli, cone, counting
        self.tableau, self.tensor_algebra = tableau, tensor_algebra
        self.Polynomial, self.raising_derivation = Polynomial, raising_derivation
        # the caches, read before any wrapper replaces the names they sit behind
        self.caches = {
            "counting.hive_count_cache": getattr(counting, "_hive_count", None),
            "cone.hives_up_to_degree_cache": getattr(cone, "hives_up_to_degree", None),
            "shapes.partitions_of_cache": getattr(shapes, "partitions_of", None),
        }

    def cache_state(self) -> dict[str, tuple[int, int, int]]:
        """(hits, misses, size) of each lru_cache that is still there."""
        state = {}
        for name, fn in self.caches.items():
            info = getattr(fn, "cache_info", None)
            if info is not None:
                hits, misses, _maxsize, size = info()
                state[name] = (hits, misses, size)
        return state


class Workload:
    """Seeded inputs, the timed operation, and its untimed checks."""

    rss_checkpoint = 1   # peak RSS is read after this many operations

    def __init__(self, lib: Library, seed: int, round_index: int, pacer: Pacer):
        self.lib = lib
        self.seed = seed
        self.round_index = round_index
        self.pacer = pacer
        self.rng = random.Random(f"{type(self).__name__}-checks-{seed}")
        self.failures: list[str] = []

    def inputs(self):
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def timed(self, x):
        """Run op(x) and return its result and its timed segments: (seconds,
        loops the parent had timed before the segment started)."""
        loops = self.pacer.loops
        start = time.perf_counter()
        result = self.op(x)
        return result, [(time.perf_counter() - start, loops)]

    def check(self, index: int, x, result) -> bool:
        raise NotImplementedError

    def work(self, x, result) -> int:
        return 1

    def epilogue(self) -> None:
        """Library work run once after the loop: untimed, but traced in a
        traced run.  final_checks() checks its results."""

    def final_checks(self) -> set[int]:
        """Checks run once after the loop; returns indices of failed ops."""
        return set()

    def check_counts(self, counts: dict[str, int], ops: int) -> set[int]:
        """Checks of a traced run's counters against the results; returns
        indices of failed ops."""
        return set()

    def fail(self, index: int, message: str) -> bool:
        self.failures.append(f"op {index}: {message}")
        return False


class Tensor(Workload):
    """Decompose V_mu (x) V_nu for GL(n), n in {5, 6}, |mu|, |nu| in 6..12.

    The inputs come in blocks: one fresh pair for each (n, |mu|, |nu|),
    then 14 of them again and 14 in swapped order, so 28 of every 126
    products can reuse the library's count cache.  Fresh pairs are ranked
    by dim V_mu * dim V_nu, which predicts the cost of a product well.
    run.py runs one block per fresh process.  The block is drawn from the
    seed and the round index, and its rank cycle starts afresh, so that
    every round costs the same in expectation however many a run gets
    through.
    """

    rss_checkpoint = 126
    tableau_share = 0.125

    def __init__(self, lib, seed, round_index, pacer):
        super().__init__(lib, seed, round_index, pacer)
        self.sampled = []
        self._partitions: dict[tuple[int, int], list] = {}

    def parts(self, total, n):
        key = (total, n)
        if key not in self._partitions:
            self._partitions[key] = partitions(total, n)
        return self._partitions[key]

    def admissible(self, n, mu, nu):
        cap = mu[0] + nu[0]
        return [lam for lam in self.parts(sum(mu) + sum(nu), n)
                if lam[0] <= cap and contains(lam, mu) and contains(lam, nu)]

    def inputs(self):
        rng = random.Random(f"{self.seed}-{self.round_index}")
        seen = set()
        strata = [(n, a, b) for n in (5, 6) for a in range(6, 13) for b in range(6, 13)]
        for block_index in itertools.count():
            block = []
            for stratum_index, (n, a, b) in enumerate(strata):
                def draw():
                    for _attempt in range(100):   # small strata can run out
                        mu, nu = rng.choice(self.parts(a, n)), rng.choice(self.parts(b, n))
                        if (n, min(mu, nu), max(mu, nu)) not in seen:
                            break
                    return weyl_dimension(mu, n) * weyl_dimension(nu, n), (mu, nu)

                mu, nu = ranked_pick(draw, block_index + stratum_index, TENSOR_RANKED_SET)
                seen.add((n, min(mu, nu), max(mu, nu)))
                block.append((n, mu, nu, self.admissible(n, mu, nu)))
            rng.shuffle(block)
            again = rng.sample(block, 28)
            tail = again[:14] + [(n, nu, mu, lams) for n, mu, nu, lams in again[14:]]
            rng.shuffle(tail)
            yield from block + tail

    def op(self, x):
        n, mu, nu, lams = x
        lr = self.lib.counting.lr_coefficient
        return [lr(n, lam, mu, nu) for lam in lams]

    def check(self, index, x, coeffs):
        n, mu, nu, lams = x
        if any(c < 0 for c in coeffs):
            return self.fail(index, "negative coefficient")
        left = sum(c * weyl_dimension(lam, n) for c, lam in zip(coeffs, lams))
        right = weyl_dimension(mu, n) * weyl_dimension(nu, n)
        if left != right:
            return self.fail(index, f"sum c*dim V_lambda = {left} != dim V_mu * dim V_nu = {right}")
        if self.rng.random() < self.tableau_share:
            self.sampled.append((index, x, coeffs))
        return True

    def final_checks(self):
        bad = set()
        via_tableaux = self.lib.counting.lr_via_tableaux
        for index, (n, mu, nu, lams), coeffs in self.sampled:
            if [via_tableaux(n, lam, mu, nu) for lam in lams] != coeffs:
                bad.add(index)
                self.fail(index, "hive and tableau counts disagree")
        for index, (n, mu, nu, lams), coeffs in self.sampled[:3]:
            lam, c = max(zip(lams, coeffs), key=lambda pair: pair[1])
            argv = ["lrcoef", "-n", str(n), "--format", "json"]
            for flag, p in (("--lambda", lam), ("--mu", mu), ("--nu", nu)):
                argv += [flag, ",".join(map(str, p))]
            code, out = run_cli(self.lib, argv)
            if code != 0 or json.loads(out)["lr_coefficient"] != c:
                bad.add(index)
                self.fail(index, "lrcoef CLI output differs from the library call")
        return bad


class Series(Workload):
    """hp-series -n 4 --max-degree 15, hp-series -n 5 --max-degree 11 and
    hilbert-basis -n 4 --max-degree 12, as one batch per fresh process.

    The batch is timed as three segments, one per call, with a pause for the
    host-speed loop between them, so that each call is put at reference
    speed by the loop timed nearest to it."""

    def __init__(self, lib, seed, round_index, pacer):
        super().__init__(lib, seed, round_index, pacer)
        self.call_seconds: list[float] = []

    def inputs(self):
        while True:
            yield (4, 15), (5, 11), (4, 12)

    def calls(self, x):
        (n1, d1), (n2, d2), (n3, d3) = x
        counting, cone = self.lib.counting, self.lib.cone
        return ((counting.hp_series_enumerated, n1, d1),
                (counting.hp_series_enumerated, n2, d2),
                (cone.hilbert_basis, n3, d3))

    def timed(self, x):
        results, segments = [], []
        clock = time.perf_counter
        for fn, n, d in self.calls(x):
            if results:
                self.pacer.pause(WINDOW)
            loops = self.pacer.loops
            start = clock()
            results.append(fn(n, d))
            segments.append((clock() - start, loops))
        self.call_seconds = [seconds for seconds, _loops in segments]
        return tuple(results), segments

    def check(self, index, x, result):
        s4, s5, basis = result
        ok = True
        if tuple(s4) != self.lib.counting.hp_series_reference(4, 15):
            ok = self.fail(index, "n = 4 series differs from the closed form")
        if tuple(s5) != SERIES5_BY_TABLEAUX:
            ok = self.fail(index, "n = 5 series differs from the tableau count")
        flats = [h.to_flat() for h in basis]
        if len(flats) != len(BASIS4) or set(flats) != set(BASIS4):
            ok = self.fail(index, "Hilbert basis differs from the pinned rank-4 basis")
        listed = len(self.lib.cone.hives_up_to_degree(4, 12))
        if listed != sum(s4[:13]) or listed != HIVES4_TO_DEGREE_12:
            ok = self.fail(index, f"hives_up_to_degree(4, 12) has {listed} hives, "
                                  f"sum of m_d(4, 0..12) is {sum(s4[:13])}")
        if ok:
            code4, out4 = run_cli(self.lib, ["hp-series", "-n", "4", "--max-degree", "9",
                                             "--format", "json"])
            code5, out5 = run_cli(self.lib, ["hp-series", "-n", "5", "--max-degree", "9",
                                             "--format", "json"])
            if (code4, code5) != (0, 0) \
                    or json.loads(out4)["coefficients"] != list(s4[:10]) \
                    or json.loads(out5)["coefficients"] != list(s5[:10]):
                ok = self.fail(index, "hp-series CLI output differs from the library call")
        return ok

    def work(self, x, result):
        s4, s5, _basis = result
        return sum(s4) + sum(s5) + HIVES4_TO_DEGREE_12

    def check_counts(self, counts, ops):
        bad = set()
        # every lr_coefficient result that md_sum added up must be in m_d;
        # this holds only while md_sum counts through lr_coefficient
        if counts.get("md.lr_calls") and counts.get("md.lr_sum") != counts.get("md.total"):
            bad.add(0)
            self.fail(0, f"lr_coefficient results into md_sum sum to {counts.get('md.lr_sum')}, "
                         f"m_d to {counts.get('md.total')}")
        listed = counts.get("hives_up_to_degree.hives", 0)
        if listed != ops * HIVES4_TO_DEGREE_12:
            bad.add(0)
            self.fail(0, f"hives_up_to_degree listed {listed} hives in {ops} batches")
        return bad


class Decompose(Workload):
    """decompose -n 4 on random sums of basis hives, one per degree 12..40
    in each block."""

    rss_checkpoint = 1450

    def inputs(self):
        rng = random.Random(self.seed)
        Hive = self.lib.hivealg.Hive
        while True:
            degrees = list(range(12, 41))
            rng.shuffle(degrees)
            for d in degrees:
                yield Hive.from_flat(basis_sum(rng, d)[0])

    def op(self, hive):
        cone = self.lib.cone
        return cone.decompose(hive, cone.presentation(4))

    def check(self, index, hive, indices):
        total = [0] * 15
        for k in indices:
            if not 1 <= k <= len(BASIS4):
                return self.fail(index, f"basis index {k} out of range")
            total = [a + b for a, b in zip(total, BASIS4[k - 1])]
        if tuple(total) != hive.to_flat():
            return self.fail(index, "chosen basis elements do not sum to the input")
        if index < 3:
            code, out = run_cli(self.lib, ["decompose", "-n", "4", "--hive",
                                           hive_arg(hive.to_flat()), "--format", "json"])
            if code != 0 or json.loads(out)["indices"] != list(indices):
                return self.fail(index, "decompose CLI output differs from the library call")
        return True


class Lift(Workload):
    """hwv -n 4: lift random rank-4 hives, one per degree 6..11 in each
    block, to highest weight vectors and render them.  Within a degree the
    hives are ranked by the GENERATOR_TERMS4 cost proxy.  After the loop it
    runs the verify -n 4 suite once, untimed, and checks every result."""

    rss_checkpoint = 720
    annihilation_share = 0.2

    def __init__(self, lib, seed, round_index, pacer):
        super().__init__(lib, seed, round_index, pacer)
        self.cli_checked = 0
        self.verified: list = []

    def inputs(self):
        rng = random.Random(self.seed)
        Hive = self.lib.hivealg.Hive
        for block_index in itertools.count():
            degrees = list(range(6, 12))
            rng.shuffle(degrees)
            for d in degrees:
                flat = ranked_pick(lambda: basis_sum(rng, d)[::-1], block_index + d)
                yield Hive.from_flat(flat)

    def op(self, hive):
        vec = self.lib.tensor_algebra.highest_weight_vector(4, hive)
        return vec, str(vec.polynomial)

    def check(self, index, hive, result):
        lib = self.lib
        vec, text = result
        poly = vec.polynomial
        if tuple(map(tuple, poly.weight())) != edges(hive.rows):
            return self.fail(index, "weight of the vector differs from the hive's boundary")
        exps, coeff = poly.leading_term()
        tab = lib.tableau.hive_to_tableau(hive)
        if coeff != 1 or exps != lib.tensor_algebra.lemma_initial_exponents(4, tab):
            return self.fail(index, "leading term is not 1 * the tableau's initial monomial")
        if self.rng.random() < self.annihilation_share:
            for factor in (1, 2, 3):
                for k in (1, 2, 3):
                    if not lib.raising_derivation(factor, k, poly).is_zero:
                        return self.fail(index, f"raising operator ({factor}, {k}) "
                                                "does not annihilate the vector")
        if self.cli_checked < 2 and hive.degree <= 8:
            self.cli_checked += 1
            code, out = run_cli(lib, ["hwv", "-n", "4", "--hive", hive_arg(hive.to_flat())])
            if code != 0 or f"polynomial: {text}\n" not in out:
                return self.fail(index, "hwv CLI output differs from the library call")
        return True

    def epilogue(self):
        cone, tensor_algebra = self.lib.cone, self.lib.tensor_algebra
        self.verified = list(cone.verify_relations(cone.presentation(4)))
        self.verified += tensor_algebra.verify_presentation_relations(4)
        self.verified += tensor_algebra.verify_classical_identities(4)

    def final_checks(self):
        bad = [r.name for r in self.verified if not r.ok]
        if not self.verified or bad:
            self.fail(0, f"verify -n 4 checks failed: {bad}")
            return {0}
        code, out = run_cli(self.lib, ["verify", "-n", "4", "--format", "json"])
        names = {c["name"] for c in json.loads(out)["checks"]} if code == 0 else set()
        if not {r.name for r in self.verified} <= names:
            self.fail(0, "verify CLI result differs from the library calls")
            return {0}
        return set()


WORKLOADS = {"tensor": Tensor, "series": Series, "decompose": Decompose, "lift": Lift}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_run(name: str, seed: int, round_index: int, seconds: float | None,
                ops: int | None, trace: bool, pacer: Pacer) -> dict:
    lib = Library()
    workload = WORKLOADS[name](lib, seed, round_index, pacer)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(lib.counting, lib.cone, lib.tensor_algebra, lib.Polynomial)
    lazy_setup(name)

    segments, work, failed = [], 0, set()
    cache_use = {cache: [0, 0, 0] for cache in lib.caches}   # hits, misses, size
    rss = None
    clock = time.perf_counter
    stream = workload.inputs()
    pacer.pause(WINDOW)
    deadline = clock() + seconds if seconds is not None else None
    while (len(segments) < ops) if ops is not None else (not segments or clock() < deadline):
        pacer.between_ops()
        x = next(stream)
        index = len(segments)
        before = lib.cache_state() if tracer is not None else {}
        loops, start = pacer.loops, clock()
        try:
            result, parts = workload.timed(x)
            segments.append(parts)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            segments.append([(clock() - start, loops)])
            failed.add(index)
            workload.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            continue
        if len(segments) == workload.rss_checkpoint:
            rss = peak_rss_mb()
        if tracer is not None:
            # count only what the op did to the caches, not the checks
            for cache, (hits, misses, size) in lib.cache_state().items():
                use = cache_use[cache]
                use[0] += hits - before[cache][0]
                use[1] += misses - before[cache][1]
                use[2] = size
            tracer.disable()
        try:
            ok = workload.check(index, x, result)
        except Exception as exc:  # a result of the wrong shape fails its check
            ok = workload.fail(index, f"check raised {type(exc).__name__}: {exc}")
        if ok:
            work += workload.work(x, result)
        else:
            failed.add(index)
        if tracer is not None:
            tracer.enable()
    pacer.pause(WINDOW)
    pacer.close()
    if rss is None:
        rss = peak_rss_mb()
    try:
        workload.epilogue()
    except Exception as exc:  # counted against the first op, like the other checks
        failed.add(0)
        workload.fail(0, f"epilogue raised {type(exc).__name__}: {exc}")

    layers, details = {}, {}
    if tracer is not None:
        tracer.disable()
        layers = tracer.metrics()
        present = lib.cache_state()
        for cache, (hits, misses, size) in cache_use.items():
            layers.update({f"{cache}.hits": hits, f"{cache}.misses": misses,
                           f"{cache}.size": size})
        # a cache that a later version removes or replaces reads as zeros
        details["absent"] = [cache for cache in lib.caches if cache not in present] + tracer.absent
        failed |= workload.check_counts(tracer.counts, len(segments))
    try:
        failed |= workload.final_checks()
    except Exception as exc:  # counted against the first op, like the other checks
        failed.add(0)
        workload.fail(0, f"final checks raised {type(exc).__name__}: {exc}")
    if name == "series":
        details["call_seconds"] = workload.call_seconds
    return {"segments": segments, "work": work,
            "failed": sorted(failed), "peak_rss_mb": rss, "layers": layers, "details": details,
            "failures": workload.failures[:10]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--round", type=int, default=0,
                        help="index of this process among a run's fresh processes; "
                             "tensor draws its inputs from the seed and this index")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--pace", help="pipe ends for pausing between operations "
                                       "while run.py times the host (hostspeed.py)")
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.ops is None):
        parser.error("give exactly one of --seconds and --ops")
    print(json.dumps(measure_run(args.workload, args.seed, args.round, args.seconds, args.ops,
                                 args.trace, Pacer(args.pace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
