"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import time
from collections import defaultdict

from hivealg.cone import (decompose, hilbert_basis, hives_up_to_degree,
                          inequalities_input_text, presentation)
from hivealg.counting import (enumerate_hives, hp_series_enumerated,
                              hp_series_reference, lr_coefficient,
                              lr_via_schur, lr_via_tableaux)
from hivealg.polynomial import Weight, raising_derivation
from hivealg.shapes import contains, partitions_of
from hivealg.tableau import enumerate_tableaux, hive_to_tableau, tableau_to_hive
from hivealg.tensor_algebra import (build_generators, highest_weight_vector,
                                    lemma_initial_exponents,
                                    verify_presentation_relations)

PRINTED_SERIES = {
    2: (1, 2, 6, 10, 20, 30, 50, 70, 105, 140),
    3: (1, 2, 6, 14, 29, 56, 105, 182, 308, 502),
    4: (1, 2, 6, 14, 34, 68, 142, 268, 508, 902),
}

EXPECTED_BASIS_SIZES = {2: 5, 3: 10, 4: 20}

APPENDIX_ROWS = [
    "-1 1 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 -1 0 1 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 -1 0 0 1 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 -1 0 0 0 1 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 -1 1 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 -1 1 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 -1 1 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 -1 1",
    "-1 0 1 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 -1 0 0 1 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 -1 0 0 0 1 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 -1 0 0 0 0 1",
    "-1 1 1 0 -1 0 0 0 0 0 0 0 0 0 0",
    "0 -1 0 1 1 0 0 -1 0 0 0 0 0 0 0",
    "0 0 -1 0 1 1 0 0 -1 0 0 0 0 0 0",
    "0 0 0 -1 0 0 1 1 0 0 0 -1 0 0 0",
    "0 0 0 0 -1 0 0 1 1 0 0 0 -1 0 0",
    "0 0 0 0 0 -1 0 0 1 1 0 0 0 -1 0",
    "0 -1 1 0 1 -1 0 0 0 0 0 0 0 0 0",
    "0 0 0 -1 1 0 0 1 -1 0 0 0 0 0 0",
    "0 0 0 0 -1 1 0 0 1 -1 0 0 0 0 0",
    "0 0 0 0 0 0 -1 1 0 0 0 1 -1 0 0",
    "0 0 0 0 0 0 0 -1 1 0 0 0 1 -1 0",
    "0 0 0 0 0 0 0 0 -1 1 0 0 0 1 -1",
    "0 1 -1 -1 1 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 1 -1 0 -1 1 0 0 0 0 0 0 0",
    "0 0 0 0 1 -1 0 -1 1 0 0 0 0 0 0",
    "0 0 0 0 0 0 1 -1 0 0 -1 1 0 0 0",
    "0 0 0 0 0 0 0 1 -1 0 0 -1 1 0 0",
    "0 0 0 0 0 0 0 0 1 -1 0 0 -1 1 0",
]
APPENDIX_EQUATION = "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0"


def _report(num, description, ok, started):
    elapsed = time.time() - started
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'} ({elapsed:6.1f}s): {description}")
    assert ok, f"criterion {num} failed: {description}"


def _boundary_triples(n, d):
    """Dominant triples with |lambda| = |mu| + |nu| = d and at most n parts."""
    for j in range(d + 1):
        for mu in partitions_of(j, n):
            for nu in partitions_of(d - j, n):
                for lam in partitions_of(d, n):
                    yield lam, mu, nu


def test_criterion_01_hp_series_three_ranks():
    t0 = time.time()
    ok = all(hp_series_enumerated(n, 9) == PRINTED_SERIES[n] for n in (2, 3, 4))
    _report(1, "enumerated series m_0..m_9 match for n = 2, 3, 4", ok, t0)


def test_criterion_02_closed_form_agreement():
    t0 = time.time()
    ok = (hp_series_reference(2, 12) == hp_series_enumerated(2, 12)
          and hp_series_reference(3, 12) == hp_series_enumerated(3, 12)
          and hp_series_reference(4, 9) == hp_series_enumerated(4, 9))
    _report(2, "closed form matches enumeration (deg 12 for n=2,3; deg 9 for n=4)",
            ok, t0)


def test_criterion_03_hilbert_bases():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        pres = presentation(n)
        basis = hilbert_basis(n, 12)
        ok = ok and len(basis) == EXPECTED_BASIS_SIZES[n]
        ok = ok and {h.to_flat() for h in basis} == {h.to_flat() for h in pres.basis}
        zero = hives_up_to_degree(n, 0)[0]
        ok = ok and all(sum((pres.basis[k - 1] for k in decompose(h, pres)), zero) == h
                        for h in hives_up_to_degree(n, 12))
    _report(3, "degree-12 search gives the 5/10/20 basis hives and "
               "every hive of degree <= 12 decomposes", ok, t0)


def test_criterion_04_worked_example():
    t0 = time.time()
    lam, mu, nu = (3, 2, 1), (2, 1), (2, 1)
    ok = lr_coefficient(3, lam, mu, nu) == 2
    hives = enumerate_hives(3, lam, mu, nu)
    ok = ok and {h.rows for h in hives} == {
        ((0,), (2, 3), (3, 4, 5), (3, 5, 6, 6)),
        ((0,), (2, 3), (3, 5, 5), (3, 5, 6, 6)),
    }
    from hivealg.polynomial import monomial_exponents

    expected_initials = {
        monomial_exponents(3, [("x", 1, 1)] * 2 + [("x", 2, 2),
                               ("y", 1, 1), ("y", 2, 2), ("y", 3, 1)]),
        monomial_exponents(3, [("x", 1, 1)] * 2 + [("x", 2, 2),
                               ("y", 1, 1), ("y", 2, 1), ("y", 3, 2)]),
    }
    lifted = {highest_weight_vector(3, h).polynomial.leading_term()[0]
              for h in hives}
    ok = ok and lifted == expected_initials
    _report(4, "worked boundary ((3,2,1),(2,1),(2,1)): coefficient 2, pinned "
               "hives and lifted initial monomials", ok, t0)


def test_criterion_05_presentation_relations():
    t0 = time.time()
    ok = (all(r.ok for r in verify_presentation_relations(3))
          and len(verify_presentation_relations(4)) == 15
          and all(r.ok for r in verify_presentation_relations(4)))
    _report(5, "the rank-3 relation and all fifteen rank-4 relations expand to zero",
            ok, t0)


def test_criterion_06_generator_validity():
    t0 = time.time()
    ok = True
    total = 0
    for n in (2, 3, 4):
        table = build_generators(n)
        for g, h in zip(table.generators, presentation(n).basis, strict=True):
            total += 1
            ok = ok and g.weight() == Weight(*h.boundary())
            for factor in (1, 2, 3):
                for k in range(1, n):
                    ok = ok and raising_derivation(factor, k, g).is_zero
    ok = ok and total == 35
    _report(6, "all 35 generators are annihilated by every raising operator "
               "and carry their basis hives' boundaries as weights", ok, t0)


def test_criterion_07_oracle_equivalence():
    t0 = time.time()
    ok = True
    checked = 0
    for n in (2, 3, 4):
        for d in range(7):
            for lam, mu, nu in _boundary_triples(n, d):
                counts = {lr_coefficient(n, lam, mu, nu),
                          lr_via_tableaux(n, lam, mu, nu),
                          lr_via_schur(n, lam, mu, nu)}
                ok = ok and len(counts) == 1
                checked += 1
    _report(7, f"hive = tableau = Schur count on all {checked} triples with "
               "n <= 4, |lambda| <= 6", ok, t0)


def test_criterion_08_bijection_round_trip():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        for d in range(9):
            for lam, mu, nu in _boundary_triples(n, d):
                if not contains(lam, mu):
                    continue
                hives = enumerate_hives(n, lam, mu, nu)
                tabs = enumerate_tableaux(n, lam, mu, nu)
                ok = ok and len(hives) == len(tabs)
                ok = ok and all(tableau_to_hive(hive_to_tableau(h), n) == h
                                for h in hives)
                ok = ok and all(hive_to_tableau(tableau_to_hive(t, n)) == t
                                for t in tabs)
    _report(8, "tableau-hive conversion is the identity both ways on all "
               "instances with n <= 4, degree <= 8", ok, t0)


def test_criterion_09_initial_algebra_isomorphism():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        per_boundary = defaultdict(set)
        for h in hives_up_to_degree(n, 6):
            vec = highest_weight_vector(n, h)
            exps, coeff = vec.polynomial.leading_term()
            ok = ok and coeff == 1
            ok = ok and exps == lemma_initial_exponents(n, hive_to_tableau(h))
            per_boundary[h.boundary()].add(exps)
        for boundary, initials in per_boundary.items():
            ok = ok and len(initials) == lr_coefficient(
                n, boundary.lam, boundary.mu, boundary.nu)
    _report(9, "lifted initial monomials match the tableau monomial formula and "
               "are distinct within each boundary (degree <= 6, n <= 4)", ok, t0)


def test_criterion_10_appendix_fidelity():
    t0 = time.time()
    lines = inequalities_input_text(4).splitlines()
    ok = (lines[:2] == ["30", "15"] and lines[2:32] == APPENDIX_ROWS
          and lines[32:] == ["inequalities", "", "1", "15", APPENDIX_EQUATION, "equations"])
    _report(10, "rank-4 export reproduces the 30 inequality rows and the "
                "equation row byte-exactly", ok, t0)
