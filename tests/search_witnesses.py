"""The witness hives of the decomposition search (cone._search), for
test_kernel and tools/scan_search.py alike: standard library and hivealg
only, so the tool runs without the test dependencies."""

from hivealg.hive import Hive


def witness_hives(pres, facets):
    """b_k + M * sum(b_i, i in F past k), for each facet F (a set of basis
    indices from 1), level k and M = 1..3, with and without one more b_e,
    e in F; each hive once, in the order met."""
    found = {}
    for facet in facets:
        for k, base in enumerate(pres.basis, 1):
            later = [pres.basis[i - 1] for i in facet if i > k]
            for times in (1, 2, 3):
                for extra in [(), *((pres.basis[e - 1],) for e in sorted(facet))]:
                    parts = (base, *extra, *later * times)
                    found.setdefault(tuple(map(sum, zip(*(h.flat for h in parts)))), None)
    return [Hive.from_flat(flat) for flat in found]
