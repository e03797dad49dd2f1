"""Drop each bound and each update line of the generated decomposition
search (cone._search) in turn, and report which input catches the change:
first the witness hives, then every hive of degree <= 11.

    python3 tools/scan_search.py

It scans the search of each pinned presentation, n = 2, 3, 4, the only
ones decompose accepts.  The witness hives are those of
tests/search_witnesses.py, over cone._facets.  A level's only bound is not
dropped.  Each line prints with the parent output of the first input that
catches it, or MISSED; scan returns the number missed, which
tests/test_kernel.py asserts is 0.  Standard library only.
"""

import linecache
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hivealg import cone  # noqa: E402
from hivealg.cone import hives_up_to_degree, presentation  # noqa: E402
from hivealg.hive import _compile  # noqa: E402
from search_witnesses import witness_hives  # noqa: E402

RANKS, DEGREE = (2, 3, 4), 11
BOUND = re.compile(r"    (?:c(\d+) = (.+)|if (.+) < c(\d+): c\d+ = .+)")
UPDATE = re.compile(r"        s\d+ -= (?:\d+ \* )?c(\d+)")


def mutants(lines):
    """(dropped line, mutant source) for each bound and update line."""
    for at, line in enumerate(lines):
        bound, update = BOUND.fullmatch(line), UPDATE.fullmatch(line)
        if bound and bound[1] is not None:   # a level's first bound: the next one takes its place
            after = BOUND.fullmatch(lines[at + 1])
            if after is None or after[1] is not None:
                continue
            yield line, lines[:at] + [f"    c{bound[1]} = {after[3]}"] + lines[at + 2:]
        elif bound or update:
            yield line, lines[:at] + lines[at + 1:]


def scan(n):
    """Print each dropped line of the rank-n search and what catches it;
    return the number of dropped lines that no input catches."""
    pres = presentation(n)
    search = cone._search(n)
    lines = "".join(linecache.getlines(search.__code__.co_filename)).splitlines()
    facets = [{i + 1 for i in range(len(pres.basis)) if f >> i & 1} for f in cone._facets(pres)]
    inputs = [("witness hive", h.flat) for h in witness_hives(pres, facets)]
    inputs += [(f"hive of degree {h.degree}", h.flat) for h in hives_up_to_degree(n, DEGREE)]
    expected = [search(flat) for _, flat in inputs]
    missed = total = 0
    print(f"pinned presentation, n = {n}")
    for line, source in mutants(lines):
        mutant = _compile("\n".join(source) + "\n", "<scanned search>", "search")
        caught = next((f"{kind} {out}" for (kind, flat), out in zip(inputs, expected)
                       if mutant(flat) != out), None)
        total += 1
        missed += caught is None
        print(f"  {line.strip():<32} {caught or 'MISSED'}")
    print(f"n = {n}: {total - missed} of {total} dropped lines caught, {len(inputs)} inputs")
    return missed


def main() -> None:
    for n in RANKS:
        scan(n)


if __name__ == "__main__":
    main()
