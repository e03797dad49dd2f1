"""Rewrite src/hivealg/_kernels/: one module for each hive kernel
(counting._kernel, all four kinds) and each triple check
(counting._count_entry) at ranks 1 to 6, its text the source that hivealg
generates for it.

    python3 tools/regen_kernels.py

Run it after any change to what the generated sources read (counting's
_fill_plan, _kernel_source or _triple_check_source, or hive.cone_rows);
until then tests/test_kernel.py fails.  Standard library only.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hivealg import counting  # noqa: E402

KERNELS = ROOT / "src" / "hivealg" / "_kernels"
RANKS = range(1, 7)
PACKAGE_DOC = ('"""The generated hive kernels and triple checks of ranks 1 to 6, written\n'
               'by tools/regen_kernels.py: do not edit."""\n')


def shipped() -> dict[str, str]:
    """The text of every file of the package, by file name."""
    sources = {}
    for n in RANKS:
        sources[f"triple check n={n}"] = counting._triple_check_source(n)
        for pairs in (False, True):
            for count in (True, False):
                name = counting._kernel_name(n, count, pairs)
                sources[name] = counting._kernel_source(n, count, pairs)
    files = {"__init__.py": PACKAGE_DOC}
    for name, source in sources.items():
        files[counting._module_name(name).rpartition(".")[2] + ".py"] = source
    return files


def main() -> None:
    KERNELS.mkdir(exist_ok=True)
    for stale in KERNELS.glob("*.py"):
        stale.unlink()
    files = shipped()
    for name, text in files.items():
        (KERNELS / name).write_text(text)
    print(f"wrote {len(files)} files to {KERNELS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
