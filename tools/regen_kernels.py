"""Rewrite src/hivealg/_kernels/: one module for each hive kernel
(counting._kernel, all four kinds) at ranks 1 to 6, its text the source
that hivealg generates for it.

    python3 tools/regen_kernels.py

Run it after any change to what the generated sources read (counting's
_fill_plan or _kernel_source, or hive.cone_rows); until then
tests/test_kernel.py fails.  Standard library only.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hivealg import counting  # noqa: E402

KERNELS = ROOT / "src" / "hivealg" / "_kernels"
RANKS = range(1, 7)
PACKAGE_DOC = ('"""The generated hive kernels of ranks 1 to 6, written by\n'
               'tools/regen_kernels.py: do not edit."""\n')


def shipped() -> dict[str, str]:
    """The text of every file of the package, by file name."""
    files = {"__init__.py": PACKAGE_DOC}
    for n in RANKS:
        for pairs in (False, True):
            for count in (True, False):
                module = counting._module_name(counting._kernel_name(n, count, pairs))
                files[module.rpartition(".")[2] + ".py"] = counting._kernel_source(n, count, pairs)
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
