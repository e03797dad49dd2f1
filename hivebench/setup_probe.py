"""Time `import hivealg` plus the lazy set-up a workload pays before its
first operation, in an interpreter that has imported nothing else, and print
the seconds as JSON.

    python3 hivebench/setup_probe.py <workload>
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def lazy_setup(workload: str) -> None:
    """The set-up that a workload's first operation would otherwise pay."""
    from hivealg import cone, tensor_algebra

    if workload in ("decompose", "lift"):
        cone.presentation(4)
    if workload == "lift":
        tensor_algebra.build_generators(4)


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import hivealg  # noqa: F401

    lazy_setup(sys.argv[1])
    print('{"setup_s": %r}' % (time.perf_counter() - start))
