"""Per-layer spans and counters, recorded from outside the hivealg package.

Each traced function is replaced, at the module or class attribute its callers
look up, by a wrapper that times the call and attributes the time to a named
span.  A span's self time is its duration minus the time covered by the spans
it directly caused, so nested layers are not counted twice.  Spans are
aggregated per name in memory (calls, total and self seconds) rather than
stored one by one: a lift run makes hundreds of thousands of multiplications.
"""

from __future__ import annotations

import functools
import time


def _term_count(poly) -> int:
    terms = getattr(poly, "terms", None)
    return len(terms) if terms is not None else 0


class Tracer:
    """install() builds the wrappers once; enable() puts them in place of the
    traced functions and disable() puts the originals back, so the
    benchmark's own checks are never traced."""

    def __init__(self):
        self.stack: list[list] = []   # open spans: [name, child seconds, lr sum]
        self.spans: dict[str, list] = {}   # name -> [calls, total s, self s]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn, after=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
            if after is not None:
                after(args, result, frame)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original, self._wrap(name, original, after)))

    # -- counters attached to individual spans ------------------------------

    def _after_lr(self, args, result, frame):
        self.count("lr.nonzero", bool(result))
        self.count("lr.hives", result)
        if self.stack and self.stack[-1][0] == "counting.md_sum":
            self.stack[-1][2] += result
            self.count("md.lr_calls")

    def _after_md(self, args, result, frame):
        self.count("md.total", result)
        self.count("md.lr_sum", frame[2])

    def _after_violations(self, args, result, frame):
        self.count("violations.accepted", not result)

    def _after_hives_up_to(self, args, result, frame):
        self.count("hives_up_to_degree.hives", len(result))

    def _after_raising(self, args, result, frame):
        self.count("raising.terms_in", _term_count(args[2]))

    def _after_mul(self, args, result, frame):
        left, right = args
        right_terms = _term_count(right) if hasattr(right, "terms") else 1
        self.count("mul.term_pairs", _term_count(left) * right_terms)
        self.count("mul.terms_out", _term_count(result))

    def install(self, counting, cone, tensor_algebra, polynomial_cls) -> None:
        self._patch(counting, "lr_coefficient", "counting.lr_coefficient", self._after_lr)
        self._patch(counting, "md_sum", "counting.md_sum", self._after_md)
        self._patch(cone, "hive_violations", "hive.hive_violations", self._after_violations)
        self._patch(cone, "decompose", "cone.decompose")
        self._patch(cone, "hives_up_to_degree", "cone.hives_up_to_degree",
                    self._after_hives_up_to)
        self._patch(cone, "hilbert_basis", "cone.hilbert_basis")
        self._patch(tensor_algebra, "raising_derivation", "polynomial.raising_derivation",
                    self._after_raising)
        self._patch(tensor_algebra, "hive_to_tableau", "tableau.hive_to_tableau")
        self._patch(tensor_algebra, "highest_weight_vector",
                    "tensor_algebra.highest_weight_vector")
        self._patch(tensor_algebra, "build_generators", "tensor_algebra.build_generators")
        self._patch(tensor_algebra, "verify_presentation_relations", "tensor_algebra.verify")
        self._patch(tensor_algebra, "verify_classical_identities", "tensor_algebra.verify")
        for attr in ("__mul__", "__rmul__"):
            self._patch(polynomial_cls, attr, "polynomial.mul", self._after_mul)
        for attr in ("__add__", "__radd__"):
            self._patch(polynomial_cls, attr, "polynomial.add")
        self._patch(polynomial_cls, "__str__", "polynomial.render")
        self.enable()

    def enable(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values, named as in BENCHMARK.json's per_layer list."""
        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return self.spans.get(name, [0, 0.0, 0.0])[2]

        def ratio(part, whole):
            return part / whole if whole else 0.0

        c = self.counts.get
        return {
            "counting.lr_coefficient.calls": calls("counting.lr_coefficient"),
            "counting.lr_coefficient.self_s": self_s("counting.lr_coefficient"),
            "counting.lr_coefficient.nonzero_ratio":
                ratio(c("lr.nonzero", 0), calls("counting.lr_coefficient")),
            "counting.hives_counted": c("lr.hives", 0),
            "counting.md_sum.calls": calls("counting.md_sum"),
            "counting.md_sum.self_s": self_s("counting.md_sum"),
            "cone.hives_up_to_degree.self_s": self_s("cone.hives_up_to_degree"),
            "cone.hives_up_to_degree.hives": c("hives_up_to_degree.hives", 0),
            "cone.hilbert_basis.self_s": self_s("cone.hilbert_basis"),
            "cone.decompose.calls": calls("cone.decompose"),
            "cone.decompose.self_s": self_s("cone.decompose"),
            "hive.hive_violations.calls": calls("hive.hive_violations"),
            "hive.hive_violations.self_s": self_s("hive.hive_violations"),
            "hive.hive_violations.accept_ratio":
                ratio(c("violations.accepted", 0), calls("hive.hive_violations")),
            "polynomial.mul.calls": calls("polynomial.mul"),
            "polynomial.mul.self_s": self_s("polynomial.mul"),
            "polynomial.mul.term_pairs": c("mul.term_pairs", 0),
            "polynomial.mul.terms_out": c("mul.terms_out", 0),
            "polynomial.add.calls": calls("polynomial.add"),
            "polynomial.add.self_s": self_s("polynomial.add"),
            "polynomial.raising_derivation.calls": calls("polynomial.raising_derivation"),
            "polynomial.raising_derivation.self_s": self_s("polynomial.raising_derivation"),
            "polynomial.raising_derivation.terms_in": c("raising.terms_in", 0),
            "polynomial.render.self_s": self_s("polynomial.render"),
            "tableau.hive_to_tableau.calls": calls("tableau.hive_to_tableau"),
            "tableau.hive_to_tableau.self_s": self_s("tableau.hive_to_tableau"),
            "tensor_algebra.highest_weight_vector.self_s":
                self_s("tensor_algebra.highest_weight_vector"),
            "tensor_algebra.verify.self_s": self_s("tensor_algebra.verify"),
            "tensor_algebra.build_generators.self_s":
                self_s("tensor_algebra.build_generators"),
        }
