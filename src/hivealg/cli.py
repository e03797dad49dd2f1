"""Command-line interface.

Exit codes: 0 success, 1 domain or usage error (bad partition, malformed
hive, unknown flag, an --output path that cannot be written), 2 internal
consistency failure (a pinned cross-check diverged).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from . import cone, counting, tensor_algebra
from .hive import Hive
from .report import CheckResult, ConsistencyError, failures
from .shapes import is_dominant, normalize

COUNTING_RANKS = range(2, 9)
PRESENTED_RANKS = (2, 3, 4)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for consistency failures
        raise UsageError(f"{self.prog}: {message}")


def _parse_partition(text: str | None, flag: str):
    if text is None or text.strip() == "":
        return ()
    try:
        parts = normalize(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated integers, got {text!r}")
    if not is_dominant(parts):
        raise UsageError(f"{flag}: {text!r} is not weakly decreasing and non-negative")
    return parts


def _parse_hive(text: str, n: int) -> Hive:
    try:
        rows = [[int(v) for v in row.split(",") if v.strip() != ""]
                for row in text.split(";")]
    except ValueError:
        raise UsageError(f"--hive: expected rows of integers like '0;2,3;...', got {text!r}")
    hive = Hive.from_rows(rows)
    if hive.n != n:
        raise UsageError(f"--hive has rank {hive.n}, but -n {n} was given")
    return hive


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, text_lines, json_obj) -> None:
    _write(args, json.dumps(json_obj, indent=2) + "\n" if args.format == "json"
           else "\n".join(text_lines) + ("\n" if text_lines else ""))


def _series_text(coeffs) -> list[str]:
    terms = []
    for d, c in enumerate(coeffs):
        if d == 0:
            terms.append(str(c))
        elif d == 1:
            terms.append(f"{c}*t")
        else:
            terms.append(f"{c}*t^{d}")
    return [" ".join(str(c) for c in coeffs),
            " + ".join(terms) + " + ..."]


def _require_rank(n: int, allowed, what: str) -> None:
    if n not in allowed:
        raise UsageError(f"-n {n} is out of range for {what} "
                         f"(supported: {', '.join(str(v) for v in allowed)})")


def _boundary_args(args):
    return (_parse_partition(args.lam, "--lambda"),
            _parse_partition(args.mu, "--mu"),
            _parse_partition(args.nu, "--nu"))


def build_parser() -> _Parser:
    parser = _Parser(prog="hivealg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, boundary=False, hive=False, degree=None,
               formats=("text", "json")):
        p.add_argument("-n", type=int, required=True, help="rank of GL(n)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", help="write output to a file instead of stdout")
        if boundary:
            p.add_argument("--lambda", dest="lam", help="outer shape, e.g. 3,2,1")
            p.add_argument("--mu", help="inner shape")
            p.add_argument("--nu", help="content")
        if hive:
            p.add_argument("--hive", help="rows separated by ';', entries by ','")
        if degree is not None:
            p.add_argument("--max-degree", type=int, default=degree)

    common(sub.add_parser("lrcoef", help="Littlewood-Richardson coefficient"), boundary=True)
    common(sub.add_parser("hives", help="all hives with a given boundary"), boundary=True)
    common(sub.add_parser("tableaux", help="all LR tableaux with a given boundary"),
           boundary=True)
    p = sub.add_parser("hp-series", help="Hilbert-Poincare series coefficients")
    common(p, degree=9)
    p.add_argument("--method", choices=("enum", "closed", "both"), default=None)
    common(sub.add_parser("hilbert-basis", help="irreducible hives up to a degree bound"),
           degree=12)
    common(sub.add_parser("decompose", help="express a hive over the Hilbert basis"),
           hive=True)
    common(sub.add_parser("hwv", help="highest weight vectors for a hive or boundary"),
           boundary=True, hive=True)
    common(sub.add_parser("verify", help="run the relation/generator/identity suite"))
    common(sub.add_parser("export-cone",
                          help="emit the cone in a lattice-tool input format"),
           formats=("appendix-inequalities", "appendix-generators"))
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = _dispatch(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        code = 2
    if code == 2:
        print(f"reproduce with: hivealg {shlex.join(argv)}", file=sys.stderr)
    return code


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "lrcoef":
        _require_rank(args.n, COUNTING_RANKS, "counting")
        lam, mu, nu = _boundary_args(args)
        c = counting.lr_coefficient(args.n, lam, mu, nu)
        _emit(args, [str(c)], {"n": args.n, "lambda": list(lam), "mu": list(mu),
                               "nu": list(nu), "lr_coefficient": c})
        return 0

    if cmd == "hives":
        _require_rank(args.n, COUNTING_RANKS, "counting")
        hives = counting.enumerate_hives(args.n, *_boundary_args(args))
        _emit(args, [str(h) for h in hives], [h.to_json_dict() for h in hives])
        return 0

    if cmd == "tableaux":
        _require_rank(args.n, COUNTING_RANKS, "counting")
        from .tableau import enumerate_tableaux

        tabs = enumerate_tableaux(args.n, *_boundary_args(args))
        _emit(args, [str(t) for t in tabs], [t.to_json_dict() for t in tabs])
        return 0

    if cmd == "hp-series":
        return _hp_series(args)

    if cmd == "hilbert-basis":
        _require_rank(args.n, COUNTING_RANKS, "counting")
        basis = cone.hilbert_basis(args.n, args.max_degree)
        _emit(args, [" ".join(str(v) for v in h.flat) for h in basis],
              [h.to_json_dict() for h in basis])
        return 0

    if cmd == "decompose":
        _require_rank(args.n, PRESENTED_RANKS, "cone presentations")
        if not args.hive:
            raise UsageError("decompose requires --hive")
        hive = _parse_hive(args.hive, args.n)
        indices = cone.decompose(hive, cone.presentation(args.n))
        _emit(args, [" ".join(str(k) for k in indices)],
              {"n": args.n, "hive": hive.to_json_dict(), "indices": list(indices)})
        return 0

    if cmd == "hwv":
        return _hwv(args)

    if cmd == "verify":
        return _verify(args)

    if cmd == "export-cone":
        if args.format == "appendix-generators":
            _require_rank(args.n, PRESENTED_RANKS, "cone presentations")
            text = cone.generators_input_text(args.n)
        else:
            _require_rank(args.n, COUNTING_RANKS, "cone export")
            text = cone.inequalities_input_text(args.n)
        _write(args, text)
        return 0

    raise UsageError(f"unknown command {cmd!r}")


def _hp_series(args) -> int:
    _require_rank(args.n, COUNTING_RANKS, "counting")
    if args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    method = args.method or ("both" if args.n in PRESENTED_RANKS else "enum")
    if method != "enum" and args.n not in PRESENTED_RANKS:
        raise UsageError("closed-form series data exists only for n = 2, 3, 4")
    enum = closed = None
    if method in ("enum", "both"):
        enum = counting.hp_series_enumerated(args.n, args.max_degree)
    if method in ("closed", "both"):
        closed = counting.hp_series_reference(args.n, args.max_degree)
    if method == "both" and enum != closed:
        raise ConsistencyError(
            f"enumerated series {enum} disagrees with closed form {closed}")
    coeffs = enum if enum is not None else closed
    _emit(args, _series_text(coeffs),
          {"n": args.n, "max_degree": args.max_degree, "method": method,
           "coefficients": list(coeffs)})
    return 0


def _hwv(args) -> int:
    _require_rank(args.n, PRESENTED_RANKS, "tensor product algebras")
    if args.hive:
        if any(v is not None for v in (args.lam, args.mu, args.nu)):
            raise UsageError("hwv takes either --hive or --lambda/--mu/--nu, not both")
        vectors = [tensor_algebra.highest_weight_vector(args.n, _parse_hive(args.hive, args.n))]
    else:
        vectors = tensor_algebra.hwv_basis(args.n, *_boundary_args(args))
    from .polynomial import render_monomial

    lines = []
    for v in vectors:
        exps, _ = v.polynomial.leading_term()
        lines.append(f"hive: {v.hive}")
        lines.append(f"decomposition: {' '.join(str(k) for k in v.decomposition)}")
        lines.append(f"initial monomial: {render_monomial(args.n, exps)}")
        lines.append(f"polynomial: {v.polynomial}")
        lines.append("")
    _emit(args, lines, [v.to_json_dict() for v in vectors])
    return 0


def _verify(args) -> int:
    _require_rank(args.n, PRESENTED_RANKS, "verification")
    n = args.n
    results: list[CheckResult] = []
    results += cone.verify_relations(cone.presentation(n))
    try:
        tensor_algebra.build_generators(n)
        results.append(CheckResult(
            f"all rank-{n} generators: weights, annihilation, initial monomials", True))
    except ConsistencyError as exc:
        results.append(CheckResult(f"rank-{n} generator table", False, str(exc)))
    results += tensor_algebra.verify_presentation_relations(n)
    if n == 2:
        results += tensor_algebra.verify_independence()
    results += tensor_algebra.verify_classical_identities(n)
    lines = [r.line() for r in results]
    bad = failures(results)
    lines.append(f"{len(results) - len(bad)}/{len(results)} checks passed")
    _emit(args, lines, {"n": n, "passed": len(results) - len(bad),
                        "failed": [r.name for r in bad],
                        "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                                   for r in results]})
    return 2 if bad else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
