"""Command-line interface.

Exit codes: 0 success, 1 domain or usage error (bad partition, malformed
hive, unknown flag, an unwritable --output path, an output too large to
build), 2 internal consistency failure (a pinned cross-check diverged).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from . import cone, counting, tableau, tensor_algebra
from .hive import Hive
from .polynomial import render_monomial
from .report import CheckResult, ConsistencyError
from .shapes import is_dominant, normalize

COUNTING_RANKS = range(2, 9)
PRESENTED_RANKS = tuple(cone.HILBERT_BASIS_COORDS)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for consistency failures
        raise UsageError(f"{self.prog}: {message}")

    def _get_values(self, action, arg_strings):  # Python 3.11 reads "--mu=--" as []
        if arg_strings == ["--"] and action.option_strings:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


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
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, text_lines, json_obj) -> None:  # builds the --format form alone
    _write(args, json.dumps(json_obj(), indent=2) + "\n" if args.format == "json"
           else "".join(line + "\n" for line in text_lines()))


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


def _boundary_args(args):
    return (_parse_partition(args.lam, "--lambda"),
            _parse_partition(args.mu, "--mu"),
            _parse_partition(args.nu, "--nu"))


def build_parser() -> _Parser:
    """One subparser per subcommand, each stating its flags, its handler and,
    for each --format choice, the ranks -n may take with the wording that
    rejects any other.  A handler writes the output and returns None, or
    the exit code when that is not 0."""
    parser = _Parser(prog="hivealg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, formats, boundary=False, hive=False, degree=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, formats=formats)
        p.add_argument("-n", type=int, required=True, help="rank of GL(n)")
        p.add_argument("--format", choices=tuple(formats), default=next(iter(formats)))
        p.add_argument("--output", help="write output to a file instead of stdout")
        if boundary:
            p.add_argument("--lambda", dest="lam", help="outer shape, e.g. 3,2,1")
            p.add_argument("--mu", help="inner shape")
            p.add_argument("--nu", help="content")
        if hive:
            p.add_argument("--hive", help="rows separated by ';', entries by ','")
        if degree is not None:
            p.add_argument("--max-degree", type=int, default=degree)
        return p

    def text_or_json(ranks, what):
        return dict.fromkeys(("text", "json"), (ranks, what))

    counted = text_or_json(COUNTING_RANKS, "counting")
    command("lrcoef", "Littlewood-Richardson coefficient", _lrcoef, counted, boundary=True)
    command("hives", "all hives with a given boundary", _hives, counted, boundary=True)
    command("tableaux", "all LR tableaux with a given boundary", _tableaux, counted,
            boundary=True)
    command("hp-series", "Hilbert-Poincare series coefficients", _hp_series, counted,
            degree=9).add_argument("--method", choices=("enum", "closed", "both"), default=None)
    command("hilbert-basis", "irreducible hives up to a degree bound", _hilbert_basis,
            counted, degree=12)
    command("decompose", "express a hive over the Hilbert basis", _decompose,
            text_or_json(PRESENTED_RANKS, "cone presentations"), hive=True)
    command("hwv", "highest weight vectors for a hive or boundary", _hwv,
            text_or_json(PRESENTED_RANKS, "tensor product algebras"), boundary=True, hive=True)
    command("verify", "run the relation/generator/identity suite", _verify,
            text_or_json(PRESENTED_RANKS, "verification"))
    command("export-cone", "emit the cone in a lattice-tool input format", _export_cone,
            {"appendix-inequalities": (COUNTING_RANKS, "cone export"),
             "appendix-generators": (PRESENTED_RANKS, "cone presentations")})
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        ranks, what = args.formats[args.format]
        if args.n not in ranks:
            raise UsageError(f"-n {args.n} is out of range for {what} "
                             f"(supported: {', '.join(str(v) for v in ranks)})")
        code = args.handler(args) or 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    except MemoryError:
        print("error: the output is too large to build", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        code = 2
    if code == 2:
        print(f"reproduce with: hivealg {shlex.join(argv)}", file=sys.stderr)
    return code


def _lrcoef(args) -> None:
    lam, mu, nu = _boundary_args(args)
    c = counting.lr_coefficient(args.n, lam, mu, nu)
    _emit(args, lambda: [str(c)], lambda: {"n": args.n, "lambda": list(lam), "mu": list(mu),
                                           "nu": list(nu), "lr_coefficient": c})


def _hives(args) -> None:
    hives = counting.enumerate_hives(args.n, *_boundary_args(args))
    _emit(args, lambda: map(str, hives), lambda: [h.to_json_dict() for h in hives])


def _tableaux(args) -> None:
    tabs = tableau.enumerate_tableaux(args.n, *_boundary_args(args))
    _emit(args, lambda: map(str, tabs), lambda: [t.to_json_dict() for t in tabs])


def _hp_series(args) -> None:
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
    _emit(args, lambda: _series_text(coeffs),
          lambda: {"n": args.n, "max_degree": args.max_degree, "method": method,
                   "coefficients": list(coeffs)})


def _hilbert_basis(args) -> None:
    basis = cone.hilbert_basis(args.n, args.max_degree)
    _emit(args, lambda: (" ".join(map(str, h.flat)) for h in basis),
          lambda: [h.to_json_dict() for h in basis])


def _decompose(args) -> None:
    if args.hive is None:
        raise UsageError("decompose requires --hive")
    hive = _parse_hive(args.hive, args.n)
    indices = cone.decompose(hive, cone.presentation(args.n))
    _emit(args, lambda: [" ".join(map(str, indices))],
          lambda: {"n": args.n, "hive": hive.to_json_dict(), "indices": list(indices)})


def _hwv(args) -> None:
    if args.hive is not None:
        if any(v is not None for v in (args.lam, args.mu, args.nu)):
            raise UsageError("hwv takes either --hive or --lambda/--mu/--nu, not both")
        vectors = [tensor_algebra.highest_weight_vector(args.n, _parse_hive(args.hive, args.n))]
    else:
        vectors = tensor_algebra.hwv_basis(args.n, *_boundary_args(args))
    _emit(args, lambda: (line for v in vectors for line in (
        f"hive: {v.hive}", f"decomposition: {' '.join(map(str, v.decomposition))}",
        f"initial monomial: {render_monomial(args.n, v.polynomial.leading_term()[0])}",
        f"polynomial: {v.polynomial}", "")), lambda: [v.to_json_dict() for v in vectors])


def _verify(args) -> int:
    n = args.n
    results: list[CheckResult] = []
    results += cone.verify_relations(cone.presentation(n))
    tensor_algebra.build_generators(n)
    results.append(CheckResult(
        f"all rank-{n} generators: weights, annihilation, initial monomials", True))
    results += tensor_algebra.verify_presentation_relations(n)
    if n == 2:
        results += tensor_algebra.verify_independence()
    results += tensor_algebra.verify_classical_identities(n)
    bad = [r for r in results if not r.ok]
    _emit(args, lambda: [*(r.line() for r in results),
                         f"{len(results) - len(bad)}/{len(results)} checks passed"],
          lambda: {"n": n, "passed": len(results) - len(bad), "failed": [r.name for r in bad],
                   "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                              for r in results]})
    return 2 if bad else 0


def _export_cone(args) -> None:
    _write(args, cone.generators_input_text(args.n) if args.format == "appendix-generators"
           else cone.inequalities_input_text(args.n))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
