"""Command line entry point.

Verbs: check, build, extract, solve, catalog, verify.  Exit codes are
uniform: 0 for success or a passing check, 1 for a failing check or a
refused build (witnesses always printed), 2 for unusable input, whether
that is bad arguments, unreadable files, malformed JSON, a document
that does not match its layout, or a structure whose base or top
algebra is not Zinbiel.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .acceptance import verify_paper
from .core import is_zinbiel
from .exactlin import Matrix, Tensor3, rat, rat_str, vunit
from .extending import (ExtendingDatum, InclusionPresentation, build_unified,
                        extract_datum, verify_datum)
from .flag import flag_to_datum, solve_reduced, verify_flag
from .jsonio import (FormatError, algebra_from_json, algebra_to_json,
                     bimodule_from_json, crossed_from_json, datum_from_json,
                     datum_to_json, dumps, family_to_json,
                     flag_datum_from_json, flag_datum_to_json,
                     matched_from_json, report_to_json)
from .products import bicrossed, crossed, is_bimodule, r_deform, semidirect


class CLIError(Exception):
    """Carries the exit code the error deserves."""

    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CLIError(2, f"{path}: {exc.strerror or exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CLIError(2, f"{path}: line {exc.lineno} column {exc.colno}: "
                       f"{exc.msg}") from None


def _parse(path, reader):
    try:
        return reader(_load(path))
    except FormatError as exc:
        raise CLIError(2, f"{path}: {exc}") from None
    except ValueError as exc:
        raise CLIError(2, f"{path}: {exc}") from None


def _print_report(report, as_json):
    if as_json:
        print(dumps(report_to_json(report)), end="")
        return
    for r in report.condition_results:
        if r.passed:
            print(f"{r.label}: pass")
        else:
            w = r.witness
            at = ",".join(str(i) for i in w.basis_tuple)
            lhs = "(" + ", ".join(rat_str(c) for c in w.lhs_value) + ")"
            rhs = "(" + ", ".join(rat_str(c) for c in w.rhs_value) + ")"
            print(f"{r.label}: FAIL at ({at}): lhs {lhs} != rhs {rhs}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"report: {'PASS' if report.passed else 'FAIL'}")


def _checked(path, check, value):
    # A check refuses input that misses its precondition, such as a base
    # algebra that is not Zinbiel; that input is unusable, so exit 2.
    try:
        return check(value)
    except ValueError as exc:
        raise CLIError(2, f"{path}: {exc}") from None


def _cmd_check(args) -> int:
    reader, check = {
        "zinbiel": (algebra_from_json, is_zinbiel),
        "datum": (datum_from_json, verify_datum),
        "crossed": (crossed_from_json, lambda cs: crossed(cs)[0]),
        "matched": (matched_from_json, lambda mp: bicrossed(mp)[0]),
        "flag": (flag_datum_from_json, verify_flag),
        "bimodule": (bimodule_from_json, is_bimodule),
    }[args.subject]
    report = _checked(args.path, check, _parse(args.path, reader))
    _print_report(report, args.json)
    return 0 if report.passed else 1


def _refuse(report, as_json) -> int:
    _print_report(report, as_json)
    print("build refused; pass --force to build the raw table anyway",
          file=sys.stderr)
    return 1


def _cmd_build(args) -> int:
    kind = args.subject
    paths = args.paths
    want = 2 if kind == "rdeform" else 1
    if len(paths) != want:
        raise CLIError(2, f"build {kind} takes {want} input file(s), "
                       f"got {len(paths)}")
    if kind == "unified":
        d = _parse(paths[0], datum_from_json)
        report = _checked(paths[0], verify_datum, d)
        if not report.passed and not args.force:
            return _refuse(report, args.json)
        alg = build_unified(d, force=True)
    elif kind == "semidirect":
        b = _parse(paths[0], bimodule_from_json)
        report = _checked(paths[0], is_bimodule, b)
        if not report.passed and not args.force:
            return _refuse(report, args.json)
        if report.passed:
            alg = semidirect(b)
        else:
            n, m = b.base.dim, b.dimV
            alg = build_unified(ExtendingDatum(
                b.base, m, b.actL, b.actR, Tensor3.zero(n, m, n),
                Tensor3.zero(m, n, n), Tensor3.zero(m, m, n),
                Tensor3.zero(m, m, m)), force=True)
    elif kind == "crossed":
        report, alg = _checked(paths[0], crossed,
                               _parse(paths[0], crossed_from_json))
        if not report.passed and not args.force:
            return _refuse(report, args.json)
    elif kind == "bicrossed":
        report, alg = bicrossed(_parse(paths[0], matched_from_json))
        if not report.passed and not args.force:
            return _refuse(report, args.json)
    elif kind == "flag":
        fd = _parse(paths[0], flag_datum_from_json)
        report = _checked(paths[0], verify_flag, fd)
        if not report.passed and not args.force:
            return _refuse(report, args.json)
        alg = build_unified(flag_to_datum(fd), force=True)
    else:
        mp = _parse(paths[0], matched_from_json)
        r_rows = _load(paths[1])
        try:
            r = Matrix.from_rows([[rat(c) for c in row] for row in r_rows])
        except (TypeError, ValueError) as exc:
            raise CLIError(2, f"{paths[1]}: not a rational matrix: {exc}") from None
        try:
            alg = r_deform(mp, r)
        except ValueError as exc:
            print(f"rdeform: {exc}", file=sys.stderr)
            return 1
    print(dumps(algebra_to_json(alg)), end="")
    return 0


def _cmd_extract(args) -> int:
    total = _parse(args.path, algebra_from_json)
    try:
        picks = [int(s) for s in args.z.split(",") if s.strip()]
    except ValueError:
        raise CLIError(2, f"--z {args.z!r}: expected comma-separated indices") from None
    n = total.dim
    if (not picks or len(set(picks)) != len(picks)
            or any(not 1 <= i <= n for i in picks) or len(picks) >= n):
        raise CLIError(2, f"--z must name a proper nonempty subset of 1..{n}")
    rest = [i for i in range(1, n + 1) if i not in picks]
    p = InclusionPresentation(
        total,
        Matrix.from_rows([list(vunit(n, i - 1)) for i in picks]),
        Matrix.from_rows([list(vunit(n, i - 1)) for i in rest]))
    try:
        d = extract_datum(p)
    except ValueError as exc:
        print(f"extract: {exc}", file=sys.stderr)
        return 1
    print(dumps(datum_to_json(d)), end="")
    return 0


def _cmd_solve(args) -> int:
    z = _parse(args.path, algebra_from_json)
    try:
        mu = tuple(rat(s.strip()) for s in args.mu.split(","))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise CLIError(2, f"--mu {args.mu!r}: {exc}") from None
    try:
        fam = solve_reduced(z, mu, args.mode)
    except ValueError as exc:
        raise CLIError(2, str(exc)) from None
    print(json.dumps(family_to_json(fam)))
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for fid in catalog.all_ids():
            req = catalog.required_params(fid)
            print(fid if not req else f"{fid}  params: {', '.join(req)}")
        return 0
    params = {}
    for item in args.param or []:
        key, sep, val = item.partition("=")
        if not sep or not key:
            raise CLIError(2, f"--param {item!r}: expected name=value")
        try:
            params[key] = rat(val)
        except (ValueError, ZeroDivisionError, TypeError):
            raise CLIError(2, f"--param {item!r}: value is not rational") from None
    fid = args.id
    try:
        if fid in catalog.flag_family_ids():
            doc = flag_datum_to_json(catalog.get_flag_datum(fid, params))
        else:
            doc = algebra_to_json(catalog.get_algebra(fid, params))
    except catalog.FixtureError as exc:
        raise CLIError(2, str(exc)) from None
    print(dumps(doc), end="")
    return 0


def _cmd_verify(args) -> int:
    summary = verify_paper()
    if args.json:
        print(dumps(summary), end="")
    else:
        for c in summary["criteria"]:
            mark = "pass" if c["passed"] else "FAIL"
            print(f"criterion {c['criterion']:2d}: {mark}  {c['name']}")
            print(f"              {c['detail']}")
        for note in summary["known_inconsistencies"]:
            print(f"note: {note}")
        print(f"criteria run: {summary['criteria_run']}")
        print(f"overall: {'PASS' if summary['passed'] else 'FAIL'}")
    return 0 if summary["passed"] else 1


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="zinbiel")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="run a condition report on a JSON input")
    p.add_argument("subject", choices=["zinbiel", "datum", "crossed",
                                       "matched", "flag", "bimodule"])
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("build", help="build a product algebra from JSON input")
    p.add_argument("subject", choices=["unified", "semidirect", "crossed",
                                       "bicrossed", "flag", "rdeform"])
    p.add_argument("paths", nargs="+")
    p.add_argument("--force", action="store_true",
                   help="build the raw table even when the report fails")
    p.add_argument("--json", action="store_true",
                   help="machine form for a refusal report")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("extract", help="read the six maps off an inclusion")
    p.add_argument("path")
    p.add_argument("--z", required=True,
                   help="comma-separated 1-based coordinates spanning Z")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("solve", help="solve the reduced one-dimensional system")
    p.add_argument("subject", choices=["flag"])
    p.add_argument("path")
    p.add_argument("--mode", required=True, choices=["D", "T"])
    p.add_argument("--mu", required=True)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("catalog", help="list or emit built-in fixtures")
    act = p.add_subparsers(dest="action", required=True)
    q = act.add_parser("list")
    q.set_defaults(fn=_cmd_catalog)
    q = act.add_parser("emit")
    q.add_argument("id")
    q.add_argument("--param", action="append", metavar="k=v")
    q.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("subject", choices=["paper"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return top


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def main() -> None:
    sys.exit(run())
