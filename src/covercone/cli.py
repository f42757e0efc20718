"""Command-line front end over the JSON file formats.

Exit codes: 0 success, 1 negative domain verdict (not in cone, on the boundary,
not implied, infeasible/inconclusive, zero projection), 2 usage errors or an
input file that is malformed or unreadable, 3 resource limit, output or
internal failure (any RuntimeError: an enumeration or pivot budget ran out,
`imply --emit-body` got a witness outside the cone (a partial `--kmax`), exp
left the decimal exponent range, or a self-check failed; an OSError writing
`--out`, `--emit-body` or stdout, or a stdout closed at start); codes 2 and 3
print one `error: ...` line.

Importing this module registers every other submodule in sys.modules, but a
submodule runs only on its first attribute access, so a command compiles only
the modules it calls.  They reach each other only as `module.name`, never by
a from-import, so running one runs no other that the command does not call.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

for _name in ("boxgeom", "cone", "covers", "farkas", "realize", "simplex", "witness"):
    if f"{__package__}.{_name}" not in sys.modules:
        _spec = importlib.util.find_spec(f"{__package__}.{_name}")
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        _module = importlib.util.module_from_spec(_spec)
        sys.modules[_spec.name] = _module
        # set before any `from . import`, which would otherwise read the spec and run it
        setattr(sys.modules[__package__], _name, _module)
        _spec.loader.exec_module(_module)

from . import boxgeom, cone, covers, farkas, realize, witness
from .core import (
    FormatError,
    MAX_DIMENSION,
    ProjectionVector,
    canonical_subset_order,
    format_rational,
    format_subset,
    log_fraction,
    parse_integer,
    parse_rational,
    parse_subset,
    read_vector,
    vector_to_obj,
    write_vector,
)


def _print(obj) -> None:
    print(json.dumps(obj, indent=2))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        why = "not found" if isinstance(exc, FileNotFoundError) else f"unreadable ({exc.strerror})"
        raise FormatError(f"input file {why}: {path}") from None


def _cover_objs(items) -> list[dict]:
    return [covers.cover_to_obj(c) for c in items]


def _gap(value: Fraction) -> str:
    return repr(float(value))


def cmd_covers(args) -> int:
    ground = parse_subset(args.ground, MAX_DIMENSION)
    k_max = covers.check_k_max(ground, args.kmax)
    if args.irreducible:
        found = covers.irreducible_covers(ground, k_max)
    else:
        found = covers.enumerate_covers(ground, k_max)
    _print({"ground": format_subset(ground), "k_max": k_max, "count": len(found),
            "covers": _cover_objs(found)})
    return 0


def cmd_member(args) -> int:
    v = read_vector(_read_text(args.vector))
    system = cone.build_bt_system(v.n)
    report = cone.membership(system, v)
    _print({
        "n": v.n,
        "inside": report.inside,
        "violated": _cover_objs(report.violated),
        "tight": _cover_objs(report.tight),
    })
    return 0 if report.inside else 1


def cmd_imply(args) -> int:
    ineq = farkas.read_inequality(_read_text(args.inequality))
    system = cone.build_bt_system(ineq.n, args.kmax)
    result = farkas.check_implication(system, ineq)
    inequality = cone.format_inequality(ineq.coeffs)
    if isinstance(result, farkas.FarkasCertificate):
        _print({
            "inequality": inequality,
            "implied": True,
            "certificate": farkas.certificate_to_obj(system, result),
        })
        return 0
    out = {
        "inequality": inequality,
        "implied": False,
        "witness": vector_to_obj(result.vector),
        "violation_gap": format_rational(-ineq.evaluate(result.vector)),
    }
    if args.emit_body:
        report = farkas.violating_body(ineq, result.vector)
        Path(args.emit_body).write_text(boxgeom.write_body(report.body), encoding="utf-8")
        out["body_file"] = args.emit_body
        out["body"] = {
            "lambda": str(report.lam),
            "exponent_scale": report.exponent_scale,
            "lhs_product": format_rational(report.lhs_product),
            "rhs_product": format_rational(report.rhs_product),
            "violated": report.violated,
        }
    _print(out)
    return 1


def cmd_realize(args) -> int:
    v = read_vector(_read_text(args.vector))
    cap = realize.DEFAULT_LAMBDA_CAP if args.lambda_cap is None else parse_rational(args.lambda_cap)
    try:
        result = realize.find_lambda(v, cap)
    except realize.NotInConeError as exc:
        _print({"realized": False, "reason": "not-in-cone", "detail": str(exc)})
        return 1
    except realize.BoundaryError as exc:
        _print({"realized": False, "reason": "boundary", "detail": str(exc)})
        return 1
    except realize.InconclusiveError as exc:
        _print({"realized": False, "reason": "inconclusive", "detail": str(exc),
                "lambda_cap": format_rational(cap)})
        return 1
    Path(args.out).write_text(boxgeom.write_body(result.body), encoding="utf-8")
    report = {
        "realized": True,
        "lambda": format_rational(result.lam),
        "body_file": args.out,
        "max_gap": _gap(max(result.residual_report.values())),
        "gaps": {format_subset(m): _gap(g) for m, g in result.residual_report.items()},
        # volumes can exceed float range at large lambda; report their logs
        "steps": [
            {
                "ground": format_subset(step.ground),
                "log_z": {
                    format_subset(a): repr(float(log_fraction(vol)))
                    for a, vol in sorted(step.z.items())
                },
            }
            for step in result.steps
        ],
    }
    _print(report)
    return 0


def cmd_project(args) -> int:
    body = boxgeom.read_body(_read_text(args.body))
    volumes = {m: boxgeom.projection_volume(body, m) for m in canonical_subset_order(body.n)}
    shown = {format_subset(m): format_rational(vol) for m, vol in volumes.items()}
    zero = [format_subset(m) for m, vol in volumes.items() if vol == 0]
    if zero:
        _print({
            "constructible": False,
            "volumes": shown,
            "zero_projections": zero,
            "detail": "some projection has measure zero, so its log is undefined",
        })
        return 1
    vector = ProjectionVector(body.n, {m: log_fraction(vol) for m, vol in volumes.items()})
    Path(args.out).write_text(write_vector(vector), encoding="utf-8")
    _print({"constructible": True, "volumes": shown, "vector_file": args.out})
    return 0


def cmd_system(args) -> int:
    system = cone.build_bt_system(args.n)
    text = system.h_representation()
    if text:
        print(text)
    return 0


def cmd_witness(args) -> int:
    v = witness.theorem9_vector(args.n)
    report = witness.analyze_witness(v)
    _print({
        "n": args.n,
        "vector": vector_to_obj(v),
        "in_cone": report.in_cone,
        "tight": _cover_objs(report.tight),
        "obstruction_lhs": format_rational(report.obstruction_lhs),
        "obstruction_rhs": format_rational(report.obstruction_rhs),
        "obstruction_holds": report.obstruction_holds,
    })
    return 0 if report.in_cone else 1


def cmd_shearer(args) -> int:
    family = witness.read_family(_read_text(args.family))
    cover = covers.cover_from_json(_read_text(args.cover))
    report = witness.shearer_check(family, cover.parts, cover.k)
    _print({
        "family_size": len(family.members),
        "k": cover.k,
        "trace_sizes": list(report.trace_sizes),
        "lhs_product": report.lhs_product,
        "rhs_power": report.rhs_power,
        "holds": report.holds,
    })
    return 0 if report.holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covercone",
        description="Exact computation with the uniform-cover cone of log projection volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("covers", help="enumerate uniform covers of a ground set")
    p.add_argument("--ground", required=True, help="comma-separated elements, e.g. 1,2,3")
    p.add_argument("--kmax", type=parse_integer, default=None,
                   help="list only covers of multiplicity k <= KMAX (default: |ground|)")
    p.add_argument("--irreducible", action="store_true")
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("member", help="test cone membership of a vector file")
    p.add_argument("--vector", required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("imply", help="certificate or witness for an inequality file")
    p.add_argument("--inequality", required=True)
    p.add_argument("--emit-body", default=None, help="write a violating body here")
    p.add_argument("--kmax", type=parse_integer, default=None,
                   help="use only covers with k <= KMAX (default: the complete cone, which "
                        "any KMAX >= n also gives); below |Y| the cone is partial, so a "
                        "certificate is still valid but a refutation may be wrong")
    p.set_defaults(func=cmd_imply)

    p = sub.add_parser("realize", help="construct a body for a scaled interior vector")
    p.add_argument("--vector", required=True)
    p.add_argument("--lambda-cap", help="give up past this lambda (default: 1024)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("project", help="exact projection volumes and log vector of a body")
    p.add_argument("--body", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("system", help="print the generator list as plain-text inequalities")
    p.add_argument("--n", type=parse_integer, required=True)
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("witness", help="analyze the boundary witness vector")
    p.add_argument("--n", type=parse_integer, required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("shearer", help="discrete product-theorem check for a set family")
    p.add_argument("--family", required=True)
    p.add_argument("--cover", required=True, help="its multiplicity k is the one checked")
    p.set_defaults(func=cmd_shearer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if value == []:  # argparse as of Python 3.11 reads `--opt=--` as [], skipping `type`
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    if sys.stdout is None:  # fd 1 was closed at start, so nothing could be printed
        print("error: stdout is closed", file=sys.stderr)
        return 3
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ValueError as exc:  # includes FormatError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:  # _read_text made input OSErrors FormatErrors
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself failed: let the flush at exit go to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


def run() -> None:
    """The process entry point: `python -m covercone` and the `covercone` script."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()  # shutdown's collections then skip the objects it is about to free anyway


if __name__ == "__main__":
    run()
