"""Command-line front end over the JSON file formats.

Exit codes: 0 success, 1 negative domain verdict (not in cone, on the boundary,
not implied, infeasible/inconclusive, zero projection), 2 usage errors or an
input file that is malformed or unreadable, 3 resource limit, output or
internal failure (any RuntimeError: an enumeration or pivot budget ran out,
`imply --emit-body` got a witness outside the cone (a partial `--kmax`), exp
left the decimal exponent range, or a self-check failed; an OSError writing
`--out`, `--emit-body` or stdout, or a stdout closed at start, also under
`--help`, with or without PYTHONUNBUFFERED); codes 2 and 3 print one
`error: ...` line on stderr, or none when stderr is closed, except argparse's
usage errors, which print a `usage:` line and then `covercone: error: ...`,
or `covercone <cmd>: error: ...` for a command's options.

One table, COMMANDS, holds each command's handler, help line and options.
parse_args reads a well-formed command line from it directly; argparse is
imported, inside build_parser, only for `--help` and usage errors.

Importing this module registers every other submodule in sys.modules, but a
submodule runs only on its first attribute access, so a command compiles only
the modules it calls.  They reach each other only as `module.name`, never by
a from-import, so running one runs no other that the command does not call.
"""

from __future__ import annotations

import gc
import importlib.util
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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
            "certificate": farkas.certificate_to_obj(result),
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
    result = realize.find_lambda(v, cap)
    if isinstance(result, realize.Refusal):
        refusal = {"realized": False, **result._asdict()}
        if result.reason == "inconclusive":
            refusal["lambda_cap"] = format_rational(cap)
        _print(refusal)
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


#: command -> (handler, help line, options); each option maps its flag to its
#: add_argument keywords.  build_parser and parse_args both read this table.
COMMANDS = {
    "covers": (cmd_covers, "enumerate uniform covers of a ground set", {
        "--ground": {"required": True, "help": "comma-separated elements, e.g. 1,2,3"},
        "--kmax": {"type": parse_integer, "default": None,
                   "help": "list only covers of multiplicity k <= KMAX (default: |ground|)"},
        "--irreducible": {"action": "store_true"},
    }),
    "member": (cmd_member, "test cone membership of a vector file", {
        "--vector": {"required": True},
    }),
    "imply": (cmd_imply, "certificate or witness for an inequality file", {
        "--inequality": {"required": True},
        "--emit-body": {"default": None, "help": "write a violating body here"},
        "--kmax": {"type": parse_integer, "default": None,
                   "help": "use only covers with k <= KMAX (default: the complete cone, which "
                           "any KMAX >= n also gives); below |Y| the cone is partial, so a "
                           "certificate is still valid but a refutation may be wrong"},
    }),
    "realize": (cmd_realize, "construct a body for a scaled interior vector", {
        "--vector": {"required": True},
        "--lambda-cap": {"help": "give up past this lambda (default: 1024)"},
        "--out": {"required": True},
    }),
    "project": (cmd_project, "exact projection volumes and log vector of a body", {
        "--body": {"required": True},
        "--out": {"required": True},
    }),
    "system": (cmd_system, "print the generator list as plain-text inequalities", {
        "--n": {"type": parse_integer, "required": True},
    }),
    "witness": (cmd_witness, "analyze the boundary witness vector", {
        "--n": {"type": parse_integer, "required": True},
    }),
    "shearer": (cmd_shearer, "discrete product-theorem check for a set family", {
        "--family": {"required": True},
        "--cover": {"required": True, "help": "its multiplicity k is the one checked"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here only, so a well-formed command line skips its ~2.6 ms import and build

    parser = argparse.ArgumentParser(
        prog="covercone",
        description="Exact computation with the uniform-cover cone of log projection volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give a command name followed only by its
    own long options, each at most once, as `--opt VALUE`, `--opt=VALUE` or a
    bare flag, every value nonempty, not starting with `-` and converted by
    its `type`, every required option present; None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, "")
        if not value or value.startswith("-"):
            return None
        convert = keywords.get("type")
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError):
                return None
        given[flag] = value
    fields = {"command": argv[0]}
    for flag, keywords in options.items():
        if flag not in given and keywords.get("required"):
            return None
        default = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        fields[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**fields, func=func)


def parse_args(argv=None):
    """The command line as argparse reads it, through argparse only for
    `--help`, usage errors and any argv that _parse_plain does not take."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        for name, value in vars(args).items():
            if value == []:  # argparse as of Python 3.11 reads `--opt=--` as [], skipping `type`
                parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    return args


def _error(message: object) -> None:
    """One `error:` line on stderr, dropped when a launcher left fd 2 open on
    something unwritable (run then sends the failed line to devnull)."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass


def main(argv=None) -> int:
    if sys.stderr is None:  # fd 2 was closed at start; print(file=None) would write to stdout
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    closed = sys.stdout is None  # fd 1 was closed at start, so nothing can be printed
    if closed:  # argparse would print --help on stderr instead
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    try:
        # argparse prints --help into a buffer that main writes, so a failed
        # write fails here: unbuffered, 3.11's argparse drops it, 3.10's exits 2
        stdout, sys.stdout = sys.stdout, io.StringIO()
        try:
            args = parse_args(argv)
        except OSError:  # Python 3.10's argparse lets a failed write of its usage out; 3.11 exits 2
            return 2
        except SystemExit as exc:  # argparse printed --help (code 0), or a usage error
            if exc.code or not closed:
                stdout.write(sys.stdout.getvalue())
                stdout.flush()  # a closed pipe fails --help here, as it fails a command's output
                raise
        finally:
            sys.stdout = stdout
        if closed:  # nothing runs, --help included
            raise OSError("stdout is closed")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ValueError as exc:  # includes FormatError
        _error(exc)
        return 2
    except (RuntimeError, OSError) as exc:  # _read_text made input OSErrors FormatErrors
        _error(exc)
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
        try:
            sys.stderr.flush()
        except OSError:  # fd 2 is open on something unwritable: let the flush at exit go to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


if __name__ == "__main__":
    run()
