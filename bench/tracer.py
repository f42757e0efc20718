"""Run one covercone CLI call with a span around every public layer function.

    python3 bench/tracer.py SPANS.json ARGV...

behaves like `python -m covercone ARGV...` (same output and exit code) and
writes the spans to SPANS.json when the call ends.  The wrappers are bound
from outside: every module attribute holding a traced function, including
the copies `from ... import` made, is rebound to the wrapper, so calls
between modules are seen too.  Spans stay in memory until the call ends.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

clock = time.perf_counter

#: module -> public functions that get a span
TRACED = {
    "covers": ("enumerate_covers", "decompose", "irreducible_covers"),
    "cone": ("build_bt_system", "membership"),
    "simplex": ("solve_equality_lp",),
    "farkas": ("check_implication", "violating_body", "read_inequality"),
    "realize": ("find_lambda", "realize_vector", "solve_box_system"),
    "boxgeom": ("projection_volume", "disjoint_offset", "read_body", "write_body"),
    "core": ("log_fraction", "exp_fraction", "read_vector", "write_vector"),
    "witness": ("analyze_witness",),
}


def _bits(values) -> int:
    best = 0
    for q in values or ():
        best = max(best, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return best


def _lp_attrs(args, result) -> dict:
    rows = args[0]
    return {
        "rows": len(rows),
        "cols": len(rows[0]) if rows else 0,
        "status": result.status,
        "bits": max(_bits(result.x), _bits([result.objective] if result.objective is not None else ()),
                    _bits(result.farkas_dual)),
    }


#: span name -> (args, result) -> attrs, evaluated when the call ends
ATTRS = {
    "covers.enumerate_covers": lambda a, r: {"covers": len(r)},
    "covers.decompose": lambda a, r: {"kept": r is None},
    "cone.build_bt_system": lambda a, r: {"generators": len(r.generators)},
    "farkas.check_implication": lambda a, r: {"result": type(r).__name__},
}

#: like ATTRS, but evaluated at dump time so their cost stays out of every span
LAZY_ATTRS = {"simplex.solve_equality_lp": _lp_attrs}


class Tracer:
    """Spans as [name, start, end, parent, attrs]; parent is a span index or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pending: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, pending = self.spans, self.stack, self.pending
        attrs, lazy = ATTRS.get(name), LAZY_ATTRS.get(name)

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if lazy is not None:
                pending.append((idx, lazy, args, result))
            elif attrs is not None:
                span[4] = attrs(args, result)
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"covercone.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self.wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "covercone" and not modname.startswith("covercone."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def call_main(self, main, argv) -> int:
        span = ["cli.main", clock(), 0.0, -1, None]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
        finally:
            self.stack.pop()
            span[2] = clock()
        return code

    def dump(self, path: str, t0: float, import_s: float, code: int) -> None:
        for idx, attrs, args, result in self.pending:
            self.spans[idx][4] = attrs(args, result)
        rows = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "exit": code, "spans": rows}, fh)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = clock()
    import covercone.cli as cli

    import_s = clock() - t0
    tracer = Tracer()
    tracer.install()
    code = tracer.call_main(cli.main, argv)
    sys.stdout.flush()
    tracer.dump(out, t0, import_s, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
