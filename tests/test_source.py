"""Static checks on the package source, parsed with the stdlib ast module.

No linter is a test dependency, so these stand in for the three rules the
package keeps: every imported name is used, each public name has one
import path, its defining module (the package itself re-exports nothing),
and every record is a plain typing.NamedTuple.
The last tests run the CLI in fresh interpreters: its import registers every
module that bench/tracer.py traces and loads no dataclasses, each command runs
only the modules it calls, a well-formed command line loads no argparse, and
the tracer still sees every layer.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "covercone"
MODULES = sorted(PACKAGE.glob("*.py"))
SUBMODULES = {path.stem for path in MODULES} - {"__init__", "__main__"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_package_holds_only_its_docstring():
    body = _tree(PACKAGE / "__init__.py").body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)


def test_package_names_are_imported_from_their_modules():
    """`from covercone import X` (or `from . import X` inside the package)
    names only submodules, never a function or class."""
    paths = [*MODULES, *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    bad = []
    for path in paths:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ImportFrom):
                continue
            package = node.module == "covercone" and node.level == 0
            relative = node.module is None and node.level == 1 and path.parent == PACKAGE
            if package or relative:
                bad += [f"{path.name}: {a.name}" for a in node.names if a.name not in SUBMODULES]
    assert not bad, f"non-module names imported from the package: {', '.join(bad)}"


def test_records_are_plain_named_tuples():
    """One record idiom: no module uses collections.namedtuple and no class
    defines __new__, so no record constructor repeats its entry point's check."""
    bad = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef):
                bad += [f"{path.name}: {node.name}.__new__" for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name == "__new__"]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bad += [f"{path.name}: imports {a.name}" for a in node.names if a.name == "namedtuple"]
            elif isinstance(node, ast.Attribute) and node.attr == "namedtuple":
                bad.append(f"{path.name}: line {node.lineno} uses namedtuple")
    assert not bad, f"records outside the one idiom: {', '.join(bad)}"


def _run(argv, cwd=None, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=60, **kwargs)


def test_cli_import_loads_every_traced_module_and_no_dataclasses():
    """A cold `import covercone.cli` registers every module that
    bench/tracer.py's Tracer.install reads from sys.modules.  Once all of
    them have run (vars() runs a lazily loaded one), `dataclasses` and
    `inspect`, whose import is a fifth of a small query, are still absent."""
    tree = _tree(ROOT / "bench" / "tracer.py")
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"])
    code = ("import sys, covercone.cli\n"
            "for name in [n for n in sys.modules if n.startswith('covercone.')]: vars(sys.modules[name])\n"
            "print(*sys.modules)")
    loaded = set(_run(["-c", code], check=True).stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    assert {f"covercone.{module}" for module in traced} <= loaded


def test_lazy_modules_are_reached_only_through_the_module():
    """No module from-imports a name out of a module that cli registers
    lazily: such a binding would run that module, and whatever it imports,
    when the importer runs, whether or not a command calls into it."""
    loop = next(node for node in _tree(PACKAGE / "cli.py").body if isinstance(node, ast.For))
    lazy = set(ast.literal_eval(loop.iter))
    bad = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in lazy:
                bad.append(f"{path.name}: from .{node.module} import {', '.join(a.name for a in node.names)}")
    assert lazy and not bad, f"names bound out of lazily loaded modules: {'; '.join(bad)}"


def test_one_process_entry_point():
    """`python -m covercone` and the installed `covercone` script both enter
    through cli.run, the one place that freezes the collector; main, which
    tests and bench/tracer.py call in-process, keeps collecting."""
    assert [ast.unparse(node) for node in _tree(PACKAGE / "__main__.py").body] == [
        "from .cli import run", "run()"]
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["covercone", "=", '"covercone.cli:run"']
    freezes = [f"{path.name}: line {node.lineno}" for path in MODULES for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute) and node.attr == "freeze"
               or isinstance(node, ast.alias) and node.name == "freeze"]
    assert len(freezes) == 1, freezes
    functions = {node.name: node for node in _tree(PACKAGE / "cli.py").body if isinstance(node, ast.FunctionDef)}
    assert [ast.unparse(node) for node in ast.walk(functions["run"]) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "freeze"] == ["gc.freeze()"]
    assert "freeze" not in ast.unparse(functions["main"])


CORE = {"cli", "core"}
MEMBER = CORE | {"cone", "covers"}
GUESS4 = {"n": 4, "lhs": {"1,2": "1", "2,3": "1", "3,4": "1"}, "rhs": {"1,2,3": "1", "2,3,4": "1"}}
FAMILY3 = {"n": 3, "members": ["", "1", "2", "1,2,3"]}
TRIANGLE = {"ground": "1,2,3", "k": 2, "parts": ["1,2", "1,3", "2,3"]}

# a command's output files are the inputs of the ones after it
COMMANDS = [
    (["--help"], CORE),
    (["realize", "--vector", "ones.json", "--out", "body.json"],
     CORE | {"boxgeom", "cone", "simplex", "realize"}),
    (["project", "--body", "body.json", "--out", "back.json"], CORE | {"boxgeom"}),
    (["member", "--vector", "back.json"], MEMBER),
    (["witness", "--n", "4"], MEMBER | {"witness"}),
    (["system", "--n", "3"], MEMBER),
    (["imply", "--inequality", "guess4.json"], MEMBER | {"simplex", "farkas"}),
    (["imply", "--inequality", "guess4.json", "--emit-body", "b.json"],
     MEMBER | {"simplex", "farkas", "boxgeom"}),
    (["covers", "--ground", "1,2,3", "--irreducible"], CORE | {"covers"}),
    (["shearer", "--family", "family3.json", "--cover", "triangle.json"], CORE | {"covers", "witness"}),
    (["member", "--vector"], CORE),
]
#: the command lines argparse reads: every other one loads none of these
ARGPARSE = ["argparse", "gettext", "locale"]
PARSED_BY_ARGPARSE = [["--help"], ["member", "--vector"]]


def test_each_command_runs_only_the_modules_it_calls(tmp_path):
    """A module registered by `import covercone.cli` but never used stays a
    lazy module, whose type is not types.ModuleType, so it is not compiled.
    Only `--help` and a usage error import argparse (with gettext and locale)."""
    (tmp_path / "ones.json").write_text('{"n": 2, "entries": {"1": "1", "2": "1", "1,2": "1"}}')
    (tmp_path / "guess4.json").write_text(json.dumps(GUESS4))
    (tmp_path / "family3.json").write_text(json.dumps(FAMILY3))
    (tmp_path / "triangle.json").write_text(json.dumps(TRIANGLE))
    code = ("import sys, types\n"
            "from covercone.cli import main\n"
            "try: main(sys.argv[1:])\n"
            "except SystemExit: pass\n"
            "print(*sorted(n for n, m in sys.modules.items() if n.startswith('covercone.')"
            " and type(m) is types.ModuleType), file=sys.stderr)\n"
            f"print(*[n for n in {ARGPARSE!r} if n in sys.modules], file=sys.stderr)")
    for argv, expected in COMMANDS:
        proc = _run(["-c", code, *argv], cwd=tmp_path)
        ran, stdlib = (line.split() for line in proc.stderr.splitlines()[-2:])
        assert ran == sorted(f"covercone.{name}" for name in expected), argv
        assert ("argparse" in stdlib) if argv in PARSED_BY_ARGPARSE else not stdlib, (argv, stdlib)


def test_bench_tracer_sees_every_layer(tmp_path):
    """bench/tracer.py gives `imply --emit-body` on the n = 4 guess the exit
    code, stdout and body of `python -m covercone`, and a span for each
    layer call, though the CLI loads its modules lazily."""
    (tmp_path / "guess4.json").write_text(json.dumps(GUESS4))
    argv = ["imply", "--inequality", "../guess4.json", "--emit-body", "b.json"]
    for name in ("plain", "traced"):
        (tmp_path / name).mkdir()
    plain = _run(["-m", "covercone", *argv], cwd=tmp_path / "plain")
    traced = _run([str(ROOT / "bench" / "tracer.py"), "spans.json", *argv], cwd=tmp_path / "traced")
    assert plain.returncode == 1
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    assert (tmp_path / "traced" / "b.json").read_bytes() == (tmp_path / "plain" / "b.json").read_bytes()
    spans = json.loads((tmp_path / "traced" / "spans.json").read_text())["spans"]
    assert Counter(span[0] for span in spans) == {
        "cli.main": 1, "covers.irreducible_covers": 15, "simplex.solve_equality_lp": 12,
        "boxgeom.projection_volume": 5, "farkas.check_implication": 1, "cone.build_bt_system": 1,
        "cone.membership": 1, "farkas.violating_body": 1, "boxgeom.disjoint_offset": 1,
        "boxgeom.write_body": 1, "farkas.read_inequality": 1,
    }
