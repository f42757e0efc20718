"""Static checks on the package source, parsed with the stdlib ast module.

No linter is a test dependency, so these stand in for the three rules the
package keeps: every imported name is used, each public name has one
import path, its defining module (the package itself re-exports nothing),
and every record is a plain typing.NamedTuple.
A last test imports the CLI in a fresh interpreter to check what it loads.
"""

import ast
import os
import subprocess
import sys
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


def test_cli_import_loads_every_traced_module_and_no_dataclasses():
    """A cold `import covercone.cli` skips `dataclasses` and `inspect`, whose
    import is a fifth of a small query, and loads every module that
    bench/tracer.py's Tracer.install reads from sys.modules."""
    tree = _tree(ROOT / "bench" / "tracer.py")
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"])
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", "import sys, covercone.cli; print(*sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=30, check=True)
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    assert {f"covercone.{module}" for module in traced} <= loaded
