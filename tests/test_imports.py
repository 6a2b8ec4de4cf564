"""Every name a library module imports is read somewhere in that module,
and the command line loads nothing outside the standard library."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "steinberg"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _exported(tree):
    """Names listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source):
    """Imported names that the module never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    keep = read | _exported(tree)
    return [name for name in imported if name not in keep]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unread_and_spares_exports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, isqrt as root\n"
        "from .x import kept\n"
        "__all__ = ['kept']\n"
        "print(os.sep, root(4))\n"
    )
    assert unused_imports(source) == ["gcd"]


def test_cli_loads_only_the_standard_library():
    # a fresh interpreter, so modules the test run has loaded do not count
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
        "import steinberg.cli\n"
        "import json; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = {name.split(".")[0] for name in json.loads(out)}
    assert sorted(loaded - set(sys.stdlib_module_names) - {"steinberg"}) == []
