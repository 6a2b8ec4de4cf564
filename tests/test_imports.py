"""Every name a library module imports is read somewhere in that module,
every public definition is read outside itself by the program, and the
command line loads nothing outside the standard library."""

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steinberg"
MODULES = sorted(PACKAGE.rglob("*.py"))
# Besides the library itself, the code that reaches a definition: the
# benchmark, the console script and the acceptance gate.  Other tests do
# not count, so a definition only they reach does not stay in src/.
READERS = sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "pyproject.toml",
    ROOT / "tests" / "test_acceptance.py",
]


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


def _reads(node):
    """Names a syntax tree loads, attributes it reads and names it imports,
    once per occurrence."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def _attribute_reads(node):
    """Attributes a syntax tree reads, as x.name, once per occurrence."""
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def _is_dataclass(node):
    """Whether a class is decorated with dataclass, bare or called."""
    return any(
        isinstance(target, ast.Name) and target.id == "dataclass"
        for target in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    )


def _assigned(node):
    """Names a plain or annotated assignment statement binds directly."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _definitions(module, tree):
    """(qualified name, name, node, is_member) of the module-level defs,
    classes and constants, and, as members, of the methods and properties
    of its classes and of the fields of its dataclasses."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield f"{module}.{node.name}", node.name, node, False
        for name in _assigned(node):
            yield f"{module}.{name}", name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions):
                    yield f"{module}.{node.name}.{member.name}", member.name, member, True
                elif isinstance(member, ast.AnnAssign) and _is_dataclass(node):
                    for name in _assigned(member):
                        yield f"{module}.{node.name}.{name}", name, member, True


def reader_names(source, python=True):
    """Names a reader file reads.

    A Python reader reads the names it loads, the attributes it reads and
    the names it imports, and the words of its string constants other than
    docstrings (the benchmark names attributes as strings, such as
    "SteinbergModule.action"); its comments and docstrings do not count.
    Any other reader, such as pyproject.toml naming the console script,
    reads every word of its text.
    """
    if not python:
        return set(re.findall(r"\w+", source))
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    names = set(_reads(tree))
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in docstrings:
            names.update(re.findall(r"\w+", sub.value))
    return names


def unread_definitions(sources, outside):
    """Public definitions that nothing outside their own body reads.

    The definitions are module-level functions, classes and constants,
    methods and properties, and dataclass fields.  sources maps a module
    name to its source; a definition counts as read when it is read
    anywhere in the sources outside the definition itself (for a constant
    or a field, its assignment), or when its name is in outside, the set
    of names the other readers read (reader_names).  In the sources a
    module-level definition is read when its name is loaded, as a name or
    an attribute, or imported; a method, property or field only when it is
    loaded as an attribute (x.name), so a local of the same name does not
    count.  Names that start with _ are skipped: dunders run implicitly.
    An attribute read counts for every member of that name, whatever the
    object's class, so the check may still miss a member whose name
    another class's member shares.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    attributes = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for qualified, name, node, is_member in _definitions(module, tree):
            if name.startswith("_") or name in outside:
                continue
            reads = _attribute_reads if is_member else _reads
            if (attributes if is_member else total)[name] == reads(node)[name]:
                unread.append(qualified)
    return unread


def test_every_public_definition_is_read_by_the_program():
    sources = {
        ".".join(path.relative_to(PACKAGE).with_suffix("").parts).removesuffix(".__init__"):
            path.read_text(encoding="utf-8")
        for path in MODULES
    }
    outside = set().union(
        *(reader_names(path.read_text(encoding="utf-8"), path.suffix == ".py") for path in READERS)
    )
    assert unread_definitions(sources, outside) == []


def test_definition_checker_counts_only_reads_outside_the_definition():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "from .a import used\n\n\nclass Named:\n    pass\n\n\ndef _private():\n    pass\n",
    }
    assert unread_definitions(sources, set()) == ["a.recursive", "b.Named"]
    assert unread_definitions(sources, reader_names("print(Named)")) == ["a.recursive"]
    # methods: walk is read only inside its own body, size only as x.size
    # in another module, and the dunder __len__ runs implicitly
    sources = {
        "a": (
            "class Tree:\n"
            "    def walk(self):\n        return self.walk()\n\n"
            "    @property\n    def size(self):\n        return 1\n\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "b": "from .a import Tree\n\n\ndef main(x):\n    return x.size\n",
    }
    assert unread_definitions(sources, reader_names("main()")) == ["a.Tree.walk"]
    assert unread_definitions(sources, reader_names("main(); walk")) == []
    # a string constant names an attribute, as the benchmark's span table does
    assert unread_definitions(sources, reader_names('main(["Tree.walk"])')) == []
    assert unread_definitions(sources, reader_names("main(f'{y}.walk')")) == []
    # comments and docstrings are words, not reads, in a Python reader ...
    for text in (
        "main()  # walk\n",
        '"""walk"""\nmain()\n',
        'class C:\n    """walk"""\n\n\nmain()\n',
        'def f():\n    """walk"""\n    return main()\n',
    ):
        assert unread_definitions(sources, reader_names(text)) == ["a.Tree.walk"]
    # ... but every word of any other reader's text counts
    assert unread_definitions(sources, reader_names("main # walk", python=False)) == []
    # constants and dataclass fields: nothing reads LIMIT or LIMIT_TWICE,
    # STEP is read by other assignments, depth is named only in a
    # docstring, width is read as x.width in another module, and a plain
    # class's annotation is no field
    sources = {
        "a": (
            "from dataclasses import dataclass\n\n"
            "LIMIT = 3\nSTEP: int = 1\nLIMIT_TWICE = 2 * STEP\n\n\n"
            "@dataclass(frozen=True)\nclass Box:\n"
            '    """width, and depth."""\n\n'
            "    width: int\n    depth: int = STEP\n\n\n"
            "class Plain:\n    note: str\n"
        ),
        "b": "from .a import Box, Plain\n\n\ndef area(x):\n    return x.width, Box, Plain\n",
    }
    assert unread_definitions(sources, reader_names("area()")) == [
        "a.LIMIT", "a.LIMIT_TWICE", "a.Box.depth",
    ]
    assert unread_definitions(sources, reader_names("area(LIMIT, LIMIT_TWICE, depth)")) == []
    # inside the sources a member is read only as an attribute: the field
    # n and the method sub are loaded elsewhere only as locals of the same
    # name, and the function sub_all as a name
    sources = {
        "a": (
            "from dataclasses import dataclass\n\n\n"
            "@dataclass(frozen=True)\nclass Field:\n"
            "    n: int\n    q: int\n\n"
            "    def sub(self, x, y):\n        return x - y\n\n"
            "    def neg(self, x):\n        return -x\n"
        ),
        "b": (
            "from .a import Field\n\n\n"
            "def sub_all(f, n, sub):\n    return [sub(x, n) for x in f.q]\n\n\n"
            "def run(f):\n    return f.neg(1), sub_all(f, 2, Field)\n"
        ),
    }
    assert unread_definitions(sources, reader_names("run()")) == ["a.Field.n", "a.Field.sub"]


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
