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
# Public methods of the builtin types.  A read of such a name as an
# attribute (d.get, xs.index) cannot be told from a read of a member that
# shares it, so such a member is refused unless listed here with the
# reason it is read.
BUILTIN_METHODS = {
    name
    for kind in (dict, list, set, frozenset, tuple, str, bytes, int)
    for name in dir(kind)
    if not name.startswith("_")
}
BUILTIN_NAMED_MEMBERS = {
    "complexes.SemisimplicialSet.index": "read as X.index[k] in complexes and stmodule",
}


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


def _self_assigned(function):
    """(name, statement) for each attribute self.name that a method's plain
    or annotated assignments bind."""
    for sub in ast.walk(function):
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, ast.AnnAssign):
            targets = [sub.target]
        else:
            continue
        for target in targets:
            # a tuple target binds each of its elements
            for t in getattr(target, "elts", [target]):
                if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self":
                    yield t.attr, sub


def _definitions(module, tree):
    """(qualified name, name, node, is_member) of the module-level defs,
    classes and constants, and, as members, of the methods and properties
    of its classes, of the fields of its dataclasses and of the attributes
    its methods assign (self.name = ...), each once, at its first
    assignment."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield f"{module}.{node.name}", node.name, node, False
        for name in _assigned(node):
            yield f"{module}.{name}", name, node, False
        if isinstance(node, ast.ClassDef):
            members = {}
            for member in node.body:
                if isinstance(member, functions):
                    members[member.name] = member
                elif isinstance(member, ast.AnnAssign) and _is_dataclass(node):
                    members.update(dict.fromkeys(_assigned(member), member))
            for member in node.body:
                if isinstance(member, functions):
                    for name, statement in _self_assigned(member):
                        members.setdefault(name, statement)
            for name, member in members.items():
                yield f"{module}.{node.name}.{name}", name, member, True


def reader_names(source, python=True):
    """(names, member names) a reader file reads.

    A Python reader reads the names it loads, the attributes it reads and
    the names it imports, and the words of its string constants other than
    docstrings (the benchmark names attributes as strings, such as
    "SteinbergModule.action"); its comments and docstrings do not count.
    A member (method, property, field or attribute) is read only through
    an attribute read, an import or a string word, so a local of the same
    name does not count for it.  Any other reader, such as pyproject.toml
    naming the console script, reads every word of its text, for both.
    """
    if not python:
        words = set(re.findall(r"\w+", source))
        return words, words
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
    words = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in docstrings:
            words.update(re.findall(r"\w+", sub.value))
    imported = {
        a.name for sub in ast.walk(tree) if isinstance(sub, ast.ImportFrom) for a in sub.names
    }
    return set(_reads(tree)) | words, set(_attribute_reads(tree)) | imported | words


def unread_definitions(sources, outside):
    """Public definitions that nothing outside their own body reads.

    The definitions are module-level functions, classes and constants,
    methods and properties, dataclass fields and the attributes methods
    assign.  sources maps a module name to its source; a definition counts
    as read when it is read anywhere in the sources outside the definition
    itself (for a constant, a field or an attribute, its assignment), or
    when its name is in outside, the pair (names, member names) that the
    other readers read (reader_names).  In the sources a module-level
    definition is read when its name is loaded, as a name or an
    attribute, or imported; a member only when it is loaded as an
    attribute (x.name), so a local of the same name does not count.
    Names that start with _ are skipped: dunders run implicitly.  An
    attribute read counts for every member of that name, whatever the
    object's class, so the check may still miss a member whose name
    another class's member shares.  A member named like a public method
    of a builtin type is refused unless BUILTIN_NAMED_MEMBERS lists it.
    """
    names, member_names = outside
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    attributes = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for qualified, name, node, is_member in _definitions(module, tree):
            if name.startswith("_"):
                continue
            if is_member and name in BUILTIN_METHODS:
                if qualified not in BUILTIN_NAMED_MEMBERS:
                    unread.append(qualified)
                continue
            if name in (member_names if is_member else names):
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
    read = [
        reader_names(path.read_text(encoding="utf-8"), path.suffix == ".py") for path in READERS
    ]
    outside = tuple(set().union(*part) for part in zip(*read))
    assert unread_definitions(sources, outside) == []
    # every listed collision is still a member of src/
    members = {
        qualified
        for module, source in sources.items()
        for qualified, _, _, is_member in _definitions(module, ast.parse(source))
        if is_member
    }
    assert set(BUILTIN_NAMED_MEMBERS) <= members


def test_definition_checker_counts_only_reads_outside_the_definition():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "from .a import used\n\n\nclass Named:\n    pass\n\n\ndef _private():\n    pass\n",
    }
    assert unread_definitions(sources, (set(), set())) == ["a.recursive", "b.Named"]
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
    assert unread_definitions(sources, reader_names("main(); x.walk")) == []
    # a reader's local of the same name is no read of a member
    assert unread_definitions(sources, reader_names("main(); walk")) == ["a.Tree.walk"]
    assert unread_definitions(sources, reader_names("from a import main, walk")) == []
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
    assert unread_definitions(sources, reader_names("area(LIMIT, LIMIT_TWICE, x.depth)")) == []
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
    # attributes a method assigns are members: x is assigned twice and
    # never read, y is read as t.y; a member named like a builtin method
    # (get) is refused though t.get is read, unless it is listed, as
    # SemisimplicialSet.index is
    sources = {
        "a": (
            "class Table:\n"
            "    def __init__(self, rows):\n"
            "        self.x, self.y = rows, 0\n\n"
            "    def reset(self):\n        self.x = None\n\n"
            "    def get(self, k):\n        return self.y\n"
        ),
        "b": "from .a import Table\n\n\ndef run(t):\n    return t.get(1), t.reset(), Table\n",
        "complexes": (
            "class SemisimplicialSet:\n"
            "    def __init__(self):\n        self.index = []\n\n\n"
            "def first(X):\n    return X.index[0], SemisimplicialSet\n"
        ),
    }
    assert unread_definitions(sources, reader_names("run(); first()")) == [
        "a.Table.get", "a.Table.x",
    ]


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
