"""Every imported name is read: a name that a module under src/tallyflow/
or tests/ imports and never uses fails the check.

The package __init__.py is skipped, as its imports are the public names it
re-exports, and so are `from __future__` imports, which set compiler
features and bind nothing.  A name counts as used when any expression in
the module reads it, an attribute chain's first name included.

Every defined name is read too: a class, function or constant defined at
the top level of a module under src/tallyflow/ fails the check when no
module under src/, tests/ or perfbench/ reads it, by name or as an
attribute.  Dunders are exempt.  An import is not a read, so a name that
__init__.py re-exports and nothing uses still fails.  tests/test_reach.py
finds the functions no workload runs; this finds the names no code reads.
"""

import ast
import os

import tallyflow

PACKAGE = os.path.dirname(tallyflow.__file__)
TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def unused(path: str) -> list:
    """(line, name) of each name the module at path imports but never uses."""
    tree = parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def modules(directory: str) -> list:
    """The path of each .py file in directory but a package __init__.py."""
    return [os.path.join(directory, f) for f in sorted(os.listdir(directory))
            if f.endswith(".py") and f != "__init__.py"]


def test_every_imported_name_is_used():
    found = [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
             for path in modules(PACKAGE) + modules(TESTS) for line, name in unused(path)]
    assert found == [], "imported but never used"


PLANTED = '''
from __future__ import annotations

import os.path
import json as codec
from decimal import Decimal, InvalidOperation
from typing import Any


def parse(text: str) -> Any:
    return codec.loads(text), os.path.sep, Decimal
'''


def test_a_planted_unused_import_fails_the_check(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED, encoding="utf-8")
    # an import under another name, a dotted import's first name and a name
    # read only in an annotation all count as used
    assert unused(str(path)) == [(6, "InvalidOperation")]


def defined(path: str) -> list:
    """(line, name) of each class, function and constant the module at path
    defines at its top level, dunders aside."""
    found = []
    for node in parse(path).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.id) for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def read_names(path: str) -> set:
    """Every name the module at path reads, by name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(parse(path))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def unread(definers: list, readers: list) -> list:
    """(path, line, name) of each name a module of definers defines that no
    module of readers reads."""
    read = set().union(*map(read_names, readers))
    return [(path, line, name) for path in definers
            for line, name in defined(path) if name not in read]


def py_files(directory: str) -> list:
    """The path of each .py file under directory."""
    return sorted(os.path.join(d, f) for d, _, files in os.walk(directory)
                  for f in files if f.endswith(".py"))


def test_every_defined_name_is_read():
    readers = [path for d in ("src", "tests", "perfbench") for path in py_files(os.path.join(ROOT, d))]
    found = [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
             for path, line, name in unread(py_files(PACKAGE), readers)]
    assert found == [], "defined but never read"


PLANTED_DEFS = '''
from typing import NamedTuple

LIMIT = 3
SPARE, *REST = (1, 2)
__version__ = "1"


class Pair(NamedTuple):
    left: int


class Wire(NamedTuple):
    src: int


def helper(x):
    return x + LIMIT


def orphan():
    return Pair(helper(1))
'''

PLANTED_READER = '''
import planted

print(planted.orphan(), planted.REST)
'''


def test_a_planted_unread_name_fails_the_check(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED_DEFS, encoding="utf-8")
    reader = tmp_path / "reader.py"
    reader.write_text(PLANTED_READER, encoding="utf-8")
    # a name read in its own module, or elsewhere as an attribute, counts as
    # read; a dunder is exempt, and a name bound only to annotate a field
    # (left, src) is no top-level name
    assert [(line, name) for _, line, name in unread([str(path)], [str(path), str(reader)])] \
        == [(5, "SPARE"), (13, "Wire")]
    assert unread([str(path)], [str(path)])[-1][1:] == (21, "orphan")
