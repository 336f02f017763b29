"""Every imported name is read: a name that a module under src/tallyflow/
or tests/ imports and never uses fails the check.

The package __init__.py is skipped, as its imports are the public names it
re-exports, and so are `from __future__` imports, which set compiler
features and bind nothing.  A name counts as used when any expression in
the module reads it, an attribute chain's first name included.
"""

import ast
import os

import tallyflow

PACKAGE = os.path.dirname(tallyflow.__file__)
TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)


def unused(path: str) -> list:
    """(line, name) of each name the module at path imports but never uses."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
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
