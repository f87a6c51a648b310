"""Every name a `sphsys` module imports is used in that module, and every
import sits at module level.

No linter ships with the project, so this test is the guard against dead
and function-local imports. `__init__.py` is left out of the unused-import
check: its imports are the package's exports.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sphsys"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_sees_an_unused_import():
    assert unused_imports("from typing import List, Set\nx: List[int] = []\n") == [(1, "Set")]
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def local_imports(source: str):
    """Line numbers of the imports inside a function body."""
    tree = ast.parse(source)
    return sorted({node.lineno
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_guard_sees_a_local_import():
    source = ("import os\n"
              "def f():\n"
              "    from itertools import permutations\n"
              "    def g():\n"
              "        import sys\n"
              "    return os.sep\n"
              "class C:\n"
              "    async def h(self):\n"
              "        import json\n")
    assert local_imports(source) == [3, 5, 9]
    assert local_imports("import os\nfrom itertools import product\n") == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_local_imports(path):
    assert local_imports(path.read_text()) == []
