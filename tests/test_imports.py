"""Every name a `sphsys` module imports is used in that module, every
import sits at module level, every private function and class is used, the
process-lifetime caches are the expected ones, no module computes with
floats, every kept cache is hit by a command-shaped workload, and every
parameter is read.

No linter ships with the project, so this test is the guard against dead
and function-local imports, dead private code and unread parameters.
`__init__.py` is left out of the unused-import check: its imports are the
package's exports.
"""
import ast
import importlib
from pathlib import Path

import pytest

from sphsys import (census, classify, emit_system, enumerate_distinguished,
                    faithful_couples, quotient)

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


def unreferenced_private(sources):
    """(module, name) of every private top-level function or class of the
    sources (module name to source) that no code outside its own definition
    refers to, by name or as an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and owner.startswith("_") and not owner.startswith("__"):
                defined.append((module, owner))
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {owner}
    return [(module, name) for module, name in defined if name not in used]


def test_guard_sees_an_unreferenced_private_function():
    sources = {"a.py": ("def _helper(): return 1\n"
                        "def _recursive(n): return _recursive(n - 1) if n else 0\n"
                        "class _Unused: pass\n"
                        "class _Record: pass\n"
                        "def public(): return _helper()\n"
                        "def _public_only(): pass\n"),
               "b.py": ("from . import a\n"
                        "x = a._Record()\n")}
    assert unreferenced_private(sources) == [
        ("a.py", "_recursive"), ("a.py", "_Unused"), ("a.py", "_public_only")]


def test_no_unreferenced_private_functions():
    assert unreferenced_private({p.name: p.read_text() for p in ALL_MODULES}) == []


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


def lru_caches(source: str):
    """Names of the functions decorated with `lru_cache`, called or not, or
    with `cache`, which is `lru_cache(maxsize=None)`."""
    tree = ast.parse(source)
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in fn.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "attr", getattr(target, "id", None)) in ("lru_cache", "cache"):
                    out.append(fn.name)
    return sorted(out)


def test_guard_sees_every_lru_cache():
    source = ("import functools\n"
              "from functools import cache, cached_property, lru_cache\n"
              "@lru_cache(maxsize=None)\n"
              "def a(x): return x\n"
              "@functools.lru_cache\n"
              "def b(x): return x\n"
              "@cache\n"
              "def c(x): return x\n"
              "@cached_property\n"
              "def d(x):\n"
              "    @lru_cache\n"
              "    def e(y): return y\n"
              "    return e(x)\n")
    assert lru_caches(source) == ["a", "b", "c", "e"]


# The nine process-lifetime caches; each is hit again and again within one
# command. A new one must be added here on purpose.
KEPT_CACHES = {
    "closure.py": ["_plan", "_profile"],
    "enumeration.py": ["_a_matrices", "_fresh_pairs"],
    "quotient.py": ["_color_supports"],
    "rootsys.py": ["build_root_system"],
    "serialize.py": ["_row_text"],
    "sphroots.py": ["_by_vector"],
    "system.py": ["colors"],
}


def test_only_the_kept_lru_caches():
    found = {p.name: lru_caches(p.read_text()) for p in ALL_MODULES}
    assert {name: fns for name, fns in found.items() if fns} == KEPT_CACHES


def test_every_kept_cache_has_traffic():
    # from empty caches, an F4 workload shaped like the commands (census and
    # its documents, quotients, faithful couples) hits every kept cache; a
    # new cache needs a workload that asks it the same question again
    caches = [getattr(importlib.import_module(f"sphsys.{name[:-3]}"), fn)
              for name, fns in KEPT_CACHES.items() for fn in fns]
    for cache in caches:
        cache.cache_clear()
    report = census("F4")
    for s in report.systems:
        emit_system(s)
    for s in report.systems[:40]:
        for d in enumerate_distinguished(s):
            quotient(s, d.members)
            if d.minimal:
                classify(s, d.members)
    for weight in ((0, 1, 0, 0), (1, 0, 0, 0)):
        faithful_couples(report.systems, report.rs, weight)
    assert [c.__name__ for c in caches if not c.cache_info().hits] == []


def float_uses(source: str):
    """Line numbers of float (or complex) literals, of the name `float` and of
    true division, which turns two ints into a float."""
    tree = ast.parse(source)
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
                   or isinstance(node, ast.Name) and node.id == "float"
                   or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)})


def test_guard_sees_every_float():
    source = ("x = 0.5\n"
              "y = float(3)\n"
              "z = 3 / 2\n"
              "z /= 2\n"
              "w = 1e3 + 2j\n"
              "v = 7 // 2 + 10 % 3\n"
              "u = '1.5'\n"
              "def f(t: float): return t\n"
              "from fractions import Fraction\n"
              "q = Fraction(3, 2)\n")
    assert float_uses(source) == [1, 2, 3, 4, 5, 8]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_floats(path):
    assert float_uses(path.read_text()) == []


def unread_parameters(source: str):
    """(function, parameter) for every parameter, `self` aside, that its
    function's body never reads; nested functions and lambdas included."""
    tree = ast.parse(source)
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a]]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            out += [(getattr(fn, "name", "<lambda>"), p) for p in params
                    if p != "self" and p not in read]
    return out


def test_guard_sees_an_unread_parameter():
    source = ("def f(rs, sigma, *args, key=None, **kw):\n"
              "    return sigma\n"
              "class C:\n"
              "    def g(self, x):\n"
              "        h = lambda y, z: y\n"
              "        def k(w):\n"
              "            w = 1\n"
              "        return x\n")
    assert unread_parameters(source) == [
        ("f", "rs"), ("f", "key"), ("f", "args"), ("f", "kw"),
        ("k", "w"), ("<lambda>", "z")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []
