"""Every name a volcount module imports is used in that module, and every
__all__ entry names something the module binds.

No linter ships with the project, so these stdlib checks keep a deletion from
leaving an orphaned import or a stale export behind.  volcount/__init__.py
is exempt from the import check: it imports names only to re-export them.
A name that appears only in __all__ counts as unused, so re-exports stay in
__init__.py.  No module reaches into free_groups' or form_families' private
names, so the permutation-pair representation and the form-family records
stay behind those modules.  No nested
function calls itself: a recursive closure is a reference cycle, so what it
reaches outlives its call until the cyclic collector runs.  No function is
decorated with an unbounded functools.cache or lru_cache(maxsize=None), so
every kept table names its bound.  No module binds a
top-level name that nothing reads: not its own module, not __all__, and no
file of the package, its tests or the benchmark harness.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "volcount"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [path for path in ALL_MODULES if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _module_bindings(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    # (name, statement) for each def, class and assignment target at top level.
    bindings = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bindings.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            bindings += [(name, node) for name in names]
    return bindings


def _exports(tree: ast.Module) -> set[str]:
    # The entries of the module's __all__, if it has one.
    for name, node in _module_bindings(tree):
        if name == "__all__":
            return set(ast.literal_eval(node.value))
    return set()


def stale_exports(source: str) -> list[str]:
    """The __all__ entries that name nothing the module binds at top level."""
    tree = ast.parse(source)
    bound = {name for name, _ in _module_bindings(tree)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return sorted(_exports(tree) - bound)


def test_checker_flags_orphans_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, isqrt as root\n"
        "from typing import Sequence\n"
        "from .x import f\n"
        "def g(xs: Sequence) -> int:\n"
        "    return root(len(xs))\n"
        "__all__ = ['f']\n"
    )
    assert unused_imports(source) == ["f", "gcd", "os"]


def test_modules_found():
    assert {"assembler", "cli", "exact_arith", "local_invariants"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_export_checker_flags_stale_names_only():
    source = (
        "import os.path\n"
        "from math import isqrt as root\n"
        "from .x import f\n"
        "LIMIT: int = 3\n"
        "A, B = 1, 2\n"
        "def g():\n"
        "    inner = 1\n"
        "class K:\n"
        "    pass\n"
        "__all__ = ['A', 'B', 'K', 'LIMIT', 'f', 'g', 'gone', 'inner', 'isqrt', 'os', 'root']\n"
    )
    assert stale_exports(source) == ["gone", "inner", "isqrt"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.stem)
def test_no_stale_exports(path):
    assert stale_exports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str, module: str) -> list[str]:
    """The underscore-prefixed names the source imports from the sibling `module`."""
    tree = ast.parse(source)
    return sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in ((module, 1), (f"volcount.{module}", 0))
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_import_checker_flags_only_that_module():
    source = (
        "from .free_groups import DecoratedGraph, _bfs\n"
        "from volcount.free_groups import _relabel\n"
        "from .exact_arith import _strip_prime\n"
        "from free_groups import _trace\n"
    )
    assert private_imports(source, "free_groups") == ["_bfs", "_relabel"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_private_names_from_free_groups(path):
    assert private_imports(path.read_text(encoding="utf-8"), "free_groups") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_private_names_from_form_families(path):
    assert private_imports(path.read_text(encoding="utf-8"), "form_families") == []


def recursive_closures(source: str) -> list[str]:
    """The functions nested in a function that refer to their own name, as
    dotted paths from the module, in sorted order."""
    found = []
    # An explicit stack of (node, dotted path, inside a function), so the
    # walk is no recursive closure itself.
    stack = [(ast.parse(source), "", False)]
    while stack:
        node, path, nested = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                child_path = f"{path}.{child.name}".lstrip(".")
                is_class = isinstance(child, ast.ClassDef)
                if nested and not is_class and any(
                    isinstance(n, ast.Name) and n.id == child.name for n in ast.walk(child)
                ):
                    found.append(child_path)
                stack.append((child, child_path, nested or not is_class))
            else:
                stack.append((child, path, nested))
    return sorted(found)


def test_recursive_closure_checker_flags_only_nested_self_references():
    source = (
        "def walk(n):\n"
        "    return walk(n - 1) if n else 0\n"
        "def outer(xs):\n"
        "    def fill(i):\n"
        "        if i:\n"
        "            fill(i - 1)\n"
        "    def helper(i):\n"
        "        return walk(i)\n"
        "    fill(3)\n"
        "    return helper\n"
        "class K:\n"
        "    def method(self):\n"
        "        def visit(node):\n"
        "            return [visit(c) for c in node]\n"
        "        return visit([])\n"
    )
    assert recursive_closures(source) == ["K.method.visit", "outer.fill"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.stem)
def test_no_recursive_closures(path):
    assert recursive_closures(path.read_text(encoding="utf-8")) == []


def unbounded_caches(source: str) -> list[str]:
    """The functions decorated with functools.cache or lru_cache(maxsize=None),
    bare or called, by name or through the module, in sorted order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name == "lru_cache" and call:
                arguments = [*call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")]
                unbounded = any(
                    isinstance(a, ast.Constant) and a.value is None for a in arguments
                )
            else:
                unbounded = name == "cache"
            if unbounded:
                found.append(node.name)
    return sorted(found)


def test_unbounded_cache_checker_flags_only_unbounded_decorators():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\n"
        "def a(x): pass\n"
        "@functools.cache\n"
        "def b(x): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def c(x): pass\n"
        "@functools.lru_cache(None)\n"
        "def d(x): pass\n"
        "@lru_cache(maxsize=8)\n"
        "def e(x): pass\n"
        "@lru_cache\n"
        "def f(x): pass\n"
        "def g(x):\n"
        "    @cache\n"
        "    def inner(y): pass\n"
        "    return cache(inner)\n"
    )
    assert unbounded_caches(source) == ["a", "b", "c", "d", "inner"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.stem)
def test_no_unbounded_caches(path):
    assert unbounded_caches(path.read_text(encoding="utf-8")) == []


def _reads(node: ast.AST) -> set[str]:
    """The names read under node: loaded names, attributes and imported names."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def orphan_names(source: str, other_sources: list[str]) -> list[str]:
    """The top-level names the source binds that no other statement of it,
    no __all__ entry and none of other_sources reads, in sorted order."""
    tree = ast.parse(source)
    exported = _exports(tree)
    elsewhere = set().union(*(_reads(ast.parse(other)) for other in other_sources))
    reads = [(node, _reads(node)) for node in tree.body]
    orphans = set()
    for name, statement in _module_bindings(tree):
        read_here = any(name in names for node, names in reads if node is not statement)
        if name != "__all__" and not (read_here or name in exported or name in elsewhere):
            orphans.add(name)
    return sorted(orphans)


def test_orphan_name_checker_flags_only_unread_names():
    source = (
        "from math import gcd\n"
        "LIMIT = 3\n"
        "A, B = 1, 2\n"
        "UNUSED: int = 4\n"
        "def walk(n):\n"
        "    return walk(n - 1) if n else LIMIT\n"
        "def helper():\n"
        "    return A\n"
        "def exported():\n"
        "    pass\n"
        "class K:\n"
        "    attribute = 1\n"
        "__all__ = ['exported']\n"
    )
    others = ["from pkg.mod import helper\n", "import pkg.mod as m\nm.K()\n"]
    assert orphan_names(source, others) == ["B", "UNUSED", "walk"]


def test_no_orphan_names():
    sources = {
        path: path.read_text(encoding="utf-8")
        for directory in ("src", "tests", "perfbench")
        for path in sorted((ROOT / directory).rglob("*.py"))
    }
    found = {
        path.stem: orphan_names(sources[path], [s for p, s in sources.items() if p != path])
        for path in MODULES
    }
    assert {stem: names for stem, names in found.items() if names} == {}
