"""Every name a volcount module imports is used in that module.

No linter ships with the project, so this stdlib check keeps a deletion from
leaving an orphaned import behind.  volcount/__init__.py is exempt: it
imports names only to re-export them.  A name that appears only in __all__
counts as unused, so re-exports stay in __init__.py.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "volcount"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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
