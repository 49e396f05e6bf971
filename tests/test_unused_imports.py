"""Every name a package module imports at module level is read in that
module. No linter is a dependency of the package, so this is a stdlib `ast`
scan: a deleted caller must take its imports with it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moutardkit"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_package_modules_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_catches_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math as m\n"
        "from fractions import Fraction\n"
        "from .polynomials import BivariatePoly, RationalLike, as_fraction\n"
        "def f(x: Fraction) -> BivariatePoly:\n"
        "    def as_fraction():\n"
        "        return os.sep\n"
        "    return m.pi\n"
    )
    assert unused_imports(source) == ["RationalLike", "as_fraction"]
