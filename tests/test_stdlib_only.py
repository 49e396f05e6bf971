"""The package imports nothing outside the standard library, and not
`dataclasses`: it pulls in `inspect`, `ast`, `dis` and `tokenize`, which
every fresh interpreter would pay for at start-up."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moutardkit"
MODULES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_modules_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_absolute_imports_are_stdlib(path):
    outside = sorted(
        name for name in absolute_imports(path) if name.split(".")[0] not in sys.stdlib_module_names
    )
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_dataclasses_import(path):
    assert [name for name in absolute_imports(path) if name.split(".")[0] == "dataclasses"] == []
