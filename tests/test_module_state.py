"""The package keeps no state between calls: no module rebinds a global.

A `global` statement is how a module-level cache or memo gets written; a
result that depends on an earlier call's leftovers cannot be checked in
isolation, so every call builds what it needs and hands it on."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moutardkit"
MODULES = sorted(PACKAGE.glob("*.py"))


def global_statements(source: str):
    """(line, names) of each `global` statement, at any nesting depth."""
    return sorted(
        (node.lineno, tuple(node.names))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
    )


def test_package_modules_found():
    assert PACKAGE / "positivity.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_global_statement(path):
    assert global_statements(path.read_text(encoding="utf-8")) == []


def test_scan_catches_a_nested_global():
    source = (
        "_memo = None\n"
        "class Tree:\n"
        "    def build(self):\n"
        "        def inner():\n"
        "            global _memo, _other\n"
        "        return inner\n"
        "def reset():\n"
        "    global _memo\n"
        "    _memo = None\n"
    )
    assert global_statements(source) == [(5, ("_memo", "_other")), (8, ("_memo",))]
