"""Every private module-level helper of the package has a reader. A
module-level `def` or `class` named with a single leading underscore is
read somewhere in the package outside its own definition: as a loaded
name, as an attribute or by a `from ... import`. This is a stdlib `ast`
scan, so a deleted caller must take its helper with it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moutardkit"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def dead_helpers(sources: dict):
    """(module, name) of each private module-level helper in `sources`
    (module -> source) that nothing reads outside its own definition."""
    helpers = []
    reads = set()  # (module, enclosing module-level definition or None, name)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner is not None and is_private(owner):
                helpers.append((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((module, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    reads.add((module, owner, node.attr))
                elif isinstance(node, ast.ImportFrom):
                    reads.update((module, owner, alias.name) for alias in node.names)
    return [
        (module, name)
        for module, name in helpers
        if not any(
            read == name and (where, owner) != (module, name) for where, owner, read in reads
        )
    ]


def package_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_every_private_helper_is_read():
    assert dead_helpers(package_sources()) == []


def test_the_scan_sees_the_certificate_builder():
    # _certificate has one caller, global_positivity; without it the scan fails
    sources = package_sources()
    tree = ast.parse(sources["positivity"])
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "global_positivity":
            node.body = [ast.Pass()]
    sources["positivity"] = ast.unparse(tree)
    assert ("positivity", "_certificate") in dead_helpers(sources)


def test_scan_catches_a_dead_helper():
    sources = {
        "a": (
            "def _recursive():\n"
            "    return _recursive()\n"
            "def _imported():\n"
            "    pass\n"
            "class _Attribute:\n"
            "    pass\n"
            "def _local():\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    pass\n"
            "def public():\n"
            "    return _local()\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _imported\n"
            "X = a._Attribute\n"
            "def _dead():\n"
            "    pass\n"
        ),
    }
    assert dead_helpers(sources) == [("a", "_recursive"), ("b", "_dead")]
