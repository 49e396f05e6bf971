"""Every public name the package defines has a reader outside the tests.
A public module-level `def` or `class` of `src/moutardkit`, and a public
method of a module-level class, is read in `src/` or `bench/` outside its
own definition: as a loaded name, as an attribute or by a `from ...
import`. String constants in `bench/` count too, since the tracer names its
targets that way; `__init__._EXPORTS` and the tests do not. A name only
users and tests read is on `ALLOWED`, with the reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ALLOWED = {
    ("moutard", "moutard_potential"): "the paper's single Moutard step, public API",
    ("polynomials", "BivariatePoly.variables"): "the generators that users and tests build with",
    ("positivity", "PositivityCertificate.from_obj"): "the parser a certificate checker will read",
}


def is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(source: str):
    """Qualified names of the public module-level defs and classes, and of
    the public methods of every module-level class."""
    names = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, DEFINITIONS):
            continue
        if is_public(stmt.name):
            names.append(stmt.name)
        if isinstance(stmt, ast.ClassDef):
            names += [
                f"{stmt.name}.{node.name}"
                for node in stmt.body
                if isinstance(node, DEFINITIONS) and is_public(node.name)
            ]
    return names


def reads(source: str, strings: bool):
    """(enclosing definitions, name) of every name the source reads; with
    `strings`, string constants are read as names too."""
    found = []

    def visit(node, owners):
        if isinstance(node, DEFINITIONS):
            owners = owners + (node.name,)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((owners, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((owners, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found.extend((owners, alias.name) for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((owners, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(ast.parse(source), ())
    return found


def unread_names(package: dict, readers: dict):
    """(module, qualified name) of each public definition in `package`
    (module -> source) that nothing in `package` or in `readers` (name ->
    source, string constants counted) reads outside its own definition."""
    read = [("", owners, name) for source in readers.values() for owners, name in reads(source, True)]
    for module, source in package.items():
        read += [(module, owners, name) for owners, name in reads(source, False)]
    unread = []
    for module, source in package.items():
        for qualified in public_definitions(source):
            path = tuple(qualified.split("."))
            if not any(
                name == path[-1] and (where, owners[: len(path)]) != (module, path)
                for where, owners, name in read
            ):
                unread.append((module, qualified))
    return unread


def sources(directory: Path):
    return {
        str(path.relative_to(directory).with_suffix("")): path.read_text(encoding="utf-8")
        for path in sorted(directory.rglob("*.py"))
    }


def test_every_public_name_is_read_or_allowed():
    unread = unread_names(sources(ROOT / "src" / "moutardkit"), sources(ROOT / "bench"))
    assert sorted(unread) == sorted(ALLOWED)


def test_scan_catches_an_unread_public_name():
    package = {
        "a": (
            "def recursive():\n"
            "    return recursive()\n"
            "def exported():\n"
            "    pass\n"
            "def traced():\n"
            "    pass\n"
            "class Thing:\n"
            "    def method(self):\n"
            "        return self.method()\n"
            "    def used(self):\n"
            "        return Thing\n"
            "    def _private(self):\n"
            "        pass\n"
            "def caller(t: Thing):\n"
            "    return t.used()\n"
        ),
        "__init__": '_EXPORTS = {"a": ("exported", "caller")}\n',
    }
    readers = {
        "tracer": 'TARGETS = [("a", None, "traced", "a.traced")]\n',
        "child": "from moutardkit import a\na.caller(None)\n",
    }
    assert unread_names(package, readers) == [
        ("a", "recursive"),
        ("a", "exported"),
        ("a", "Thing.method"),
    ]
