"""The package raises only typed errors: no `assert` statements, and every
`raise` names a MoutardKitError subclass, the CLI's usage errors, one of
the built-in errors kept for argument validation, or (in the package's
lazy `__getattr__` only) AttributeError."""

import ast
import inspect
from pathlib import Path

import pytest

from moutardkit import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moutardkit"
MODULES = sorted(PACKAGE.glob("*.py"))
TYPED = {
    name
    for name, value in vars(errors).items()
    if inspect.isclass(value) and issubclass(value, errors.MoutardKitError)
}
ARGUMENT_ERRORS = {"ValueError", "TypeError", "ZeroDivisionError"}
CLI_ERRORS = {"UsageError", "argparse.ArgumentTypeError"}


def untyped_errors(source: str, allowed: set):
    """(line, statement) of each assert and of each raise outside `allowed`;
    a bare `raise` re-raises what was caught and is left alone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc) not in allowed:
                found.append((node.lineno, f"raise {ast.unparse(exc)}"))
    return sorted(found)


def allowed_in(path: Path) -> set:
    allowed = TYPED | ARGUMENT_ERRORS
    if path.stem == "__init__":
        return allowed | {"AttributeError"}  # the PEP 562 `__getattr__` protocol
    return allowed | CLI_ERRORS if path.stem == "cli" else allowed


def test_package_modules_found():
    assert PACKAGE / "errors.py" in MODULES and len(TYPED) > 1


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_raises_only_typed_errors(path):
    assert untyped_errors(path.read_text(encoding="utf-8"), allowed_in(path)) == []


def test_scan_catches_an_assert_and_an_untyped_raise():
    source = (
        "def f(x):\n"
        "    assert x\n"
        "    if x < 0:\n"
        "        raise RuntimeError('negative')\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except ZeroDivisionError:\n"
        "        raise\n"
        "    raise UsageError('x')\n"
    )
    found = untyped_errors(source, allowed_in(PACKAGE / "search.py"))
    assert found == [(2, "assert"), (4, "raise RuntimeError"), (9, "raise UsageError")]
    assert untyped_errors("raise UsageError('x')", allowed_in(PACKAGE / "cli.py")) == []
    assert untyped_errors("raise AttributeError('x')", allowed_in(PACKAGE / "cli.py")) == [
        (1, "raise AttributeError")
    ]
