"""The package proves (-Lap + u) psi = 0 only where the statement is new.

`verify_solution` checks the seeds (`SeedPair`, `moutard_potential`), the
lemma of the double construction (`verify_lemma`, which by the symmetric
identity also proves psi_i = +-omega_i/W) and the `verify` subcommand's
input. Any other use would prove one of these statements a second time."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moutardkit"

ALLOWED = {
    "construct.SeedPair.__new__",
    "construct.verify_lemma",
    "moutard.moutard_potential",
    "cli.cmd_verify",
}


def verify_solution_users(source: str, module: str):
    """Qualified names of the scopes that read `verify_solution`, once per read."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if name == "verify_solution" and isinstance(getattr(child, "ctx", None), ast.Load):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), (module,))
    return found


def package_users():
    return sorted(
        user
        for path in PACKAGE.glob("*.py")
        for user in verify_solution_users(path.read_text(encoding="utf-8"), path.stem)
    )


def test_verify_solution_is_used_only_where_a_statement_is_new():
    assert package_users() == sorted(ALLOWED)


def test_scan_catches_a_second_proof():
    source = (
        "from .moutard import verify_solution\n"
        "def double_transform(seeds, constant):\n"
        "    for name, psi in pairs:\n"
        "        if not verify_solution(u, psi):\n"
        "            raise InvariantViolated(name)\n"
        "class Checker:\n"
        "    def check(self):\n"
        "        return moutard.verify_solution\n"
        "check = verify_solution\n"
    )
    assert verify_solution_users(source, "construct") == [
        "construct.double_transform",
        "construct.Checker.check",
        "construct",
    ]
