"""The package proves (-Lap + u) psi = 0 only where the statement is new.

`verify_solution` checks the seeds (`SeedPair`, `moutard_potential`) and
the `verify` subcommand's input. The lemma of the double construction,
psi_i = +-omega_i/W, is proved by `verify_lemma` through its own
polynomial identity, not by `verify_solution`. Any other use would prove
one of these statements a second time. The counts below check the same at
run time: a swapped pair, an unused example and a quadrature's 1-form are
not proved again, and the lemma costs no `verify_solution` call. Likewise
a trial or an example integrates its quadrature F once: `double_transform`
takes the W = F + C that its caller built."""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from moutardkit import cli, construct, moutard, positivity, search
from moutardkit.gallery import get_example
from moutardkit.polynomials import BivariatePoly, RationalFn
from moutardkit.serialization import obj_to_poly

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moutardkit"
DATA = Path(__file__).parent / "data"

ALLOWED = {
    "construct.SeedPair.__new__",
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


X, Y = BivariatePoly.variables()


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` so each call records its arguments."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_verify_solution(monkeypatch):
    calls = count_calls(monkeypatch, construct, "verify_solution")
    monkeypatch.setattr(moutard, "verify_solution", construct.verify_solution)
    return calls


def test_a_swapped_trial_proves_nothing_again(monkeypatch):
    pair = construct.SeedPair.harmonic(X, Y)  # F = -(x^2 + y^2)/2 swaps
    verified = count_verify_solution(monkeypatch)
    oriented = count_calls(monkeypatch, search, "leading_dominance")
    record = search.run_trial(0, pair)
    assert record.valid and record.seeds_obj == search._seeds_obj(pair.swapped())
    assert verified == []
    assert len(oriented) == 1


def test_double_transform_proves_the_lemma_at_its_own_degree(monkeypatch):
    obj = json.loads((DATA / "pair_d5.json").read_text(encoding="utf-8"))
    seeds = construct.SeedPair.harmonic(obj_to_poly(obj["omega1"]), obj_to_poly(obj["omega2"]))
    w = construct.transform_family(seeds) + BivariatePoly.constant(358)
    verified = count_verify_solution(monkeypatch)
    products = count_calls(monkeypatch, BivariatePoly, "__mul__")
    construct.double_transform(seeds, w)
    assert verified == []
    # 7 for u = u0 - 2 Lap log W, 7 per seed for the lemma; F is the caller's
    assert len(products) <= 21


def count_quadratures(monkeypatch):
    """Count `transform_family` calls under both names the package reads it by."""
    calls = count_calls(monkeypatch, construct, "transform_family")
    monkeypatch.setattr(search, "transform_family", construct.transform_family)
    return calls


@pytest.mark.parametrize("pair", ["swapped", "drawn"])
def test_a_trial_integrates_the_quadrature_once(monkeypatch, pair):
    if pair == "swapped":
        seeds = construct.SeedPair.harmonic(X, Y)  # F = -(x^2 + y^2)/2
    else:
        seeds = search._draw_pair(random.Random(1), 2, search.COEFFICIENT_BOUND)
    quadratures = count_quadratures(monkeypatch)
    assert search.run_trial(0, seeds).valid
    assert len(quadratures) == 1  # 2 when double_transform integrated F again


@pytest.mark.parametrize("ident", [1, 2])
def test_an_example_integrates_the_quadrature_once(monkeypatch, ident):
    quadratures = count_quadratures(monkeypatch)
    search.verify_example_full(ident)
    assert len(quadratures) == 1


def test_get_example_proves_only_its_own_seeds(monkeypatch):
    verified = count_verify_solution(monkeypatch)
    seeds = get_example(2).seeds
    assert [psi for _, psi in verified] == [RationalFn(seeds.omega1), RationalFn(seeds.omega2)]


def test_importing_search_proves_nothing():
    code = (
        "from moutardkit import construct\n"
        "calls = []\n"
        "real = construct.verify_solution\n"
        "construct.verify_solution = lambda u, psi: calls.append(psi) or real(u, psi)\n"
        "import moutardkit.search\n"
        "print(len(calls))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "0\n"


def test_solution_one_form_leaves_closedness_to_the_form(monkeypatch):
    omega, phi = X * X - Y * Y, X * Y
    products = count_calls(monkeypatch, BivariatePoly, "__mul__")
    laplacians = count_calls(monkeypatch, BivariatePoly, "laplacian")
    form = moutard.solution_one_form(omega, phi)
    assert len(products) == 4  # two each in P and Q
    assert laplacians == []
    assert isinstance(form, moutard.ClosedOneForm)


@pytest.mark.parametrize(
    "argv,built",
    [
        (("search", "--degree", "3", "--trials", "6", "--seed", "0"), 0),
        (("search", "--degree", "2", "--trials", "6", "--seed", "0"), 0),
        (("example", "1"), 1),
        (("example", "2"), 1),
    ],
    ids=lambda value: "-".join(value) if isinstance(value, tuple) else None,
)
def test_a_certificate_is_built_only_where_it_is_printed(monkeypatch, capsys, argv, built):
    # a sweep prints records alone: its constant search proves W > 0 and
    # keeps no cells; `example` prints W's box certificate, built once
    certificates = count_calls(monkeypatch, positivity, "_certificate")
    assert cli.main(list(argv)) == cli.EXIT_OK
    capsys.readouterr()
    assert len(certificates) == built
