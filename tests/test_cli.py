"""Command-line front end: exit statuses and golden stdout hashes."""

import argparse
import contextlib
import copy
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from moutardkit import cli, construct, gallery, serialization
from moutardkit.polynomials import BivariatePoly, RationalFn

DATA = Path(__file__).parent / "data"

# SHA-256 of the stdout of
#   moutardkit transform --seeds tests/data/pair_d5.json --constant 358
# recorded with the schoolbook product and division kernel
PAIR_D5_TRANSFORM_SHA256 = "1f0c62bbf28dc14d878f41218d58fedab452604bc3b0c37b9f87085664d031f4"

# SHA-256 of the stdout of
#   moutardkit transform --seeds tests/data/pair_u0_x2.json --constant 3
# (u0 = 2/x^2, omega1 = x^2, omega2 = x^2*y), recorded with the lemma
# checked through the mirror potentials u0 - 2*Lap(log omega_i)
PAIR_U0_X2_TRANSFORM_SHA256 = "14ff9f1f50ac23e4accc60d0af77a9e26cd02f464415ca34c86bce310f220fc7"

# SHA-256 of the stdout of `moutardkit ARGV...`, recorded with the
# Fraction-based univariate polynomial type and Sturm chain
GOLDEN_STDOUT_SHA256 = [
    # the example pins recorded with Bernstein box bounds
    (("example", "1"), "0222aaafa1511285111f4df05b111ac2834fcdfca82acf9a5193fd0d41b226ba"),
    (
        ("search", "--degree", "2", "--trials", "6", "--seed", "0"),
        "f77dbfca84a755374f594bbeaf6e3cc715679c3718204dfbde575ab3db5f3ea1",
    ),
    (("example", "2"), "6735da1d3135a0f0aaeaa394e951c11a333d7b626f9034c3630530481a68a648"),
    # recorded with one full branch-and-bound per bisection probe
    (
        ("search", "--degree", "3", "--trials", "2", "--seed", "0"),
        "a15709fda93180b94262a73f14eee33432f69ece744bbb6bec1f368d1c32833e",
    ),
    # both degree-3 trials above are conjugate-type and walk no box; these
    # three trials make 18 box-tree walks
    (
        ("search", "--degree", "4", "--trials", "3", "--seed", "0"),
        "3f056ae8b9177f704eb908b8ca42e82c00fb94728f200b6866c33b2a90b97886",
    ),
]


def run(*argv):
    """Exit status of `moutardkit argv...`, including argparse's own exits."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def poly_obj(terms):
    return {
        "vars": ["x", "y"],
        "terms": [
            {"i": i, "j": j, "num": str(num), "den": str(den)}
            for (i, j), (num, den) in terms.items()
        ],
    }


def write_poly(path, terms):
    path.write_text(json.dumps(poly_obj(terms)), encoding="utf-8")
    return str(path)


def test_golden_transform_degree5(capsys):
    status = run("transform", "--seeds", str(DATA / "pair_d5.json"), "--constant", "358")
    out = capsys.readouterr().out
    assert status == cli.EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PAIR_D5_TRANSFORM_SHA256


def test_golden_transform_nonzero_background(capsys):
    status = run("transform", "--seeds", str(DATA / "pair_u0_x2.json"), "--constant", "3")
    out = capsys.readouterr().out
    assert status == cli.EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PAIR_U0_X2_TRANSFORM_SHA256


def test_transform_exits_usage_when_the_lemma_fails(monkeypatch, capsys):
    # the lemma is double_transform's one postcondition: a failure is a
    # defect, reported as a typed error, never as a printed "verified": false
    monkeypatch.setattr(construct, "verify_lemma", lambda seeds, result: False)
    status = run("transform", "--seeds", str(DATA / "pair_d5.json"), "--constant", "358")
    captured = capsys.readouterr()
    assert status == cli.EXIT_USAGE
    assert captured.out == ""
    assert "InvariantViolated" in captured.err


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_STDOUT_SHA256, ids=["-".join(argv) for argv, _ in GOLDEN_STDOUT_SHA256]
)
def test_golden_stdout(argv, digest, capsys):
    assert run(*argv) == cli.EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_console_script_resolves_to_the_cli(monkeypatch, capsys):
    # an installed `moutardkit` runs sys.exit(target()) for the target that
    # pyproject.toml declares; the tests themselves import src/ directly
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["moutardkit"].partition(":")
    main = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["moutardkit", "example", "1"])
    assert main() == cli.EXIT_OK
    digest = dict(GOLDEN_STDOUT_SHA256)[("example", "1")]
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_example_exits_false_when_an_invariant_breaks(monkeypatch, capsys):
    # example 1's u decays at rate 6, so a claimed rate 7 must fail the run
    monkeypatch.setitem(
        gallery.EXAMPLES, 1, lambda: gallery._example_1()._replace(expected_u_decay=7)
    )
    assert run("example", "1") == cli.EXIT_FALSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failed: failed invariant: u decays at rate 7\n"


def test_search_proves_conjugate_type_trials_at_any_depth_limit(capsys):
    # at depth 2 the box tree certifies these six trials only at C = 2^22 to
    # 2^30; trials 0-4 are conjugate-type and their two-square identity
    # proves C = 1/64 at any depth, while the generic trial 5 keeps 2^27
    argv = ("search", "--degree", "3", "--trials", "6", "--seed", "0", "--max-depth", "2")
    assert run(*argv) == cli.EXIT_OK
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    constants = {r["trial"]: serialization.obj_to_fraction(r["C"]) for r in records}
    expected = {trial: Fraction(1, 64) for trial in range(5)}
    expected[5] = Fraction(2**27)
    assert constants == expected
    assert all(r["positivity"] == "certified" and r["valid"] for r in records)


def test_closed_stdout_exits_quietly():
    # stdout is a pipe whose reader is already gone, as for a reader like
    # `head -c 20` that stops early, so the first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "moutardkit", "example", "1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode("utf-8")
    assert proc.returncode == cli.EXIT_BROKEN_PIPE


def test_exit_false_on_refuted_positivity(tmp_path, capsys):
    # x^2 + y^2 - 1 is negative at the origin
    poly = write_poly(tmp_path / "p.json", {(0, 0): (-1, 1), (2, 0): (1, 1), (0, 2): (1, 1)})
    assert run("positivity", "--poly", poly) == cli.EXIT_FALSE
    assert json.loads(capsys.readouterr().out)["certified"] is False


def assert_refuted_where_printed(name, capsys):
    """`positivity` exits 1 on a corpus input, and w at the printed point
    is the printed value, <= 0."""
    path = DATA / "positivity" / f"{name}.json"
    assert run("positivity", "--poly", str(path)) == cli.EXIT_FALSE
    refutation = json.loads(capsys.readouterr().out)["refutation"]
    w = serialization.obj_to_poly(json.loads(path.read_text(encoding="utf-8")))
    point = [serialization.obj_to_fraction(v) for v in refutation["point"]]
    value = serialization.obj_to_fraction(refutation["value"])
    assert w.evaluate(*point) == value <= 0


def test_exit_false_on_an_odd_degree_polynomial(capsys):
    # x^3 + y^2 + 1 is positive at the origin and takes 0 at (-1, 0)
    assert_refuted_where_printed("odd_degree", capsys)


def test_exit_false_on_a_polynomial_negative_between_box_centres(capsys):
    # the walk meets no box centre where it is <= 0 within depth 40, but it
    # meets a box corner where it is
    assert_refuted_where_printed("negative_between_centres", capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--degree", "3", "--trials", "0", "--seed", "0"),
        ("search", "--degree", "1", "--trials", "1", "--seed", "0"),
        ("sample", "--fn", "f.json", "--resolution", "two"),
        ("example", "3"),
        ("example", "1", "--max-depth", "-1"),
        ("search", "--degree", "2", "--trials", "1", "--seed", "0", "--max-depth", "-3"),
        ("sample", "--fn", "absent.json", "--resolution", "1"),
    ],
)
def test_exit_usage_on_out_of_range_flags(argv, capsys):
    assert run(*argv) == cli.EXIT_USAGE
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("transform", "--seeds", str(DATA / "pair_d5.json"), "--constant", "358"),
        ("verify", "--potential", "u.json", "--solution", "psi.json"),
        ("sample", "--fn", "f.json"),
    ],
    ids=lambda argv: argv[0],
)
def test_max_depth_is_rejected_where_no_positivity_runs(argv, capsys):
    assert run(*argv, "--max-depth", "0") == cli.EXIT_USAGE
    assert "unrecognized arguments: --max-depth" in capsys.readouterr().err


def test_exit_usage_on_missing_file(tmp_path, capsys):
    assert run("positivity", "--poly", str(tmp_path / "absent.json")) == cli.EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_exit_usage_on_unwritable_out(tmp_path, capsys):
    assert run("example", "1", "--out", str(tmp_path)) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "cannot write" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "deeply-nested"],
)
def test_exit_usage_on_unreadable_json(content, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_bytes(content)
    assert run("positivity", "--poly", str(path)) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "unreadable JSON" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "terms,value",
    [({(1, 0): (1, 1)}, 0), ({(0, 0): (-1, 1), (2, 0): (-1, 1), (0, 2): (-1, 1)}, -1)],
    ids=["x", "-1-x^2-y^2"],
)
def test_exit_false_at_the_origin_whatever_the_leading_form(terms, value, tmp_path, capsys):
    # w(0,0) <= 0 refutes before the leading form is tested
    assert run("positivity", "--poly", write_poly(tmp_path / "p.json", terms)) == cli.EXIT_FALSE
    zero = {"num": "0", "den": "1"}
    expected = {"point": [zero, zero], "value": {"num": str(value), "den": "1"}}
    assert json.loads(capsys.readouterr().out)["refutation"] == expected


@pytest.mark.parametrize(
    "terms",
    [{(0, 0): (5, 1), (2, 0): (-1, 1), (0, 2): (-1, 1)}],
    ids=["5-x^2-y^2"],
)
def test_exit_inconclusive_on_a_leading_form_that_is_not_definite(terms, tmp_path, capsys):
    # w(0,0) > 0, so the leading form decides, and it is not definite: the
    # certifier decides nothing, as x^2 + 1 fails the same test and is positive
    assert run("positivity", "--poly", write_poly(tmp_path / "p.json", terms)) == cli.EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.err.startswith("inconclusive: ") and captured.out == ""


def test_exit_inconclusive_at_depth_zero(tmp_path, capsys):
    # 3x^2 - x + y^2 + 1/10 is positive (minimum 1/60) but needs splitting
    poly = write_poly(
        tmp_path / "p.json", {(0, 0): (1, 10), (1, 0): (-1, 1), (2, 0): (3, 1), (0, 2): (1, 1)}
    )
    assert run("positivity", "--poly", poly, "--max-depth", "0") == cli.EXIT_INCONCLUSIVE
    assert "inconclusive" in capsys.readouterr().err


def reference_files(tmp_path):
    """Example 1's reference u, psi1 and W, and 1/x, as CLI input files."""
    ref = gallery.get_example(1).reference
    objs = {
        "u": serialization.rationalfn_to_obj(ref.u),
        "psi1": serialization.rationalfn_to_obj(ref.psi1),
        "w": serialization.poly_to_obj(ref.w_poly),
        "inv_x": serialization.rationalfn_to_obj(
            RationalFn(BivariatePoly.constant(1), BivariatePoly.monomial(1, 0))
        ),
    }
    for name, obj in objs.items():
        (tmp_path / f"{name}.json").write_text(serialization.dumps(obj), encoding="utf-8")
    return {name: str(tmp_path / f"{name}.json") for name in objs}


# SHA-256 of the stdout of `moutardkit ARGV...` on the files of
# `reference_files`, recorded with the sample loop that tested the
# denominator for zero before dividing
REFERENCE_STDOUT_SHA256 = [
    (
        ("sample", "--fn", "psi1", "--resolution", "21"),
        "86858cc4e0d48cc1f9f1d495a2a3a163065c60508a286b3bbe2e294fd0cb58ef",
    ),
    (
        ("sample", "--fn", "inv_x", "--min", "-1", "--max", "1", "--resolution", "3"),
        "f587022d2eee30b19cf74c48ed676fa71a9d32627a0e221922fb65da85788324",
    ),
    (
        ("positivity", "--poly", "w"),
        "d47dfa0a81e6da6a9c69483e12fe65e8a581abc9a53fef95d642148dc2e4fd14",
    ),
    # x^4 + 2y^4 + 1 - xy: a certificate whose circle bound comes from Sturm chains
    (
        ("positivity", "--poly", str(DATA / "positivity" / "nonradial_certified.json")),
        "f6b7dd1c8b23295ac06e42ab3b7480f750593549e70bc935dc6341c29c600433",
    ),
    # recorded with the Fraction evaluation loop, at the default resolution 101
    (("sample", "--fn", "psi1"), "cb4b658dc2378456c53bb7eda3b98f2303230516155d3c41fe8f2bc65ee30a99"),
    # recorded with the one-dimensional darboux1d subcommand still in the parser
    (
        ("verify", "--potential", "u", "--solution", "psi1"),
        "94a2355b92e4f5b81613ad40c0772989d0ce39fae3be990172241ef617e2b952",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    REFERENCE_STDOUT_SHA256,
    ids=[
        "sample-psi1",
        "sample-inv-x-poles",
        "positivity-w",
        "positivity-nonradial",
        "sample-psi1-default",
        "verify-u-psi1",
    ],
)
def test_golden_stdout_on_reference_files(argv, digest, tmp_path, capsys):
    files = reference_files(tmp_path)
    assert run(*(files.get(arg, arg) for arg in argv)) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
    assert ("warning: 3 grid points hit a pole" in captured.err) == ("inv_x" in argv)


def test_every_subcommand_has_a_golden_stdout_pin():
    (subcommands,) = [
        action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    ]
    pinned = {argv[0] for argv, _ in GOLDEN_STDOUT_SHA256 + REFERENCE_STDOUT_SHA256}
    # transform's pins are PAIR_D5_TRANSFORM_SHA256 and PAIR_U0_X2_TRANSFORM_SHA256
    assert set(subcommands.choices) - pinned - {"transform"} == set()


ONE_OBJ = poly_obj({(0, 0): (1, 1)})
ZERO_DEN_POLY = poly_obj({(2, 0): (1, 0)})
EMPTY_DEN_FN = {"num": ONE_OBJ, "den": {"vars": ["x", "y"], "terms": []}}


@pytest.mark.parametrize(
    "argv,files",
    [
        (("positivity", "--poly", "a"), {"a": ZERO_DEN_POLY}),
        (("transform", "--seeds", "a", "--constant", "1"), {"a": {"omega1": ZERO_DEN_POLY, "omega2": ONE_OBJ}}),
        (
            ("transform", "--seeds", "a", "--constant", "1"),
            {"a": {"omega1": ONE_OBJ, "omega2": ONE_OBJ, "u0": EMPTY_DEN_FN}},
        ),
        (("verify", "--potential", "a", "--solution", "b"), {"a": ZERO_DEN_POLY, "b": ONE_OBJ}),
        (("verify", "--potential", "a", "--solution", "b"), {"a": ONE_OBJ, "b": EMPTY_DEN_FN}),
        (("sample", "--fn", "a"), {"a": ZERO_DEN_POLY}),
        (("sample", "--fn", "a"), {"a": EMPTY_DEN_FN}),
    ],
    ids=[
        "positivity-zero-den-term",
        "transform-zero-den-term",
        "transform-empty-den-poly",
        "verify-zero-den-term",
        "verify-empty-den-poly",
        "sample-zero-den-term",
        "sample-empty-den-poly",
    ],
)
def test_exit_usage_on_zero_denominator(argv, files, tmp_path, capsys):
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    assert run(*(str(tmp_path / arg) if arg in files else arg for arg in argv)) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    kind = {"positivity": "polynomial", "transform": "seeds"}.get(argv[0], "function")
    assert f": bad {kind} file: " in captured.err


def test_exit_usage_on_repeated_term(tmp_path, capsys):
    # -1 + x^2 + y^2 + 1 is zero at the origin; read as x^2 + y^2 + 1 it would certify
    obj = poly_obj({(0, 0): (-1, 1), (2, 0): (1, 1), (0, 2): (1, 1)})
    obj["terms"].append({"i": 0, "j": 0, "num": "1", "den": "1"})
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps(obj), encoding="utf-8")
    assert run("positivity", "--poly", str(poly)) == cli.EXIT_USAGE
    assert "repeated term x^0 y^0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "terms",
    [
        # read as 1*x^2 + y^2/1 + 1 this would certify
        [{"i": 2, "j": 0, "num": True, "den": "1"}, {"i": 0, "j": 2, "num": "1", "den": True}],
        # read as x^1 this would fail as an odd-degree form
        [{"i": True, "j": False, "num": "1", "den": "1"}],
    ],
    ids=["boolean-number", "boolean-exponent"],
)
def test_exit_usage_on_json_booleans(terms, tmp_path, capsys):
    poly = tmp_path / "p.json"
    obj = {"vars": ["x", "y"], "terms": terms + [{"i": 0, "j": 0, "num": "1", "den": "1"}]}
    poly.write_text(json.dumps(obj), encoding="utf-8")
    assert run("positivity", "--poly", str(poly)) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad polynomial file" in captured.err


# valid input files built from example 1, and commands that read them; the
# fuzz test below mutates the first file named by each command
FUZZ_REF = gallery.get_example(1)
FUZZ_FILES = {
    "w": serialization.poly_to_obj(FUZZ_REF.reference.w_poly),
    "seeds": {
        "omega1": serialization.poly_to_obj(FUZZ_REF.seeds.omega1),
        "omega2": serialization.poly_to_obj(FUZZ_REF.seeds.omega2),
        "u0": serialization.rationalfn_to_obj(FUZZ_REF.seeds.u0),
    },
    "u": serialization.rationalfn_to_obj(FUZZ_REF.reference.u),
    "psi": serialization.rationalfn_to_obj(FUZZ_REF.reference.psi1),
}
FUZZ_COMMANDS = [
    ("w", ("positivity", "--poly", "w", "--max-depth", "6")),
    ("seeds", ("transform", "--seeds", "seeds", "--constant", "160")),
    ("u", ("verify", "--potential", "u", "--solution", "psi")),
    ("psi", ("verify", "--potential", "u", "--solution", "psi")),
    ("psi", ("sample", "--fn", "psi", "--resolution", "3")),
]


def _nodes(obj):
    """Every dict inside a JSON value, outermost first."""
    if isinstance(obj, dict):
        yield obj
        children = obj.values()
    elif isinstance(obj, list):
        children = obj
    else:
        return
    for child in children:
        yield from _nodes(child)


def _mutate(obj, kind, draw):
    """Apply one input-boundary mutation of `kind` to obj in place."""
    nodes = [n for n in _nodes(obj) if n]
    polys = [n for n in nodes if isinstance(n.get("terms"), list)]
    terms = [n for n in nodes if "num" in n and not isinstance(n["num"], dict)]
    if kind == "drop-key" and nodes:
        node = draw(st.sampled_from(nodes))
        del node[draw(st.sampled_from(sorted(node)))]
    elif kind == "zero-den" and terms:
        draw(st.sampled_from(terms))["den"] = "0"
    elif kind == "repeat-term" and terms:
        poly = draw(st.sampled_from([p for p in polys if p["terms"]]))
        poly["terms"].append(dict(draw(st.sampled_from(poly["terms"])), num="7"))
    elif kind == "bad-exponent" and terms:
        term = draw(st.sampled_from(terms))
        term[draw(st.sampled_from(["i", "j"]))] = draw(st.sampled_from([-1, 1.5, "1", None, [0], True]))
    elif kind == "bad-number" and terms:
        term = draw(st.sampled_from(terms))
        term[draw(st.sampled_from(["num", "den"]))] = draw(st.sampled_from(["1/2", "x", 1.5, None, True]))
    elif kind == "wrong-vars" and polys:
        draw(st.sampled_from(polys))["vars"] = draw(st.sampled_from([["x"], ["y", "x"], "xy", None]))
    elif kind == "empty-terms" and polys:
        draw(st.sampled_from(polys))["terms"] = []


MUTATIONS = ["drop-key", "zero-den", "repeat-term", "bad-exponent", "bad-number", "wrong-vars", "empty-terms"]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FUZZ_COMMANDS), st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3), st.data())
def test_fuzzed_input_files_never_crash(command, kinds, data):
    target, argv = command
    files = copy.deepcopy(FUZZ_FILES)
    for kind in kinds:
        _mutate(files[target], kind, data.draw)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            Path(tmp, name).write_text(json.dumps(obj), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main([str(Path(tmp, arg)) if arg in files else arg for arg in argv])
    assert status in (cli.EXIT_OK, cli.EXIT_FALSE, cli.EXIT_USAGE, cli.EXIT_INCONCLUSIVE)
    if status == cli.EXIT_FALSE:
        assert isinstance(json.loads(out.getvalue()), dict)
    if status == cli.EXIT_USAGE:
        assert out.getvalue() == ""
