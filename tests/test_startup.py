"""Each subcommand in a fresh interpreter: golden stdout and import footprint.

The in-process CLI tests import every module before they run a
subcommand, so a `cmd_*` whose own import is wrong or missing would still
pass them. Here every subcommand runs as `python -m moutardkit` in a new
process and must print the stdout `tests/test_cli.py` pins; the footprint
tests check that the package, `transform` and `search` load only what
they run.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moutardkit import cli
from test_cli import (
    DATA,
    GOLDEN_STDOUT_SHA256,
    PAIR_D5_TRANSFORM_SHA256,
    REFERENCE_STDOUT_SHA256,
    reference_files,
)

SRC = Path(__file__).resolve().parent.parent / "src"

PINS = dict(GOLDEN_STDOUT_SHA256 + REFERENCE_STDOUT_SHA256)
TRANSFORM_ARGV = ("transform", "--seeds", str(DATA / "pair_d5.json"), "--constant", "358")
PINS[TRANSFORM_ARGV] = PAIR_D5_TRANSFORM_SHA256

# one pinned argv per subcommand; reference-file names are replaced by paths
STARTUP_ARGVS = [
    ("example", "1"),
    TRANSFORM_ARGV,
    ("verify", "--potential", "u", "--solution", "psi1"),
    ("positivity", "--poly", "w"),
    ("sample", "--fn", "psi1", "--resolution", "21"),
    ("search", "--degree", "2", "--trials", "6", "--seed", "0"),
]

# modules that only the positivity prover, the search and the oracles need
NOT_FOR_TRANSFORM = {"positivity", "sturm", "search", "decay", "gallery", "harmonic", "numeric"}


def python(*args):
    """A fresh interpreter that finds the package under src/ only."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_startup_argvs_cover_every_subcommand():
    (subcommands,) = [
        action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    ]
    assert {argv[0] for argv in STARTUP_ARGVS} == set(subcommands.choices)


@pytest.mark.parametrize("argv", STARTUP_ARGVS, ids=[argv[0] for argv in STARTUP_ARGVS])
def test_golden_stdout_in_a_fresh_interpreter(argv, tmp_path):
    files = reference_files(tmp_path)
    proc = python("-m", "moutardkit", *(files.get(arg, arg) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == PINS[argv]


def test_package_import_loads_no_submodule():
    proc = python(
        "-c",
        "import sys; before = set(sys.modules); import moutardkit; "
        "print(*sorted(set(sys.modules) - before))",
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "moutardkit" in added
    assert {name for name in added if name.startswith("moutardkit.")} == set()
    assert added & {"dataclasses", "inspect"} == set()


def loaded_modules(argv):
    """The modules loaded after `cli.main(argv)` in a fresh interpreter."""
    proc = python(
        "-c",
        "import sys; from moutardkit.cli import main; status = main(sys.argv[1:]); "
        "print(*sorted(sys.modules), file=sys.stderr); sys.exit(status)",
        *argv,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_search_loads_neither_sturm_nor_the_gallery():
    # every leading form a sweep circle-tests is radial, and no sweep reads
    # an example
    loaded = loaded_modules(("search", "--degree", "2", "--trials", "6", "--seed", "0"))
    assert {"moutardkit.search", "moutardkit.positivity"} <= loaded
    assert {"moutardkit.sturm", "moutardkit.gallery"} & loaded == set()


def test_transform_loads_only_the_construction():
    loaded = loaded_modules(TRANSFORM_ARGV)
    assert {"moutardkit.construct", "moutardkit.moutard"} <= loaded
    assert {f"moutardkit.{name}" for name in NOT_FOR_TRANSFORM} & loaded == set()
    assert "dataclasses" not in loaded
