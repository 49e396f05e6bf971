"""Exact construction and verification of two-dimensional Schrodinger
operators -Lap + u with fast-decaying rational potentials and an explicit
two-dimensional kernel at zero energy.

The pipeline: harmonic polynomial seed pairs feed two commuting Moutard
transformations; the quadrature produces W = F + C, the potential
u = -2*Lap(log W) and the kernel functions omega1/W, -omega2/W. All
identities are verified with exact rational arithmetic. Positivity of W
is proved by a two-square identity, or by branch-and-bound inside the
radius beyond which a circle bound on W's leading form dominates; that
bound is a radial comparison, with Sturm sequences only for non-radial
forms. Decay rates follow from the degree gap once the denominator's
leading form is positive on the unit circle.

The exports are lazy (PEP 562): `import moutardkit` loads no submodule,
and the first use of an exported name imports the module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "construct": (
        "DoubleMoutardResult",
        "SeedPair",
        "calibrate_against",
        "double_transform",
        "transform_family",
        "verify_lemma",
    ),
    "decay": ("DecayReport", "decay_exponent", "l2_membership"),
    "errors": ("MoutardKitError",),
    "gallery": ("get_example",),
    "harmonic": ("HarmonicCombo", "harmonic_basis", "random_combo"),
    "moutard": (
        "ClosedOneForm",
        "integrate_closed",
        "moutard_potential",
        "moutard_solution",
        "solution_one_form",
        "verify_solution",
    ),
    "numeric": ("L2Estimate", "numeric_l2_norm", "numeric_residual", "uniform_grid"),
    "polynomials": ("NEG_INFINITY", "BivariatePoly", "RationalFn"),
    "positivity": (
        "PositivityCertificate",
        "PositivityRefutation",
        "global_positivity",
        "min_positive_constant",
    ),
    "search": ("SearchRecord", "sweep", "verify_example_full"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
