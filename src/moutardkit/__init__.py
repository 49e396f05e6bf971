"""Exact construction and verification of two-dimensional Schrodinger
operators -Lap + u with fast-decaying rational potentials and an explicit
two-dimensional kernel at zero energy.

The pipeline: harmonic polynomial seed pairs feed two commuting Moutard
transformations; the quadrature produces W = F + C, the potential
u = -2*Lap(log W) and the kernel functions omega1/W, -omega2/W. All
identities are verified with exact rational arithmetic, positivity of W
is certified by Sturm sequences plus branch-and-bound, and decay rates
follow from the degree gap once the denominator's leading form is
positive on the unit circle.
"""

from .construct import (
    DoubleMoutardResult,
    SeedPair,
    calibrate_against,
    double_transform,
    transform_family,
    verify_lemma,
)
from .decay import DecayReport, decay_exponent, l2_membership
from .errors import MoutardKitError
from .gallery import get_example
from .harmonic import HarmonicCombo, harmonic_basis, is_harmonic, random_combo
from .moutard import (
    ClosedOneForm,
    integrate_closed,
    moutard_potential,
    moutard_solution,
    solution_one_form,
    verify_solution,
)
from .numeric import L2Estimate, numeric_l2_norm, numeric_residual, uniform_grid
from .polynomials import NEG_INFINITY, BivariatePoly, RationalFn
from .positivity import (
    PositivityCertificate,
    PositivityRefutation,
    global_positivity,
    min_positive_constant,
)
from .search import SearchRecord, sweep, verify_example_full

__version__ = "0.1.0"

__all__ = [
    "BivariatePoly",
    "ClosedOneForm",
    "DecayReport",
    "DoubleMoutardResult",
    "HarmonicCombo",
    "L2Estimate",
    "MoutardKitError",
    "NEG_INFINITY",
    "PositivityCertificate",
    "PositivityRefutation",
    "RationalFn",
    "SearchRecord",
    "SeedPair",
    "calibrate_against",
    "decay_exponent",
    "double_transform",
    "get_example",
    "global_positivity",
    "harmonic_basis",
    "integrate_closed",
    "is_harmonic",
    "l2_membership",
    "min_positive_constant",
    "moutard_potential",
    "moutard_solution",
    "numeric_l2_norm",
    "numeric_residual",
    "random_combo",
    "solution_one_form",
    "sweep",
    "transform_family",
    "uniform_grid",
    "verify_example_full",
    "verify_lemma",
    "verify_solution",
]
