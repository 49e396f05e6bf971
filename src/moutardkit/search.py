"""Exploration drivers: random sweeps over harmonic seed pairs and full
verification of the built-in examples.

A sweep measures how fast the constructed potentials and kernel functions
decay as the seed degree grows; it only ever records what was certified,
it never extrapolates.

psi_i = +-omega_i/W is a square-summable kernel element only when
W = F + C has no real zero, so each trial establishes one fact, W > 0,
once. In a sweep `positivity.min_positive_constant` (re-exported here)
returns C only when W = F + C is certified, so `run_trial` hands that W
to `double_transform` with W > 0 established and builds no certificate.
`verify_example_full` may take C from an example's reference closed form
and certifies W by `global_positivity`, since `example` prints the box
certificate. Every positivity question goes to `positivity`; this module
never sees a box.

Over u0 = 0 the constant search carries the hint (omega1, conj(omega1)).
On a conjugate-type pair, omega2 = conj(omega1) + t*omega1,
`positivity.two_squares` verifies F = mu*(omega1^2 + conj(omega1)^2) with
mu > 0: C is then REFINE_FLOOR with no box, since W >= C > 0.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .construct import (
    DoubleMoutardResult,
    SeedPair,
    calibrate_against,
    double_transform,
    proportional,
    transform_family,
)
from .decay import DecayReport, decay_exponent, square_summable
from .errors import Inconclusive, NonPositiveLeadingForm, VerificationFailed
from .harmonic import conjugate, random_combo
from .polynomials import BivariatePoly, RationalFn
from .positivity import (
    DEFAULT_MAX_DEPTH,
    PositivityCertificate,
    global_positivity,
    leading_dominance,
    min_positive_constant,
)
from .serialization import fraction_to_obj, poly_to_obj

COEFFICIENT_BOUND = 5  # seed coefficients of a sweep are drawn from [-5, 5]


class SearchRecord(NamedTuple):
    """One certified (or failed) trial of the construction pipeline; the
    defaults are a failed trial's, so a failure gives only its error."""

    trial: int
    seeds_obj: dict
    constant: Fraction = Fraction(0)
    u_decay: int = -1
    psi_decay: int = -1
    positivity: str = "inconclusive"  # certified | refuted | inconclusive
    w_degree: int = -1
    valid: bool = False
    error: str = ""

    def to_obj(self) -> dict:
        return {
            "trial": self.trial,
            "seeds": self.seeds_obj,
            "C": fraction_to_obj(self.constant),
            "u_decay": self.u_decay,
            "psi_decay": self.psi_decay,
            "positivity": self.positivity,
            "W_degree": self.w_degree,
            "valid": self.valid,
            "error": self.error,
        }


def _seeds_obj(seeds: SeedPair) -> dict:
    return {
        "omega1": poly_to_obj(seeds.omega1),
        "omega2": poly_to_obj(seeds.omega2),
    }


def orient_for_positivity(seeds: SeedPair) -> Tuple[SeedPair, BivariatePoly]:
    """Order the seed pair so the quadrature's leading form can be positive.

    Swapping the seeds flips the sign of the closed 1-form, hence of F
    (the quadrature is linear and fixes F(0,0) = 0), so the swapped pair's
    F is -F without a second quadrature. A positive-definite leading form is
    positive at (0, 1), so F's y^D coefficient picks the side, and one
    `leading_dominance` raises NonPositiveLeadingForm if neither qualifies.
    """
    f = transform_family(seeds)
    if f.coefficient(0, int(f.degree)) < 0:
        seeds, f = seeds.swapped(), -f
    leading_dominance(f)
    return seeds, f


def _square_hint(oriented: SeedPair) -> Optional[Tuple[BivariatePoly, BivariatePoly]]:
    """(omega1, conj(omega1)) over u0 = 0, else None.

    Any a in span{omega1, conj(omega1)} has a^2 + conj(a)^2 proportional
    to omega1^2 + conj(omega1)^2, so one hint serves either orientation of
    a conjugate-type pair. It is only a hint: `two_squares` checks it.
    """
    if not oriented.u0.num.is_zero:
        return None
    return oriented.omega1, conjugate(oriented.omega1)


def _draw_pair(rng: random.Random, degree: int, coefficient_bound: int) -> SeedPair:
    """A random seed pair of exact top degree, alternating two families.

    Conjugate-pair trials take omega2 = Im(f) + t*omega1 for the same
    holomorphic f realizing omega1 = Re(f); those are the pairs whose
    quadrature collapses to C + |f|^2/2 and reaches the top decay rate.
    Independent-pair trials probe the generic behaviour for contrast.
    """

    def draw_exact_degree():
        while True:
            omega = random_combo(degree, 0, coefficient_bound, rng=rng).realized
            if omega.degree == degree:
                return omega

    omega1 = draw_exact_degree()
    if rng.randint(0, 1):
        # never a multiple of omega1: omega1 + i*conj(omega1) would then be
        # holomorphic with values on one line, hence constant
        mix = Fraction(rng.randint(-2, 2))
        return SeedPair.harmonic(omega1, conjugate(omega1) + omega1.scale(mix))
    omega2 = draw_exact_degree()
    while proportional(omega1, omega2):
        omega2 = draw_exact_degree()
    return SeedPair.harmonic(omega1, omega2)


class TrialReport(NamedTuple):
    """Everything the pipeline produced for one certified trial.

    psi1 and psi2 have denominator W > 0, so each is square-summable
    exactly when `square_summable` holds of its decay report.
    """

    record: SearchRecord
    result: DoubleMoutardResult
    u_report: DecayReport
    psi1_report: DecayReport
    psi2_report: DecayReport


def _trial_report(trial: int, oriented: SeedPair, result: DoubleMoutardResult) -> TrialReport:
    """Analyze a transformed pair whose W = F + C the caller has proved positive."""
    u_report = decay_exponent(result.u)
    psi1_report = decay_exponent(result.psi1)
    psi2_report = decay_exponent(result.psi2)
    record = SearchRecord(
        trial=trial,
        seeds_obj=_seeds_obj(oriented),
        constant=result.w_poly.coefficient(0, 0),
        u_decay=u_report.exponent,
        psi_decay=min(psi1_report.exponent, psi2_report.exponent),
        positivity="certified",
        w_degree=int(result.w_poly.degree),
        valid=u_report.bound_valid and psi1_report.bound_valid and psi2_report.bound_valid,
    )
    return TrialReport(record, result, u_report, psi1_report, psi2_report)


def run_trial(
    trial: int,
    seeds: SeedPair,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SearchRecord:
    """Orient, pick C by the constant search, transform, and analyze one seed pair.

    The constant search certifies W = F + C, and `double_transform` is
    run on that W; no certificate object is built. A pair without a
    positive orientation or a certifiable constant is recorded as a
    failure; every other error propagates.
    """
    try:
        oriented, f = orient_for_positivity(seeds)
        constant = min_positive_constant(f, max_depth, _square_hint(oriented))
    except (NonPositiveLeadingForm, Inconclusive) as exc:
        return SearchRecord(trial, _seeds_obj(seeds), error=type(exc).__name__)
    result = double_transform(oriented, f + BivariatePoly.constant(constant))
    return _trial_report(trial, oriented, result).record


def sweep(
    degree: int,
    rng_seed: int,
    trials: int,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> List[SearchRecord]:
    """Random seed-pair trials at a fixed degree, deterministically seeded.

    Individual failures are recorded, never raised. Records are sorted by
    (u_decay descending, W_degree ascending, trial).
    """
    if degree < 2:
        raise ValueError("sweep needs degree >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(rng_seed)
    records = []
    for trial in range(trials):
        seeds = _draw_pair(rng, degree, COEFFICIENT_BOUND)
        records.append(run_trial(trial, seeds, max_depth))
    records.sort(key=lambda r: (-r.u_decay, r.w_degree, r.trial))
    return records


def _check(condition: bool, invariant: str) -> None:
    if not condition:
        raise VerificationFailed(f"failed invariant: {invariant}")


def _proportional_rf(a: RationalFn, b: RationalFn) -> bool:
    return proportional(a.num * b.den, b.num * a.den)


def verify_example_full(
    ident: int, max_depth: int = DEFAULT_MAX_DEPTH
) -> Tuple[TrialReport, PositivityCertificate]:
    """Run the whole pipeline on a built-in example and assert its claims;
    returns the report and W's box certificate, which `example` prints.

    An example with a reference closed form calibrates C against it; one
    without takes C from `min_positive_constant`, whose square hint spares
    a conjugate-type example the probe walks. Either way the certificate
    comes from one `global_positivity` call.
    """
    from .gallery import get_example  # only the examples read the gallery

    example = get_example(ident)
    oriented, f = orient_for_positivity(example.seeds)
    ref = example.reference
    if ref is None:
        constant = min_positive_constant(f, max_depth, _square_hint(oriented))
    else:
        lam, c_total = calibrate_against(f, ref.w_poly)
        constant = c_total / lam
    result = double_transform(oriented, f + BivariatePoly.constant(constant))
    certificate = global_positivity(result.w_poly, max_depth)
    _check(isinstance(certificate, PositivityCertificate), "global positivity certificate for W")
    report = _trial_report(ident, oriented, result)

    if ref is not None:
        _check(result.u.equals(ref.u), "u matches the reference closed form")
        pairings = [
            _proportional_rf(result.psi1, ref.psi1) and _proportional_rf(result.psi2, ref.psi2),
            _proportional_rf(result.psi1, ref.psi2) and _proportional_rf(result.psi2, ref.psi1),
        ]
        _check(any(pairings), "kernel functions proportional to the reference pair")

    for name, decay, rate in (
        ("u", report.u_report, example.expected_u_decay),
        ("psi1", report.psi1_report, example.expected_psi_decay),
        ("psi2", report.psi2_report, example.expected_psi_decay),
    ):
        _check(decay.bound_valid and decay.exponent == rate, f"{name} decays at rate {rate}")
    _check(
        square_summable(report.psi1_report) and square_summable(report.psi2_report),
        "kernel functions are square-summable",
    )
    return report, certificate
