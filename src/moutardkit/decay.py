"""Asymptotic decay reports and L2-membership for rational functions.

A rational function f = N/D with deg D - deg N = k satisfies
|f| <= K*(1+r)^(-k) in every direction once D's leading form is strictly
positive on the unit circle; the report records that validity separately
from the exponent, plus whether the rate is attained along generic rays.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import NonPositiveLeadingForm
from .polynomials import RationalFn
from .positivity import (
    PositivityCertificate,
    PositivityOutcome,
    TwoSquareProof,
    global_positivity,
    leading_dominance,
)


class DecayReport(NamedTuple):
    exponent: int
    bound_valid: bool
    exact_on_generic_ray: bool

    def to_obj(self) -> dict:
        return {
            "exponent": self.exponent,
            "bound_valid": self.bound_valid,
            "exact_on_generic_ray": self.exact_on_generic_ray,
        }


def decay_exponent(f: RationalFn) -> DecayReport:
    """Report deg(den) - deg(num) and the validity of the uniform bound.

    The bound is valid when `leading_dominance(den)` exists, i.e. den's
    leading form has a positive lower bound m on the unit circle; its (m, S)
    are what the constants K and R0 of the bound are made of. A zero
    numerator decays faster than any rate; deg(den) is reported with the
    generic-ray flag off.
    """
    den_degree = int(f.den.degree)
    if f.num.is_zero:
        exponent = den_degree
        exact = False
    else:
        exponent = den_degree - int(f.num.degree)
        exact = True
    try:
        leading_dominance(f.den)
        valid = True
    except NonPositiveLeadingForm:
        valid = False
    return DecayReport(exponent=exponent, bound_valid=valid, exact_on_generic_ray=exact)


def square_summable(
    report: DecayReport, den_outcome: Union[PositivityOutcome, TwoSquareProof]
) -> bool:
    """The L2 rule: psi = N/D is certifiably square-summable over the plane
    iff D is certified positive (no real poles) and psi's decay bound is
    valid with exponent >= 2 (then the radial integral of |psi|^2 converges).
    A box certificate, or a two-square proof with a positive floor,
    certifies D.
    """
    certified = isinstance(den_outcome, PositivityCertificate) or (
        isinstance(den_outcome, TwoSquareProof) and den_outcome.floor > 0
    )
    return certified and report.bound_valid and report.exponent >= 2


def l2_membership(psi: RationalFn) -> bool:
    """`square_summable` for psi after certifying its denominator here; a
    caller holding that certificate already (search, for W) applies the
    rule directly. Inconclusive positivity propagates, never guessed.
    """
    outcome = global_positivity(psi.den)
    return square_summable(decay_exponent(psi), outcome)
