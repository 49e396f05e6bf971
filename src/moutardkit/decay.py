"""Asymptotic decay reports and L2-membership for rational functions.

A rational function f = N/D with deg D - deg N = k satisfies
|f| <= K*(1+r)^(-k) in every direction once D's leading form is strictly
positive on the unit circle; the report records that validity separately
from the exponent, plus whether the rate is attained along generic rays.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NonPositiveLeadingForm
from .polynomials import RationalFn
from .positivity import PositivityCertificate, global_positivity, leading_dominance


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


def square_summable(report: DecayReport) -> bool:
    """The decay half of the L2 rule. psi = N/D is square-summable over the
    plane iff D is certified positive (no real poles), which the caller
    proves, and psi's decay bound is valid with exponent >= 2 (then the
    radial integral of |psi|^2 converges), which this reads.
    """
    return report.bound_valid and report.exponent >= 2


def l2_membership(psi: RationalFn) -> bool:
    """The L2 rule for psi: its denominator certified positive here by
    `global_positivity`, and `square_summable` on its decay report.
    Inconclusive positivity propagates, never guessed.
    """
    certified = isinstance(global_positivity(psi.den), PositivityCertificate)
    return certified and square_summable(decay_exponent(psi))
