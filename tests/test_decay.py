"""Decay exponents and L2-membership."""

from fractions import Fraction

import pytest

from moutardkit.decay import DecayReport, decay_exponent, l2_membership, square_summable
from moutardkit.gallery import get_example
from moutardkit.polynomials import BivariatePoly, RationalFn

X, Y = BivariatePoly.variables()
ONE = BivariatePoly.constant(1)
REF = get_example(1).reference


class TestDecayExponent:
    def test_reference_potential(self):
        report = decay_exponent(REF.u)
        assert report == DecayReport(6, True, True)

    def test_reference_kernel_functions(self):
        for psi in (REF.psi1, REF.psi2):
            report = decay_exponent(psi)
            assert report.exponent == 2
            assert report.bound_valid

    def test_scale_invariance(self):
        for lam in (Fraction(3), Fraction(-1, 7)):
            assert decay_exponent(RationalFn(REF.u.num.scale(lam), REF.u.den)) == decay_exponent(REF.u)

    def test_invalid_bound_indefinite_denominator(self):
        f = RationalFn(ONE, X * X - Y * Y + BivariatePoly.constant(3))
        report = decay_exponent(f)
        assert report.exponent == 2
        assert not report.bound_valid

    def test_invalid_bound_odd_denominator(self):
        report = decay_exponent(RationalFn(ONE, X))
        assert report.exponent == 1
        assert not report.bound_valid

    def test_polynomial_has_a_valid_bound(self):
        # the denominator is the constant 1, whose circle bound is 1
        assert decay_exponent(RationalFn(X)) == DecayReport(-1, True, True)

    def test_zero_numerator(self):
        report = decay_exponent(RationalFn(BivariatePoly.zero(), ONE + X * X))
        assert report.exponent == 2
        assert not report.exact_on_generic_ray


class TestL2Membership:
    def test_reference_kernel_functions(self):
        assert l2_membership(REF.psi1)
        assert l2_membership(REF.psi2)

    def test_radial_example(self):
        assert l2_membership(RationalFn(ONE, ONE + X * X + Y * Y))

    def test_slow_decay_rejected(self):
        assert not l2_membership(RationalFn(X, ONE + X * X + Y * Y))

    def test_pole_rejected(self):
        assert not l2_membership(RationalFn(ONE, X * X + Y * Y))

    def test_square_summable_is_the_decay_half_of_the_rule(self):
        # the pole of 1/(x^2 + y^2) is l2_membership's to rule out, not
        # square_summable's: that reads the decay report alone
        assert square_summable(decay_exponent(RationalFn(ONE, X * X + Y * Y)))
        assert not square_summable(decay_exponent(RationalFn(X, ONE + X * X + Y * Y)))
        assert not square_summable(DecayReport(4, False, True))
