"""The planar Moutard map restricted to y-independent seeds is the 1D Darboux step."""

from moutardkit.moutard import moutard_potential
from moutardkit.polynomials import BivariatePoly, RationalFn


def test_two_dimensional_reduction_reproduces_first_step():
    # the planar transformation with the y-independent seed omega = x
    x2d, _ = BivariatePoly.variables()
    u2d = moutard_potential(RationalFn.zero(), x2d)
    # the classical Darboux step of u = 0 with seed psi = x:
    # u1 = -2 (log psi)'' = 2 (psi'^2 - psi psi'') / psi^2
    psi = BivariatePoly.monomial(1, 0)
    dpsi = psi.diff_x()
    u1d = RationalFn((dpsi * dpsi - psi * dpsi.diff_x()).scale(2), psi * psi)
    assert u2d.num == BivariatePoly.constant(2)
    assert u2d.den == x2d * x2d
    assert u1d.equals(RationalFn(BivariatePoly.constant(2), BivariatePoly.monomial(2, 0)))
    assert u2d.equals(u1d)
