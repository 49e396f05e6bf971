"""The single Moutard transformation for L = -Lap + u.

Given a seed omega with L(omega) = 0, the potential map is

    u  ->  2*(omega_x^2 + omega_y^2)/omega^2 - u,

and each co-solution phi is carried to the family
phi~ = (F + C)/omega, where F is the quadrature of the closed 1-form

    P dx + Q dy,  P = -(omega*phi_y - phi*omega_y),
                  Q =   omega*phi_x - phi*omega_x.

Seeds and co-seeds are restricted to polynomials so the quadrature stays
inside exact termwise antidifferentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolated, NotClosed, NotCoKernel, SeedNotInKernel, ZeroSeed
from .polynomials import BivariatePoly, RationalFn


@dataclass(frozen=True)
class ClosedOneForm:
    """P dx + Q dy with dP/dy == dQ/dx, checked at construction."""

    p: BivariatePoly
    q: BivariatePoly

    def __post_init__(self):
        if self.p.diff_y() != self.q.diff_x():
            raise NotClosed("dP/dy != dQ/dx")


@dataclass(frozen=True)
class TransformFamily:
    """The one-parameter solution family (F + C)/omega of a Moutard step."""

    omega: BivariatePoly
    antiderivative: BivariatePoly
    form: ClosedOneForm

    def __post_init__(self):
        exact = (
            self.antiderivative.diff_x() == self.form.p
            and self.antiderivative.diff_y() == self.form.q
        )
        if not exact:
            raise NotClosed("antiderivative does not reproduce the 1-form")


def kernel_residual(u: RationalFn, seed: BivariatePoly) -> BivariatePoly:
    """Cross-multiplied residual of (-Lap + u) seed; zero iff seed is in kernel."""
    return u.num * seed - u.den * seed.laplacian()


def moutard_potential(u: RationalFn, omega: BivariatePoly) -> RationalFn:
    """Transformed potential 2*|grad omega|^2 / omega^2 - u.

    The seed condition (-Lap + u) omega = 0 is always verified, not trusted.
    """
    if omega.is_zero:
        raise ZeroSeed("seed polynomial is zero")
    if not kernel_residual(u, omega).is_zero:
        raise SeedNotInKernel("(-Lap + u) omega != 0")
    ox, oy = omega.diff_x(), omega.diff_y()
    grad_sq = ox * ox + oy * oy
    return RationalFn(
        grad_sq.scale(2) * u.den - u.num * (omega * omega),
        u.den * (omega * omega),
    )


def solution_one_form(omega: BivariatePoly, phi: BivariatePoly) -> ClosedOneForm:
    """The closed 1-form whose quadrature yields omega * phi~.

    Requires omega*Lap(phi) == phi*Lap(omega), i.e. both functions solve a
    common Schrodinger equation; that identity is exactly closedness.
    """
    if omega.is_zero:
        raise ZeroSeed("seed polynomial is zero")
    if omega * phi.laplacian() != phi * omega.laplacian():
        raise NotCoKernel("omega*Lap(phi) != phi*Lap(omega)")
    p = -(omega * phi.diff_y() - phi * omega.diff_y())
    q = omega * phi.diff_x() - phi * omega.diff_x()
    return ClosedOneForm(p, q)


def integrate_closed(form: ClosedOneForm) -> BivariatePoly:
    """Quadrature of a closed polynomial 1-form, normalized to F(0,0) = 0.

    Termwise x-antiderivative of P first; the remainder Q - d/dy of that
    must be x-free (otherwise the form was not closed) and integrates in y.
    """
    fx_part = form.p.integrate_x()
    remainder = form.q - fx_part.diff_y()
    if any(i != 0 for (i, _), _ in remainder.items()):
        raise NotClosed("y-remainder depends on x")
    f = fx_part + remainder.integrate_y()
    # both termwise antiderivatives produce no constant term
    if f.coefficient(0, 0) != 0:
        raise InvariantViolated("quadrature has a constant term")
    return f


def moutard_solution(
    u: RationalFn, omega: BivariatePoly, phi: BivariatePoly
) -> TransformFamily:
    """Full solution map: family phi~_C = (F + C)/omega.

    Every member satisfies (-Lap + moutard_potential(u, omega)) phi~ = 0.
    """
    form = solution_one_form(omega, phi)
    return TransformFamily(omega, integrate_closed(form), form)


def verify_solution(u: RationalFn, psi: RationalFn) -> bool:
    """True iff (-Lap + u) psi = 0 as an exact rational-function identity.

    Uses the cross-multiplied form u.num*N*D^2 == M*u.den, where psi = N/D
    and Lap(psi) = M/D^3, to keep the polynomial degrees minimal.
    """
    n, d = psi.num, psi.den
    m = psi.laplacian().num
    return (u.num * n * (d * d) - m * u.den).is_zero
