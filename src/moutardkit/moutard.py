"""The single Moutard transformation for L = -Lap + u.

Given a seed omega with L(omega) = 0, the potential map is

    u  ->  u - 2*Lap(log omega)  =  2*(omega_x^2 + omega_y^2)/omega^2 - u,

the two forms agreeing exactly because u*omega = Lap(omega). A co-solution
phi is carried to F, the quadrature of the closed 1-form

    P dx + Q dy,  P = -(omega*phi_y - phi*omega_y),
                  Q =   omega*phi_x - phi*omega_x,

and every (F + C)/omega solves the transformed equation. Seeds and
co-seeds are restricted to polynomials so the quadrature stays inside
exact termwise antidifferentiation.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantViolated, NotClosed, SeedNotInKernel, ZeroSeed
from .polynomials import BivariatePoly, RationalFn


class ClosedOneForm(NamedTuple("ClosedOneForm", [("p", BivariatePoly), ("q", BivariatePoly)])):
    """P dx + Q dy with dP/dy == dQ/dx, checked at construction."""

    __slots__ = ()

    def __new__(cls, p: BivariatePoly, q: BivariatePoly) -> "ClosedOneForm":
        if p.diff_y() != q.diff_x():
            raise NotClosed("dP/dy != dQ/dx")
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, iterable) -> "ClosedOneForm":
        """Builds through the check, and so does `_replace`, which calls it."""
        return cls(*iterable)


def potential_from_w(u0: RationalFn, w: BivariatePoly) -> RationalFn:
    """u = u0 - 2*Lap(log W) = (a*W^2 - 2b*(W*Lap W - W_x^2 - W_y^2)) / (b*W^2), u0 = a/b."""
    a, b = u0.num, u0.den
    w_x, w_y, w2 = w.diff_x(), w.diff_y(), w * w
    log_num = w * w.laplacian() - w_x * w_x - w_y * w_y
    return RationalFn(a * w2 - (b * log_num).scale(2), b * w2)


def moutard_potential(u: RationalFn, omega: BivariatePoly) -> RationalFn:
    """Transformed potential u - 2*Lap(log omega).

    The seed condition (-Lap + u) omega = 0 is always verified, not trusted.
    """
    if omega.is_zero:
        raise ZeroSeed("seed polynomial is zero")
    if not verify_solution(u, RationalFn(omega)):
        raise SeedNotInKernel("(-Lap + u) omega != 0")
    return potential_from_w(u, omega)


def solution_one_form(omega: BivariatePoly, phi: BivariatePoly) -> ClosedOneForm:
    """The closed 1-form whose quadrature yields omega * phi~.

    Requires omega*Lap(phi) == phi*Lap(omega) (both solve one Schrodinger
    equation); that is dQ/dx == dP/dy, which `ClosedOneForm` checks.
    """
    if omega.is_zero:
        raise ZeroSeed("seed polynomial is zero")
    p = -(omega * phi.diff_y() - phi * omega.diff_y())
    q = omega * phi.diff_x() - phi * omega.diff_x()
    return ClosedOneForm(p, q)


def integrate_closed(form: ClosedOneForm) -> BivariatePoly:
    """Quadrature of a closed polynomial 1-form, normalized to F(0,0) = 0.

    Termwise x-antiderivative of P first; the remainder Q - d/dy of that
    is x-free because the form is closed, and integrates in y.
    """
    fx_part = form.p.integrate_x()
    remainder = form.q - fx_part.diff_y()
    f = fx_part + remainder.integrate_y()
    # both termwise antiderivatives produce no constant term
    if f.coefficient(0, 0) != 0:
        raise InvariantViolated("quadrature has a constant term")
    if f.diff_x() != form.p or f.diff_y() != form.q:
        raise InvariantViolated("quadrature does not reproduce the 1-form")
    return f


def moutard_solution(omega: BivariatePoly, phi: BivariatePoly) -> BivariatePoly:
    """The quadrature F of the step: each (F + C)/omega solves the equation
    of moutard_potential(u, omega) whenever omega and phi solve that of u.
    """
    return integrate_closed(solution_one_form(omega, phi))


def verify_solution(u: RationalFn, psi: RationalFn) -> bool:
    """True iff (-Lap + u) psi = 0 as an exact rational-function identity.

    With u = U/V and psi = N/D this is V*D^3 times the claim, the polynomial

        V*(2D*(grad D.grad N) - D^2*Lap N + D*N*Lap D - 2N*|grad D|^2) + U*N*D^2 = 0.
    """
    n, d = psi.num, psi.den
    d_x, d_y, d2 = d.diff_x(), d.diff_y(), d * d
    grad_dot = d_x * n.diff_x() + d_y * n.diff_y()
    neg_lap = d * (grad_dot.scale(2) + n * d.laplacian()) - d2 * n.laplacian()
    neg_lap -= n * (d_x * d_x + d_y * d_y).scale(2)
    return (u.den * neg_lap + u.num * n * d2).is_zero
