"""Two commuting Moutard transformations with a common target potential.

This module only composes the single step of `moutard`. From a seed pair
(omega1, omega2) in the kernel of -Lap + u0, the step with seed omega1 and
co-solution omega2 gives F; then W = F + C, u = u0 - 2*Lap(log W), and the
kernel elements psi1 = omega1/W and psi2 = -omega2/W. The second
transformation is never integrated: its result is written down and proved
once, by `verify_lemma`. For any theta the right side of

    W^2 (-Lap + u)(theta/W) = 2 grad W.grad theta - W Lap theta - theta Lap W + u0 W theta

is symmetric in (W, theta), so psi_i = +-omega_i/W solves (-Lap + u) psi = 0
exactly when theta_i = +-W/omega_i solves that of u0 - 2*Lap(log omega_i).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Tuple

from .errors import (
    InvariantViolated,
    NoAffineMatch,
    ProportionalSeeds,
    SeedNotInKernel,
)
from .moutard import moutard_solution, potential_from_w, verify_solution
from .polynomials import BivariatePoly, RationalFn, RationalLike, as_fraction


def proportional(p: BivariatePoly, q: BivariatePoly) -> bool:
    """True iff q is a rational multiple of p (or either is zero)."""
    if p.is_zero or q.is_zero:
        return True
    (e_p, c_p) = next(p.items())
    (e_q, c_q) = next(q.items())
    if e_p != e_q:
        return False
    return q == p.scale(c_q / c_p)


class SeedPair(
    NamedTuple("SeedPair", [("u0", RationalFn), ("omega1", BivariatePoly), ("omega2", BivariatePoly)])
):
    """Background potential u0 plus two independent kernel elements."""

    __slots__ = ()

    def __new__(cls, u0: RationalFn, omega1: BivariatePoly, omega2: BivariatePoly) -> "SeedPair":
        for name, seed in (("omega1", omega1), ("omega2", omega2)):
            if seed.is_zero or not verify_solution(u0, RationalFn(seed)):
                raise SeedNotInKernel(f"(-Lap + u0) {name} != 0")
        if proportional(omega1, omega2):
            raise ProportionalSeeds("omega1 and omega2 are linearly dependent")
        return super().__new__(cls, u0, omega1, omega2)

    @classmethod
    def _make(cls, iterable) -> "SeedPair":
        """Builds through the check, and so does `_replace`, which calls it."""
        return cls(*iterable)

    @classmethod
    def harmonic(
        cls, omega1: BivariatePoly, omega2: BivariatePoly
    ) -> "SeedPair":
        """Seed pair over the free background u0 = 0."""
        return cls(RationalFn.zero(), omega1, omega2)

    def swapped(self) -> "SeedPair":
        """Seeds exchanged (flips F's sign), unchecked: `__new__`'s checks are symmetric."""
        return tuple.__new__(SeedPair, (self.u0, self.omega2, self.omega1))


class DoubleMoutardResult(NamedTuple):
    """Output bundle of the double construction."""

    w_poly: BivariatePoly
    constant: Fraction
    u: RationalFn
    psi1: RationalFn
    psi2: RationalFn


def transform_family(seeds: SeedPair) -> BivariatePoly:
    """The quadrature F of the first step; W = F + C and theta1 = W/omega1."""
    return moutard_solution(seeds.omega1, seeds.omega2)


def double_transform(seeds: SeedPair, constant: RationalLike) -> DoubleMoutardResult:
    """Run the whole scheme for a fixed choice of the free constant.

    psi1 = omega1/W and psi2 = -omega2/W are written down directly and
    proved by `verify_lemma` alone, which the symmetric identity makes
    the same statement; a failure means a defect, not bad inputs.
    """
    c = as_fraction(constant)
    w = transform_family(seeds) + BivariatePoly.constant(c)
    u = potential_from_w(seeds.u0, w)
    result = DoubleMoutardResult(w, c, u, RationalFn(seeds.omega1, w), RationalFn(-seeds.omega2, w))
    if not verify_lemma(seeds, result):
        raise InvariantViolated("(-Lap + u) psi1 or psi2 != 0")
    return result


def verify_lemma(seeds: SeedPair, result: DoubleMoutardResult) -> bool:
    """Check the lemma behind the construction on both branches.

    Branch i maps u0 to u_mid_i = u0 - 2*Lap(log omega_i), its seed checked
    by `SeedPair`; theta1 = W/omega1 and theta2 = -W/omega2 must solve
    -Lap + u_mid_i, i.e. (-Lap + u) psi_i = 0 by the symmetric identity.
    True iff both pass `verify_solution`; a W other than F + C fails.
    """
    w = result.w_poly
    return all(
        verify_solution(potential_from_w(seeds.u0, omega), RationalFn(theta_num, omega))
        for omega, theta_num in ((seeds.omega1, w), (seeds.omega2, -w))
    )


def calibrate_against(
    f: BivariatePoly, target_w: BivariatePoly
) -> Tuple[Fraction, Fraction]:
    """The unique (lambda, C) with lambda*F + C = target, if it exists.

    lambda is read off one nonconstant monomial of F; raises NoAffineMatch
    when it is zero or target - lambda*F is not a constant.
    """
    if f.degree <= 0:
        raise ValueError("calibration needs a nonconstant polynomial")
    (i, j), coeff = next((e, c) for e, c in f.items() if e != (0, 0))
    lam = target_w.coefficient(i, j) / coeff
    if lam == 0:
        raise NoAffineMatch(f"target lacks F's monomial x^{i} y^{j}")
    rest = target_w - f.scale(lam)
    if rest.degree > 0:
        raise NoAffineMatch("target is not an affine image of F")
    return lam, rest.coefficient(0, 0)
