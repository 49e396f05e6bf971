"""Two commuting Moutard transformations with a common target potential.

This module only composes the single step of `moutard`. From a seed pair
(omega1, omega2) in the kernel of -Lap + u0, the step with seed omega1 and
co-solution omega2 gives F; then W = F + C, u = u0 - 2*Lap(log W), and the
kernel elements psi1 = omega1/W and psi2 = -omega2/W. The second
transformation is never integrated: its result is written down and proved
once, by `verify_lemma`. With u0 = a/b, for any polynomial omega

    b W^2 (-Lap + u)(omega/W) = b (2 grad W.grad omega - W Lap omega - omega Lap W) + a W omega,

so psi_i solves (-Lap + u) psi = 0 exactly when the right side vanishes
for omega = omega_i.
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
from .polynomials import BivariatePoly, RationalFn


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
    u: RationalFn
    psi1: RationalFn
    psi2: RationalFn


def transform_family(seeds: SeedPair) -> BivariatePoly:
    """The quadrature F of the first step; W = F + C and theta1 = W/omega1."""
    return moutard_solution(seeds.omega1, seeds.omega2)


def double_transform(seeds: SeedPair, w: BivariatePoly) -> DoubleMoutardResult:
    """Run the whole scheme on W = lambda*F + C, F = transform_family(seeds).

    Any other W raises InvariantViolated; C is read as W(0,0), since
    F(0,0) = 0. psi1 = omega1/W and psi2 = -omega2/W are written down
    directly and proved by `verify_lemma` alone.
    """
    psi1, psi2 = RationalFn(seeds.omega1, w), RationalFn(-seeds.omega2, w)
    result = DoubleMoutardResult(w, potential_from_w(seeds.u0, w), psi1, psi2)
    if not verify_lemma(seeds, result):
        raise InvariantViolated("(-Lap + u) psi1 or psi2 != 0")
    return result


def verify_lemma(seeds: SeedPair, result: DoubleMoutardResult) -> bool:
    """True iff (-Lap + u) psi_i = 0 for both seeds, u = u0 - 2*Lap(log W).

    Checks the module's identity for omega1 and omega2, reading only W from
    `result`. It is linear in W and holds for constants, so every
    lambda*F + C passes (u is unchanged, psi_i is scaled).
    """
    w = result.w_poly
    a, b = seeds.u0.num, seeds.u0.den
    w_x, w_y, lap_w = w.diff_x(), w.diff_y(), w.laplacian()
    for omega in (seeds.omega1, seeds.omega2):
        grad_dot = w_x * omega.diff_x() + w_y * omega.diff_y()
        residual = b * (grad_dot.scale(2) - w * omega.laplacian() - omega * lap_w) + (a * w) * omega
        if not residual.is_zero:
            return False
    return True


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
