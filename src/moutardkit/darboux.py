"""One-dimensional reduction: Darboux transformations of -d^2/dx^2 + (u + k^2).

With a seed f solving the shifted equation, the transformed potential is
u - 2 (log f)'' and solutions map through g -> g' - (f'/f) g. Iterating
from u = 0 with the polynomial seeds x, x^2, ... produces the classical
chain of singular rational potentials n(n+1)/x^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List

from .errors import SeedNotInKernel, ZeroSeed
from .moutard import log_laplacian
from .polynomials import BivariatePoly, RationalFn


def cancel_x_power(f: RationalFn) -> RationalFn:
    """Strip the largest power of x dividing both numerator and denominator."""
    if f.num.is_zero:
        return RationalFn.zero()
    shift = min(i for p in (f.num, f.den) for (i, _), _ in p.items())
    return f.cancel_factor(BivariatePoly.monomial(shift, 0))


@dataclass(frozen=True)
class DarbouxStep:
    """A potential u, a seed f of (-d^2/dx^2 + u + k^2) f = 0, and the shift k.

    u and f are y-free rational functions, so their Laplacian is d^2/dx^2.
    """

    u: RationalFn
    f: RationalFn
    k: Fraction = field(default_factory=lambda: Fraction(0))

    def __post_init__(self):
        if self.f.num.is_zero:
            raise ZeroSeed("seed function is zero")
        shifted_u = self.u + RationalFn.constant(self.k * self.k)
        if not self.f.laplacian().equals(shifted_u * self.f):
            raise SeedNotInKernel("(-d^2/dx^2 + u + k^2) f != 0")


def darboux_step(step: DarbouxStep) -> RationalFn:
    """Transformed potential u - 2*(log f)'', where for y-free f
    (log f)'' = Lap(log num) - Lap(log den)."""
    f = step.f
    return step.u - (log_laplacian(f.num) - log_laplacian(f.den)).scale(2)


def transform_solution(step: DarbouxStep, g: RationalFn) -> RationalFn:
    """Solution map g -> g' - (f'/f) g into the transformed equation."""
    f = step.f
    f_log = RationalFn(f.num.diff_x() * f.den - f.num * f.den.diff_x(), f.num * f.den)
    g_prime = RationalFn(g.num.diff_x() * g.den - g.num * g.den.diff_x(), g.den * g.den)
    return g_prime - f_log * g


def rational_chain(n: int) -> List[RationalFn]:
    """First n potentials of the chain from u = 0 with seeds x, x^2, ...

    Every element is singular at x = 0; the m-th equals m(m+1)/x^2.
    """
    if n < 1:
        raise ValueError("chain length must be >= 1")
    potentials: List[RationalFn] = []
    u = RationalFn.zero()
    for m in range(1, n + 1):
        step = DarbouxStep(u, RationalFn(BivariatePoly.monomial(m, 0)))
        u = cancel_x_power(darboux_step(step))
        potentials.append(u)
    return potentials
