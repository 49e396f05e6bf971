"""Harmonic polynomial seeds: the Re/Im((x+iy)^n) basis, random rational
combinations of it, and harmonic conjugates.

Parameterizing seeds in this basis makes harmonicity structural; nothing
ever needs to solve the Laplace equation, and the binomial theorem writes
the basis out with no polynomial product. The conjugate of a harmonic u
is the quadrature of the Cauchy-Riemann form -u_y dx + u_x dy, which is
closed exactly when u is harmonic, so it runs through the same
`integrate_closed` as the Moutard step.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Tuple

from .moutard import ClosedOneForm, integrate_closed
from .polynomials import BivariatePoly


def harmonic_basis(n: int) -> Tuple[BivariatePoly, BivariatePoly]:
    """(Re((x+iy)^n), Im((x+iy)^n)), the degree-n harmonic pair.

    Written out by the binomial theorem: C(n, k) x^(n-k) (iy)^k is real for even k.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("degree must be a positive integer")
    parts = ({}, {})  # (Re, Im) terms
    for k in range(n + 1):
        parts[k % 2][(n - k, k)] = math.comb(n, k) * (-1) ** (k // 2)
    return BivariatePoly(parts[0]), BivariatePoly(parts[1])


class HarmonicCombo(NamedTuple):
    """The polynomial realized by an integer combination of Re/Im(z^n)."""

    realized: BivariatePoly


def conjugate(u: BivariatePoly) -> BivariatePoly:
    """The harmonic conjugate v of u with v(0,0) = 0: v_x = -u_y, v_y = u_x.

    u + iv is then holomorphic. Raises NotClosed when u is not harmonic.
    """
    return integrate_closed(ClosedOneForm(-u.diff_y(), u.diff_x()))


def random_combo(
    max_degree: int,
    rng_seed: int,
    coefficient_bound: int,
    rng: random.Random | None = None,
) -> HarmonicCombo:
    """A reproducible random harmonic combination, degrees 1..max_degree.

    Integer coefficients are drawn uniformly from [-bound, bound]; a zero
    draw is retried so the combination is never the zero polynomial.
    Passing an explicit `rng` continues an existing deterministic stream
    (rng_seed is then ignored).
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if coefficient_bound < 1:
        raise ValueError("coefficient_bound must be >= 1")
    gen = rng if rng is not None else random.Random(rng_seed)
    parts = [part for n in range(1, max_degree + 1) for part in harmonic_basis(n)]
    while True:
        total = BivariatePoly.zero()
        for part in parts:  # Re(z^n), then Im(z^n), for n = 1..max_degree
            c = gen.randint(-coefficient_bound, coefficient_bound)
            if c:
                total = total + part.scale(c)
        if not total.is_zero:
            return HarmonicCombo(total)
