"""Floating-point oracles: finite-difference residuals and L2 estimates.

These are the only two places the package touches floating point. The
finite-difference stencil is exact: `RationalFn.values_at` gives u and psi
as integer pairs at every stencil point, combined into one exact rational
per grid point (so the reported residual is pure truncation error,
decreasing at O(h^2) wherever the symbolic residual vanishes); only the
final magnitudes are floats. The L2 sum is floats throughout: psi's
numerator and denominator become polynomials in r once per angle,
evaluated by Horner along each ray.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from .decay import decay_exponent, square_summable
from .errors import PoleTooClose
from .polynomials import BivariatePoly, RationalFn, RationalLike, as_fraction
from .positivity import PositivityCertificate, global_positivity, leading_dominance

Point = Tuple[Fraction, Fraction]


def uniform_grid(
    x_lo: RationalLike,
    x_hi: RationalLike,
    y_lo: RationalLike,
    y_hi: RationalLike,
    points_per_side: int,
) -> List[Point]:
    """Uniform rational lattice, points_per_side^2 points, corners included."""
    if points_per_side < 2:
        raise ValueError("need at least 2 points per side")
    ax, bx = as_fraction(x_lo), as_fraction(x_hi)
    ay, by = as_fraction(y_lo), as_fraction(y_hi)
    n = points_per_side - 1
    return [
        (ax + (bx - ax) * i / n, ay + (by - ay) * j / n)
        for i in range(points_per_side)
        for j in range(points_per_side)
    ]


def numeric_residual(
    u: RationalFn,
    psi: RationalFn,
    grid: Sequence[Point],
    h: RationalLike,
) -> float:
    """max over the grid of |-Lap_h(psi) + u*psi| with the 5-point stencil.

    Raises PoleTooClose when a stencil point hits a denominator zero or a
    denominator changes sign across the stencil (a zero inside it).
    `RationalFn.values_at` gives integer pairs at the stencil points, one
    call per function and per lcm of a centre's two denominators, so
    unrelated denominators never share a common denominator. Each
    stencil's five pairs combine into one exact residual.
    """
    step = as_fraction(h)
    if step <= 0:
        raise ValueError("step h must be positive")
    s, t = step.numerator, step.denominator
    points = [p for x, y in grid for p in ((x, y), (x + step, y), (x - step, y), (x, y + step), (x, y - step))]
    groups = {}  # centre denominator -> the indices of its stencils' points
    for k, (x, y) in enumerate(grid):
        groups.setdefault(math.lcm(x.denominator, y.denominator), []).extend(range(5 * k, 5 * k + 5))
    values = {"u": {}, "psi": {}}
    for ks in groups.values():
        for name, fn in (("u", u), ("psi", psi)):
            values[name].update(zip(ks, fn.values_at([points[k] for k in ks])))
    worst = Fraction(0)
    for start in range(0, len(points), 5):
        pairs = {name: [at[k] for k in range(start, start + 5)] for name, at in values.items()}
        for k, (px, py) in enumerate(points[start : start + 5]):
            for name, at in pairs.items():
                if at[k][1] == 0:
                    raise PoleTooClose(f"{name} denominator vanishes at ({px}, {py})")
        for name, at in pairs.items():
            if len({d > 0 for _, d in at}) > 1:
                raise PoleTooClose(f"{name} denominator changes sign inside a stencil")
        # h^2 * Lap_h(psi) = a/b, summed as integer pairs over the stencil
        (n0, d0), *others = pairs["psi"]
        a, b = -4 * n0, d0
        for n, d in others:
            a, b = a * d + n * b, b * d
        # -Lap_h(psi) + u*psi with h = s/t and u(center) = w0/e0
        w0, e0 = pairs["u"][0]
        residual = abs(Fraction(w0 * n0 * b * s * s - a * t * t * e0 * d0, b * s * s * e0 * d0))
        if residual > worst:
            worst = residual
    return float(worst)


class L2Estimate(NamedTuple):
    """Midpoint-rule disk integral of |psi|^2 plus an analytic tail bound."""

    estimate: float
    tail_bound: float
    radius: float

    def to_obj(self) -> dict:
        return self._asdict()


def _ray_coefficients(p: BivariatePoly, directions: Sequence[Tuple[float, float]]) -> List[List[float]]:
    """Per direction (cos t, sin t), the a_k of p(r cos t, r sin t) = sum a_k r^k, highest k first."""
    terms = [(i, j, float(c)) for (i, j), c in p.items()]
    degree = max((i + j for i, j, _ in terms), default=0)
    rays = []
    for cos_t, sin_t in directions:
        a = [0.0] * (degree + 1)
        for i, j, c in terms:
            a[degree - i - j] += c * cos_t**i * sin_t**j
        rays.append(a)
    return rays


def numeric_l2_norm(
    psi: RationalFn,
    outer_radius: RationalLike,
    radial_cells: int = 256,
    angular_cells: int = 256,
) -> L2Estimate:
    """Estimate the squared L2 norm of psi over the plane.

    The disk of the working radius is integrated by the polar midpoint
    rule in floats, psi evaluated by Horner in r along each ray; outside
    it, |psi| <= K r^(-k) from the decay analysis gives the tail bound
    2*pi*K^2*R^(2-2k)/(2k-2). The working radius is the larger of
    `outer_radius` and the radius where the denominator's leading form
    dominates, so the tail constant is actually valid.
    """
    if radial_cells < 1 or angular_cells < 1:
        raise ValueError("need at least 1 radial and 1 angular cell")
    outcome = global_positivity(psi.den)
    if not isinstance(outcome, PositivityCertificate):
        raise PoleTooClose(f"denominator is not positive (counterexample at {outcome.point})")
    report = decay_exponent(psi)
    if not square_summable(report):
        raise ValueError("tail bound needs a valid decay exponent >= 2")
    k = report.exponent
    m, lower_sum, _ = leading_dominance(psi.den)
    dominance_radius = max(Fraction(1), 2 * lower_sum / m)
    radius = max(as_fraction(outer_radius), dominance_radius)
    tail_constant = 2 * psi.num.coefficient_abs_sum() / m  # |psi| <= K r^-k, r >= radius
    tail = 2 * math.pi * float(tail_constant) ** 2 * float(radius) ** (2 - 2 * k) / (2 * k - 2)

    r_max = float(radius)
    dr = r_max / radial_cells
    dtheta = 2 * math.pi / angular_cells
    radii = [(ir + 0.5) * dr for ir in range(radial_cells)]
    directions = [(math.cos(t), math.sin(t)) for t in ((it + 0.5) * dtheta for it in range(angular_cells))]
    total = 0.0
    for num_a, den_a in zip(_ray_coefficients(psi.num, directions), _ray_coefficients(psi.den, directions)):
        for r in radii:
            num = den = 0.0
            for a in num_a:
                num = num * r + a
            for a in den_a:
                den = den * r + a
            value = num / den
            total += value * value * r
    return L2Estimate(estimate=total * dr * dtheta, tail_bound=tail, radius=r_max)
