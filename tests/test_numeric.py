"""Floating-point oracles: finite differences and the L2 estimate."""

import math
import random
from fractions import Fraction

import pytest

from moutardkit.errors import PoleTooClose
from moutardkit.gallery import get_example
from moutardkit.numeric import numeric_l2_norm, numeric_residual, uniform_grid
from moutardkit.polynomials import BivariatePoly, RationalFn

X, Y = BivariatePoly.variables()
ONE = BivariatePoly.constant(1)
REF = get_example(1).reference


def test_uniform_grid():
    grid = uniform_grid(-5, 5, -5, 5, 21)
    assert len(grid) == 441
    assert grid[0] == (-5, -5)
    assert grid[-1] == (5, 5)
    assert (Fraction(0), Fraction(0)) in grid
    with pytest.raises(ValueError):
        uniform_grid(0, 1, 0, 1, 1)


def test_stencil_exact_on_harmonic_quadratic():
    grid = uniform_grid(-3, 3, -3, 3, 7)
    res = numeric_residual(
        RationalFn.zero(), RationalFn(X * X - Y * Y), grid, Fraction(1, 10)
    )
    assert res == 0.0


def test_reference_pair_residual_small_and_second_order():
    grid = uniform_grid(-5, 5, -5, 5, 21)
    h = Fraction(1, 100)
    for psi in (REF.psi1, REF.psi2):
        res_h = numeric_residual(REF.u, psi, grid, h)
        res_half = numeric_residual(REF.u, psi, grid, h / 2)
        assert res_h < 1e-3
        assert 3.5 < res_h / res_half < 4.5


def test_residual_gives_unrelated_stencils_no_common_denominator(monkeypatch):
    # centres with unrelated denominators up to 10^4; each values_at call
    # is over a denominator no larger than one stencil's own
    rng = random.Random(0)

    def coordinate():
        return Fraction(rng.randint(-3 * 10**4, 10**4), rng.randint(1, 10**4))

    grid = [(coordinate(), coordinate()) for _ in range(25)]
    h = Fraction(1, 1000)

    def denominator(points):
        return math.lcm(*(c.denominator for point in points for c in point))

    largest = max(denominator([(x, y), (x + h, y), (x - h, y), (x, y + h), (x, y - h)]) for x, y in grid)
    one_at_a_time = max(numeric_residual(REF.u, REF.psi1, [point], h) for point in grid)
    seen = []
    values_at = RationalFn.values_at

    def recording(fn, points):
        seen.append(denominator(points))
        return values_at(fn, points)

    monkeypatch.setattr(RationalFn, "values_at", recording)
    assert numeric_residual(REF.u, REF.psi1, grid, h) == one_at_a_time
    assert seen and max(seen) <= largest


def test_pole_on_grid_detected():
    grid = [(Fraction(0), Fraction(0))]
    with pytest.raises(PoleTooClose):
        numeric_residual(RationalFn.zero(), RationalFn(ONE, X), grid, Fraction(1, 10))


def test_pole_straddled_detected():
    # stencil around x = h/2 crosses the pole of 1/x without touching it
    grid = [(Fraction(1, 200), Fraction(0))]
    with pytest.raises(PoleTooClose):
        numeric_residual(RationalFn.zero(), RationalFn(ONE, X), grid, Fraction(1, 100))


class TestL2Norm:
    def test_radial_closed_form(self):
        # integral of (1+r^2)^-2 over the plane is pi
        psi = RationalFn(ONE, ONE + X * X + Y * Y)
        result = numeric_l2_norm(psi, 20)
        assert abs(result.estimate - math.pi) / math.pi < 0.01
        assert result.tail_bound < 0.05
        assert result.radius == 20.0

    def test_tail_shrinks_with_radius(self):
        psi = RationalFn(ONE, ONE + X * X + Y * Y)
        near = numeric_l2_norm(psi, 10, radial_cells=64, angular_cells=64)
        far = numeric_l2_norm(psi, 40, radial_cells=64, angular_cells=64)
        assert far.tail_bound < near.tail_bound

    def test_reference_kernel_function_finite(self):
        result = numeric_l2_norm(REF.psi1, 12, radial_cells=96, angular_cells=96)
        assert 0 < result.estimate < 1
        assert result.tail_bound < 1

    def test_slow_decay_rejected(self):
        with pytest.raises(ValueError):
            numeric_l2_norm(RationalFn(X, ONE + X * X + Y * Y), 10)

    def test_pole_rejected(self):
        with pytest.raises(PoleTooClose):
            numeric_l2_norm(RationalFn(ONE, X * X + Y * Y), 10)

    def test_zero_numerator_gives_zero(self):
        result = numeric_l2_norm(RationalFn(BivariatePoly(), ONE + X * X + Y * Y), 10, 16, 16)
        assert result.estimate == 0.0

    def test_non_radial_closed_form(self):
        # integral of x^2 (1+r^2)^-4 over the plane is pi/12; a_k depends on the angle
        den = ONE + X * X + Y * Y
        result = numeric_l2_norm(RationalFn(X, den * den), 40, 256, 256)
        assert abs(result.estimate - math.pi / 12) / (math.pi / 12) < 1e-3

    @pytest.mark.parametrize("name", ["psi1", "psi2"])
    def test_matches_term_by_term_midpoint_sum(self, name):
        psi = getattr(REF, name)
        result = numeric_l2_norm(psi, 12, 64, 64)
        dr, dtheta = result.radius / 64, 2 * math.pi / 64
        total = 0.0
        for ir in range(64):
            r = (ir + 0.5) * dr
            for it in range(64):
                px, py = r * math.cos((it + 0.5) * dtheta), r * math.sin((it + 0.5) * dtheta)
                num = sum(float(c) * px**i * py**j for (i, j), c in psi.num.items())
                den = sum(float(c) * px**i * py**j for (i, j), c in psi.den.items())
                total += (num / den) ** 2 * r
        expected = total * dr * dtheta
        assert abs(result.estimate - expected) <= 1e-12 * expected

    def test_cosine_once_per_angle(self, monkeypatch):
        calls = []
        cos = math.cos

        def counted(t):
            calls.append(t)
            return cos(t)

        monkeypatch.setattr(math, "cos", counted)
        numeric_l2_norm(REF.psi1, 12, 96, 64)
        assert len(calls) == 64

    @pytest.mark.parametrize("cells", [(0, 4), (4, 0), (-5, -5)])
    def test_cell_counts_below_one_rejected(self, cells):
        with pytest.raises(ValueError, match="at least 1 radial and 1 angular cell"):
            numeric_l2_norm(REF.psi1, 8, *cells)
