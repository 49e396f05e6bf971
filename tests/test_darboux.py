"""One-dimensional Darboux chain and its 2D reduction."""

from fractions import Fraction

import pytest

from moutardkit.darboux import (
    DarbouxStep,
    darboux_step,
    rational_chain,
    transform_solution,
)
from moutardkit.errors import SeedNotInKernel, ZeroSeed
from moutardkit.moutard import moutard_potential
from moutardkit.polynomials import BivariatePoly, RationalFn


def poly1(terms) -> BivariatePoly:
    """y-free polynomial from {power of x: coefficient}."""
    return BivariatePoly({(i, 0): c for i, c in terms.items()})


def rf1(num_terms, den_terms) -> RationalFn:
    return RationalFn(poly1(num_terms), poly1(den_terms))


def x_power(m) -> RationalFn:
    return RationalFn(BivariatePoly.monomial(m, 0))


ZERO_U = RationalFn.zero()
X1 = x_power(1)


class TestDarbouxStep:
    def test_first_step(self):
        assert darboux_step(DarbouxStep(ZERO_U, X1)).equals(rf1({0: 2}, {2: 1}))

    def test_second_step_seed_x_squared(self):
        u1 = rf1({0: 2}, {2: 1})
        step = DarbouxStep(u1, x_power(2))
        assert darboux_step(step).equals(rf1({0: 6}, {2: 1}))

    def test_seed_not_in_kernel(self):
        with pytest.raises(SeedNotInKernel):
            DarbouxStep(ZERO_U, x_power(2))

    def test_zero_seed(self):
        with pytest.raises(ZeroSeed):
            DarbouxStep(ZERO_U, RationalFn.zero())

    def test_nonzero_energy_shift(self):
        # with u = -k^2 the linear seed solves the shifted equation
        u = RationalFn.constant(-4)
        step = DarbouxStep(u, X1, Fraction(2))
        assert darboux_step(step).equals(rf1({0: 2, 2: -4}, {2: 1}))


class TestSolutionMap:
    def test_transformed_function_solves_new_equation(self):
        # g = 1 solves (-d^2/dx^2) g = 0; its image solves the 2/x^2 equation
        step = DarbouxStep(ZERO_U, X1)
        u_new = darboux_step(step)
        g = transform_solution(step, RationalFn.constant(1))
        residual = u_new * g - g.laplacian()
        assert residual.num.is_zero or residual.equals(RationalFn.zero())

    def test_kernel_seed_maps_to_zero(self):
        step = DarbouxStep(ZERO_U, X1)
        image = transform_solution(step, X1)
        assert image.num.is_zero


class TestRationalChain:
    def test_single_step(self):
        chain = rational_chain(1)
        assert chain == [rf1({0: 2}, {2: 1})]

    def test_three_steps_structural(self):
        assert rational_chain(3) == [
            rf1({0: 2}, {2: 1}),
            rf1({0: 6}, {2: 1}),
            rf1({0: 12}, {2: 1}),
        ]

    def test_closed_form(self):
        chain = rational_chain(5)
        for n, u in enumerate(chain, start=1):
            assert u.equals(rf1({0: n * (n + 1)}, {2: 1}))

    def test_all_singular_at_origin(self):
        for u in rational_chain(4):
            assert u.den.evaluate(0, 0) == 0

    def test_chain_elements_annihilate_their_kernel_seeds(self):
        chain = [ZERO_U] + rational_chain(4)
        for n, u in enumerate(chain[:-1], start=0):
            seed = x_power(n + 1)
            lhs = (u * seed) - seed.laplacian()
            assert lhs.num.is_zero or lhs.equals(ZERO_U)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            rational_chain(0)


def test_two_dimensional_reduction_reproduces_first_step():
    # the planar transformation with the y-independent seed omega = x
    x2d, _ = BivariatePoly.variables()
    u2d = moutard_potential(RationalFn.zero(), x2d)
    u1d = rational_chain(1)[0]
    assert u2d.num == BivariatePoly.constant(2)
    assert u2d.den == x2d * x2d
    assert u1d.num == BivariatePoly.constant(2)
    assert u1d.den == BivariatePoly.monomial(2, 0)
