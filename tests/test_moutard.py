"""Single Moutard transformation: potential map, quadrature, verification."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from moutardkit.errors import (
    InvariantViolated,
    NotClosed,
    SeedNotInKernel,
    ZeroSeed,
)
from moutardkit.gallery import get_example
from moutardkit.harmonic import random_combo
from moutardkit.moutard import (
    ClosedOneForm,
    integrate_closed,
    moutard_potential,
    moutard_solution,
    solution_one_form,
    verify_solution,
)
from moutardkit.polynomials import BivariatePoly, RationalFn

X, Y = BivariatePoly.variables()
ONE = BivariatePoly.constant(1)
ZERO_U = RationalFn.zero()


def quotient_rule_laplacian(psi: RationalFn) -> BivariatePoly:
    """M with Lap(N/D) = M/D^3, by the quotient rule."""
    n, d = psi.num, psi.den
    nx, ny = n.diff_x(), n.diff_y()
    dx, dy = d.diff_x(), d.diff_y()
    return (
        d * d * n.laplacian()
        - d * (n * d.laplacian())
        - (d * (nx * dx + ny * dy)).scale(2)
        + (n * (dx * dx + dy * dy)).scale(2)
    )


def quotient_rule_verify(u: RationalFn, psi: RationalFn) -> bool:
    """Reference check: (-Lap + u) psi = 0 iff U*N*D^2 == M*V."""
    n, d = psi.num, psi.den
    return (u.num * n * (d * d) - quotient_rule_laplacian(psi) * u.den).is_zero


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-5, 5), max_size=4
).map(BivariatePoly)
# a free u = a/b, u = Lap(psi)/psi, or that solution times b/b
potential_modes = st.sampled_from(["free", "solved", "padded"])


class TestMoutardPotential:
    def test_constant_seed(self):
        assert moutard_potential(ZERO_U, ONE).equals(ZERO_U)

    def test_linear_seed(self):
        u = moutard_potential(ZERO_U, X)
        assert u.num == BivariatePoly.constant(2)
        assert u.den == X * X

    def test_example_seed_formula(self):
        omega1 = BivariatePoly({(1, 0): 1, (2, 0): 2, (0, 2): -2, (1, 1): 1})
        u = moutard_potential(ZERO_U, omega1)
        gx = BivariatePoly({(0, 0): 1, (1, 0): 4, (0, 1): 1})  # 1 + 4x + y
        gy = BivariatePoly({(1, 0): 1, (0, 1): -4})  # x - 4y
        expected = RationalFn((gx * gx + gy * gy).scale(2), omega1 * omega1)
        assert u.equals(expected)
        # cross-check against u0 - 2*(omega*Lap(omega) - |grad omega|^2)/omega^2, u0 = 0
        ox, oy = omega1.diff_x(), omega1.diff_y()
        log_num = omega1 * omega1.laplacian() - ox * ox - oy * oy
        assert u.equals(RationalFn(-log_num.scale(2), omega1 * omega1))

    def test_seed_not_in_kernel(self):
        with pytest.raises(SeedNotInKernel):
            moutard_potential(ZERO_U, X * X)

    def test_zero_seed(self):
        with pytest.raises(ZeroSeed):
            moutard_potential(ZERO_U, BivariatePoly.zero())


class TestSolutionOneForm:
    def test_trivial(self):
        form = solution_one_form(ONE, X)
        assert form.p.is_zero and form.q == ONE

    def test_hand_computed(self):
        form = solution_one_form(X, Y)
        assert form.p == -X and form.q == -Y

    def test_example_pair_degree(self):
        ex = get_example(1)
        form = solution_one_form(ex.seeds.omega1, ex.seeds.omega2)
        assert form.p.degree == 3 and form.q.degree == 3
        assert form.p.diff_y() == form.q.diff_x()

    def test_closedness_enforced_by_constructor(self):
        with pytest.raises(NotClosed):
            ClosedOneForm(Y, BivariatePoly.zero())
        # omega*Lap(phi) != phi*Lap(omega) is exactly dQ/dx != dP/dy
        with pytest.raises(NotClosed):
            solution_one_form(ONE, X * X)

    def test_closedness_enforced_by_replace_and_make(self):
        form = ClosedOneForm(X, Y)
        with pytest.raises(NotClosed):
            form._replace(p=Y)
        with pytest.raises(NotClosed):
            ClosedOneForm._make((Y, BivariatePoly.zero()))
        assert form._replace(q=Y + ONE) == ClosedOneForm(X, Y + ONE)


class TestIntegrateClosed:
    def test_constant_form(self):
        assert integrate_closed(ClosedOneForm(BivariatePoly.zero(), ONE)) == Y

    def test_radial_form(self):
        f = integrate_closed(ClosedOneForm(-X, -Y))
        assert f == BivariatePoly({(2, 0): Fraction(-1, 2), (0, 2): Fraction(-1, 2)})

    def test_round_trip_from_gradient(self):
        rng = random.Random(11)
        for _ in range(10):
            f0 = BivariatePoly(
                {
                    (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9)
                    for _ in range(5)
                }
            )
            f0 = f0 - BivariatePoly.constant(f0.evaluate(0, 0))
            form = ClosedOneForm(f0.diff_x(), f0.diff_y())
            assert integrate_closed(form) == f0

    def test_constant_of_integration_is_typed(self, monkeypatch):
        # a typed error, not an assert, so it survives python -O
        integrate_x = BivariatePoly.integrate_x
        monkeypatch.setattr(
            BivariatePoly, "integrate_x", lambda p: integrate_x(p) + ONE
        )
        with pytest.raises(InvariantViolated):
            integrate_closed(ClosedOneForm(-X, -Y))

    def test_inexact_quadrature_is_typed(self, monkeypatch):
        # adding x keeps F(0,0) = 0, so only the exactness check can see it
        integrate_y = BivariatePoly.integrate_y
        monkeypatch.setattr(BivariatePoly, "integrate_y", lambda p: integrate_y(p) + X)
        with pytest.raises(InvariantViolated, match="does not reproduce"):
            integrate_closed(ClosedOneForm(-X, -Y))

    def test_x_dependent_remainder_is_typed(self, monkeypatch):
        # x + x*y keeps F(0,0) = 0 and leaves -x in the y-remainder; x*y alone
        # would cancel in the y-integration and give the right quadrature
        integrate_x = BivariatePoly.integrate_x
        monkeypatch.setattr(BivariatePoly, "integrate_x", lambda p: integrate_x(p) + X + X * Y)
        with pytest.raises(InvariantViolated, match="does not reproduce"):
            integrate_closed(ClosedOneForm(-X, -Y))


class TestMoutardSolution:
    def test_trivial_family(self):
        f = moutard_solution(ONE, X)
        assert f == Y
        psi = RationalFn(f + BivariatePoly.constant(3), ONE)
        assert verify_solution(moutard_potential(ZERO_U, ONE), psi)

    def test_singular_family(self):
        f = moutard_solution(X, Y)
        u = moutard_potential(ZERO_U, X)
        for c in (0, 1, Fraction(-7, 3)):
            psi = RationalFn(f + BivariatePoly.constant(c), X)
            assert verify_solution(u, psi)

    def test_family_linearity(self):
        rng = random.Random(5)
        omega = random_combo(3, 0, 6, rng=rng).realized
        phi1 = random_combo(3, 0, 6, rng=rng).realized
        phi2 = random_combo(3, 0, 6, rng=rng).realized
        a, b = Fraction(3), Fraction(-5, 2)
        f1 = moutard_solution(omega, phi1)
        f2 = moutard_solution(omega, phi2)
        combined = moutard_solution(omega, phi1.scale(a) + phi2.scale(b))
        assert combined == f1.scale(a) + f2.scale(b)

    def test_random_families_solve_transformed_equation(self):
        rng = random.Random(23)
        for _ in range(6):
            omega = random_combo(4, 0, 5, rng=rng).realized
            phi = random_combo(4, 0, 5, rng=rng).realized
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            u_t = moutard_potential(ZERO_U, omega)
            f = moutard_solution(omega, phi)
            psi = RationalFn(f + BivariatePoly.constant(c), omega)
            assert verify_solution(u_t, psi)

    def test_inverse_seed_solves_transformed_equation(self):
        rng = random.Random(29)
        for _ in range(5):
            omega = random_combo(3, 0, 5, rng=rng).realized
            u_t = moutard_potential(ZERO_U, omega)
            assert verify_solution(u_t, RationalFn(ONE, omega))


class TestVerifySolution:
    def test_harmonic_solution(self):
        assert verify_solution(ZERO_U, RationalFn(X * X - Y * Y))

    def test_reference_pair(self):
        ref = get_example(1).reference
        assert verify_solution(ref.u, ref.psi1)
        assert verify_solution(ref.u, ref.psi2)

    def test_non_solution(self):
        assert not verify_solution(ZERO_U, RationalFn(X * X))

    def test_one_over_x(self):
        # Lap(1/x) = 2/x^3
        assert verify_solution(RationalFn(BivariatePoly.constant(2), X * X), RationalFn(ONE, X))
        assert not verify_solution(ZERO_U, RationalFn(ONE, X))

    def test_polynomial_psi_with_its_own_potential(self):
        p = BivariatePoly({(3, 1): 2, (0, 2): -1, (1, 0): 5})
        assert verify_solution(RationalFn(p.laplacian(), p), RationalFn(p))
        assert not verify_solution(RationalFn(p.laplacian() + ONE, p), RationalFn(p))

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys, small_polys, small_polys, potential_modes)
    def test_agrees_with_the_quotient_rule(self, n, d, a, b, mode):
        assume(not d.is_zero and not b.is_zero)
        psi = RationalFn(n, d)
        if mode == "free":
            u = RationalFn(a, b)
        else:
            # Lap(psi)/psi = M/(N*D^2)
            assume(not n.is_zero)
            pad = b if mode == "padded" else ONE
            u = RationalFn(quotient_rule_laplacian(psi) * pad, n * d * d * pad)
        expected = quotient_rule_verify(u, psi)
        assert verify_solution(u, psi) == expected
        assert expected or mode == "free"
