"""Double Moutard construction: W, the common potential, and Lemma checks."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from moutardkit.construct import (
    DoubleMoutardResult,
    SeedPair,
    calibrate_against,
    double_transform,
    potential_from_w,
    proportional,
    transform_family,
    verify_lemma,
)
from moutardkit import cli, construct, search
from moutardkit.errors import (
    InvariantViolated,
    NoAffineMatch,
    ProportionalSeeds,
    SeedNotInKernel,
)
from moutardkit.gallery import get_example
from moutardkit.harmonic import random_combo
from moutardkit.moutard import verify_solution
from moutardkit.polynomials import BivariatePoly, RationalFn
from moutardkit.serialization import obj_to_poly

X, Y = BivariatePoly.variables()
DATA = Path(__file__).parent / "data"


def transform_at(seeds, c):
    """`double_transform` on W = F + c."""
    return double_transform(seeds, transform_family(seeds) + BivariatePoly.constant(c))


class TestSeedPair:
    def test_proportional_rejected(self):
        with pytest.raises(ProportionalSeeds):
            SeedPair.harmonic(X + Y, (X + Y).scale(2))

    def test_non_kernel_rejected(self):
        with pytest.raises(SeedNotInKernel):
            SeedPair.harmonic(X * X, Y)

    def test_nonzero_background(self):
        # both x^2 and x^2*y solve (-Lap + 2/x^2) f = 0
        u0 = RationalFn(BivariatePoly.constant(2), X * X)
        pair = SeedPair(u0, X * X, X * X * Y)
        assert pair.u0 == u0

    def test_swapped(self):
        pair = SeedPair.harmonic(X, Y)
        assert pair.swapped().omega1 == Y
        # built without the checks, yet equal to the checked swap
        u0 = RationalFn(BivariatePoly.constant(2), X * X)
        p = SeedPair(u0, X * X, X * X * Y)
        assert p.swapped() == SeedPair(u0, X * X * Y, X * X)
        assert type(p.swapped()) is SeedPair
        assert p.swapped().swapped() == p

    def test_replace_is_checked(self):
        pair = SeedPair.harmonic(X, Y)
        with pytest.raises(ProportionalSeeds):
            pair._replace(omega2=pair.omega1)
        with pytest.raises(SeedNotInKernel):
            pair._replace(omega1=X * X)
        assert pair._replace(omega2=X * Y) == SeedPair.harmonic(X, X * Y)

    def test_make_is_checked(self):
        with pytest.raises(ProportionalSeeds):
            SeedPair._make((RationalFn.zero(), X, X.scale(3)))


class TestDoubleTransform:
    def test_linear_seeds(self):
        result = transform_at(SeedPair.harmonic(X, Y), 1)
        expected_w = BivariatePoly(
            {(0, 0): 1, (2, 0): Fraction(-1, 2), (0, 2): Fraction(-1, 2)}
        )
        assert result.w_poly == expected_w
        assert result.psi1 == RationalFn(X, expected_w)
        assert result.psi2 == RationalFn(-Y, expected_w)
        # symbolic verification holds even though W has real zeros
        assert verify_solution(result.u, result.psi1)
        assert verify_solution(result.u, result.psi2)

    def test_first_example_paper_orientation(self):
        ex = get_example(1)
        lam, c_total = calibrate_against(transform_family(ex.seeds), ex.reference.w_poly)
        assert (lam, c_total) == (Fraction(-8), Fraction(160))
        result = transform_at(ex.seeds, c_total / lam)
        assert result.u.equals(ex.reference.u)

    def test_first_example_swapped_orientation(self):
        ex = get_example(1)
        seeds = ex.seeds.swapped()
        lam, c_total = calibrate_against(transform_family(seeds), ex.reference.w_poly)
        assert (lam, c_total) == (Fraction(8), Fraction(160))
        result = transform_at(seeds, c_total / lam)
        assert result.u.equals(ex.reference.u)
        # kernel functions are proportional to the reference pair, crosswise
        ref = ex.reference
        assert proportional(result.psi1.num * ref.psi2.den, ref.psi2.num * result.psi1.den)
        assert proportional(result.psi2.num * ref.psi1.den, ref.psi1.num * result.psi2.den)

    def test_theta_relation(self):
        w = transform_at(SeedPair.harmonic(X, Y), 3).w_poly
        theta1, theta2 = RationalFn(w, X), RationalFn(-w, Y)
        # omega2*theta2 = -omega1*theta1, multiplied out by hand
        lhs = RationalFn(theta2.num * Y, theta2.den)
        rhs = RationalFn(-(theta1.num * X), theta1.den)
        assert lhs.equals(rhs)

    def test_nonzero_background_pipeline(self):
        u0 = RationalFn(BivariatePoly.constant(2), X * X)
        result = transform_at(SeedPair(u0, X * X, X * X * Y), 5)
        assert verify_solution(result.u, result.psi1)
        assert verify_solution(result.u, result.psi2)

    def test_failed_self_check_is_typed(self, monkeypatch):
        # a typed error, not an assert, so it survives python -O
        monkeypatch.setattr(construct, "verify_lemma", lambda seeds, result: False)
        with pytest.raises(InvariantViolated, match="psi1"):
            transform_at(SeedPair.harmonic(X, Y), 1)

    def test_broken_quadrature_is_caught_by_the_lemma(self):
        # the postcondition is verify_lemma alone; it must still see a W that
        # is not F + C
        seeds = SeedPair.harmonic(X, Y)
        w = transform_family(seeds) + BivariatePoly.constant(1) + X * X * Y
        with pytest.raises(InvariantViolated):
            double_transform(seeds, w)

    def test_constant_is_read_off_w(self):
        # the bundle's C is W(0,0), also for W = lambda*F + C with lambda != 1
        seeds = SeedPair.harmonic(X, Y)
        w = transform_family(seeds).scale(-3) + BivariatePoly.constant(Fraction(7, 2))
        bundle = cli._bundle_obj(double_transform(seeds, w))
        assert bundle["C"] == {"num": "7", "den": "2"}


class TestScalingInvariance:
    def test_potential_unchanged_by_w_rescaling(self):
        ex = get_example(1)
        w = transform_family(ex.seeds) + BivariatePoly.constant(-20)
        u = potential_from_w(RationalFn.zero(), w)
        for lam in (Fraction(2), Fraction(-8), Fraction(1, 3)):
            assert potential_from_w(RationalFn.zero(), w.scale(lam)).equals(u)


class TestVerifyLemma:
    def test_first_example(self):
        ex = get_example(1)
        assert verify_lemma(ex.seeds, transform_at(ex.seeds, Fraction(-20)))

    def test_random_pairs(self):
        rng = random.Random(1234)
        done = 0
        while done < 8:
            omega1 = random_combo(3, 0, 10, rng=rng).realized
            omega2 = random_combo(3, 0, 10, rng=rng).realized
            if proportional(omega1, omega2):
                continue
            c = Fraction(rng.randint(1, 40), rng.randint(1, 7))
            seeds = SeedPair.harmonic(omega1, omega2)
            assert verify_lemma(seeds, transform_at(seeds, c))
            done += 1

    def test_proportional_seeds_error(self):
        with pytest.raises(ProportionalSeeds):
            seeds = SeedPair.harmonic(X, X.scale(2))
            verify_lemma(seeds, transform_at(seeds, 1))

    @pytest.mark.parametrize(
        "make_w,passes",
        [
            (lambda w: w.scale(2), True),
            (lambda w: w.scale(-3), True),
            (lambda w: w + BivariatePoly.constant(1), True),
            (lambda w: BivariatePoly.constant(1), True),
            (lambda w: w + X, False),
            (lambda w: w + X * X * Y + BivariatePoly.constant(5), False),
        ],
        ids=["2W", "-3W", "W+1", "1", "W+x", "W+x^2y+5"],
    )
    def test_passes_iff_w_is_an_affine_image_of_the_quadrature(self, make_w, passes):
        # lambda*F + C keeps u and scales psi_i, so only a W that is not of
        # that form fails, in every form of the lemma
        obj = json.loads((DATA / "pair_d5.json").read_text(encoding="utf-8"))
        seeds = SeedPair.harmonic(obj_to_poly(obj["omega1"]), obj_to_poly(obj["omega2"]))
        w = make_w(transform_at(seeds, 358).w_poly)
        assert lemma_forms(seeds, w) == (passes, [(passes, passes), (passes, passes)])


U0_X2 = RationalFn(BivariatePoly.constant(2), X * X)  # x^2 and x^2*y solve -Lap + u0


def lemma_forms(seeds, w):
    """The lemma three ways, with W taken as given: `verify_lemma` on the
    bundle built from W, and per seed (psi form, theta form), i.e.
    (-Lap + u) psi_i = 0 for u = u0 - 2 Lap log W, and theta_i = +-W/omega_i
    in the kernel of u0 - 2 Lap log omega_i."""
    u = potential_from_w(seeds.u0, w)
    bundle = DoubleMoutardResult(w, u, RationalFn(seeds.omega1, w), RationalFn(-seeds.omega2, w))
    return verify_lemma(seeds, bundle), [
        (
            verify_solution(u, RationalFn(sign * omega, w)),
            verify_solution(potential_from_w(seeds.u0, omega), RationalFn(sign * w, omega)),
        )
        for omega, sign in ((seeds.omega1, 1), (seeds.omega2, -1))
    ]


def parent_potential(u0, w):
    """u0 - 2*Lap(log W) as it was built before `potential_from_w` wrote it
    out: Lap(log W) = (W*Lap W - W_x^2 - W_y^2)/W^2, scaled by -2 and added
    to u0 by cross-multiplication."""
    w_x, w_y = w.diff_x(), w.diff_y()
    log_num, log_den = w * w.laplacian() - w_x * w_x - w_y * w_y, w * w
    return RationalFn(u0.num * log_den - log_num.scale(2) * u0.den, u0.den * log_den)


class TestPrintedPotential:
    """The u that `double_transform` prints, checked by routes that `verify_lemma`
    does not take: it reads only W, so a wrong u would pass it."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, "u0=2/x^2"]),
        st.integers(0, 2**32 - 1),
        st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9)),
    )
    def test_u_solves_both_kernels_and_matches_the_formula(self, kind, rng_seed, c):
        if kind == "u0=2/x^2":
            seeds = SeedPair(U0_X2, X * X, X * X * Y)
        else:
            seeds = search._draw_pair(random.Random(rng_seed), kind, search.COEFFICIENT_BOUND)
        result = transform_at(seeds, c)
        assert verify_solution(result.u, result.psi1)
        assert verify_solution(result.u, result.psi2)
        assert result.u.equals(parent_potential(seeds.u0, result.w_poly))


class TestSymmetricIdentity:
    """For any theta the right side of

        W^2 (-Lap + u)(theta/W) = 2 grad W.grad theta - W Lap theta - theta Lap W + u0 W theta

    is symmetric in (W, theta), so psi_i = +-omega_i/W solves (-Lap + u) psi = 0
    exactly when theta_i = +-W/omega_i solves that of u0 - 2 Lap log omega_i.
    verify_lemma, which checks the right side cleared of u0's denominator
    with theta = omega_i, must agree with both forms."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([2, 3, 4, "u0=2/x^2"]),
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3))),
    )
    def test_psi_form_iff_theta_form(self, kind, rng_seed, shift):
        rng = random.Random(rng_seed)
        if kind == "u0=2/x^2":
            seeds = SeedPair(U0_X2, X * X, X * X * Y)
        else:
            omega1 = random_combo(kind, 0, 10, rng=rng).realized
            omega2 = random_combo(kind, 0, 10, rng=rng).realized
            assume(not proportional(omega1, omega2))
            seeds = SeedPair.harmonic(omega1, omega2)
        w = transform_family(seeds) + BivariatePoly.constant(Fraction(rng.randint(-40, 40), rng.randint(1, 7)))
        if shift is not None:
            # a W that is not F + C: the lemma holds only if the monomial happens to fit
            w = w + BivariatePoly({shift: rng.choice([-3, -1, 1, 2])})
        assume(not w.is_zero)
        lemma, forms = lemma_forms(seeds, w)
        for psi_form, theta_form in forms:
            assert psi_form == theta_form
        assert lemma == all(psi_form for psi_form, _ in forms)

    def test_both_outcomes_occur(self):
        seeds = SeedPair(U0_X2, X * X, X * X * Y)
        w = transform_family(seeds) + BivariatePoly.constant(5)
        assert lemma_forms(seeds, w) == (True, [(True, True), (True, True)])
        assert lemma_forms(seeds, w + X * Y) == (False, [(False, False), (False, False)])


class TestCalibrate:
    def test_scaled_shift(self):
        f0 = X * X + Y.scale(3)
        lam, c = calibrate_against(f0.scale(2), f0 + BivariatePoly.constant(5))
        assert (lam, c) == (Fraction(1, 2), Fraction(5))

    def test_no_match(self):
        with pytest.raises(NoAffineMatch):
            calibrate_against(X, Y)

    def test_support_mismatch(self):
        with pytest.raises(NoAffineMatch):
            calibrate_against(X, X + Y)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            calibrate_against(BivariatePoly.constant(3), X)


def test_proportional_helper():
    assert proportional(X + Y, (X + Y).scale(Fraction(-2, 3)))
    assert not proportional(X + Y, X - Y)
    assert proportional(BivariatePoly.zero(), X)
