"""Core exact-arithmetic tests: ring operations, calculus, rational functions."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from moutardkit.errors import ExactDivisionError
from moutardkit.polynomials import NEG_INFINITY, BivariatePoly, RationalFn

X, Y = BivariatePoly.variables()
ONE = BivariatePoly.constant(1)


def P(terms):
    return BivariatePoly(terms)


small_coeff = st.integers(min_value=-9, max_value=9).map(Fraction)
exponent = st.integers(min_value=0, max_value=4)
polys = st.dictionaries(
    st.tuples(exponent, exponent), small_coeff, max_size=6
).map(BivariatePoly)
points = st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


class TestAdd:
    def test_additive_inverse(self):
        assert (X + (-X)).is_zero

    def test_disjoint_supports(self):
        assert (X * X - Y * Y) + P({(1, 1): 2}) == P({(2, 0): 1, (1, 1): 2, (0, 2): -1})

    def test_reference_kernel_numerators(self):
        # the two kernel numerators of the first built-in example
        a = P({(1, 0): 1, (2, 0): 2, (1, 1): 1, (0, 2): -2})
        b = P({(1, 0): 2, (0, 1): 2, (2, 0): 3, (1, 1): 10, (0, 2): -3})
        assert a + b == P({(1, 0): 3, (0, 1): 2, (2, 0): 5, (1, 1): 11, (0, 2): -5})


class TestMul:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X * X - Y * Y

    def test_radial_square_matches_quartic_block(self):
        r2 = X * X + Y * Y
        assert (r2 * r2).scale(17) == P({(4, 0): 17, (2, 2): 34, (0, 4): 17})

    def test_scale_zero(self):
        assert BivariatePoly.zero().scale(5).is_zero
        assert P({(1, 0): 1}).scale(0).is_zero

    def test_pow(self):
        assert (X + Y) ** 3 == P({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})
        assert (X**0) == ONE
        assert X**1 == X


class TestCalculus:
    def test_harmonic_quadratic(self):
        assert (X * X - Y * Y).laplacian().is_zero

    def test_radial_quadratic(self):
        assert (X * X + Y * Y).laplacian() == BivariatePoly.constant(4)

    def test_diff_x_of_example_seed(self):
        omega1 = P({(1, 0): 1, (2, 0): 2, (0, 2): -2, (1, 1): 1})
        assert omega1.diff_x() == P({(0, 0): 1, (1, 0): 4, (0, 1): 1})

    def test_antiderivatives_invert_derivatives(self):
        p = P({(2, 1): Fraction(3, 2), (0, 3): -2, (1, 0): 7})
        assert p.integrate_x().diff_x() == p
        assert p.integrate_y().diff_y() == p


class TestStructure:
    def test_degree_of_zero_is_sentinel(self):
        z = BivariatePoly.zero()
        assert z.degree == NEG_INFINITY
        assert z.degree < 0
        assert z.degree != -1

    def test_leading_form(self):
        assert (X + ONE).leading_form() == X
        omega2 = P(
            {
                (1, 0): 1,
                (0, 1): 1,
                (2, 0): Fraction(1, 2),
                (0, 2): Fraction(-1, 2),
                (1, 1): Fraction(-1, 5),
                (2, 1): -12,
                (0, 3): 4,
            }
        )
        assert omega2.leading_form() == P({(2, 1): -12, (0, 3): 4})

    @pytest.mark.parametrize("pair", [(1.5, 0), (True, 0), (-1, 0), (0, -1)])
    def test_both_constructors_reject_a_bad_exponent_pair(self, pair):
        with pytest.raises(ValueError, match="bad exponent pair"):
            BivariatePoly({pair: 1})
        with pytest.raises(ValueError, match="bad exponent pair"):
            BivariatePoly.monomial(*pair)

    def test_leading_form_of_zero_rejected(self):
        with pytest.raises(ValueError):
            BivariatePoly.zero().leading_form()

    def test_evaluate_reference_w_at_origin(self):
        w = P(
            {
                (0, 0): 160, (2, 0): 4, (0, 2): 4, (3, 0): 16, (2, 1): 4,
                (1, 2): 16, (0, 3): 4, (4, 0): 17, (2, 2): 34, (0, 4): 17,
            }
        )
        assert w.evaluate(0, 0) == 160

    def test_evaluate_kills_odd_monomial_on_axis(self):
        assert P({(1, 1): 2}).evaluate(0, 5) == 0

    def test_evaluate_seed_at_one_one(self):
        omega1 = P({(1, 0): 1, (2, 0): 2, (0, 2): -2, (1, 1): 1})
        assert omega1.evaluate(1, 1) == 2

    def test_div_exact(self):
        assert (X * X - Y * Y).div_exact(X + Y) == X - Y
        with pytest.raises(ExactDivisionError):
            (X * X + ONE).div_exact(X + Y)

    def test_canonical_term_order(self):
        p = P({(0, 2): 1, (2, 0): 1, (1, 0): 1, (0, 0): 1, (1, 1): 1})
        assert [e for e, _ in p.items()] == [(0, 0), (1, 0), (0, 2), (1, 1), (2, 0)]


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_mixed_partials_commute(p):
    assert p.diff_x().diff_y() == p.diff_y().diff_x()


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_laplacian_product_rule(p, q):
    cross = p.diff_x() * q.diff_x() + p.diff_y() * q.diff_y()
    assert (p * q).laplacian() == p * q.laplacian() + q * p.laplacian() + cross.scale(2)


@settings(max_examples=40, deadline=None)
@given(polys, polys, points)
def test_evaluate_is_ring_homomorphism(p, q, pt):
    x0, y0 = pt
    assert (p * q).evaluate(x0, y0) == p.evaluate(x0, y0) * q.evaluate(x0, y0)
    assert (p + q).evaluate(x0, y0) == p.evaluate(x0, y0) + q.evaluate(x0, y0)


class TestRationalFn:
    def test_cross_multiplied_equality(self):
        assert RationalFn(X, X * X).equals(RationalFn(ONE, X))
        assert not RationalFn(ONE, X).equals(RationalFn(ONE, Y))

    def test_representation_independence(self):
        w = P({(0, 0): 160, (2, 0): 4, (0, 2): 4, (4, 0): 17, (2, 2): 34, (0, 4): 17})
        num = P({(0, 0): -5120})
        u = RationalFn(num, w * w)
        pad = ONE + X * X
        assert u.equals(RationalFn(num * pad, w * w * pad))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn(X, BivariatePoly.zero())


@settings(max_examples=30, deadline=None)
@given(polys, polys, polys)
def test_rf_equality_is_equivalence(p, q, r):
    den1 = q + BivariatePoly.constant(13)
    den2 = r + BivariatePoly.constant(7)
    assume(not den2.is_zero)  # r = -7 (coefficients lie in [-9, 9]) zeroes den2
    a = RationalFn(p, den1)
    b = RationalFn(p * den2, den1 * den2)
    c = RationalFn(p * den2 * den2, den1 * den2 * den2)
    assert a.equals(a)
    assert a.equals(b) and b.equals(a)
    assert b.equals(c) and a.equals(c)


# -- the stored form: nonzero ints over one den > 0, gcd(den, *ints) == 1 ------

rational_coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
rational_terms = st.dictionaries(st.tuples(exponent, exponent), rational_coeff, max_size=6)


def assert_stored_form(p: BivariatePoly, reference: dict) -> None:
    """p is canonical and equals the Fraction-dict reference term for term."""
    assert isinstance(p._den, int) and p._den > 0
    assert all(isinstance(c, int) and c != 0 for c in p._ints.values())
    assert math.gcd(p._den, *p._ints.values()) == 1
    assert dict(p.items()) == {e: c for e, c in reference.items() if c}
    assert BivariatePoly(dict(p.items())) == p


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
    return out


@settings(max_examples=60, deadline=None)
@given(rational_terms, rational_terms, rational_coeff, points)
def test_every_operation_keeps_the_stored_form(ta, tb, factor, pt):
    a, b = BivariatePoly(ta), BivariatePoly(tb)
    ra, rb = dict(a.items()), dict(b.items())
    assert ra == {e: c for e, c in ta.items() if c}
    assert_stored_form(a, ta)
    assert_stored_form(a + b, ref_add(ra, rb))
    assert_stored_form(a - b, ref_add(ra, {e: -c for e, c in rb.items()}))
    assert_stored_form(-a, {e: -c for e, c in ra.items()})
    assert_stored_form(a * b, ref_mul(ra, rb))
    assert_stored_form(a.scale(factor), {e: c * factor for e, c in ra.items()})
    assert_stored_form(a.diff_x(), {(i - 1, j): c * i for (i, j), c in ra.items() if i})
    assert_stored_form(a.diff_y(), {(i, j - 1): c * j for (i, j), c in ra.items() if j})
    assert_stored_form(a.integrate_x(), {(i + 1, j): c / (i + 1) for (i, j), c in ra.items()})
    assert_stored_form(a.integrate_y(), {(i, j + 1): c / (j + 1) for (i, j), c in ra.items()})
    assert a.coefficient_abs_sum() == sum(map(abs, ra.values()))
    x0, y0 = pt
    assert a.evaluate(x0, y0) == sum(c * x0**i * y0**j for (i, j), c in ra.items())
    if not a.is_zero:
        d = a.degree
        assert_stored_form(a.leading_form(), {e: c for e, c in ra.items() if sum(e) == d})
    if not b.is_zero:
        assert_stored_form((a * b).div_exact(b), ra)
