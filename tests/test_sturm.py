"""Sturm-chain root counting, cross-checked against an independent oracle."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from moutardkit.polynomials import BivariatePoly
from moutardkit.sturm import count_real_roots, is_positive_everywhere, sturm_chain

T = sp.symbols("t")


def as_poly1d(expr) -> BivariatePoly:
    """The sympy polynomial in t as a y-free BivariatePoly in x."""
    poly = sp.Poly(sp.expand(expr), T)
    return BivariatePoly(
        {(m[0], 0): Fraction(str(c)) for m, c in zip(poly.monoms(), poly.coeffs())}
    )


@pytest.mark.parametrize(
    "expr,count",
    [
        (T**2 + 1, 0),
        (T**2 - 1, 2),
        ((T - 1) ** 2 * (T + 2), 2),  # distinct roots only
        (T**3, 1),
        (T**5 - T, 3),
        (3 * T + 7, 1),
        (sp.Integer(4), 0),
        # negative leading coefficients and a remainder two degrees down:
        # the pseudo-remainder's sign correction decides this count
        (-(T**4) - 1, 0),
    ],
)
def test_known_root_counts(expr, count):
    assert count_real_roots(as_poly1d(expr)) == count


def test_against_sympy_oracle():
    # integer and rational coefficients
    rng = random.Random(42)
    for trial in range(80):
        degree = rng.randint(1, 7)
        den = 1 if trial % 2 else rng.randint(2, 9)
        expr = sum(sp.Rational(rng.randint(-6, 6), rng.randint(1, den)) * T**i for i in range(degree + 1))
        if expr == 0:
            continue
        roots = set(sp.Poly(expr, T).real_roots())
        p = as_poly1d(expr)
        assert count_real_roots(p) == len(roots), expr


def test_chain_shape():
    # dense ascending coefficient lists: the degree is the length minus one
    degrees = [len(c) - 1 for c in sturm_chain(as_poly1d(T**3 - 2 * T + 1))]
    assert degrees[0] == 3
    assert degrees[1] == 2
    assert all(degrees[i] > degrees[i + 1] for i in range(1, len(degrees) - 1))


def test_is_positive_everywhere():
    assert is_positive_everywhere(as_poly1d(T**2 + 1))
    assert is_positive_everywhere(as_poly1d(sp.Integer(3)))
    assert not is_positive_everywhere(as_poly1d(T**2 - 1))
    assert not is_positive_everywhere(as_poly1d(-T**2 - 1))
    assert not is_positive_everywhere(as_poly1d(T**2))  # touches zero


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        count_real_roots(BivariatePoly.zero())


def test_y_dependent_polynomial_rejected():
    with pytest.raises(ValueError, match="x alone"):
        count_real_roots(BivariatePoly({(2, 0): 1, (0, 1): 1}))
