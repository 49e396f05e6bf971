"""Harmonic basis, combos, conjugates, and their invariants."""

import random
from fractions import Fraction

import pytest

from moutardkit.errors import NotClosed
from moutardkit.harmonic import conjugate, harmonic_basis, random_combo
from moutardkit.polynomials import BivariatePoly

X, Y = BivariatePoly.variables()


def test_basis_low_degrees():
    assert harmonic_basis(1) == (X, Y)
    assert harmonic_basis(2) == (X * X - Y * Y, (X * Y).scale(2))
    re3, im3 = harmonic_basis(3)
    assert re3 == BivariatePoly({(3, 0): 1, (1, 2): -3})
    assert im3 == BivariatePoly({(2, 1): 3, (0, 3): -1})


def test_basis_matches_the_product_recurrence():
    # the reference: (re, im) -> (re*x - im*y, re*y + im*x) from (x, y)
    re, im = X, Y
    for n in range(1, 41):
        assert harmonic_basis(n) == (re, im)
        re, im = re * X - im * Y, re * Y + im * X


def test_random_combo_multiplies_no_polynomials(monkeypatch):
    calls = []
    mul = BivariatePoly.__mul__
    monkeypatch.setattr(BivariatePoly, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    assert not random_combo(5, 0, 5).realized.is_zero
    assert calls == []


def test_basis_rejects_zero():
    with pytest.raises(ValueError):
        harmonic_basis(0)


@pytest.mark.parametrize("n", range(1, 8))
def test_basis_harmonic_and_homogeneous(n):
    re, im = harmonic_basis(n)
    for p in (re, im):
        assert p.laplacian().is_zero
        assert {i + j for (i, j), _ in p.items()} == {n}
        assert p.degree == n


def test_random_combo_deterministic_and_harmonic():
    a = random_combo(3, 99, 5)
    b = random_combo(3, 99, 5)
    assert a == b
    assert a.realized.laplacian().is_zero
    assert a.realized.degree <= 3


def test_random_combo_degree_two_support():
    combo = random_combo(2, 5, 5)
    assert 1 <= combo.realized.degree <= 2
    assert combo.realized.coefficient(0, 0) == 0  # no constant term


def test_conjugate_generators():
    assert conjugate(X) == Y
    assert conjugate(Y) == -X
    assert conjugate(BivariatePoly.constant(7)).is_zero


def test_conjugate_matches_the_basis_pair():
    # Im(z^n) is the conjugate of Re(z^n); both vanish at the origin
    for n in range(1, 8):
        re, im = harmonic_basis(n)
        assert conjugate(re) == im
        assert conjugate(im) == -re


def test_conjugate_rejects_a_non_harmonic_polynomial():
    with pytest.raises(NotClosed):
        conjugate(X * X)


def test_conjugate_satisfies_cauchy_riemann():
    rng = random.Random(3)
    for _ in range(10):
        u = random_combo(4, 0, 6, rng=rng).realized
        v = conjugate(u)
        assert u.diff_x() == v.diff_y()
        assert u.diff_y() == -v.diff_x()


def test_conjugate_reconstructs_second_seed_of_first_example():
    re2, im2 = harmonic_basis(2)
    omega1 = X + re2.scale(2) + im2.scale(Fraction(1, 2))
    omega2 = BivariatePoly(
        {(1, 0): 1, (0, 1): 1, (2, 0): Fraction(3, 2), (0, 2): Fraction(-3, 2), (1, 1): 5}
    )
    assert omega1 + conjugate(omega1) == omega2
