"""The Kronecker-packed product and exact division against schoolbook loops."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from moutardkit import cli, polynomials
from moutardkit.construct import SeedPair, double_transform, transform_family
from moutardkit.errors import ExactDivisionError
from moutardkit.polynomials import BivariatePoly, RationalFn, term_sort_key
from moutardkit.serialization import obj_to_poly, obj_to_rationalfn

X, Y = BivariatePoly.variables()
ONE = BivariatePoly.constant(1)
DATA = Path(__file__).parent / "data"


def schoolbook_mul(a: BivariatePoly, b: BivariatePoly) -> BivariatePoly:
    """Reference product: one Fraction update per pair of terms."""
    acc = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            acc[e] = acc.get(e, Fraction(0)) + c1 * c2
    return BivariatePoly(acc)


def schoolbook_div(a: BivariatePoly, b: BivariatePoly) -> BivariatePoly:
    """Reference exact division: cancel the graded-lex leading term."""
    div_terms = dict(b.items())
    div_lead = max(div_terms, key=term_sort_key)
    remainder = dict(a.items())
    quotient = {}
    while remainder:
        lead = max(remainder, key=term_sort_key)
        qi, qj = lead[0] - div_lead[0], lead[1] - div_lead[1]
        if qi < 0 or qj < 0:
            raise ExactDivisionError("leading term not divisible")
        qc = remainder[lead] / div_terms[div_lead]
        quotient[(qi, qj)] = qc
        for (di, dj), dc in div_terms.items():
            e = (qi + di, qj + dj)
            s = remainder.get(e, Fraction(0)) - qc * dc
            if s:
                remainder[e] = s
            elif e in remainder:
                del remainder[e]
    return BivariatePoly(quotient)


def poly_strategy(coeffs, max_exponent=12, max_size=8):
    exponent = st.integers(min_value=0, max_value=max_exponent)
    return st.dictionaries(st.tuples(exponent, exponent), coeffs, max_size=max_size).map(
        BivariatePoly
    )


big = 2**64
any_poly = st.one_of(
    poly_strategy(st.integers(min_value=-9, max_value=9)),
    poly_strategy(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)),
    poly_strategy(st.integers(min_value=-big, max_value=big)),
    st.fractions(max_denominator=50).map(BivariatePoly.constant),  # zero included
)


class TestProduct:
    @settings(max_examples=200, deadline=None)
    @given(any_poly, any_poly)
    def test_matches_schoolbook(self, a, b):
        assert a * b == schoolbook_mul(a, b)

    def test_zero_and_constant_operands(self):
        p = X**12 * Y.scale(Fraction(-3, 7)) + ONE
        assert (p * BivariatePoly.zero()).is_zero
        assert (BivariatePoly.zero() * p).is_zero
        assert p * BivariatePoly.constant(Fraction(5, 2)) == p.scale(Fraction(5, 2))

    def test_extreme_coefficients_cancel(self):
        a, b = X.scale(big) + Y.scale(-big) + ONE, X.scale(big) + Y.scale(big)
        assert a * b == schoolbook_mul(a, b)


def count_kronecker(monkeypatch):
    """Record every call of the packed product `_int_mul`."""
    calls = []
    real = polynomials._int_mul

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(polynomials, "_int_mul", counted)
    return calls


def load_seeds(name):
    obj = json.loads((DATA / name).read_text(encoding="utf-8"))
    u0 = obj_to_rationalfn(obj["u0"]) if "u0" in obj else RationalFn.zero()
    return u0, obj_to_poly(obj["omega1"]), obj_to_poly(obj["omega2"])


class TestConstantOperands:
    @settings(max_examples=200, deadline=None)
    @given(any_poly, st.fractions(max_denominator=50))
    def test_a_constant_factor_is_a_scaling(self, p, value):
        c = BivariatePoly.constant(value)  # zero included
        with pytest.MonkeyPatch.context() as mp:
            calls = count_kronecker(mp)
            products = (p * c, c * p)
        assert products == (p.scale(c.coefficient(0, 0)),) * 2
        assert calls == []

    def test_polynomial_seeds_cost_no_product(self, monkeypatch):
        seeds = load_seeds("pair_d5.json")
        calls = count_kronecker(monkeypatch)
        SeedPair(*seeds)
        assert len(calls) == 0  # 8 when constants went through the packed product

    def test_monomial_background_costs_one_product_per_pair(self, monkeypatch):
        seeds = load_seeds("pair_u0_x2.json")  # u0 = 2/x^2
        calls = count_kronecker(monkeypatch)
        SeedPair(*seeds)
        assert len(calls) <= 1  # 16 when constants went through the packed product

    def test_double_transform_products(self, monkeypatch):
        seeds = SeedPair(*load_seeds("pair_d5.json"))
        w = transform_family(seeds) + BivariatePoly.constant(358)
        calls = count_kronecker(monkeypatch)
        double_transform(seeds, w)
        assert len(calls) <= 10  # 14 when it integrated F itself

    @pytest.mark.parametrize(
        "argv,most",
        [
            (("transform", "--seeds", str(DATA / "pair_d5.json"), "--constant", "358"), 14),
            (("transform", "--seeds", str(DATA / "pair_u0_x2.json"), "--constant", "3"), 18),
            (("search", "--degree", "3", "--trials", "1", "--seed", "0"), 16),  # 20 with F twice
        ],
        ids=["transform-d5", "transform-u0-x2", "search-d3"],
    )
    def test_cli_products(self, monkeypatch, capsys, argv, most):
        calls = count_kronecker(monkeypatch)
        assert cli.main(list(argv)) == 0
        assert len(calls) <= most


class TestExactDivision:
    @settings(max_examples=100, deadline=None)
    @given(any_poly, any_poly)
    def test_product_divides_back(self, a, b):
        if b.is_zero:
            return
        assert (a * b).div_exact(b) == a
        assert schoolbook_div(a * b, b) == a

    @settings(max_examples=100, deadline=None)
    @given(any_poly, any_poly)
    def test_non_divisor_rejected(self, a, b):
        if b.degree < 1:
            return
        # b divides a*b + 1 only if it divides 1
        with pytest.raises(ExactDivisionError):
            (a * b + ONE).div_exact(b)

    def test_remainder_rejects_without_retry(self):
        with pytest.raises(ExactDivisionError, match="nonzero remainder"):
            (X * X + ONE).div_exact(X + ONE)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            X.div_exact(BivariatePoly.zero())

    def test_zero_dividend(self):
        assert BivariatePoly.zero().div_exact(X + Y).is_zero

    def test_quotient_wider_than_dividend_retries(self, monkeypatch):
        quotient = (X + ONE) ** 200
        divisor = (X - ONE) ** 20
        dividend = quotient * divisor
        bits = lambda p: max(abs(c).numerator.bit_length() for _, c in p.items())
        # the first slot width comes from the dividend, too narrow for the quotient
        assert (bits(dividend), bits(quotient)) == (168, 196)
        widths = []
        unpack = polynomials._unpack

        def spy(value, stride, width, slots):
            if slots == 201:  # the quotient's slots, not a check product's
                widths.append(width)
            return unpack(value, stride, width, slots)

        monkeypatch.setattr(polynomials, "_unpack", spy)
        assert dividend.div_exact(divisor) == quotient
        assert len(widths) == 2 and widths[1] == 2 * widths[0]
