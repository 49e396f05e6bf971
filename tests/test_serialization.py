"""Bit-exact JSON round trips for every serialized object."""

import json
from fractions import Fraction

import pytest

from moutardkit import serialization as ser
from moutardkit.polynomials import BivariatePoly, RationalFn


def roundtrip_poly(p):
    text = ser.dumps(ser.poly_to_obj(p))
    back = ser.obj_to_poly(json.loads(text))
    assert back == p
    assert ser.dumps(ser.poly_to_obj(back)) == text


def test_poly_roundtrip():
    roundtrip_poly(BivariatePoly.zero())
    roundtrip_poly(BivariatePoly.constant(Fraction(-3, 7)))
    roundtrip_poly(
        BivariatePoly(
            {(0, 0): 160, (4, 0): 17, (1, 2): Fraction(355, 113), (0, 3): -4}
        )
    )


def test_poly_terms_serialized_in_canonical_order():
    p = BivariatePoly({(2, 0): 1, (0, 0): 5, (1, 1): -2, (0, 1): 3})
    obj = ser.poly_to_obj(p)
    assert [(t["i"], t["j"]) for t in obj["terms"]] == [(0, 0), (0, 1), (1, 1), (2, 0)]
    assert obj["vars"] == ["x", "y"]


def test_poly_rejects_wrong_vars():
    with pytest.raises(ValueError):
        ser.obj_to_poly({"vars": ["x"], "terms": []})
    with pytest.raises(ValueError):
        ser.obj_to_poly([{"vars": ["x", "y"], "terms": []}])


def test_rationalfn_roundtrip():
    x, y = BivariatePoly.variables()
    f = RationalFn(x + y.scale(Fraction(1, 2)), x * x + BivariatePoly.constant(1))
    text = ser.dumps(ser.rationalfn_to_obj(f))
    back = ser.obj_to_rationalfn(json.loads(text))
    assert back == f
    assert ser.dumps(ser.rationalfn_to_obj(back)) == text


def test_fraction_roundtrip():
    for value in (Fraction(0), Fraction(-5120), Fraction(2, 3), Fraction(10**40, 7)):
        obj = ser.fraction_to_obj(value)
        assert ser.obj_to_fraction(obj) == value


@pytest.mark.parametrize("num,den", [(1.5, "1"), ("1", 2.0), (None, "1")])
def test_fraction_rejects_non_integers(num, den):
    # int(1.5) would silently read 1
    with pytest.raises(TypeError):
        ser.obj_to_fraction({"num": num, "den": den})


def test_poly_rejects_repeated_terms():
    # -1 + x^2 + y^2 + 1 vanishes at the origin; keeping only the last
    # constant term would read it as the positive x^2 + y^2 + 1
    terms = [
        {"i": 0, "j": 0, "num": "-1", "den": "1"},
        {"i": 2, "j": 0, "num": "1", "den": "1"},
        {"i": 0, "j": 2, "num": "1", "den": "1"},
        {"i": 0, "j": 0, "num": "1", "den": "1"},
    ]
    with pytest.raises(ValueError, match="repeated term"):
        ser.obj_to_poly({"vars": ["x", "y"], "terms": terms})


def test_poly_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        ser.obj_to_poly({"vars": ["x", "y"], "terms": [{"i": 2, "j": 0, "num": "1", "den": "0"}]})
