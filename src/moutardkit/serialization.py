"""Canonical JSON formats for every object the package exchanges.

All rationals travel as decimal strings, all term lists in canonical
order, so serialization round-trips bit-exactly: parse(dump(x)) == x and
dump(parse(s)) == s for canonical s.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .polynomials import BivariatePoly, RationalFn


def dumps(obj: Any) -> str:
    """Deterministic JSON rendering (fixed key order, no whitespace)."""
    return json.dumps(obj, separators=(",", ":"))


def fraction_to_obj(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def obj_to_fraction(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def poly_to_obj(p: BivariatePoly) -> dict:
    return {
        "vars": ["x", "y"],
        "terms": [
            {"i": i, "j": j, "num": str(c.numerator), "den": str(c.denominator)}
            for (i, j), c in p.items()
        ],
    }


def obj_to_poly(obj: dict) -> BivariatePoly:
    if obj.get("vars") != ["x", "y"]:
        raise ValueError(f"expected bivariate polynomial, got vars={obj.get('vars')!r}")
    terms = {}
    for t in obj["terms"]:
        terms[(t["i"], t["j"])] = Fraction(int(t["num"]), int(t["den"]))
    return BivariatePoly(terms)


def rationalfn_to_obj(f: RationalFn) -> dict:
    return {"num": poly_to_obj(f.num), "den": poly_to_obj(f.den)}


def obj_to_rationalfn(obj: dict) -> RationalFn:
    return RationalFn(obj_to_poly(obj["num"]), obj_to_poly(obj["den"]))


def poly1d_to_obj(p: BivariatePoly) -> dict:
    """The one-variable format of a y-free polynomial."""
    terms = []
    for (i, j), c in p.items():
        if j:
            raise ValueError(f"expected a y-free polynomial, got the term x^{i} y^{j}")
        terms.append({"i": i, "num": str(c.numerator), "den": str(c.denominator)})
    return {"vars": ["x"], "terms": terms}


def obj_to_poly1d(obj: dict) -> BivariatePoly:
    if obj.get("vars") != ["x"]:
        raise ValueError(f"expected univariate polynomial, got vars={obj.get('vars')!r}")
    return BivariatePoly(
        {(t["i"], 0): Fraction(int(t["num"]), int(t["den"])) for t in obj["terms"]}
    )


def rationalfn1d_to_obj(f: RationalFn) -> dict:
    return {"num": poly1d_to_obj(f.num), "den": poly1d_to_obj(f.den)}


def obj_to_rationalfn1d(obj: dict) -> RationalFn:
    return RationalFn(obj_to_poly1d(obj["num"]), obj_to_poly1d(obj["den"]))
