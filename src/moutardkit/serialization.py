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
    num, den = obj["num"], obj["den"]
    # type() rejects bool, which isinstance would accept as an int
    if not all(type(v) in (int, str) for v in (num, den)):
        raise TypeError(f"expected integer strings, got {num!r} / {den!r}")
    return Fraction(int(num), int(den))


def poly_to_obj(p: BivariatePoly) -> dict:
    return {
        "vars": ["x", "y"],
        "terms": [
            {"i": i, "j": j, "num": str(c.numerator), "den": str(c.denominator)}
            for (i, j), c in p.items()
        ],
    }


def obj_to_poly(obj: dict) -> BivariatePoly:
    if not isinstance(obj, dict) or obj.get("vars") != ["x", "y"]:
        raise ValueError(f"expected a bivariate polynomial, got {obj!r:.60}")
    terms = {}
    for t in obj["terms"]:
        exponents = (t["i"], t["j"])
        if exponents in terms:
            raise ValueError(f"repeated term x^{t['i']} y^{t['j']}")
        terms[exponents] = obj_to_fraction(t)
    return BivariatePoly(terms)


def rationalfn_to_obj(f: RationalFn) -> dict:
    return {"num": poly_to_obj(f.num), "den": poly_to_obj(f.den)}


def obj_to_rationalfn(obj: dict) -> RationalFn:
    return RationalFn(obj_to_poly(obj["num"]), obj_to_poly(obj["den"]))
