"""Harmonic polynomial seeds: the Re/Im((x+iy)^n) basis and random
rational combinations of it.

Parameterizing seeds in this basis makes harmonicity structural; nothing
ever needs to solve the Laplace equation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Literal, Tuple

from .polynomials import BivariatePoly, RationalLike, as_fraction

Part = Literal["re", "im"]


def harmonic_basis(n: int) -> Tuple[BivariatePoly, BivariatePoly]:
    """(Re((x+iy)^n), Im((x+iy)^n)), the degree-n harmonic pair.

    Built by the binomial recurrence (re, im) -> (re*x - im*y, re*y + im*x).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("degree must be a positive integer")
    x, y = BivariatePoly.variables()
    re, im = x, y
    for _ in range(n - 1):
        re, im = re * x - im * y, re * y + im * x
    return re, im


def is_harmonic(p: BivariatePoly) -> bool:
    return p.laplacian().is_zero


@dataclass(frozen=True)
class HarmonicCombo:
    """A rational combination of Re/Im(z^n) basis elements."""

    coefficients: Dict[Tuple[int, Part], Fraction]
    realized: BivariatePoly

    @classmethod
    def from_coefficients(
        cls, coefficients: Dict[Tuple[int, Part], RationalLike]
    ) -> "HarmonicCombo":
        clean: Dict[Tuple[int, Part], Fraction] = {}
        total = BivariatePoly.zero()
        basis_cache: Dict[int, Tuple[BivariatePoly, BivariatePoly]] = {}
        for (n, part), coeff in sorted(coefficients.items()):
            c = as_fraction(coeff)
            if c == 0:
                continue
            if part not in ("re", "im"):
                raise ValueError(f"part must be 're' or 'im', got {part!r}")
            if n == 0:
                # constants are harmonic; carried as the (0, "re") entry
                if part != "re":
                    raise ValueError("a constant term must use part 're'")
                total = total + BivariatePoly.constant(c)
            else:
                if n not in basis_cache:
                    basis_cache[n] = harmonic_basis(n)
                re, im = basis_cache[n]
                total = total + (re if part == "re" else im).scale(c)
            clean[(n, part)] = c
        return cls(clean, total)

    def to_obj(self) -> dict:
        return {
            "terms": [
                {"n": n, "part": part, "num": str(c.numerator), "den": str(c.denominator)}
                for (n, part), c in sorted(self.coefficients.items())
            ]
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "HarmonicCombo":
        coeffs = {
            (t["n"], t["part"]): Fraction(int(t["num"]), int(t["den"]))
            for t in obj["terms"]
        }
        return cls.from_coefficients(coeffs)


def conjugate(combo: HarmonicCombo) -> HarmonicCombo:
    """The harmonic conjugate: Re(f) -> Im(f) termwise in the z^n basis.

    Writing the combo as Re(sum c_n z^n), the conjugate realizes
    Im(sum c_n z^n); the pair solves the Cauchy-Riemann equations. Any
    constant term is dropped (the conjugate of a constant is 0 up to the
    usual additive ambiguity).
    """
    conjugated: Dict[Tuple[int, Part], Fraction] = {}
    for (n, part), c in combo.coefficients.items():
        if n == 0:
            continue
        if part == "im":
            conjugated[(n, "re")] = conjugated.get((n, "re"), Fraction(0)) - c
        else:
            conjugated[(n, "im")] = conjugated.get((n, "im"), Fraction(0)) + c
    return HarmonicCombo.from_coefficients(conjugated)


def random_combo(
    max_degree: int,
    rng_seed: int,
    coefficient_bound: int,
    rng: random.Random | None = None,
) -> HarmonicCombo:
    """A reproducible random harmonic combination, degrees 1..max_degree.

    Integer coefficients are drawn uniformly from [-bound, bound]; a zero
    draw is retried so the combination is never the zero polynomial.
    Passing an explicit `rng` continues an existing deterministic stream
    (rng_seed is then ignored).
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if coefficient_bound < 1:
        raise ValueError("coefficient_bound must be >= 1")
    gen = rng if rng is not None else random.Random(rng_seed)
    while True:
        coeffs: Dict[Tuple[int, Part], int] = {}
        for n in range(1, max_degree + 1):
            for part in ("re", "im"):
                c = gen.randint(-coefficient_bound, coefficient_bound)
                if c:
                    coeffs[(n, part)] = c
        combo = HarmonicCombo.from_coefficients(coeffs)
        if not combo.realized.is_zero:
            return combo
