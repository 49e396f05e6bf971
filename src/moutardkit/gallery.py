"""Built-in demonstration seed pairs.

Example 1 ships with its known closed-form potential and kernel functions,
used as golden targets by the verification pipeline; Example 2 ships with
its expected decay rates only (its closed forms are large and are always
recomputed from the seeds).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .construct import SeedPair
from .polynomials import BivariatePoly, RationalFn


class ReferenceForms(NamedTuple):
    """Closed-form targets: W, u = num/W^2 and the two kernel functions."""

    w_poly: BivariatePoly
    u: RationalFn
    psi1: RationalFn
    psi2: RationalFn


class BuiltinExample(NamedTuple):
    seeds: SeedPair
    reference: Optional[ReferenceForms]
    expected_u_decay: int
    expected_psi_decay: int


def _example_1() -> BuiltinExample:
    omega1 = BivariatePoly({(1, 0): 1, (2, 0): 2, (0, 2): -2, (1, 1): 1})
    omega2 = BivariatePoly(
        {(1, 0): 1, (0, 1): 1, (2, 0): Fraction(3, 2), (0, 2): Fraction(-3, 2), (1, 1): 5}
    )
    w = BivariatePoly(
        {
            (0, 0): 160,
            (2, 0): 4,
            (0, 2): 4,
            (3, 0): 16,
            (2, 1): 4,
            (1, 2): 16,
            (0, 3): 4,
            (4, 0): 17,
            (2, 2): 34,
            (0, 4): 17,
        }
    )
    u_num = BivariatePoly(
        {(0, 0): -5120, (1, 0): -40960, (0, 1): -10240, (2, 0): -87040, (0, 2): -87040}
    )
    psi1_num = BivariatePoly({(1, 0): 1, (2, 0): 2, (1, 1): 1, (0, 2): -2})
    psi2_num = BivariatePoly({(1, 0): 2, (0, 1): 2, (2, 0): 3, (1, 1): 10, (0, 2): -3})
    reference = ReferenceForms(
        w_poly=w,
        u=RationalFn(u_num, w * w),
        psi1=RationalFn(psi1_num, w),
        psi2=RationalFn(psi2_num, w),
    )
    return BuiltinExample(
        seeds=SeedPair.harmonic(omega1, omega2),
        reference=reference,
        expected_u_decay=6,
        expected_psi_decay=2,
    )


def _example_2() -> BuiltinExample:
    omega1 = BivariatePoly(
        {
            (1, 0): 1,
            (2, 0): Fraction(1, 5),
            (0, 2): Fraction(-1, 5),
            (1, 1): Fraction(-3, 5),
            (3, 0): -2,
            (2, 1): -6,
            (1, 2): 6,
            (0, 3): 2,
        }
    )
    omega2 = BivariatePoly(
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
    return BuiltinExample(
        seeds=SeedPair.harmonic(omega1, omega2),
        reference=None,
        expected_u_decay=8,
        expected_psi_decay=3,
    )


EXAMPLES = {1: _example_1, 2: _example_2}  # id -> builder


def get_example(ident: int) -> BuiltinExample:
    if ident not in EXAMPLES:
        raise ValueError(f"no built-in example {ident}; choose one of {sorted(EXAMPLES)}")
    return EXAMPLES[ident]()
