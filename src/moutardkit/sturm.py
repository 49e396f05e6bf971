"""Sturm chains and exact real-root counting for univariate polynomials.

A univariate polynomial is a y-free `BivariatePoly` (every term (i, 0)).
Its stored integer coefficients, a positive multiple of it, seed the
chain, which is kept as dense lists of primitive integer coefficients in
ascending powers: each remainder is an integer pseudo-remainder whose
sign is corrected so that it is a positive multiple of -rem(...). Roots
are counted on the whole real line, which is all that positivity on the
unit circle needs: the sign of a chain member at -infinity or +infinity
is the sign of its leading coefficient, times (-1)^degree at -infinity.
Positive scaling never changes a sign count, so no `Fraction` is needed
anywhere.
"""

from __future__ import annotations

import math

from .polynomials import BivariatePoly

Dense = list[int]  # ascending coefficients, nonzero last entry


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _primitive(coeffs: Dense) -> Dense:
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs]


def _negated_remainder(a: Dense, b: Dense) -> Dense:
    """A positive multiple of -rem(a, b), primitive; [] when b divides a."""
    lead = b[-1]
    r = list(a)
    steps = 0  # lead^steps * a = quotient * b + r
    while r and len(r) >= len(b):
        top, shift = r[-1], len(r) - len(b)
        r = [lead * c for c in r]
        for k, c in enumerate(b):
            r[shift + k] -= top * c
        while r and not r[-1]:
            r.pop()
        steps += 1
    if not r:
        return r
    flip = -(_sign(lead) ** steps)  # -rem(a, b) = -r / lead^steps
    return _primitive([flip * c for c in r])


def sturm_chain(p: BivariatePoly) -> list[Dense]:
    """The Sturm sequence p, p', -rem(...), ... as primitive integer lists.

    Raises ValueError for the zero polynomial or one that depends on y.
    """
    if p.is_zero:
        raise ValueError("Sturm chain of the zero polynomial")
    ints = p._ints  # a positive multiple of p
    if any(j for _, j in ints):
        raise ValueError("Sturm chains need a polynomial in x alone")
    dense = [0] * (max(i for i, _ in ints) + 1)
    for (i, _), c in ints.items():
        dense[i] = c
    chain = [_primitive(dense)]
    if len(dense) == 1:
        return chain
    chain.append(_primitive([i * c for i, c in enumerate(dense) if i]))
    while len(chain[-1]) > 1:
        rem = _negated_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return chain


def _variations(chain: list[Dense], side: int) -> int:
    """Sign changes along the chain at side * infinity, where no member vanishes."""
    signs = [_sign(c[-1]) * side ** (len(c) - 1) for c in chain]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_real_roots(p: BivariatePoly) -> int:
    """Number of distinct real roots of the y-free p on the whole line."""
    chain = sturm_chain(p)
    return _variations(chain, -1) - _variations(chain, 1)


def is_positive_everywhere(p: BivariatePoly) -> bool:
    """True iff the y-free p satisfies p(t) > 0 for every real t."""
    # with no real roots the sign is constant, so probe t = 0
    return p.coefficient(0, 0) > 0 and count_real_roots(p) == 0
