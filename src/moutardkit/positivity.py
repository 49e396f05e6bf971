"""Exact global positivity of bivariate polynomials: the one module that
knows the circle test and the box tree.

Callers ask four things. `leading_dominance(p)` bounds p's leading form
on the unit circle (the only circle test; Sturm sequences unless it is
radial) and gives the coefficient-sum tail that makes the leading term
dominate.
`global_positivity(w, max_depth)` certifies w > 0 on the plane or refutes
it at a rational point. `two_squares(w, p, q)` checks the identity
w = w(0,0) + mu*(p^2 + q^2) with mu > 0, which proves w >= w(0,0) with no
box at all. `min_positive_constant(f, max_depth, square)` returns the
constant C that makes f + C certifiable, by that identity when a hint
(p, q) verifies and otherwise by the box tree; it keeps no certificate,
and only `global_positivity` builds one.

Inside the cutoff radius the plane is covered by branch-and-bound on
integers: boxes are dyadic cells of the root square, each with one
integer tensor Bernstein grid that de Casteljau halving hands to its two
halves, so `Fraction`s are built only for the cells and points reported.
A box's least Bernstein coefficient bounds the polynomial there and
converges to its minimum quadratically under subdivision (Garloff 1986;
Zettler and Garloff, IEEE TAC 43, 1998); its corner coefficients are the
exact values at the box corners. A box tree holds those two numbers per
box of one polynomial f, independent of depth limit and offset, so it
decides f + k for every constant k by integer comparisons; a walk
returns only its verdict. `global_positivity` reads the cells off w's own tree.
The constant search probes F + c on one tree of G = F - F(0,0) and keeps
only whether each probe certified.
`Inconclusive` is an explicit outcome, never treated as positive.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DEFAULT_MAX_DEPTH, Inconclusive, NonPositiveLeadingForm
from .polynomials import BivariatePoly
from .serialization import fraction_to_obj, obj_to_fraction

DOUBLING_CAP = Fraction(2) ** 64
REFINE_FLOOR = Fraction(1, 64)

Box = Tuple[Fraction, Fraction, Fraction, Fraction]  # (x_lo, x_hi, y_lo, y_hi)


class CertifiedCell(NamedTuple):
    box: Box
    lower_bound: Fraction


class PositivityCertificate(NamedTuple):
    """Machine-checkable evidence that a polynomial is positive on the plane."""

    leading_form_min_bound: Fraction
    cutoff_radius: Fraction
    cells: Tuple[CertifiedCell, ...]
    max_depth_used: int

    def to_obj(self) -> dict:
        return {
            "leading_form_min_bound": fraction_to_obj(self.leading_form_min_bound),
            "cutoff_radius": fraction_to_obj(self.cutoff_radius),
            "cells": [
                {
                    "box": [fraction_to_obj(v) for v in cell.box],
                    "lower_bound": fraction_to_obj(cell.lower_bound),
                }
                for cell in self.cells
            ],
            "max_depth_used": self.max_depth_used,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "PositivityCertificate":
        return cls(
            leading_form_min_bound=obj_to_fraction(obj["leading_form_min_bound"]),
            cutoff_radius=obj_to_fraction(obj["cutoff_radius"]),
            cells=tuple(
                CertifiedCell(
                    tuple(obj_to_fraction(v) for v in cell["box"]),
                    obj_to_fraction(cell["lower_bound"]),
                )
                for cell in obj["cells"]
            ),
            max_depth_used=obj["max_depth_used"],
        )


class PositivityRefutation(NamedTuple):
    """An exact rational point where the polynomial is <= 0."""

    point: Tuple[Fraction, Fraction]
    value: Fraction

    def to_obj(self) -> dict:
        return {
            "point": [fraction_to_obj(self.point[0]), fraction_to_obj(self.point[1])],
            "value": fraction_to_obj(self.value),
        }


PositivityOutcome = Union[PositivityCertificate, PositivityRefutation]


class TwoSquareProof(NamedTuple):
    """The identity w = floor + mu*(p^2 + q^2) with rational mu > 0.

    p and q are real polynomials, so w >= floor on the whole plane; the
    proof shows w > 0 exactly when floor > 0.
    """

    p: BivariatePoly
    q: BivariatePoly
    mu: Fraction
    floor: Fraction


def two_squares(w: BivariatePoly, p: BivariatePoly, q: BivariatePoly) -> Optional[TwoSquareProof]:
    """The proof that w - w(0,0) = mu*(p^2 + q^2) for a rational mu > 0,
    or None when no such mu exists.

    The hint (p, q) is checked, never trusted: mu is read off one
    coefficient of p^2 + q^2 and the whole identity is then compared
    exactly. Nothing else about p and q is assumed.
    """
    s = p * p + q * q
    if s.is_zero:
        return None
    floor = w.coefficient(0, 0)
    g = w - BivariatePoly.constant(floor)
    (i, j), coeff = next(s.items())
    mu = g.coefficient(i, j) / coeff
    if mu <= 0 or g != s.scale(mu):
        return None
    return TwoSquareProof(p, q, mu, floor)


def _circle_bound(lead: BivariatePoly, d: int) -> Optional[Fraction]:
    """An exact positive lower bound on the unit circle of a nonzero form
    of even degree d, or None when the form attains a value <= 0 there.

    The section q(t) = lead(1, t) is compared with (1+t^2)^(d/2) first: a
    radial form c*(x^2+y^2)^(d/2), which is the top part of every
    quadrature of two harmonic seeds of equal degree and every positive
    constant, has the exact minimum c. Any other form is positive on the
    circle iff lead(0,1) > 0 and q is root-free and positive (Sturm), and
    c is halved until q - c*(1+t^2)^(d/2) is root-free.
    """
    a0 = lead.coefficient(0, d)  # value at (0, +-1)
    if a0 <= 0:
        return None
    # q(t) as a y-free polynomial in t; on a form the exponent j fixes the term
    q = BivariatePoly({(j, 0): c for (_, j), c in lead.items()})
    power = BivariatePoly({(2 * k, 0): math.comb(d // 2, k) for k in range(d // 2 + 1)})
    c = min(a0, q.coefficient(0, 0))
    if q == power.scale(c):
        return c  # the exact minimum
    from .sturm import is_positive_everywhere  # only a non-radial form needs Sturm chains

    if not is_positive_everywhere(q):
        return None
    while not is_positive_everywhere(q - power.scale(c)):
        c = c / 2
    return c


def leading_dominance(p: BivariatePoly) -> Tuple[Fraction, Fraction, int]:
    """(circle bound m of the leading form, |coeff| sum S of the lower part,
    total degree D); then p >= m*r^D - S*r^(D-1) for r >= 1.

    A nonnegative constant term only helps and is left out of S.
    Raises NonPositiveLeadingForm when no such m exists, in particular for
    an odd D.
    """
    lead = p.leading_form()
    d = int(p.degree)
    if d % 2:
        raise NonPositiveLeadingForm("odd-degree forms change sign on the circle")
    bound = _circle_bound(lead, d)
    if bound is None:
        raise NonPositiveLeadingForm("leading form attains <= 0 on the circle")
    lower_sum = sum(
        abs(c) for (i, j), c in p._ints.items() if i + j < d and not (i == j == 0 and c > 0)
    )
    return bound, Fraction(lower_sum, p._den), d


def _halves(coefficients: Sequence[int]) -> Tuple[List[int], List[int]]:
    """The Bernstein coefficients of one degree-d row on the lower and the
    upper half of its interval, each times 2^d: de Casteljau at t = 1/2
    with pairwise sums, level k holding 2^k times de Casteljau's values."""
    d = len(coefficients) - 1
    row, lower, upper = coefficients, [], []
    for k in range(d + 1):
        lower.append(row[0] << d - k)
        upper.append(row[-1] << d - k)
        row = [a + b for a, b in zip(row, row[1:])]
    return lower, upper[::-1]


class _BoxTree:
    """The branch-and-bound boxes of one polynomial f, each bounded once.

    The leading form handles everything outside f's integer cutoff radius
    R; the square [-R, R]^2 is covered by bisection. A box at depth k is
    column i, row j of the square after s = ceil(k/2) x-splits and
    floor(k/2) y-splits: bisecting the wider side, x on ties, alternates x
    and y from a square.

    A box is one integer grid G: L^2 * D * 2^(k*d) times f's tensor
    Bernstein coefficients on it, D the denominator of f and L the lcm of
    the C(d, k). The root's is M^T * A * M, A_ij = c_ij * R^(i+j) and
    M = L * (the Bernstein coefficients of u^i on [-1, 1]); `split` makes
    a child's from its parent's by `_halves` of every row and a transpose,
    so rows run along the next split axis. G's least entry bounds f on the
    box, its corner entries are f at the box corners, and the memo keeps
    both on the common scale D * 2^(s*d). The Bernstein coefficients of
    f + k are f's plus k, so `traverse` decides any offset k from the memo.
    """

    def __init__(self, f: BivariatePoly):
        self.bound, lower_sum, _ = leading_dominance(f)
        self.radius = r = math.ceil(max(Fraction(1), lower_sum / self.bound)) + 1
        self.denominator = f._den  # f = f._ints / denominator
        self.degree = d = int(f.degree)
        # row i of M times R^i, from u^i = (t - (1-t))^i * ((1-t) + t)^(d-i), u = 2t - 1
        lcm = math.lcm(*(math.comb(d, k) for k in range(d + 1)))
        self.lcm_squared = lcm * lcm
        m = [
            [
                r**i * lcm // math.comb(d, k)
                * sum((-1) ** (i - n) * math.comb(i, n) * math.comb(d - i, k - n) for n in range(min(i, k) + 1))
                for k in range(d + 1)
            ]
            for i in range(d + 1)
        ]
        # M^T * A * M transposed: the root's rows run along x, the first split axis
        terms, span = f._ints.items(), range(d + 1)
        root = [[sum(c * m[i][k] * m[j][l] for (i, j), c in terms) for k in span] for l in span]
        self.grids = {(0, 0, 0): root}  # (column, row, depth) -> G, until the box is halved
        self.boxes: dict = {}  # (column, row, depth) -> (lower, corner, sx, sy)

    def geometry(self, i: int, j: int, depth: int) -> Tuple[int, int, int, int]:
        """(s, px, qy, hy): in units of 1/2^s, s = ceil(depth/2) x-splits,
        the box has centre (px, qy) and half-widths (R, hy); y-splits lag
        by depth % 2."""
        s, odd = (depth + 1) // 2, depth % 2
        r = self.radius
        px = r * (2 * i + 1 - (1 << s))
        qy = r * (2 * j + 1 - (1 << (s - odd))) << odd
        return s, px, qy, r << odd

    def split(self, i: int, j: int, depth: int) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
        """The box's two halves in walk order, lower or left first. Its first
        split hands its grid to both halves; a later one only names them."""
        odd = depth % 2  # an odd-depth box splits y
        lower = (i << 1 - odd, j << odd, depth + 1)
        upper = (lower[0] + 1 - odd, lower[1] + odd, depth + 1)
        grid = self.grids.pop((i, j, depth), None)
        if grid is not None:
            rows = zip(*map(_halves, grid))  # (lower rows, upper rows)
            self.grids[lower], self.grids[upper] = (list(zip(*half)) for half in rows)
        return lower, upper

    def bounds(self, i: int, j: int, depth: int) -> Tuple[int, int, int, int]:
        """(lower, corner, sx, sy) on the scale D * 2^(s*d): the floor of f's
        least Bernstein coefficient on the box, f at its least corner, and
        that corner's side in x and y, read off the grid `split` left."""
        grid = self.grids[i, j, depth]
        first, last = grid[0], grid[-1]
        # (value, side across the rows, side along them)
        corner, a, b = min((first[0], -1, -1), (first[-1], -1, 1), (last[0], 1, -1), (last[-1], 1, 1))
        scale = self.lcm_squared << depth // 2 * self.degree
        # rows run along the box's split axis, x at even depth
        return (min(map(min, grid)) // scale, corner // scale) + ((a, b) if depth % 2 else (b, a))

    def traverse(self, offset: Fraction, depth_limit: int) -> Optional[PositivityRefutation]:
        """Branch-and-bound for f + offset depth first, visiting the halves
        of a box in the order `split` returns them.

        Returns None when every box is certified, or a refutation at the
        least corner of the first box with a corner where f + offset <= 0.
        Raises Inconclusive past the depth limit. Only the memo records
        which boxes it bounded.
        """
        boxes, d = self.boxes, self.degree
        b = offset.denominator
        shift = offset.numerator * self.denominator
        stack = [(0, 0, 0)]
        while stack:
            box = stack.pop()
            i, j, depth = box
            known = boxes.get(box)
            if known is None:
                known = boxes[box] = self.bounds(i, j, depth)
            lower, corner, sx, sy = known
            k = shift << (depth + 1) // 2 * d  # b * offset on the box's scale
            if corner * b + k <= 0:
                s, px, qy, hy = self.geometry(i, j, depth)
                point = (Fraction(px + sx * self.radius, 1 << s), Fraction(qy + sy * hy, 1 << s))
                return PositivityRefutation(point, Fraction(corner * b + k, b * self.denominator << s * d))
            if lower * b + k > 0:
                continue
            if depth >= depth_limit:
                raise Inconclusive(depth_limit)
            stack.extend(reversed(self.split(i, j, depth)))
        return None


def _certificate(tree: _BoxTree) -> PositivityCertificate:
    """The certificate of f > 0, f the tree's polynomial, in canonical
    order. Precondition: one walk of the fresh tree at offset 0 has just
    certified f, so the memo holds that walk's boxes: the cells are those
    with lower > 0, every other box was split, the deepest is a cell."""
    # sort on the integer corners over the common 2^top, then build each
    # cell's Fractions once
    max_depth_used = max(depth for _, _, depth in tree.boxes)
    top = (max_depth_used + 1) // 2
    radius, d = tree.radius, tree.degree
    keyed = []
    for (i, j, depth), (lower, *_) in tree.boxes.items():
        if lower > 0:
            s, px, qy, hy = tree.geometry(i, j, depth)
            corners = tuple(v << (top - s) for v in (px - radius, px + radius, qy - hy, qy + hy))
            keyed.append((corners, Fraction(lower, tree.denominator << s * d)))
    keyed.sort(key=lambda cell: cell[0])
    certified = tuple(
        CertifiedCell(tuple(Fraction(v, 1 << top) for v in corners), lower)
        for corners, lower in keyed
    )
    return PositivityCertificate(tree.bound, Fraction(radius), certified, max_depth_used)


def global_positivity(w: BivariatePoly, max_depth: int = DEFAULT_MAX_DEPTH) -> PositivityOutcome:
    """Certify w > 0 on the whole plane, or produce a refuting point.

    The origin comes first: w(0,0) <= 0 is refuted there, whatever w's
    leading form, and a positive constant is certified with no cells. An
    odd leading form is nonzero at one of (1, t), t = 0..D, and negative
    at that point or its negative v; w is refuted at the first 2^k * v
    where w <= 0. Otherwise the leading form must dominate outside the
    cutoff radius R (NonPositiveLeadingForm when it cannot), and [-R, R]^2
    is covered by bisection with exact Bernstein bounds on a fresh tree of
    w, walked at offset 0: refuted at the first box corner where w <= 0,
    certified when every leaf box has a positive bound. A positive
    constant term is left out of the tail sum, so R is that of
    w - w(0,0), the tree `min_positive_constant` walks.
    """
    w0 = w.coefficient(0, 0)
    if w0 <= 0:
        return PositivityRefutation((Fraction(0), Fraction(0)), w0)
    if w.degree % 2:
        lead = w.leading_form()
        sections = ((t, lead.evaluate(1, t)) for t in range(int(w.degree) + 1))
        t, value = next((t, v) for t, v in sections if v)
        point = (Fraction(1), Fraction(t)) if value < 0 else (Fraction(-1), Fraction(-t))
        while (value := w.evaluate(*point)) > 0:
            point = (2 * point[0], 2 * point[1])
        return PositivityRefutation(point, value)
    if w.degree == 0:
        return PositivityCertificate(w0, Fraction(0), (), 0)
    tree = _BoxTree(w)
    refutation = tree.traverse(Fraction(0), max_depth)
    return _certificate(tree) if refutation is None else refutation


def min_positive_constant(
    f: BivariatePoly,
    max_depth: int = DEFAULT_MAX_DEPTH,
    square: Optional[Tuple[BivariatePoly, BivariatePoly]] = None,
) -> Fraction:
    """The smallest power of two C in [REFINE_FLOOR, DOUBLING_CAP] that
    makes W = F + C certifiably positive; raising the offset never undoes
    a certification, so a walk over the powers of two finds it. C is
    returned only when F + C is certified, so a caller has W > 0 from C.

    Certifiably means by the two-square identity or by the box tree. When
    the hint square = (p, q) verifies as `two_squares(f, p, q)` with
    F(0,0) = 0, then F >= 0 and every c > 0 certifies: C is REFINE_FLOOR
    at every depth limit and no box is bounded. A hint that does not
    verify, or verifies with F(0,0) != 0, leaves the search to the box
    tree exactly as without one.

    The walk probes c = 1 first. If it certifies, halves while
    c > REFINE_FLOOR and c/2 certifies; otherwise doubles until a probe
    certifies, raising Inconclusive once c passes DOUBLING_CAP. A probe
    that is refuted or comes back Inconclusive counts as not certifiable
    at the depth limit. Every probe walks the tree of G = F - F(0,0) at
    offset c + F(0,0), which decides F + c exactly as
    `global_positivity(F + c, max_depth)` does. Building the tree raises
    NonPositiveLeadingForm when no constant can work.
    """
    if f.degree <= 0:
        raise ValueError("needs a nonconstant polynomial")
    if square is not None:
        proof = two_squares(f, *square)
        if proof is not None and proof.floor == 0:
            return REFINE_FLOOR
    f0 = f.coefficient(0, 0)
    tree = _BoxTree(f - BivariatePoly.constant(f0))

    def certifies(c: Fraction) -> bool:
        try:
            return tree.traverse(c + f0, max_depth) is None
        except Inconclusive:
            return False

    c = Fraction(1)
    certified = certifies(c)
    while certified and c > REFINE_FLOOR and certifies(c / 2):
        c = c / 2
    while not certified:
        c *= 2
        if c > DOUBLING_CAP:
            raise Inconclusive(max_depth, f"no certifiable constant up to {DOUBLING_CAP}")
        certified = certifies(c)
    return c
