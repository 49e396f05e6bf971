"""Exact global-positivity certification for bivariate polynomials.

Everything here is decided with rational arithmetic: the leading form is
bounded on the unit circle through Sturm sequences, the leading term's
dominance radius comes from a coefficient-sum tail bound, and the inside
of the disk is covered by branch-and-bound with centered-form interval
bounds. The branch-and-bound runs on integers: boxes are dyadic cells of
the root square and their bounds integers on a common scale, so
`Fraction`s are built only for the cells and points it reports.
`Inconclusive` is an explicit outcome, never treated as positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import Inconclusive, NonPositiveLeadingForm, NotHomogeneous, OddDegree
from .polynomials import BivariatePoly
from .serialization import fraction_to_obj, obj_to_fraction
from .sturm import is_positive_everywhere

DEFAULT_MAX_DEPTH = 40

Box = Tuple[Fraction, Fraction, Fraction, Fraction]  # (x_lo, x_hi, y_lo, y_hi)


@dataclass(frozen=True)
class CertifiedCell:
    box: Box
    lower_bound: Fraction


@dataclass(frozen=True)
class PositivityCertificate:
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


@dataclass(frozen=True)
class PositivityRefutation:
    """An exact rational point where the polynomial is <= 0."""

    point: Tuple[Fraction, Fraction]
    value: Fraction

    def to_obj(self) -> dict:
        return {
            "point": [fraction_to_obj(self.point[0]), fraction_to_obj(self.point[1])],
            "value": fraction_to_obj(self.value),
        }


PositivityOutcome = Union[PositivityCertificate, PositivityRefutation]


def _circle_section(p: BivariatePoly) -> BivariatePoly:
    """q(t) = p(1, t) for a homogeneous p, as a y-free polynomial in t.

    On the form this captures the x != 0 directions; homogeneity makes the
    exponent j determine the term, so no two terms land on the same power.
    """
    return BivariatePoly({(j, 0): c for (_, j), c in p.items()})


def leading_form_positive(p: BivariatePoly) -> Optional[Fraction]:
    """An exact positive lower bound of a homogeneous form on the unit circle.

    Returns None when the form attains a value <= 0 there. The test uses
    the section q(t) = p(1, t): positivity on the circle is equivalent to
    p(0,1) > 0 plus q root-free and positive. The bound c is certified by
    showing q - c*(1+t^2)^(d/2) is root-free, halving c until that holds.
    """
    if p.is_zero:
        raise NotHomogeneous("zero polynomial has no circle bound")
    if not p.is_homogeneous():
        raise NotHomogeneous("leading_form_positive needs a homogeneous form")
    d = int(p.degree)
    if d % 2:
        raise OddDegree("odd-degree forms change sign on the circle")
    if d == 0:
        c = p.coefficient(0, 0)
        return c if c > 0 else None
    a0 = p.coefficient(0, d)  # value at (0, +-1)
    if a0 <= 0:
        return None
    q = _circle_section(p)
    if not is_positive_everywhere(q):
        return None
    power = BivariatePoly({(0, 0): 1, (2, 0): 1}) ** (d // 2)
    c = min(a0, q.coefficient(0, 0))
    while True:
        g = q - power.scale(c)
        if g.is_zero:
            # p is exactly c*(x^2+y^2)^(d/2); c is the exact minimum
            return c
        if is_positive_everywhere(g):
            return c
        c = c / 2


def leading_dominance(p: BivariatePoly) -> Tuple[Fraction, Fraction, int]:
    """(circle bound m of the leading form, |coeff| sum S of the lower part,
    total degree D); then p >= m*r^D - S*r^(D-1) for r >= 1.

    A nonnegative constant term only helps and is left out of S.
    Raises NonPositiveLeadingForm when no such m exists.
    """
    lead = p.leading_form()
    try:
        bound = leading_form_positive(lead)
    except OddDegree as exc:
        raise NonPositiveLeadingForm(str(exc)) from exc
    if bound is None:
        raise NonPositiveLeadingForm("leading form attains <= 0 on the circle")
    rest = p - lead
    lower_sum = Fraction(0)
    for (i, j), c in rest.items():
        if (i, j) == (0, 0) and c > 0:
            continue
        lower_sum += abs(c)
    return bound, lower_sum, int(p.degree)


class _BoxBounder:
    """Centered-form bounds for one polynomial over dyadic boxes, in integers.

    The polynomial is cleared once to integer coefficients over one common
    denominator D. A box is given by its center (px/2^s, qy/2^s) and
    half-widths (hx/2^s, hy/2^s), all integers over the same power of two.
    Its Taylor coefficients b_ij at the center, scaled by 2^(s*(d-i-j)),
    are integers obtained by integer Horner shifts, so on the common scale
    D * 2^(s*d) both the center value and the spread

        sum |b_ij| * hx^i * hy^j     over (i, j) != (0, 0)

    are integers; center - spread is the centered-form lower bound.
    """

    def __init__(self, w: BivariatePoly):
        ints, scale = w._cleared()
        self.denominator = scale.denominator  # w = ints / denominator
        self.degree = int(w.degree)
        self.nx = max(i for i, _ in ints) + 1
        self.ny = max(j for _, j in ints) + 1
        self.grid = [[0] * self.ny for _ in range(self.nx)]
        for (i, j), c in ints.items():
            self.grid[i][j] = c

    def bounds(self, px: int, qy: int, hx: int, hy: int, s: int) -> Tuple[int, int]:
        """(center, spread) of the polynomial on the box, both scaled by
        D * 2^(s*d): the center value and the lower bound are
        `value(center, s)` and `value(center - spread, s)`."""
        nx, ny, d = self.nx, self.ny, self.degree
        # pre-scale entry (i, j) by 2^(s*(d-i-j)) so integer shifts by (px, qy)
        # land on the scaled Taylor coefficients; cells beyond the total
        # degree are structurally zero
        grid = [
            [
                self.grid[i][j] << (s * (d - i - j)) if i + j <= d else 0
                for j in range(ny)
            ]
            for i in range(nx)
        ]
        if px:
            for k in range(nx - 1):
                for i in range(nx - 2, k - 1, -1):
                    row, nxt = grid[i], grid[i + 1]
                    for j in range(ny):
                        row[j] += px * nxt[j]
        if qy:
            for k in range(ny - 1):
                for j in range(ny - 2, k - 1, -1):
                    for i in range(nx):
                        grid[i][j] += qy * grid[i][j + 1]
        spread = 0
        hx_pow = [1]
        for _ in range(nx - 1):
            hx_pow.append(hx_pow[-1] * hx)
        hy_pow = [1]
        for _ in range(ny - 1):
            hy_pow.append(hy_pow[-1] * hy)
        for i in range(nx):
            row = grid[i]
            for j in range(ny):
                if i == 0 and j == 0:
                    continue
                b = row[j]
                if b:
                    spread += abs(b) * hx_pow[i] * hy_pow[j]
        return grid[0][0], spread

    def value(self, scaled: int, s: int) -> Fraction:
        """The exact rational behind an integer on the scale of `bounds`."""
        return Fraction(scaled, self.denominator << (s * self.degree))


def global_positivity(
    w: BivariatePoly, max_depth: Optional[int] = None
) -> PositivityOutcome:
    """Certify w > 0 on the whole plane, or produce a refuting point.

    The leading form handles everything outside the integer cutoff radius
    R; the square [-R, R]^2 is covered by bisection with exact
    centered-form bounds. A box at depth k is column i, row j of the
    square after ceil(k/2) x-splits and floor(k/2) y-splits: bisecting the
    wider side, x on ties, alternates x and y from a square. Boxes stay
    integers until a cell or a refuting point is emitted. Cells are
    returned in canonical order so the certificate is independent of the
    processing schedule.
    """
    if w.is_zero:
        return PositivityRefutation((Fraction(0), Fraction(0)), Fraction(0))
    depth_limit = DEFAULT_MAX_DEPTH if max_depth is None else max_depth
    if w.degree == 0:
        c = w.coefficient(0, 0)
        if c <= 0:
            return PositivityRefutation((Fraction(0), Fraction(0)), c)
        return PositivityCertificate(c, Fraction(0), (), 0)
    bound, lower_sum, _ = leading_dominance(w)
    radius = math.ceil(max(Fraction(1), lower_sum / bound)) + 1
    bounder = _BoxBounder(w)
    cells: list[CertifiedCell] = []
    max_depth_used = 0
    stack: list[Tuple[int, int, int]] = [(0, 0, 0)]  # (column, row, depth)
    while stack:
        i, j, depth = stack.pop()
        max_depth_used = max(max_depth_used, depth)
        # in units of 1/2^s, s = ceil(depth/2) x-splits, the box has centre
        # (px, qy) and half-widths (radius, hy); y-splits lag by depth % 2
        s, odd = (depth + 1) // 2, depth % 2
        px = radius * (2 * i + 1 - (1 << s))
        qy = radius * (2 * j + 1 - (1 << (s - odd))) << odd
        hy = radius << odd
        center, spread = bounder.bounds(px, qy, radius, hy, s)
        if center <= 0:
            point = (Fraction(px, 1 << s), Fraction(qy, 1 << s))
            return PositivityRefutation(point, bounder.value(center, s))
        if center > spread:
            corners = (px - radius, px + radius, qy - hy, qy + hy)
            box = tuple(Fraction(v, 1 << s) for v in corners)
            cells.append(CertifiedCell(box, bounder.value(center - spread, s)))
            continue
        if depth >= depth_limit:
            raise Inconclusive(depth_limit)
        if odd:
            stack.append((i, 2 * j + 1, depth + 1))
            stack.append((i, 2 * j, depth + 1))
        else:
            stack.append((2 * i + 1, j, depth + 1))
            stack.append((2 * i, j, depth + 1))
    cells.sort(key=lambda cell: cell.box)
    return PositivityCertificate(bound, Fraction(radius), tuple(cells), max_depth_used)
