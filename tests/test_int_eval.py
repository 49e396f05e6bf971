"""The cleared-integer evaluation kernel against Fraction-loop references.

`BivariatePoly.evaluate` and `RationalFn.values_at` evaluate on integers,
and `numeric_residual` and `moutardkit sample` read `values_at`; the
references below are the term-by-term `Fraction` evaluation and the
`Fraction` stencil they replaced.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from moutardkit.errors import PoleTooClose
from moutardkit.gallery import get_example
from moutardkit.numeric import numeric_residual, uniform_grid
from moutardkit.polynomials import BivariatePoly, RationalFn

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moutardkit"
X, Y = BivariatePoly.variables()
ONE = BivariatePoly.constant(1)
REF = get_example(1).reference


def fraction_loop_evaluate(p: BivariatePoly, x0, y0) -> Fraction:
    """Reference value: one Fraction product and sum per term."""
    xv, yv = Fraction(x0), Fraction(y0)
    xpow = {0: Fraction(1)}
    ypow = {0: Fraction(1)}
    total = Fraction(0)
    for (i, j), c in p.items():
        if i not in xpow:
            xpow[i] = xv**i
        if j not in ypow:
            ypow[j] = yv**j
        total += c * xpow[i] * ypow[j]
    return total


def fraction_stencil_residual(u: RationalFn, psi: RationalFn, grid, h) -> float:
    """Reference residual: the Fraction stencil that `numeric_residual` replaced.

    Its values come from `BivariatePoly.evaluate`, which `TestEvaluate`
    checks against `fraction_loop_evaluate`; the combination is all Fractions.
    """
    step = Fraction(h)
    worst = Fraction(0)
    for point in grid:
        x0, y0 = point
        pts = ((x0, y0), (x0 + step, y0), (x0 - step, y0), (x0, y0 + step), (x0, y0 - step))
        dens = {"u": [], "psi": []}
        for px, py in pts:
            for name, fn in (("u", u), ("psi", psi)):
                value = fn.den.evaluate(px, py)
                if value == 0:
                    raise PoleTooClose(f"{name} denominator vanishes at ({px}, {py})")
                dens[name].append(value)
        for name, values in dens.items():
            if len({value > 0 for value in values}) > 1:
                raise PoleTooClose(f"{name} denominator changes sign inside a stencil")
        center, east, west, north, south = (
            psi.num.evaluate(px, py) / den for (px, py), den in zip(pts, dens["psi"])
        )
        lap_h = (east + west + north + south - 4 * center) / (step * step)
        residual = abs(-lap_h + u.num.evaluate(*point) / dens["u"][0] * center)
        if residual > worst:
            worst = residual
    return float(worst)


def poly_strategy(coeffs, max_exponent=9, max_size=8):
    exponent = st.integers(min_value=0, max_value=max_exponent)
    return st.dictionaries(st.tuples(exponent, exponent), coeffs, max_size=max_size).map(
        BivariatePoly
    )


big = 2**64
fractions = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
any_poly = st.one_of(
    poly_strategy(st.integers(min_value=-9, max_value=9)),
    poly_strategy(fractions),
    poly_strategy(st.integers(min_value=-big, max_value=big)),
    st.fractions(max_denominator=50).map(BivariatePoly.constant),  # zero included
    # y-free
    st.dictionaries(st.integers(0, 12), fractions, max_size=6).map(
        lambda terms: BivariatePoly({(i, 0): c for i, c in terms.items()})
    ),
)
coordinate = st.one_of(
    st.integers(min_value=-big, max_value=big).map(Fraction),
    st.fractions(min_value=-100, max_value=100, max_denominator=big),
    st.fractions(max_denominator=12),
)


class TestEvaluate:
    @settings(max_examples=150, deadline=None)
    @given(any_poly, coordinate, coordinate)
    def test_matches_fraction_loop(self, p, x0, y0):
        assert p.evaluate(x0, y0) == fraction_loop_evaluate(p, x0, y0)

    def test_zero_and_constant(self):
        assert BivariatePoly.zero().evaluate(Fraction(-3, 7), 5) == 0
        minus_two_thirds = BivariatePoly.constant(Fraction(-2, 3))
        assert minus_two_thirds.evaluate(9, Fraction(1, 2**64)) == Fraction(-2, 3)

    def test_int_and_string_coordinates(self):
        p = X * X * Y.scale(Fraction(1, 3)) - Y + ONE
        assert p.evaluate(-2, "1/2") == fraction_loop_evaluate(p, -2, Fraction(1, 2))

    @settings(max_examples=75, deadline=None)
    @given(any_poly, any_poly, st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=5))
    def test_values_at_keeps_value_and_denominator_sign(self, num, den, points):
        if den.is_zero:
            return
        # a pole of den at the first point
        den = den * (X - BivariatePoly.constant(points[0][0]))
        pairs = RationalFn(num, den).values_at(points)
        assert len(pairs) == len(points) and pairs[0][1] == 0
        scales = set()
        for (x0, y0), (n, d) in zip(points, pairs):
            den_value = fraction_loop_evaluate(den, x0, y0)
            assert (d > 0, d < 0) == (den_value > 0, den_value < 0)
            if den_value:
                assert Fraction(n, d) == fraction_loop_evaluate(num, x0, y0) / den_value
                scales.add(Fraction(d) / den_value)
        # one common denominator: every D is den's value times the same factor
        assert len(scales) <= 1

    def test_values_at_accepts_ints_and_strings(self):
        fn = RationalFn(X * X - Y.scale(Fraction(1, 3)), X - ONE)
        pairs = fn.values_at([(2, "1/2"), ("1", 0), (Fraction(-1, 4), -3)])
        assert [Fraction(n, d) if d else None for n, d in pairs] == [
            Fraction(23, 6), None, Fraction(-17, 20)
        ]


def test_only_polynomials_reads_the_integer_kernel():
    # the cleared-integer format has one owner: other modules import no
    # private name of polynomials and reach the kernel through values_at
    for path in PACKAGE.glob("*.py"):
        if path.stem == "polynomials":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "polynomials":
                assert not [alias.name for alias in node.names if alias.name.startswith("_")], path.name
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            assert name not in ("_int_eval", "_integer_point"), path.name


def oracle_box(seed):
    """The oracle grid's box that the benchmark draws for `seed`."""
    rng = random.Random(f"paper-examples:{seed}")
    x_lo = Fraction(rng.randint(-40, 0), 10)
    y_lo = Fraction(rng.randint(-40, 0), 10)
    x_hi = x_lo + Fraction(rng.randint(10, 40), 10)
    y_hi = y_lo + Fraction(rng.randint(10, 40), 10)
    return x_lo, x_hi, y_lo, y_hi


class TestResidual:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_fraction_stencil_on_oracle_grids(self, seed):
        grid = uniform_grid(*oracle_box(seed), 9)
        for h in (Fraction(1, 100), Fraction(1, 200), Fraction(1, 1000)):
            expected = fraction_stencil_residual(REF.u, REF.psi1, grid, h)
            assert numeric_residual(REF.u, REF.psi1, grid, h) == expected

    def test_matches_on_integer_grid_points(self):
        grid = [(1, -2), (0, 0), (Fraction(7, 3), 4)]
        h = Fraction(1, 7)
        expected = fraction_stencil_residual(REF.u, REF.psi2, grid, h)
        assert numeric_residual(REF.u, REF.psi2, grid, h) == expected

    @pytest.mark.parametrize(
        "point,h",
        [
            ((Fraction(1, 3), Fraction(2, 7)), Fraction(1, 10)),  # pole at the centre
            ((Fraction(7, 30), Fraction(-1, 5)), Fraction(1, 10)),  # at the east point
            ((Fraction(1, 3), Fraction(0)), Fraction(1, 2**64)),
            ((Fraction(1, 3) + Fraction(1, 200), Fraction(0)), Fraction(1, 100)),  # straddled
        ],
    )
    @pytest.mark.parametrize("side", ["u", "psi", "both"])
    def test_pole_messages_match(self, point, h, side):
        pole = RationalFn(ONE, X - BivariatePoly.constant(Fraction(1, 3)))
        u = pole if side != "psi" else RationalFn.zero()
        psi = pole if side != "u" else RationalFn(ONE + X * Y)
        with pytest.raises(PoleTooClose) as expected:
            fraction_stencil_residual(u, psi, [point], h)
        with pytest.raises(PoleTooClose) as got:
            numeric_residual(u, psi, [point], h)
        assert str(got.value) == str(expected.value)
        assert str(expected.value).startswith("psi" if side == "psi" else "u")
