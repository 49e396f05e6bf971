"""Exact positivity certification: circle bounds, certificates, refutations."""

import json
import random
from fractions import Fraction
from math import comb, floor, lcm
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from moutardkit import positivity, search, serialization, sturm
from moutardkit.construct import transform_family
from moutardkit.errors import Inconclusive, NonPositiveLeadingForm
from moutardkit.gallery import get_example
from moutardkit.harmonic import conjugate
from moutardkit.polynomials import BivariatePoly
from moutardkit.positivity import (
    DEFAULT_MAX_DEPTH,
    CertifiedCell,
    PositivityCertificate,
    PositivityRefutation,
    TwoSquareProof,
    _BoxTree,
    global_positivity,
    leading_dominance,
    two_squares,
)

X, Y = BivariatePoly.variables()
R2 = X * X + Y * Y
W_REF = get_example(1).reference.w_poly
# F + C that `search` picks for its degree-2 pair of seed 5: cutoff radius 7,
# so its boxes are not powers of two wide
W_SEARCH = BivariatePoly(
    {
        (0, 0): 8, (2, 0): 3, (0, 2): 3,
        (3, 0): Fraction(55, 3), (2, 1): 20, (1, 2): -5, (0, 3): Fraction(50, 3),
        (4, 0): Fraction(25, 2), (2, 2): 25, (0, 4): Fraction(25, 2),
    }
)
CORPUS = Path(__file__).parent / "data" / "positivity"


def corpus_poly(name):
    """One polynomial of the hard-input corpus, read as `positivity --poly` reads it."""
    return serialization.obj_to_poly(json.loads((CORPUS / f"{name}.json").read_text(encoding="utf-8")))


# x^4 + 2y^4 + 1 - xy: its leading form is not radial, so the circle test
# runs Sturm chains
W_NONRADIAL = corpus_poly("nonradial_certified")
# zero only at points with no rational coordinates, so no box corner
# refutes and no box holding such a point is certified: Inconclusive at
# every depth limit
TOUCHING_ZERO = [corpus_poly(name) for name in ("touching_zero_nonradial", "zero_on_a_circle")]


def circle_bound(p):
    """The circle bound m of p's leading form, None when there is none."""
    try:
        return leading_dominance(p)[0]
    except NonPositiveLeadingForm:
        return None


def reference_circle_bound(lead, d):
    """The circle test with the radial case found inside the halving loop,
    after a Sturm test of the section q; `_circle_bound` must agree."""
    if d == 0:
        c = lead.coefficient(0, 0)
        return c if c > 0 else None
    a0 = lead.coefficient(0, d)
    if a0 <= 0:
        return None
    q = BivariatePoly({(j, 0): c for (_, j), c in lead.items()})
    if not sturm.is_positive_everywhere(q):
        return None
    power = BivariatePoly({(0, 0): 1, (2, 0): 1}) ** (d // 2)
    c = min(a0, q.coefficient(0, 0))
    while True:
        g = q - power.scale(c)
        if g.is_zero or sturm.is_positive_everywhere(g):
            return c
        c = c / 2


class TestLeadingFormPositive:
    def test_radial_quartic_block(self):
        assert circle_bound((R2 * R2).scale(17)) == 17

    def test_radial_quadratic(self):
        assert circle_bound(R2) == 1

    def test_sign_change_fails(self):
        assert circle_bound(X * X - Y * Y) is None

    def test_semidefinite_fails(self):
        assert circle_bound(X * X * Y * Y) is None
        # positive on the circle except at (0, +-1), where only a0 = 0 shows it
        assert circle_bound(X**4 + X * X * Y * Y) is None

    def test_negative_definite_fails(self):
        assert circle_bound(-R2) is None

    @pytest.mark.parametrize(
        "terms, bound",
        [
            ({(4, 0): 2, (2, 2): 1, (0, 4): 1}, Fraction(1, 2)),
            ({(2, 0): 3, (1, 1): 1, (0, 2): 1}, Fraction(1, 2)),
            ({(6, 0): 1, (0, 6): 1}, Fraction(1, 8)),
            ({(4, 0): 1, (3, 1): 1, (2, 2): 3, (0, 4): 2}, Fraction(1, 2)),
        ],
    )
    def test_positive_but_not_radial(self, terms, bound):
        # positive definite forms; each bound is the reference loop's
        p = BivariatePoly(terms)
        d = int(p.degree)
        assert circle_bound(p) == bound == reference_circle_bound(p, d)
        # bound must actually hold at sampled circle directions
        for t in (0, 1, -1, Fraction(1, 3), Fraction(-7, 2)):
            value = p.evaluate(1, t)
            norm = (1 + t * t) ** (d // 2)
            assert value >= bound * norm

    def test_odd_degree(self):
        with pytest.raises(NonPositiveLeadingForm, match="odd-degree"):
            leading_dominance(X * R2)

    def test_constant_form(self):
        assert circle_bound(BivariatePoly.constant(5)) == 5
        assert circle_bound(BivariatePoly.constant(-5)) is None

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([0, 2, 4, 6]),
        st.lists(st.integers(-3, 3), min_size=7, max_size=7),
        st.integers(-2, 2),
    )
    def test_circle_bound_agrees_with_the_reference(self, d, coeffs, mu):
        # a random form of degree d plus a multiple of (x^2 + y^2)^(d/2),
        # so radial forms and near-radial ones are both drawn
        form = BivariatePoly({(i, d - i): coeffs[i] for i in range(d + 1)})
        lead = form + (R2 ** (d // 2)).scale(mu)
        assume(not lead.is_zero)
        assert positivity._circle_bound(lead, d) == reference_circle_bound(lead, d)

    def test_radial_forms_build_no_sturm_chain(self, monkeypatch):
        chains = []
        count = sturm.count_real_roots
        monkeypatch.setattr(sturm, "count_real_roots", lambda p: chains.append(p) or count(p))
        # swapping the seeds flips the sign of each example's quadrature
        examples = [transform_family(get_example(k).seeds.swapped()) for k in (1, 2)]
        assert [circle_bound(p) for p in examples] == [Fraction(17, 8), 4]
        assert circle_bound((R2 * R2).scale(17)) == 17
        assert circle_bound(BivariatePoly.constant(5)) == 5
        assert chains == []


class TestLeadingDominance:
    def test_dominance_inequality_holds_at_sample_points(self):
        # W >= m*r^d - S*r^(d-1) for r >= 1; r^(d-1) is irrational at
        # rational points for even d, so check the squared consequence:
        # if W - m*r^d < 0 then (W - m*r^d)^2 <= S^2 * (r^2)^(d-1).
        m, s, d = leading_dominance(W_REF)
        assert d == 4
        rng = random.Random(7)
        for _ in range(60):
            px = Fraction(rng.randint(-900, 900), rng.randint(1, 30))
            py = Fraction(rng.randint(-900, 900), rng.randint(1, 30))
            r2 = px * px + py * py
            if r2 < 1:
                continue
            deficit = W_REF.evaluate(px, py) - m * r2 ** (d // 2)
            if deficit < 0:
                assert deficit * deficit <= s * s * r2 ** (d - 1)

    def test_indefinite_leading_form_raises(self):
        with pytest.raises(NonPositiveLeadingForm):
            leading_dominance(X * X - Y * Y + BivariatePoly.constant(50))


class TestGlobalPositivity:
    def test_reference_w_certified(self):
        outcome = global_positivity(W_REF)
        assert isinstance(outcome, PositivityCertificate)
        assert outcome.leading_form_min_bound == 17
        assert outcome.max_depth_used <= 40
        assert all(cell.lower_bound > 0 for cell in outcome.cells)

    def test_cells_tile_the_square(self):
        for w in (W_REF, W_SEARCH, W_NONRADIAL):
            cert = global_positivity(w)
            side = 2 * cert.cutoff_radius
            area = sum(
                (cell.box[1] - cell.box[0]) * (cell.box[3] - cell.box[2])
                for cell in cert.cells
            )
            assert area == side * side

    def test_cell_bounds_sound(self):
        rng = random.Random(99)
        for w in (W_REF, W_SEARCH, W_NONRADIAL):
            for cell in global_positivity(w).cells:
                x_lo, x_hi, y_lo, y_hi = cell.box
                for _ in range(3):
                    px = x_lo + (x_hi - x_lo) * Fraction(rng.randint(0, 64), 64)
                    py = y_lo + (y_hi - y_lo) * Fraction(rng.randint(0, 64), 64)
                    assert w.evaluate(px, py) >= cell.lower_bound

    def test_touching_zero_refuted(self):
        outcome = global_positivity(R2)
        assert isinstance(outcome, PositivityRefutation)
        assert outcome.point == (0, 0)
        assert outcome.value == 0

    def test_refuted_off_the_root_centre(self):
        # the first refuting box in depth-first order, several splits deep
        dx = X - BivariatePoly.constant(Fraction(5, 2))
        dy = Y - BivariatePoly.constant(Fraction(3, 2))
        p = dx * dx + dy * dy - BivariatePoly.constant(1)
        outcome = global_positivity(p)
        assert outcome == PositivityRefutation((Fraction(9, 4), Fraction(9, 4)), Fraction(-3, 8))
        assert p.evaluate(*outcome.point) == outcome.value

    def test_below_minimum_refuted(self):
        # the reference W has global minimum exactly 160
        outcome = global_positivity(W_REF - BivariatePoly.constant(161))
        assert isinstance(outcome, PositivityRefutation)
        assert outcome.value <= 0
        assert W_REF.evaluate(*outcome.point) - 161 == outcome.value

    def test_just_above_minimum_certified(self):
        outcome = global_positivity(W_REF - BivariatePoly.constant(159))
        assert isinstance(outcome, PositivityCertificate)

    def test_indefinite_leading_form(self):
        with pytest.raises(NonPositiveLeadingForm):
            global_positivity(X * X - Y * Y + BivariatePoly.constant(50))

    @pytest.mark.parametrize(
        "w",
        [-R2 - BivariatePoly.constant(1), X, X * X - Y * Y],
        ids=["-1-x^2-y^2", "x", "x^2-y^2"],
    )
    def test_refuted_at_the_origin_whatever_the_leading_form(self, w):
        expected = PositivityRefutation((Fraction(0), Fraction(0)), w.coefficient(0, 0))
        assert global_positivity(w) == expected

    def test_depth_limit_is_explicit(self):
        for w in TOUCHING_ZERO:
            for depth in (0, 7, 12):
                with pytest.raises(Inconclusive):
                    global_positivity(w, max_depth=depth)
        # W_REF first certifies at depth 3
        with pytest.raises(Inconclusive):
            global_positivity(W_REF, max_depth=2)
        assert global_positivity(W_REF, max_depth=3).max_depth_used == 3

    @pytest.mark.parametrize(
        "w,point,value",
        [
            (X**3 + Y * Y + BivariatePoly.constant(1), (-1, 0), 0),
            # -x^3 is negative at (1, 0): the walk goes along (1, 0)
            (X * Y * Y - X**3 + BivariatePoly.constant(5), (2, 0), -3),
            # y^3 is zero at (1, 0) and positive at (1, 1): along (-1, -1)
            (Y**3 + X * X + BivariatePoly.constant(1), (-2, -2), -3),
        ],
        ids=["x^3+y^2+1", "xy^2-x^3+5", "y^3+x^2+1"],
    )
    def test_odd_degree_refuted_along_a_direction(self, w, point, value, bounds_calls):
        expected = PositivityRefutation((Fraction(point[0]), Fraction(point[1])), Fraction(value))
        assert global_positivity(w) == expected
        assert bounds_calls[0] == 0
        with pytest.raises(NonPositiveLeadingForm, match="odd-degree"):
            positivity.min_positive_constant(w)

    def test_deterministic(self):
        a = global_positivity(W_REF)
        b = global_positivity(W_REF)
        assert a == b

    def test_positive_constant(self):
        outcome = global_positivity(BivariatePoly.constant(3))
        assert isinstance(outcome, PositivityCertificate)
        outcome = global_positivity(BivariatePoly.constant(-3))
        assert isinstance(outcome, PositivityRefutation)

    def test_certificate_roundtrip(self):
        cert = global_positivity(W_REF)
        assert PositivityCertificate.from_obj(cert.to_obj()) == cert


# the hard-input corpus at depth limit 40: outcome and _BoxTree.bounds calls
CORPUS_OUTCOMES = [
    # min 0 at (+-sqrt 2, 0), positive at every rational point; top x^4 + y^4
    ("touching_zero_nonradial", "Inconclusive", 70),
    # zero on x^2 + y^2 = 3, which has no rational point; radial top
    ("zero_on_a_circle", "Inconclusive", 70),
    # 10 cells, max depth 5
    ("nonradial_certified", (10, 5), 19),
    # negative along the negative x-axis: refuted at (-1, 0) with no box
    ("odd_degree", "refuted", 0),
    # F + 4 for the oriented degree-2 pair of search seed 7: negative
    # between box centres, refuted at the box corner (-3/4, 0)
    ("negative_between_centres", "refuted", 12),
]


@pytest.mark.parametrize(
    "name,outcome,calls", CORPUS_OUTCOMES, ids=[name for name, _, _ in CORPUS_OUTCOMES]
)
def test_corpus_outcomes(name, outcome, calls, bounds_calls):
    try:
        cert = global_positivity(corpus_poly(name), 40)
    except (Inconclusive, NonPositiveLeadingForm) as exc:
        found = type(exc).__name__
    else:
        found = "refuted" if isinstance(cert, PositivityRefutation) else (len(cert.cells), cert.max_depth_used)
    assert found == outcome
    assert bounds_calls[0] == calls


def bernstein_minimum(w, box):
    """The least tensor Bernstein coefficient of degree (D, D), D = deg w,
    of w on the box, by the textbook formula in Fractions; it shares no
    code with _BoxTree. With w(x_lo + (x_hi - x_lo)*s, y_lo + (y_hi - y_lo)*t)
    = sum a_ij s^i t^j on [0, 1]^2, the coefficients are
    b_kl = sum over i <= k, j <= l of C(k,i)C(l,j)/(C(D,i)C(D,j)) * a_ij."""
    x_lo, x_hi, y_lo, y_hi = box
    d = int(w.degree)
    a = {}
    for (m, n), c in w.items():
        for i in range(m + 1):
            for j in range(n + 1):
                term = c * comb(m, i) * x_lo ** (m - i) * (x_hi - x_lo) ** i
                term *= comb(n, j) * y_lo ** (n - j) * (y_hi - y_lo) ** j
                a[i, j] = a.get((i, j), 0) + term
    return min(
        sum(
            Fraction(comb(k, i) * comb(l, j), comb(d, i) * comb(d, j)) * a_ij
            for (i, j), a_ij in a.items()
            if i <= k and j <= l
        )
        for k in range(d + 1)
        for l in range(d + 1)
    )


def random_tree_poly(rng):
    """x^2d + y^2d plus random lower terms over small denominators, d = 1..3:
    a positive leading form, so _BoxTree accepts it."""
    d = rng.randint(1, 3)
    terms = {
        (i, n - i): Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
        for n in range(2 * d)
        for i in range(n + 1)
    }
    terms[2 * d, 0] = terms[0, 2 * d] = Fraction(1)
    return BivariatePoly(terms)


@pytest.mark.parametrize("seed", range(12))
def test_grid_corners_are_exact_values_and_its_least_entry_the_bernstein_minimum(seed):
    # a random path down the tree, bounding both halves of every split; on
    # each box, read both on the common scale D * 2^(s*d)
    rng = random.Random(seed)
    w = random_tree_poly(rng)
    tree = _BoxTree(w)
    d, box = tree.degree, (0, 0, 0)
    memo = {box: tree.bounds(*box)}
    for depth in range(9):
        s, px, qy, hy = tree.geometry(*box)
        scale = tree.denominator << s * d
        x_lo, x_hi = Fraction(px - tree.radius, 1 << s), Fraction(px + tree.radius, 1 << s)
        y_lo, y_hi = Fraction(qy - hy, 1 << s), Fraction(qy + hy, 1 << s)
        values = {
            (sx, sy): w.evaluate(x, y) * scale
            for sx, x in ((-1, x_lo), (1, x_hi))
            for sy, y in ((-1, y_lo), (1, y_hi))
        }
        grid = tree.grids[box]
        grid_scale = tree.lcm_squared << depth // 2 * d
        corners = [Fraction(row[k], grid_scale) for row in (grid[0], grid[-1]) for k in (0, -1)]
        assert sorted(corners) == sorted(values.values())
        lower, corner, sx, sy = memo[box]
        assert corner == values[sx, sy] == min(values.values())
        assert lower == floor(bernstein_minimum(w, (x_lo, x_hi, y_lo, y_hi)) * scale)
        halves = tree.split(*box)
        assert box not in tree.grids and tree.split(*box) == halves
        memo = {half: tree.bounds(*half) for half in halves}
        box = rng.choice(halves)


def reproved(w, certificate):
    """Every cell's claimed lower bound is at most w's Bernstein minimum there."""
    return all(cell.lower_bound <= bernstein_minimum(w, cell.box) for cell in certificate.cells)


def example_certificate(ident):
    report, certificate = search.verify_example_full(ident)
    return report.result.w_poly, certificate


CERTIFIED = {
    "example-1": lambda: example_certificate(1),
    "example-2": lambda: example_certificate(2),
    "W_REF": lambda: (W_REF, global_positivity(W_REF)),
    "W_SEARCH": lambda: (W_SEARCH, global_positivity(W_SEARCH)),
    "W_NONRADIAL": lambda: (W_NONRADIAL, global_positivity(W_NONRADIAL)),
}


@pytest.mark.parametrize("name", CERTIFIED)
def test_every_cell_is_reproved_by_the_textbook_bernstein_formula(name):
    w, certificate = CERTIFIED[name]()
    assert certificate.cells and reproved(w, certificate)
    # a bound raised just above one cell's exact minimum is rejected
    cell = certificate.cells[-1]
    raised = cell._replace(lower_bound=bernstein_minimum(w, cell.box) + Fraction(1, 2**64))
    assert not reproved(w, certificate._replace(cells=certificate.cells[:-1] + (raised,)))


def walk_outputs():
    """Both examples' certificates and two sweeps' records, as JSON objects."""
    certificates = [example_certificate(ident)[1].to_obj() for ident in (1, 2)]
    records = [[record.to_obj() for record in search.sweep(*args)] for args in ((3, 0, 6), (5, 1, 6))]
    return certificates, records


def test_the_walk_order_is_free(monkeypatch):
    # halves visited upper or right first: certifying walks visit the same
    # boxes, so certificates and constants hold, and every refutation is a
    # true one, read off the grid of its own box
    expected = walk_outputs()
    init, split, traverse = _BoxTree.__init__, _BoxTree.split, _BoxTree.traverse
    polynomials, refutations = {}, []

    def recording_init(self, f):
        init(self, f)
        polynomials[self] = f

    def recording_traverse(self, offset, depth_limit):
        refutation = traverse(self, offset, depth_limit)
        if refutation is not None:
            refutations.append((polynomials[self], offset, refutation))
        return refutation

    monkeypatch.setattr(_BoxTree, "split", lambda self, *box: split(self, *box)[::-1])
    monkeypatch.setattr(_BoxTree, "__init__", recording_init)
    monkeypatch.setattr(_BoxTree, "traverse", recording_traverse)
    assert walk_outputs() == expected
    refuted = [corpus_poly("negative_between_centres"), off_centre_disk()]
    for w in refuted:
        assert isinstance(global_positivity(w), PositivityRefutation)
    assert len(refutations) > len(refuted)
    for f, offset, refutation in refutations:
        assert f.evaluate(*refutation.point) + offset == refutation.value <= 0


def random_poly(rng, degree, bound, low=0):
    """Integer coefficients drawn from [-bound, bound] on total degrees low..degree."""
    return BivariatePoly(
        {(i, n - i): rng.randint(-bound, bound) for n in range(low, degree + 1) for i in range(n + 1)}
    )


def sum_of_squares_input(rng, bound=3, scale=1):
    """p^2 + q^2 + s*(x^(2d+2) + c*y^(2d+2) + r + k), d = 1..3, p and q with
    coefficients in [-bound, bound]: a non-radial top, so the circle test
    takes the Sturm path."""
    d = rng.randint(1, 3)
    p, q = random_poly(rng, d, bound), random_poly(rng, d, bound)
    top = X ** (2 * d + 2) + (Y ** (2 * d + 2)).scale(rng.randint(1, 3))
    rest = top + random_poly(rng, 2 * d + 1, 2) + BivariatePoly.constant(rng.randint(-3, 6))
    return p * p + q * q + rest.scale(scale)


def wide_coefficient_input(rng):
    """The sum-of-squares shape with coefficients up to about 2^20."""
    return sum_of_squares_input(rng, 2**10, 2**20)


def near_touching_input(rng):
    """s^2 + t^2 + 2^-k for independent linear s, t: minimum 2^-k at a
    rational point that is rarely dyadic."""
    while True:
        s, t = random_poly(rng, 1, 3), random_poly(rng, 1, 3)
        if s.coefficient(1, 0) * t.coefficient(0, 1) != s.coefficient(0, 1) * t.coefficient(1, 0):
            return s * s + t * t + BivariatePoly.constant(Fraction(1, 2 ** rng.randint(1, 40)))


def odd_degree_input(rng):
    """A sum-of-squares input plus a random form one degree higher."""
    w = sum_of_squares_input(rng)
    n = int(w.degree) + 1
    return w + random_poly(rng, n, 2, n) + X**n


def random_top_input(rng):
    """A random even top form, often indefinite, over a positive constant."""
    n = 2 * rng.randint(1, 3)
    return random_poly(rng, n, 3, n) + random_poly(rng, n - 1, 2) + BivariatePoly.constant(rng.randint(1, 6))


# about 110 seeded inputs of the shape of ROADMAP item 2
RANDOM_INPUTS = [
    (sum_of_squares_input, 56),
    (near_touching_input, 20),
    (odd_degree_input, 12),
    (random_top_input, 12),
    (wide_coefficient_input, 10),
]


def tiles(boxes, box):
    """Whether the boxes are the leaves of one bisection tree of box, all
    corners integers: a box of two or more leaves splits at an integer."""
    if len(boxes) <= 1:
        return boxes == [box]
    for axis in (0, 2):
        mid, odd = divmod(box[axis] + box[axis + 1], 2)
        if not odd and all(b[axis + 1] <= mid or b[axis] >= mid for b in boxes):
            lower, upper = list(box), list(box)
            lower[axis + 1] = upper[axis] = mid
            return tiles([b for b in boxes if b[axis + 1] <= mid], tuple(lower)) and tiles(
                [b for b in boxes if b[axis] >= mid], tuple(upper)
            )
    return False


def negative_on_the_eighth_grid(w):
    """Whether w <= 0 at a point of the grid (1/8)Z^2 on [-5, 5]^2, by exact
    integer evaluation of m * 8^D * w, m the lcm of w's denominators."""
    d, m = int(w.degree), lcm(*(c.denominator for _, c in w.items()))
    terms = [(i, j, int(c * m) * 8 ** (d - i - j)) for (i, j), c in w.items()]
    return any(
        sum(c * a**i * b**j for i, j, c in terms) <= 0 for a in range(-40, 41) for b in range(-40, 41)
    )


def sympy_finds_the_leading_form_nonpositive(w):
    """lead(0, 1) <= 0, or the section lead(1, t) has a real root or a
    value <= 0, by sympy on w's top-degree terms."""
    x, y, t = sp.symbols("x y t")
    poly = sp.Poly(sum(sp.Rational(c.numerator, c.denominator) * x**i * y**j for (i, j), c in w.items()), x, y)
    n = poly.total_degree()
    lead = sum(c * x**i * y**j for (i, j), c in poly.terms() if i + j == n)
    section = sp.Poly(lead.subs({x: 1, y: t}), t)
    return lead.subs({x: 0, y: 1}) <= 0 or section.count_roots() > 0 or section.eval(0) <= 0


def test_random_inputs_are_decided_soundly():
    # each verdict checked by a route that shares no code with the prover;
    # one cell per certificate, its least bound, is re-proved (every cell
    # would take seconds)
    rng = random.Random(0)
    verdicts = set()
    for draw, count in RANDOM_INPUTS:
        for _ in range(count):
            w = draw(rng)
            try:
                outcome = global_positivity(w, DEFAULT_MAX_DEPTH)
            except Inconclusive:
                verdicts.add("Inconclusive")
                assert not negative_on_the_eighth_grid(w)
            except NonPositiveLeadingForm:
                verdicts.add("NonPositiveLeadingForm")
                assert sympy_finds_the_leading_form_nonpositive(w)
            else:
                if isinstance(outcome, PositivityRefutation):
                    verdicts.add("refuted")
                    assert w.evaluate(*outcome.point) == outcome.value <= 0
                    continue
                verdicts.add("certified")
                # on integers: the corners are dyadic, the radius an integer
                m = max(v.denominator for cell in outcome.cells for v in cell.box)
                r = int(outcome.cutoff_radius * m)
                assert tiles([tuple(int(v * m) for v in cell.box) for cell in outcome.cells], (-r, r, -r, r))
                least = min(outcome.cells, key=lambda cell: cell.lower_bound)
                assert reproved(w, outcome._replace(cells=(least,)))
                assert global_positivity(w, DEFAULT_MAX_DEPTH + 1) == outcome
    # every check above ran
    assert verdicts == {"certified", "refuted", "Inconclusive", "NonPositiveLeadingForm"}


def conjugate_hint(omega):
    return omega, conjugate(omega)


# (degree, seed) of search._draw_pair pairs of conjugate type,
# omega2 = conj(omega1) + t*omega1, and of generic type
CONJUGATE_TYPE_PAIRS = [(2, 0), (2, 3), (2, 4), (3, 0), (3, 1), (3, 5)]
GENERIC_PAIRS = [(2, 1), (2, 5), (3, 4)]


def oriented_pair(degree, seed):
    return search.orient_for_positivity(search._draw_pair(random.Random(seed), degree, 5))


class TestTwoSquares:
    @pytest.mark.parametrize("ident", [1, 2])
    def test_accepts_the_paper_examples(self, ident):
        oriented, f = search.orient_for_positivity(get_example(ident).seeds)
        p, q = conjugate_hint(oriented.omega1)
        proof = two_squares(f, p, q)
        assert proof is not None and proof.mu > 0 and proof.floor == 0
        assert f == (p * p + q * q).scale(proof.mu)

    @pytest.mark.parametrize("degree,seed", CONJUGATE_TYPE_PAIRS)
    def test_accepts_conjugate_type_pairs_with_either_seed_as_the_hint(self, degree, seed):
        # a hint from omega1 or from omega2, whichever orientation search picks
        pair = search._draw_pair(random.Random(seed), degree, 5)
        _, f = search.orient_for_positivity(pair)
        for omega in (pair.omega1, pair.omega2):
            proof = two_squares(f, *conjugate_hint(omega))
            assert proof is not None and proof.mu > 0 and proof.floor == 0

    @pytest.mark.parametrize("degree,seed", GENERIC_PAIRS)
    def test_rejects_a_generic_pair(self, degree, seed):
        oriented, f = oriented_pair(degree, seed)
        for omega in (oriented.omega1, oriented.omega2):
            assert two_squares(f, *conjugate_hint(omega)) is None

    def test_rejects_a_negative_multiple(self):
        oriented, f = oriented_pair(3, 0)
        assert two_squares(-f, *conjugate_hint(oriented.omega1)) is None

    def test_rejects_a_second_square_that_is_not_the_conjugate(self):
        oriented, f = oriented_pair(3, 0)
        p, q = conjugate_hint(oriented.omega1)
        assert two_squares(f, p, p) is None
        assert two_squares(f, p, q.scale(2)) is None

    def test_rejects_an_empty_hint(self):
        zero = BivariatePoly.zero()
        assert two_squares(R2, zero, zero) is None

    def test_rejects_mu_zero(self):
        # w - w(0,0) = 0 = 0*(x^2 + y^2), but mu must be positive
        assert two_squares(BivariatePoly.constant(3), X, Y) is None

    def test_rejects_a_positive_mu_that_fits_one_coefficient_only(self):
        # x^2 + 2y^2: mu is positive whichever coefficient it is read off
        assert two_squares(X * X + (Y * Y).scale(2), X, Y) is None

    def test_floor_is_the_constant_term(self):
        w = R2.scale(Fraction(3, 2)) + BivariatePoly.constant(-5)
        assert two_squares(w, X, Y) == TwoSquareProof(X, Y, Fraction(3, 2), Fraction(-5))


def offset_tree_positivity(w, max_depth=DEFAULT_MAX_DEPTH):
    """global_positivity of a nonconstant w on the tree that
    `min_positive_constant` walks: the tree of w - w(0,0), walked at offset
    w(0,0), with the cells read off its memo at that offset."""
    w0 = w.coefficient(0, 0)
    tree = _BoxTree(w - BivariatePoly.constant(w0))
    refutation = tree.traverse(w0, max_depth)
    if refutation is not None:
        return refutation
    b, shift, d = w0.denominator, w0.numerator * tree.denominator, tree.degree
    cells = []
    for (i, j, depth), (lower, *_) in tree.boxes.items():
        lower = lower * b + (shift << (depth + 1) // 2 * d)
        if lower > 0:
            cells.append((i, j, depth, lower))
    max_depth_used = max(depth for _, _, depth, _ in cells)
    top = (max_depth_used + 1) // 2
    radius, scale = tree.radius, b * tree.denominator
    keyed = []
    for i, j, depth, lower in cells:
        s, px, qy, hy = tree.geometry(i, j, depth)
        corners = tuple(v << (top - s) for v in (px - radius, px + radius, qy - hy, qy + hy))
        keyed.append((corners, Fraction(lower, scale << s * d)))
    keyed.sort(key=lambda cell: cell[0])
    cells = tuple(
        CertifiedCell(tuple(Fraction(v, 1 << top) for v in corners), lower)
        for corners, lower in keyed
    )
    return PositivityCertificate(tree.bound, Fraction(radius), cells, max_depth_used)


def outcome_or_error(fn, w, max_depth=DEFAULT_MAX_DEPTH):
    try:
        return fn(w, max_depth)
    except Inconclusive as exc:
        return ("Inconclusive", str(exc))


def off_centre_disk():
    dx = X - BivariatePoly.constant(Fraction(5, 2))
    dy = Y - BivariatePoly.constant(Fraction(3, 2))
    return dx * dx + dy * dy - BivariatePoly.constant(1)


class TestOffsetTree:
    """global_positivity(w) walks w's own tree at offset 0; the tree of
    w - w(0,0) that the constant search walks, at offset w(0,0), must
    decide w exactly as w's own tree does."""

    @pytest.mark.parametrize(
        "w",
        [
            pytest.param(W_REF, id="w00-positive"),
            pytest.param(W_SEARCH, id="w00-positive-radius-7"),
            pytest.param(W_REF - BivariatePoly.constant(159), id="w00-positive-near-minimum"),
            pytest.param(R2, id="w00-zero"),
            pytest.param(W_REF - BivariatePoly.constant(160), id="w00-zero-nonradial"),
            pytest.param(R2 - BivariatePoly.constant(1), id="w00-negative"),
            pytest.param(W_REF - BivariatePoly.constant(161), id="w00-negative-nonradial"),
            pytest.param(off_centre_disk(), id="refuted-off-the-root-centre"),
        ],
    )
    def test_matches_a_fresh_tree(self, w):
        assert global_positivity(w) == offset_tree_positivity(w)

    def test_inconclusive_at_a_small_depth_limit(self):
        # W_REF one level below its first certifying depth, 3
        cases = [(w, depth) for w in TOUCHING_ZERO for depth in (0, 3, 7)] + [(W_REF, 2)]
        for w, depth in cases:
            expected = outcome_or_error(offset_tree_positivity, w, depth)
            assert expected[0] == "Inconclusive"
            assert outcome_or_error(global_positivity, w, depth) == expected


def test_constant_search_probes_below_c_are_refuted():
    # every trial above the floor: F + C/2 is not certified, and a box
    # corner shows why, on all 21 such trials of 36 pairs
    trials = 0
    for degree in (2, 3, 4):
        for seed in range(12):
            _, f = oriented_pair(degree, seed)
            constant = positivity.min_positive_constant(f, 40)
            if constant > positivity.REFINE_FLOOR:
                trials += 1
                w = f + BivariatePoly.constant(constant / 2)
                outcome = global_positivity(w, 40)
                assert isinstance(outcome, PositivityRefutation)
                assert w.evaluate(*outcome.point) == outcome.value <= 0
    assert trials == 21


@pytest.fixture
def bounds_calls(monkeypatch):
    """Counts _BoxTree.bounds calls."""
    calls = [0]
    original = _BoxTree.bounds

    def counting(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(_BoxTree, "bounds", counting)
    return calls


@pytest.mark.parametrize("max_depth", [DEFAULT_MAX_DEPTH, 12])
def test_run_trial_bounds_only_the_constant_search_boxes(monkeypatch, bounds_calls, max_depth):
    # a generic pair: the constant search alone certifies W
    pair = search._draw_pair(random.Random(5), 2, 5)
    oriented, f = search.orient_for_positivity(pair)
    positivity.min_positive_constant(f, max_depth, search._square_hint(oriented))
    searched, bounds_calls[0] = bounds_calls[0], 0

    def no_certification(w, max_depth=DEFAULT_MAX_DEPTH):
        pytest.fail("certified W again")

    monkeypatch.setattr(search, "global_positivity", no_certification)
    assert search.run_trial(0, pair, max_depth).positivity == "certified"
    assert bounds_calls[0] == searched > 0


@pytest.mark.parametrize("degree,seed", CONJUGATE_TYPE_PAIRS)
def test_min_positive_constant_returns_the_proof_of_w_on_a_conjugate_type_pair(
    bounds_calls, degree, seed
):
    # the C returned is the floor of W's two-square proof, found with no box
    oriented, f = oriented_pair(degree, seed)
    hint = search._square_hint(oriented)
    constant = positivity.min_positive_constant(f, DEFAULT_MAX_DEPTH, hint)
    assert constant == positivity.REFINE_FLOOR
    assert bounds_calls[0] == 0
    proof = two_squares(f + BivariatePoly.constant(constant), *hint)
    assert isinstance(proof, TwoSquareProof) and proof.floor == constant


def test_example_2_bounds_each_box_once(bounds_calls):
    search.verify_example_full(2)
    assert bounds_calls[0] == 71


def test_min_positive_constant_proves_a_verified_hint_with_no_box(bounds_calls):
    # example 2 at depth 2: the box tree certifies nothing below 2^k, while
    # the identity F = mu*(p^2 + q^2) proves F + 1/64 > 0 at every depth
    oriented, f = search.orient_for_positivity(get_example(2).seeds)
    hint = conjugate_hint(oriented.omega1)
    for depth in (2, DEFAULT_MAX_DEPTH):
        assert positivity.min_positive_constant(f, depth, hint) == positivity.REFINE_FLOOR
    assert bounds_calls[0] == 0
    assert positivity.min_positive_constant(f, 2) > 1


@pytest.mark.parametrize("shift", [1, -3], ids=["f+1", "f-3"])
def test_min_positive_constant_walks_the_box_tree_when_the_floor_is_not_zero(bounds_calls, shift):
    # the identity still verifies for f + shift, but only F(0,0) = 0 is proved
    # by it; the walk decides, exactly as without a hint
    oriented, f = search.orient_for_positivity(get_example(2).seeds)
    shifted = f + BivariatePoly.constant(shift)
    hint = conjugate_hint(oriented.omega1)
    assert two_squares(shifted, *hint).floor == shift
    for depth in (2, DEFAULT_MAX_DEPTH):
        hinted = outcome_or_error(
            lambda g, d: positivity.min_positive_constant(g, d, square=hint), shifted, depth
        )
        assert hinted == outcome_or_error(positivity.min_positive_constant, shifted, depth)
    assert bounds_calls[0] > 0


def test_a_wrong_hint_never_certifies(bounds_calls):
    oriented, f = search.orient_for_positivity(get_example(2).seeds)
    p, q = conjugate_hint(oriented.omega1)
    for hint in ((p, p), (p, q.scale(2)), (-q, p + q)):
        assert positivity.min_positive_constant(f, 2, hint) == positivity.min_positive_constant(f, 2)
