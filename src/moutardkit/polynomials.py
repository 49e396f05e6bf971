"""Exact arithmetic for bivariate polynomials and rational functions over Q.

A polynomial is stored once, as integers over one denominator: a sparse
map from exponent pairs ``(i, j)`` (powers of x and y) to nonzero `int`
coefficients, and one positive `int` den with gcd(den, *coefficients) == 1.
That pair is canonical, so equal polynomials have equal pairs. Every ring
and calculus operation runs on the integers and reduces its result by one
gcd; `fractions.Fraction` values are built only from user input and for
output (`items`, `coefficient`, `evaluate`). The canonical term order used
everywhere (serialization, golden tests) is graded lexicographic:
ascending total degree, ties broken by ascending x-exponent. A univariate
polynomial is a y-free one (every exponent pair is (i, 0)).

Products and exact quotients use Kronecker substitution on the stored
integers: term (i, j) becomes the signed slot i*S + j of width k bits,
i.e. the polynomial is evaluated at x = 2^(k*S), y = 2^k. The stride S
exceeds the y-degree of the result, and k is chosen so that every result
coefficient fits in a slot, so one big-integer product or `divmod` does
the work of the whole term loop. A constant factor is a scaling and
never a Kronecker product. An exact quotient by a primitive integer
divisor is integral (Gauss's lemma); it is unpacked, checked by
multiplying back, and retried with wider slots up to the Mignotte bound
on its coefficients.

Evaluation runs on integers as well: with stored terms c_ij over den,
p(x/q, y/q) is V / (den * q^d), V the integer sum of c_ij * x^i * y^j *
q^(d-i-j) from `_int_eval`. `RationalFn.values_at` puts many points over
one q and returns integer pairs, so a caller builds no Fraction per point.

Rational functions are unreduced quotients; equality is decided by
cross-multiplication, never by computing a multivariate gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

from .errors import ExactDivisionError

Exponents = Tuple[int, int]
RationalLike = Union[int, str, Fraction]

#: Degree of the zero polynomial; compares below every true degree.
NEG_INFINITY = float("-inf")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strings like ``"-3/2"`` to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) or isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def term_sort_key(exponents: Exponents) -> Tuple[int, int]:
    """Canonical graded-lex sort key for an exponent pair."""
    i, j = exponents
    return (i + j, i)


IntTerms = dict[Exponents, int]


def _slot_bytes(bound: int) -> int:
    """Smallest slot width in bytes whose signed range holds |c| <= bound."""
    return bound.bit_length() // 8 + 1


def _pack(ints: IntTerms, stride: int, width: int) -> int:
    """Kronecker image: the sum of c * 2^(8*width*(i*stride + j)) over the terms."""
    size = (max(i for i, _ in ints) + 1) * stride * width
    pos, neg = bytearray(size), bytearray(size)
    for (i, j), c in ints.items():
        at = (i * stride + j) * width
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        else:
            neg[at : at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value: int, stride: int, width: int, slots: int) -> IntTerms | None:
    """Inverse of `_pack` over `slots` signed slots; None if value overflows them."""
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    try:
        raw = (value + bias).to_bytes(slots * width, "little")
    except OverflowError:  # negative, or wider than the slots
        return None
    half = 1 << (8 * width - 1)
    view = memoryview(raw)
    from_bytes = int.from_bytes
    out: IntTerms = {}
    for t in range(slots):
        c = from_bytes(view[t * width : (t + 1) * width], "little") - half
        if c:
            out[divmod(t, stride)] = c
    return out


def _integer_point(*coords: Fraction) -> Tuple[int, ...]:
    """(q, q*c_1, q*c_2, ...) with q the least common denominator of the c_k."""
    q = math.lcm(*(c.denominator for c in coords))
    return (q, *(c.numerator * (q // c.denominator) for c in coords))


def _int_eval(polys: Sequence[IntTerms], degree: int, q: int, points: Iterable[Tuple[int, int]]) -> list:
    """Per integer point (x, y), the tuple of q^degree times each poly's value at (x/q, y/q)."""
    homogeneous = [[(i, j, c * q ** (degree - i - j)) for (i, j), c in ints.items()] for ints in polys]
    values = []
    for x, y in points:
        xs, ys = [1], [1]
        for _ in range(degree):
            xs.append(xs[-1] * x)
            ys.append(ys[-1] * y)
        at = []
        for terms in homogeneous:
            total = 0
            for i, j, c in terms:
                total += c * xs[i] * ys[j]
            at.append(total)
        values.append(tuple(at))
    return values


def _int_mul(a: IntTerms, b: IntTerms) -> IntTerms:
    """Product of two nonzero integer polynomials through one integer product."""
    stride = max(j for _, j in a) + max(j for _, j in b) + 1
    # each product coefficient sums at most min(#a, #b) products of terms
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    width = _slot_bytes(bound)
    rows = max(i for i, _ in a) + max(i for i, _ in b) + 1
    product = _pack(a, stride, width) * _pack(b, stride, width)
    return _unpack(product, stride, width, rows * stride)


class BivariatePoly:
    """An immutable bivariate polynomial with exact rational coefficients,
    stored as the canonical pair (ints, den): self = ints / den, with nonzero
    integer coefficients in ints, den > 0 and gcd(den, *ints) == 1."""

    __slots__ = ("_ints", "_den")

    def __init__(self, terms: Mapping[Exponents, RationalLike] | None = None):
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for (i, j), coeff in terms.items():
                # type() rejects bool, which isinstance would accept as an int
                if not (type(i) is int and type(j) is int and i >= 0 and j >= 0):
                    raise ValueError(f"bad exponent pair {(i, j)!r}")
                c = as_fraction(coeff)
                if c != 0:
                    clean[(i, j)] = c
        # over the lcm of reduced denominators the pair is already canonical
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._ints = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._den = den

    @classmethod
    def _raw(cls, ints: IntTerms, den: int) -> "BivariatePoly":
        # internal: ints / den with nonzero ints and den > 0, reduced here
        g = math.gcd(den, *ints.values())
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
            den //= g
        obj = object.__new__(cls)
        obj._ints = ints
        obj._den = den
        return obj

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls._raw({}, 1)

    @classmethod
    def constant(cls, value: RationalLike) -> "BivariatePoly":
        return cls.monomial(0, 0, value)

    @classmethod
    def monomial(cls, i: int, j: int, coeff: RationalLike = 1) -> "BivariatePoly":
        return cls({(i, j): coeff})

    @classmethod
    def variables(cls) -> Tuple["BivariatePoly", "BivariatePoly"]:
        """The generators (x, y)."""
        return cls.monomial(1, 0), cls.monomial(0, 1)

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[Tuple[Exponents, Fraction]]:
        """Terms in canonical graded-lex order."""
        for e in sorted(self._ints, key=term_sort_key):
            yield e, Fraction(self._ints[e], self._den)

    def coefficient(self, i: int, j: int) -> Fraction:
        return Fraction(self._ints.get((i, j), 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def degree(self):
        """Total degree; NEG_INFINITY for the zero polynomial."""
        if not self._ints:
            return NEG_INFINITY
        return max(i + j for i, j in self._ints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._den == other._den and self._ints == other._ints

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __repr__(self) -> str:
        if not self._ints:
            return "0"
        parts = []
        for (i, j), c in self.items():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("x", i), ("y", j))
                if e
            )
            if mono:
                prefix = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(prefix + mono)
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        res = {e: c * a for e, c in self._ints.items()}
        for e, c in other._ints.items():
            s = res.get(e, 0) + c * b
            if s:
                res[e] = s
            elif e in res:
                del res[e]
        return BivariatePoly._raw(res, den)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly._raw({e: -c for e, c in self._ints.items()}, self._den)

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "BivariatePoly":
        if isinstance(other, BivariatePoly):
            # a constant operand, zero included, is a scaling of the other
            if self._ints.keys() <= {(0, 0)}:
                return other.scale(self.coefficient(0, 0))
            if other._ints.keys() <= {(0, 0)}:
                return self.scale(other.coefficient(0, 0))
            return BivariatePoly._raw(_int_mul(self._ints, other._ints), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "BivariatePoly":
        c = as_fraction(factor)
        if c == 0:
            return BivariatePoly.zero()
        num = c.numerator
        return BivariatePoly._raw(
            {e: v * num for e, v in self._ints.items()}, self._den * c.denominator
        )

    def __pow__(self, exponent: int) -> "BivariatePoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if exponent == 0:
            return BivariatePoly.constant(1)
        # left-to-right square-and-multiply; the top bit is `self` itself
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- calculus -----------------------------------------------------------

    def diff_x(self) -> "BivariatePoly":
        return BivariatePoly._raw(
            {(i - 1, j): c * i for (i, j), c in self._ints.items() if i}, self._den
        )

    def diff_y(self) -> "BivariatePoly":
        return BivariatePoly._raw(
            {(i, j - 1): c * j for (i, j), c in self._ints.items() if j}, self._den
        )

    def laplacian(self) -> "BivariatePoly":
        return self.diff_x().diff_x() + self.diff_y().diff_y()

    def integrate_x(self) -> "BivariatePoly":
        """Termwise antiderivative in x (no constant of integration)."""
        m = math.lcm(*(i + 1 for i, _ in self._ints))
        return BivariatePoly._raw(
            {(i + 1, j): c * (m // (i + 1)) for (i, j), c in self._ints.items()}, self._den * m
        )

    def integrate_y(self) -> "BivariatePoly":
        """Termwise antiderivative in y (no constant of integration)."""
        m = math.lcm(*(j + 1 for _, j in self._ints))
        return BivariatePoly._raw(
            {(i, j + 1): c * (m // (j + 1)) for (i, j), c in self._ints.items()}, self._den * m
        )

    # -- evaluation and structure -------------------------------------------

    def evaluate(self, x0: RationalLike, y0: RationalLike) -> Fraction:
        """Exact value at a rational point."""
        degree = max(self.degree, 0)
        q, x, y = _integer_point(as_fraction(x0), as_fraction(y0))
        return Fraction(_int_eval([self._ints], degree, q, [(x, y)])[0][0], self._den * q**degree)

    def leading_form(self) -> "BivariatePoly":
        """Homogeneous part of top degree; rejects the zero polynomial."""
        if not self._ints:
            raise ValueError("zero polynomial has no leading form")
        d = self.degree
        return BivariatePoly._raw(
            {e: c for e, c in self._ints.items() if e[0] + e[1] == d}, self._den
        )

    def coefficient_abs_sum(self) -> Fraction:
        return Fraction(sum(map(abs, self._ints.values())), self._den)

    def div_exact(self, divisor: "BivariatePoly") -> "BivariatePoly":
        """Exact polynomial quotient self / divisor.

        Intended for factors known by construction (powers of a seed, W);
        raises ExactDivisionError when the division leaves a remainder.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        a, b = self._ints, divisor._ints
        content = math.gcd(*b.values())
        b = {e: c // content for e, c in b.items()}
        # self / divisor = (a / b) * num / den, and a / b is integral (Gauss)
        num, den = divisor._den, self._den * content
        stride = max(j for _, j in a) + 1
        if max(j for _, j in b) >= stride:
            raise ExactDivisionError("divisor has the higher y-degree")
        slots = max(i * stride + j for i, j in a) - max(i * stride + j for i, j in b) + 1
        if slots < 1:
            raise ExactDivisionError("divisor has the higher degree")
        # Mignotte: a degree-m factor of the packed dividend has coefficients
        # of size at most 2^m * ||a||_2, with m = slots - 1
        norm = math.isqrt(sum(c * c for c in a.values())) + 1
        widest = _slot_bytes(norm << (slots - 1))
        width = _slot_bytes(max(max(map(abs, a.values())), max(map(abs, b.values()))))
        while True:
            packed_q, remainder = divmod(_pack(a, stride, width), _pack(b, stride, width))
            if remainder:
                raise ExactDivisionError("nonzero remainder")
            q = _unpack(packed_q, stride, width, slots)
            if q is not None and _int_mul(q, b) == a:
                return BivariatePoly._raw({e: c * num for e, c in q.items()}, den)
            if width >= widest:
                raise ExactDivisionError("no integral quotient within the Mignotte bound")
            width = min(2 * width, widest)


class RationalFn:
    """A quotient of two bivariate polynomials, kept unreduced.

    A value pair (num, den) with no field arithmetic: callers build num
    and den as polynomials. Equality of values is decided by `equals`
    (cross-multiplication); `==` compares representations term for term.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BivariatePoly, den: BivariatePoly | None = None):
        if den is None:
            den = BivariatePoly.constant(1)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def zero(cls) -> "RationalFn":
        return cls(BivariatePoly.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self) -> str:
        return f"({self.num!r}) / ({self.den!r})"

    def equals(self, other: "RationalFn") -> bool:
        """Value equality: a/b == c/d iff a*d - c*b is the zero polynomial."""
        return (self.num * other.den - other.num * self.den).is_zero

    def values_at(self, points: Sequence[Tuple[RationalLike, RationalLike]]) -> List[Tuple[int, int]]:
        """Per point, integers (N, D) with self = N/D there, D of the sign of
        self.den there (0 at a pole): num and den on integers at their common
        degree d, all points over one common denominator q."""
        q, *ints = _integer_point(*(as_fraction(c) for point in points for c in point))
        num = {e: c * self.den._den for e, c in self.num._ints.items()}
        den = {e: c * self.num._den for e, c in self.den._ints.items()}
        d = max(self.num.degree, self.den.degree)
        return _int_eval([num, den], d, q, zip(ints[::2], ints[1::2]))
