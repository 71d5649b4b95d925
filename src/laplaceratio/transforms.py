"""Laplace transforms of polynomial and piecewise-polynomial functions,
exact power-ratio expansions at infinity, and the convolution residual.

The central object is the power ratio

    H(f, lambda) = L{f^n}(lambda) / L{f^m}(lambda)

for distinct positive integers n and m.  For a polynomial f the ratio has
an exact expansion in u = 1/lambda; for piecewise polynomials it is
evaluated numerically from closed-form per-piece integrals.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice, repeat
from math import factorial, lcm
from operator import mul, sub

from . import algebra
from .algebra import (
    Frozen,
    Poly,
    Rational,
    Series,
    _is_integer,
    _quotient,
    _rational_text,
    _require_integer,
    _require_size,
    _shown,
    as_rational,
    as_rational_number,
    factorials,
)
from .errors import (
    DivergentTransform,
    DomainError,
    NotVanishing,
    OutOfRange,
    ZeroDenominator,
    ZeroFunction,
)


def laplace_poly(p: Poly) -> Poly:
    """Transform of a polynomial: the polynomial in u = 1/lambda it
    terminates as.

    The term rule L{x^i} = i!/lambda^(i+1) puts i! * coeffs[i] at u^(i+1);
    the u^0 coefficient is always zero.
    """
    return Poly([0, *map(mul, factorials(p.degree), p.coeffs)])


class RatioExpansion(Frozen):
    """Expansion of a power ratio at lambda = infinity.

    Represents H(lambda) = lambda**lead * T(1/lambda) where T is the tail
    series; the normalizing shift is absorbed into lead so that the tail
    has a nonzero constant term.
    """

    __slots__ = ("lead", "tail")

    def __init__(self, lead: int, tail: Series):
        if not tail.coeffs[0]:
            raise DomainError("ratio expansion tail must have a nonzero constant term")
        self._set_fields(lead, tail)


def ratio_expansion(f: Poly, n: int, m: int, order: int) -> RatioExpansion:
    """Exact expansion of L{f^n}/L{f^m} at infinity, to the given tail order.

    The leading exponent is k*(m-n) where k is the index of f's lowest
    nonzero coefficient.  T_0..T_order read only the coefficients
    k..k+order of f, and of f^n and f^m only the order+1 from x^(kn) and
    x^(km) on, so both powers come from the kernel cut to order+1 slots
    and nothing past the order is built.  The result equals
    ratio_rational(f, n, m).expansion(order).
    """
    _check_exponents(n, m)
    if f.is_zero:
        raise ZeroFunction("the zero function has no transform ratio")
    _require_integer(order, "expansion order")
    if order < 0:
        raise DomainError("expansion order must be nonnegative")
    _require_size(order, "expansion order")
    k = f.valuation
    A, B = _laplace_pair(f.coeffs[k : k + order + 1], n, m, k, order + 1)
    g = math.gcd(*A, *B)  # the quotient's dot products run on content-free integers
    A, B = [a // g for a in A], [b // g for b in B]
    return RatioExpansion(lead=k * (m - n), tail=Series(_quotient(A, B, order + 1), order))


def _laplace_pair(coeffs, n: int, m: int, k: int = 0, count: int | None = None) -> tuple:
    """Integer lists A and B over one denominator D with, for
    f = x**k * sum of coeffs[i] x**i and u = 1/lambda,

        L{f^n} = u**(kn+1) A(u) / D      L{f^m} = u**(km+1) B(u) / D.

    coeffs are cleared to numerators over den (1 for integer coeffs), so
    slot j of their n-th power is the x**(kn+j) coefficient of f^n over
    den**n, which the term rule weights by (kn+j)!; D is den**max(n, m).
    With count, only the lowest count slots of each power are built.
    """
    fn, fm, _ = _power_pair(coeffs, n, m, count)
    fact = factorials(k * max(n, m) + max(len(fn), len(fm)) - 1)
    A = [c * w for c, w in zip(fn, islice(fact, k * n, None))]
    B = [c * w for c, w in zip(fm, islice(fact, k * m, None))]
    return A, B


def _power_pair(coeffs, a: int, b: int, count: int | None = None):
    """(A, B, den) with p^a = A/den and p^b = B/den, A and B integer lists
    (with count, their lowest count slots), for the polynomial p with these
    coefficients; None when p is zero.  den is the cleared denominator of
    the coefficients to the power max(a, b)."""
    if not coeffs:
        return None
    top = max(a, b)
    nums, d = algebra._cleared(coeffs)
    sa, sb = d ** (top - a), d ** (top - b)
    pa = [c * sa for c in algebra._power_nums(nums, a, count)]
    pb = [c * sb for c in algebra._power_nums(nums, b, count)]
    return pa, pb, d ** top


def _scalar_pair(c: Rational, a: int, b: int) -> tuple:
    """(A, B, den), integers with c^a = A/den and c^b = B/den, den the
    denominator of c to the power max(a, b)."""
    p, d = c.as_integer_ratio()
    top = max(a, b)
    return p ** a * d ** (top - a), p ** b * d ** (top - b), d ** top


def _check_exponents(n: int, m: int) -> None:
    if not (_is_integer(n) and _is_integer(m)) or n < 1 or m < 1:
        raise DomainError(f"exponents must be positive integers, got ({_shown(n)}, {_shown(m)})")
    if n == m:
        raise DomainError("exponents must be distinct")


class RationalFunction(Frozen):
    """Exact ratio of two polynomials in lambda.

    Stored with the common integer content removed and a positive leading
    denominator coefficient.  Equality means equality as rational
    functions (by cross multiplication), not of the stored pair, so
    instances are not hashable.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: Poly, denom: Poly):
        if denom.is_zero:
            raise DomainError("rational function denominator must be nonzero")
        nums, _ = algebra._cleared(numer.coeffs + denom.coeffs)
        self._set_fields(*_content_free(nums[: len(numer.coeffs)], nums[len(numer.coeffs) :]))

    @classmethod
    def _from_ints(cls, numer: list, denom: list) -> "RationalFunction":
        """From integer coefficient lists, denom not all zero."""
        rf = cls.__new__(cls)
        rf._set_fields(*_content_free(numer, denom))
        return rf

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.numer * other.denom == other.numer * self.denom
        return NotImplemented

    __hash__ = None

    def __call__(self, lam) -> float:
        """The value at lambda, from one exact quotient rounded once."""
        x = as_rational_number(lam)
        den = self.denom(x)
        if not den:
            raise ZeroDenominator(f"denominator vanishes at lambda = {_shown(lam)}")
        try:
            return float(self.numer(x) / den)
        except OverflowError:
            raise OutOfRange(f"the ratio at lambda = {_shown(lam)} is not a finite double") from None

    def expansion(self, order: int) -> RatioExpansion:
        """Expand at lambda = infinity as a RatioExpansion."""
        _require_integer(order, "expansion order")
        _require_size(order, "expansion order")
        # the coefficients are integers, highest power of lambda first
        rev_n = [c.numerator for c in reversed(self.numer.coeffs)]
        rev_d = [c.numerator for c in reversed(self.denom.coeffs)]
        tail = Series(_quotient(rev_n, rev_d, order + 1), order)
        return RatioExpansion(lead=self.numer.degree - self.denom.degree, tail=tail)

    def __repr__(self):
        return f"RationalFunction({self.numer!r}, {self.denom!r})"

    def __str__(self):
        return f"({self.numer.to_string('lambda')}) / ({self.denom.to_string('lambda')})"


def _content_free(numer: list, denom: list) -> tuple:
    """The integer coefficient lists divided by their common content, signed
    so that the leading denominator coefficient is positive, as Polys."""
    g = math.gcd(*numer, *denom)
    if next(c for c in reversed(denom) if c) < 0:
        g = -g
    return Poly([c // g for c in numer]), Poly([c // g for c in denom])


def ratio_rational(f: Poly, n: int, m: int) -> RationalFunction:
    """Exact closed form of L{f^n}/L{f^m} as a rational function of lambda."""
    _check_exponents(n, m)
    if f.is_zero:
        raise ZeroFunction("the zero function has no transform ratio")
    # L{f^n} = A(1/lambda) / (D lambda), so reversed A is its numerator over
    # lambda^len(A); move the power of lambda to whichever side keeps both
    # polynomials
    A, B = _laplace_pair(f.coeffs, n, m)
    shift = len(A) - len(B)
    num = [0] * max(-shift, 0) + A[::-1]
    dnm = [0] * max(shift, 0) + B[::-1]
    return RationalFunction._from_ints(num, dnm)


def sin_maclaurin(degree: int) -> Poly:
    """Maclaurin polynomial of sin truncated at the given degree."""
    _require_integer(degree, "degree")
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    _require_size(degree, "degree")
    coeffs = [Rational(0)] * (degree + 1)
    for j in range(0, (degree - 1) // 2 + 1):
        coeffs[2 * j + 1] = Rational((-1) ** j, factorial(2 * j + 1))
    return Poly(coeffs)


def sin_ratio_check(order: int) -> bool:
    """Check the entire-function test vector: the power ratio of sin with
    exponents (2, 1) equals 2(lambda^2+1) / (lambda(lambda^2+4)).

    The Maclaurin polynomial is truncated at the given degree, which keeps
    tail coefficients exact up to order degree-1; the comparison runs over
    exactly those orders.
    """
    _require_integer(order, "order")
    if order < 4:
        raise DomainError("sin_ratio_check needs order >= 4")
    got = ratio_expansion(sin_maclaurin(order), 2, 1, order - 1)
    want = sin_closed_form().expansion(order - 1)
    return got == want


def sin_closed_form() -> RationalFunction:
    """The exact power ratio of sin with exponents (2, 1)."""
    return RationalFunction(Poly([2, 0, 2]), Poly([0, 4, 0, 1]))


class PiecewisePoly(Frozen):
    """Right-continuous piecewise polynomial on [0, infinity).

    breakpoints are strictly increasing rationals starting at 0; piece i
    applies on [breakpoints[i], breakpoints[i+1]) and the last piece on
    [b_last, infinity).  The last piece may be any polynomial; the
    transform exists for every lambda > 0 either way.

    A Frozen value, with its pieces Frozen too, so what the transforms
    derive from the function alone can be kept with it.  The private slot
    _derived, which is not a field, holds a dict, empty until a transform
    asks: under None the _grid, under an exponent a the power self ** a
    that __pow__ returns, under ("local", a) the cells of self ** a in
    local coordinates that the float transforms sum (_local), and under
    (a, b, constant_only) the _pairs of every piece.  Only _derive reads
    or writes it, and stores each entry once, whole, with setdefault, so
    every caller gets the first value stored, even when two threads build
    one at once.  It takes no part in ==, repr or pickling.
    """

    __slots__ = ("breakpoints", "pieces", "_derived")

    def __init__(self, breakpoints, pieces):
        bps = tuple(as_rational(b) for b in breakpoints)
        ps = tuple(p if isinstance(p, Poly) else Poly(p) for p in pieces)
        if not bps or bps[0] != 0:
            raise DomainError("breakpoints must start at 0")
        if len(bps) != len(ps):
            raise DomainError("need exactly one piece per breakpoint")
        for a, b in zip(bps, bps[1:]):
            if b <= a:
                raise DomainError("breakpoints must be strictly increasing")
        self._set_fields(bps, ps)
        object.__setattr__(self, "_derived", {})

    def piece_at(self, x) -> Poly:
        """The polynomial in force at point x >= 0."""
        xq = as_rational_number(x)
        if xq < 0:
            raise DomainError("piecewise functions live on [0, infinity)")
        return self.pieces[bisect_right(self.breakpoints, xq) - 1]

    def __call__(self, x):
        # the piece in force at x, evaluated as Poly evaluates: a float x
        # gives the exact value rounded once
        xq = as_rational_number(x)
        return self.piece_at(xq)(x if isinstance(x, float) else xq)

    def __pow__(self, a: int) -> "PiecewisePoly":
        """The pointwise power, built on first use and kept in the memo."""
        if not _is_integer(a) or a < 1:
            raise DomainError("piecewise powers take a positive integer exponent")
        return self._derive(a, _power, a)

    __hash__ = None

    def __repr__(self):
        ends = [*map(_rational_text, self.breakpoints[1:]), "inf"]
        cells = (f"[{_rational_text(b)}, {e}): {p}" for b, e, p in zip(self.breakpoints, ends, self.pieces))
        return f"PiecewisePoly({', '.join(cells)})"

    def _derive(self, key, build, *args):
        """The memo's entry under key, build(self, *args) on first use."""
        got = self._derived.get(key)
        if got is None:
            got = self._derived.setdefault(key, build(self, *args))
        return got


def _power(pp: PiecewisePoly, a: int) -> PiecewisePoly:
    """The pointwise power pp ** a, piece by piece."""
    return PiecewisePoly(pp.breakpoints, [p ** a for p in pp.pieces])


def _grid(pp: PiecewisePoly) -> tuple:
    """(edges, D, degrees): the breakpoints as integers over D, the lcm of
    their denominators, and the degree of each piece."""
    ratios = [b.as_integer_ratio() for b in pp.breakpoints]
    D = lcm(*(d for _, d in ratios))
    return [b * (D // d) for b, d in ratios], D, [len(p.coeffs) - 1 for p in pp.pieces]


def _pairs(pp: PiecewisePoly, a: int, b: int, constant_only: bool) -> list:
    """The powers of every piece as convolution_residual reads them: a
    constant's _scalar_pair, None for zero, and _power_pair of any other
    piece, or None with constant_only, as the residual builds f's per t
    after composing with t - s."""
    return [
        _scalar_pair(p.coeffs[0], a, b) if len(p.coeffs) == 1
        else None if constant_only else _power_pair(p.coeffs, a, b)
        for p in pp.pieces
    ]


def step_example(n_max: int) -> PiecewisePoly:
    """Built-in staircase fixture: value 2**-i on [1 - 2**-i, 1 - 2**-(i+1))
    for i < n_max, with the staircase truncated after n_max steps and the
    constant 2 on [1, infinity)."""
    if not _is_integer(n_max) or n_max < 1:
        raise DomainError(f"n_max must be an integer of at least 1, got {_shown(n_max)}")
    _require_size(n_max, "n_max")
    breakpoints = [1 - Rational(1, 2 ** i) for i in range(n_max + 1)] + [Rational(1)]
    pieces = [Poly([Rational(1, 2 ** i)]) for i in range(n_max + 1)] + [Poly([2])]
    return PiecewisePoly(breakpoints, pieces)


def _double(num: int, den: int):
    """num / den correctly rounded, None past the double range."""
    try:
        return num / den
    except OverflowError:
        return None


# _local scales a cell's coefficients by 2**-E once one of them reaches
# this many bits, which leaves room for the moments they multiply
_COEFF_BITS = 512
_LN2 = math.log(2.0)
_NORMAL = sys.float_info.min  # the least positive double with all its digits


def _local(pp: PiecewisePoly, a: int) -> tuple:
    """(a0, cells): pp ** a in local coordinates, in doubles.

    a0 is the start of pp's first nonzero piece (0.0 if there is none), and
    each nonzero piece p on [start, start + w) gives one cell (offset,
    sigma, W, coeffs, E): offset = start - a0, and coeffs those of
    p(start + sigma*t)**a / 2**E in t, which the cell integrates over
    [0, W).  A piece narrower than 1 has sigma = w and W = 1, so its
    coefficients carry w^k; a wider one keeps the scale of x, sigma = 1 and
    W = w, and so does the tail, with W None.  E >= 0 is the least
    exponent that leaves the cell's coefficients below 2**_COEFF_BITS, 0
    unless one is past it.  Each piece is cleared to integers once,
    re-centred and raised on integers, and each coefficient rounded once.
    An offset past the double range is None, and so are a cell's coeffs
    if its width is.
    """
    ends = [*pp.breakpoints[1:], None]
    a0, cells = None, []
    for start, end, piece in zip(pp.breakpoints, ends, pp.pieces):
        if piece.is_zero:
            continue
        sn, sd = start.numerator, start.denominator
        if a0 is None:
            an, ad = a0 = sn, sd
        nums, den = algebra._cleared(piece.coeffs)
        if end is None:
            D, A, B = sd, sn, None
        else:
            D = lcm(sd, end.denominator)
            A = sn * (D // sd)
            B = end.numerator * (D // end.denominator) - A
        sigma = D if B is None else min(B, D)
        nums, scale = algebra._composed_nums(nums, A, sigma, D)
        if a > 1:
            nums = algebra._power_nums(nums, a)
        den = (den * scale) ** a
        # |c| / den < 2**(bits(c) - bits(den) + 1)
        E = max(0, algebra._bits(nums) - den.bit_length() + 1 - _COEFF_BITS)
        den <<= E
        coeffs = [c / den for c in nums]
        if B is None:
            W = None
        else:
            W = _double(B, D)
            if W is None:  # a width past the double range
                coeffs = None
            else:
                W = max(W, 1.0)
        cells.append((_double(sn * ad - an * sd, sd * ad), sigma / D, W, coeffs, E))
    return (0.0 if a0 is None else _double(*a0)), cells


def _cell_sum(coeffs, y: float, W: float) -> float:
    """The sum of coeffs[k] M_k, M_k the integral of t^k e^(-y t) over
    [0, W), for a finite W >= 1.

    With x = y W and B_k = W^k e^(-x): upward, M_k = (k M_(k-1) - B_k) / y,
    while k <= x, where it damps its rounding; above that downward,
    M_(k-1) = (y M_k + B_k) / k, from M_d = B_(d+1) / (d+1) times the sum
    of x^j / ((d+2)...(d+1+j)), a series of positive terms whose ratios are
    below 1 (Gautschi, ACM TOMS 5 (1979) 466).  A B_k or M_k past the
    double range gives a sum that is not finite, or raises OverflowError.
    """
    d = len(coeffs) - 1
    x = y * W
    e = math.exp(-x)
    if W == 1.0:
        bound = [e] * (d + 2)
    elif e >= _NORMAL:
        bound = list(accumulate(repeat(W, d + 1), mul, initial=e))
    else:
        # e^(-x) is below the double range, where W^k e^(-x) may not be
        lw = math.log(W)
        bound = [math.exp(k * lw - x) for k in range(d + 2)]
    top = d if x >= d else int(x)
    m = -math.expm1(-x) / y if y else W
    total = coeffs[0] * m
    for k in range(1, top + 1):
        m = (k * m - bound[k]) / y
        total += coeffs[k] * m
    if d > top:
        term = series = 1.0
        j = d + 2
        while term > 1e-17 * series:
            term *= x / j
            series += term
            j += 1
        m = bound[d + 1] * series / (d + 1)
        total += coeffs[d] * m
        for k in range(d, top + 1, -1):
            m = (y * m + bound[k]) / k
            total += coeffs[k - 1] * m
    return total


def _times_exp(s: float, u: float) -> tuple:
    """(v, j) with v 2**-j = s e^(-u), u >= 0: v = s e^(-u) while e^(-u)
    is a normal double, past that s e^(j ln 2 - u), j the least that keeps
    the factor normal, as a subnormal e^(-u) has lost digits.  Past
    u = 2**62 it is (0.0, 0): no cell's 2**E lifts e^(-u) back."""
    if u <= 708.0 or u > 2.0**62:
        return s * math.exp(-u), 0
    j = math.ceil((u - 708.0) / _LN2)
    return s * math.exp(j * _LN2 - u), j


def _added(s: float, es: int, t: float, et: int) -> tuple:
    """(v, ev) with v 2**ev = s 2**es + t 2**et; for exponents that differ,
    v is scaled to below 2 in magnitude, so neither sum nor term leaves the
    doubles on the way."""
    if es == et:
        return s + t, es
    if not t:
        return s, es
    if not s:
        return t, et
    e = max(math.frexp(s)[1] + es, math.frexp(t)[1] + et)
    return math.ldexp(s, es - e) + math.ldexp(t, et - e), e


def _lambda_double(lam) -> float:
    """lambda > 0 as its double, refusing what has no positive finite one."""
    if not -math.inf < lam < math.inf:
        raise DomainError(f"lambda must be finite and positive, got {_shown(lam)}")
    if lam <= 0:
        raise DivergentTransform(f"transform requires lambda > 0, got {_shown(lam)}")
    try:
        x = float(lam)
    except OverflowError:  # an exact lambda past the double range
        raise _overflowed(lam) from None
    if not x:  # a positive exact lambda whose double is 0
        raise _overflowed(lam)
    return x


def _overflowed(lam) -> OutOfRange:
    return OutOfRange(f"the float path overflowed a double evaluating the transform at lambda = {_shown(lam)}")


def _local_sum(pp: PiecewisePoly, a: int, x: float, lam) -> tuple:
    """(a0, E, S) with L{pp^a}(x) = S 2**E e^(-x a0), S 2**E the sum over
    the cells of 2**E_cell e^(-x offset) sigma times the cell's _cell_sum
    at x sigma.  E is 0 unless a cell's E_cell or factor is outside the
    normal doubles.  A term below 2**-1075 is left out, as a double would
    lose it: the other cells' moments keep no digits below that.  A cell
    whose coeffs are None or whose sum is not a double is left out if its
    factor 2**E_cell e^(-x offset) is below 2**-1076 and raises OutOfRange
    otherwise, as does an S that is not finite; a cell that starts past
    the double range counts only at an x below 746 / (the largest
    double)."""
    a0, cells = pp._derive(("local", a), _local, a)
    total, E = 0.0, 0
    for offset, sigma, W, coeffs, e in cells:
        if offset is None:
            # past the double range: the factor underflows unless x is tiny
            if x * sys.float_info.max < 746:
                raise _overflowed(lam)
            continue
        u = x * offset
        if coeffs is None:
            part = math.inf
        elif W is None:
            # the tail, sigma = 1: the sum of c_k k! / x^(k+1), by Horner's
            # rule in 1/x with the k! folded into its steps, none stored
            part, j = 0.0, len(coeffs)
            for c in reversed(coeffs):
                part = c + part * j / x
                j -= 1
            part /= x
        else:
            try:
                part = sigma * _cell_sum(coeffs, x * sigma, W)
            except OverflowError:
                part = math.inf
        if not math.isfinite(part):
            if u - e * _LN2 > 746:
                continue
            raise _overflowed(lam)
        if u <= 708.0 and e == E:
            total += part * math.exp(-u)
        else:
            term, j = _times_exp(part, u)
            if math.frexp(term)[1] + e - j > -1075:
                total, E = _added(total, E, term, e - j)
    if not math.isfinite(total):
        raise _overflowed(lam)
    return a0, E, total


def laplace_piecewise(pp: PiecewisePoly, lam: float) -> float:
    """Numeric Laplace transform of a piecewise polynomial at lambda > 0.

    Each nonzero piece is integrated in its own coordinates, with
    coefficients built exactly and rounded once (_local), and the factor
    e^(-lambda a0) of the first nonzero piece's start a0 comes out of the
    sum.  The contract: |error| <= 1e-10 * L{g}(lambda) + 2**-1022, where g
    on each piece [s, e) is sum |c_k| (x - s)^k when f is
    sum c_k (x - s)^k there.  So for an f whose pieces have nonnegative
    coefficients about their starts (g = f) the error is a relative 1e-10
    wherever the value is a normal double; a piece whose coefficients
    cancel can lose more against L{|f|}: (x - 1/2)^20 on [0, 1) at
    lambda = 1e-3 has L{g} about 5e9 times its transform.  Coefficients
    past the double range count, scaled by a power of two.  A piece that
    starts or ends past the double range raises OutOfRange unless its
    factor e^(-lambda (start - a0)) underflows, as does a piece's sum past
    the double range before the factor e^(-lambda a0) (1 on [0, 10**186)
    then x^2 at lambda = 7e-184), a piece wider than 1 with a moment, the
    integral of (x - s)^k e^(-lambda (x - s)) over it, past the double
    range (10**-300 x^200 on [0, 100) at lambda = 1, about 3.6e56), and a
    value past the double range
    (step_example(10) at lambda = 5e-324 is about 2/lambda): the result is
    always finite.  An int or ratio lambda is taken as its double; a
    positive one whose double is 0 raises OutOfRange too.
    """
    x = _lambda_double(lam)
    a0, E, total = _local_sum(pp, 1, x, lam)
    if a0 is None:
        raise _overflowed(lam)
    u = x * a0
    if u <= 708.0 and not E:
        return total * math.exp(-u)
    value, j = _times_exp(total, u)
    try:
        return math.ldexp(value, E - j)
    except OverflowError:
        raise _overflowed(lam) from None


def ratio_eval_piecewise(pp: PiecewisePoly, n: int, m: int, lam: float) -> float:
    """Power ratio L{pp^n}/L{pp^m} at a single lambda > 0.

    pp^n and pp^m start at the same a0, so the ratio is S_n / S_m of their
    sums in local coordinates (laplace_piecewise), without e^(-lambda a0):
    a function zero on a long [0, a0) keeps its ratio, and a delayed copy
    the same ratio to the last bit.  Each sum keeps laplace_piecewise's
    contract, so the ratio is within about 2e-10 relative when the pieces
    of pp^n and pp^m have nonnegative coefficients about their starts, and
    within 1e-10 (L{g_n}/L{pp^n} + L{g_m}/L{pp^m}) relative in general,
    g_n and g_m the contract's g for pp^n and pp^m.  A sum or a quotient
    that is not finite raises OutOfRange, and an S_m of 0 ZeroDenominator.
    """
    _check_exponents(n, m)
    x = _lambda_double(lam)
    _, em, den = _local_sum(pp, m, x, lam)
    if den == 0.0:
        raise ZeroDenominator(f"L{{f^{m}}}({_shown(lam)}) = 0")
    _, en, num = _local_sum(pp, n, x, lam)
    try:
        h = math.ldexp(num / den, en - em)
    except OverflowError:
        h = math.inf
    if not math.isfinite(h):
        scaled = f" * 2**{en - em}" if en != em else ""
        raise OutOfRange(
            f"L{{f^{n}}}/L{{f^{m}}} at lambda = {_shown(lam)} is {num!r}/{den!r}{scaled}, not a finite double"
        )
    return h


def shift_vanishing(pp: PiecewisePoly, a) -> PiecewisePoly:
    """Shift left by a, i.e. x -> f(x + a), for a function vanishing on [0, a).

    Removes a leading dead zone exactly; raises NotVanishing if the
    function is nonzero anywhere on [0, a).
    """
    aq = as_rational(a)
    if aq < 0:
        raise DomainError("shift distance must be nonnegative")
    if aq == 0:
        return pp
    for i, piece in enumerate(pp.pieces):
        start = pp.breakpoints[i]
        if start >= aq:
            break
        if not piece.is_zero:
            span = f"[{_rational_text(start)}, min({_rational_text(aq)}, next bp))"
            raise NotVanishing(f"function is nonzero on {span}")
    cut = bisect_right(pp.breakpoints, aq) - 1
    new_bps = [Rational(0)] + [b - aq for b in pp.breakpoints[cut + 1 :]]
    new_pieces = [p.compose_linear(aq, 1) for p in pp.pieces[cut:]]
    return PiecewisePoly(new_bps, new_pieces)


def delay(pp: PiecewisePoly, a) -> PiecewisePoly:
    """Shift right by a: zero on [0, a), then f(x - a).  Inverse of
    shift_vanishing on its domain.  a is exact, as as_rational reads it: a
    float shift, finite or not (1e308, nan), raises TypeError, as every
    exact entry point refuses floats."""
    aq = as_rational(a)
    if aq < 0:
        raise DomainError("delay distance must be nonnegative")
    if aq == 0:
        return pp
    new_bps = [Rational(0)] + [b + aq for b in pp.breakpoints]
    new_pieces = [Poly()] + [p.compose_linear(-aq, 1) for p in pp.pieces]
    return PiecewisePoly(new_bps, new_pieces)


def convolution_residual(f: PiecewisePoly, g: PiecewisePoly, n: int, m: int, t: float) -> float:
    """Value at t of f^n * g^m - f^m * g^n, the residual whose vanishing
    for all t is equivalent to equality of the two power ratios.

    Both convolutions integrate powers of p(s) = f(t-s) and q(s) = g(s)
    over s in [0, t], on one cell grid whose edges, 0, t, g's breakpoints
    and t less f's, are integers over D = lcm(den t, D_f, D_g), D_f and
    D_g the lcms of f's and g's breakpoint denominators (a D larger than
    the cells need scales every integer by one factor); one two-pointer
    walk merges the two edge lists.  Each piece in force is cleared and
    raised to its n-th and m-th powers once; a constant piece's powers
    are bare integers.  What depends on f or g alone comes from their
    memo (see PiecewisePoly), derived whole on first use and kept for
    later calls: the breakpoints as integers over D_f or D_g, the piece
    degrees, and, per role, the powers of all of g's pieces, those past t
    too, and of f's constant ones.  Only the work that depends on t is
    done per call: an integer bisect, D, the edges, and the powers of f's
    other pieces, which compose with t - s.  The s^k term c_k s^k of a
    cell's p^n q^m - p^m q^n integrates over [L/D, H/D] to
    c_k (H^(k+1) - L^(k+1)) / ((k+1) D^(k+1)), whose numerator joins an
    integer sum kept per denominator; a cell between two constant pieces
    adds the one product (p^n q^m - p^m q^n) (H - L) to the s^0 sum.  The
    total is divided once, so it is correctly rounded; outside the double
    range it raises OutOfRange.
    """
    _check_exponents(n, m)
    tq = as_rational_number(t)
    if tq < 0:
        raise DomainError("the residual is defined for t >= 0")
    (fi, Df, fdeg), (gi, Dg, gdeg) = f._derive(None, _grid), g._derive(None, _grid)
    tn, td = tq.numerator, tq.denominator
    # the pieces in force on [0, t): b / Df < tn / td iff b < ceil(tn Df / td)
    nf, ng = bisect_left(fi, -(-tn * Df // td)), bisect_left(gi, -(-tn * Dg // td))
    D = lcm(td, Df, Dg)
    T = tn * (D // td)
    # cell edges in units of 1/D, ascending, each list closed by T; the
    # pieces in force before fe[i] and ge[j] are fp[i] and gp[j]
    fe = [T - b * D // Df for b in reversed(fi[1:nf])] + [T]
    ge = [b * D // Dg for b in gi[1:ng]] + [T]
    # slot k of an integrand is its s^k coefficient; no cell has more than
    # top, one past max(n, m) times the top degrees in force on each side
    f_top, g_top = max([0, *fdeg[:nf]]), max([0, *gdeg[:ng]])
    top = max(n, m) * (f_top + g_top) + 1
    fp = f._derive((n, m, True), _pairs, n, m, True)[:nf]
    if f_top:
        # f's pieces that are not constant compose with t - s
        fp = [
            pair if len(p.coeffs) < 2 else _power_pair(p.compose_linear(tq, -1).coeffs, n, m)
            for p, pair in zip(f.pieces, fp)
        ]
    fp.reverse()
    gp = g._derive((m, n, False), _pairs, m, n, False)
    sums = {}
    i = j = lo = 0
    while lo < T:
        a, b = fe[i], ge[j]
        hi = a if a < b else b
        pf, pg = fp[i], gp[j]
        if pf and pg:
            (fn, fm, df), (gm, gn, dg) = pf, pg
            acc = sums.get(df * dg)
            if acc is None:
                acc = sums[df * dg] = [0] * top
            if fn.__class__ is int is gm.__class__:
                # both pieces constant: the integrand is one slot
                acc[0] += (fn * gm - fm * gn) * (hi - lo)
            else:
                # a constant's powers take one slot each
                if fn.__class__ is int:
                    fn, fm = [fn], [fm]
                if gm.__class__ is int:
                    gm, gn = [gm], [gn]
                # slot k is hi^(k+1) - lo^(k+1)
                his = islice(accumulate(repeat(hi), mul), top)
                widths = list(map(sub, his, accumulate(repeat(lo), mul)))
                for k, c in enumerate(algebra._product_nums(fn, gm)):
                    acc[k] += c * widths[k]
                for k, c in enumerate(algebra._product_nums(fm, gn)):
                    acc[k] -= c * widths[k]
        if a == hi:
            i += 1
        if b == hi:
            j += 1
        lo = hi
    # slot k of the sums kept over den is over den * (k+1) * D^(k+1); put
    # them over common, then over common * steps * D^top by Horner in D
    common, steps = lcm(*sums), lcm(*range(1, top + 1))
    slots = [sum(acc[k] * (common // den) for den, acc in sums.items()) for k in range(top)]
    total = 0
    for k, s in enumerate(slots):
        total = total * D + s * (steps // (k + 1))
    whole = common * steps * D ** top
    try:
        return total / whole
    except OverflowError:
        raise OutOfRange(f"the residual at t = {_shown(t)} is not a finite double") from None

