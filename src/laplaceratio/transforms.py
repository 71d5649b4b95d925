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
    that __pow__ returns, and under (a, b, constant_only) the _pairs of
    every piece.  Only _derive reads or writes it, and stores each entry
    once, whole, with setdefault, so every caller gets the first value
    stored, even when two threads build one at once.  It takes no part in
    ==, repr or pickling.
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


def _exp_weighted_moments(a: float, b: float | None, degree: int, lam: float) -> list[float]:
    # I_j = integral of x^j e^(-lam x) over [a, b] (b = None means infinity),
    # by the upward incomplete-gamma recurrence
    ea = math.exp(-lam * a)
    eb = math.exp(-lam * b) if b is not None else 0.0
    vals = [(ea - eb) / lam]
    for j in range(1, degree + 1):
        # x**j * e(x) is 0.0 where e(x) underflowed, without the power,
        # which may overflow; so is the term at b = infinity
        boundary = (a ** j * ea if ea else 0.0) - (b ** j * eb if eb else 0.0)
        vals.append((boundary + j * vals[j - 1]) / lam)
    return vals


def laplace_piecewise(pp: PiecewisePoly, lam: float) -> float:
    """Numeric Laplace transform of a piecewise polynomial at lambda > 0.

    Each piece contributes a closed-form integral, from the upward
    incomplete-gamma recurrence in doubles.  The recurrence cancels
    catastrophically on a piece with lambda * width < degree + 1, or one
    that starts at x > 0, so the result can be far from the true value
    there (x^12 on [0, 1/100) at lambda = 1 gives -2.6e-8, not 7.6e-28).
    A needed boundary power that overflows a double, or a value past the
    double range (step_example(10) at lambda = 5e-324 is about 2/lambda),
    raises OutOfRange: the result is always finite.  An int or ratio
    lambda is taken as its double; a positive one whose double is 0 raises
    OutOfRange too.
    """
    if not -math.inf < lam < math.inf:
        raise DomainError(f"lambda must be finite and positive, got {_shown(lam)}")
    if lam <= 0:
        raise DivergentTransform(f"transform requires lambda > 0, got {_shown(lam)}")
    total = 0.0
    ends = list(pp.breakpoints[1:]) + [None]
    try:
        for start, end, piece in zip(pp.breakpoints, ends, pp.pieces):
            if piece.is_zero:
                continue
            moments = _exp_weighted_moments(
                float(start), None if end is None else float(end), piece.degree, lam
            )
            total += sum(float(c) * moments[j] for j, c in enumerate(piece.coeffs))
    except (OverflowError, ZeroDivisionError):  # or a positive exact lambda whose double is 0
        total = math.inf
    if not math.isfinite(total):
        raise OutOfRange(
            f"the float path overflowed a double evaluating the transform at lambda = {_shown(lam)}"
        )
    return total


def ratio_eval_piecewise(pp: PiecewisePoly, n: int, m: int, lam: float) -> float:
    """Power ratio L{pp^n}/L{pp^m} at a single lambda > 0."""
    _check_exponents(n, m)
    den = laplace_piecewise(pp ** m, lam)
    if den == 0.0:
        raise ZeroDenominator(f"L{{f^{m}}}({_shown(lam)}) = 0")
    num = laplace_piecewise(pp ** n, lam)
    h = num / den
    if not math.isfinite(h):
        raise OutOfRange(
            f"L{{f^{n}}}/L{{f^{m}}} at lambda = {_shown(lam)} is {num!r}/{den!r}, not a finite double"
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

