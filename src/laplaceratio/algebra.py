"""Exact arithmetic core: rational scalars, dense polynomials and truncated
power series.

Everything here is immutable after construction and every operation is a
pure function, so values can be shared freely between concurrent tasks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice
from math import factorial, gcd, lcm
from operator import mul

from .errors import DomainError, ZeroLeadingCoefficient

# The exact scalar used throughout: arbitrary precision, always in lowest
# terms, denominator > 0.  fractions.Fraction already guarantees all of
# that, so it simply gets a domain-appropriate name.
Rational = Fraction


def as_rational(value) -> Rational:
    """Coerce an int, a string like '7' or '-3/4', or a Rational.

    Floats are rejected on purpose: silently converting them would smuggle
    binary rounding into the exact layer.
    """
    if isinstance(value, Rational):
        return value
    if isinstance(value, int) or isinstance(value, str):
        return Rational(value)
    raise TypeError(f"expected an exact rational-like value, got {type(value).__name__}")


# Exact products by Kronecker substitution (von zur Gathen & Gerhard,
# Modern Computer Algebra, 8.4): clear a coefficient tuple to integer
# numerators over one denominator, pack the numerators into one signed int
# with w-bit slots, so the polynomial is its value at x = 2**w, and let a
# single big-int product or power do the convolution.  w leaves every
# output numerator below 2**(w-1) in absolute value, so the slots never
# carry into each other and come back out by signed residues.


def _cleared(coeffs):
    """(numerators, denominator, bit bound) with coeffs[i] = nums[i] / den
    and every |nums[i]| < 2**bits."""
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    return nums, den, max(abs(a) for a in nums).bit_length()


def _pack(nums, w: int) -> int:
    """Sum of nums[i] << (w*i), by halves so that no shift copies the whole
    packed int once per slot."""
    if len(nums) == 1:
        return nums[0]
    h = len(nums) // 2
    return _pack(nums[:h], w) + (_pack(nums[h:], w) << (w * h))


def _unpack(stack: list, w: int, den: int) -> list:
    """Rational(c_i, den) for the signed w-bit slots c_i of the one
    (packed int, slot count) pair on stack, lowest slot first.

    The low h slots sum to less than 2**(w*h-1) in absolute value, so they
    are the signed residue of x mod 2**(w*h), and the floor shift of x is
    the high part less one when that residue is negative.  Parts live only
    on the stack, so each split frees the part it splits.
    """
    out = []
    while stack:
        x, count = stack.pop()
        while count > 1:
            h = count // 2
            low = x & ((1 << (w * h)) - 1)
            if low >> (w * h - 1):
                low -= 1 << (w * h)
            stack.append(((x >> (w * h)) + (low < 0), count - h))
            x, count = low, h
        out.append(Rational(x, den))
    return out


class Numerators:
    """A growing sequence of rationals held as integer numerators over one
    common denominator, the lcm of the reduced denominators appended so far.

    A sum of products of two such sequences is one integer dot product over
    the product of their denominators, with no gcd per term (the
    fraction-free idea of Bareiss, Math. Comp. 22 (1968) 565).  The
    numerators are rescaled only when a new denominator does not divide
    the common one; scaling by a fixed power of a leading coefficient
    instead lets the numerators outgrow the reduced values.
    """

    __slots__ = ("nums", "den")

    def __init__(self, values=()):
        self.nums: list[int] = []
        self.den = 1
        for v in values:
            self.append(v)

    def append(self, value) -> None:
        """Append a Rational or an int."""
        d = value.denominator
        if self.den % d:
            scale = d // gcd(self.den, d)
            self.nums = [a * scale for a in self.nums]
            self.den *= scale
        self.nums.append(value.numerator * (self.den // d))


def factorials(top: int) -> list:
    """[0!, 1!, ..., top!] as one running product."""
    return list(accumulate(range(1, top + 1), mul, initial=1))


def _product(a, b) -> list:
    """Coefficients of the product of two nonzero coefficient tuples."""
    na, da, ba = _cleared(a)
    nb, db, bb = _cleared(b)
    w = ba + bb + min(len(a), len(b)).bit_length() + 1
    stack = [(_pack(na, w) * _pack(nb, w), len(a) + len(b) - 1)]
    del na, nb
    return _unpack(stack, w, da * db)


def _power(a, n: int) -> list:
    """Coefficients of the n-th power (n >= 1) of a nonzero coefficient tuple:
    each is a sum of at most len(a)**(n-1) products of n numerators."""
    na, da, ba = _cleared(a)
    w = n * ba + (n - 1) * len(a).bit_length() + 1
    stack = [(_pack(na, w) ** n, n * (len(a) - 1) + 1)]
    del na
    return _unpack(stack, w, da ** n)


class Poly:
    """Dense polynomial over Rational; coeffs[i] is the x**i coefficient.

    Trailing zeros are trimmed, so the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Poly":
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def valuation(self):
        """Index of the lowest nonzero coefficient, or None for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def coefficient(self, i: int) -> Rational:
        """The x**i coefficient, zero beyond the stored degree."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Rational(0)

    def __call__(self, x):
        result = Rational(0)
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            # a constant operand is a scalar product, which the kernel
            # could only slow down
            if len(self.coeffs) == 1:
                return other * self.coeffs[0]
            if len(other.coeffs) == 1:
                return self * other.coeffs[0]
            return Poly(_product(self.coeffs, other.coeffs))
        scalar = as_rational(other)
        return Poly(scalar * c for c in self.coeffs)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial powers take a nonnegative integer exponent")
        if n == 0:
            return Poly((1,))
        if self.is_zero:
            return Poly()
        return Poly(_power(self.coeffs, n))

    def compose_linear(self, a, b) -> "Poly":
        """Return p(a + b*x) expanded exactly."""
        arg = Poly((as_rational(a), as_rational(b)))
        result = Poly()
        for c in reversed(self.coeffs):
            result = result * arg + Poly((c,))
        return result

    def to_string(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{var}" if c != 1 else var)
            else:
                parts.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"


def beta_rational(alpha: int, beta: int) -> Rational:
    """Exact beta-function value (alpha-1)!(beta-1)!/(alpha+beta-1)!.

    Only positive integer arguments are supported.
    """
    if not isinstance(alpha, int) or not isinstance(beta, int):
        raise DomainError("beta_rational takes integer arguments only")
    if alpha < 1 or beta < 1:
        raise DomainError(f"beta_rational requires alpha, beta >= 1, got ({alpha}, {beta})")
    return Rational(factorial(alpha - 1) * factorial(beta - 1), factorial(alpha + beta - 1))


def convolve(p: Poly, q: Poly) -> Poly:
    """Convolution on the half line: (p*q)(t) = integral of p(t-s)q(s) over [0,t].

    By the convolution theorem L{p*q} = L{p} L{q}.  Under the term rule
    L{x^i} = i!/lambda^(i+1) of transforms.laplace_poly, L{p} is u times the
    polynomial with coefficients i! * p_i (u = 1/lambda), so the product of
    the two weighted polynomials holds (i+1)! * (p*q)_(i+1) at u^i.
    """
    if p.is_zero or q.is_zero:
        return Poly()
    fact = factorials(len(p.coeffs) + len(q.coeffs) - 1)
    pw = Poly(map(mul, fact, p.coeffs))
    qw = Poly(map(mul, fact, q.coeffs))
    return Poly([0] + [c / w for c, w in zip((pw * qw).coeffs, islice(fact, 1, None))])


class Series:
    """Power series truncated at a fixed order.

    coeffs always has length order+1 and arithmetic never reports
    coefficients beyond the order.  Mixing two orders truncates to the
    smaller one, matching formal-series semantics.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        cs = [as_rational(c) for c in coeffs]
        if order is None:
            if not cs:
                cs = [Rational(0)]
            order = len(cs) - 1
        if order < 0:
            raise DomainError("series order must be nonnegative")
        if len(cs) <= order:
            cs.extend([Rational(0)] * (order + 1 - len(cs)))
        else:
            cs = cs[: order + 1]
        self.coeffs = tuple(cs)
        self.order = order

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.order)

    def _common_order(self, other: "Series") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        d = self._common_order(other)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(d + 1)], d)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        d = self._common_order(other)
        return Series([self.coeffs[i] - other.coeffs[i] for i in range(d + 1)], d)

    def __mul__(self, other):
        if isinstance(other, Series):
            d = self._common_order(other)
            full = Poly(self.coeffs[: d + 1]) * Poly(other.coeffs[: d + 1])
            return Series(full.coeffs, d)
        scalar = as_rational(other)
        return Series([scalar * c for c in self.coeffs], self.order)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        """Formal long division; the denominator needs a nonzero constant term."""
        if not isinstance(other, Series):
            return NotImplemented
        if not other.coeffs[0]:
            raise ZeroLeadingCoefficient("series division requires denom.coeffs[0] != 0")
        # q_j = (a_j - sum of b_i*q_(j-i) over i = 1..j) / b_0, the sum an
        # integer dot product over b.den*q.den
        d = self._common_order(other)
        b, q = Numerators(), Numerators()
        out: list[Rational] = []
        for a, bj in zip(self.coeffs[: d + 1], other.coeffs):
            b.append(bj)
            s = sum(map(mul, islice(b.nums, 1, None), reversed(q.nums)))
            c = Rational(
                a.numerator * b.den * q.den - a.denominator * s,
                a.denominator * q.den * b.nums[0],
            )
            q.append(c)
            out.append(c)
        return Series(out, d)

    def __pow__(self, n: int):
        """Truncated power: the packed polynomial power, cut at the order."""
        if not isinstance(n, int) or n < 0:
            raise DomainError("series powers take a nonnegative integer exponent")
        return Series((Poly(self.coeffs) ** n).coeffs, self.order)

    def __repr__(self):
        return f"Series([{', '.join(str(c) for c in self.coeffs)}], order={self.order})"
