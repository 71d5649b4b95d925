"""Exact arithmetic core: rational scalars, dense polynomials and truncated
power series.

Poly and Series are Frozen values: immutable after construction, with
fields that refuse assignment, and every operation on them is a pure
function, so values can be shared freely between concurrent tasks.
Numerators, the one mutable class, is an accumulator that a single
computation owns.
"""

from __future__ import annotations

import sys
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
)
from fractions import Fraction
from itertools import accumulate, islice
from math import factorial, gcd, isfinite, lcm
from operator import attrgetter, mul

from .errors import DomainError, OutOfRange, ZeroLeadingCoefficient

# The exact scalar used throughout: arbitrary precision, always in lowest
# terms, denominator > 0.  fractions.Fraction already guarantees all of
# that, so it simply gets a domain-appropriate name.
Rational = Fraction


def as_rational(value) -> Rational:
    """Coerce an int, a string like '7' or '-3/4', or a Rational.

    Integer, 'p/q' and plain decimal strings ('-12.5') of any length are
    read by _rational_parts and _decimal_parts; other strings go to
    Fraction as they are, and text that none of them reads, or a zero
    denominator, raises DomainError.  Floats are rejected on purpose:
    silently converting them would smuggle binary rounding into the exact
    layer.
    """
    if isinstance(value, Rational):
        return value
    if isinstance(value, int):
        return Rational(value)
    if isinstance(value, str):
        parts = _rational_parts(value) or _decimal_parts(value)
        try:
            return Rational(value) if parts is None else Rational(*parts)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"{value!r} is not an exact rational") from None
    raise TypeError(f"expected an exact rational-like value, got {type(value).__name__}")


def as_rational_number(x) -> Rational:
    """Exact conversion accepting finite floats too (binary floats are
    exact); a NaN or an infinity raises DomainError."""
    if isinstance(x, float):
        if not isfinite(x):
            raise DomainError(f"expected a finite number, got {x!r}")
        return Rational(x)
    return as_rational(x)


def _rational_parts(text: str):
    """(numerator, denominator) of an integer or 'p/q' string of any length,
    surrounding whitespace allowed, or None for any other text.  The
    denominator is 1 for an integer and may be 0.

    The text read is that of the regular expression
    \\s*([+-]?\\d+)(?:/(\\d+))?\\s*, since str.strip removes exactly the
    characters \\s matches and str.isdecimal holds for exactly those \\d
    matches, Unicode decimal digits included, which int() reads."""
    num, slash, den = text.strip().partition("/")
    if _is_numeral(num) and (not slash or den.isdecimal()):
        return _text_int(num), _text_int(den) if slash else 1
    return None


def _decimal_parts(text: str):
    """(numerator, denominator) of a decimal string [sign]digits.digits of
    any length, either run of digits possibly empty but not both, and
    surrounding whitespace allowed, or None for any other text."""
    whole, dot, frac = text.strip().partition(".")
    if dot and (not frac or frac.isdecimal()) and _is_numeral(whole + frac):
        return _text_int(whole + frac), 10 ** len(frac)
    return None


def _is_numeral(text: str) -> bool:
    """True for a run of decimal digits with an optional sign."""
    return (text[1:] if text[:1] in ("+", "-") else text).isdecimal()


# Exact products by Kronecker substitution (von zur Gathen & Gerhard,
# Modern Computer Algebra, 8.4): clear a coefficient tuple to integer
# numerators over one denominator, read the numerators as the digits of one
# integer, so that the polynomial is its value at a power of the base, and
# let a single big-integer product or power do the convolution.  The slot
# width leaves every output numerator below half the base in absolute
# value, so the slots never carry into each other and come back out as
# balanced (signed) digits.  _slots packs, multiplies, cuts and unpacks for
# one slot width and count; products and powers, full or cut to their
# lowest slots, all run on it.
#
# _NTT_BITS is the packed size where _slots moves from base 2**w with
# CPython ints (Karatsuba) to base 10**W with the stdlib decimal module,
# whose libmpdec multiplies large operands by a number-theoretic transform;
# below it the decimal conversions cost more than the transform saves.  The
# two cost about the same there on products of Laplace-weighted powers
# (Python 3.11.7, x86-64): _product_nums on the decimal path takes 1.6x the
# time of the int path at 85 kbit, about the same from 180 to 280 kbit, and
# 1.6x, 2x and 3.7x less at 440 kbit, 830 kbit (d=40, (5,4)) and 3.8 Mbit
# (d=80, (5,4)).
_NTT_BITS = 250_000

# _product_nums takes the schoolbook sum when len(na)*len(nb) is at most
# _SCHOOLBOOK times len(na)+len(nb).  The schoolbook's cost grows with the
# la*lb entry products, the packed product's with its la+lb-1 slots, each
# packed and unpacked once; the two cost about the same at
# la*lb = 8*(la+lb) (Python 3.11.7, x86-64): 16x16 slots took 36 against
# 31 us at 30 bits, 102 against 116 us at 200 bits and 1.20 against
# 1.22 ms at 2000 bits, while 2x2 slots took 1.0 against 5.0 us and 4x4
# 2.8 against 10.1 us at 30 bits, and 2x64 slots 12 against 82 us.
_SCHOOLBOOK = 8

# int <-> str conversions go through pieces of at most this many digits, the
# lowest limit sys.set_int_max_str_digits accepts, so that no setting of the
# limit refuses one
_DIGITS = 640
_DIGITS_BASE = 10 ** _DIGITS


def _bits(nums) -> int:
    """Bit length of the largest |a| in a nonempty integer list."""
    return max(abs(a) for a in nums).bit_length()


def _cleared(coeffs):
    """(numerators, denominator) with coeffs[i] = nums[i] / den."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


# _pack and _unpack split a list in halves down to runs of at most this
# many slots, which they shift in one at a time: a slot's shift then copies
# a packed part of at most _RUN slots, where a split costs more calls.  At
# 41 slots of 100 bits (Python 3.11.7, x86-64) packing took 11 against
# 28 us with runs of one slot, and unpacking 17 against 23 us.
_RUN = 8


def _pack(nums, w: int) -> int:
    """Sum of nums[i] << (w*i), by halves so that no shift copies the whole
    packed int once per slot."""
    if len(nums) <= _RUN:
        x = 0
        for a in reversed(nums):
            x = (x << w) + a
        return x
    h = len(nums) // 2
    return _pack(nums[:h], w) + (_pack(nums[h:], w) << (w * h))


def _unpack(stack: list, w: int) -> list:
    """The signed w-bit slots of the one (packed int, slot count) pair on
    stack, lowest slot first.

    The low h slots sum to less than 2**(w*h-1) in absolute value, so they
    are the signed residue of x mod 2**(w*h), and the floor shift of x is
    the high part less one when that residue is negative.  Parts live only
    on the stack, so each split frees the part it splits, down to a run of
    at most _RUN slots, read off one slot at a time the same way.
    """
    out = []
    mask = (1 << w) - 1
    while stack:
        x, count = stack.pop()
        while count > _RUN:
            h = count // 2
            low = x & ((1 << (w * h)) - 1)
            if low >> (w * h - 1):
                low -= 1 << (w * h)
            stack.append(((x >> (w * h)) + (low < 0), count - h))
            x, count = low, h
        for _ in range(count - 1):
            low = x & mask
            if low >> (w - 1):
                low -= mask + 1
            out.append(low)
            x = (x - low) >> w
        out.append(x)
    return out


def _to_digits(a: int, width: int) -> str:
    """0 <= a < 10**width as a zero-padded decimal string."""
    pieces = []
    while a >= _DIGITS_BASE:
        a, low = divmod(a, _DIGITS_BASE)
        pieces.append(str(low).zfill(_DIGITS))
    pieces.append(str(a).zfill(width - _DIGITS * len(pieces)))
    return "".join(reversed(pieces))


def _from_digits(s: str) -> int:
    """The integer a nonempty decimal string spells."""
    head = len(s) % _DIGITS or _DIGITS
    x = int(s[:head])
    for i in range(head, len(s), _DIGITS):
        x = x * _DIGITS_BASE + int(s[i : i + _DIGITS])
    return x


def _int_text(a: int) -> str:
    """str(a) for an int of any length: one str() below 10**_DIGITS."""
    if -_DIGITS_BASE < a < _DIGITS_BASE:
        return str(a)
    return "-" + _to_digits(-a, 1) if a < 0 else _to_digits(a, 1)


def _text_int(s: str) -> int:
    """int(s) for a decimal string of any length with an optional sign: one
    int() up to _DIGITS characters."""
    if len(s) <= _DIGITS:
        return int(s)
    x = _from_digits(s[1:] if s[0] in "+-" else s)
    return -x if s[0] == "-" else x


def _rational_text(q) -> str:
    """str(q) for a Rational of any length: 'p/q', or 'p' when q is 1."""
    num = _int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_text(q.denominator)}"


def _shown(x):
    """x for a message: ints and ratios of any length as _rational_text
    prints them, where str() can refuse, and a bool as itself."""
    return _rational_text(x) if _is_integer(x) or isinstance(x, Rational) else x


def _is_integer(x) -> bool:
    """True for an int that is not a bool, the only value an integer
    parameter takes."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_integer(value, name: str) -> None:
    """DomainError unless value is an int that is not a bool."""
    if not _is_integer(value):
        raise DomainError(f"{name} must be an integer, got {_shown(value)}")


def _require_size(value: int, name: str) -> None:
    """OutOfRange where the nonnegative int value is sys.maxsize or more,
    so that value + 1 entries are more than a list can hold."""
    if value >= sys.maxsize:
        raise OutOfRange(f"{name} {_shown(value)} needs more entries than a list can hold")


def _decimal_pack(nums, width: int, ctx: Context) -> Decimal:
    """Sum of nums[i] * 10**(width*i): the positive slots' digit string
    less the negative slots' one."""
    zeros = "0" * width
    pos = "".join(_to_digits(a, width) if a > 0 else zeros for a in reversed(nums))
    neg = "".join(_to_digits(-a, width) if a < 0 else zeros for a in reversed(nums))
    return ctx.subtract(ctx.create_decimal(pos), ctx.create_decimal(neg))


def _decimal_unpack(x: Decimal, count: int, width: int) -> list:
    """The count balanced base-10**width slots of x, lowest first, for x of
    at most count*width digits whose slots are all below half the base in
    absolute value."""
    digits = str(x.copy_abs()).zfill(count * width)
    base = 10 ** width
    out, borrow = [], 0
    for end in range(count * width, 0, -width):
        c = _from_digits(digits[end - width : end]) + borrow
        borrow = 1 if 2 * c >= base else 0
        out.append(c - base if borrow else c)
    return [-c for c in out] if x.is_signed() else out


def _exact_context() -> Context:
    """A context with room for every digit that traps any rounding, so a
    lost digit raises instead of changing a product.  Only its methods, ==
    and the quiet copy_abs touch the kernel's decimals, since the arithmetic
    operators and abs() round to the thread's context."""
    return Context(
        prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[InvalidOperation, Inexact, Rounded]
    )


def _width(w: int) -> int:
    """Decimal digits W with 10**W > 2**w."""
    return w * 30103 // 100000 + 1  # 30103/100000 > log10(2)


def _slot_width(na, nb) -> int:
    """Bits w whose balanced slots, below 2**(w-1) in absolute value, hold
    every slot of the product of two nonempty integer lists: each is a sum
    of at most min(len(na), len(nb)) products."""
    return _bits(na) + _bits(nb) + min(len(na), len(nb)).bit_length() + 1


def _slots(w: int, count: int):
    """(pack, times, cut, unpack) for count balanced slots of w bits.

    pack turns an integer list of at most count entries into one packed
    value, times multiplies two packed values, cut keeps the lowest count
    slots of one, and unpack reads those count slots back, lowest first.
    The packed value of the low count slots is the value mod base**count,
    whatever lies above them.  Below _NTT_BITS packed bits the values are
    CPython ints in base 2**w, multiplied by Karatsuba, and cut gives the
    balanced residue, so no negative value grows to the full width before
    the next product.  Above it they are decimals in base 10**W > 2**w,
    multiplied by libmpdec's number-theoretic transform, and cut keeps the
    low count*W digits, sign and all, which Context.shift does at a
    precision of count*W digits; _decimal_unpack reads the balanced slots
    of either sign.
    """
    if w * count < _NTT_BITS:
        half = 1 << (w * count - 1)
        mask = 2 * half - 1
        return (
            lambda nums: _pack(nums, w),
            mul,
            lambda x: ((x + half) & mask) - half,
            lambda x: _unpack([(x, count)], w),
        )
    width = _width(w)
    ctx = _exact_context()
    low = Context(prec=count * width, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return (
        lambda nums: _decimal_pack(nums, width, ctx),
        ctx.multiply,
        lambda x: low.shift(x, 0),
        lambda x: _decimal_unpack(x, count, width),
    )


def _product_nums(na, nb) -> list:
    """Slots of the product of two nonempty integer coefficient lists."""
    # a one-slot operand is a scalar, which no sum could speed up
    if len(nb) == 1:
        na, nb = nb, na
    if len(na) == 1:
        return [na[0] * b for b in nb]
    if len(na) * len(nb) <= _SCHOOLBOOK * (len(na) + len(nb)):
        out = [0] * (len(na) + len(nb) - 1)
        for i, a in enumerate(na):
            for j, b in enumerate(nb):
                out[i + j] += a * b
        return out
    pack, times, _, unpack = _slots(_slot_width(na, nb), len(na) + len(nb) - 1)
    return unpack(times(pack(na), pack(nb)))


def _power_nums(na, n: int, count: int | None = None) -> list:
    """The lowest count slots (count >= 1; by default all n*(len(na)-1)+1)
    of the n-th power (n >= 0) of a nonempty integer coefficient list, zero
    past the last; the 0-th power is the unit [1, 0, ...].

    Only na's first count entries reach those slots, and each slot is a sum
    of at most len(na)**(n-1) products of n entries.  Left-to-right
    square-and-multiply cuts every product to the slots kept, so no product
    is wider than twice the result.
    """
    if count is None:
        count = n * (len(na) - 1) + 1
    na = na[:count]
    if len(na) == 1 or not n:
        return [na[0] ** n] + [0] * (count - 1)
    slots = min(count, n * (len(na) - 1) + 1)
    w = n * _bits(na) + (n - 1) * len(na).bit_length() + 1
    pack, times, cut, unpack = _slots(w, slots)
    x = y = pack(na)
    for bit in bin(n)[3:]:
        y = cut(times(y, y))
        if bit == "1":
            y = cut(times(y, x))
    return unpack(y) + [0] * (count - slots)


class Numerators:
    """A growing sequence of rationals held as integer numerators over one
    common denominator, the lcm of the reduced denominators held so far.
    The values are appended as reduced (numerator, denominator) pairs, so
    no Fraction is built for a value that is only summed over.

    A sum of products of two such sequences is one integer dot product over
    the product of their denominators, with no gcd per term (the
    fraction-free idea of Bareiss, Math. Comp. 22 (1968) 565).  The
    numerators are rescaled only when a new denominator does not divide
    the common one; scaling by a fixed power of a leading coefficient
    instead lets the numerators outgrow the reduced values.
    """

    __slots__ = ("nums", "den")

    def __init__(self, values=()):
        """The Rationals or ints in values, over the lcm of their
        denominators."""
        self.nums, self.den = _cleared(list(values))

    def append(self, num: int, den: int) -> None:
        """Append num/den, a pair in lowest terms with den > 0."""
        if self.den % den:
            scale = den // gcd(self.den, den)
            self.nums = [a * scale for a in self.nums]
            self.den *= scale
        self.nums.append(num * (self.den // den))


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator, den != 0."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _quotient(na, nb, count: int) -> list:
    """The first count coefficients of the power series quotient of two
    integer lists, entries past their ends zero and nb[0] != 0.

    q_j = (a_j - sum of b_i*q_(j-i) over i = 1..j) / b_0, the sum an
    integer dot product over the quotient's running common denominator.
    """
    q = Numerators()
    out: list[Rational] = []
    for j in range(count):
        s = sum(map(mul, islice(nb, 1, None), reversed(q.nums)))
        c = Rational((na[j] if j < len(na) else 0) * q.den - s, q.den * nb[0])
        q.append(c.numerator, c.denominator)
        out.append(c)
    return out


def factorials(top: int) -> list:
    """[0!, 1!, ..., top!] as one running product."""
    return list(accumulate(range(1, top + 1), mul, initial=1))


def _field_text(name: str, value) -> str:
    """name=repr(value), with an int of any length printed by _int_text."""
    return f"{name}={_int_text(value) if isinstance(value, int) else repr(value)}"


class Frozen:
    """Base of the immutable value classes, here and in the other modules.

    A subclass names its fields in __slots__, in its __init__'s parameter
    order, and its __init__ stores them with _set_fields once its checks
    pass; a slot whose name starts with an underscore is private state,
    not a field.  Instances then behave as those of
    dataclasses.dataclass(frozen=True) do: == holds between instances of
    one class with equal fields, the hash is that of the field tuple, repr
    reads Name(field=value, ...), and assignment and deletion raise
    AttributeError.  Pickle and copy rebuild through __init__ from the
    fields alone.  A subclass may print its own repr or compare in its own
    way, and one that is not to be hashed sets __hash__ = None.  Importing
    dataclasses loads inspect and its chain, a large share of a CLI call's
    start-up, so it is not used.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._names = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        get = attrgetter(*names)
        # the field tuple, which a dataclass compares and hashes; attrgetter
        # returns a lone field bare
        cls._fields = get if len(names) > 1 else staticmethod(lambda obj: (get(obj),))

    def _set_fields(self, *values):
        """Store __init__'s checked values, one per field in slot order."""
        for name, value in zip(self._names, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = map(_field_text, self._names, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__ refuses
        return type(self), self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Poly(Frozen):
    """Dense polynomial over Rational; coeffs[i] is the x**i coefficient.

    Trailing zeros are trimmed, so the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._set_fields(tuple(cs))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Poly":
        _require_integer(degree, "monomial degree")
        if degree < 0:
            raise DomainError(f"monomial degree must be nonnegative, got {_shown(degree)}")
        _require_size(degree, "monomial degree")
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
        """The value at x, exact at an exact point.  At a float, the value
        at the float's exact value, rounded once; OutOfRange names x where
        that is past the double range, and a NaN or an infinity raises
        DomainError."""
        if isinstance(x, float):
            value = self(as_rational_number(x))
            try:
                return float(value)
            except OverflowError:
                raise OutOfRange(f"the value at x = {x!r} is not a finite double") from None
        result = Rational(0)
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

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
            na, da = _cleared(self.coeffs)
            nb, db = _cleared(other.coeffs)
            den = da * db
            return Poly([Rational(c, den) for c in _product_nums(na, nb)])
        scalar = as_rational(other)
        return Poly(scalar * c for c in self.coeffs)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if not _is_integer(n) or n < 0:
            raise DomainError("polynomial powers take a nonnegative integer exponent")
        if n == 0:
            return Poly((1,))
        if self.is_zero:
            return Poly()
        # a constant's power is a scalar power, which takes no gcd of
        # p**n and q**n as Rational(p**n, q**n) would
        if len(self.coeffs) == 1:
            return Poly((self.coeffs[0] ** n,))
        na, da = _cleared(self.coeffs)
        den = da ** n
        return Poly([Rational(c, den) for c in _power_nums(na, n)])

    def compose_linear(self, a, b) -> "Poly":
        """Return p(a + b*x) expanded exactly.

        Horner's rule runs on integers: with p = sum nums[i] x**i / den of
        degree d, and a = A/D, b = B/D over one denominator D, it builds
        sum nums[i] (A + B x)**i D**(d-i), which is den D**d p(a + b*x).
        """
        if len(self.coeffs) < 2:
            return self
        nums, den = _cleared(self.coeffs)
        a, b = as_rational(a), as_rational(b)
        D = lcm(a.denominator, b.denominator)
        A, B = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)
        acc, scale = [nums[-1]], 1
        for c in reversed(nums[:-1]):
            scale *= D
            acc = [A * r + B * s for r, s in zip(acc + [0], [0] + acc)]
            acc[0] += c * scale
        den *= scale
        return Poly(Rational(r, den) for r in acc)

    def to_string(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            text = _rational_text(c)
            if i == 0:
                parts.append(text)
            elif i == 1:
                parts.append(f"{text}*{var}" if c != 1 else var)
            else:
                parts.append(f"{text}*{var}^{i}" if c != 1 else f"{var}^{i}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Poly([{', '.join(map(_rational_text, self.coeffs))}])"


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
    the two weighted polynomials holds (i+1)! * (p*q)_(i+1) at u^i.  That
    product is the kernel's packed product of the weighted numerators,
    divided by (i+1)! once per coefficient.
    """
    if p.is_zero or q.is_zero:
        return Poly()
    na, da = _cleared(p.coeffs)
    nb, db = _cleared(q.coeffs)
    fact = factorials(len(na) + len(nb) - 1)
    den = da * db
    slots = _product_nums(list(map(mul, fact, na)), list(map(mul, fact, nb)))
    return Poly([0] + [Rational(c, den * w) for c, w in zip(slots, islice(fact, 1, None))])


class Series(Frozen):
    """Power series in u truncated at a fixed order: the tail of a ratio
    expansion.  coeffs always has length order+1; shorter input is padded
    with zeros and longer input is cut.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        _require_integer(order, "series order")
        if order < 0:
            raise DomainError("series order must be nonnegative")
        _require_size(order, "series order")
        cs = [as_rational(c) for c in islice(coeffs, order + 1)]
        self._set_fields(tuple(cs) + (Rational(0),) * (order + 1 - len(cs)), order)

    def __truediv__(self, other):
        """Formal long division to the smaller order; the denominator needs
        a nonzero constant term."""
        if not isinstance(other, Series):
            return NotImplemented
        if not other.coeffs[0]:
            raise ZeroLeadingCoefficient("series division requires denom.coeffs[0] != 0")
        # both sides over one denominator, which cancels in the quotient
        d = min(self.order, other.order)
        nums, _ = _cleared(self.coeffs[: d + 1] + other.coeffs[: d + 1])
        return Series(_quotient(nums[: d + 1], nums[d + 1 :], d + 1), d)

    def __repr__(self):
        return f"Series([{', '.join(map(_rational_text, self.coeffs))}], order={self.order})"
