"""Recover the Taylor coefficients of a function from an expansion of its
power ratio L{f^n}/L{f^m} at infinity.

The recursion works on the reduced form of the ratio.  Writing k for the
lowest nonzero coefficient index of f, the shifted transform series

    A_j = (kn+j)! [x^(kn+j)] f^n      B_j = (km+j)! [x^(km+j)] f^m

satisfy A = T * B where T is the expansion tail, so each unknown Taylor
coefficient enters the residual A - T*B linearly at a fresh order and is
pinned down by a nonvanishing pivot.
"""

from __future__ import annotations

from itertools import islice
from math import factorial, gcd
from operator import mul

from .algebra import (
    Frozen,
    Numerators,
    Poly,
    Rational,
    _int_text,
    _is_integer,
    _rational_text,
    _reduced,
    _require_integer,
    _shown,
    beta_rational,
)
from .errors import DomainError, InconsistentRatio, InsufficientOrder, IrrationalRoot, NoRealRoot
from .transforms import RatioExpansion, _check_exponents


class RatioSpec(Frozen):
    """The exponent pair (n, m) of a power ratio; distinct positive integers."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        _check_exponents(n, m)
        self._set_fields(n, m)


class IdentifyResult(Frozen):
    """Canonical recovered polynomial.

    When the exponent difference is even the ratio cannot see a global
    sign, so the representative with positive leading coefficient is
    returned and ambiguous_sign is set.
    """

    __slots__ = ("poly", "ambiguous_sign", "recovered_degree", "k")

    def __init__(self, poly: Poly, ambiguous_sign: bool, recovered_degree: int, k: int):
        self._set_fields(poly, ambiguous_sign, recovered_degree, k)


def infer_order(H: RatioExpansion, spec: RatioSpec) -> int:
    """Lowest nonzero coefficient index k of the source, read off the
    leading exponent: lead = k*(m-n)."""
    diff = spec.m - spec.n
    if H.lead % diff != 0:
        raise InconsistentRatio(
            f"leading exponent {_int_text(H.lead)} is not a multiple of m-n = {diff}"
        )
    k = H.lead // diff
    if k < 0:
        raise InconsistentRatio(f"leading exponent {_int_text(H.lead)} implies negative order {_int_text(k)}")
    return k


def leading_coefficient(H: RatioExpansion, spec: RatioSpec, k: int):
    """Solve for the k-th derivative a = f^(k)(0) from the tail's constant
    term via a^(n-m) = T_0 * (km)! * (k!)^(n-m) / (kn)!.

    Returns (a, ambiguous).  When n-m is odd the real root is unique; when
    n-m is even the right side must be positive and the positive root is
    returned with ambiguous = True.  An irrational root raises
    IrrationalRoot.
    """
    _require_integer(k, "k")
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {_int_text(k)}")
    t0 = H.tail.coeffs[0]
    e = spec.n - spec.m
    # the right side, inverted when e < 0, as a reduced integer pair
    num, den = t0.numerator * factorial(k * spec.m), t0.denominator * factorial(k * spec.n)
    if e > 0:
        num *= factorial(k) ** e
    else:
        num, den, e = den * factorial(k) ** -e, num, -e
    num, den = _reduced(num, den)
    ambiguous = e % 2 == 0
    if ambiguous and num < 0:
        raise NoRealRoot(
            "even exponent difference with negative normalized leading value"
            f" {_rational_text(Rational(num, den))}"
        )
    root_num = _exact_nth_root(abs(num), e)
    root_den = _exact_nth_root(den, e)
    if root_num is None or root_den is None:
        mag = _rational_text(Rational(abs(num), den))
        raise IrrationalRoot(f"{mag} has no rational root of index {e}")
    # roots of coprime integers are coprime
    return Rational(root_num if num > 0 else -root_num, root_den), ambiguous


def _exact_nth_root(x: int, e: int) -> int | None:
    # floor integer e-th root by Newton iteration (bit-length start, so
    # arbitrarily large ints are fine); None when x is not a perfect power
    if x in (0, 1) or e == 1:
        return x
    r = 1 << ((x.bit_length() - 1) // e + 1)
    while True:
        nxt = ((e - 1) * r + x // r ** (e - 1)) // e
        if nxt >= r:
            break
        r = nxt
    return r if r ** e == x else None


def pivot_value(k: int, l: int, spec: RatioSpec) -> Rational:
    """The bracket n*B(k(n-1)+l+1, km+1) - m*B(k(m-1)+l+1, kn+1) that makes
    the coefficient at degree l uniquely solvable; nonzero whenever n != m.
    """
    if not (_is_integer(k) and _is_integer(l) and 0 <= k < l):
        raise DomainError(f"pivot needs l > k >= 0, got (k, l) = ({_shown(k)}, {_shown(l)})")
    n, m = spec.n, spec.m
    return n * beta_rational(k * (n - 1) + l + 1, k * m + 1) - m * beta_rational(
        k * (m - 1) + l + 1, k * n + 1
    )


def power_term(g: Numerators, P: Numerators, n: int) -> tuple[int, int]:
    """Coefficient j >= 1 of g**n from the j coefficients P_0..P_(j-1)
    before it, as a (numerator, denominator) pair of ints.

    J.C.P. Miller's recurrence for powers of a formal series (Knuth, TAOCP
    vol. 2, 4.7): j*g_0*P_j = sum over i = 1..j of ((n+1)*i - j)*g_i*P_(j-i).
    g_0 must be nonzero and coefficients of g past its length count as 0.
    g_j enters only through the i = j term, as n*g_0**(n-1)*g_j, so leaving
    it off gives the value at g_j = 0 and that slope completes it.  The sum
    (n+1)*sum(i*g_i*P_(j-i)) - j*sum(g_i*P_(j-i)) runs on the numerators,
    and g's common denominator cancels against g_0's.
    """
    if n == 1:  # g's own coefficient j, which leaving g_j off makes 0
        return 0, 1
    j = len(P.nums)
    weights = range(n + 1 - j, n * j, n + 1)  # (n+1)*i - j for i = 1..j-1
    acc = sum(map(mul, map(mul, weights, islice(g.nums, 1, j)), reversed(P.nums)))
    return acc, j * g.nums[0] * P.den


def _recover(g0: Rational, T, k: int, spec: RatioSpec, count: int) -> list:
    # g0 and the `count` coefficients after it.  Coefficient j solves the
    # order-j residual A_j - sum_r T_r B_(j-r), in which it enters A_j and
    # B_j linearly (power_term); g**n, g**m and B grow one coefficient per
    # step.  As g0**(n-m) = T_0*(km)!/(kn)! (leading_coefficient), g_j's slope
    #     g0**(n-1) * (kn)! * (n*R_n(j) - m*R_m(j)),  R_n(j) = (kn+1)...(kn+j),
    # is g0**(n-1)*(k(n+m)+j+1)!/(km)! times pivot_value(k, k+j): never 0.
    # Each sequence is kept as Numerators of reduced integer pairs, so a step
    # is integer dot products and gcds, and builds one Rational, the
    # recovered coefficient.  The tail is appended a term per step: read
    # whole over the lcm of its denominators, it carries that lcm into
    # every step, which made identify about 30% slower at 60-bit
    # coefficients and d = 80 (Python 3.11.7, x86-64).
    if len(T) <= count:
        raise InsufficientOrder(
            f"tail order {len(T) - 1} too short: "
            f"coefficient {_int_text(k + count)} first appears at order {_int_text(count)}"
        )
    n, m = spec.n, spec.m
    p, q = g0.numerator, g0.denominator
    g, G, Tr = [g0], Numerators([g0]), Numerators(T[:1])
    Pn, Pm, B = Numerators(), Numerators(), Numerators()
    Pn.append(p ** n, q ** n)
    Pm.append(p ** m, q ** m)
    B.append(*_reduced(factorial(k * m) * p ** m, q ** m))
    fn, fm = factorial(k * n + 1), factorial(k * m + 1)  # (kn+j)!, (km+j)!
    # slopes dn/dnd and dm/dmd of P_j in g_j, n*g0**(n-1) and m*g0**(m-1);
    # the residual's, fn*dn/dnd - T_0*fm*dm/dmd, is (fn*sn - fm*sm)/sd
    dnn, dnd = _reduced(n * p ** (n - 1), q ** (n - 1))
    dmn, dmd = _reduced(m * p ** (m - 1), q ** (m - 1))
    t0n, t0d = T[0].numerator, T[0].denominator
    sd, sn, sm = dnd * dmd * t0d, dnn * dmd * t0d, t0n * dmn * dnd
    for j in range(1, count + 1):
        Tr.append(T[j].numerator, T[j].denominator)
        # P_j at g_j = 0 is an/vn for g**n and am/vm for g**m
        an, vn = power_term(G, Pn, n)
        am, vm = power_term(G, Pm, m)
        conv = sum(map(mul, islice(Tr.nums, 1, None), reversed(B.nums)))
        # vn*vm*Tr.den*B.den times the residual fn*an/vn - T_0*fm*am/vm - conv/(Tr.den*B.den)
        res = (fn * an * vm * Tr.den - Tr.nums[0] * fm * am * vn) * B.den - conv * vn * vm
        c = Rational(-res * sd, vn * vm * Tr.den * B.den * (fn * sn - fm * sm))
        cn, cd = c.numerator, c.denominator
        pn, pd = _reduced(an * dnd * cd + dnn * cn * vn, vn * dnd * cd)
        qn, qd = _reduced(am * dmd * cd + dmn * cn * vm, vm * dmd * cd)
        h = gcd(fm, qd)  # B_j = fm * P_j for g**m, qd already prime to qn
        G.append(cn, cd)
        Pn.append(pn, pd)
        Pm.append(qn, qd)
        B.append(fm // h * qn, qd // h)
        g.append(c)
        fn *= k * n + j + 1
        fm *= k * m + j + 1
    return g


def identify(H: RatioExpansion, spec: RatioSpec, target_degree: int) -> IdentifyResult:
    """Recover the source polynomial through the target degree.

    Runs infer_order, then leading_coefficient, then the sequential
    coefficient recursion.  If H came from a polynomial of degree at most
    target_degree the result equals it exactly, up to a global sign when
    n-m is even (the canonical representative has a positive leading
    coefficient).  The tail must reach order target_degree - k, the order
    at which the last coefficient first appears.
    """
    _require_integer(target_degree, "target degree")
    if target_degree < 0:
        raise DomainError("target degree must be nonnegative")
    k = infer_order(H, spec)
    a, ambiguous = leading_coefficient(H, spec, k)
    g = _recover(a / factorial(k), H.tail.coeffs, k, spec, target_degree - k)
    return IdentifyResult(
        poly=Poly([0] * k + g),
        ambiguous_sign=ambiguous,
        recovered_degree=max(target_degree, k),
        k=k,
    )


def verify_identity(f: Poly, g: Poly, spec: RatioSpec) -> bool:
    """Exact test of the convolution identity f^n * g^m = f^m * g^n, which
    holds iff the two power ratios coincide.

    By the paper's uniqueness theorem, nonzero polynomials satisfy it iff
    g = f, or g = -f with n-m even, so two comparisons decide and nothing
    is built.  The proof, for nonzero f and g:

    - L{f^m} is nonzero, so the identity says H_f = H_g as rational
      functions, and their expansions at infinity are equal;
    - the leads k(m-n) agree, so f and g have the same valuation k, and
      T_0 (leading_coefficient) fixes g_k = f_k, or g_k = -f_k when n-m
      is even;
    - _recover solves each later coefficient g_(k+s), s >= 1, from a
      linear equation whose pivot is pivot_value(k, k+s).  Over
      (k(n+m)+s+1)! that is a positive multiple of n*R_n(s) - m*R_m(s),
      R_p(s) = (kp+1)...(kp+s), and for n > m each factor kn+i >= km+i,
      so n*R_n(s) >= n*R_m(s) > m*R_m(s) (n < m is symmetric): the pivot
      is nonzero with the sign of n-m;
    - so g_k and the expansion fix g, and sigma*f with sigma = +-1 and
      sigma^(n-m) = 1 has both: g = sigma*f.

    g = -f is read off the coefficients without building -f: a Fraction is
    kept reduced with a positive denominator, so -x and y are equal iff
    their numerators are opposite and their denominators equal.
    """
    if f.is_zero or g.is_zero:
        return True  # both sides are the zero function
    a, b = f.coeffs, g.coeffs
    if a == b:
        return True
    if (spec.n - spec.m) % 2 or len(a) != len(b):
        return False
    return all(x.numerator == -y.numerator and x.denominator == y.denominator for x, y in zip(a, b))
