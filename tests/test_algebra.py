import decimal
import math
import re
import sys
import unicodedata
from fractions import Fraction as F
from math import factorial, lcm
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laplaceratio import algebra
from laplaceratio.algebra import (
    Numerators,
    Poly,
    Series,
    as_rational,
    beta_rational,
    convolve,
    _power_nums,
    _product_nums,
    factorials,
)
from laplaceratio.errors import DomainError, OutOfRange, ZeroLeadingCoefficient
from laplaceratio.identify import power_term

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=6)
small_polys = st.lists(rationals, max_size=6).map(Poly)
degree_12_polys = st.lists(rationals, max_size=13).map(Poly)
DEGREE_40 = Poly([F((-1) ** i * (i % 9 + 1), i % 7 + 1) for i in range(41)])


def fraction_horner(p, a, b):
    """p(a + b*x) by Horner's rule in Poly arithmetic, step by step."""
    arg = Poly((as_rational(a), as_rational(b)))
    result = Poly()
    for c in reversed(p.coeffs):
        result = result * arg + Poly((c,))
    return result


def widths(top):
    # integers of every bit length up to top, so slot widths cross byte boundaries
    return st.integers(0, top).flatmap(lambda b: st.integers(-(2 ** b), 2 ** b))


wide_rationals = st.builds(F, widths(100), widths(40).map(lambda d: abs(d) + 1))
# zero runs, including a zero constant term, come from the zeros mixed in
wide_polys = st.lists(st.one_of(st.just(F(0)), wide_rationals), max_size=24).map(Poly)
# every numerator at its bit width's maximum, one sign: the products that
# come closest to the kernel's slot-width bound
full_polys = st.builds(
    lambda bits, length, sign: Poly([sign * (2 ** bits - 1)] * length),
    st.integers(1, 70),
    st.integers(1, 9),
    st.sampled_from((1, -1)),
)


def mul_by_pairs(p, q):
    # the schoolbook Fraction loop, term by term
    out = [F(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def convolve_by_pairs(p, q):
    # x^a * x^b = a! b! / (a+b+1)! * t^(a+b+1), summed over every pair of terms
    out = [F(0)] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j + 1] += a * b * F(factorial(i) * factorial(j), factorial(i + j + 1))
    return Poly(out)


def divide_by_steps(a, b):
    # the schoolbook Fraction long division, one subtraction per term
    d = min(a.order, b.order)
    out = []
    for j in range(d + 1):
        acc = a.coeffs[j]
        for i in range(1, j + 1):
            acc -= b.coeffs[i] * out[j - i]
        out.append(acc / b.coeffs[0])
    return Series(out, d)


wide_series = st.builds(
    Series, st.lists(st.one_of(st.just(F(0)), wide_rationals), max_size=10), st.integers(0, 8)
)


class TestPoly:
    def test_mul_basic(self):
        one_plus = Poly([1, 1])
        one_minus = Poly([1, -1])
        assert one_plus * one_minus == Poly([1, 0, -1])

    def test_mul_annihilator(self):
        assert Poly([1, 2, 3]) * Poly() == Poly()
        assert Poly() * Poly([5]) == Poly()

    def test_square(self):
        assert Poly([1, 1]) ** 2 == Poly([1, 2, 1])

    def test_pow_monomial(self):
        assert Poly.monomial(3) ** 2 == Poly.monomial(6)

    def test_pow_zero_is_one(self):
        for p in (Poly(), Poly([2, 3]), Poly([0, 0, 7])):
            assert p ** 0 == Poly([1])

    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Poly([0, 0]).is_zero

    def test_degree_and_valuation(self):
        p = Poly([0, 0, 5, 1])
        assert p.degree == 3
        assert p.valuation == 2
        assert Poly().valuation is None

    def test_eval_horner(self):
        p = Poly([1, -2, 1])
        assert p(F(3)) == 4

    def test_a_float_point_gives_the_exact_value_rounded_once(self):
        # Horner in doubles rounds twice, to one ulp below
        p = Poly([1, 1, 1])
        x = float.fromhex("0x1.c81394a2171eap-2")
        assert p(x) == float(1 + F(x) + F(x) ** 2) == 1.6437569466828108
        assert (x + 1) * x + 1 == 1.6437569466828106
        assert isinstance(Poly()(2.5), float) and Poly()(2.5) == 0.0
        assert p(F(1, 2)) == F(7, 4) and isinstance(p(2), F)

    @pytest.mark.parametrize(
        "p, x", [(Poly([10 ** 400]), 1.0), (Poly([0, 0, 1]), 1e200)], ids=["constant", "square"]
    )
    def test_a_value_past_the_double_range_is_refused_at_a_float_point(self, p, x):
        with pytest.raises(OutOfRange, match=f"^the value at x = {re.escape(repr(x))} is not a finite double$"):
            p(x)
        assert p(F(x)) == p.coeffs[-1] * F(x) ** p.degree

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_a_float_point_that_is_not_finite_is_refused(self, x):
        with pytest.raises(DomainError, match="^expected a finite number, got "):
            Poly([1, 1])(x)

    def test_compose_linear(self):
        # p(x) = x^2 composed with 1 + 2x gives 1 + 4x + 4x^2
        assert Poly([0, 0, 1]).compose_linear(1, 2) == Poly([1, 4, 4])

    @given(
        st.one_of(small_polys, wide_polys),
        st.one_of(rationals, wide_rationals),
        st.one_of(rationals, wide_rationals),
    )
    @example(Poly([1, 2, 3]), F(1, 3), 0)
    @example(Poly([F(1, 6), F(-1, 10), 5, F(7, 4)]), F(-5, 2), F(3, 14))
    def test_compose_linear_matches_fraction_horner(self, p, a, b):
        assert p.compose_linear(a, b) == fraction_horner(p, a, b)

    def test_compose_linear_5000_digits(self):
        wide = F(10 ** 5000 + 1, 3)
        p = Poly([1, wide, F(-2, 7)])
        assert p.compose_linear(F(1, 5), wide) == fraction_horner(p, F(1, 5), wide)
        assert p.compose_linear(-wide, 1) == fraction_horner(p, -wide, 1)
        assert p.compose_linear("2/3", -1) == fraction_horner(p, F(2, 3), -1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Poly([0.5])

    @pytest.mark.parametrize("text", ["abc", "1/0", "", "nan", "1/2/3", "-1/0"])
    def test_text_that_is_not_a_rational_is_refused(self, text):
        # Fraction's ValueError or ZeroDivisionError escaped bare
        with pytest.raises(DomainError, match=" is not an exact rational$"):
            Poly([1, text])

    @pytest.mark.parametrize("degree", [-1, -3, -(10 ** 5000)], ids=["-1", "-3", "-10**5000"])
    def test_monomial_refuses_a_negative_degree(self, degree):
        # it returned the constant coeff
        with pytest.raises(DomainError, match="^monomial degree must be nonnegative, got -"):
            Poly.monomial(degree, 5)

    @pytest.mark.parametrize("degree", [2.5, math.nan, F(2), True, None])
    def test_monomial_takes_an_integer_degree(self, degree):
        # a float or a ratio raised a bare TypeError, and True gave x
        with pytest.raises(DomainError, match="^monomial degree must be an integer, got "):
            Poly.monomial(degree)

    def test_monomial_past_a_lists_length_is_out_of_range(self):
        # the tuple of zeros raised a bare OverflowError
        with pytest.raises(OutOfRange, match="^monomial degree 10{20} needs more entries than a list"):
            Poly.monomial(10 ** 20)

    @given(st.one_of(wide_polys, full_polys), st.one_of(wide_polys, full_polys))
    @example(DEGREE_40, -DEGREE_40)
    @example(Poly([255] * 3), Poly([-255] * 3))
    @example(Poly([0, 0, F(-255, 256)]), Poly([F(2 ** 64 + 1, 3)]))
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_pairwise_loop(self, p, q):
        assert p * q == mul_by_pairs(p, q)
        assert q * p == mul_by_pairs(p, q)

    @given(wide_polys, st.one_of(st.just(F(0)), wide_rationals))
    @settings(max_examples=100, deadline=None)
    def test_mul_by_constant_poly(self, p, c):
        assert p * Poly([c]) == Poly([c]) * p == mul_by_pairs(p, Poly([c])) == p * c

    def test_a_constant_operand_takes_the_kernels_scalar_slots(self):
        # a 5000-digit constant times a polynomial, either way round: the
        # kernel's one-slot case, which packs nothing
        c, p = F(10 ** 5000 + 1, 3), Poly([F(1, 7), -2, F(5, 2 ** 60 + 1)])
        with mock.patch.object(algebra, "_slots", side_effect=AssertionError("packed")), \
                mock.patch.object(algebra, "_product_nums", wraps=algebra._product_nums) as kernel:
            assert Poly([c]) * p == p * Poly([c]) == p * c
        assert kernel.call_count == 2

    @given(
        st.one_of(st.lists(st.one_of(st.just(F(0)), wide_rationals), max_size=8).map(Poly), full_polys),
        st.integers(0, 7),
    )
    @example(DEGREE_40, 5)
    @example(Poly([255] * 3), 7)
    @settings(max_examples=200, deadline=None)
    def test_pow_matches_repeated_products(self, p, n):
        want = Poly([1])
        for _ in range(n):
            want = mul_by_pairs(want, p)
        assert p ** n == want

    @given(st.one_of(st.just(F(0)), wide_rationals), st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_constant_pow_is_scalar_pow(self, c, n):
        # no packing for a constant: the scalar power is the whole answer
        with mock.patch.object(algebra, "_power_nums", side_effect=AssertionError) as kernel:
            assert Poly([c]) ** n == Poly([c ** n]) == mul_by_pairs(Poly([1]), Poly([c ** n]))
        assert kernel.call_count == 0

    def test_pow_exponent_validated(self):
        with pytest.raises(DomainError):
            Poly([1, 1]) ** -1
        with pytest.raises(DomainError):
            Poly([1, 1]) ** 1.5

    def test_pow_refuses_a_bool(self):
        # True was taken as 1
        with pytest.raises(DomainError, match="nonnegative integer exponent"):
            Poly([1, 1]) ** True

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60)
    def test_ring_laws(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p


def nums_by_pairs(na, nb):
    # the schoolbook integer convolution
    out = [0] * (len(na) + len(nb) - 1)
    for i, a in enumerate(na):
        for j, b in enumerate(nb):
            out[i + j] += a * b
    return out


# the kernel's crossover moved so that every product takes one path
PATHS = {"ints": 10 ** 30, "decimal": 0}


def on_path(path):
    # packed on the given path, also below the schoolbook cut
    return mock.patch.multiple(algebra, _NTT_BITS=PATHS[path], _SCHOOLBOOK=0)


def nines(digits, count, sign=1):
    # count numerators of the given number of decimal digits, all 9s
    return [sign * (10 ** digits - 1)] * count


# int lists whose products come close to the slot bound: every entry at its
# bit width's maximum, one sign per operand
full_nums = st.builds(
    lambda bits, length, sign: [sign * (2 ** bits - 1)] * length,
    st.integers(1, 200),
    st.integers(1, 9),
    st.sampled_from((1, -1)),
)
wide_nums = st.lists(st.one_of(st.just(0), widths(300)), min_size=1, max_size=24)
# products whose largest slot has 3999, 4001, 4299 and 4301 decimal digits,
# around the 4000 and 4300 digits of the default int <-> str limit
DIGIT_EDGES = [
    (nines(2000, 1), nines(1999, 3)),
    (nines(2000, 2), nines(2000, 3, -1)),
    (nines(2150, 1), nines(2149, 2, -1)),
    (nines(2150, 3), nines(2150, 2)),
]


class TestProductKernel:
    @pytest.mark.parametrize("path", PATHS)
    @given(st.one_of(wide_nums, full_nums), st.one_of(wide_nums, full_nums))
    @example([3, 0, -5, 0], [-1, -2, -7])  # zero slots, an all-negative operand
    @example([-(2 ** 64)], [-3, -(2 ** 100), -1])
    @example([5], [-7])  # one-slot operands
    @example([0], [2 ** 80 + 1])
    @example([2 ** 29 - 1] * 7, [2 ** 29 - 1] * 7)  # 7/8 of the slot bound
    @example(*DIGIT_EDGES[0])
    @example(*DIGIT_EDGES[1])
    @example(*DIGIT_EDGES[2])
    @example(*DIGIT_EDGES[3])
    @settings(max_examples=150, deadline=None)
    def test_matches_schoolbook(self, path, na, nb):
        with on_path(path):
            assert _product_nums(na, nb) == nums_by_pairs(na, nb)
            assert _product_nums(nb, na) == nums_by_pairs(na, nb)

    # TestPoly.test_mul_matches_pairwise_loop covers the schoolbook sum and,
    # past its cut, the int path
    @given(st.one_of(wide_polys, full_polys), st.one_of(wide_polys, full_polys))
    @example(DEGREE_40, -DEGREE_40)
    @example(Poly([F(1, 3)]), Poly([0, F(-5, 7)]))
    @settings(max_examples=100, deadline=None)
    def test_poly_mul_on_decimal_path(self, p, q):
        with on_path("decimal"):
            assert p * q == mul_by_pairs(p, q)

    # 16x16 and 9x72 slots sit on _SCHOOLBOOK's cut, la*lb = 8*(la+lb), and
    # take the sum; 16x17 and 9x73 pack.  5000-digit entries pack past
    # _NTT_BITS, on the decimal path.
    @given(
        st.lists(widths(300), min_size=1, max_size=40),
        st.lists(widths(300), min_size=1, max_size=40),
    )
    @example([2 ** 30 - 1] * 16, [-(2 ** 30 - 1)] * 16)
    @example([2 ** 30 - 1] * 16, [-(2 ** 30 - 1)] * 17)
    @example([-(2 ** 200 + 1)] * 9, [2 ** 200 - 1] * 72)
    @example([-(2 ** 200 + 1)] * 9, [2 ** 200 - 1] * 73)
    @example([10 ** 5000 - 1] * 2, [-(10 ** 4999 + 7)] * 3)
    @example([10 ** 5000 - 1] * 4, [-(10 ** 4999 + 7)] * 70)
    @settings(max_examples=100, deadline=None)
    def test_schoolbook_cut_gives_the_packed_integers(self, na, nb):
        with mock.patch.object(algebra, "_SCHOOLBOOK", 0):
            want = _product_nums(na, nb)
        assert _product_nums(na, nb) == want
        assert _product_nums(nb, na) == want

    def test_schoolbook_cut_is_on_the_slot_counts(self):
        with mock.patch.object(algebra, "_slots", wraps=algebra._slots) as spy:
            _product_nums([1] * 16, [1] * 16)
            _product_nums([1] * 9, [1] * 72)
            assert spy.call_count == 0
            _product_nums([1] * 16, [1] * 17)
            _product_nums([1] * 9, [1] * 73)
            assert spy.call_count == 2

    def test_both_paths_run_at_the_real_crossover(self):
        # a product well above the crossover, and a cut of it well below
        p = Poly([F((-1) ** i * (2 ** 700 - i), i + 1) for i in range(200)])
        q = Poly([F(i - 100 + 2 ** 600, 7) for i in range(150)])
        small_p, small_q = Poly(p.coeffs[:20]), Poly(q.coeffs[:20])
        with mock.patch.object(algebra, "_decimal_unpack", wraps=algebra._decimal_unpack) as spy:
            assert small_p * small_q == mul_by_pairs(small_p, small_q)
            assert spy.call_count == 0
            assert p * q == mul_by_pairs(p, q)
            assert spy.call_count == 1

    def test_callers_decimal_context_is_left_alone(self):
        na, nb = DIGIT_EDGES[3]
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.clear_flags()
            traps = dict(ctx.traps)
            with on_path("decimal"):
                got = _product_nums(na, nb)
            assert decimal.getcontext() is ctx
            assert ctx.prec == 3 and dict(ctx.traps) == traps
            assert not any(ctx.flags.values())
        assert got == nums_by_pairs(na, nb)

    @given(
        st.integers(2, 80).flatmap(
            lambda w: st.tuples(
                st.just(w),
                st.lists(st.integers(1 - 2 ** (w - 1), 2 ** (w - 1) - 1), min_size=1, max_size=40),
            )
        )
    )
    @example((3, [-3, 3, 0, -1, 1, 2, -2, 3]))  # one run of _RUN slots
    @example((3, [-3, 3, 0, -1, 1, 2, -2, 3, -3]))  # a split, then runs
    @example((64, [-(2 ** 63) + 1] * 17))
    @settings(max_examples=150, deadline=None)
    def test_unpack_reads_back_what_pack_packed(self, case):
        w, nums = case
        assert algebra._unpack([(algebra._pack(nums, w), len(nums))], w) == nums

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str digit limit"
    )
    def test_lowest_int_digit_limit(self):
        na, nb = DIGIT_EDGES[2]
        want = nums_by_pairs(na, nb)
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with on_path("decimal"):
                got = _product_nums(na, nb)
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(before)
        assert got == want


def power_by_pairs(na, n):
    # n schoolbook products
    out = [1]
    for _ in range(n):
        out = nums_by_pairs(out, na)
    return out


@st.composite
def power_cases(draw):
    # counts below, at and above the full power's n*(len-1)+1 slots
    na = draw(st.one_of(wide_nums, full_nums, st.lists(widths(40), min_size=1, max_size=12)))
    n = draw(st.integers(1, 6))
    full = n * (len(na) - 1) + 1
    count = draw(st.one_of(st.integers(1, full + 3), st.sampled_from((full - 1, full, full + 1))))
    return na, n, max(count, 1)


class TestTruncatedPower:
    @pytest.mark.parametrize("path", PATHS)
    @given(power_cases())
    @example(([3, -1, 4, -1, 5], 5, 7))
    @example(([-(2 ** 64), 0, 2 ** 64 - 1], 4, 9))  # count = the full power's
    @example(([7], 3, 4))  # one entry, count past the full power
    @example(([0, 0, 5], 2, 3))  # the lowest slots all zero
    @example((nines(2150, 3), 2, 4))  # slots past 4300 decimal digits
    # full powers of a list whose packed value is negative
    @example(([5, -1, 2, -7], 6, 19))
    @example(([5, -1, 2, -7], 7, 22))
    @settings(max_examples=120, deadline=None)
    def test_is_full_power_prefix(self, path, case):
        na, n, count = case
        want = (power_by_pairs(na, n) + [0] * count)[:count]
        with on_path(path):
            assert _power_nums(na, n, count) == want
            if count == n * (len(na) - 1) + 1:
                assert _power_nums(na, n) == want

    def test_both_paths_run_at_the_real_crossover(self):
        # 2400-bit numerators, as 41 coefficients p/q of 60 bits clear to:
        # the fifth power cut to 41 slots packs far above the crossover, the
        # cube of four of them cut to 5 slots far below it
        na = [(-1) ** i * (2 ** 2400 - 3 * i) for i in range(41)]
        with mock.patch.object(algebra, "_decimal_unpack", wraps=algebra._decimal_unpack) as spy:
            assert _power_nums(na[:4], 3, 5) == power_by_pairs(na[:4], 3)[:5]
            assert spy.call_count == 0
            assert _power_nums(na, 5, 41) == power_by_pairs(na, 5)[:41]
            assert spy.call_count == 1

    def test_exponent_zero_is_the_unit(self):
        # a count past one slot raised a bare ValueError (a negative shift)
        assert _power_nums([3, -1, 4], 0, 5) == [1, 0, 0, 0, 0]
        assert _power_nums([3, -1, 4], 0) == [1]
        assert _power_nums([0, 2], 0, 2) == [1, 0]
        assert _power_nums([7], 0, 3) == [1, 0, 0]

    @given(st.integers(1, 64), st.integers(1, 12), st.integers(-(2 ** 1000), 2 ** 1000))
    @example(3, 4, 2 ** 11)  # half the range maps to its negative end
    @example(3, 4, -(2 ** 11))
    @example(3, 4, 2 ** 12 - 1)
    def test_int_cut_is_the_balanced_residue(self, w, count, x):
        top = w * count
        with on_path("ints"):
            _, _, cut, _ = algebra._slots(w, count)
        got = cut(x)
        assert (got - x) % 2 ** top == 0
        assert -(2 ** (top - 1)) <= got < 2 ** (top - 1)


class TestBeta:
    def test_uniform(self):
        assert beta_rational(1, 1) == 1

    def test_linear(self):
        assert beta_rational(2, 1) == F(1, 2)

    def test_factorial_formula_vs_quadrature(self):
        # independent oracle: numeric quadrature of t^2 (1-t)^3 on [0,1]
        from scipy.integrate import quad

        exact = beta_rational(3, 4)
        assert exact == F(1, 60)
        numeric, _ = quad(lambda t: t ** 2 * (1 - t) ** 3, 0, 1)
        assert abs(float(exact) - numeric) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_rational(0, 1)
        with pytest.raises(DomainError):
            beta_rational(1, -2)
        with pytest.raises(DomainError):
            beta_rational(1.5, 2)

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_symmetry(self, a, b):
        assert beta_rational(a, b) == beta_rational(b, a)


class TestConvolve:
    def test_constants(self):
        # 1 * 1 = t
        assert convolve(Poly([1]), Poly([1])) == Poly([0, 1])

    def test_x_with_x(self):
        assert convolve(Poly([0, 1]), Poly([0, 1])) == Poly([0, 0, 0, F(1, 6)])

    def test_one_with_one_plus_x(self):
        # oracle: the integral of 1*(1+s) over [0, t], by quadrature
        got = convolve(Poly([1]), Poly([1, 1]))
        for t in (F(1, 3), F(1), F(5, 2), F(7)):
            oracle = mpmath.quad(lambda s: 1 + s, [0, mpmath.mpf(t.numerator) / t.denominator])
            value = got(t)
            assert mpmath.almosteq(mpmath.mpf(value.numerator) / value.denominator, oracle, 1e-12)
        assert got == Poly([0, 1, F(1, 2)])

    @given(small_polys, small_polys)
    @settings(max_examples=60)
    def test_commutative(self, p, q):
        assert convolve(p, q) == convolve(q, p)

    @given(degree_12_polys, degree_12_polys)
    @example(DEGREE_40 ** 5, (DEGREE_40 + Poly([1])) ** 4)
    @settings(max_examples=80, deadline=None)
    def test_matches_pairwise_formula(self, p, q):
        assert convolve(p, q) == convolve_by_pairs(p, q)

    @given(
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(1, 4),
        st.integers(1, 4),
        rationals.filter(bool),
        rationals.filter(bool),
    )
    @settings(max_examples=40)
    def test_lowest_order_of_power_convolution(self, k, l, n, m, ck, cl):
        # the small-t behavior of f^n * g^m: for f with valuation k and g
        # with valuation l, the convolution starts at degree kn+lm+1 with
        # coefficient a^n b^m / (k!^n l!^m) * B(kn+1, lm+1) where a, b are
        # the leading derivatives
        f = Poly([0] * k + [ck, 1])
        g = Poly([0] * l + [cl, -2, 1])
        conv = convolve(f ** n, g ** m)
        low = k * n + l * m + 1
        assert conv.valuation == low
        a = ck * factorial(k)
        b = cl * factorial(l)
        want = (
            a ** n
            * b ** m
            / (F(factorial(k)) ** n * F(factorial(l)) ** m)
            * beta_rational(k * n + 1, l * m + 1)
        )
        assert conv.coefficient(low) == want


class TestSeries:
    @pytest.mark.parametrize("order", [2.5, math.nan, F(3), True, None])
    def test_order_is_an_integer(self, order):
        # a float or a ratio raised islice's bare ValueError, and True was 1
        with pytest.raises(DomainError, match="^series order must be an integer, got "):
            Series([1], order)

    def test_order_past_a_lists_length_is_out_of_range(self):
        # islice raised a bare ValueError
        with pytest.raises(OutOfRange, match="^series order 10{20} needs more entries than a list"):
            Series([1], 10 ** 20)
        # sys.maxsize + 1 entries too
        with pytest.raises(OutOfRange, match="needs more entries than a list can hold$"):
            Series([1], sys.maxsize)

    def test_division_long_division_oracle(self):
        # (1 + 2u + 2u^2) / (1 + u) to order 3 is 1 + u + u^2 - u^3,
        # frozen from long division by hand: (1+u)(1+u+u^2-u^3) = 1+2u+2u^2-u^4
        num = Series([1, 2, 2], 3)
        den = Series([1, 1], 3)
        assert num / den == Series([1, 1, 1, -1], 3)

    def test_division_identity(self):
        s = Series([3, -1, 4], 2)
        assert s / s == Series([1, 0, 0], 2)

    def test_division_cancels_factor(self):
        # (u + u^2)/(1 + u) = u
        assert Series([0, 1, 1], 3) / Series([1, 1], 3) == Series([0, 1, 0, 0], 3)

    def test_division_requires_unit(self):
        with pytest.raises(ZeroLeadingCoefficient):
            Series([1], 2) / Series([0, 1], 2)

    @given(small_polys, small_polys)
    @settings(max_examples=60)
    def test_division_inverts_multiplication(self, p, q):
        # (p*q)/q reproduces p whenever q(0) != 0
        if q.is_zero or not q.coefficient(0):
            return
        order = max(p.degree, 0) + max(q.degree, 0) + 1
        prod = Series((p * q).coeffs, order)
        quot = prod / Series(q.coeffs, order)
        assert quot == Series(p.coeffs, order)


# nonzero constant terms whose numerator or denominator is at least 2**64
big_units = st.builds(
    F,
    st.integers(2 ** 64, 2 ** 90) | st.integers(-(2 ** 90), -(2 ** 64)),
    widths(70).map(lambda d: abs(d) + 1),
) | st.builds(lambda n, d: F(n, d), st.integers(1, 9), st.integers(2 ** 64, 2 ** 90))
unit_series = st.builds(
    lambda c0, rest, order: Series([c0] + rest, order),
    wide_rationals.filter(bool) | big_units,
    st.lists(st.one_of(st.just(F(0)), wide_rationals), max_size=10),
    st.integers(0, 10),
)


class TestSeriesDivision:
    @given(wide_series, unit_series)
    @example(Series([], 3), Series([2 ** 64 + 1, 1, -1], 3))  # zero numerator
    @example(Series([F(5, 3)], 0), Series([7, 1, 1], 4))  # order 0
    @example(Series([1, 2, 3, 4, 5], 4), Series([F(2 ** 64, 3), 1], 1))  # mixed orders
    @example(Series([1, 2, 3, 4, 5, 6], 5), Series([-(2 ** 65), F(1, 3), F(2, 7), F(1, 5)], 8))
    @settings(max_examples=150, deadline=None)
    def test_matches_long_division(self, a, b):
        got = a / b
        assert got == divide_by_steps(a, b)
        assert got.order == min(a.order, b.order)


class TestNumerators:
    @given(st.lists(st.one_of(st.integers(-5, 5), wide_rationals, big_units), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_common_denominator_is_running_lcm(self, values):
        seq = Numerators()
        for i, v in enumerate(values):
            seq.append(F(v).numerator, F(v).denominator)
            assert seq.den == lcm(1, *(F(w).denominator for w in values[: i + 1]))
            assert [F(a, seq.den) for a in seq.nums] == [F(w) for w in values[: i + 1]]
        # read whole, the values sit over the same denominator
        whole = Numerators(values)
        assert (whole.nums, whole.den) == (seq.nums, seq.den)

    @given(st.integers(-(2 ** 70), 2 ** 70), st.integers(-(2 ** 70), 2 ** 70).filter(bool))
    @example(6, -4)
    @example(0, -7)
    def test_reduced_pair_has_a_positive_denominator(self, num, den):
        a, b = algebra._reduced(num, den)
        assert F(a, b) == F(num, den)
        assert (a, b) == (F(num, den).numerator, F(num, den).denominator)

    def test_factorials(self):
        assert factorials(0) == [1]
        assert factorials(6) == [factorial(i) for i in range(7)]


unit_polys = st.lists(rationals, min_size=1, max_size=9).map(Poly).filter(
    lambda p: p.coefficient(0) != 0
)


class TestSeriesPow:
    @given(unit_polys, st.integers(1, 6), st.integers(1, 8), rationals)
    @settings(max_examples=60, deadline=None)
    def test_newest_coefficient_enters_linearly(self, p, n, j, c):
        # identify relies on this: leaving g_j off gives the value at g_j = 0,
        # and g_j adds n*g_0**(n-1)*g_j to the x^j coefficient of g**n
        g = [p.coefficient(i) for i in range(j)]
        P = Numerators((Poly(g) ** n).coefficient(i) for i in range(j))
        full = Poly(g + [c]) ** n
        num, den = power_term(Numerators(g), P, n)
        assert full.coefficient(j) == F(num, den) + n * g[0] ** (n - 1) * c
        # a g_j already in g is left off too
        assert F(*power_term(Numerators(g + [c]), P, n)) == F(num, den)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str digit limit")
def test_text_of_any_length_under_the_lowest_digit_limit():
    wide = F(10 ** 5000 + 1, 3)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        digits = algebra._rational_text(wide)
        assert as_rational("1" * 5000) == (10 ** 5000 - 1) // 9
        # decimal text of any length too: Fraction's own parser refused it
        assert Poly(["1" * 5000 + ".5"]) == Poly([F((10 ** 5000 - 1) // 9 * 10 + 5, 10)])
        assert as_rational(" -0." + "25" * 400) == -F(25 * (10 ** 800 - 1) // 99, 10 ** 800)
        assert as_rational(f" -{digits} ") == -wide
        p = Poly([wide, 0, "-" + "7" * 5000])
        assert repr(p) == f"Poly([{digits}, 0, -{'7' * 5000}])"
        assert p.to_string() == f"{digits} - {'7' * 5000}*x^2"
        assert repr(Series([wide], 1)) == f"Series([{digits}, 0], order=1)"
    finally:
        sys.set_int_max_str_digits(before)


def test_as_rational_accepts_strings():
    assert as_rational("3/4") == F(3, 4)
    assert as_rational(5) == 5
    with pytest.raises(TypeError):
        as_rational(0.25)


# The regular expression _rational_parts replaced, kept as its reference.
OLD_RATIONAL_TEXT = r"\s*([+-]?\d+)(?:/(\d+))?\s*"
# ASCII digits, ARABIC-INDIC DIGIT THREE, NKO DIGIT ZERO and FULLWIDTH DIGIT
# ZERO; IDEOGRAPHIC SPACE, the file separator and NEXT LINE
TEXT_DIGITS = "0123456789\u0663\u07c0\uff10"
TEXT_SPACES = " \t\n\u3000\x1c\x85"
# with SUPERSCRIPT TWO, a digit to str.isdigit but not a decimal one
TEXT_MARKS = "+-/._e\u00b2"


def digit_value(text):
    """The int a [sign]digits string spells, read digit by digit, so that
    no int <-> str digit limit applies."""
    value = 0
    for ch in text.lstrip("+-"):
        value = 10 * value + unicodedata.decimal(ch)
    return -value if text.startswith("-") else value


def regex_parts(text):
    match = re.fullmatch(OLD_RATIONAL_TEXT, text)
    if match is None:
        return None
    num, den = match.groups()
    return digit_value(num), digit_value(den) if den else 1


digit_runs = st.one_of(
    st.text(st.sampled_from(TEXT_DIGITS), min_size=1, max_size=4),
    # past 640 digits, the lowest int <-> str limit
    st.builds(
        lambda run, n: run * n,
        st.text(st.sampled_from(TEXT_DIGITS), min_size=1, max_size=3),
        st.integers(641, 700),
    ),
)
text_tokens = st.one_of(st.sampled_from(TEXT_DIGITS + TEXT_SPACES + TEXT_MARKS), digit_runs)
rational_like_texts = st.one_of(
    st.lists(text_tokens, max_size=8).map("".join),
    # mostly well formed: [spaces][sign]digits[/digits][spaces], a mark in between
    st.builds(
        lambda pad, sign, num, mark, den, end: pad + sign + num + mark + den + end,
        st.text(st.sampled_from(TEXT_SPACES), max_size=2),
        st.sampled_from(("", "+", "-", "--")),
        digit_runs,
        st.sampled_from(("/", "/", ".", "", " ", "_", "e")),
        st.one_of(st.just(""), digit_runs),
        st.text(st.sampled_from(TEXT_SPACES), max_size=2),
    ),
)


class TestRationalText:
    @given(rational_like_texts)
    @example("\u0663/\u07c0")  # a zero denominator is read, and left to the caller
    @example("\u3000-12/5\x85\x1c")
    @example("+" + "7" * 700 + "/" + "\uff10" * 641 + "9")
    @example("1/2/3")
    @example("-\u00b2")
    @example("-")
    @example("")
    @settings(max_examples=300, deadline=None)
    def test_parts_match_the_regular_expression(self, text):
        assert algebra._rational_parts(text) == regex_parts(text)

    def test_strip_and_isdecimal_are_the_classes_of_the_expression(self):
        # str.strip removes what \s matches, and str.isdecimal holds for
        # what \d matches, on every code point
        space, digit = re.compile(r"\s"), re.compile(r"\d")
        chars = map(chr, range(sys.maxunicode + 1))
        odd = [
            ch
            for ch in chars
            if (space.fullmatch(ch) is None) != bool(ch.strip())
            or (digit.fullmatch(ch) is None) == ch.isdecimal()
        ]
        assert odd == []

    @given(rational_like_texts.filter(lambda text: len(text) < 600))
    @example("-0.25")
    @example(" +12.50\t")
    @example("-.5")
    @example("7.")
    @example("\u0663.\u0665")
    @example("1 .5")
    @example(". 5")
    @example("1/2.5")
    @example("1..5")
    @example(".-5")
    @example("1.5e3")
    @settings(max_examples=300, deadline=None)
    def test_short_text_reads_as_fraction_reads_it(self, text):
        # integer, p/q and decimal text go through the digit-safe readers,
        # the rest to Fraction as before: the same value or a DomainError
        try:
            want = F(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(DomainError, match=" is not an exact rational$"):
                as_rational(text)
        else:
            assert as_rational(text) == want
