import math
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product
from math import factorial
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laplaceratio import algebra
from laplaceratio.algebra import Poly, Series, convolve
from laplaceratio.errors import (
    DomainError,
    InconsistentRatio,
    InsufficientOrder,
    IrrationalRoot,
    NoRealRoot,
)
from laplaceratio.identify import (
    RatioSpec,
    identify,
    infer_order,
    leading_coefficient,
    pivot_value,
    verify_identity,
)
from laplaceratio.transforms import RatioExpansion, ratio_expansion, ratio_rational


ODD_SPECS = [RatioSpec(2, 1), RatioSpec(3, 2), RatioSpec(1, 2), RatioSpec(5, 2)]
EVEN_SPECS = [RatioSpec(3, 1), RatioSpec(5, 3), RatioSpec(4, 2)]


def expansion_for(f, spec, target):
    k = f.valuation
    order = k * (spec.n + spec.m - 1) + target + 1
    return ratio_expansion(f, spec.n, spec.m, order)


small_coeffs = st.integers(-3, 3)

# degree 40, valuation 3, coefficients p/q with small p, q
DEGREE_40_K3 = Poly([0, 0, 0] + [F((-1) ** i * (i % 9 + 1), i % 7 + 1) for i in range(38)])

# degree 160, coefficients p/q with 60-bit p and q, drawn from a fixed seed
_wide = Random(160)
DEGREE_160_WIDE = Poly(
    [
        F(_wide.choice((1, -1)) * _wide.randrange(1, 2 ** 60), _wide.randrange(1, 2 ** 60))
        for _ in range(161)
    ]
)


# numerators and denominators up to 2**60
wide_coeffs = st.builds(F, st.integers(-(2 ** 60), 2 ** 60), st.integers(1, 2 ** 60))
small_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=30)
WIDE_SPECS = [RatioSpec(2, 1), RatioSpec(1, 2), RatioSpec(5, 4), RatioSpec(3, 1)]
# p/q with p and q of exactly 60 bits, p of either sign
sixty_bit_coeffs = st.builds(
    lambda sign, p, q: F(sign * p, q),
    st.sampled_from((1, -1)),
    st.integers(2 ** 59, 2 ** 60 - 1),
    st.integers(2 ** 59, 2 ** 60 - 1),
)
PAIR_SPECS = WIDE_SPECS + [RatioSpec(4, 2)]


def poly_strategy(max_degree=6):
    return st.lists(small_coeffs, min_size=1, max_size=max_degree + 1).map(Poly).filter(
        lambda p: not p.is_zero
    )


class TestRatioSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            RatioSpec(2, 2)
        with pytest.raises(DomainError):
            RatioSpec(0, 1)
        with pytest.raises(DomainError):
            RatioSpec(-1, 2)


class TestIntegerParameters:
    # a float or a ratio raised a bare TypeError, and True was taken as 1
    @pytest.mark.parametrize("n, m", [(True, 2), (2, True), (1.0, 2), (2, F(1))])
    def test_spec_refuses_what_is_not_an_int(self, n, m):
        with pytest.raises(DomainError, match="^exponents must be positive integers, got "):
            RatioSpec(n, m)

    @pytest.mark.parametrize("degree", [2.5, math.nan, F(5, 2), True])
    def test_identify_takes_an_integer_target_degree(self, degree):
        H = ratio_expansion(Poly([1, 1]), 2, 1, 8)
        with pytest.raises(DomainError, match="^target degree must be an integer, got "):
            identify(H, RatioSpec(2, 1), degree)

    def test_a_target_degree_of_any_length_is_named(self):
        # str() of a 5000-digit count raised ValueError under the default
        # int <-> str digit limit
        H = ratio_expansion(Poly([1, 1]), 2, 1, 3)
        big = 10 ** 5000
        with pytest.raises(InsufficientOrder, match=f"^tail order 3 too short: coefficient 1{'0' * 4999}0 "):
            identify(H, RatioSpec(2, 1), big)

    @pytest.mark.parametrize("k", [-1, 2.5, F(1), True])
    def test_leading_coefficient_takes_a_nonnegative_integer(self, k):
        # a negative k raised factorial's ValueError, a float its TypeError
        H = ratio_expansion(Poly([1, 1]), 2, 1, 3)
        with pytest.raises(DomainError, match="^k must be "):
            leading_coefficient(H, RatioSpec(2, 1), k)

    @pytest.mark.parametrize("k, l", [(True, 2), (0, True), (-(10 ** 5000), 2)], ids=["True-2", "0-True", "-10**5000-2"])
    def test_pivot_takes_integers(self, k, l):
        with pytest.raises(DomainError, match="^pivot needs l > k >= 0"):
            pivot_value(k, l, RatioSpec(2, 1))


class TestInferOrder:
    def test_zero_lead(self):
        H = RatioExpansion(0, Series([1], 2))
        assert infer_order(H, RatioSpec(2, 1)) == 0

    def test_monomial_lead(self):
        H = ratio_expansion(Poly([0, 1]), 3, 1, 2)
        assert H.lead == -2
        assert infer_order(H, RatioSpec(3, 1)) == 1

    def test_wrong_sign_rejected(self):
        H = RatioExpansion(1, Series([1], 2))
        with pytest.raises(InconsistentRatio):
            infer_order(H, RatioSpec(2, 1))

    def test_indivisible_rejected(self):
        H = RatioExpansion(-1, Series([1], 2))
        with pytest.raises(InconsistentRatio):
            infer_order(H, RatioSpec(3, 1))

    @given(poly_strategy(4), st.sampled_from(ODD_SPECS + EVEN_SPECS), st.integers(0, 3))
    @settings(max_examples=60)
    def test_order_consistency(self, p, spec, k):
        if not p.coefficient(0):
            p = p + Poly([1])
        f = Poly.monomial(k) * p
        H = ratio_expansion(f, spec.n, spec.m, 2)
        assert infer_order(H, spec) == k


class TestLeadingCoefficient:
    def test_odd_case(self):
        H = ratio_expansion(Poly([1, 1]), 2, 1, 3)
        assert H.tail.coeffs[0] == 1
        a, ambiguous = leading_coefficient(H, RatioSpec(2, 1), 0)
        assert (a, ambiguous) == (1, False)

    def test_even_case_positive_root(self):
        H = ratio_expansion(Poly([0, 1]), 3, 1, 3)
        assert H.tail.coeffs[0] == 6
        a, ambiguous = leading_coefficient(H, RatioSpec(3, 1), 1)
        assert (a, ambiguous) == (1, True)

    def test_constant(self):
        H = ratio_expansion(Poly([2]), 2, 1, 2)
        a, ambiguous = leading_coefficient(H, RatioSpec(2, 1), 0)
        assert (a, ambiguous) == (2, False)

    def test_negative_exponent_difference(self):
        H = ratio_expansion(Poly([3, 1]), 1, 2, 3)
        a, ambiguous = leading_coefficient(H, RatioSpec(1, 2), 0)
        assert (a, ambiguous) == (3, False)

    def test_irrational_root_exact_mode(self):
        H = RatioExpansion(0, Series([2], 4))
        with pytest.raises(IrrationalRoot):
            leading_coefficient(H, RatioSpec(3, 1), 0)

    def test_no_real_root(self):
        H = RatioExpansion(0, Series([-1], 4))
        with pytest.raises(NoRealRoot):
            leading_coefficient(H, RatioSpec(3, 1), 0)

    def test_higher_derivative_normalization(self):
        # f = x^2: f''(0) = 2, Taylor coefficient 1
        H = ratio_expansion(Poly([0, 0, 1]), 2, 1, 3)
        a, _ = leading_coefficient(H, RatioSpec(2, 1), 2)
        assert a == 2


class TestPivot:
    def test_first_example(self):
        # 2*B(2,1) - 1*B(2,1); cross-checked against the solve slope below
        assert pivot_value(0, 1, RatioSpec(2, 1)) == F(1, 2)

    def test_second_example(self):
        # 2*B(4,2) - 1*B(3,3) = 2/20 - 1/30
        assert pivot_value(1, 2, RatioSpec(2, 1)) == F(1, 15)

    @given(
        st.integers(0, 4),
        st.integers(1, 4),
        st.sampled_from(ODD_SPECS + EVEN_SPECS),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_proportional_to_solve_slope(self, k, step, spec, ck):
        # independent route to the same quantity: the order-j residual is
        # linear in the coefficient c at degree l, so its slope is the
        # difference of two plain-Poly residuals at c = 0 and c = 1
        n, m = spec.n, spec.m
        l = k + step
        j = l - k
        T = ratio_expansion(Poly.monomial(k, ck), n, m, j).tail.coeffs

        def residual(c):
            f = Poly.monomial(k, ck) + Poly.monomial(l, c)
            fn, fm = f ** n, f ** m
            A = factorial(k * n + j) * fn.coefficient(k * n + j)
            B = [factorial(k * m + i) * fm.coefficient(k * m + i) for i in range(j + 1)]
            return A - sum(T[i] * B[j - i] for i in range(j + 1))

        d = k * (n + m - 1) + l
        predicted = F(ck) ** (n - 1) * F(factorial(d + 1), factorial(k * m)) * pivot_value(
            k, l, spec
        )
        assert residual(1) - residual(0) == predicted

    def test_closed_form(self):
        # pivot_value(k, k+j) * (k(n+m)+j+1)! = (kn)! (km)! (n R_n(j) - m R_m(j))
        # with R_n(j) = (kn+1)...(kn+j), a bracket with the sign of n - m:
        # the recursion's slope, which is therefore never zero
        def rising(kn, j):
            return factorial(kn + j) // factorial(kn)

        for k, j, n, m in product(range(7), range(1, 8), range(1, 6), range(1, 6)):
            if n == m:
                continue
            bracket = n * rising(k * n, j) - m * rising(k * m, j)
            assert (bracket > 0) == (n > m)
            scaled = pivot_value(k, k + j, RatioSpec(n, m)) * factorial(k * (n + m) + j + 1)
            assert scaled == factorial(k * n) * factorial(k * m) * bracket

    def test_requires_l_above_k(self):
        with pytest.raises(DomainError):
            pivot_value(2, 2, RatioSpec(2, 1))

    @given(st.integers(0, 12), st.integers(1, 12), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=120)
    def test_never_vanishes(self, k, step, n, m):
        if n == m:
            return
        assert pivot_value(k, k + step, RatioSpec(n, m)) != 0

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 29), st.integers(1, 39))
    @example(12, 11, 29, 39)
    @example(11, 12, 29, 1)
    @settings(max_examples=200, deadline=None)
    def test_has_the_sign_of_n_minus_m(self, n, m, k, s):
        # the lemma behind verify_identity: every pivot of the recursion is
        # nonzero with the sign of n - m, so f and its expansion fix each
        # coefficient after the lowest
        if n == m:
            return
        pivot = pivot_value(k, k + s, RatioSpec(n, m))
        assert pivot != 0 and (pivot > 0) == (n > m)


class TestNextCoefficient:
    # the recursion one coefficient at a time: target degree k + j asks for
    # the coefficients through the j-th after the leading one

    def test_one_plus_x(self):
        H = expansion_for(Poly([1, 1]), RatioSpec(2, 1), 1)
        assert identify(H, RatioSpec(2, 1), 1).poly == Poly([1, 1])

    def test_constant_source(self):
        H = expansion_for(Poly([1]), RatioSpec(2, 1), 1)
        result = identify(H, RatioSpec(2, 1), 1)
        assert result.poly == Poly([1])
        assert result.recovered_degree == 1

    def test_sparse_cubic(self):
        spec = RatioSpec(3, 2)
        H = expansion_for(Poly([0, 1, 0, 1]), spec, 3)
        assert identify(H, spec, 2).poly == Poly([0, 1])
        assert identify(H, spec, 3).poly == Poly([0, 1, 0, 1])

    def test_insufficient_order(self):
        H = ratio_expansion(Poly([1, 1, 1]), 2, 1, 1)
        with pytest.raises(InsufficientOrder) as err:
            identify(H, RatioSpec(2, 1), 2)
        assert str(err.value) == "tail order 1 too short: coefficient 2 first appears at order 2"


class TestIdentify:
    def test_roundtrip_one_plus_x(self):
        H = ratio_expansion(Poly([1, 1]), 2, 1, 8)
        result = identify(H, RatioSpec(2, 1), 3)
        assert result.poly == Poly([1, 1])
        assert not result.ambiguous_sign
        assert result.k == 0

    def test_roundtrip_monomial_even(self):
        H = ratio_expansion(Poly([0, 1]), 3, 1, 8)
        result = identify(H, RatioSpec(3, 1), 2)
        assert result.poly == Poly([0, 1])
        assert result.ambiguous_sign

    def test_negated_source_canonicalized(self):
        H = ratio_expansion(-Poly([1, 1]), 3, 1, 10)
        result = identify(H, RatioSpec(3, 1), 1)
        assert result.poly == Poly([1, 1])
        assert result.ambiguous_sign

    def test_requires_enough_order(self):
        # coefficient D = 3 first appears at tail order D - k = 3 - 1
        f = Poly([0, 1, 1])
        with pytest.raises(InsufficientOrder) as err:
            identify(ratio_expansion(f, 2, 1, 1), RatioSpec(2, 1), 3)
        assert str(err.value) == "tail order 1 too short: coefficient 3 first appears at order 2"
        assert identify(ratio_expansion(f, 2, 1, 2), RatioSpec(2, 1), 3).poly == f

    def test_fractional_coefficients(self):
        f = Poly([F(1, 2), F(-3, 7), 0, F(2, 5)])
        H = expansion_for(f, RatioSpec(3, 2), 5)
        assert identify(H, RatioSpec(3, 2), 5).poly == f

    @given(poly_strategy(), st.sampled_from(ODD_SPECS))
    @example(DEGREE_40_K3, RatioSpec(5, 4))
    @example(DEGREE_40_K3, RatioSpec(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_odd(self, f, spec):
        H = expansion_for(f, spec, f.degree)
        result = identify(H, spec, f.degree)
        assert result.poly == f
        assert not result.ambiguous_sign

    @given(poly_strategy(), st.sampled_from(EVEN_SPECS))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_even(self, f, spec):
        H = expansion_for(f, spec, f.degree)
        result = identify(H, spec, f.degree)
        canonical = f if f.coeffs[f.valuation] > 0 else -f
        assert result.poly == canonical
        assert result.ambiguous_sign

    @given(poly_strategy(12), st.sampled_from(ODD_SPECS + EVEN_SPECS), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_at_lowest_order(self, g, spec, shift):
        # tail order D - k is enough for every coefficient through degree D
        f = Poly.monomial(shift) * g
        k = f.valuation
        H = ratio_expansion(f, spec.n, spec.m, f.degree - k)
        result = identify(H, spec, f.degree)
        assert result.poly == (-f if result.ambiguous_sign and f.coeffs[k] < 0 else f)


    @given(
        st.integers(0, 3),
        st.lists(wide_coeffs, min_size=1, max_size=9).filter(lambda cs: cs[0] != 0),
        st.sampled_from(WIDE_SPECS),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_wide_denominators(self, k, coeffs, spec):
        f = Poly([0] * k + coeffs)
        H = ratio_expansion(f, spec.n, spec.m, f.degree - k)
        result = identify(H, spec, f.degree)
        assert result.poly == (-f if result.ambiguous_sign and coeffs[0] < 0 else f)

    # every entry p/q of 60 bits each, so every pair _recover reduces is
    # wide; with a negative leading coefficient and an even difference, a
    # pair left with a negative denominator gives the wrong sign
    @given(
        st.integers(0, 3),
        st.lists(sixty_bit_coeffs, min_size=1, max_size=22),
        st.sampled_from(PAIR_SPECS),
    )
    @example(3, [-F(2 ** 60 - 1, 2 ** 59 + 1)] + [F(2 ** 60 - 3, 2 ** 59 + 7)] * 21, RatioSpec(3, 1))
    @example(3, [-F(2 ** 60 - 1, 2 ** 59 + 1)] + [F(2 ** 60 - 3, 2 ** 59 + 7)] * 21, RatioSpec(4, 2))
    @example(0, [-F(2 ** 59 + 5, 2 ** 60 - 5), F(-(2 ** 59 + 1), 2 ** 59 + 3)] * 11, RatioSpec(5, 4))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_sixty_bit_pairs(self, k, coeffs, spec):
        f = Poly([0] * k + coeffs)
        H = ratio_expansion(f, spec.n, spec.m, f.degree - k)
        result = identify(H, spec, f.degree)
        assert result.poly == (-f if result.ambiguous_sign and coeffs[0] < 0 else f)
        assert result.ambiguous_sign == ((spec.n - spec.m) % 2 == 0)

    @given(
        st.integers(0, 3),
        st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
        st.lists(st.one_of(small_fractions, wide_coeffs), max_size=8),
        st.sampled_from(WIDE_SPECS),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovered_poly_reproduces_any_tail(self, k, a, rest, spec):
        # a tail no polynomial need produce, with T_0 chosen so that the
        # leading value a^(n-m) = T_0 (km)! (k!)^(n-m) / (kn)! has a root
        n, m = spec.n, spec.m
        t0 = a ** (n - m) * factorial(k * n) / (factorial(k * m) * F(factorial(k)) ** (n - m))
        H = RatioExpansion(k * (m - n), Series([t0] + rest, len(rest)))
        result = identify(H, spec, k + len(rest))
        assert ratio_expansion(result.poly, n, m, len(rest)) == H


@st.composite
def negation_pairs(draw):
    # g is f or -f as it is, perturbed in one coefficient or scaled, or is
    # unrelated; coefficients small or p/q of 60 bits
    coeffs = st.one_of(small_fractions, wide_coeffs)
    f = draw(st.lists(coeffs, max_size=8).map(Poly))
    signed = draw(st.sampled_from((f, -f)))
    g = draw(
        st.one_of(
            st.just(signed),
            st.builds(lambda i, c: signed + Poly.monomial(i, c), st.integers(0, 8), coeffs),
            st.builds(lambda c: signed * c, coeffs),
            st.lists(coeffs, max_size=8).map(Poly),
        )
    )
    return f, g


class TestVerifyIdentity:
    def test_equal_functions(self):
        f = Poly([1, 1])
        assert verify_identity(f, f, RatioSpec(2, 1))

    def test_different_functions(self):
        assert not verify_identity(Poly([1, 1]), Poly([1, 2]), RatioSpec(2, 1))

    def test_sign_symmetry_even(self):
        p = Poly([2, 0, -1])
        assert verify_identity(p, -p, RatioSpec(3, 1))

    @given(negation_pairs(), st.sampled_from(ODD_SPECS + EVEN_SPECS))
    @example((Poly([1, F(-2, 3), 5]), Poly([-1, F(2, 3)])), RatioSpec(3, 1))  # -f cut short
    @example((Poly([F(1, 3), 2]), Poly([F(-1, 4), -2])), RatioSpec(3, 1))  # unequal denominators
    @example((Poly([F(1, 3), 2]), Poly([F(-2, 3), -2])), RatioSpec(3, 1))  # unequal numerators
    @settings(max_examples=150, deadline=None)
    def test_matches_comparing_with_minus_f(self, pair, spec):
        # the coefficient check gives the booleans of the expression it
        # replaced, which built -f
        f, g = pair
        even = (spec.n - spec.m) % 2 == 0
        want = f.is_zero or g.is_zero or g == f or (even and g == -f)
        assert verify_identity(f, g, spec) is want

    @given(poly_strategy(4), poly_strategy(4), st.sampled_from(ODD_SPECS + EVEN_SPECS))
    @settings(max_examples=60, deadline=None)
    def test_matches_rational_function_equality(self, f, g, spec):
        lhs = verify_identity(f, g, spec)
        rhs = ratio_rational(f, spec.n, spec.m) == ratio_rational(g, spec.n, spec.m)
        assert lhs == rhs


def verify_by_convolutions(f, g, spec):
    # the identity's definition: two convolutions of Fraction polynomials
    n, m = spec.n, spec.m
    return convolve(f ** n, g ** m) == convolve(f ** m, g ** n)


# the kernel's crossover moved so that every product takes one path
PATHS = {"ints": 10 ** 30, "decimal": 0}
ORACLE_SPECS = [RatioSpec(2, 1), RatioSpec(1, 2), RatioSpec(5, 4), RatioSpec(3, 1)]
oracle_polys = st.lists(small_fractions, max_size=6).map(Poly)


@st.composite
def identity_pairs(draw):
    # g is zero, f up to a constant c (c^n = c^m only for c = 1, and for
    # c = -1 when n - m is even), f perturbed, or unrelated, of any degree
    f = draw(oracle_polys)
    g = draw(
        st.one_of(
            st.just(Poly()),
            st.sampled_from((1, -1, 2, F(-1, 3))).map(lambda c: f * c),
            st.builds(lambda i, c: f + Poly.monomial(i, c), st.integers(0, 7), small_fractions),
            oracle_polys,
        )
    )
    return f, g


ORACLE_EXAMPLES = [
    ((Poly(), Poly([1, 2])), RatioSpec(2, 1)),  # zero f
    ((Poly([0, 3]), Poly()), RatioSpec(5, 4)),  # zero g
    ((Poly([2, 0, -1]), Poly([-2, 0, 1])), RatioSpec(3, 1)),  # f = -g, c^n = c^m
    ((Poly([2, 0, -1]), Poly([-2, 0, 1])), RatioSpec(2, 1)),  # f = -g, c^n != c^m
    ((Poly([1, 1]), Poly([2, 2])), RatioSpec(1, 2)),
    ((Poly([1, 1]), Poly([1, 1, 1])), RatioSpec(5, 4)),  # unequal degrees
    ((Poly([F(1, 3), 1]), Poly([F(1, 5), 1])), RatioSpec(2, 1)),  # unequal denominators
]


def with_oracle_examples(test):
    for pair, spec in reversed(ORACLE_EXAMPLES):
        test = example(pair, spec)(test)
    return test


@contextmanager
def builds_nothing():
    # no exact power and no product may be built; transforms calls the
    # kernels through the algebra module, so these patches reach it too
    with mock.patch.object(
        algebra, "_power_nums", side_effect=AssertionError("power built")
    ), mock.patch.object(algebra, "_product_nums", side_effect=AssertionError("product built")):
        yield


def check_against_convolutions(path, f, g, spec):
    # the oracle's products take the given kernel path; verify_identity
    # builds none
    with mock.patch.object(algebra, "_NTT_BITS", PATHS[path]):
        want = verify_by_convolutions(f, g, spec)
    with builds_nothing():
        assert verify_identity(f, g, spec) is want


# valuation 0 to 3, so the lowest nonzero index is not always 0
valued_polys = st.builds(
    lambda k, head, rest: Poly([0] * k + [head] + rest),
    st.integers(0, 3),
    small_fractions.filter(bool),
    st.lists(small_fractions, max_size=4),
)
# nonzero constants: c^n = c^m only for 1, and for -1 when n - m is even
proportions = st.one_of(
    st.sampled_from((F(1), F(-1), F(2), F(-1, 3))),
    st.builds(F, st.integers(-(2 ** 60), 2 ** 60).filter(bool), st.integers(1, 2 ** 60)),
)


class TestHomogeneity:
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.n},{s.m}")
    @given(valued_polys, proportions)
    @example(Poly([0, 0, 0, 1, 1]), F(-1))
    @example(Poly([0, 2, F(-1, 3)]), F(2 ** 60 - 1, 2 ** 59 + 1))
    @settings(max_examples=80, deadline=None)
    def test_scaled_pairs_follow_c_to_the_n_and_m(self, spec, f, c):
        g = f * c
        want = c ** spec.n == c ** spec.m
        with builds_nothing():
            assert verify_identity(f, g, spec) is want
        assert verify_by_convolutions(f, g, spec) is want


class TestVerifyIdentityOracle:
    @pytest.mark.parametrize("path", PATHS)
    @given(identity_pairs(), st.sampled_from(ORACLE_SPECS))
    @with_oracle_examples
    @settings(max_examples=120, deadline=None)
    def test_matches_convolution_definition(self, path, pair, spec):
        check_against_convolutions(path, *pair, spec)

    @pytest.mark.parametrize(
        "c, spec, want",
        [
            (1, RatioSpec(5, 4), True),
            (-1, RatioSpec(3, 1), True),
            (-1, RatioSpec(5, 4), False),
            (2, RatioSpec(2, 1), False),
            (F(-1, 3), RatioSpec(1, 2), False),
        ],
    )
    def test_proportional_pairs_build_nothing(self, c, spec, want):
        g = DEGREE_40_K3 * c
        with builds_nothing():
            assert verify_identity(DEGREE_40_K3, g, spec) is want
            assert verify_identity(g, DEGREE_40_K3, spec) is want
        assert verify_by_convolutions(DEGREE_40_K3, g, spec) is want

    @pytest.mark.parametrize(
        "g, spec, want",
        [
            (DEGREE_160_WIDE + Poly.monomial(2, F(1, 2 ** 59 + 1)), RatioSpec(5, 4), False),
            (-DEGREE_160_WIDE, RatioSpec(5, 4), False),
            (-DEGREE_160_WIDE, RatioSpec(3, 1), True),
        ],
        ids=["perturbed", "negated-odd", "negated-even"],
    )
    def test_wide_pairs_build_nothing(self, g, spec, want):
        # the four exact powers of such a pair take seconds to build; the
        # witness is the expansions' first three terms, which differ exactly
        # when the answer is False
        f = DEGREE_160_WIDE
        with builds_nothing():
            assert verify_identity(f, g, spec) is want
        n, m = spec.n, spec.m
        assert (ratio_expansion(f, n, m, 3) == ratio_expansion(g, n, m, 3)) is want
