import importlib
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product
from math import factorial
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

# the module itself: the package's `identify` attribute is the function
identify_module = importlib.import_module("laplaceratio.identify")

ODD_SPECS = [RatioSpec(2, 1), RatioSpec(3, 2), RatioSpec(1, 2), RatioSpec(5, 2)]
EVEN_SPECS = [RatioSpec(3, 1), RatioSpec(5, 3), RatioSpec(4, 2)]


def expansion_for(f, spec, target):
    k = f.valuation
    order = k * (spec.n + spec.m - 1) + target + 1
    return ratio_expansion(f, spec.n, spec.m, order)


small_coeffs = st.integers(-3, 3)

# degree 40, valuation 3, coefficients p/q with small p, q
DEGREE_40_K3 = Poly([0, 0, 0] + [F((-1) ** i * (i % 9 + 1), i % 7 + 1) for i in range(38)])


# numerators and denominators up to 2**60
wide_coeffs = st.builds(F, st.integers(-(2 ** 60), 2 ** 60), st.integers(1, 2 ** 60))
small_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=30)
WIDE_SPECS = [RatioSpec(2, 1), RatioSpec(1, 2), RatioSpec(5, 4), RatioSpec(3, 1)]


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


class TestVerifyIdentity:
    def test_equal_functions(self):
        f = Poly([1, 1])
        assert verify_identity(f, f, RatioSpec(2, 1))

    def test_different_functions(self):
        assert not verify_identity(Poly([1, 1]), Poly([1, 2]), RatioSpec(2, 1))

    def test_sign_symmetry_even(self):
        p = Poly([2, 0, -1])
        assert verify_identity(p, -p, RatioSpec(3, 1))

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


def check_against_convolutions(path, f, g, spec):
    # the oracle's products always take the other path
    other = "ints" if path == "decimal" else "decimal"
    with mock.patch.object(algebra, "_NTT_BITS", PATHS[other]):
        want = verify_by_convolutions(f, g, spec)
    with mock.patch.object(algebra, "_NTT_BITS", PATHS[path]):
        assert verify_identity(f, g, spec) is want


def without_homogeneity():
    # every pair takes the residue check and the packed comparison
    return mock.patch.object(identify_module, "_proportion", lambda f, g: None)


@contextmanager
def builds_nothing():
    # neither the Laplace-weighted powers nor a packed product may be built
    with mock.patch.object(
        identify_module, "_laplace_pair", side_effect=AssertionError("powers built")
    ), mock.patch.object(
        identify_module, "_products_equal", side_effect=AssertionError("products built")
    ):
        yield


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


def is_proportional(f, g):
    # g = c*f for some c iff every 2x2 minor of the two coefficient rows vanishes
    a, b = f.coeffs, g.coeffs
    if len(a) != len(b):
        return False
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i))


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

    @given(
        valued_polys,
        proportions,
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, 7), small_fractions.filter(bool)),
            valued_polys,
        ),
    )
    @example(Poly([0, 0, 1]), F(3), (2, F(1)))  # a monomial stays proportional
    @example(Poly([1, 1]), F(2), (0, F(1)))
    @example(Poly([0, 1, 1]), F(1), Poly([0, 1, 1, 1]))
    @settings(max_examples=200, deadline=None)
    def test_proportion_is_the_scale_factor_or_none(self, f, c, change):
        # g is c*f, c*f with one coefficient moved, or unrelated
        g = f * c
        if isinstance(change, tuple):
            g = g + Poly.monomial(*change)
        elif change is not None:
            g = change
        if g.is_zero:
            return
        r = identify_module._proportion(f, g)
        if is_proportional(f, g):
            assert r is not None and f * r == g
        else:
            assert r is None


class TestVerifyIdentityOracle:
    @pytest.mark.parametrize("path", PATHS)
    @given(identity_pairs(), st.sampled_from(ORACLE_SPECS))
    @with_oracle_examples
    @settings(max_examples=120, deadline=None)
    def test_matches_convolution_definition(self, path, pair, spec):
        check_against_convolutions(path, *pair, spec)

    @pytest.mark.parametrize("path", PATHS)
    @given(identity_pairs(), st.sampled_from(ORACLE_SPECS))
    @with_oracle_examples
    @settings(max_examples=120, deadline=None)
    def test_packed_products_alone_match_convolution_definition(self, path, pair, spec):
        # no pair is proportional and every residue check agrees, so the
        # packed comparison decides each pair
        with mock.patch.object(identify_module, "_residue", lambda nums: 0), without_homogeneity():
            check_against_convolutions(path, *pair, spec)

    @pytest.mark.parametrize(
        "f, g, spec, want, compares, decimal_packs",
        [
            # products of about 140 kbit: CPython ints
            pytest.param(DEGREE_40_K3, -DEGREE_40_K3, RatioSpec(3, 1), True, 1, 0, id="ints-equal"),
            # products of about 820 kbit: libmpdec, one pack per operand
            pytest.param(DEGREE_40_K3, DEGREE_40_K3, RatioSpec(5, 4), True, 1, 4, id="decimal-equal"),
            # rejected by the residue check before any product
            pytest.param(
                DEGREE_40_K3,
                DEGREE_40_K3 + Poly.monomial(7, F(3, 5)),
                RatioSpec(5, 4),
                False,
                0,
                0,
                id="residue-rejected",
            ),
        ],
    )
    def test_each_side_of_the_crossover(self, f, g, spec, want, compares, decimal_packs):
        # with the homogeneity step off, g = -f and g = f reach the packed
        # comparison; the powers of these f and g pack far below the
        # crossover, so every decimal pack is the packed comparison's, and
        # no slot list is multiplied
        with mock.patch.object(
            identify_module, "_products_equal", wraps=algebra._products_equal
        ) as compare, mock.patch.object(
            algebra, "_decimal_pack", wraps=algebra._decimal_pack
        ) as packs, mock.patch.object(
            algebra, "_product_nums", wraps=algebra._product_nums
        ) as slot_products, without_homogeneity():
            assert verify_identity(f, g, spec) is want
        assert (compare.call_count, packs.call_count) == (compares, decimal_packs)
        assert slot_products.call_count == 0
        assert verify_by_convolutions(f, g, spec) is want

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


class TestResidue:
    @given(st.lists(st.integers(-(2 ** 200), 2 ** 200), max_size=30))
    @example([])
    @example([identify_module._PRIME, -1])
    def test_is_the_value_at_the_point_mod_the_prime(self, nums):
        r, p = identify_module._POINT, identify_module._PRIME
        assert identify_module._residue(nums) == sum(c * r ** i for i, c in enumerate(nums)) % p
