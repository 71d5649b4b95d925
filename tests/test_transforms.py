import copy
import math
import pickle
import threading
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import accumulate
from math import factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from laplaceratio import algebra, transforms
from laplaceratio.algebra import Poly, Series, convolve
from laplaceratio.errors import (
    DivergentTransform,
    DomainError,
    NotVanishing,
    OutOfRange,
    ZeroDenominator,
    ZeroFunction,
)
from laplaceratio.transforms import (
    PiecewisePoly,
    RationalFunction,
    RatioExpansion,
    _power_pair,
    _scalar_pair,
    convolution_residual,
    delay,
    laplace_piecewise,
    laplace_poly,
    ratio_eval_piecewise,
    ratio_expansion,
    ratio_rational,
    shift_vanishing,
    sin_closed_form,
    sin_maclaurin,
    sin_ratio_check,
    step_example,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=4)
polys = st.lists(rationals, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
exponent_pairs = st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda t: t[0] != t[1])
# the odd- and even-difference specs of test_identify
SPECS = [(2, 1), (3, 2), (1, 2), (5, 2), (3, 1), (5, 3), (4, 2)]
DEGREE_40_K3 = Poly([0] * 3 + [F((-1) ** i * (i % 9 + 1), i % 7 + 1) for i in range(38)])
DEGREE_200 = Poly([F((-1) ** i * (i % 5 + 1), i % 3 + 1) for i in range(201)])


@st.composite
def expansion_cases(draw):
    # degree <= 12, valuation k <= 3, orders from 0 to past n*deg
    k = draw(st.integers(0, 3))
    head = draw(rationals.filter(bool))
    f = Poly([0] * k + [head] + draw(st.lists(rationals, max_size=12 - k)))
    n, m = draw(st.sampled_from(SPECS))
    return f, (n, m), draw(st.integers(0, n * f.degree + 3))


def expansion_by_division(f, n, m, order):
    # A_j = (kn+j)! [x^(kn+j)] f^n and B likewise for m, from full powers;
    # the tail T = A/B by schoolbook series division
    k = f.valuation
    fn, fm = f ** n, f ** m
    A = [factorial(k * n + j) * fn.coefficient(k * n + j) for j in range(order + 1)]
    B = [factorial(k * m + j) * fm.coefficient(k * m + j) for j in range(order + 1)]
    T = []
    for j in range(order + 1):
        T.append((A[j] - sum(B[i] * T[j - i] for i in range(1, j + 1))) / B[0])
    return RatioExpansion(k * (m - n), Series(T, order))


def eval_piecewise(pp, x):
    return float(pp.piece_at(x)(F(x).limit_denominator(10 ** 12)))


def quad_transform(pp, lam, upper=60.0):
    pts = sorted({float(b) for b in pp.breakpoints if 0 < float(b) < upper})
    val, _ = quad(
        lambda x: math.exp(-lam * x) * float(pp(float(x))),
        0.0,
        upper,
        points=pts or None,
        limit=300,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


class TestLaplacePoly:
    def test_constant(self):
        assert laplace_poly(Poly([1])) == Poly([0, 1])

    def test_linear(self):
        assert laplace_poly(Poly([0, 1])) == Poly([0, 0, 1])

    def test_term_rule(self):
        # i! * c_i at u^(i+1): 2! * 2 = 4
        assert laplace_poly(Poly([1, 2, 2])) == Poly([0, 1, 2, 4])

    @given(polys, polys)
    @settings(max_examples=50)
    def test_convolution_theorem(self, p, q):
        # transform of the half-line convolution equals the product of the
        # transforms, exactly: both terminate in u
        assert laplace_poly(convolve(p, q)) == laplace_poly(p) * laplace_poly(q)


class TestRatioExpansion:
    def test_one_plus_x(self):
        got = ratio_expansion(Poly([1, 1]), 2, 1, 3)
        assert got.lead == 0
        assert got.tail == Series([1, 1, 1, -1], 3)

    def test_pure_monomial(self):
        got = ratio_expansion(Poly([0, 1]), 3, 1, 2)
        assert got.lead == -2
        assert got.tail == Series([6, 0, 0], 2)

    def test_constant_scaling(self):
        got = ratio_expansion(Poly([F(3, 2)]), 4, 2, 2)
        assert got.lead == 0
        assert got.tail == Series([F(9, 4), 0, 0], 2)

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunction):
            ratio_expansion(Poly(), 2, 1, 3)

    def test_equal_exponents_rejected(self):
        with pytest.raises(DomainError):
            ratio_expansion(Poly([1]), 2, 2, 3)

    @given(nonzero_polys, exponent_pairs, st.fractions(min_value=-5, max_value=5).filter(bool))
    @settings(max_examples=60)
    def test_scaling_property(self, f, nm, c):
        n, m = nm
        base = ratio_expansion(f, n, m, 4)
        scaled = ratio_expansion(c * f, n, m, 4)
        assert scaled.lead == base.lead
        assert scaled.tail.coeffs == tuple(c ** (n - m) * t for t in base.tail.coeffs)

    @given(nonzero_polys, st.sampled_from([(3, 1), (5, 3), (4, 2), (1, 3)]))
    @settings(max_examples=60)
    def test_sign_blind_when_difference_even(self, f, nm):
        n, m = nm
        assert ratio_expansion(-f, n, m, 4) == ratio_expansion(f, n, m, 4)

    @given(nonzero_polys, exponent_pairs, st.integers(0, 3))
    @settings(max_examples=60)
    def test_lead_is_valuation_times_difference(self, p, nm, k):
        n, m = nm
        if not p.coefficient(0):
            p = p + Poly([1])
        f = Poly.monomial(k) * p
        assert ratio_expansion(f, n, m, 2).lead == k * (m - n)


wide_rationals = st.builds(F, st.integers(-(2 ** 60), 2 ** 60), st.integers(1, 2 ** 60))


@st.composite
def wide_cases(draw):
    # 60-bit p/q, valuation k <= 4, n < m as well as n > m, orders from 0
    # to past the cut f's coefficients
    k = draw(st.integers(0, 4))
    head = draw(wide_rationals.filter(bool))
    f = Poly([0] * k + [head] + draw(st.lists(wide_rationals, max_size=10)))
    n, m = draw(st.sampled_from(SPECS + [(2, 5), (4, 5)]))
    return f, (n, m), draw(st.integers(0, f.degree - k + 3))


class TestRatioExpansionRoute:
    # the closed form of the whole cut f, expanded, is the reference
    @given(wide_cases())
    @example((Poly([0, 0, F(2 ** 60 - 1, 3), F(-(2 ** 59), 2 ** 60 - 1), 1]), (2, 5), 5))
    @example((Poly([0, 0, 0, F(7, 2 ** 60)]), (1, 2), 0))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_expanded_closed_form(self, case):
        f, (n, m), order = case
        f_cut = Poly(f.coeffs[: f.valuation + order + 1])
        assert ratio_expansion(f, n, m, order) == ratio_rational(f_cut, n, m).expansion(order)

    def test_powers_go_through_the_algebra_kernel(self):
        # transforms calls the kernel through its module, so a patch of
        # algebra's binding reaches both powers
        with mock.patch.object(algebra, "_power_nums", wraps=algebra._power_nums) as spy:
            ratio_expansion(Poly([1, 2, 3]), 5, 4, 3)
        assert spy.call_count == 2

    def test_wide_degree_40_on_the_decimal_path(self):
        # 60-bit p/q at degree 40: both cut powers pack past the kernel's
        # crossover
        f = Poly([F((-1) ** i * (2 ** 60 - 7 * i), 2 ** 59 + 11 * i) for i in range(41)])
        assert ratio_expansion(f, 5, 4, 40) == ratio_rational(f, 5, 4).expansion(40)


class TestRatioRational:
    def test_constant_one(self):
        rf = ratio_rational(Poly([1]), 2, 1)
        assert rf == RationalFunction(Poly([1]), Poly([1]))

    def test_monomial(self):
        # L{x^2}/L{x} = 2/lambda
        rf = ratio_rational(Poly([0, 1]), 2, 1)
        assert rf == RationalFunction(Poly([2]), Poly([0, 1]))

    def test_one_plus_x(self):
        rf = ratio_rational(Poly([1, 1]), 2, 1)
        assert rf == RationalFunction(Poly([2, 2, 1]), Poly([0, 1, 1]))

    @given(expansion_cases())
    @example((DEGREE_40_K3, (5, 4), 65))
    @example((DEGREE_200, (5, 4), 5))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_expansion(self, case):
        # the full closed form and ratio_expansion's cut one both expand
        # to the reference
        f, (n, m), order = case
        want = expansion_by_division(f, n, m, order)
        assert ratio_rational(f, n, m).expansion(order) == want
        assert ratio_expansion(f, n, m, order) == want

    @pytest.mark.parametrize(
        "f, n, m, want",
        [
            # valuation 2, n > m
            (
                Poly([0, 0, 1, 3]), 3, 1,
                "RationalFunction(Poly([4898880, 544320, 22680, 360]), "
                "Poly([0, 0, 0, 0, 0, 0, 9, 1]))",
            ),
            # valuation 1, n < m
            (
                Poly([0, F(1, 2), F(-2, 3)]), 1, 3,
                "RationalFunction(Poly([0, 0, 0, 0, -16, 6]), Poly([-2560, 960, -144, 9]))",
            ),
            # valuation 3, n < m
            (
                Poly([0, 0, 0, F(5, 7), 1]), 2, 5,
                "RationalFunction(Poly([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 19208, 3430, 175]), "
                "Poly([1159007484450816000, 206965622223360000, 15561324979200000, "
                "617512896000000, 12972960000000, 115830000000]))",
            ),
            # 60-bit p/q, valuation 0, n > m
            (
                Poly([F(2**60 - 93, 2**59 + 15), F(-(2**60 - 57), 2**60 - 173)]), 2, 1,
                "RationalFunction(Poly(["
                "883423532389192123414269146992458293762103886775207759668314892611768098, "
                "-1766847064778383880562104027037511676316622060406187422130289848247661186, "
                "1766847064778383514295669760090182691941383577431726497053722490413372401]), "
                "Poly([0, "
                "-441711766194596017264763888385452138846152522741040867763065326969936613, "
                "883423532389191851396310643297220247846989759413087124141427253320019541]))",
            ),
            # 60-bit p/q, valuation 1, n < m
            (
                Poly([0, F(2**60 - 93, 2**59 + 15), F(-(2**60 - 57), 2**60 - 173)]), 1, 2,
                "RationalFunction(Poly([0, 0, "
                "-883423532389192034529527776770904277692305045482081735526130653939873226, "
                "883423532389191851396310643297220247846989759413087124141427253320019541]), "
                "Poly(["
                "10601082388670305480971229763909499525145246641302493116019778711341217176, "
                "-10601082388670303283372624162225070057899732362437124532781739089485967116, "
                "3533694129556767028591339520180365383882767154863452994107444980826744802]))",
            ),
        ],
    )
    def test_stored_pair_is_pinned(self, f, n, m, want):
        # the stored (numer, denom) pair, not just the function it denotes
        assert repr(ratio_rational(f, n, m)) == want

    def test_numeric_eval_matches_quadrature(self):
        f = Poly([1, 1])
        rf = ratio_rational(f, 2, 1)
        lam = 1.7
        num, _ = quad(lambda x: math.exp(-lam * x) * float(f(F(x).limit_denominator())) ** 2, 0, 80)
        den, _ = quad(lambda x: math.exp(-lam * x) * float(f(F(x).limit_denominator())), 0, 80)
        assert rf(lam) == pytest.approx(num / den, rel=1e-9)

    def test_huge_lambda_rounds_one_exact_quotient(self):
        # numerator and denominator overflow a double; their ratio is 1.0
        rf = ratio_rational(Poly([1, 1, 1, 1]), 5, 1)
        assert rf(1e200) == 1.0

    def test_tiny_lambda_is_out_of_range(self):
        # the denominator is nonzero but the ratio, about 1e2400, is no double
        rf = ratio_rational(Poly([1, 1, 1, 1]), 5, 1)
        assert rf.denom(F(1e-200)) != 0
        with pytest.raises(OutOfRange):
            rf(1e-200)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RationalFunction(Poly([1]), Poly([-1, 1]))(1)

    def test_stored_with_integer_content_removed(self):
        # the second pair clears to 12, 18, -2, whose common factor 2 goes too
        for numer, denom in ([F(1, 2), F(1, 3)], [F(-1, 6)]), ([4, 6], [F(-2, 3)]):
            rf = RationalFunction(Poly(numer), Poly(denom))
            ints = [c for p in (rf.numer, rf.denom) for c in p.coeffs]
            assert all(c.denominator == 1 for c in ints)
            assert math.gcd(*(abs(c.numerator) for c in ints)) == 1
            assert rf.denom.coeffs[-1] > 0

    def test_equality_is_functional(self):
        a = RationalFunction(Poly([1, 1]), Poly([0, 1]))
        b = RationalFunction(Poly([2, 2]), Poly([0, 2]))
        c = RationalFunction(Poly([1, 1]), Poly([1, 1]))
        assert a == b
        assert a != c
        # x/(2x) keeps its stored pair, which is not that of 1/2
        d = RationalFunction(Poly([0, 1]), Poly([0, 2]))
        e = RationalFunction(Poly([1]), Poly([2]))
        assert d == e and (d.numer, d.denom) != (e.numer, e.denom)


INTEGER_CALLS = {
    "ratio_expansion order": lambda x: ratio_expansion(Poly([1, 1]), 2, 1, x),
    "expansion order": lambda x: ratio_rational(Poly([1, 1]), 2, 1).expansion(x),
    "sin_maclaurin degree": sin_maclaurin,
    "sin_ratio_check order": sin_ratio_check,
    "exponent": lambda x: ratio_expansion(Poly([1, 1]), x, 1, 3),
    "step_example length": step_example,
    "piecewise power": lambda x: step_example(2) ** x,
}


@pytest.mark.parametrize("value", [2.5, 4.5, math.nan, F(9, 2), True])
@pytest.mark.parametrize("name", sorted(INTEGER_CALLS))
def test_an_integer_parameter_takes_only_an_int(name, value):
    # a float or a ratio raised a bare TypeError from a slice, range() or
    # factorial, and True was taken as 1
    with pytest.raises(DomainError, match="integer"):
        INTEGER_CALLS[name](value)


# each call with a count past sys.maxsize, and the name its message gives it
SIZE_CALLS = {
    "ratio_expansion order": (lambda x: ratio_expansion(Poly([1, 1]), 2, 1, x), "expansion order"),
    "expansion order": (lambda x: ratio_rational(Poly([1, 1]), 2, 1).expansion(x), "expansion order"),
    "sin_maclaurin degree": (sin_maclaurin, "degree"),
    "step_example length": (step_example, "n_max"),
}


@pytest.mark.parametrize("name", sorted(SIZE_CALLS))
def test_a_count_past_a_lists_length_is_out_of_range(name):
    # ratio_expansion and sin_maclaurin raised a bare OverflowError, the
    # expansion started a division of 10**20 + 1 steps, and
    # step_example(10**20) ran for minutes building its breakpoints
    call, label = SIZE_CALLS[name]
    with pytest.raises(OutOfRange, match=f"^{label} 10{{20}} needs more entries than a list can hold$"):
        call(10 ** 20)


class TestSinIdentity:
    def test_holds_at_order_8(self):
        assert sin_ratio_check(8)

    def test_holds_at_order_4(self):
        assert sin_ratio_check(4)

    def test_maclaurin_coefficients(self):
        assert sin_maclaurin(5) == Poly([0, 1, 0, F(-1, 6), 0, F(1, 120)])

    def test_perturbed_cubic_coefficient_fails(self):
        f = sin_maclaurin(8)
        broken = Poly([c if i != 3 else F(0) for i, c in enumerate(f.coeffs)])
        got = ratio_expansion(broken, 2, 1, 7)
        want = sin_closed_form().expansion(7)
        assert got != want


class TestPiecewise:
    def test_validation(self):
        with pytest.raises(DomainError):
            PiecewisePoly([F(1, 2)], [Poly([1])])  # must start at 0
        with pytest.raises(DomainError):
            PiecewisePoly([0, 1, 1], [Poly([1])] * 3)  # strictly increasing
        assert PiecewisePoly([0], [Poly([0, 1])])(F(5)) == 5  # a polynomial tail is fine

    def test_evaluation_is_right_continuous(self):
        pp = PiecewisePoly([0, 1], [Poly([1]), Poly([5])])
        assert pp(F(1)) == 5
        assert pp(F(99, 100)) == 1

    def test_a_value_past_the_double_range_is_refused_at_a_float_point(self):
        # a float point asks for a double, which these values overflow
        pp = PiecewisePoly([0, 1], [Poly([10 ** 400]), Poly([0, -(10 ** 400)])])
        for x in (0.0, 1.0, 2.5):
            with pytest.raises(OutOfRange, match=f"value at x = {x!r} is not a finite double"):
                pp(x)
        assert pp(F(5, 2)) == -(10 ** 400) * F(5, 2)
        assert pp(0) == 10 ** 400

    def test_power_is_pointwise(self):
        pp = PiecewisePoly([0, 1], [Poly([0, 1]), Poly([3])])
        cubed = pp ** 3
        for x in (F(1, 3), F(2), F(7, 8)):
            assert cubed(x) == pp(x) ** 3

    def test_a_power_is_built_once_and_kept(self):
        pp = PiecewisePoly([0, 1], [Poly([0, 1]), Poly([3])])
        cubed = pp ** 3
        with mock.patch.object(Poly, "__pow__", side_effect=AssertionError("power built")):
            assert pp ** 3 is cubed
        assert pp ** 2 is pp ** 2 and pp ** 2 is not cubed
        assert cubed == PiecewisePoly([0, 1], [Poly([0, 0, 0, 1]), Poly([27])])
        # the kept power takes no part in ==, repr or pickling
        assert pp == PiecewisePoly([0, 1], [Poly([0, 1]), Poly([3])])
        assert pickle.loads(pickle.dumps(pp)) ** 3 == cubed

    def test_two_threads_asking_first_get_the_one_power_kept(self):
        # both threads build the power at once, held together inside
        # Poly.__pow__; the memo keeps the first one stored and hands that
        # one to both
        pp = PiecewisePoly([0, 1], [Poly([0, 1]), Poly([3])])
        together = threading.Barrier(2, timeout=10)
        power = Poly.__pow__

        def held(p, n):
            together.wait()
            return power(p, n)

        got = [None, None]

        def ask(i):
            got[i] = pp ** 3

        with mock.patch.object(Poly, "__pow__", held):
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert got[0] is not None and got[0] is got[1]
        assert pp._derived[3] is got[0]
        assert pp ** 3 is got[0]

    @pytest.mark.parametrize("a", [0, -1, 1.0, F(2), None])
    def test_a_power_takes_a_positive_integer(self, a):
        pp = step_example(2)
        with pytest.raises(DomainError, match="piecewise powers take a positive integer exponent"):
            pp ** a
        assert pp._derived == {}

    def test_repr_prints_breakpoints_of_any_length(self):
        # str() of a 5000-digit ratio raised ValueError under the default
        # int <-> str digit limit
        q = 10 ** 4999 + 9
        pp = PiecewisePoly([0, F(1, q), 1], [Poly([1]), Poly([0, 2]), Poly()])
        assert repr(pp) == f"PiecewisePoly([0, 1/1{'0' * 4998}9): 1, [1/1{'0' * 4998}9, 1): 2*x, [1, inf): 0)"
        assert repr(step_example(2)) == "PiecewisePoly([0, 1/2): 1, [1/2, 3/4): 1/2, [3/4, 1): 1/4, [1, inf): 2)"

    @pytest.mark.parametrize("n_max", [2.0, math.nan, F(5, 2), F(3), 0, -1])
    def test_step_example_takes_a_positive_integer(self, n_max):
        # a float or a ratio raised range()'s TypeError
        with pytest.raises(DomainError, match="^n_max must be an integer of at least 1, got "):
            step_example(n_max)

    def test_step_example_values(self):
        pp = step_example(4)
        assert pp(F(0)) == 1
        assert pp(F(1, 2)) == F(1, 2)
        assert pp(F(3, 4)) == F(1, 4)
        assert pp(F(1)) == 2
        assert pp(F(31, 32)) == F(1, 16)  # truncated staircase keeps the last step

    def test_fields_refuse_assignment_and_deletion(self):
        pp = PiecewisePoly([0, 1], [Poly([1]), Poly([0, 2])])
        for name in ("breakpoints", "pieces"):
            with pytest.raises(AttributeError):
                setattr(pp, name, (F(0),))
            with pytest.raises(AttributeError):
                delattr(pp, name)
        assert pp == PiecewisePoly([0, 1], [Poly([1]), Poly([0, 2])])

    def test_pieces_refuse_assignment_so_what_was_derived_stays_valid(self):
        # the powers a transform keeps with f would outlive a change to a piece
        def make_f():
            return PiecewisePoly([0, 1], [Poly([1]), Poly([2])])

        f, g = make_f(), PiecewisePoly([0, 2], [Poly([3]), Poly([1])])
        assert convolution_residual(f, g, 2, 1, 3) == -12.0
        ratio_eval_piecewise(f, 2, 1, 1.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
            f.pieces[0].coeffs = (F(5),)
        with pytest.raises(AttributeError, match="cannot delete field 'coeffs'"):
            del f.pieces[0].coeffs
        fresh = make_f()
        for used_value, fresh_value in [
            (convolution_residual(f, g, 2, 1, 3), convolution_residual(fresh, g, 2, 1, 3)),
            (ratio_eval_piecewise(f, 2, 1, 1.0), ratio_eval_piecewise(fresh, 2, 1, 1.0)),
        ]:
            assert repr(used_value) == repr(fresh_value)

    @pytest.mark.parametrize("trip", ["pickle", "copy", "deepcopy"])
    def test_round_trips_to_an_equal_value_whatever_was_derived(self, trip):
        # a function the transforms have used pickles, copies and prints as
        # one that they have not
        fresh = PiecewisePoly([0, F(1, 3), 2], [Poly([2]), Poly([1, F(-1, 2)]), Poly()])
        used = PiecewisePoly(fresh.breakpoints, fresh.pieces)
        convolution_residual(used, step_example(3), 3, 2, F(5, 2))
        ratio_eval_piecewise(used, 2, 1, 1.5)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert repr(used) == repr(fresh)
        back = {
            "pickle": lambda pp: pickle.loads(pickle.dumps(pp)),
            "copy": copy.copy,
            "deepcopy": copy.deepcopy,
        }[trip](used)
        assert back == fresh and repr(back) == repr(fresh)
        assert convolution_residual(back, step_example(3), 3, 2, F(5, 2)) == convolution_residual(
            fresh, step_example(3), 3, 2, F(5, 2)
        )


class TestLaplacePiecewise:
    def test_constant_tail(self):
        pp = PiecewisePoly([0], [Poly([1])])
        assert laplace_piecewise(pp, 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_indicator(self):
        pp = PiecewisePoly([0, 1], [Poly([1]), Poly()])
        assert laplace_piecewise(pp, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-13)

    def test_step_example_matches_quadrature(self):
        pp = step_example(10)
        got = laplace_piecewise(pp, 1.0)
        assert got == pytest.approx(quad_transform(pp, 1.0), rel=1e-10, abs=1e-12)

    def test_polynomial_pieces_match_quadrature(self):
        pp = PiecewisePoly([0, 1, 2], [Poly([0, 1]), Poly([1, 0, F(1, 2)]), Poly([3])])
        for lam in (0.5, 1.0, 3.0):
            assert laplace_piecewise(pp, lam) == pytest.approx(
                quad_transform(pp, lam), rel=1e-10
            )

    def test_requires_positive_lambda(self):
        with pytest.raises(DivergentTransform):
            laplace_piecewise(step_example(3), 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_refuses_a_lambda_that_is_not_finite(self, lam):
        # nan and inf once gave nan, which ratio_eval_piecewise reported as nan/nan
        message = f"^lambda must be finite and positive, got {lam!r}$"
        with pytest.raises(DomainError, match=message):
            laplace_piecewise(step_example(3), lam)
        with pytest.raises(DomainError, match=message):
            ratio_eval_piecewise(step_example(3), 2, 1, lam)

    def test_exact_rule_for_monomials(self):
        # L{x^j} on the whole half line equals j!/lam^(j+1)
        pp = PiecewisePoly([0], [Poly([0, 0, 1])])
        lam = 1.25
        assert laplace_piecewise(pp, lam) == pytest.approx(2 / lam ** 3, rel=1e-13)

    def test_far_breakpoint_overflow_is_typed(self):
        # 1 on [0, 10**186), then x^2.  At lambda = 1 the tail's weight
        # e^(-10**186) underflows, so its boundary terms are 0 without
        # (10**186)**2, which overflows a double; at smaller lambdas that
        # power is needed, and the float path refuses rather than raising
        pp = PiecewisePoly([0, 10 ** 186], [Poly([1]), Poly([0, 0, 1])])
        assert laplace_piecewise(pp, 1.0) == 1.0
        for lam in (7e-184, 1e-300):
            with pytest.raises(OutOfRange, match=f"float path overflowed .* lambda = {lam!r}$"):
                laplace_piecewise(pp, lam)

    @pytest.mark.parametrize(
        "lam, shown",
        [(F(3, 10 ** 5000 + 1), f"3/1{'0' * 4999}1"), (10 ** 400, f"1{'0' * 400}"), (F(10 ** 400, 3), f"1{'0' * 400}/3")],
        ids=["double_is_zero", "int_past_the_range", "ratio_past_the_range"],
    )
    def test_an_exact_lambda_without_a_positive_double_is_refused(self, lam, shown):
        # a positive lambda whose double is 0 raised ZeroDivisionError; one
        # past the double range printed its digits, where str() can refuse
        message = f"float path overflowed .* lambda = {shown}$"
        with pytest.raises(OutOfRange, match=message):
            laplace_piecewise(step_example(3), lam)
        with pytest.raises(OutOfRange, match=message):
            ratio_eval_piecewise(step_example(3), 2, 1, lam)

    def test_an_exact_lambda_is_taken_as_its_double(self):
        pp = PiecewisePoly([0, F(1, 3), 2], [Poly([1, 2]), Poly([F(1, 2)]), Poly([0, 0, 1])])
        for lam in (F(1, 3), F(10 ** 5000, 10 ** 5000 + 1), 7):
            assert repr(laplace_piecewise(pp, lam)) == repr(laplace_piecewise(pp, float(lam)))
            assert repr(ratio_eval_piecewise(pp, 3, 1, lam)) == repr(ratio_eval_piecewise(pp, 3, 1, float(lam)))

    @pytest.mark.parametrize("lam", [5e-324, 1e-320])
    def test_a_value_past_the_double_range_is_refused(self, lam):
        # the transform is about 2/lambda, which no double holds
        with pytest.raises(OutOfRange, match=f"float path overflowed .* lambda = {lam!r}$"):
            laplace_piecewise(step_example(10), lam)


class TestRatioEvalPiecewise:
    def test_constant_scaling(self):
        pp = PiecewisePoly([0], [Poly([F(7, 3)])])
        for lam in (0.5, 1.0, 4.0):
            assert ratio_eval_piecewise(pp, 2, 1, lam) == pytest.approx(7 / 3, rel=1e-12)

    def test_indicator_idempotent(self):
        pp = PiecewisePoly([0, 1], [Poly([1]), Poly()])
        for n, m in [(2, 1), (5, 3), (1, 4)]:
            assert ratio_eval_piecewise(pp, n, m, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_step_example_matches_quadrature(self):
        pp = step_example(10)
        got = ratio_eval_piecewise(pp, 2, 1, 1.0)
        want = quad_transform(pp ** 2, 1.0) / quad_transform(pp, 1.0)
        assert got == pytest.approx(want, rel=1e-8)

    def test_polynomial_ratio_agrees_with_series_path(self):
        f = Poly([1, 1])
        pp = PiecewisePoly([0], [f])
        rf = ratio_rational(f, 2, 1)
        for lam in (0.5, 1.0, 2.0, 10.0):
            assert ratio_eval_piecewise(pp, 2, 1, lam) == pytest.approx(rf(lam), rel=1e-12)

    def test_a_lambda_grid_builds_each_power_once(self):
        # (3, 1) then (1, 3) over three lambdas: pp**3 and pp**1, once each,
        # that is, each piece raised to 3 and to 1 once, and the same
        # doubles as on a fresh function per call
        grid = [(3, 1, lam) for lam in (0.1, 1.0, 7.5)] + [(1, 3, lam) for lam in (0.1, 1.0, 7.5)]
        want = [ratio_eval_piecewise(step_example(6), n, m, lam) for n, m, lam in grid]
        pp = step_example(6)
        with mock.patch.object(Poly, "__pow__", autospec=True, side_effect=Poly.__pow__) as spy:
            got = [ratio_eval_piecewise(pp, n, m, lam) for n, m, lam in grid]
        assert got == want
        pieces = len(pp.pieces)
        assert sorted(c.args[1] for c in spy.call_args_list) == [1] * pieces + [3] * pieces

    def test_a_zero_transform_names_lambda_of_any_length(self):
        lam = F(10 ** 5000, 10 ** 5000 + 1)
        with pytest.raises(ZeroDenominator, match=rf"^L{{f\^1}}\(1{'0' * 5000}/1{'0' * 4999}1\) = 0$"):
            ratio_eval_piecewise(PiecewisePoly([0, 1], [Poly(), Poly()]), 2, 1, lam)

    def test_overflowing_transforms_are_typed_error(self):
        # both transforms overflow to inf at a subnormal lambda: inf/inf is
        # refused rather than returned as nan
        pp = step_example(10)
        assert ratio_eval_piecewise(pp, 2, 1, 1e-300) == 2.0
        with pytest.raises(OutOfRange):
            ratio_eval_piecewise(pp, 2, 1, 1e-320)


class TestShifts:
    def test_shift_indicator(self):
        pp = PiecewisePoly([0, 1], [Poly(), Poly([1])])
        shifted = shift_vanishing(pp, 1)
        assert shifted == PiecewisePoly([0], [Poly([1])])

    def test_shift_ramp(self):
        # (x-1) on [1, inf) becomes x on [0, inf)
        pp = PiecewisePoly([0, 1], [Poly(), Poly([-1, 1])])
        shifted = shift_vanishing(pp, 1)
        assert shifted == PiecewisePoly([0], [Poly([0, 1])])

    def test_zero_shift_is_identity(self):
        pp = step_example(3)
        assert shift_vanishing(pp, 0) is pp

    def test_rejects_nonvanishing(self):
        with pytest.raises(NotVanishing):
            shift_vanishing(step_example(3), F(1, 4))
        # a distance past the int <-> str digit limit is printed all the same
        wide = F(10**5000 + 1, 3)
        with pytest.raises(NotVanishing, match=r"min\(10{4999}1/3, next bp\)"):
            shift_vanishing(step_example(3), wide)

    def test_delay_roundtrip(self):
        pp = step_example(5)
        assert shift_vanishing(delay(pp, F(1, 4)), F(1, 4)) == pp

    def test_delay_midpiece_roundtrip(self):
        pp = PiecewisePoly([0, 2], [Poly([0, 0, 1]), Poly([4])])
        assert shift_vanishing(delay(pp, F(3, 7)), F(3, 7)) == pp

    @pytest.mark.parametrize("a", [0.25, 1e308, math.nan, math.inf])
    def test_delay_refuses_a_float_shift(self, a):
        # an exact entry point takes no float, finite or not
        with pytest.raises(TypeError, match="^expected an exact rational-like value, got float$"):
            delay(step_example(3), a)

    @pytest.mark.parametrize("nm", [(2, 1), (3, 2)])
    def test_translation_invariance_of_ratio(self, nm):
        n, m = nm
        pp = delay(step_example(8), F(1, 4))
        back = shift_vanishing(pp, F(1, 4))
        for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
            a = ratio_eval_piecewise(pp, n, m, lam)
            b = ratio_eval_piecewise(back, n, m, lam)
            assert a == pytest.approx(b, rel=1e-10)


def two_pass_residual(f, g, n, m, t):
    """f^n * g^m - f^m * g^n at t as two convolutions of powered copies,
    each over its own cell grid with the pieces looked up at cell
    midpoints: a second route to what convolution_residual integrates
    over one grid."""

    def convolve_at(a, b):
        if t <= 0:
            return F(0)
        cuts = {F(0), t} | {x for x in b.breakpoints if 0 < x < t}
        cuts |= {t - x for x in a.breakpoints if 0 < t - x < t}
        grid = sorted(cuts)
        total = F(0)
        for lo, hi in zip(grid, grid[1:]):
            mid = (lo + hi) / 2
            integrand = a.piece_at(t - mid).compose_linear(t, -1) * b.piece_at(mid)
            for j, c in enumerate(integrand.coeffs):
                total += c * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
        return total

    return float(convolve_at(f ** n, g ** m) - convolve_at(f ** m, g ** n))


# coefficients of both signs, small or p/q of 60 bits
residual_coeffs = st.one_of(
    st.fractions(-9, 9, max_denominator=6),
    st.builds(F, st.integers(-(2 ** 60), 2 ** 60), st.integers(1, 2 ** 60)),
)
# degree <= 6, the zero polynomial included
residual_polys = st.lists(residual_coeffs, max_size=7).map(Poly)


@st.composite
def breakpoint_values(draw):
    # in (0, 5], with a denominator of up to 40 bits
    den = draw(st.one_of(st.integers(1, 8), st.integers(1, 2 ** 40)))
    return F(draw(st.integers(1, 5 * den)), den)


@st.composite
def residual_functions(draw):
    # 1-4 pieces
    inner = draw(st.lists(breakpoint_values(), max_size=3, unique=True))
    bps = [F(0), *sorted(inner)]
    return PiecewisePoly(bps, draw(st.lists(residual_polys, min_size=len(bps), max_size=len(bps))))


@st.composite
def residual_cases(draw):
    f, g = draw(
        st.tuples(residual_functions(), residual_functions()).filter(
            lambda fg: fg[0].breakpoints != fg[1].breakpoints
        )
    )
    n, m = draw(exponent_pairs)
    last = max(f.breakpoints[-1], g.breakpoints[-1])
    t = draw(
        st.one_of(
            st.just(F(0)),
            st.sampled_from(g.breakpoints),
            # where a cell edge of one function meets the other's
            st.sampled_from([a + b for a in f.breakpoints for b in g.breakpoints]),
            st.fractions(0, 4, max_denominator=16).filter(bool).map(lambda x: last + x),
            st.fractions(0, 12, max_denominator=64),
            st.floats(0, 12),
        )
    )
    return f, g, n, m, t


@st.composite
def step_residual_cases(draw):
    # exact_verify's shape: a step function f and g = delay(c*f, a), c = 1
    # included, with steps of width j/8 and a constant tail
    widths = draw(st.lists(st.fractions(F(1, 8), 2, max_denominator=8), max_size=8))
    bps = [F(0), *accumulate(widths)]
    values = draw(st.lists(residual_coeffs, min_size=len(bps), max_size=len(bps)))
    f = PiecewisePoly(bps, [Poly([v]) for v in values])
    c = draw(st.one_of(st.just(F(1)), residual_coeffs.filter(bool)))
    a = draw(st.fractions(0, 4, max_denominator=8))
    g = delay(PiecewisePoly(bps, [p * c for p in f.pieces]), a)
    n, m = draw(exponent_pairs)
    last = max(f.breakpoints[-1], g.breakpoints[-1])
    t = draw(
        st.one_of(
            st.just(F(0)),
            # cell edges: where an edge of one function meets the other's
            st.sampled_from([x + y for x in f.breakpoints for y in g.breakpoints]),
            st.fractions(0, 4, max_denominator=16).filter(bool).map(lambda x: last + x),
            st.fractions(0, 12, max_denominator=64),
        )
    )
    return f, g, n, m, t


@st.composite
def late_denominator_cases(draw):
    # breakpoints below t in eighths, and past t over new denominators
    # (thirds, sevenths, ninths, a 40-bit prime), which the grid's common
    # denominator takes in although no cell edge needs them
    t = draw(st.fractions(F(1, 8), 4, max_denominator=8))
    late = st.builds(lambda k, d: t + F(k, d), st.integers(1, 20), st.sampled_from([3, 7, 9, 2 ** 40 - 87]))

    def function():
        early = [F(k, 8) for k in draw(st.lists(st.integers(1, 31), max_size=3)) if F(k, 8) < t]
        bps = sorted({F(0), *early, *draw(st.lists(late, min_size=1, max_size=3))})
        return PiecewisePoly(bps, draw(st.lists(residual_polys, min_size=len(bps), max_size=len(bps))))

    f, g = function(), function()
    n, m = draw(exponent_pairs)
    return f, g, n, m, float(t) if draw(st.booleans()) else t


@contextmanager
def builds_nothing():
    # no exact power and no product may be built
    with mock.patch.object(
        algebra, "_power_nums", side_effect=AssertionError("power built")
    ), mock.patch.object(algebra, "_product_nums", side_effect=AssertionError("product built")):
        yield


class TestConvolutionResidual:
    @given(residual_cases())
    @example(
        (
            PiecewisePoly([0, F(1, 2 ** 40 - 87)], [Poly([F(2 ** 60 - 1, 3), 0, -1]), Poly()]),
            PiecewisePoly([0, F(3, 7)], [Poly([1] * 7), Poly([0, F(-5, 2 ** 59)])]),
            5,
            4,
            1.75,
        )
    )
    @settings(deadline=None)
    def test_matches_the_two_pass_formula(self, case):
        f, g, n, m, t = case
        assert convolution_residual(f, g, n, m, t) == two_pass_residual(f, g, n, m, F(t))

    @given(late_denominator_cases())
    @settings(deadline=None)
    def test_breakpoints_past_t_change_no_bit(self, case):
        # the exact value, and that of the same functions cut at their
        # last breakpoint below t, whose denominators are all eighths
        f, g, n, m, t = case

        def cut(pp):
            kept = sum(b < t for b in pp.breakpoints)
            return PiecewisePoly(pp.breakpoints[:kept], pp.pieces[:kept])

        got = convolution_residual(f, g, n, m, t)
        assert got == two_pass_residual(f, g, n, m, F(t))
        assert repr(got) == repr(convolution_residual(cut(f), cut(g), n, m, t))

    def test_breakpoint_denominator_of_5000_digits(self):
        # no int <-> str conversion on the way, so the lowest digit limit is met
        q = 10 ** 4999 + 9
        f = PiecewisePoly([0, F(1, 2) + F(1, q)], [Poly([1, F(-2, 3)]), Poly([F(5, 7), 1])])
        g = PiecewisePoly([0, F(2, 3), 1], [Poly([2, 0, 1]), Poly([1]), Poly([0, F(1, 3)])])
        for t in (F(7, 4), F(1, 2) + F(1, q) + F(2, 3), 2.5):
            want = two_pass_residual(f, g, 3, 2, F(t))
            assert want
            assert convolution_residual(f, g, 3, 2, t) == want

    def test_powers_are_built_once_per_piece(self):
        # at most two powers per piece in force on [0, t], where a per-cell
        # integrand would build four on each of the five cells
        f = PiecewisePoly([0, 1, 2], [Poly([1, 2]), Poly([0, 1, 1]), Poly([1, 0, -1])])
        g = PiecewisePoly([0, F(1, 3), F(5, 4)], [Poly([2, 1]), Poly([1, 1, 1]), Poly([0, F(1, 2)])])
        want = two_pass_residual(f, g, 3, 2, F(7, 2))
        with mock.patch.object(algebra, "_power_nums", wraps=algebra._power_nums) as spy:
            assert convolution_residual(f, g, 3, 2, F(7, 2)) == want
        assert 0 < spy.call_count <= 2 * (len(f.pieces) + len(g.pieces))
        # a constant's powers are scalar powers, so step functions build none
        f, g = step_example(5), delay(step_example(3), F(1, 3))
        want = two_pass_residual(f, g, 3, 2, F(7, 2))
        assert want
        with mock.patch.object(algebra, "_power_nums", wraps=algebra._power_nums) as spy:
            assert convolution_residual(f, g, 3, 2, F(7, 2)) == want
        assert spy.call_count == 0

    @pytest.mark.parametrize("t", [F(9, 2), F(1, 4)], ids=["all_in_force", "g_first_piece_only"])
    def test_a_second_call_builds_only_the_powers_that_depend_on_t(self, t):
        # the powers of all of g's pieces and of f's constant ones are kept
        # from the first call, even one at which only g's first piece is in
        # force; at another t only f's polynomial pieces, composed with
        # t - s, are raised again
        f = PiecewisePoly([0, 1, 2, 3], [Poly([2]), Poly([1, 1]), Poly([F(1, 3)]), Poly([0, 1, 1])])
        g = PiecewisePoly([0, F(1, 2), F(3, 2)], [Poly([1, 2]), Poly([3]), Poly([0, F(1, 2), 1])])
        u = F(7, 2)
        fresh = [PiecewisePoly(pp.breakpoints, pp.pieces) for pp in (f, g)]
        assert convolution_residual(f, g, 3, 2, t) == convolution_residual(*fresh, 3, 2, t)
        with mock.patch.object(
            transforms, "_power_pair", wraps=transforms._power_pair
        ) as pairs, mock.patch.object(algebra, "_power_nums", wraps=algebra._power_nums) as powers:
            got = convolution_residual(f, g, 3, 2, u)
        assert got == two_pass_residual(f, g, 3, 2, u)
        composed = [p.compose_linear(u, -1).coeffs for p in f.pieces if p.degree > 0]
        assert sorted(c.args[0] for c in pairs.call_args_list) == sorted(composed)
        assert powers.call_count == 2 * len(composed)

    @given(residual_cases(), st.fractions(0, 12, max_denominator=64))
    @settings(deadline=None)
    def test_repeated_calls_match_fresh_copies_and_the_two_pass_formula(self, case, u):
        # one pair queried at t, u and t again, with (n, m), then (m, n),
        # then with the roles of f and g swapped, and with f is g: every
        # double is that of a first call on fresh copies
        f, g, n, m, t = case
        want = {}
        for s in (t, u):
            want["fg", n, m, s] = two_pass_residual(f, g, n, m, F(s))
            want["fg", m, n, s] = -want["fg", n, m, s]
            want["gf", n, m, s] = two_pass_residual(g, f, n, m, F(s))
            want["ff", n, m, s] = 0.0
        roles = {"fg": (f, g), "gf": (g, f), "ff": (f, f)}
        for key, a, b in (("fg", n, m), ("fg", m, n), ("gf", n, m), ("ff", n, m)):
            p, q = roles[key]
            for s in (t, u, t):
                got = convolution_residual(p, q, a, b, s)
                p1 = copy.copy(p)
                q1 = p1 if q is p else copy.copy(q)
                assert repr(got) == repr(convolution_residual(p1, q1, a, b, s))
                assert got == want[key, a, b, s]

    def test_a_constant_takes_scalar_powers_in_the_kernels_slots(self):
        # the kernel's one-slot case gives the scalar pair, then count - 1
        # zeros, and packs nothing
        for c in (F(2, 3), F(-5), F(2 ** 60 + 1, 3 ** 38)):
            for a, b in ((3, 5), (5, 3), (1, 2)):
                A, B, den = _scalar_pair(c, a, b)
                for count in (None, 1, 4):
                    pad = [0] * ((count or 1) - 1)
                    with mock.patch.object(
                        algebra, "_slots", side_effect=AssertionError("packed")
                    ) as packed:
                        assert _power_pair((c,), a, b, count) == ([A] + pad, [B] + pad, den)
                    assert packed.call_count == 0

    @given(step_residual_cases())
    @settings(deadline=None)
    def test_step_pairs_match_the_two_pass_formula(self, case):
        # every cell lies between two constants, so no kernel product runs
        f, g, n, m, t = case
        want = two_pass_residual(f, g, n, m, F(t))
        with builds_nothing():
            assert convolution_residual(f, g, n, m, t) == want

    def test_constant_and_polynomial_cells_in_one_call(self):
        # at t = 11/4 the cells are [0, 1/2), [1/2, 3/4), [3/4, 3/2),
        # [3/2, 7/4), [7/4, 11/4): two between constants, three with a
        # polynomial piece, which take two kernel products each
        f = PiecewisePoly([0, 1, 2], [Poly([2]), Poly([1, 1]), Poly([3])])
        g = PiecewisePoly([0, F(1, 2), F(3, 2)], [Poly([1]), Poly([F(1, 3)]), Poly([0, 1])])
        for n, m in ((3, 2), (1, 4)):
            want = two_pass_residual(f, g, n, m, F(11, 4))
            assert want
            with mock.patch.object(algebra, "_product_nums", wraps=algebra._product_nums) as spy:
                assert convolution_residual(f, g, n, m, F(11, 4)) == want
            assert spy.call_count == 2 * 3

    @pytest.mark.parametrize("sign", [1, -1])
    def test_overflow_is_typed(self, sign):
        # the exact residual is +-(10**400 - 10**200), beyond the double range
        big, one = PiecewisePoly([0], [Poly([10 ** 200])]), PiecewisePoly([0], [Poly([1])])
        f, g = (big, one) if sign > 0 else (one, big)
        with pytest.raises(OutOfRange):
            convolution_residual(f, g, 2, 1, 1)

    def test_overflow_names_t_of_any_length(self):
        # an exact t is named as p/q, where repr() of 5000 digits raised
        # ValueError under the default int <-> str digit limit
        f, g = PiecewisePoly([0], [Poly([10 ** 200])]), PiecewisePoly([0], [Poly([1])])
        with pytest.raises(OutOfRange, match="^the residual at t = 1/3 is not a finite double$"):
            convolution_residual(f, g, 2, 1, F(1, 3))
        with pytest.raises(OutOfRange, match=f"^the residual at t = 1{'0' * 5000}/1{'0' * 4999}1 is not"):
            convolution_residual(f, g, 2, 1, F(10 ** 5000, 10 ** 5000 + 1))

    def test_identical_functions_give_zero(self):
        pp = step_example(6)
        for t in (0.0, 0.3, 1.0, 2.5):
            assert convolution_residual(pp, pp, 3, 1, t) == 0.0

    def test_polynomial_pair_matches_integration_oracle(self):
        # f = x, g = x^2 on [0,2]; below t=2 the residual is t^5/30 - t^6/30,
        # which happens to vanish at t=1; checked against direct quadrature
        f = PiecewisePoly([0, 2], [Poly([0, 1]), Poly([2])])
        g = PiecewisePoly([0, 2], [Poly([0, 0, 1]), Poly([4])])

        def oracle(t):
            a, _ = quad(lambda s: (t - s) ** 2 * s ** 2, 0, t, epsabs=1e-14)
            b, _ = quad(lambda s: (t - s) * s ** 4, 0, t, epsabs=1e-14)
            return a - b

        got_half = convolution_residual(f, g, 2, 1, 0.5)
        assert got_half == float(F(1, 1920))
        assert got_half == pytest.approx(oracle(0.5), abs=1e-10)
        assert convolution_residual(f, g, 2, 1, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert convolution_residual(f, g, 2, 1, 1.5) == pytest.approx(oracle(1.5), abs=1e-10)

    def test_crossing_breakpoints_matches_oracle(self):
        f = step_example(4)
        g = PiecewisePoly([0, 1], [Poly([0, 1]), Poly([1])])

        def conv(left, right, t):
            # the integrand jumps where either factor changes piece
            pts = sorted(
                {float(b) for b in right.breakpoints if 0 < float(b) < t}
                | {t - float(b) for b in left.breakpoints if 0 < t - float(b) < t}
            )
            val, _ = quad(
                lambda s: float(left(float(t - s))) * float(right(float(s))),
                0,
                t,
                points=pts or None,
                limit=300,
                epsabs=1e-13,
                epsrel=1e-12,
            )
            return val

        for t in (0.7, 1.9):
            want = conv(f ** 2, g, t) - conv(f, g ** 2, t)
            assert convolution_residual(f, g, 2, 1, t) == pytest.approx(want, abs=1e-10)

    def test_zero_below_origin(self):
        pp = step_example(2)
        assert convolution_residual(pp, pp, 2, 1, 0.0) == 0.0


class TestNonFiniteArguments:
    # a float that is not finite has no exact value: every exact evaluation
    # refuses it with a typed error, not Fraction's ValueError/OverflowError
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rational_function(self, bad):
        with pytest.raises(DomainError):
            ratio_rational(Poly([1, 1]), 2, 1)(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_piecewise_evaluation(self, bad):
        pp = step_example(4)
        with pytest.raises(DomainError):
            pp(bad)
        with pytest.raises(DomainError):
            pp.piece_at(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_convolution_residual(self, bad):
        pp = step_example(4)
        with pytest.raises(DomainError):
            convolution_residual(pp, pp, 2, 1, bad)
