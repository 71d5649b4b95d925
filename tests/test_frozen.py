"""The value classes on algebra.Frozen against dataclasses.dataclass(frozen=True)
twins: the classes as they were written with dataclasses, checks included.
Each pair must agree on repr, ==, hash, construction and refusals.  The
classes that print their own repr have no twin; they are checked for
Frozen's refusals, round trips and hashing alone."""

import copy
import math
import pickle
import sys
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import pytest

from laplaceratio.algebra import Frozen, Poly, Series
from laplaceratio.auction import AuctionModel, Exponential, Lognormal, McConfig, PointMass, Shifted
from laplaceratio.errors import DomainError
from laplaceratio.identify import IdentifyResult, RatioSpec
from laplaceratio.transforms import (
    PiecewisePoly,
    RationalFunction,
    RatioExpansion,
    _check_exponents,
)


@dataclass(frozen=True)
class RatioSpecTwin:
    n: int
    m: int

    def __post_init__(self):
        _check_exponents(self.n, self.m)


@dataclass(frozen=True)
class IdentifyResultTwin:
    poly: Poly
    ambiguous_sign: bool
    recovered_degree: int
    k: int


@dataclass(frozen=True)
class RatioExpansionTwin:
    lead: int
    tail: Series

    def __post_init__(self):
        if not self.tail.coeffs[0]:
            raise DomainError("ratio expansion tail must have a nonzero constant term")


@dataclass(frozen=True)
class ExponentialTwin:
    theta: float

    def __post_init__(self):
        if not self.theta > 0:
            raise DomainError(f"exponential rate must be positive, got {self.theta}")


@dataclass(frozen=True)
class LognormalTwin:
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError(f"lognormal sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class PointMassTwin:
    v: float

    def __post_init__(self):
        if self.v < 0:
            raise DomainError(f"point mass location must be nonnegative, got {self.v}")


@dataclass(frozen=True)
class ShiftedTwin:
    base: object
    offset: float


@dataclass(frozen=True)
class AuctionModelTwin:
    common: object
    idiosyncratic: object
    n_bidders: int

    def __post_init__(self):
        if not isinstance(self.n_bidders, int) or self.n_bidders < 2:
            raise DomainError("an auction needs at least 2 bidders")


@dataclass(frozen=True)
class McConfigTwin:
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError("samples must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in 64 unsigned bits")


TAIL = Series([1, Fraction(-1, 3)], 1)
# accepted arguments, several per class so that unequal pairs occur; the
# twin's classes have the same names less "Twin", which repr must not show
VALID = {
    RatioSpec: [(2, 1), (1, 2), (3, 1), (2, 10 ** 30)],
    IdentifyResult: [(Poly([0, 1]), False, 3, 1), (Poly([0, 1]), True, 3, 1), (Poly([1]), False, 0, 0)],
    RatioExpansion: [(0, TAIL), (-1, TAIL), (0, Series([2], 0))],
    Exponential: [(1.0,), (0.5,), (Fraction(1, 3),), (10 ** 300,)],
    Lognormal: [(0.0, 1.0), (-0.0, 1.0), (0.7, 1.3), (-700.0, 5e-324)],
    PointMass: [(0.0,), (1.0,), (2,)],
    Shifted: [(Exponential(1.0), 2.0), (PointMass(1.0), 2.0), (Exponential(1.0), -0.5)],
    AuctionModel: [(PointMass(0.0), Exponential(1.0), 5), (PointMass(0.0), Exponential(1.0), 3)],
    McConfig: [(10, 1), (1, 2 ** 64 - 1)],
}
# arguments the twins refuse too: the message must be unchanged
REFUSED = {
    RatioSpec: [(1, 1), (0, 1), (2, -1), (2.0, 1)],
    RatioExpansion: [(0, Series([0, 1], 1))],
    Exponential: [(0,), (-1.0,), (math.nan,), (-math.inf,)],
    Lognormal: [(0.0, 0.0), (0.0, -1.0), (math.nan, -1.0), (0.0, math.nan)],
    PointMass: [(-2,), (-math.inf,)],
    AuctionModel: [(PointMass(0.0), Exponential(1.0), 1), (PointMass(0.0), Exponential(1.0), 2.0)],
    McConfig: [(0, 1), (10, -1), (10, 2 ** 64)],
}
# the classes with their own repr and no twin, with accepted arguments;
# the first two of each list build equal values
OWN_REPR = {
    Poly: [([1, Fraction(-1, 2)],), ([1, Fraction(-1, 2), 0],), ((),), ([0, 1],)],
    Series: [([1, 2], 3), ([1, 2, 0, 0, 7], 3), ([1, 2], 2), ([], 0)],
    PiecewisePoly: [
        ([0, 1], [Poly([1]), Poly([0, 2])]),
        (["0", Fraction(1)], [[1], [0, 2]]),
        ([0], [Poly()]),
    ],
    RationalFunction: [
        (Poly([2, 0, 2]), Poly([0, 4, 0, 1])),
        (Poly([1, 0, 1]), Poly([0, 2, 0, Fraction(1, 2)])),
        (Poly([0, 1]), Poly([0, 2])),
    ],
}


def twin_of(cls):
    return globals()[cls.__name__ + "Twin"]


def twin_args(args):
    """The arguments with each value class that has a twin replaced by it."""
    return tuple(
        twin_of(type(a))(*twin_args(a._fields(a))) if type(a) in VALID else a for a in args
    )


def build_both(cls, args):
    return cls(*args), twin_of(cls)(*twin_args(args))


@pytest.mark.parametrize("cls", VALID, ids=lambda c: c.__name__)
def test_repr_eq_and_hash_match_the_twin(cls):
    pairs = [build_both(cls, args) for args in VALID[cls]]
    for new, twin in pairs:
        assert repr(new) == repr(twin).replace("Twin(", "(")
        assert hash(new) == hash(twin)
    for a, ta in pairs:
        for b, tb in pairs:
            assert (a == b) is (ta == tb)
            assert (a != b) is (ta != tb)
    assert cls(*VALID[cls][0]) == pairs[0][0]


# int fields past any int <-> str digit limit, which str() refuses
HUGE = 10 ** 5000
HUGE_FIELDS = [
    (RatioExpansion, (-HUGE, TAIL)),
    (RatioSpec, (2, HUGE)),
    (IdentifyResult, (Poly([0, 1]), True, HUGE, 1)),
    (McConfig, (HUGE, 1)),
]


@pytest.mark.parametrize("cls, args", HUGE_FIELDS, ids=[c.__name__ for c, _ in HUGE_FIELDS])
def test_repr_prints_ints_of_any_length(cls, args):
    new, twin = build_both(cls, args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit: the twin's repr as str() would print it
    try:
        want = repr(twin).replace("Twin(", "(")
    finally:
        sys.set_int_max_str_digits(limit)
    assert repr(new) == want


def test_equal_fields_of_two_classes_compare_unequal():
    for a, b in [(Exponential(1.0), PointMass(1.0)), (ExponentialTwin(1.0), PointMassTwin(1.0))]:
        assert a != b and not a == b
        assert hash(a) == hash(b)  # the same field tuple
    assert RatioSpec(2, 1) != (2, 1)
    assert RatioSpec(2, 1).__eq__((2, 1)) is NotImplemented
    assert RatioSpecTwin(2, 1).__eq__((2, 1)) is NotImplemented


def test_assignment_and_deletion_raise_attribute_error():
    for obj in [RatioSpec(2, 1), RatioSpecTwin(2, 1), McConfig(10, 1), McConfigTwin(10, 1)]:
        with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
            obj.n = 3
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            obj.other = 3
        with pytest.raises(AttributeError, match="cannot delete field 'seed'"):
            del obj.seed
    assert issubclass(FrozenInstanceError, AttributeError)
    spec = RatioSpec(2, 1)
    with pytest.raises(AttributeError):  # slots only: no instance dict to write into
        spec.__dict__
    assert (spec.n, spec.m) == (2, 1)


def test_positional_and_keyword_arguments():
    for cls in (McConfig, McConfigTwin):
        assert cls(10, 1) == cls(samples=10, seed=1) == cls(10, seed=1)
    assert repr(McConfig(seed=1, samples=10)) == "McConfig(samples=10, seed=1)"
    new, twin = build_both(RatioExpansion, (0, TAIL))
    assert RatioExpansion(tail=TAIL, lead=0) == new
    assert RatioExpansionTwin(tail=TAIL, lead=0) == twin


@pytest.mark.parametrize("cls", VALID, ids=lambda c: c.__name__)
def test_missing_and_unknown_arguments_raise_the_same_type_error(cls):
    args = VALID[cls][0]
    calls = [
        ((), {}),
        (args[:-1], {}),
        (args, {"bogus": 1}),
        (args + (1, 2), {}),
        (args, {cls.__slots__[0]: args[0]}),
    ]
    for call_args, kwargs in calls:
        with pytest.raises(TypeError) as new_err:
            cls(*call_args, **kwargs)
        with pytest.raises(TypeError) as twin_err:
            twin_of(cls)(*twin_args(call_args), **kwargs)
        assert str(new_err.value) == str(twin_err.value).replace("Twin.", ".")


@pytest.mark.parametrize("cls", REFUSED, ids=lambda c: c.__name__)
def test_validation_messages_are_unchanged(cls):
    for args in REFUSED[cls]:
        with pytest.raises(DomainError) as new_err:
            cls(*args)
        with pytest.raises(DomainError) as twin_err:
            twin_of(cls)(*twin_args(args))
        assert str(new_err.value) == str(twin_err.value)


@pytest.mark.parametrize("cls", [*VALID, *OWN_REPR], ids=lambda c: c.__name__)
def test_pickle_and_copy_round_trip(cls):
    for args in {**VALID, **OWN_REPR}[cls]:
        obj = cls(*args)
        for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(back) is cls and back == obj and repr(back) == repr(obj)


@pytest.mark.parametrize("cls", OWN_REPR, ids=lambda c: c.__name__)
def test_own_repr_classes_refuse_assignment_and_deletion(cls):
    obj = cls(*OWN_REPR[cls][0])
    for name in cls._names:
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, before)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
        obj.other = 1


@pytest.mark.parametrize("cls", [Poly, Series], ids=lambda c: c.__name__)
def test_equal_polys_and_series_hash_equal(cls):
    first, second, *others = (cls(*args) for args in OWN_REPR[cls])
    assert first == second and hash(first) == hash(second)
    assert len({first, second, *others}) == 1 + len(others)
    for other in others:
        assert first != other
    assert first != first._fields(first) and first.__eq__(first._fields(first)) is NotImplemented


@pytest.mark.parametrize("cls", [PiecewisePoly, RationalFunction], ids=lambda c: c.__name__)
def test_piecewise_and_rational_functions_stay_unhashable(cls):
    first, second, *others = (cls(*args) for args in OWN_REPR[cls])
    assert first == second
    assert cls.__hash__ is None
    with pytest.raises(TypeError, match="unhashable type"):
        hash(first)


def test_every_value_class_is_covered():
    # a new subclass must join the tables above
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    library = {c for c in subclasses(Frozen) if c.__module__.startswith("laplaceratio.")}
    assert library == set(VALID) | set(OWN_REPR)
