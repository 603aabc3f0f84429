"""The package's value types against a frozen dataclass with the same fields:
the same repr, == and hash by fields, no assignment or deletion, and copy
and pickle round trips."""

import copy
import dataclasses
import pickle

import pytest

from duadic import (
    BchCertificate,
    CertifiedBound,
    CyclicCode,
    CyclotomicCoset,
    DefiningSet,
    ExtendedCode,
    TheoremVerdict,
    WeightClassSpec,
    WeightDistribution,
    defining_set,
    from_defining_set,
)
from duadic._frozen import frozen

_CODE = from_defining_set(defining_set(WeightClassSpec(r=2, m=3, S=(1,))))

# One valid instance of each value type, as its fields in declaration order.
VALUES = [
    (BchCertificate, dict(v=3, start=1, run_length=2, d_lower=3, gamma_exponent=5)),
    (CyclicCode, dict(g=_CODE.g, h=_CODE.h, T=_CODE.T)),
    (ExtendedCode, dict(base=_CODE)),
    (CyclotomicCoset, dict(n=7, leader=1, elements=(1, 2, 4))),
    (DefiningSet, dict(n=7, bits=0b10110)),
    (WeightClassSpec, dict(r=4, m=5, S=(0, 1), unchecked=False)),
    (CertifiedBound, dict(lower=3, upper=4, witness=0b1111, method="search", min_odd_weight=None, seed=1, effort=2)),
    (WeightDistribution, dict(n=3, k=1, counts=(1, 0, 0, 1))),
    (TheoremVerdict, dict(theorem="T4", residue_case=None, d_lower=19, d_dual_lower=20, d_ext_lower=20, v=15,
                          run_length=18, best_d_lower=19)),
]


@pytest.fixture(params=VALUES, ids=lambda case: case[0].__name__)
def case(request):
    cls, fields = request.param
    reference = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)
    return cls(**fields), reference(**fields), fields


def test_fields_are_slots_in_declaration_order(case):
    value, _, fields = case
    assert type(value).__slots__ == tuple(fields)
    assert not hasattr(value, "__dict__")
    assert [getattr(value, name) for name in fields] == list(fields.values())


def test_repr_is_the_dataclass_repr(case):
    value, reference, _ = case
    assert repr(value) == repr(reference)


def test_equality_and_hash_are_by_fields(case):
    value, reference, fields = case
    cls = type(value)
    twin = cls(**fields)
    assert value == twin and not value != twin and hash(value) == hash(twin) == hash(reference)
    assert value != reference and reference != value  # equal fields, another type
    assert value != tuple(fields.values())
    for changed in fields:  # each field takes part, written past __init__ and its checks
        other = cls.__new__(cls)
        for name, field in fields.items():
            object.__setattr__(other, name, object() if name == changed else field)
        assert value != other


def test_assignment_and_deletion_raise(case):
    value, _, fields = case
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_return_an_equal_instance(case, round_trip):
    value = case[0]
    again = round_trip(value)
    assert type(again) is type(value) and again == value and repr(again) == repr(value)


def test_defaults_fill_the_trailing_fields():
    assert CertifiedBound(lower=1, upper=1, witness=1, method="m") == CertifiedBound(1, 1, 1, "m", None, None, None)
    assert WeightClassSpec(4, 5, (0, 1)).unchecked is False
    with pytest.raises(TypeError):
        WeightClassSpec(4, 5)


def test_post_init_checks_still_raise():
    with pytest.raises(ValueError, match="invalid bound interval"):
        CertifiedBound(lower=5, upper=4, witness=0b1111, method="m")
    with pytest.raises(ValueError, match="witness weight"):
        CertifiedBound(lower=3, upper=3, witness=0b1111, method="m")
    with pytest.raises(ValueError, match="not 2\\^m - 1"):
        DefiningSet(n=8, bits=0)
    with pytest.raises(ValueError, match="beyond Z_n"):
        DefiningSet(n=7, bits=1 << 7)
    with pytest.raises(ValueError, match="duplicate residues"):
        WeightClassSpec(r=4, m=5, S=(1, 1))
    spec = WeightClassSpec(r=4, m=5, S=(1, 0))  # __post_init__ sorts S, and a copy keeps it sorted
    assert spec.S == copy.copy(spec).S == (0, 1)


def test_a_field_without_a_default_cannot_follow_one_with_a_default():
    with pytest.raises(TypeError, match="without a default"):
        @frozen
        class Bad:
            a: int = 0
            b: int
