"""The package's frozen records against ``dataclasses``, their reference.

Each record class has a twin made by ``dataclasses.make_dataclass`` with
``frozen=True`` and ``slots=True`` from the class's own annotations, the
defaults written in its body and its ``__post_init__``.  On sample values
the two must agree on ``==``, ``hash``, ``repr``, the refusal to assign or
delete an attribute, and which constructor calls raise ``TypeError``.
Every record also survives ``copy`` and ``pickle``.
"""

import copy
import dataclasses
import importlib
import itertools
import pickle
from fractions import Fraction as F

import pytest

from cantordiff import constructions
from cantordiff.analysis import (
    DiffBracket,
    DominantGapCertificate,
    ShiftInclusionResult,
    difference_bracket,
    dominant_gap_certificate,
)
from cantordiff.constructions import (
    CantorStage,
    CentralSpec,
    CompositeSpec,
    ConstantRatios,
    GeometricRatios,
    GreedyCertificate,
    GreedySpec,
    ListRatios,
    PerturbedSpec,
    central_stage,
    greedy_certificate,
)
from cantordiff.intervals import UNIT, Interval, IntervalUnion

# The field defaults as the class bodies write them.
DEFAULTS = {
    Interval: {"lo_closed": True, "hi_closed": True},
    CantorStage: {"notes": ()},
    PerturbedSpec: {"shrink": F(1, 2), "interior_gap_fraction": F(1)},
    ShiftInclusionResult: {"violation_stage": None, "witness": None},
}
# Their constructors are their own ``__new__``, not a generated __init__.
NO_INIT = (IntervalUnion,)


def _samples():
    """Two unequal records of each class."""
    ternary = CentralSpec.constant(F(1, 3))
    stages = [central_stage(ternary, n) for n in (1, 2)]
    brackets = [difference_bracket(s) for s in stages]
    gap = stages[1].rightmost_gaps()[1]  # (1/3, 2/3)
    return {
        Interval: [Interval.closed(0, 1), Interval.open(0, 1)],
        IntervalUnion: [
            IntervalUnion((UNIT,)),
            IntervalUnion((Interval.open(0, F(1, 2)),)),
        ],
        CantorStage: stages,
        ConstantRatios: [ConstantRatios(F(1, 3)), ConstantRatios(F(1, 2))],
        ListRatios: [ListRatios((F(1, 3),), F(1, 2)), ListRatios((), F(1, 2))],
        GeometricRatios: [GeometricRatios(F(1, 4)), GeometricRatios(F(1, 2))],
        CentralSpec: [ternary, CentralSpec.geometric(F(1, 3))],
        PerturbedSpec: [PerturbedSpec(F(1, 5)), PerturbedSpec(F(1, 5), F(1, 3))],
        CompositeSpec: [
            CompositeSpec(ternary, ternary),
            CompositeSpec(ternary, PerturbedSpec(F(1, 5))),
        ],
        GreedySpec: [GreedySpec(ternary), GreedySpec(CentralSpec.geometric(F(1, 4)))],
        GreedyCertificate: [
            greedy_certificate(GreedySpec(CentralSpec.geometric(F(1, 4))), n)
            for n in (1, 2)
        ],
        DiffBracket: brackets,
        DominantGapCertificate: [
            dominant_gap_certificate(stages[1], gap, 0, F(1, 3)),
            dominant_gap_certificate(stages[1], gap, 0, F(1, 9)),
        ],
        ShiftInclusionResult: [
            ShiftInclusionResult(True, 3),
            ShiftInclusionResult(False, 2, 1, F(1, 2)),
        ],
    }


SAMPLES = _samples()


def test_every_record_class_is_sampled():
    modules = ("intervals", "constructions", "analysis", "verify")
    records = {
        cls
        for name in modules
        for cls in vars(importlib.import_module(f"cantordiff.{name}")).values()
        if isinstance(cls, type) and "__match_args__" in vars(cls)
    }
    assert records == set(SAMPLES) and len(records) == 14


def _twin(cls):
    defaults = DEFAULTS.get(cls, {})
    fields = [
        (name, kind, dataclasses.field(default=defaults[name]))
        if name in defaults
        else (name, kind)
        for name, kind in vars(cls)["__annotations__"].items()
    ]
    namespace = {k: v for k, v in vars(cls).items() if k == "__post_init__"}
    return dataclasses.make_dataclass(
        cls.__name__,
        fields,
        namespace=namespace,
        frozen=True,
        slots=True,
        init=cls not in NO_INIT,
    )


def _values(record):
    return [getattr(record, name) for name in type(record).__match_args__]


def _make(cls, values):
    """An instance of ``cls`` with the field values, past any __init__."""
    record = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(record, name, value)
    return record


def _outcome(call, *args, **kwargs):
    """What the call returns, or the type and message of what it raises."""
    try:
        return "returned", call(*args, **kwargs)
    except (AttributeError, TypeError) as exc:
        kind = AttributeError if isinstance(exc, AttributeError) else TypeError
        return kind, str(exc)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
class TestAgainstDataclass:
    def test_fields_slots_and_match_args(self, cls):
        twin = _twin(cls)
        assert cls.__match_args__ == twin.__match_args__
        assert vars(cls).get("__slots__") == vars(twin).get("__slots__")

    def test_eq_hash_and_repr(self, cls):
        twin = _twin(cls)
        records = SAMPLES[cls]
        # a copy of each, equal but not the same object
        records = records + [_make(cls, _values(r)) for r in records]
        twins = [_make(twin, _values(r)) for r in records]
        assert records[0] != records[1]
        for (a, ta), (b, tb) in itertools.product(zip(records, twins), repeat=2):
            assert (a == b) is (ta == tb)
            assert (a != b) is (ta != tb)
        for record, other in zip(records, twins):
            assert record != other and record.__eq__(other) is NotImplemented
            assert _outcome(hash, record) == _outcome(hash, other)
            assert repr(record) == repr(other)

    def test_assigning_or_deleting_is_refused_alike(self, cls):
        record = SAMPLES[cls][0]
        other = _make(_twin(cls), _values(record))
        for name in cls.__match_args__:
            refused = _outcome(setattr, record, name, None)
            assert refused[0] is AttributeError
            assert refused == _outcome(setattr, other, name, None)
            assert _outcome(delattr, record, name) == _outcome(delattr, other, name)
        # A frozen slots dataclass raises TypeError here (its __setattr__
        # names the class it replaced), so only the record is checked.
        with pytest.raises(AttributeError, match="^cannot assign to field"):
            record.not_a_field = None
        with pytest.raises(AttributeError, match="^cannot delete field"):
            del record.not_a_field
        assert _values(record) == _values(SAMPLES[cls][0])

    def test_copies_and_pickles_are_equal_records(self, cls):
        # made past __init__ and __new__: IntervalUnion's __new__ takes
        # parts, which its fields do not hold
        for record in SAMPLES[cls]:
            for made in (
                copy.copy(record),
                copy.deepcopy(record),
                pickle.loads(pickle.dumps(record)),
            ):
                assert type(made) is cls and made == record
                assert repr(made) == repr(record)


@pytest.mark.parametrize(
    "cls", [c for c in SAMPLES if c not in NO_INIT], ids=lambda cls: cls.__name__
)
def test_constructor_arguments(cls):
    twin = _twin(cls)
    values = _values(SAMPLES[cls][1])
    names = cls.__match_args__
    calls = [
        *((values[:k], {}) for k in range(len(values) + 1)),
        ((*values, None), {}),
        (values, {"not_a_field": None}),
        (values, {names[0]: values[0]}),
        ((), dict(zip(names, values))),
        (values[:1], dict(zip(names[1:], values[1:]))),
    ]
    for args, kwargs in calls:
        made = _outcome(cls, *args, **kwargs)
        reference = _outcome(twin, *args, **kwargs)
        assert made[0] == reference[0], (args, kwargs)
        if made[0] == "returned":
            assert repr(made[1]) == repr(reference[1])
            assert _values(made[1]) == _values(reference[1])


def test_specs_of_two_ratio_rules_are_distinct_cache_keys():
    # Tuple equality would make these equal, and the first spec's cached
    # stages would then answer for the second.
    half = F(1, 2)
    assert ConstantRatios(half) != GeometricRatios(half)
    constant = CentralSpec(ConstantRatios(half))
    geometric = CentralSpec(GeometricRatios(half))
    assert constant != geometric
    constructions._sequence.cache_clear()
    stages = [spec.stage(3) for spec in (constant, geometric)]
    assert stages[0] != stages[1]
    for spec, stage in zip((constant, geometric), stages):
        assert stage.components.max_component_length() == spec.component_length(3)
