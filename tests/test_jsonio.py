"""Round-trip tests for the shared JSON dialect."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantordiff.constructions import (
    CentralSpec,
    CompositeSpec,
    GreedySpec,
    PerturbedSpec,
    builtin_ternary,
    central_stage,
    composite_stage,
)
from cantordiff.errors import InvalidSpecError
from cantordiff.intervals import Interval, normalize

import oracle
from cantordiff.jsonio import (
    _DECIMALS,
    decimal_str,
    dump_json,
    format_rational,
    gap_table_rows,
    interval_from_obj,
    interval_to_obj,
    parse_rational,
    spec_from_obj,
    spec_to_obj,
    stage_json,
    stage_to_obj,
    union_from_obj,
    union_to_obj,
)


def test_rational_round_trip():
    assert format_rational(F(2, 3)) == "2/3"
    assert format_rational(F(-7, 4)) == "-7/4"
    assert format_rational(F(3)) == "3/1"
    assert parse_rational("2/3") == F(2, 3)
    assert parse_rational("5") == F(5)
    with pytest.raises(InvalidSpecError):
        parse_rational("1/0")
    with pytest.raises(InvalidSpecError):
        parse_rational("x")


def test_decimal_is_20_significant_digits():
    assert decimal_str(F(1, 3)) == "0.33333333333333333333"
    assert decimal_str(F(2)) == "2"
    for q in (F(3**200 + 1, 7**150), F(-(10**45) - 5, 10**25), F(1, 2**4000)):
        assert decimal_str(q) == oracle.oracle_decimal_str(q)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.fractions())
def test_decimal_matches_the_local_context_form(q):
    assert decimal_str(q) == oracle.oracle_decimal_str(q)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30), st.integers(1, 10**6))
def test_unreduced_quotient_has_the_decimal_text(p, grid, k):
    # gap_table_rows divides a record's numerator by its grid, unreduced.
    assert str(_DECIMALS.divide(k * p, k * grid)) == decimal_str(F(p, grid))


def test_interval_round_trip():
    iv = Interval(F(1, 3), F(2, 3), False, True)
    assert interval_from_obj(interval_to_obj(iv)) == iv


def test_union_round_trip():
    u = normalize([Interval.open(0, 1), Interval.point(2)])
    assert union_from_obj(union_to_obj(u)) == u


def test_stage_export_shape():
    obj = stage_to_obj(central_stage(builtin_ternary(), 2))
    assert obj["family"] == "central"
    assert obj["n"] == 2
    assert len(obj["components"]) == 4
    assert obj["gaps"][0] == {
        "address": "",
        "lo": "1/3",
        "hi": "2/3",
        "stage_created": 1,
    }
    assert obj["endpoints"][0] == "0/1"


def test_gap_table_rows():
    rows = list(gap_table_rows(central_stage(builtin_ternary(), 2)))
    assert rows[0][:4] == ["", "1/3", "2/3", "1"]
    assert rows[1][:4] == ["0", "1/9", "2/9", "2"]
    assert rows[2][:4] == ["1", "7/9", "8/9", "2"]


# ---------------------------------------------------------------------
# the fixed-layout stage writer against dump_json(stage_to_obj(stage))


def assert_same_items(got, want):
    """``got == want``, reported at the first item that differs: pytest's
    own diff of two long sequences is quadratic and stalls hypothesis
    while it shrinks a failure."""
    first = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
        min(len(got), len(want)),
    )
    same = got == want
    assert same, f"item {first}: {got[first:first + 1]} != {want[first:first + 1]}"


def assert_written_as_oracle(stage):
    assert_same_items(
        stage_json(stage).splitlines(keepends=True),
        dump_json(stage_to_obj(stage)).splitlines(keepends=True),
    )
    assert_same_items(list(gap_table_rows(stage)), oracle.oracle_gap_table_rows(stage))


_ratios = st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=10)
# a shrink below 1/2 keeps every aligned gap below half its component
_shrinks = st.fractions(min_value=F(1, 10), max_value=F(2, 5), max_denominator=10)
_sources = st.one_of(
    st.builds(CentralSpec.constant, _ratios),
    st.builds(CentralSpec.geometric, _ratios),
    st.builds(PerturbedSpec, _ratios, _shrinks),
)
_specs = st.one_of(
    _sources,
    st.builds(CompositeSpec, st.builds(CentralSpec.constant, _ratios), _sources),
    st.builds(
        GreedySpec,
        st.sampled_from(
            [CentralSpec.geometric(F(1, 4)), CentralSpec.constant(F(1, 2)),
             PerturbedSpec(F(1, 5))]
        ),
    ),
)


# Random tab pairs may stop shrinking; the warning lands in stage.notes.
@pytest.mark.filterwarnings("ignore:max component length did not decrease")
@settings(max_examples=60, derandomize=True, deadline=None)
@given(_specs, st.integers(0, 6))
def test_stage_writer_matches_oracle_on_random_stages(spec, n):
    assert_written_as_oracle(spec.stage(n))


def test_stage_writer_stage0_has_no_gaps():
    stage = central_stage(builtin_ternary(), 0)
    assert stage.gaps == ()
    assert '"gaps": [],' in stage_json(stage)
    assert_written_as_oracle(stage)


def test_stage_writer_addresses():
    tab = composite_stage(
        CompositeSpec(CentralSpec.constant(F(1, 2)), CentralSpec.constant(F(1, 2))), 3
    )
    assert {g.address for g in tab.gaps} == {None}
    central = central_stage(builtin_ternary(), 3)
    assert "" in {g.address for g in central.gaps}
    assert "01" in {g.address for g in central.gaps}
    for stage in (tab, central):
        assert_written_as_oracle(stage)


def test_stage_writer_escapes_notes_as_the_encoder():
    stage = dataclasses.replace(
        central_stage(builtin_ternary(), 2),
        notes=('a "quoted" note', "back\\slash", "\u00e9t\u00e9 \u2264 1"),
    )
    assert r"\u00e9t\u00e9 \u2264" in stage_json(stage)
    assert_written_as_oracle(stage)


@pytest.mark.parametrize(
    "spec",
    [
        CentralSpec.constant(F(1, 3)),
        CentralSpec.from_list((F(1, 2), F(1, 3)), F(1, 3)),
        CentralSpec.geometric(F(1, 4)),
        PerturbedSpec(F(1, 5)),
        PerturbedSpec(F(1, 7), shrink=F(1, 3), interior_gap_fraction=F(1, 2)),
        CompositeSpec(CentralSpec.constant(F(1, 2)), CentralSpec.constant(F(1, 2))),
        GreedySpec(CentralSpec.geometric(F(1, 4))),
    ],
)
def test_spec_round_trip(spec):
    assert spec_from_obj(spec_to_obj(spec)) == spec


def test_spec_shorthand_constant_ratio():
    spec = spec_from_obj({"family": "central", "ratios": "1/3"})
    assert spec == CentralSpec.constant(F(1, 3))


_CENTRAL = {"family": "central", "ratios": "1/2"}


@pytest.mark.parametrize(
    "obj,fragment",
    [
        ({"family": "nope"}, "family"),
        ({"family": "central"}, "ratios"),
        ({"family": "central", "ratios": {"rule": "wat"}}, "rule"),
        ({"family": "perturbed"}, "c1"),
        ({"family": "tab", "a": {"family": "central", "ratios": "1/2"}}, "'b'"),
        (
            {
                "family": "tab",
                "a": {"family": "greedy", "b": {"family": "central", "ratios": "1/2"}},
                "b": {"family": "central", "ratios": "1/2"},
            },
            "central or perturbed",
        ),
        (
            {"family": "central", "ratios": {"rule": "list", "values": 5, "tail": "1/3"}},
            r"spec\.ratios\.values",
        ),
        ({"family": "central", "ratios": {"rule": "constant"}}, r"spec\.ratios: .*'value'"),
        # exponent notation is refused before Fraction expands it
        ({"family": "perturbed", "c1": "1E5"}, r"^spec\.c1: invalid rational '1E5'"),
        (
            {"family": "perturbed", "c1": "1/5", "shrink": "5e-1"},
            r"^spec\.shrink: invalid rational '5e-1'",
        ),
        (
            {"family": "central",
             "ratios": {"rule": "list", "values": ["1/3", "2e-1"], "tail": "1/3"}},
            r"^spec\.ratios\.values\[1\]: invalid rational",
        ),
        # a value out of range is refused at its path as well
        (
            {"family": "tab", "a": _CENTRAL,
             "b": {"family": "central", "ratios": "3/2"}},
            r"^spec\.b\.ratios: ratio out of \(0,1\)$",
        ),
        (
            {"family": "greedy",
             "b": {"family": "central", "ratios": {"rule": "geometric", "base": "1"}}},
            r"^spec\.b\.ratios\.base: ratio out of \(0,1\)$",
        ),
        (
            {"family": "central",
             "ratios": {"rule": "list", "values": ["1/3"], "tail": "0/1"}},
            r"^spec\.ratios: ratio out of \(0,1\)$",
        ),
        (
            {"family": "tab", "a": {"family": "perturbed", "c1": "2"}, "b": _CENTRAL},
            r"^spec\.a: c1 out of \(0,1\)$",
        ),
        (
            {"family": "perturbed", "c1": "1/5", "shrink": "1"},
            r"^spec: shrink out of \(0,1\)$",
        ),
    ],
)
def test_spec_errors(obj, fragment):
    with pytest.raises(InvalidSpecError, match=fragment):
        spec_from_obj(obj)


@pytest.mark.parametrize(
    "obj,fragment",
    [
        ({**_CENTRAL, "ratio": "1/3"}, r"^spec: central spec takes no key 'ratio'"),
        (
            {"family": "perturbed", "c1": "1/5", "shrnk": "1/3"},
            r"^spec: perturbed spec takes no key 'shrnk'",
        ),
        (
            {"family": "tab", "a": _CENTRAL, "b": _CENTRAL, "c": _CENTRAL},
            r"^spec: tab spec takes no key 'c'",
        ),
        (
            {"family": "greedy", "b": {**_CENTRAL, "rule": "constant"}},
            r"^spec\.b: central spec takes no key 'rule'",
        ),
        (
            {"family": "central", "ratios": {"rule": "constant", "value": "1/3",
                                             "tail": "1/3"}},
            r"^spec\.ratios: constant rule takes no key 'tail'",
        ),
        (
            {"family": "central", "ratios": {"rule": "list", "values": [],
                                             "tail": "1/3", "base": "1/3"}},
            r"^spec\.ratios: list rule takes no key 'base'",
        ),
        (
            {"family": "central", "ratios": {"rule": "geometric", "base": "1/4",
                                             "vaule": "1"}},
            r"^spec\.ratios: geometric rule takes no key 'vaule'",
        ),
    ],
)
def test_unknown_spec_keys_are_refused(obj, fragment):
    with pytest.raises(InvalidSpecError, match=fragment):
        spec_from_obj(obj)


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["1/3", "1/0", "2", "x", "central", "tab", "list"])
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_SPEC_LIKE = st.recursive(
    _JSON,
    lambda inner: st.fixed_dictionaries(
        {"family": st.sampled_from(["central", "perturbed", "tab", "greedy", "x"])},
        optional={
            "ratios": inner
            | st.fixed_dictionaries(
                {"rule": st.sampled_from(["constant", "list", "geometric", "x"])},
                optional={"value": inner, "values": inner, "tail": inner, "base": inner},
            ),
            "c1": inner,
            "shrink": inner,
            "interior_gap_fraction": inner,
            "a": inner,
            "b": inner,
        },
    ),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(_SPEC_LIKE)
def test_spec_from_obj_raises_only_invalid_spec(obj):
    try:
        spec_from_obj(obj)
    except InvalidSpecError:
        pass
