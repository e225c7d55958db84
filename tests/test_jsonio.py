"""Round-trip tests for the shared JSON dialect."""

import json
import re
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cantordiff import constructions, jsonio
from cantordiff.constructions import (
    CantorStage,
    CentralSpec,
    CompositeSpec,
    ConstantRatios,
    GeometricRatios,
    GreedySpec,
    ListRatios,
    PerturbedSpec,
    central_stage,
    composite_stage,
)
from cantordiff.errors import InvalidSpecError, InvariantError
from cantordiff.intervals import Interval, normalize

import oracle
from cantordiff.jsonio import (
    _DECIMALS,
    decimal_str,
    dump_json,
    format_rational,
    gap_table_rows,
    parse_rational,
    spec_from_obj,
    spec_to_obj,
    stage_to_obj,
    write_stage_files,
)

TERNARY = CentralSpec.constant(F(1, 3))


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


def test_stage_export_shape():
    obj = stage_to_obj(central_stage(TERNARY, 2))
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
    rows = list(gap_table_rows(central_stage(TERNARY, 2)))
    assert rows[0][:4] == ["", "1/3", "2/3", "1"]
    assert rows[1][:4] == ["0", "1/9", "2/9", "2"]
    assert rows[2][:4] == ["1", "7/9", "8/9", "2"]


# ---------------------------------------------------------------------
# the streamed stage writer against dump_json(stage_to_obj(stage)) and
# the csv.writer table of oracle_gap_table_rows(stage)


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


def assert_written_as_oracle(stages, out):
    """Write ``stages`` into ``out`` and compare every file with its
    oracle; return the stage files' texts."""
    write_stage_files(stages, out)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{kind}_{s.n:03d}.{ext}" for s in stages
        for kind, ext in (("stage", "json"), ("gaps", "csv"))
    )
    texts = []
    for stage in stages:
        # bytes, so that a "\r\n" line end would show
        text = (out / f"stage_{stage.n:03d}.json").read_bytes().decode("utf-8")
        table = (out / f"gaps_{stage.n:03d}.csv").read_bytes().decode("utf-8")
        assert_same_items(
            text.splitlines(keepends=True),
            dump_json(stage_to_obj(stage)).splitlines(keepends=True),
        )
        assert_same_items(
            table.splitlines(keepends=True),
            oracle.oracle_gap_table(stage).splitlines(keepends=True),
        )
        assert_same_items(
            list(gap_table_rows(stage)), oracle.oracle_gap_table_rows(stage)
        )
        texts.append(text)
    return texts


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
def test_stage_writer_matches_oracle_on_random_stage_sequences(spec, n):
    with tempfile.TemporaryDirectory() as out:
        assert_written_as_oracle([spec.stage(k) for k in range(n + 1)], Path(out))


def test_stage_writer_stage0_has_no_gaps(tmp_path):
    stage = central_stage(TERNARY, 0)
    assert stage.gaps == ()
    (text,) = assert_written_as_oracle([stage], tmp_path)
    assert '"gaps": [],' in text
    assert (tmp_path / "gaps_000.csv").read_text(encoding="utf-8") == (
        "address,lo,hi,stage_created,lo_decimal,hi_decimal\n"
    )


def test_stage_writer_addresses(tmp_path):
    tab = composite_stage(
        CompositeSpec(CentralSpec.constant(F(1, 2)), CentralSpec.constant(F(1, 2))), 3
    )
    assert {g.address for g in tab.gaps} == {None}
    central = central_stage(TERNARY, 3)
    assert "" in {g.address for g in central.gaps}
    assert "01" in {g.address for g in central.gaps}
    assert_written_as_oracle([tab], tmp_path / "tab")
    assert_written_as_oracle([central], tmp_path / "central")


@pytest.mark.parametrize(
    "spec",
    [
        CompositeSpec(CentralSpec.constant(F(1, 2)), CentralSpec.constant(F(3, 4))),
        GreedySpec(CentralSpec.constant(F(1, 10))),
    ],
    ids=["tab-1_2-3_4", "greedy-1_10"],
)
def test_stage_writer_reads_gap_records_on_their_own_grids(tmp_path, spec):
    # A record keeps the grid of the step that made it, so the records
    # of one stage sit on several grids, each dividing the stage's.
    stages = [spec.stage(n) for n in range(9)]
    assert len({g.grid for g in stages[-1].gaps}) > 2
    assert_written_as_oracle(stages, tmp_path)


def test_stage_writer_reads_regrown_gaps(tmp_path):
    # With B = {0} the composite is A | ((A + 1/2) & [1/2, 1]); its gap
    # (1/8, 3/8) grows at stages 2 and 3 and is recorded anew each time
    # (as in test_composite_dates_grown_gaps_as_new).
    a_stages = [
        normalize([Interval.closed(0, F(1, 2))]),
        normalize([Interval.closed(0, F(1, 8)), Interval.closed(F(3, 8), F(1, 2))]),
        normalize([Interval.closed(0, F(1, 8)), Interval.closed(F(7, 16), F(1, 2))]),
        normalize([Interval.closed(0, F(1, 16)), Interval.closed(F(7, 16), F(1, 2))]),
    ]
    zero = normalize([Interval.point(0)])
    sums = (constructions._windowed_sum(a, zero) for a in a_stages)
    built = constructions._composite_steps(a_stages.__getitem__, sums, "tab")
    stages = [next(built) for _ in a_stages]
    assert [[g.stage_created for g in s.gaps] for s in stages] == [
        [], [1, 1], [2, 2], [3, 3]
    ]
    assert_written_as_oracle(stages, tmp_path)


def test_stage_writer_escapes_notes_as_the_encoder(tmp_path):
    s = central_stage(TERNARY, 2)
    notes = ('a "quoted" note', "back\\slash", "\u00e9t\u00e9 \u2264 1")
    stage = CantorStage(s.n, s.components, s.gaps, s.family, notes)
    (text,) = assert_written_as_oracle([stage], tmp_path)
    assert r"\u00e9t\u00e9 \u2264" in text


def test_stage_writer_formats_each_end_once(tmp_path, monkeypatch):
    # One "p/q" text per listed endpoint serves the components, the
    # endpoints and the gaps, in the stage file and in the gap table.
    stages = [
        composite_stage(
            CompositeSpec(CentralSpec.constant(F(1, 2)), CentralSpec.constant(F(1, 2))),
            n,
        )
        for n in range(10)
    ]
    calls = []
    ratio_text = jsonio._ratio_text
    monkeypatch.setattr(
        jsonio, "_ratio_text", lambda p, grid: calls.append(p) or ratio_text(p, grid)
    )
    write_stage_files(stages, tmp_path)
    assert len(calls) == sum(len(s.endpoints) for s in stages) == 31_560


def _unit_thirds_stage(gap):
    """Stage 1 of the ternary set with its one gap record replaced."""
    stage = central_stage(TERNARY, 1)
    gaps = (oracle.gap_record("", gap, 1),)
    return CantorStage(stage.n, stage.components, gaps, stage.family, stage.notes)


@pytest.mark.parametrize(
    "gap",
    [
        Interval.open(F(1, 3), F(1, 2)),  # on a grid that divides the stage's
        Interval.open(F(1, 4), F(2, 3)),  # on one that does not
        Interval.open(F(1, 9), F(2, 9)),  # inside a component
    ],
    ids=str,
)
def test_gap_end_off_the_components_is_an_invariant_error(tmp_path, gap):
    stage = _unit_thirds_stage(gap)
    with pytest.raises(InvariantError, match="stage 1: gap .* component ends"):
        write_stage_files([central_stage(TERNARY, 0), stage], tmp_path)
    # the failed call leaves no file, not even the whole stage before it
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "spec",
    [
        CentralSpec.constant(F(1, 3)),
        CentralSpec(ListRatios((F(1, 2), F(1, 3)), F(1, 3))),
        CentralSpec.geometric(F(1, 4)),
        PerturbedSpec(F(1, 5)),
        PerturbedSpec(F(1, 7), shrink=F(1, 3), interior_gap_fraction=F(1, 2)),
        CompositeSpec(CentralSpec.constant(F(1, 2)), CentralSpec.constant(F(1, 2))),
        GreedySpec(CentralSpec.geometric(F(1, 4))),
    ],
)
def test_spec_round_trip(spec):
    assert spec_from_obj(spec_to_obj(spec)) == spec


def _below(top):
    """Fractions p/q in (0, 1), or (0, 1] with ``top``."""
    return st.integers(2, 40).flatmap(
        lambda q: st.integers(1, q if top else q - 1).map(lambda p: F(p, q))
    )


_RATIO, _AT_MOST_ONE = _below(False), _below(True)
_RULES = st.one_of(
    st.builds(ConstantRatios, _RATIO),
    st.builds(ListRatios, st.lists(_RATIO, max_size=3).map(tuple), _RATIO),
    st.builds(GeometricRatios, _RATIO),
)
_HALF_SOURCES = st.one_of(
    st.builds(CentralSpec, _RULES),
    st.builds(PerturbedSpec, _RATIO, _RATIO, _AT_MOST_ONE),
)
_SPECS = st.one_of(
    _HALF_SOURCES,
    st.builds(CompositeSpec, _HALF_SOURCES, _HALF_SOURCES),
    st.builds(GreedySpec, _HALF_SOURCES),
)


@settings(max_examples=200, deadline=None)
@given(_SPECS)
def test_spec_round_trip_on_random_specs(spec):
    obj = spec_to_obj(spec)
    assert spec_from_obj(obj) == spec
    # the object is plain JSON, so a spec file holds it
    assert json.loads(dump_json(obj)) == obj


# Canonical spec objects, spelled out as a spec file writes them: each
# rational as reduced "p/q" text and every perturbed field present.
_TEXT = st.builds(format_rational, _RATIO)
_RULE_OBJS = st.one_of(
    st.fixed_dictionaries({"rule": st.just("constant"), "value": _TEXT}),
    st.fixed_dictionaries(
        {"rule": st.just("list"), "values": st.lists(_TEXT, max_size=3), "tail": _TEXT}
    ),
    st.fixed_dictionaries({"rule": st.just("geometric"), "base": _TEXT}),
)
_HALF_SOURCE_OBJS = st.one_of(
    st.fixed_dictionaries({"family": st.just("central"), "ratios": _RULE_OBJS}),
    st.fixed_dictionaries(
        {
            "family": st.just("perturbed"),
            "c1": _TEXT,
            "shrink": _TEXT,
            "interior_gap_fraction": st.builds(format_rational, _AT_MOST_ONE),
        }
    ),
)
_SPEC_OBJS = st.one_of(
    _HALF_SOURCE_OBJS,
    st.fixed_dictionaries(
        {"family": st.just("tab"), "a": _HALF_SOURCE_OBJS, "b": _HALF_SOURCE_OBJS}
    ),
    st.fixed_dictionaries({"family": st.just("greedy"), "b": _HALF_SOURCE_OBJS}),
)


@settings(max_examples=200, deadline=None)
@given(_SPEC_OBJS)
def test_canonical_spec_objects_are_written_back_as_read(obj):
    assert spec_to_obj(spec_from_obj(obj)) == obj


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
        (
            {"family": "greedy",
             "b": {"family": "tab", "a": _CENTRAL, "b": _CENTRAL}},
            r"^spec: greedy source must be central or perturbed$",
        ),
        *(
            (
                {"family": "central", "ratios": ratios},
                r"^spec\.ratios: ratios must be a 'p/q' string or a rule object$",
            )
            for ratios in (5, ["1/3"], {"value": "1/3"})
        ),
    ],
)
def test_spec_errors(obj, fragment):
    with pytest.raises(InvalidSpecError, match=fragment):
        spec_from_obj(obj)


_RATIONAL_FIELDS = {
    "spec.c1": lambda x: {"family": "perturbed", "c1": x},
    "spec.shrink": lambda x: {"family": "perturbed", "c1": "1/5", "shrink": x},
    "spec.interior_gap_fraction": lambda x: {
        "family": "perturbed", "c1": "1/5", "interior_gap_fraction": x
    },
    "spec.ratios.value": lambda x: {
        "family": "central", "ratios": {"rule": "constant", "value": x}
    },
    "spec.ratios.base": lambda x: {
        "family": "central", "ratios": {"rule": "geometric", "base": x}
    },
    "spec.ratios.values[1]": lambda x: {
        "family": "central",
        "ratios": {"rule": "list", "values": ["1/3", x], "tail": "1/3"},
    },
    "spec.ratios.tail": lambda x: {
        "family": "central", "ratios": {"rule": "list", "values": ["1/3"], "tail": x}
    },
}


@pytest.mark.parametrize("value", [0.2, True], ids=["float", "bool"])
@pytest.mark.parametrize("path", _RATIONAL_FIELDS)
def test_rational_fields_refuse_floats_and_booleans(path, value):
    # 0.2 would be read as 3602879701896397/18014398509481984, true as 1.
    with pytest.raises(
        InvalidSpecError, match=rf"^{re.escape(path)}: expected a 'p/q' string"
    ):
        spec_from_obj(_RATIONAL_FIELDS[path](value))


def test_rational_fields_take_ints():
    spec = spec_from_obj(_RATIONAL_FIELDS["spec.interior_gap_fraction"](1))
    assert spec == PerturbedSpec(F(1, 5), interior_gap_fraction=F(1))


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
