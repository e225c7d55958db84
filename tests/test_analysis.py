"""Tests for brackets, certificates, and the chain machinery."""

import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cantordiff
from cantordiff import intervals
from cantordiff.analysis import (
    DiffBracket,
    difference_bracket,
    dominant_gap_certificate,
    inner_difference,
    outer_difference,
    predicted_missing_points,
    rightmost_gap_chain,
    shift_inclusion_check,
    zone_measure_rows,
)
from cantordiff.constructions import (
    CantorStage,
    CentralSpec,
    CompositeSpec,
    GreedySpec,
    ListRatios,
    PerturbedSpec,
    central_stage,
    composite_stage,
    greedy_stage,
    half_scaled_components,
    perturbed_stage,
    rightmost_branch_gap_end,
)
from cantordiff.errors import InvariantError, NotCertifiableError
from cantordiff.intervals import (
    BOX,
    Interval,
    IntervalUnion,
    normalize,
    points_union,
)

import oracle


TERNARY = CentralSpec.constant(F(1, 3))
HALVING = CentralSpec.constant(F(1, 2))
PERTURBED = PerturbedSpec(F(1, 5))
TAB = CompositeSpec(HALVING, HALVING)
FAT = GreedySpec(CentralSpec.geometric(F(1, 4)))
_BOX_UNION = IntervalUnion((BOX,))

BUILTIN_FAMILIES = {
    "ternary": lambda n: central_stage(TERNARY, n),
    "halving": lambda n: central_stage(HALVING, n),
    "perturbed": lambda n: perturbed_stage(PERTURBED, n),
    "tab": lambda n: composite_stage(TAB, n),
    "greedy": lambda n: greedy_stage(FAT, n),
}


def _hand_stage(*components):
    """A stage on [0,1] built from its components alone, without gaps."""
    return CantorStage(1, normalize(components), (), "central")


_ratios = st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=10)


@st.composite
def small_stage_lists(draw):
    """Stages 0 to n <= 4 of a random central spec (a few listed ratios
    and a constant tail) or a random perturbed spec."""
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        listed = tuple(draw(st.lists(_ratios, max_size=3)))
        spec, build = CentralSpec(ListRatios(listed, draw(_ratios))), central_stage
    else:
        # a shrink below 1/2 keeps every aligned gap below half its component
        shrink = st.fractions(
            min_value=F(1, 10), max_value=F(2, 5), max_denominator=10
        )
        spec = PerturbedSpec(
            draw(_ratios),
            draw(shrink),
            draw(st.sampled_from((F(1, 2), F(3, 4), F(1)))),
        )
        build = perturbed_stage
    return [build(spec, k) for k in range(n + 1)]


def small_stages():
    """The last stage of :func:`small_stage_lists`."""
    return small_stage_lists().map(lambda stages: stages[-1])


class TestInnerDifference:
    def test_ternary_stage1(self):
        inner = inner_difference(central_stage(TERNARY, 1))
        expected = normalize(
            [
                Interval.open(F(-2, 3), F(-1, 3)),
                Interval.open(F(-1, 3), 0),
                Interval.open(0, F(1, 3)),
                Interval.open(F(1, 3), F(2, 3)),
            ]
        )
        assert inner == expected
        assert inner.measure() == F(4, 3)

    def test_stage2_reaches_former_puncture(self):
        inner = inner_difference(central_stage(TERNARY, 2))
        assert inner.contains_point(F(1, 3))

    def test_rests_on_the_components_alone(self):
        # Without gap records the stage still has its endpoints and the
        # gaps [0,1] minus its components, and the bracket reads both.
        stage = _hand_stage(Interval.closed(0, F(1, 3)), Interval.closed(F(2, 3), 1))
        assert stage.endpoints == (0, F(1, 3), F(2, 3), 1)
        assert stage.gap_union() == normalize([Interval.open(F(1, 3), F(2, 3))])
        assert inner_difference(stage) == inner_difference(central_stage(TERNARY, 1))

    def test_zero_never_inside(self):
        for n in range(7):
            assert not inner_difference(central_stage(TERNARY, n)).contains_point(0)

    def test_oracle_equivalence_small_stages(self):
        # independent quadratic-loop oracle, stages up to 64 components
        for spec, build in (
            (TERNARY, central_stage),
            (HALVING, central_stage),
            (PERTURBED, perturbed_stage),
        ):
            for n in range(7):
                stage = build(spec, n)
                assert inner_difference(stage) == oracle.oracle_inner_difference(
                    stage
                ), (spec, n)
        for n in range(5):
            stage = composite_stage(TAB, n)
            assert inner_difference(stage) == oracle.oracle_inner_difference(stage)

    def test_product_memory_does_not_hold_every_pair(self):
        # Perturbed stage 8: 255 gaps x 512 endpoints = 130,560 pairs that
        # collapse to 6 parts; the sum must not hold the whole product.
        stage = perturbed_stage(PERTURBED, 8)
        gaps = stage.gap_union()
        negated_endpoints = points_union(-e for e in stage.endpoints)
        assert len(gaps) * len(negated_endpoints) == 130_560
        tracemalloc.start()
        try:
            result = gaps.minkowski_sum(negated_endpoints)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == 6
        assert peak < 2 * 2**20

    def test_sweep_measure_crosscheck(self):
        for n in range(5):
            stage = central_stage(TERNARY, n)
            assert (
                inner_difference(stage).measure()
                == oracle.oracle_covered_measure(stage)
            )

    @pytest.mark.parametrize(
        "source",
        [
            CentralSpec.geometric(F(1, 4)),
            CentralSpec.geometric(F(1, 256)),
            CentralSpec.constant(F(1, 10)),
        ],
        ids=["geometric-1_4", "geometric-1_256", "constant-1_10"],
    )
    def test_greedy_inner_measure_closed_form(self, source):
        # For these fat B the inner bracket misses 3/2 by an amount that
        # does not depend on B: 2^-(n+1) + 3 * 2^-(2n+1).  It fails at
        # every n for B geometric 1/3 or constant 2/3.
        spec = GreedySpec(source)
        for n in range(2, 9):
            missed = F(3, 2) - inner_difference(spec.stage(n)).measure()
            assert missed == F(1, 2 ** (n + 1)) + F(3, 2 ** (2 * n + 1)), n


class TestOuterDifference:
    def test_stage0_full_sandwich(self):
        outer = outer_difference(central_stage(TERNARY, 0))
        assert outer == normalize([Interval.open(-1, 1)])

    def test_sandwich_and_measures(self):
        for n in range(6):
            stage = central_stage(TERNARY, n)
            inner = inner_difference(stage)
            outer = outer_difference(stage)
            assert inner.is_subset(outer)
            assert outer.measure() >= inner.measure()
        s1 = central_stage(TERNARY, 1)
        outer1 = outer_difference(s1)
        assert outer1.measure() >= F(4, 3)
        assert outer1.contains_point(1 - F(1, 3))
        assert outer1.contains_point(-(1 - F(1, 3)))


class TestBracketOracles:
    """The endpoint filter and the closed form against the Minkowski sums
    they replace."""

    @pytest.mark.parametrize("family", BUILTIN_FAMILIES)
    def test_builtin_families_match_minkowski_forms(self, family):
        for n in range(7):
            stage = BUILTIN_FAMILIES[family](n)
            inner = oracle.minkowski_inner_difference(stage)
            outer = oracle.minkowski_outer_difference(stage)
            assert inner_difference(stage) == inner, n
            assert outer_difference(stage) == outer, n
            assert oracle.closed_form_outer_difference(stage) == outer, n
            bracket = difference_bracket(stage)
            assert (bracket.inner, bracket.outer) == (inner, outer), n

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(small_stages())
    def test_random_small_stages(self, stage):
        assert stage.endpoints == oracle.oracle_endpoints(stage)
        assert stage.gap_union() == oracle.oracle_gap_union(stage)
        inner = inner_difference(stage)
        assert inner == oracle.oracle_inner_difference(stage)
        assert inner == oracle.minkowski_inner_difference(stage)
        outer = outer_difference(stage)
        assert outer == oracle.minkowski_outer_difference(stage)
        assert outer == oracle.closed_form_outer_difference(stage)

    def test_closed_form_refuses_a_point_component(self):
        stage = _hand_stage(
            Interval.closed(0, F(1, 3)),
            Interval.point(F(1, 2)),
            Interval.closed(F(2, 3), 1),
        )
        with pytest.raises(InvariantError, match="nondegenerate components"):
            outer_difference(stage)

    def test_closed_form_refuses_a_hull_other_than_unit(self):
        stage = _hand_stage(
            Interval.closed(0, F(1, 4)), Interval.closed(F(1, 2), F(3, 4))
        )
        with pytest.raises(InvariantError, match="spanning"):
            outer_difference(stage)


# The inner brackets that the two phases of ``minus_translates`` must
# cut as the one-phase filter did, at stages 0..8: thin and fat central
# sets, perturbed sets, composites whose gaps come in many lengths, and
# greedy sets whose fat B leaves few pieces between long gaps.
ORACLE_SPECS = {
    "central-1_3": TERNARY,
    "central-2_5": CentralSpec.constant(F(2, 5)),
    "geometric-1_4": CentralSpec.geometric(F(1, 4)),
    "perturbed-1_5": PERTURBED,
    "perturbed-1_7": PerturbedSpec(F(1, 7)),
    "tab-1_2-1_2": TAB,
    "tab-1_2-3_4": CompositeSpec(HALVING, CentralSpec.constant(F(3, 4))),
    "greedy-1_4": FAT,
    "greedy-1_256": GreedySpec(CentralSpec.geometric(F(1, 256))),
}
THOUSANDTH = PerturbedSpec(F(1, 1000), F(1, 1000))


def assert_inner_matches_the_one_phase_filter(stage):
    gaps, shifts = stage.gap_union(), stage.components.reflect()
    left = oracle.oracle_minus_translates(_BOX_UNION, gaps, shifts)
    assert _BOX_UNION.minus_translates(gaps, shifts) == left, stage.n
    assert inner_difference(stage) == _BOX_UNION.difference(left), stage.n


@st.composite
def central_or_perturbed_stages(draw):
    """Stage n <= 6 of a central spec with a random constant or geometric
    ratio, or of a random perturbed spec."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        rule = draw(st.sampled_from((CentralSpec.constant, CentralSpec.geometric)))
        return central_stage(rule(draw(_ratios)), n)
    # a shrink below 1/2 keeps every aligned gap below half its component
    shrink = st.fractions(min_value=F(1, 10), max_value=F(2, 5), max_denominator=10)
    spec = PerturbedSpec(
        draw(_ratios), draw(shrink), draw(st.sampled_from((F(1, 2), F(3, 4), F(1))))
    )
    return perturbed_stage(spec, n)


class TestTwoPhaseFilter:
    """``minus_translates`` cuts the longest gaps first while few pieces
    are left, then shift by shift: the same inner brackets as the
    one-phase filter in ``tests/oracle.py``, with far fewer probes."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS)
    def test_builtin_specs_match_the_one_phase_filter(self, spec):
        for n in range(9):
            assert_inner_matches_the_one_phase_filter(spec.stage(n))

    def test_thousandth_perturbed_matches_the_one_phase_filter(self):
        for n in range(8):
            assert_inner_matches_the_one_phase_filter(THOUSANDTH.stage(n))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(central_or_perturbed_stages())
    def test_random_stages_match_the_one_phase_filter(self, stage):
        assert_inner_matches_the_one_phase_filter(stage)

    @pytest.mark.parametrize(
        "spec, n, bound",
        [
            # one-phase filter: 751,892; two phases: 125,498
            (THOUSANDTH, 7, 150_000),
            # 463,928 and 127,080
            (TAB, 8, 150_000),
            # 91,614 and 4,072
            (TERNARY, 10, 5_000),
            # 81,376 and 8,999
            (FAT, 10, 11_000),
        ],
        ids=["perturbed-1_1000-7", "tab-1_2-1_2-8", "central-1_3-10", "greedy-1_4-10"],
    )
    def test_probes_per_piece_stay_bounded(self, monkeypatch, spec, n, bound):
        # Every piece that a shift or a gap reaches costs one bisect_left
        # probe, and so does every slice of pieces: a count, not a time.
        stage = spec.stage(n)
        probes = 0

        def counted(*args, **kwargs):
            nonlocal probes
            probes += 1
            return bisect_left(*args, **kwargs)

        monkeypatch.setattr(intervals, "bisect_left", counted)
        inner_difference(stage)
        assert 0 < probes <= bound


class TestBracket:
    def test_missing_outer_stage1(self):
        bracket = difference_bracket(central_stage(TERNARY, 1))
        assert bracket.missing_outer.parts == (
            Interval.closed(-1, F(-2, 3)),
            Interval.point(F(-1, 3)),
            Interval.point(0),
            Interval.point(F(1, 3)),
            Interval.closed(F(2, 3), 1),
        )

    def test_missing_measure_sequence(self):
        for n in range(6):
            bracket = difference_bracket(central_stage(TERNARY, n))
            assert bracket.missing_outer.measure() == 2 * F(1, 3) ** n
            assert bracket.missing_inner.is_subset(bracket.missing_outer)

    def test_monotone_in_stage(self):
        prev = None
        for n in range(6):
            bracket = difference_bracket(central_stage(TERNARY, n))
            if prev is not None:
                assert prev.inner.is_subset(bracket.inner)
                assert bracket.outer.is_subset(prev.outer)
            prev = bracket

    def test_brackets_make_the_same_few_fractions(self, monkeypatch):
        # The filter takes the negated endpoints as the reflected
        # components, on the keys: no component end is decoded, so the
        # count does not grow with the stage.
        stages = [
            central_stage(TERNARY, 6),
            central_stage(TERNARY, 8),
            composite_stage(TAB, 6),
        ]
        counts = [
            len(oracle.fractions_made(monkeypatch, lambda: difference_bracket(s))[1])
            for s in stages
        ]
        assert counts[0] <= 5 and counts == [counts[0]] * 3, counts

    def test_sandwich_is_checked_under_optimize(self):
        # The bracket invariants are explicit checks, not asserts that
        # python -O strips: an inner bracket outside the outer one is refused.
        code = (
            "from cantordiff.analysis import DiffBracket\n"
            "from cantordiff.errors import CantorDiffError\n"
            "from cantordiff.intervals import BOX, EMPTY, normalize\n"
            "box = normalize([BOX])\n"
            "try:\n"
            "    DiffBracket(0, box, EMPTY, box, EMPTY)\n"
            "except CantorDiffError as exc:\n"
            "    print('refused:', exc)\n"
        )
        src = str(Path(cantordiff.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            encoding="utf-8",
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert "refused: stage 0: expected the inner bracket" in result.stdout

    @pytest.mark.parametrize(
        "fields,invariant",
        [
            ({"inner": IntervalUnion((BOX,))}, "inner bracket inside the outer one"),
            (
                {"missing_inner": IntervalUnion((BOX,))},
                "inner missing bracket inside the outer one",
            ),
            (
                {"missing_outer": points_union([-1, 1])},
                "-1, 0 and 1 in the outer missing bracket",
            ),
        ],
        ids=["inner", "missing-inner", "missing-outer"],
    )
    def test_each_broken_invariant_is_refused(self, fields, invariant):
        # One field of a sound stage-1 bracket replaced: the missing
        # brackets of the ternary stage are {-1, 1} inside [-1, 1] less
        # the inner one.
        bracket = difference_bracket(central_stage(TERNARY, 1))
        values = {name: getattr(bracket, name) for name in bracket.__match_args__}
        message = f"^stage 1: expected the {invariant}$"
        with pytest.raises(InvariantError, match=message):
            DiffBracket(**{**values, **fields})


# Tab pairs whose largest component shrinks at every step to stage 6.
_TAB_SPECS = (
    TAB,
    CompositeSpec(TERNARY, TERNARY),
    CompositeSpec(CentralSpec.constant(F(2, 5)), CentralSpec.constant(F(1, 4))),
)


@st.composite
def certificate_inputs(draw):
    """A central, perturbed or tab stage 0 to 6, a window between two of
    its endpoints, and the open gap of a record of that stage or of a
    later one, which a stage before its step holds inside a component."""
    central = st.builds(
        lambda listed, tail: CentralSpec(ListRatios(tuple(listed), tail)),
        st.lists(_ratios, max_size=3),
        _ratios,
    )
    family = draw(st.sampled_from(("central", "perturbed", "tab")))
    if family == "central":
        build, spec = central_stage, draw(central)
    elif family == "perturbed":
        shrink = st.fractions(min_value=F(1, 10), max_value=F(2, 5), max_denominator=10)
        build, spec = perturbed_stage, PerturbedSpec(draw(_ratios), draw(shrink))
    else:
        build, spec = composite_stage, draw(st.sampled_from(_TAB_SPECS))
    n = draw(st.integers(0, 6))
    stage = build(spec, n)
    later = build(spec, draw(st.integers(max(n, 1), 6)))
    gap = draw(st.sampled_from(later.gaps)).interval
    ends = st.sampled_from(stage.endpoints)
    a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2)))
    return stage, gap, a, b


def _certificate_or_refusal(stage, gap, a, b):
    try:
        return dominant_gap_certificate(stage, gap, a, b)
    except NotCertifiableError as refusal:
        return str(refusal)


def _certified_union(cert):
    """The certified interval of ``cert`` less its exceptions."""
    return IntervalUnion((cert.certified,)).difference(points_union(cert.exceptions))


class TestDominantGapCertificate:
    def test_strict_window(self):
        s2 = central_stage(TERNARY, 2)
        gap = next(g.interval for g in s2.gaps if g.stage_created == 1)
        cert = dominant_gap_certificate(s2, gap, 0, F(1, 3))
        assert cert.mode == "strict"
        assert cert.certified == Interval.open(0, F(2, 3))
        assert cert.exceptions == ()

    def test_degenerate_windows_give_origin_neighborhood(self):
        s1 = central_stage(TERNARY, 1)
        gap = s1.gaps[0].interval
        left = dominant_gap_certificate(s1, gap, F(1, 3), F(1, 3))
        right = dominant_gap_certificate(s1, gap, F(2, 3), F(2, 3))
        assert left.certified == Interval.open(0, F(1, 3))
        assert right.certified == Interval.open(F(-1, 3), 0)
        both = _certified_union(left).union(_certified_union(right))
        assert both == normalize(
            [Interval.open(F(-1, 3), 0), Interval.open(0, F(1, 3))]
        )

    def test_non_strict_mode_collects_equal_gaps(self):
        # window [0, 1/3] holds the equal-length gap (1/9, 2/9), so the
        # certificate degrades to non-strict with one exception
        s2 = central_stage(TERNARY, 2)
        gap = next(g.interval for g in s2.gaps if g.address == "1")
        cert = dominant_gap_certificate(s2, gap, 0, F(1, 3))
        assert cert.mode == "non-strict"
        assert cert.certified == Interval.open(F(4, 9), F(8, 9))
        assert cert.exceptions == (gap.lo - F(1, 9),)
        assert not _certified_union(cert).contains_point(F(2, 3))

    def test_rejects_window_containing_gap(self):
        s1 = central_stage(TERNARY, 1)
        with pytest.raises(NotCertifiableError):
            dominant_gap_certificate(s1, s1.gaps[0].interval, 0, 1)

    def test_rejects_non_endpoint_window(self):
        s1 = central_stage(TERNARY, 1)
        with pytest.raises(NotCertifiableError):
            dominant_gap_certificate(s1, s1.gaps[0].interval, 0, F(1, 2))

    def test_rejects_gap_below_component_bound(self):
        # ratio 1/5: the stage-1 gap is 1/5 long, but the window [0, 2/5]
        # holds a whole component 2/5 long, which later gaps may split
        s1 = central_stage(CentralSpec(ListRatios((), F(1, 5))), 1)
        with pytest.raises(NotCertifiableError, match="component bound 2/5"):
            dominant_gap_certificate(s1, s1.gaps[0].interval, 0, F(2, 5))

    def test_rejects_dominated_gap(self):
        # window [1/3, 1] contains the stage-1 gap, three times longer
        s2 = central_stage(TERNARY, 2)
        small = next(g.interval for g in s2.gaps if g.address == "0")
        with pytest.raises(NotCertifiableError):
            dominant_gap_certificate(s2, small, F(1, 3), 1)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(certificate_inputs())
    def test_window_gaps_match_the_record_scan(self, inputs):
        stage, gap, a, b = inputs
        max_recorded, exceptions = oracle.record_scan_window(stage, gap, a, b)
        max_component = max(
            (c.length for c in stage.components.parts if a <= c.lo and c.hi <= b),
            default=F(0),
        )
        refused = (
            gap not in {g.interval for g in stage.gaps}
            or a <= gap.lo and gap.hi <= b
            or gap.length < max_component
            or max_recorded > gap.length
        )
        if refused:
            with pytest.raises(NotCertifiableError):
                dominant_gap_certificate(stage, gap, a, b)
            return
        cert = dominant_gap_certificate(stage, gap, a, b)
        assert cert.max_component_in_window == max_component
        assert cert.max_recorded_gap_in_window == max_recorded
        assert cert.exceptions == exceptions

    @pytest.mark.parametrize(
        "family, n", [("ternary", 3), ("perturbed", 3), ("tab", 2)]
    )
    def test_every_window_matches_the_record_scan(self, family, n):
        # every gap on every endpoint window: ternary ties are common, so
        # non-strict certificates are checked too
        stage = BUILTIN_FAMILIES[family](n)
        modes = set()
        for record in stage.gaps:
            gap = record.interval
            for i, a in enumerate(stage.endpoints):
                for b in stage.endpoints[i:]:
                    outcome = _certificate_or_refusal(stage, gap, a, b)
                    if isinstance(outcome, str):
                        continue
                    modes.add(outcome.mode)
                    expected = oracle.record_scan_window(stage, gap, a, b)
                    assert (
                        outcome.max_recorded_gap_in_window,
                        outcome.exceptions,
                    ) == expected, (gap, a, b)
        assert "strict" in modes
        assert family != "ternary" or "non-strict" in modes

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(certificate_inputs())
    def test_needs_no_gap_records(self, inputs):
        stage, gap, a, b = inputs
        bare = CantorStage(stage.n, stage.components, (), stage.family)
        assert _certificate_or_refusal(bare, gap, a, b) == _certificate_or_refusal(
            stage, gap, a, b
        )

    def test_rejects_an_interval_overlapping_a_component(self):
        # (1/4, 2/3) reaches into the component [0, 1/3]; on the window
        # [2/3, 1] it passes every other check
        s1 = central_stage(TERNARY, 1)
        with pytest.raises(NotCertifiableError, match=r"in a stage-1 gap$"):
            dominant_gap_certificate(s1, Interval.open(F(1, 4), F(2, 3)), F(2, 3), 1)

    def test_rejects_a_gap_of_a_later_stage(self):
        # step 2 cuts (1/9, 2/9) out of the stage-1 component [0, 1/3]; on
        # the degenerate window [1/3, 1/3] it passes every other check
        s1 = central_stage(TERNARY, 1)
        later = Interval.open(F(1, 9), F(2, 9))
        assert later in {g.interval for g in central_stage(TERNARY, 2).gaps}
        with pytest.raises(NotCertifiableError, match=r"in a stage-1 gap$"):
            dominant_gap_certificate(s1, later, F(1, 3), F(1, 3))

    def test_rejects_a_point(self):
        s1 = central_stage(TERNARY, 1)
        with pytest.raises(NotCertifiableError, match=r"of positive length"):
            dominant_gap_certificate(s1, Interval.point(F(1, 2)), F(1, 3), F(1, 3))

    def test_accepts_an_interval_inside_a_gap(self):
        s1 = central_stage(TERNARY, 1)
        cert = dominant_gap_certificate(s1, Interval.closed(F(4, 9), F(5, 9)), 1, 1)
        assert cert.certified == Interval.open(F(-5, 9), F(-4, 9))
        assert cert.mode == "strict"

    def test_rejects_window_ends_out_of_order(self):
        s1 = central_stage(TERNARY, 1)
        with pytest.raises(NotCertifiableError, match="^window ends out of order$"):
            dominant_gap_certificate(s1, s1.gaps[0].interval, F(1, 3), F(0))


_shifts = st.fractions(min_value=-1, max_value=1, max_denominator=12)


@st.composite
def shift_inclusion_inputs(draw):
    """Stages with a nested Y sequence: a fixed point set (negative
    points too, as t13's ``-r``), or each stage's components scaled and
    translated, so that every Y_n is a union of intervals."""
    stages = draw(small_stage_lists())
    if draw(st.booleans()):
        points = points_union(draw(st.lists(_shifts, min_size=1, max_size=3)))
        return stages, [points] * len(stages)
    k = draw(st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8))
    t = draw(st.fractions(min_value=F(-3, 2), max_value=F(3, 2), max_denominator=8))
    return stages, [s.components.scale(k).translate(t) for s in stages]


class TestShiftInclusion:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(shift_inclusion_inputs())
    def test_matches_the_full_product(self, inputs):
        stages, ys = inputs
        assert shift_inclusion_check(stages, ys) == oracle.minkowski_shift_inclusion(
            stages, ys
        )

    def test_composite_pair_stage1(self):
        spec = TAB
        stage = composite_stage(spec, 1)
        y = half_scaled_components(spec.b_source, 1).translate(F(1, 2))
        assert y == normalize(
            [Interval.closed(F(1, 2), F(5, 8)), Interval.closed(F(7, 8), 1)]
        )
        result = shift_inclusion_check([stage], [y])
        assert result.passed

    def test_branch_ends_pass_all_stages(self):
        stages = [central_stage(TERNARY, n) for n in range(1, 7)]
        y = points_union([F(2, 3), F(-2, 3)])
        result = shift_inclusion_check(stages, [y] * len(stages))
        assert result.passed
        assert result.n_checked == len(stages)

    def test_midpoint_fails_with_witness(self):
        stage = central_stage(TERNARY, 1)
        result = shift_inclusion_check([stage], [points_union([F(1, 2)])])
        assert not result.passed
        assert result.violation_stage == 1
        # the witness escaped into the removed middle
        assert F(1, 3) < result.witness < F(2, 3)

    def test_requires_nested_y(self):
        stages = [central_stage(TERNARY, n) for n in (1, 2)]
        growing = [points_union([F(2, 3)]), points_union([F(2, 3), F(-2, 3)])]
        with pytest.raises(ValueError):
            shift_inclusion_check(stages, growing)

    def test_requires_sequences_of_equal_length(self):
        stages = [central_stage(TERNARY, n) for n in (1, 2)]
        with pytest.raises(
            ValueError, match="^need matching nonempty stage and Y sequences$"
        ):
            shift_inclusion_check(stages, [points_union([F(2, 3)])])

    def test_branch_ends_pass_even_for_shallow_ratios(self):
        # the lower-bound certificate needs no steepness assumption
        spec = CentralSpec.constant(F(1, 4))
        stages = [central_stage(spec, n) for n in range(1, 7)]
        for k in range(4):
            r = rightmost_branch_gap_end(spec, k)
            result = shift_inclusion_check(
                stages, [points_union([r, -r])] * len(stages)
            )
            assert result.passed, k
            # and the points stay outside every stage's certified inner set
            for stage in stages:
                assert not inner_difference(stage).contains_point(r)


class TestPredictedPoints:
    def test_ternary_points(self):
        assert predicted_missing_points(TERNARY, 2) == points_union(
            [0, F(2, 3), F(8, 9), F(26, 27), 1, F(-2, 3), F(-8, 9), F(-26, 27), -1]
        )

    def test_halving_points(self):
        assert predicted_missing_points(HALVING, 1) == points_union(
            [0, F(3, 4), F(15, 16), 1, F(-3, 4), F(-15, 16), -1]
        )

    def test_symmetry(self):
        pts = predicted_missing_points(HALVING, 4)
        assert pts.reflect() == pts

    def test_completeness_flag(self):
        assert TERNARY.ratios.all_at_least(F(1, 3))
        assert HALVING.ratios.all_at_least(F(1, 3))
        assert not CentralSpec.constant(F(1, 4)).ratios.all_at_least(F(1, 3))
        assert not CentralSpec.geometric(F(1, 4)).ratios.all_at_least(F(1, 3))

    def test_predictions_never_certified_reachable(self):
        # cross-validation for steep specs: predicted points stay in the
        # missing bracket at every stage and every depth
        for spec in (TERNARY, HALVING, CentralSpec(ListRatios((F(2, 5),), F(1, 3)))):
            for n in range(7):
                bracket = difference_bracket(central_stage(spec, n))
                for k in range(7):
                    assert predicted_missing_points(spec, k).is_subset(
                        bracket.missing_outer
                    ), (spec, n, k)


class TestGapChain:
    def test_ternary_chain(self):
        chain = rightmost_gap_chain(TERNARY, 2)
        assert chain[0].gap == Interval.open(F(1, 3), F(2, 3))
        assert chain[1].gap == Interval.open(F(7, 9), F(8, 9))
        assert chain[0].certified == Interval.open(0, F(2, 3))
        assert chain[1].certified == Interval.open(F(2, 3), F(8, 9))

    def test_right_ends_geometric(self):
        chain = rightmost_gap_chain(TERNARY, 6)
        for k, cert in enumerate(chain, start=1):
            assert cert.gap.hi == 1 - F(1, 3) ** k

    def test_depth_zero_is_refused(self):
        with pytest.raises(ValueError, match="^depth must be >= 1$"):
            rightmost_gap_chain(TERNARY, 0)

    def test_halving_first_link(self):
        chain = rightmost_gap_chain(HALVING, 1)
        assert chain[0].gap == Interval.open(F(1, 4), F(3, 4))

    def test_consecutive_certificates_tile(self):
        chain = rightmost_gap_chain(HALVING, 5)
        prev_hi = F(0)
        for cert in chain:
            assert cert.certified.lo == prev_hi
            prev_hi = cert.certified.hi

    def test_chain_beyond_budget_is_refused(self):
        # the depth-6 ternary chain needs stage 6; a budget of 16 holds 4
        with pytest.raises(NotCertifiableError, match="beyond 4"):
            rightmost_gap_chain(TERNARY, 6, budget=16)

    @pytest.mark.parametrize("moved", ["lo", "hi", "neighbour"])
    def test_link_off_its_closed_form_is_an_invariant_error(self, monkeypatch, moved):
        # The ternary depth-2 chain takes the all-ones gap (7/9, 8/9) of
        # step 2; a reader that hands out another gap there is caught
        # before any certificate is made from it.
        read = CantorStage.rightmost_gaps

        def misread(stage):
            gaps = read(stage)
            if moved == "neighbour":
                gaps[2] = next(
                    g.interval
                    for g in stage.gaps
                    if g.stage_created == 2 and g.address == "0"
                )
            else:
                lo, hi = gaps[2].lo, gaps[2].hi
                lo, hi = (lo - F(1, 81), hi) if moved == "lo" else (lo, hi + F(1, 81))
                gaps[2] = Interval.open(lo, hi)
            return gaps

        monkeypatch.setattr(CantorStage, "rightmost_gaps", misread)
        with pytest.raises(
            InvariantError, match=r"^chain link at step 2: the all-ones gap \(.* is not "
        ):
            rightmost_gap_chain(TERNARY, 2)

    def test_varying_ratios_pick_longest(self):
        # tiny first removal, huge second: the chain starts at step 2
        spec = CentralSpec(ListRatios((F(1, 100), F(1, 2)), F(1, 3)))
        chain = rightmost_gap_chain(spec, 1)
        assert chain[0].gap.hi == 1 - spec.component_length(2)


class TestZoneRows:
    def test_ternary_middle_empties(self):
        brackets = [difference_bracket(central_stage(TERNARY, n)) for n in range(5)]
        rows = zone_measure_rows(brackets)
        assert rows[4]["middle"] == 0
        assert all(a["middle"] >= b["middle"] for a, b in zip(rows, rows[1:]))
        assert all(r["outer_total"] > F(3, 2) for r in rows)

    def test_rows_keep_their_column_order(self):
        # measure-scan's CSV header and .dat columns follow this order
        brackets = [difference_bracket(central_stage(TERNARY, n)) for n in range(3)]
        zones = ["middle", "far_negative", "near_negative", "near_positive",
                 "far_positive"]
        for n, row in enumerate(zone_measure_rows(brackets)):
            assert list(row) == ["n", *zones, "missing_total", "outer_total",
                                 "missing_point_parts", "missing_interval_parts"]
            assert row["n"] == n
            # the zones meet only at points, so their measures add up
            assert sum(row[z] for z in zones) == row["missing_total"]

    def test_fat_composite_keeps_upper_band(self):
        spec = FAT
        stage = greedy_stage(spec, 4)
        row = zone_measure_rows([difference_bracket(stage)])[0]
        b4 = half_scaled_components(spec.b_source, 4)
        assert row["near_positive"] + row["far_positive"] >= b4.measure()
