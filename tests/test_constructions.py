"""Tests for the four stage generators."""

import itertools
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantordiff import constructions
from cantordiff.constructions import (
    CantorStage,
    CentralSpec,
    CompositeSpec,
    GapRecord,
    GreedySpec,
    ListRatios,
    PerturbedSpec,
    central_stage,
    composite_stage,
    dyadic_candidates,
    greedy_certificate,
    greedy_stage,
    half_scaled_components,
    perturbed_stage,
    rightmost_branch_gap_end,
)
from cantordiff.errors import (
    BudgetExceededError,
    InvalidSpecError,
)
from cantordiff.intervals import UNIT, Interval, IntervalUnion, normalize

import oracle


TERNARY = CentralSpec.constant(F(1, 3))
HALVING = CentralSpec.constant(F(1, 2))
PERTURBED = PerturbedSpec(F(1, 5))
TAB = CompositeSpec(HALVING, HALVING)
# B sources for the greedy family; the first is FAT's
GREEDY_B_SOURCES = {
    "geometric-1_4": CentralSpec.geometric(F(1, 4)),
    "geometric-1_256": CentralSpec.geometric(F(1, 256)),
    "geometric-1_3": CentralSpec.geometric(F(1, 3)),
    "constant-1_2": CentralSpec.constant(F(1, 2)),
    "constant-2_3": CentralSpec.constant(F(2, 3)),
    "constant-1_10": CentralSpec.constant(F(1, 10)),
    "perturbed-1_5": PerturbedSpec(F(1, 5)),
    "perturbed-1_7": PerturbedSpec(F(1, 7)),
    "list-1_2-1_5-2_3-tail-1_7": CentralSpec(
        ListRatios((F(1, 2), F(1, 5), F(2, 3)), F(1, 7))
    ),
}
FAT = GreedySpec(GREEDY_B_SOURCES["geometric-1_4"])


@pytest.fixture
def fresh_sequences():
    """Clear the stage cache around a test, so that it builds its stages
    itself and leaves no sequence behind."""
    constructions._sequence.cache_clear()
    yield
    constructions._sequence.cache_clear()


def stage_list(build, spec, n_max):
    return [build(spec, n) for n in range(n_max + 1)]


class TestGapRecord:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(1, 10**6), st.integers(0, 10**6), st.integers(1, 10**6),
           st.integers(1, 50))
    def test_one_gap_on_any_grid_is_one_record(self, grid, lo, width, k):
        # (lo/grid, (lo + width)/grid) as open key ranges on grid and k*grid
        hi = lo + width
        on_grid = GapRecord("01", 3 * lo + 1, 3 * hi - 1, grid, 2)
        on_multiple = GapRecord("01", 3 * k * lo + 1, 3 * k * hi - 1, k * grid, 2)
        from_interval = oracle.gap_record(
            "01", Interval.open(F(lo, grid), F(hi, grid)), 2
        )
        assert on_grid == on_multiple == from_interval
        assert hash(on_grid) == hash(on_multiple) == hash(from_interval)
        assert on_multiple.interval == Interval.open(F(lo, grid), F(hi, grid))

    @pytest.mark.parametrize(
        "interval",
        [
            Interval.closed(F(1, 3), F(2, 3)),
            Interval(F(1, 3), F(2, 3), False, True),
            Interval(F(1, 3), F(2, 3), True, False),
            Interval.point(F(1, 3)),
        ],
    )
    def test_a_gap_that_is_not_open_is_refused(self, interval):
        with pytest.raises(ValueError, match="open at both ends"):
            oracle.gap_record(None, interval, 1)

    def test_an_empty_gap_is_refused(self):
        with pytest.raises(ValueError, match="empty"):  # the open cell (1/3, 1/3)
            GapRecord(None, 4, 2, 3, 1)

    def test_a_bad_address_is_refused(self):
        for address in ("012", "0 1"):
            with pytest.raises(ValueError, match="binary string"):
                GapRecord(address, 1, 2, 1, 1)


class TestCentral:
    def test_stage1_ternary(self):
        s = central_stage(TERNARY, 1)
        assert s.components == normalize(
            [Interval.closed(0, F(1, 3)), Interval.closed(F(2, 3), 1)]
        )
        assert len(s.gaps) == 1
        assert s.gaps[0].address == ""
        assert s.gaps[0].interval == Interval.open(F(1, 3), F(2, 3))

    def test_stage2_lengths(self):
        s = central_stage(TERNARY, 2)
        assert all(p.length == F(1, 9) for p in s.components.parts)
        new_gaps = [g for g in s.gaps if g.stage_created == 2]
        assert all(g.interval.length == F(1, 9) for g in new_gaps)
        assert sorted(g.address for g in new_gaps) == ["0", "1"]

    def test_stage1_half(self):
        s = central_stage(HALVING, 1)
        assert s.components == normalize(
            [Interval.closed(0, F(1, 4)), Interval.closed(F(3, 4), 1)]
        )

    def test_base_case(self):
        s = central_stage(HALVING, 0)
        assert s.components == normalize([UNIT])
        assert s.gaps == ()
        assert s.frame == UNIT

    def test_endpoints_retained_and_split_binary(self):
        for n in range(7):
            s = central_stage(HALVING, n)
            assert len(s.components.parts) == 2 ** n
            assert s.components.contains_point(0)
            assert s.components.contains_point(1)
        prev, nxt = central_stage(HALVING, 5), central_stage(HALVING, 6)
        assert nxt.components.is_subset(prev.components)
        assert set(prev.endpoints) <= set(nxt.endpoints)

    def test_gaps_are_addressed_by_their_index_in_the_step(self):
        gaps = central_stage(HALVING, 8).gaps
        for k in range(1, 9):
            addresses = [g.address for g in gaps if g.stage_created == k]
            width = k - 1
            assert addresses == [
                format(i, "b").zfill(width) if width else "" for i in range(2**width)
            ]

    def test_component_count_and_endpoints(self):
        s = central_stage(TERNARY, 5)
        assert len(s.components.parts) == 2 ** 5
        assert len(s.endpoints) == 2 ** 6
        assert s.endpoints[0] == 0 and s.endpoints[-1] == 1

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            central_stage(TERNARY, 5, budget=16)

    def test_invalid_ratio(self):
        with pytest.raises(InvalidSpecError, match="ratio out of"):
            CentralSpec.constant(1)

    def test_negative_stage_index_is_refused(self):
        with pytest.raises(ValueError, match="^stage index must be >= 0$"):
            central_stage(TERNARY, -1)

    def test_branch_gap_end_before_the_first_is_refused(self):
        assert rightmost_branch_gap_end(TERNARY, 0) == F(2, 3)
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            rightmost_branch_gap_end(TERNARY, -1)

    def test_nesting_and_cover(self):
        stages = stage_list(central_stage, TERNARY, 6)
        for prev, nxt in zip(stages, stages[1:]):
            assert nxt.components.is_subset(prev.components)
            prev_gaps = {(g.interval.lo, g.interval.hi) for g in prev.gaps}
            next_gaps = {(g.interval.lo, g.interval.hi) for g in nxt.gaps}
            assert prev_gaps <= next_gaps
        for s in stages:
            recorded = oracle.oracle_gap_union(s)
            assert s.components.union(recorded) == normalize([s.frame])
            assert s.components.measure() + recorded.measure() == 1

    def test_central_symmetry(self):
        s = central_stage(TERNARY, 5)
        assert s.components.reflect().translate(1) == s.components

    def test_branch_gap_ends(self):
        assert rightmost_branch_gap_end(TERNARY, 0) == F(2, 3)
        assert rightmost_branch_gap_end(TERNARY, 1) == F(8, 9)
        assert rightmost_branch_gap_end(TERNARY, 2) == F(26, 27)
        assert rightmost_branch_gap_end(HALVING, 0) == F(3, 4)
        # read off the stage: the stage-1 gap of the halving set ends at 3/4
        s = central_stage(HALVING, 1)
        assert s.gaps[0].interval.hi == rightmost_branch_gap_end(HALVING, 0)

    def test_varying_ratio_list(self):
        spec = CentralSpec(ListRatios((F(1, 2),), F(1, 3)))
        s = central_stage(spec, 2)
        # first split removes 1/2, second removes 1/3 of each part
        assert s.components.parts[0].length == F(1, 4) * F(1, 3)


class TestPerturbed:
    def test_stage1(self):
        s = perturbed_stage(PERTURBED, 1)
        assert s.components == normalize(
            [Interval.closed(0, F(2, 5)), Interval.closed(F(3, 5), 1)]
        )
        assert s.gaps[0].interval == Interval.open(F(2, 5), F(3, 5))

    def test_stage2_alignment(self):
        s = perturbed_stage(PERTURBED, 2)
        by_address = {g.address: g.interval for g in s.gaps}
        assert by_address["0"] == Interval.open(F(1, 5), F(3, 10))
        assert by_address["1"] == Interval.open(F(7, 10), F(4, 5))

    def test_extreme_branches_match(self):
        for n in range(1, 8):
            parts = perturbed_stage(PERTURBED, n).components.parts
            assert parts[0].length == parts[-1].length

    def test_aligned_gaps_match_and_dominate_left(self):
        s = perturbed_stage(PERTURBED, 7)
        for created in range(1, 8):
            same_stage = [g for g in s.gaps if g.stage_created == created]
            left = next(g for g in same_stage if g.address == "0" * (created - 1))
            right = next(g for g in same_stage if g.address == "1" * (created - 1))
            assert left.interval.length == right.interval.length
            for other in s.gaps:
                if other.interval.hi <= left.interval.lo:
                    assert other.interval.length < left.interval.length

    def test_rejects_unshrinkable_spec(self):
        # c1 = 1/2 with shrink 1/2 hits the half-component wall at step 2
        with pytest.raises(InvalidSpecError):
            perturbed_stage(PerturbedSpec(F(1, 2)), 2)

    def test_shrink_below_half_always_works(self):
        spec = PerturbedSpec(F(1, 2), shrink=F(1, 3))
        s = perturbed_stage(spec, 5)
        assert len(s.components.parts) == 32

    def test_interior_gap_fraction(self):
        spec = PerturbedSpec(F(1, 5), interior_gap_fraction=F(1, 2))
        s = perturbed_stage(spec, 3)
        stage3 = {g.address: g.interval for g in s.gaps if g.stage_created == 3}
        # aligned gaps keep the full length c3 = 1/20, interior ones halve it
        assert stage3["00"].length == F(1, 20)
        assert stage3["11"].length == F(1, 20)
        assert stage3["01"].length == F(1, 40)
        assert stage3["10"].length == F(1, 40)

    def test_interior_gap_fraction_above_one_is_refused(self):
        with pytest.raises(
            InvalidSpecError, match=r"^interior_gap_fraction out of \(0,1\]$"
        ):
            PerturbedSpec(F(1, 5), interior_gap_fraction=F(2))


class TestComposite:
    @pytest.mark.parametrize(
        "spec",
        [
            TAB,
            CompositeSpec(HALVING, CentralSpec.constant(F(3, 4))),
            FAT,
        ],
        ids=["tab-1_2-1_2", "tab-1_2-3_4", "greedy-1_4"],
    )
    def test_stages_match_the_full_product(self, spec):
        # The stage sums only the pairs that reach [1/2, 1], and reads
        # its endpoints and gaps off the union it builds.
        a_source = HALVING if isinstance(spec, GreedySpec) else spec.a_source
        for m in range(7):
            a = half_scaled_components(a_source, m)
            stage = spec.stage(m)
            b = half_scaled_components(spec.b_source, m)
            assert stage.components == oracle.minkowski_composite_components(a, b)
            assert stage.endpoints == oracle.oracle_endpoints(stage)
            assert {g.interval for g in stage.gaps} == set(
                stage.components.complement_within(UNIT).parts
            )

    def test_stage1_builtin(self):
        s = composite_stage(TAB, 1)
        assert s.components == normalize(
            [
                Interval.closed(0, F(1, 8)),
                Interval.closed(F(3, 8), F(3, 4)),
                Interval.closed(F(7, 8), 1),
            ]
        )

    def test_one_always_survives(self):
        spec = TAB
        for n in range(6):
            assert composite_stage(spec, n).components.contains_point(1)

    def test_stage2_component_bound(self):
        s = composite_stage(TAB, 2)
        assert len(s.components.parts) <= 4 + 9

    def test_nesting_and_gap_persistence(self):
        spec = TAB
        stages = stage_list(composite_stage, spec, 5)
        for prev, nxt in zip(stages, stages[1:]):
            assert nxt.components.is_subset(prev.components)
            prev_gaps = {(g.interval.lo, g.interval.hi) for g in prev.gaps}
            next_gaps = {(g.interval.lo, g.interval.hi) for g in nxt.gaps}
            assert prev_gaps <= next_gaps
        for s in stages:
            whole = s.components.union(oracle.oracle_gap_union(s))
            assert whole == normalize([s.frame])

    def test_max_component_warning_path(self):
        # a source that never refines cannot shrink the components;
        # the composite step must report it instead of silently accepting
        from cantordiff.constructions import _composite_steps, _windowed_sum

        frozen = normalize([Interval.closed(0, F(1, 2))])
        sums = itertools.repeat(_windowed_sum(frozen, frozen))
        steps = _composite_steps(lambda n: frozen, sums, "tab")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            next(steps)
            stage = next(steps)
        assert any("did not decrease" in str(w.message) for w in caught)
        assert stage.notes


class TestGreedy:
    @pytest.mark.filterwarnings("ignore:max component length did not decrease")
    @pytest.mark.parametrize("source", GREEDY_B_SOURCES.values(), ids=GREEDY_B_SOURCES)
    def test_stages_are_tab_central_half(self, source):
        # Only the family name tells a greedy stage from a tab one.
        tab = CompositeSpec(HALVING, source)
        for n in range(9):
            s = composite_stage(tab, n)
            expected = CantorStage(s.n, s.components, s.gaps, "greedy", s.notes)
            assert greedy_stage(GreedySpec(source), n) == expected, n

    @pytest.mark.parametrize(
        "source",
        [
            CentralSpec.geometric(F(1, 4)),
            CentralSpec.geometric(F(1, 256)),
            CentralSpec.geometric(F(1, 2)),
            CentralSpec.constant(F(2, 3)),
            CentralSpec.constant(F(1, 10)),
            CentralSpec.constant(F(1, 3)),
            PerturbedSpec(F(1, 5)),
            CentralSpec(ListRatios((F(1, 2), F(1, 5), F(2, 3)), F(1, 7))),
        ],
        ids=[
            "geometric-1_4", "geometric-1_256", "geometric-1_2", "constant-2_3",
            "constant-1_10", "constant-1_3", "perturbed-1_5", "list-tail-1_7",
        ],
    )
    def test_earlier_points_need_no_recheck(self, source):
        # A candidate is filtered alone; the oracle filters it together
        # with every earlier point.
        spec = GreedySpec(source)
        points, deferrals = oracle.oracle_greedy_points(spec, 9)
        assert constructions._greedy_points(spec, 9) == (points, len(deferrals))

    def test_deferrals_are_pinned(self):
        # At stages 7 and 8 the candidates 1/4 and 3/4 each empty one
        # component of A and wait.
        assert oracle.oracle_greedy_points(FAT, 8)[1] == (
            (F(1, 4), "010000", 7),
            (F(3, 4), "100000", 7),
            (F(1, 4), "0100000", 8),
            (F(3, 4), "1000000", 8),
        )
        assert greedy_certificate(FAT, 8).deferrals == 4

    @pytest.mark.parametrize("source", GREEDY_B_SOURCES.values(), ids=GREEDY_B_SOURCES)
    def test_margin_is_quartic(self, monkeypatch, source):
        # Stage m pads -B by 4^-m, so each padded part is at least as long
        # as a component of A_{m-1}; no point or deferral shows the margin.
        real = constructions._padded_reflection
        calls = []

        def spy(b, delta):
            padded = real(b, delta)
            calls.append((b, delta, padded))
            return padded

        monkeypatch.setattr(constructions, "_padded_reflection", spy)
        greedy_certificate(GreedySpec(source), 8)
        assert len(calls) == 8
        for m, (b, delta, padded) in enumerate(calls, start=1):
            assert delta == F(1, 4**m), m
            assert b == half_scaled_components(source, m), m
            assert padded == oracle.oracle_padded_reflection(b, delta), m
            assert all(p.length >= 2 * delta for p in padded.parts), m

    def test_certificate(self):
        g = FAT
        cert = greedy_certificate(g, 6)
        assert cert.verified
        assert len(cert.points) == 6
        # The Minkowski form of the same verdict.
        for n in range(7):
            cert = greedy_certificate(g, n)
            a = half_scaled_components(HALVING, n)
            reachable = a.minkowski_sum(half_scaled_components(g.b_source, n))
            assert cert.verified
            assert not any(reachable.contains_point(p) for p in cert.points)

    def test_certificate_flags_a_reachable_point(self, monkeypatch):
        # 0 is in A_n and in B_n, so an admitted 0 = 0 + 0 is reachable.
        real_points = constructions._greedy_points

        def with_zero(spec, n):
            points, deferrals = real_points(spec, n)
            return points + (F(0),), deferrals

        monkeypatch.setattr(constructions, "_greedy_points", with_zero)
        cert = greedy_certificate(FAT, 4)
        assert cert.points[-1] == 0
        assert not cert.verified

    def test_b_measure_schedule(self):
        g = FAT
        for n in range(1, 7):
            b = half_scaled_components(g.b_source, n)
            expected = F(1, 2)
            for j in range(1, n + 1):
                expected *= 1 - F(1, 4) ** j
            assert b.measure() == expected


class TestGreedyFailureModes:
    def test_avoidance_deadlock_aborts_with_diagnostic(
        self, monkeypatch, fresh_sequences
    ):
        from cantordiff.errors import AvoidanceExhaustedError

        def hostile_margin(n):
            return F(10)  # padding swallows the whole half frame

        monkeypatch.setattr(constructions, "quartic_margin", hostile_margin)
        spec = GreedySpec(CentralSpec.geometric(F(1, 4)))
        with pytest.raises(AvoidanceExhaustedError):
            greedy_certificate(spec, 1)
        # The stages never read the points: built afresh under the hostile
        # margin, they are still tab (central 1/2, B).
        tab = composite_stage(CompositeSpec(HALVING, spec.b_source), 1)
        assert greedy_stage(spec, 1) == CantorStage(
            tab.n, tab.components, tab.gaps, "greedy", tab.notes
        )

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            greedy_stage(FAT, 6, budget=16)
        with pytest.raises(BudgetExceededError):
            greedy_certificate(FAT, 6, budget=16)

    def test_failed_search_is_not_kept_for_the_next_request(self, monkeypatch):
        # 64 certified-inside candidates exhaust stage 1; a retry must start
        # from a fresh candidate stream, not from the one the failure consumed
        from cantordiff.errors import AvoidanceExhaustedError

        monkeypatch.setattr(
            constructions,
            "dyadic_candidates",
            lambda: itertools.chain([F(0)] * 64, dyadic_candidates()),
        )
        spec = GreedySpec(CentralSpec.geometric(F(1, 4)))
        for _ in range(2):
            with pytest.raises(AvoidanceExhaustedError):
                greedy_certificate(spec, 1)


class TestCompositeBudget:
    def test_budget_guard(self):
        spec = CompositeSpec(CentralSpec.constant(F(1, 2)), CentralSpec.constant(F(1, 2)))
        with pytest.raises(BudgetExceededError):
            composite_stage(spec, 4, budget=4)

    def test_budget_checks_each_request_against_cached_stages(self):
        # stages built under a large budget are shared, but a later request
        # with a small budget is refused at the first stage it cannot hold
        spec = TAB
        counts = [len(composite_stage(spec, n).components) for n in range(5)]
        assert counts == [1, 3, 8, 21, 56]
        assert composite_stage(spec, 2, budget=8).n == 2
        with pytest.raises(BudgetExceededError) as caught:
            composite_stage(spec, 4, budget=20)
        assert (caught.value.requested, caught.value.budget) == (21, 20)

    def test_budget_message_writes_a_long_count_as_a_power_of_two(self):
        # 2^66 has 20 digits and 2^67 has 21.
        for n, needs in [(66, "73786976294838206464"), (67, "2^67")]:
            with pytest.raises(BudgetExceededError) as caught:
                central_stage(TERNARY, n, budget=1)
            assert str(caught.value) == f"stage needs {needs} components, budget allows 1"


class TestParallelGeneration:
    def test_concurrent_stage_requests_agree(self):
        import concurrent.futures

        spec = CompositeSpec(
            CentralSpec.constant(F(2, 5)), CentralSpec.constant(F(2, 5))
        )
        greedy = GreedySpec(CentralSpec.geometric(F(1, 5)))
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            tab_results = list(pool.map(lambda n: composite_stage(spec, n), [6] * 8))
            greedy_results = list(
                pool.map(lambda n: greedy_stage(greedy, n), [6] * 8)
            )
        assert all(s == tab_results[0] for s in tab_results)
        assert all(s == greedy_results[0] for s in greedy_results)

    def test_concurrent_requests_with_different_budgets(self):
        # one shared sequence serves every budget; each request gets its own
        # verdict (stage 5 holds 153 components: over 100, under 2^14)
        import concurrent.futures
        import sys

        spec = CompositeSpec(
            CentralSpec(ListRatios((), F(1, 2))), CentralSpec.constant(F(1, 2))
        )

        def request(budget):
            try:
                return len(composite_stage(spec, 5, budget=budget).components)
            except BudgetExceededError as exc:
                return -exc.requested

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(request, b) for b in [100, 2 ** 14] * 8]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [-153, 153] * 8


class TestStagesReadOffComponents:
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: central_stage(TERNARY, n),
            lambda n: central_stage(CentralSpec.geometric(F(1, 4)), n),
            lambda n: perturbed_stage(PERTURBED, n),
            lambda n: composite_stage(TAB, n),
            lambda n: central_stage(HALVING, n),
            lambda n: greedy_stage(FAT, n),
        ],
        ids=["ternary", "geometric-1_4", "perturbed", "tab", "halving", "greedy"],
    )
    def test_endpoints_and_gap_union_match_the_records(self, build):
        for n in range(7):
            stage = build(n)
            assert stage.endpoints == oracle.oracle_endpoints(stage), n
            assert stage.gap_union() == oracle.oracle_gap_union(stage), n


_ratios = st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=10)


@st.composite
def central_specs(draw):
    """A constant, list-with-tail or geometric central spec."""
    rule = draw(st.sampled_from(("constant", "list", "geometric")))
    if rule == "constant":
        return CentralSpec.constant(draw(_ratios))
    if rule == "list":
        listed = tuple(draw(st.lists(_ratios, min_size=1, max_size=3)))
        return CentralSpec(ListRatios(listed, draw(_ratios)))
    return CentralSpec.geometric(draw(_ratios))


@st.composite
def perturbed_specs(draw):
    """A perturbed spec with shrink other than 1/2 and interior gaps
    below the aligned length; large shrinks are refused at some step."""
    return PerturbedSpec(
        draw(_ratios),
        draw(_ratios.filter(lambda q: q != F(1, 2))),
        draw(_ratios),
    )


def assert_stages_match_the_oracle(spec, build, n_max):
    """Stages 0..n_max equal the Fraction builders' stage by stage, and a
    refused step is refused on both paths with the same message."""
    expected = oracle.oracle_stages(spec)
    for n in range(n_max + 1):
        try:
            stage = next(expected)
        except InvalidSpecError as refusal:
            with pytest.raises(InvalidSpecError) as caught:
                build(spec, n)
            assert str(caught.value) == str(refusal)
            return
        # components, every gap's interval, address and stage_created,
        # the notes, the family and the frame
        assert build(spec, n) == stage, n


@st.composite
def composite_specs(draw):
    """A tab spec on two central sources, a third of them with A = B, or
    a greedy spec on a central B."""
    a = draw(central_specs())
    kind = draw(st.sampled_from(("same", "pair", "greedy")))
    if kind == "same":
        return CompositeSpec(a, a)
    if kind == "pair":
        return CompositeSpec(a, draw(central_specs()))
    return GreedySpec(a)


class TestKeyBuildersMatchTheFractionOracle:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(central_specs())
    def test_central(self, spec):
        assert_stages_match_the_oracle(spec, central_stage, 7)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(perturbed_specs())
    def test_perturbed(self, spec):
        assert_stages_match_the_oracle(spec, perturbed_stage, 7)

    def test_perturbed_refusal(self):
        # c1 = 1/2 with shrink 1/2 hits the half-component wall at step 2
        assert_stages_match_the_oracle(PerturbedSpec(F(1, 2)), perturbed_stage, 3)
        with pytest.raises(InvalidSpecError, match="not below half the leftmost"):
            perturbed_stage(PerturbedSpec(F(1, 2)), 2)

    # The stage sum is reused where a step's children cover every pair,
    # built from the offsets where A = B, and windowed elsewhere.
    @pytest.mark.filterwarnings("ignore:max component length did not decrease")
    @pytest.mark.parametrize(
        "spec",
        [
            TAB,  # A = B, no step covers
            CompositeSpec(HALVING, CentralSpec.constant(F(3, 4))),  # none covers
            FAT,  # every step covers
            CompositeSpec(TERNARY, TERNARY),  # A = B, every step covers
            CompositeSpec(  # steps 1 and 2 do not cover, 3-8 do
                CentralSpec.constant(F(1, 3)), CentralSpec.constant(F(2, 5))
            ),
            GreedySpec(PERTURBED),  # a perturbed B: every step windowed
        ],
        ids=[
            "tab-1_2-1_2", "tab-1_2-3_4", "greedy-1_4", "tern-tern", "tab-1_3-2_5",
            "greedy-perturbed",
        ],
    )
    def test_composite(self, spec):
        assert_stages_match_the_oracle(spec, lambda s, n: s.stage(n), 8)

    @pytest.mark.filterwarnings("ignore:max component length did not decrease")
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(composite_specs())
    def test_composite_on_central_sources(self, spec):
        assert_stages_match_the_oracle(spec, lambda s, n: s.stage(n), 7)

    def test_greedy_a_half(self):
        # The oracle cuts A itself, with the Fraction cut rule that may cut
        # between several allowed pieces of one component (no source
        # reaches it); A comes out the central 1/2 set on [0, 1/2], and
        # the points and deferrals are the certificate's.
        for name, source in GREEDY_B_SOURCES.items():
            spec = GreedySpec(source)
            expected = oracle.oracle_greedy_a_stages(spec)
            for n in range(9):
                a, points, deferrals = next(expected)
                assert a == half_scaled_components(HALVING, n), (name, n)
                cert = greedy_certificate(spec, n)
                assert cert.points == points, (name, n)
                assert cert.deferrals == len(deferrals), (name, n)

    def test_composite_dates_grown_gaps_as_new(self):
        # With B = {0} the composite is A | ((A + 1/2) & [1/2, 1]); its
        # gap (1/8, 3/8) grows to the right at stage 2 and to the left
        # at stage 3, and each time becomes a new gap.
        a_stages = [
            normalize([Interval.closed(0, F(1, 2))]),
            normalize([Interval.closed(0, F(1, 8)), Interval.closed(F(3, 8), F(1, 2))]),
            normalize(
                [Interval.closed(0, F(1, 8)), Interval.closed(F(7, 16), F(1, 2))]
            ),
            normalize(
                [Interval.closed(0, F(1, 16)), Interval.closed(F(7, 16), F(1, 2))]
            ),
        ]
        zero = normalize([Interval.point(0)])
        sums = (constructions._windowed_sum(a, zero) for a in a_stages)
        built = constructions._composite_steps(a_stages.__getitem__, sums, "tab")
        expected = oracle.oracle_composite_stages(
            a_stages.__getitem__, lambda m: zero, "tab"
        )
        for m in range(4):
            assert next(built) == next(expected), m


class TestRightmostGaps:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(central_specs(), st.integers(min_value=1, max_value=8))
    def test_central_ends_are_the_closed_forms(self, spec, n):
        gaps = central_stage(spec, n).rightmost_gaps()
        assert list(gaps) == list(range(1, n + 1))
        for k, gap in gaps.items():
            lo = 1 - spec.component_length(k - 1) * (1 + spec.ratio(k)) / 2
            assert gap.interval == Interval.open(lo, 1 - spec.component_length(k))

    @pytest.mark.parametrize(
        "spec",
        [PERTURBED, PerturbedSpec(F(1, 7)), PerturbedSpec(F(1, 5), F(1, 3), F(1, 2))],
        ids=["c1-1_5", "c1-1_7", "c1-1_5-shrink-1_3"],
    )
    def test_perturbed_records_are_the_oracles(self, spec):
        for n, expected in zip(range(9), oracle.oracle_perturbed_stages(spec)):
            # the records run by step, then left to right, so the last
            # record of a step is the one cut on the all-ones branch
            rightmost = {g.stage_created: g for g in expected.gaps}
            assert perturbed_stage(spec, n).rightmost_gaps() == rightmost, n

    @pytest.mark.parametrize(
        "build",
        [lambda n: composite_stage(TAB, n), lambda n: greedy_stage(FAT, n)],
        ids=["tab", "greedy"],
    )
    def test_composite_stages_have_none(self, build):
        for n in range(7):
            assert build(n).rightmost_gaps() == {}, n


class TestBuildersWorkOnTheKeys:
    @pytest.mark.parametrize(
        "spec, n, per_step",
        [(TERNARY, 12, 6), (TAB, 9, 20)],
        ids=["central-1_3", "tab-1_2-1_2"],
    )
    def test_no_fraction_per_gap_record(
        self, spec, n, per_step, monkeypatch, fresh_sequences
    ):
        # Gap records hold numerators, so the only Fractions are a few
        # per step for the lengths and ratios: 48 and 148 when written.
        stage, made = oracle.fractions_made(monkeypatch, lambda: spec.stage(n))
        assert len(made) <= per_step * n < len(stage.gaps), len(made)

    def test_composite_keeps_the_records_of_unchanged_gaps(self):
        # Every gap of tab 1/2, 1/2 stays a gap of the next stage.
        stages = stage_list(composite_stage, TAB, 8)
        for prev, cur in zip(stages, stages[1:]):
            earlier = {g.interval: g for g in prev.gaps}
            kept = [g for g in cur.gaps if g.interval in earlier]
            assert len(kept) == len(prev.gaps), cur.n
            for g in kept:
                assert g is earlier[g.interval], (cur.n, g)
                assert g.stage_created == earlier[g.interval].stage_created

    @pytest.mark.filterwarnings("ignore:max component length did not decrease")
    @pytest.mark.parametrize(
        "spec, calls",
        [
            (TAB, lambda n: 0),  # A = B: the offsets
            (FAT, lambda n: 1),  # stage 0, then reused
            (  # stages 0-2, then reused
                CompositeSpec(
                    CentralSpec.constant(F(1, 3)), CentralSpec.constant(F(2, 5))
                ),
                lambda n: min(n + 1, 3),
            ),
            (
                CompositeSpec(HALVING, CentralSpec.constant(F(3, 4))),
                lambda n: n + 1,  # no step covers
            ),
            (  # steps 1-4 cover, 5 on do not
                GreedySpec(CentralSpec.constant(F(1, 10))),
                lambda n: max(1, n - 3),
            ),
        ],
        ids=["tab-1_2-1_2", "greedy-1_4", "tab-1_3-2_5", "tab-1_2-3_4", "greedy-1_10"],
    )
    def test_windowed_sums_are_taken_only_where_needed(
        self, spec, calls, monkeypatch, fresh_sequences
    ):
        # Only the composite sums call minkowski_sum while stages are built.
        made = []
        windowed = IntervalUnion.minkowski_sum

        def counted(self, *args, **kwargs):
            made.append(args)
            return windowed(self, *args, **kwargs)

        monkeypatch.setattr(IntervalUnion, "minkowski_sum", counted)
        for n in range(10):
            spec.stage(n)
            assert len(made) == calls(n), n

