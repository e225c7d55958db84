"""Tests for the four stage generators."""

import itertools
import warnings
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from cantordiff import constructions
from cantordiff.constructions import (
    CentralSpec,
    CompositeSpec,
    GreedySpec,
    PerturbedSpec,
    branch_shift,
    builtin_composite_pair,
    builtin_fat_composite,
    builtin_half,
    builtin_perturbed,
    builtin_ternary,
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
from cantordiff.intervals import UNIT, Interval, union_of

import oracle


TERNARY = builtin_ternary()
HALVING = builtin_half()
PERTURBED = builtin_perturbed()


@pytest.fixture
def fresh_sequences():
    """Clear the stage cache around a test, so that it builds its stages
    itself and leaves no sequence behind."""
    constructions._sequence.cache_clear()
    yield
    constructions._sequence.cache_clear()


def stage_list(build, spec, n_max):
    return [build(spec, n) for n in range(n_max + 1)]


class TestCentral:
    def test_stage1_ternary(self):
        s = central_stage(TERNARY, 1)
        assert s.components == union_of(
            Interval.closed(0, F(1, 3)), Interval.closed(F(2, 3), 1)
        )
        assert len(s.gaps) == 1
        assert s.gaps[0].address == ""
        assert s.gaps[0].interval == Interval.open(F(1, 3), F(2, 3))

    def test_stage2_lengths(self):
        s = central_stage(TERNARY, 2)
        assert all(p.length == F(1, 9) for p in s.components)
        new_gaps = [g for g in s.gaps if g.stage_created == 2]
        assert all(g.interval.length == F(1, 9) for g in new_gaps)
        assert sorted(g.address for g in new_gaps) == ["0", "1"]

    def test_stage1_half(self):
        s = central_stage(HALVING, 1)
        assert s.components == union_of(
            Interval.closed(0, F(1, 4)), Interval.closed(F(3, 4), 1)
        )

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

    def test_nesting_and_cover(self):
        stages = stage_list(central_stage, TERNARY, 6)
        for prev, nxt in zip(stages, stages[1:]):
            assert nxt.components.is_subset(prev.components)
            prev_gaps = {(g.interval.lo, g.interval.hi) for g in prev.gaps}
            next_gaps = {(g.interval.lo, g.interval.hi) for g in nxt.gaps}
            assert prev_gaps <= next_gaps
        for s in stages:
            recorded = oracle.oracle_gap_union(s)
            assert s.components.union(recorded) == union_of(s.frame)
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
        spec = CentralSpec.from_list((F(1, 2),), F(1, 3))
        s = central_stage(spec, 2)
        # first split removes 1/2, second removes 1/3 of each part
        assert s.components.parts[0].length == F(1, 4) * F(1, 3)


class TestPerturbed:
    def test_stage1(self):
        s = perturbed_stage(PERTURBED, 1)
        assert s.components == union_of(
            Interval.closed(0, F(2, 5)), Interval.closed(F(3, 5), 1)
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


class TestComposite:
    @pytest.mark.parametrize(
        "spec",
        [
            builtin_composite_pair(),
            CompositeSpec(HALVING, CentralSpec.constant(F(3, 4))),
            builtin_fat_composite(),
        ],
        ids=["tab-1_2-1_2", "tab-1_2-3_4", "greedy-1_4"],
    )
    def test_stages_match_the_full_product(self, spec):
        # The stage sums only the pairs that reach [1/2, 1], and reads
        # its endpoints and gaps off the union it builds.
        for m in range(7):
            if isinstance(spec, GreedySpec):
                stages = greedy_stage(spec, m)
                a, stage = stages.a_stage.components, stages.c_stage
            else:
                a = half_scaled_components(spec.a_source, m)
                stage = composite_stage(spec, m)
            b = half_scaled_components(spec.b_source, m)
            assert stage.components == oracle.minkowski_composite_components(a, b)
            assert stage.endpoints == oracle.oracle_endpoints(stage)
            assert {g.interval for g in stage.gaps} == set(
                stage.components.complement_within(UNIT)
            )

    def test_stage1_builtin(self):
        s = composite_stage(builtin_composite_pair(), 1)
        assert s.components == union_of(
            Interval.closed(0, F(1, 8)),
            Interval.closed(F(3, 8), F(3, 4)),
            Interval.closed(F(7, 8), 1),
        )

    def test_one_always_survives(self):
        spec = builtin_composite_pair()
        for n in range(6):
            assert composite_stage(spec, n).components.contains_point(1)

    def test_stage2_component_bound(self):
        s = composite_stage(builtin_composite_pair(), 2)
        assert len(s.components.parts) <= 4 + 9

    def test_nesting_and_gap_persistence(self):
        spec = builtin_composite_pair()
        stages = stage_list(composite_stage, spec, 5)
        for prev, nxt in zip(stages, stages[1:]):
            assert nxt.components.is_subset(prev.components)
            prev_gaps = {(g.interval.lo, g.interval.hi) for g in prev.gaps}
            next_gaps = {(g.interval.lo, g.interval.hi) for g in nxt.gaps}
            assert prev_gaps <= next_gaps
        for s in stages:
            assert s.components.union(oracle.oracle_gap_union(s)) == union_of(s.frame)

    def test_max_component_warning_path(self):
        # a source that never refines cannot shrink the components;
        # the composite step must report it instead of silently accepting
        from cantordiff.constructions import _composite_steps

        frozen = union_of(Interval.closed(0, F(1, 2)))
        steps = _composite_steps(lambda n: frozen, lambda n: frozen, "tab")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            next(steps)
            stage = next(steps)
        assert any("did not decrease" in str(w.message) for w in caught)
        assert stage.notes


class TestGreedy:
    def test_base_case(self):
        st = greedy_stage(builtin_fat_composite(), 0)
        assert st.a_stage.components == union_of(Interval.closed(0, F(1, 2)))
        assert st.a_stage.frame == Interval.closed(0, F(1, 2))

    def test_endpoints_retained_and_split_binary(self):
        g = builtin_fat_composite()
        for n in range(7):
            a = greedy_stage(g, n).a_stage
            assert len(a.components.parts) == 2 ** n
            assert a.components.contains_point(0)
            assert a.components.contains_point(F(1, 2))
        prev = greedy_stage(g, 5).a_stage
        nxt = greedy_stage(g, 6).a_stage
        assert nxt.components.is_subset(prev.components)
        assert set(prev.endpoints) <= set(nxt.endpoints)

    def test_deferrals_are_pinned(self):
        # At stages 7 and 8 the candidates 1/4 and 3/4 each empty one
        # component of A and wait; no output digest covers the A half.
        deferrals = greedy_certificate(builtin_fat_composite(), 8).deferrals
        assert deferrals == (
            (F(1, 4), "010000", 7),
            (F(3, 4), "100000", 7),
            (F(1, 4), "0100000", 8),
            (F(3, 4), "1000000", 8),
        )

    def test_gaps_are_addressed_by_their_index_in_the_step(self):
        gaps = greedy_stage(builtin_fat_composite(), 8).a_stage.gaps
        for k in range(1, 9):
            addresses = [g.address for g in gaps if g.stage_created == k]
            width = k - 1
            assert addresses == [
                format(i, "b").zfill(width) if width else "" for i in range(2**width)
            ]

    def test_certificate(self):
        g = builtin_fat_composite()
        cert = greedy_certificate(g, 6)
        assert cert.verified
        assert len(cert.points) == 6
        stages = {p.stage for p in cert.points}
        assert stages == set(range(1, 7))
        # The Minkowski form of the same verdict.
        for n in range(7):
            cert = greedy_certificate(g, n)
            a = greedy_stage(g, n).a_stage.components
            reachable = a.minkowski_sum(half_scaled_components(g.b_source, n))
            assert cert.verified
            assert not any(reachable.contains_point(p.value) for p in cert.points)

    def test_certificate_flags_a_reachable_point(self, monkeypatch):
        # 0 is in A_n and in B_n, so an admitted 0 = 0 + 0 is reachable.
        real_stage = constructions._stage

        def with_zero(spec, n, budget):
            got = real_stage(spec, n, budget)
            if isinstance(spec, constructions._GreedyA):
                zero = constructions.AdmittedPoint(F(0), n)
                got = got._replace(points=got.points + (zero,))
            return got

        monkeypatch.setattr(constructions, "_stage", with_zero)
        cert = greedy_certificate(builtin_fat_composite(), 4)
        assert cert.points[-1].value == 0
        assert not cert.verified

    def test_b_measure_schedule(self):
        g = builtin_fat_composite()
        for n in range(1, 7):
            b = half_scaled_components(g.b_source, n)
            expected = F(1, 2)
            for j in range(1, n + 1):
                expected *= 1 - F(1, 4) ** j
            assert b.measure() == expected

    def test_c_stage_is_composite(self):
        g = builtin_fat_composite()
        st = greedy_stage(g, 3)
        a = st.a_stage.components
        b = half_scaled_components(g.b_source, 3)
        e = (
            a.minkowski_sum(b)
            .translate(F(1, 2))
            .intersect(union_of(Interval.closed(F(1, 2), 1)))
        )
        assert st.c_stage.components == a.union(e)


class TestGreedyFailureModes:
    # These specs equal builtin_fat_composite(): clear the stage cache around
    # each test so neither a cached nor a hostile sequence leaks across.
    def test_avoidance_deadlock_aborts_with_diagnostic(
        self, monkeypatch, fresh_sequences
    ):
        from cantordiff.errors import AvoidanceExhaustedError

        def hostile_margin(n):
            return F(10)  # padding swallows the whole half frame

        monkeypatch.setattr(constructions, "quartic_margin", hostile_margin)
        spec = GreedySpec(CentralSpec.geometric(F(1, 4)))
        with pytest.raises(AvoidanceExhaustedError):
            greedy_stage(spec, 1)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            greedy_stage(builtin_fat_composite(), 6, budget=16)

    def test_failed_build_is_not_kept_for_the_next_request(
        self, monkeypatch, fresh_sequences
    ):
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
                greedy_stage(spec, 1)


class TestCompositeBudget:
    def test_budget_guard(self):
        spec = CompositeSpec(CentralSpec.constant(F(1, 2)), CentralSpec.constant(F(1, 2)))
        with pytest.raises(BudgetExceededError):
            composite_stage(spec, 4, budget=4)

    def test_budget_checks_each_request_against_cached_stages(self):
        # stages built under a large budget are shared, but a later request
        # with a small budget is refused at the first stage it cannot hold
        spec = builtin_composite_pair()
        counts = [len(composite_stage(spec, n).components) for n in range(5)]
        assert counts == [1, 3, 8, 21, 56]
        assert composite_stage(spec, 2, budget=8).n == 2
        with pytest.raises(BudgetExceededError) as caught:
            composite_stage(spec, 4, budget=20)
        assert (caught.value.requested, caught.value.budget) == (21, 20)


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
                pool.map(lambda n: greedy_stage(greedy, n).c_stage, [6] * 8)
            )
        assert all(s == tab_results[0] for s in tab_results)
        assert all(s == greedy_results[0] for s in greedy_results)

    def test_concurrent_requests_with_different_budgets(self):
        # one shared sequence serves every budget; each request gets its own
        # verdict (stage 5 holds 153 components: over 100, under 2^14)
        import concurrent.futures
        import sys

        spec = CompositeSpec(
            CentralSpec.from_list((), F(1, 2)), CentralSpec.constant(F(1, 2))
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
            lambda n: composite_stage(builtin_composite_pair(), n),
            lambda n: greedy_stage(builtin_fat_composite(), n).a_stage,
            lambda n: greedy_stage(builtin_fat_composite(), n).c_stage,
        ],
        ids=["ternary", "geometric-1_4", "perturbed", "tab", "greedy-a", "greedy"],
    )
    def test_endpoints_and_gap_union_match_the_records(self, build):
        # The greedy A half lies on [0, 1/2]: its gaps are taken within
        # that frame, not within [0, 1].
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
        return CentralSpec.from_list(listed, draw(_ratios))
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

    @pytest.mark.parametrize(
        "spec",
        [
            builtin_composite_pair(),
            CompositeSpec(HALVING, CentralSpec.constant(F(3, 4))),
            builtin_fat_composite(),
        ],
        ids=["tab-1_2-1_2", "tab-1_2-3_4", "greedy-1_4"],
    )
    def test_composite(self, spec):
        assert_stages_match_the_oracle(spec, lambda s, n: s.stage(n), 8)

    def test_greedy_a_half(self):
        spec = builtin_fat_composite()
        expected = oracle.oracle_greedy_a_stages(spec)
        for n in range(9):
            stage, points, deferrals = next(expected)
            assert greedy_stage(spec, n).a_stage == stage, n
            cert = greedy_certificate(spec, n)
            assert (cert.points, cert.deferrals) == (points, deferrals), n

    def test_composite_dates_grown_gaps_as_new(self):
        # With B = {0} the composite is A | ((A + 1/2) & [1/2, 1]); its
        # gap (1/8, 3/8) grows to the right at stage 2 and to the left
        # at stage 3, and each time becomes a new gap.
        a_stages = [
            union_of(Interval.closed(0, F(1, 2))),
            union_of(Interval.closed(0, F(1, 8)), Interval.closed(F(3, 8), F(1, 2))),
            union_of(Interval.closed(0, F(1, 8)), Interval.closed(F(7, 16), F(1, 2))),
            union_of(Interval.closed(0, F(1, 16)), Interval.closed(F(7, 16), F(1, 2))),
        ]
        zero = union_of(Interval.point(0))
        sources = (a_stages.__getitem__, lambda m: zero, "tab")
        built = constructions._composite_steps(*sources)
        expected = oracle.oracle_composite_stages(*sources)
        for m in range(4):
            assert next(built) == next(expected), m

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        st.lists(_ratios, min_size=2, max_size=8, unique=True),
        st.lists(
            st.tuples(_ratios, _ratios, st.booleans(), st.booleans()), max_size=4
        ),
    )
    def test_avoiding_cuts(self, ends, removed):
        # Closed parts, and the pieces of them left after removing
        # random intervals, cut on the keys and on Fractions alike.
        ends = sorted(ends)[: len(ends) // 2 * 2]
        a = union_of(*map(Interval.closed, ends[::2], ends[1::2]))
        holes = [
            Interval(min(p, q), max(p, q), lc, hc)
            for p, q, lc, hc in removed
            if p != q
        ]
        allowed = a.difference(union_of(*holes))
        grid = 4 * lcm(a.grid, allowed.grid)
        try:
            expected = oracle._avoiding_cuts(a.parts, allowed)
        except oracle._ComponentEmptied as emptied:
            with pytest.raises(constructions._ComponentEmptied) as caught:
                constructions._avoiding_cuts(a._on(grid), allowed._on(grid))
            assert caught.value.index == emptied.index
            return
        cuts = constructions._avoiding_cuts(a._on(grid), allowed._on(grid))
        assert [(F(x, 3 * grid), F(y, 3 * grid)) for x, y in cuts] == expected


class TestBuildersWorkOnTheKeys:
    def test_central_makes_two_fractions_per_gap_record(
        self, monkeypatch, fresh_sequences
    ):
        # Each gap record decodes its two ends; the rest is a few
        # Fractions per step for the child length.
        stage, made = oracle.fractions_made(
            monkeypatch, lambda: central_stage(TERNARY, 12)
        )
        assert len(made) <= 2 * len(stage.gaps) + 6 * 12, len(made)

    def test_composite_keeps_the_records_of_unchanged_gaps(self):
        # Every gap of tab 1/2, 1/2 stays a gap of the next stage.
        stages = stage_list(composite_stage, builtin_composite_pair(), 8)
        for prev, cur in zip(stages, stages[1:]):
            earlier = {g.interval: g for g in prev.gaps}
            kept = [g for g in cur.gaps if g.interval in earlier]
            assert len(kept) == len(prev.gaps), cur.n
            for g in kept:
                assert g is earlier[g.interval], (cur.n, g)
                assert g.stage_created == earlier[g.interval].stage_created


class TestBranchShift:
    def test_examples(self):
        assert branch_shift(central_stage(TERNARY, 2), "1") == F(2, 3)
        assert branch_shift(central_stage(TERNARY, 2), "11") == F(8, 9)
        assert branch_shift(central_stage(HALVING, 1), "1") == F(3, 4)
        assert branch_shift(central_stage(TERNARY, 3), "") == 0

    def test_rejects_non_central(self):
        s = perturbed_stage(PERTURBED, 2)
        with pytest.raises(InvalidSpecError):
            branch_shift(s, "1")

    def test_rejects_deep_address(self):
        with pytest.raises(ValueError):
            branch_shift(central_stage(TERNARY, 1), "11")
