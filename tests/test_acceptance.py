"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them) and asserts its stated runtime bound.  Stage and bracket
computations are shared across criteria through module-level caches, so
later criteria only pay for what earlier ones have not already built.
"""

import random
import time
from fractions import Fraction as F

from cantordiff.analysis import (
    dominant_gap_certificate,
    inner_difference,
    outer_difference,
    predicted_missing_points,
    rightmost_gap_chain,
    shift_inclusion_check,
)
from cantordiff.cli import main as cli_main
from cantordiff.constructions import (
    CentralSpec,
    CompositeSpec,
    GreedySpec,
    PerturbedSpec,
    central_stage,
    composite_stage,
    greedy_stage,
    half_scaled_components,
    perturbed_stage,
    rightmost_branch_gap_end,
)
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
FAT_THIN = GreedySpec(CentralSpec.geometric(F(1, 16)))

_BOX_UNION = IntervalUnion((BOX,))


def _family_stage(key, n):
    if key == "ternary":
        return central_stage(TERNARY, n)
    if key == "perturbed":
        return perturbed_stage(PERTURBED, n)
    if key == "tab":
        return composite_stage(TAB, n)
    if key == "fat":
        return greedy_stage(FAT, n)
    raise KeyError(key)


_inner_cache: dict[tuple[str, int], IntervalUnion] = {}
_outer_cache: dict[tuple[str, int], IntervalUnion] = {}


def _inner(key, n):
    if (key, n) not in _inner_cache:
        _inner_cache[(key, n)] = inner_difference(_family_stage(key, n))
    return _inner_cache[(key, n)]


def _outer(key, n):
    if (key, n) not in _outer_cache:
        _outer_cache[(key, n)] = outer_difference(_family_stage(key, n))
    return _outer_cache[(key, n)]


def _missing(key, n):
    return _BOX_UNION.difference(_inner(key, n))


class _Criterion:
    def __init__(self, cid, name, limit_seconds=None):
        self.cid = cid
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.cid} {self.name}: {status} ({elapsed:.1f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, (
                f"{self.cid} exceeded its runtime bound: "
                f"{elapsed:.1f}s >= {self.limit}s"
            )
        return False


def _random_union(rng, max_parts=12, max_den=64, span=2):
    raw = []
    for _ in range(rng.randrange(max_parts + 1)):
        d1, d2 = rng.randint(1, max_den), rng.randint(1, max_den)
        x = F(rng.randint(-span * d1, span * d1), d1)
        y = F(rng.randint(-span * d2, span * d2), d2)
        if x == y:
            raw.append(Interval.point(x))
        else:
            raw.append(
                Interval(min(x, y), max(x, y), rng.random() < 0.5, rng.random() < 0.5)
            )
    return normalize(raw)


def test_c1_interval_algebra_oracle_equivalence():
    with _Criterion("C1", "interval-algebra oracle equivalence", 10):
        rng = random.Random(20260809)
        frame = Interval.closed(-4, 4)
        for _ in range(500):
            a = _random_union(rng)
            b = _random_union(rng)
            assert a.union(b) == oracle.oracle_union(a, b)
            assert a.intersect(b) == oracle.oracle_intersect(a, b)
            assert a.difference(b) == oracle.oracle_difference(a, b)
            assert a.complement_within(frame) == oracle.oracle_complement_within(
                a, frame
            )
            assert a.minkowski_sum(b) == oracle.oracle_minkowski(a, b)


def test_c2_ccp_reproduction():
    with _Criterion("C2", "ternary missing-set reproduction", 60):
        for n in range(5):
            stage = central_stage(TERNARY, n)
            assert _inner("ternary", n) == oracle.oracle_inner_difference(stage)
            assert (
                _inner("ternary", n).measure()
                == oracle.oracle_covered_measure(stage)
            )
        for n in range(11):
            missing = _missing("ternary", n)
            assert predicted_missing_points(TERNARY, n).is_subset(missing)
            assert missing.measure() == 2 * F(1, 3) ** n


def test_c3_t13_certification():
    with _Criterion("C3", "full characterization for steep ratios", 60):
        for spec in (TERNARY, HALVING):
            stages = [central_stage(spec, n) for n in range(11)]
            assembled = predicted_missing_points(spec, 6)
            for k in range(7):
                r = rightmost_branch_gap_end(spec, k)
                result = shift_inclusion_check(
                    stages, [points_union([r, -r])] * len(stages)
                )
                assert result.passed, (spec, k)
                stage = central_stage(spec, k + 2)
                gap = next(
                    g
                    for g in stage.gaps
                    if g.stage_created == k + 1 and g.address == "1" * k
                )
                cert = dominant_gap_certificate(
                    stage, gap, 0, spec.component_length(k + 1)
                )
                prev_r = rightmost_branch_gap_end(spec, k - 1) if k else F(0)
                assert cert.mode == "strict"
                assert cert.certified == Interval.open(prev_r, r)
                piece = IntervalUnion((cert.certified,))
                assembled = assembled.union(piece).union(piece.reflect())
            r6 = rightmost_branch_gap_end(spec, 6)
            window = normalize([Interval.closed(-r6, r6)])
            assert assembled.intersect(window) == window


def _right_branch_gap_ends(stage):
    ends = {}
    for g in stage.gaps:
        if g.address is not None and g.address == "1" * (g.stage_created - 1):
            ends[g.stage_created] = g.interval.hi
    return ends


def test_c4_ts3_evidence():
    with _Criterion("C4", "perturbed family pins the missing set to 0", 60):
        widths = []
        for n in range(9):
            missing = _missing("perturbed", n)
            assert all(missing.contains_point(x) for x in (-1, 0, 1))
            if n < 3:
                continue
            stage = perturbed_stage(PERTURBED, n)
            # strip width from the chain of right-aligned gap ends; the
            # stage-n translates telescope contiguously only up to the
            # (n-2)-nd chain gap, see the decisions ledger
            width = 1 - _right_branch_gap_ends(stage)[n - 2]
            widths.append(width)
            strips = normalize(
                [Interval.closed(-1, -1 + width), Interval.closed(1 - width, 1)]
            )
            core = missing.difference(strips)
            if n == 8:
                assert core == points_union([0])
        assert all(a > b for a, b in zip(widths, widths[1:]))


def test_c5_tab_cspm_certification():
    with _Criterion("C5", "fat missing sets bound the difference measure", 120):
        reports = {}
        for label, spec, cap in (
            ("base-1/4", FAT, F(166, 100)),
            ("base-1/16", FAT_THIN, F(154, 100)),
        ):
            c_stages = [greedy_stage(spec, n) for n in range(9)]
            y_stages = [
                half_scaled_components(spec.b_source, n).translate(F(1, 2))
                for n in range(9)
            ]
            assert shift_inclusion_check(c_stages, y_stages).passed, label
            tail = spec.b_source.ratios.tail_ratio_sum(8)
            lower = half_scaled_components(spec.b_source, 8).measure() - tail / 2
            upper = 2 - lower
            reports[label] = (lower, upper)
            assert upper <= cap, (label, float(upper))
        assert reports["base-1/4"][0] > F(34, 100)
        assert reports["base-1/4"][1] <= F(166, 100) < 2
        # outer bracket stays above 3/2 at every stage of the base pair; it
        # holds by construction, as the outer bracket is (-1, 1) in closed form
        for n in range(9):
            assert _outer("fat", n).measure() > F(3, 2)


def test_c6_tamc_chain():
    with _Criterion("C6", "rightmost-gap chains certify countability", 30):
        for spec in (TERNARY, HALVING):
            chain = rightmost_gap_chain(spec, 6)
            ends = [cert.gap.interval.hi for cert in chain]
            assert all(a < b for a, b in zip(ends, ends[1:]))
            assert ends[-1] > F(99, 100)
            exception_counts = [len(cert.exceptions) for cert in chain]
            assert all(count >= 0 for count in exception_counts)
            print(
                f"[acceptance]   chain exceptions for ratio "
                f"{spec.ratios.value}: {exception_counts}"
            )


_MIDDLE = IntervalUnion((Interval.closed(F(-1, 2), F(1, 2)),))


def test_c7_steinhaus_monitoring():
    with _Criterion("C7", "middle band of the missing bracket empties", 5):
        for key in ("ternary", "perturbed", "tab", "fat"):
            middles = [
                _missing(key, n).intersect(_MIDDLE).measure() for n in range(9)
            ]
            assert all(a >= b for a, b in zip(middles, middles[1:])), key
            if key in ("ternary", "perturbed"):
                assert middles[8] == 0, (key, middles[8])
            elif key == "fat":
                if middles[8] >= F(1, 100):
                    # empirical threshold: flagged, never a hard failure
                    print(
                        f"[acceptance]   FLAG fat middle band {middles[8]} "
                        f">= 1/100 at stage 8"
                    )


def test_c8_isolated_origin():
    with _Criterion("C8", "origin isolated inside a punctured neighborhood", 10):
        for key in ("ternary", "perturbed", "tab", "fat"):
            for n in range(1, 9):
                inner = _inner(key, n)
                assert not inner.contains_point(0), (key, n)
                stage = _family_stage(key, n)
                earliest = min(
                    stage.gaps, key=lambda g: (g.stage_created, g.interval.lo)
                )
                length = earliest.interval.length
                hole = normalize(
                    [Interval.open(-length, 0), Interval.open(0, length)]
                )
                assert hole.is_subset(inner), (key, n)


def test_c9_determinism(tmp_path):
    with _Criterion("C9", "byte-identical verification reports"):
        spec_path = tmp_path / "ternary.json"
        spec_path.write_text(
            '{"family": "central", "ratios": {"rule": "constant", "value": "1/3"}}',
            encoding="utf-8",
        )
        outputs = []
        for run in ("one", "two"):
            out = tmp_path / run
            for suite in ("ccp", "tamc"):
                code = cli_main(
                    [
                        "verify",
                        suite,
                        "--spec",
                        str(spec_path),
                        "--max-stage",
                        "6",
                        "--out",
                        str(out),
                        "--format",
                        "csv",
                    ]
                )
                assert code == 0
            outputs.append(
                {
                    path.name: path.read_bytes()
                    for path in sorted(out.iterdir())
                }
            )
        assert outputs[0] == outputs[1]
