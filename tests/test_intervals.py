"""Unit and property tests for the exact interval algebra."""

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cantordiff
from cantordiff.intervals import (
    BOX,
    EMPTY,
    UNIT,
    Interval,
    IntervalUnion,
    _cut,
    _interval,
    _row_sums,
    normalize,
    points_union,
)

import oracle


def iv(lo, hi, lc=True, hc=True):
    return Interval(F(lo), F(hi), lc, hc)


class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))
        with pytest.raises(ValueError):
            Interval(F(1), F(1), True, False)
        assert Interval.point(F(1, 3)).is_point

    def test_accessors(self):
        p = Interval.open(F(1, 3), F(2, 3))
        assert p.length == F(1, 3)
        assert p.midpoint == F(1, 2)
        assert not IntervalUnion((p,)).contains_point(F(1, 3))
        assert IntervalUnion((p,)).contains_point(F(1, 2))
        assert str(p) == "(1/3, 2/3)"
        assert str(Interval.point(F(1, 3))) == "{1/3}"

    @pytest.mark.parametrize(
        "end", ["1/3", 0.5, True, None], ids=["text", "float", "bool", "none"]
    )
    def test_ends_other_than_fraction_or_int_are_refused(self, end):
        for args in ((end, 1), (0, end)):
            with pytest.raises(TypeError, match="^interval ends are Fraction or int"):
                Interval(*args)

    def test_int_ends_become_fractions(self):
        p = Interval(0, 1)
        assert type(p.lo) is F and type(p.hi) is F
        assert p == Interval(F(0), F(1))


class TestNormalize:
    def test_touching_closed_endpoints_merge(self):
        u = normalize([iv(0, F(1, 3)), iv(F(1, 3), 1)])
        assert u.parts == (iv(0, 1),)

    def test_open_open_adjacency_keeps_puncture(self):
        u = normalize([Interval.open(0, F(1, 3)), Interval.open(F(1, 3), 1)])
        assert len(u.parts) == 2
        assert not u.contains_point(F(1, 3))
        assert u.contains_point(F(1, 2))

    def test_points_off_the_grid_near_open_ends(self):
        u = normalize([Interval.open(0, 1)])  # grid 1
        assert u.contains_point(F(1, 4)) and u.contains_point(F(5, 6))
        assert not u.contains_point(F(-1, 4)) and not u.contains_point(F(5, 4))

    def test_sort_without_merge(self):
        u = normalize([iv(F(2, 3), 1), iv(0, F(1, 3))])
        assert u.parts == (iv(0, F(1, 3)), iv(F(2, 3), 1))

    def test_idempotent(self):
        raw = [iv(0, 1), Interval.open(F(1, 2), 2), Interval.point(3)]
        once = normalize(raw)
        assert normalize(once.parts) == once

    def test_half_open_touch_merges(self):
        u = normalize([Interval(0, 1, True, False), Interval(1, 2, False, True)])
        assert len(u.parts) == 2  # (.., 1) and (1, ..): puncture at 1
        v = normalize([Interval(0, 1, True, False), iv(1, 2)])
        assert v.parts == (iv(0, 2),)

    def test_unnormalized_parts_are_refused(self):
        with pytest.raises(ValueError):
            IntervalUnion((iv(0, 1), iv(1, 2)))
        with pytest.raises(ValueError):
            IntervalUnion((iv(1, 2), iv(0, F(1, 2))))
        with pytest.raises(ValueError):
            IntervalUnion((Interval(0, 1, True, False), iv(1, 2)))
        assert len(IntervalUnion((Interval.open(0, 1), Interval.open(1, 2)))) == 2

    def test_normalization_is_checked_under_optimize(self):
        # The check is a raise, not an assert that python -O strips: a
        # union of two touching closed parts would otherwise measure 2.
        code = (
            "from cantordiff.intervals import Interval, IntervalUnion\n"
            "parts = (Interval.closed(0, 1), Interval.closed(1, 2))\n"
            "try:\n"
            "    print('accepted, measure', IntervalUnion(parts).measure())\n"
            "except ValueError as exc:\n"
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
        assert result.stdout.splitlines() == [
            "refused: IntervalUnion parts not normalized"
        ]


class TestBooleanOps:
    def test_complement_ternary_stage1(self):
        u = normalize([iv(0, F(1, 3)), iv(F(2, 3), 1)])
        assert u.complement_within(UNIT).parts == (
            Interval.open(F(1, 3), F(2, 3)),
        )

    def test_intersect_trims(self):
        a = normalize([iv(F(1, 2), F(3, 4)), iv(F(7, 8), F(9, 8))])
        b = normalize([iv(F(1, 2), 1)])
        assert a.intersect(b).parts == (
            iv(F(1, 2), F(3, 4)),
            iv(F(7, 8), 1),
        )

    def test_difference_with_punctured_interior(self):
        box = normalize([iv(-1, 1)])
        inner = normalize(
            [
                Interval.open(F(-2, 3), F(-1, 3)),
                Interval.open(F(-1, 3), 0),
                Interval.open(0, F(1, 3)),
                Interval.open(F(1, 3), F(2, 3)),
            ]
        )
        expected = (
            iv(-1, F(-2, 3)),
            Interval.point(F(-1, 3)),
            Interval.point(0),
            Interval.point(F(1, 3)),
            iv(F(2, 3), 1),
        )
        assert box.difference(inner).parts == expected

    def test_complement_roundtrip(self):
        a = normalize([iv(0, F(1, 4)), Interval.open(F(1, 2), F(3, 4))])
        assert a.complement_within(UNIT).union(a) == normalize([UNIT])

    def test_is_subset_puncture_aware(self):
        outer = normalize([Interval.open(0, 1), Interval.open(1, 2)])
        assert normalize([Interval.open(F(1, 4), F(3, 4))]).is_subset(outer)
        assert not normalize([Interval.open(F(1, 2), F(3, 2))]).is_subset(outer)


class TestMinkowski:
    def test_closed_pair(self):
        a = normalize([iv(0, F(1, 3))])
        b = normalize([iv(F(2, 3), 1)])
        assert a.minkowski_sum(b).parts == (iv(F(2, 3), F(4, 3)),)

    def test_open_translation(self):
        a = normalize([Interval.open(F(1, 3), F(2, 3))])
        b = points_union([F(-1, 3)])
        assert a.minkowski_sum(b).parts == (Interval.open(0, F(1, 3)),)

    def test_half_scaled_self_sum(self):
        a = normalize([iv(0, F(1, 8)), iv(F(3, 8), F(1, 2))])
        expected = (iv(0, F(1, 4)), iv(F(3, 8), F(5, 8)), iv(F(3, 4), 1))
        assert a.minkowski_sum(a).parts == expected

    def test_empty_absorbs(self):
        assert EMPTY.minkowski_sum(normalize([iv(0, 1)])).is_empty


class TestAffine:
    def test_reflect_swaps_flags(self):
        u = normalize([Interval.point(0), Interval(F(1, 2), 1, False, True)])
        assert u.reflect().parts == (
            Interval(-1, F(-1, 2), True, False),
            Interval.point(0),
        )

    def test_translate(self):
        u = normalize([iv(0, F(1, 4)), iv(F(3, 4), 1)])
        assert u.translate(F(3, 4)).parts == (
            iv(F(3, 4), 1),
            iv(F(3, 2), F(7, 4)),
        )
        assert u.translate(0) == u

    def test_scale(self):
        u = normalize([iv(0, F(1, 4)), iv(F(3, 4), 1)])
        assert u.scale(F(1, 2)).parts == (
            iv(0, F(1, 8)),
            iv(F(3, 8), F(1, 2)),
        )
        flipped = u.scale(-1)
        assert flipped.parts == (iv(-1, F(-3, 4)), iv(F(-1, 4), 0))
        with pytest.raises(ValueError):
            u.scale(0)


class TestMeasures:
    def test_measure_and_max_component(self):
        u = normalize([iv(0, F(1, 3)), iv(F(2, 3), 1)])
        assert u.measure() == F(2, 3)
        assert u.max_component_length() == F(1, 3)
        assert EMPTY.measure() == 0
        assert EMPTY.max_component_length() == 0
        assert EMPTY.hull() is None

    def test_openness_never_affects_measure(self):
        closed = normalize([iv(0, 1)])
        open_ = normalize([Interval.open(0, 1)])
        assert closed.measure() == open_.measure()

    def test_point_parts_have_zero_measure(self):
        assert points_union([0, F(1, 2), 1]).measure() == 0


def test_operations_between_unions_make_no_fraction(monkeypatch):
    # Unions hold integer keys: set operations and affine maps work on
    # them alone, with operands on different grids (3, 20 and 35).
    a = normalize([iv(F(-2, 3), F(1, 3)), Interval.open(F(2, 3), 2), iv(3, 3)])
    b = normalize([Interval(F(-1, 4), F(1, 5), False, True), iv(F(9, 10), F(7, 4))])
    shifts, t, k = points_union([F(1, 7), F(-2, 5)]), F(3, 7), F(-5, 3)
    # Frames off the operands' grids (11 and 13), and a point frame.
    window, point = Interval(F(-5, 11), F(9, 13), False, True), Interval.point(1)
    results, made = oracle.fractions_made(
        monkeypatch,
        lambda: [
            a.union(b),
            a.intersect(b),
            a.difference(b),
            a.is_subset(b),
            a.minus_translates(b, shifts),
            a.minkowski_sum(b),
            a.minkowski_sum(b, within=window),
            b.minkowski_sum(a, within=point),
            a.reflect(),
            a.translate(t),
            a.scale(k),
        ],
    )
    assert made == []
    assert results[0] == oracle.oracle_union(a, b)
    assert results[-1] == oracle.oracle_scale(a, k)
    for frame, windowed in ((window, results[6]), (point, results[7])):
        assert windowed == results[5].intersect(IntervalUnion((frame,)))
    assert not results[6].is_empty and not results[7].is_empty


def test_the_package_writes_no_float():
    # The core is exact: no module writes a float literal or calls float().
    modules = sorted(Path(cantordiff.__file__).parent.glob("*.py"))
    assert {"intervals.py", "analysis.py", "jsonio.py"} <= {m.name for m in modules}
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
                found.append(f"{path.name}:{node.lineno}: float() call")
    assert found == []


# ---------------------------------------------------------------------
# randomized oracle agreement and algebraic laws


def random_union(rng, max_parts=6, max_den=16, span=4):
    raw = []
    for _ in range(rng.randrange(max_parts + 1)):
        d1, d2 = rng.randint(1, max_den), rng.randint(1, max_den)
        x = F(rng.randint(-span * d1, span * d1), d1)
        y = F(rng.randint(-span * d2, span * d2), d2)
        if x == y:
            raw.append(Interval.point(x))
            continue
        lo, hi = min(x, y), max(x, y)
        raw.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return normalize(raw)


def short_parts_union(rng, max_parts=60):
    """Up to ``max_parts`` short intervals and points, mostly disjoint."""
    raw = []
    for _ in range(rng.randrange(max_parts + 1)):
        d = rng.randint(1, 16)
        lo = F(rng.randint(-4 * d, 4 * d), d)
        hi = lo + F(rng.randint(0, 2), 4 * d)
        if lo == hi:
            raw.append(Interval.point(lo))
        else:
            raw.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return normalize(raw)


def test_randomized_oracle_agreement():
    rng = random.Random(1105)
    shift_rng = random.Random(7)  # leaves the draws of ``rng`` as they were
    map_rng = random.Random(13)  # and these leave those of ``shift_rng``
    frame_rng = random.Random(17)  # and of ``map_rng``
    for _ in range(120):
        a = random_union(rng)
        b = random_union(rng)
        assert a.union(b) == oracle.oracle_union(a, b)
        assert a.intersect(b) == oracle.oracle_intersect(a, b)
        assert a.difference(b) == oracle.oracle_difference(a, b)
        assert a.complement_within(BOX) == oracle.oracle_complement_within(a, BOX)
        assert a.minkowski_sum(b) == oracle.oracle_minkowski(a, b)
        for sub, sup in ((a, b), (a, a.union(b)), (a.difference(b), a)):
            assert sub.is_subset(sup) == oracle.oracle_difference(sub, sup).is_empty
        scale = oracle._common_scale(a)
        pa = oracle._scaled_parts(a, scale)
        ends = sorted({v for lo, _, hi, _ in pa for v in (lo, hi)})
        probes = ends + [(x + y) // 2 for x, y in zip(ends, ends[1:])]
        for x in probes:
            assert a.contains_point(F(x, scale)) == oracle._member(pa, x)
        for x in ends:  # a quarter grid step either side, off the grid
            for y in (F(4 * x - 1, 4), F(4 * x + 1, 4)):
                assert a.contains_point(y / scale) == oracle._member(pa, y)
        check_minus_translates(a, b, shift_rng)
        check_affine(a, map_rng)
        check_windowed_sum(a, b, frame_rng)
    # Sums of many parts: row counts that are not powers of two leave
    # several partial unions to combine at the end.  Their many point
    # parts also give ``minus_translates`` point translates to cut.
    for _ in range(12):
        a = short_parts_union(rng)
        b = short_parts_union(rng)
        assert a.minkowski_sum(b) == oracle.oracle_minkowski(a, b)
        check_minus_translates(a, b, shift_rng)
        check_affine(a, map_rng)
        check_windowed_sum(a, b, frame_rng)


def check_affine(a, rng):
    """The key maps, measures and endpoints against their per-part
    ``Fraction`` forms.

    Factors of either sign with numerators up to 5, and denominators up
    to 40 for factor and shift alike, reach off the operand's grid.
    """
    k = F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 40))
    d = rng.randint(1, 40)
    t = F(rng.randint(-3 * d, 3 * d), d)
    assert a.reflect() == oracle.oracle_reflect(a)
    assert a.translate(t) == oracle.oracle_translate(a, t)
    assert a.scale(k) == oracle.oracle_scale(a, k)
    assert a.measure() == oracle.oracle_measure(a)
    assert a.max_component_length() == oracle.oracle_max_component_length(a)
    assert a.endpoints() == tuple(
        x for p in a.parts for x in ((p.lo,) if p.is_point else (p.lo, p.hi))
    )


def check_windowed_sum(a, b, rng):
    """``minkowski_sum(within=f)`` against the full sum met with ``f``.

    The frames: random ones of every openness, one with ends on
    denominators 17 to 37 (off the operands' grids, up to 16), a point
    frame, frames past either end of the sum (an empty result), and
    for a random part of the sum, frames that cut through it at its
    midpoint or meet it only at one end, closed or open.
    """
    full = a.minkowski_sum(b)

    def value(dens):
        d = rng.choice(dens)
        return F(rng.randint(-9 * d, 9 * d), d)

    frames = []
    for dens in ((1, 2, 3, 4, 6, 8, 12, 16), (17, 19, 23, 29, 31, 37)):
        x, y = sorted((value(dens), value(dens)))
        if x == y:
            frames.append(Interval.point(x))
        else:
            frames.append(Interval(x, y, rng.random() < 0.5, rng.random() < 0.5))
    frames.append(Interval.point(value((1, 2, 4, 8, 16))))
    if not full.is_empty:
        hull = full.hull()
        frames += [Interval.closed(hull.hi + 1, hull.hi + 2)]
        frames += [Interval(hull.lo - 1, hull.lo, True, False)]
        part = rng.choice(full.parts)
        for closed in (True, False):
            frames += [
                Interval(part.midpoint, part.hi + 1, closed, closed),
                Interval(part.lo - 1, part.midpoint, closed, closed),
                Interval(part.hi, part.hi + 1, closed, True),
                Interval(part.lo - 1, part.lo, True, closed),
            ]
        frames.append(Interval.point(part.lo))
        frames.append(Interval.point(part.hi))
    for frame in frames:
        expected = full.intersect(IntervalUnion((frame,)))
        assert a.minkowski_sum(b, within=frame) == expected
        assert b.minkowski_sum(a, within=frame) == expected


def test_windowed_rows_are_the_sums_that_reach_the_frame():
    # The row slices of a windowed sum hold exactly the pair sums that
    # meet the frame: none is dropped and none is summed in vain.  The
    # frame ends sit on ends of the sum, where a slice bound one key off
    # keeps or drops a pair.
    rng = random.Random(23)
    for _ in range(40):
        a, b = random_union(rng), short_parts_union(rng)
        ends = [x for p in a.minkowski_sum(b).parts for x in (p.lo, p.hi)] or [F(0)]
        x, y = sorted(rng.choice(ends) for _ in "xy")
        closed = (x == y or rng.random() < 0.5, x == y or rng.random() < 0.5)
        frame = IntervalUnion((Interval(x, y, *closed),))
        grid = lcm(a.grid, b.grid, frame.grid)
        ka, kb, ((fs, fe),) = a._on(grid), b._on(grid), frame._on(grid)
        windowed = [list(row) for row in _row_sums(ka, kb, (fs, fe))]
        reaching = [
            [(s, e) for s, e in row if e >= fs and s <= fe] for row in _row_sums(ka, kb)
        ]
        assert windowed == [row for row in reaching if row]


def check_minus_translates(a, b, rng):
    """``minus_translates`` against the Minkowski form, the oracle and the
    one-phase filter it replaced.

    Up to five shifts, some lists empty, one shift sometimes twice;
    denominators up to 40 reach off the operands' grid (up to 16).  One
    round in four draws up to 60 shifts, so that phase 1 cuts several
    parts of ``b`` before it hands over.  Paired up as interval parts,
    the shifts translate by the parts' ends.
    """
    many = rng.random() < 0.25
    shifts = [
        F(rng.randint(-3 * d, 3 * d), d)
        for d in (rng.randint(1, 40) for _ in range(rng.randrange(61 if many else 6)))
    ]
    shifts += shifts[: rng.randrange(2)]
    points = points_union(shifts)
    cut = a.minus_translates(b, points)
    assert cut == a.difference(b.minkowski_sum(points))
    assert cut == oracle.oracle_minus_translates(a, b, points)
    assert cut == oracle.oracle_difference(a, oracle.oracle_minkowski(b, points))
    spans = normalize(
        Interval.closed(*sorted(pair)) for pair in zip(shifts[::2], shifts[1::2])
    )
    ends = points_union(p for part in spans.parts for p in (part.lo, part.hi))
    cut = a.minus_translates(b, spans)
    assert cut == a.difference(b.minkowski_sum(ends))
    assert cut == oracle.oracle_minus_translates(a, b, spans)


def test_minus_translates_cases():
    a = normalize([iv(-1, 1)])
    assert a.minus_translates(normalize([iv(0, 1)]), EMPTY) is a
    assert EMPTY.minus_translates(a, points_union([1])) is EMPTY
    assert a.minus_translates(EMPTY, points_union([1])) is a
    # The point part removes one point, the open part leaves its ends,
    # and the shift 1/7 puts a cut at 9/14, off the operands' grid.
    other = normalize([Interval.point(0), Interval.open(F(1, 2), 1)])
    expected = normalize(
        [
            Interval(-1, F(-1, 2), True, False),
            Interval(F(-1, 2), 0, False, True),
            Interval.closed(F(1, 2), F(9, 14)),
        ]
    )
    points = points_union([F(1, 7), F(-1, 2), F(1, 7)])
    assert a.minus_translates(other, points) == expected
    # An interval part shifts by both of its ends, whatever their
    # openness, and by nothing in between.
    span = normalize([Interval(F(-1, 2), F(1, 7), False, True)])
    assert a.minus_translates(other, span) == expected
    # Closed pieces that touch closed translates at a single end point,
    # at the ends of the hull that each phase cuts within.  Three pieces
    # and one shift: phase 2 alone, whose hull for the shift 0 is
    # [-1, 5].
    pieces = normalize([iv(-2, -1), iv(1, 2), iv(5, 7)])
    other = normalize([iv(-1, F(-1, 2)), iv(4, 5)])
    expected = normalize(
        [Interval(-2, -1, True, False), iv(1, 2), Interval(5, 7, False, True)]
    )
    assert pieces.minus_translates(other, points_union([0])) == expected
    # Three pieces and nine shifts 0, 10, ..., 80: phase 1 alone, whose
    # hull for the part [-1, 0] is [-1, 80]; the piece [30, 31] starts
    # where the translate by 30 ends.
    pieces = normalize([iv(-2, -1), iv(30, 31), iv(80, 81)])
    expected = normalize(
        Interval(lo, lo + 1, lo < 0, lo > 0) for lo in (-2, 30, 80)
    )
    shifts = points_union(range(0, 90, 10))
    assert pieces.minus_translates(normalize([iv(-1, 0)]), shifts) == expected


def test_openness_soundness_spot_check():
    # every closed result endpoint of a sum is attained by attained ends
    rng = random.Random(2211)
    for _ in range(60):
        a = random_union(rng, max_parts=4)
        b = random_union(rng, max_parts=4)
        if a.is_empty or b.is_empty:
            continue
        pa, pb = a.parts, b.parts
        ends_a = [(p.lo, p.lo_closed) for p in pa] + [(p.hi, p.hi_closed) for p in pa]
        ends_b = [(p.lo, p.lo_closed) for p in pb] + [(p.hi, p.hi_closed) for p in pb]
        for part in a.minkowski_sum(b).parts:
            for value, closed in ((part.lo, part.lo_closed), (part.hi, part.hi_closed)):
                if not closed:
                    continue
                assert any(
                    ca and cb and xa + xb == value
                    for xa, ca in ends_a
                    for xb, cb in ends_b
                )


fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def unions(draw, max_parts=4):
    raw = []
    for _ in range(draw(st.integers(0, max_parts))):
        x = draw(fractions_st)
        y = draw(fractions_st)
        if x == y:
            raw.append(Interval.point(x))
        else:
            raw.append(
                Interval(min(x, y), max(x, y), draw(st.booleans()), draw(st.booleans()))
            )
    return normalize(raw)


@settings(max_examples=80, derandomize=True)
@given(unions(), unions())
def test_union_intersect_commutative(a, b):
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)
    # Results sit on their canonical grid, whatever the operands' grids.
    for r in (a.union(b), a.intersect(b), a.difference(b), a.minkowski_sum(b)):
        assert IntervalUnion(r.parts) == r and hash(IntervalUnion(r.parts)) == hash(r)


@settings(max_examples=60, derandomize=True)
@given(unions(), unions(), unions())
def test_union_intersect_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@settings(max_examples=60, derandomize=True)
@given(unions(), unions())
def test_difference_via_complement_on_shared_frame(a, b):
    frame = Interval.closed(-4, 4)
    assert a.difference(b) == a.intersect(b.complement_within(frame))


@settings(max_examples=60, derandomize=True)
@given(unions(), unions())
def test_minkowski_commutative(a, b):
    assert a.minkowski_sum(b) == b.minkowski_sum(a)


@settings(max_examples=40, derandomize=True)
@given(unions(max_parts=3), unions(max_parts=3), unions(max_parts=3))
def test_minkowski_distributes_over_union(a, b, c):
    assert a.union(b).minkowski_sum(c) == a.minkowski_sum(c).union(
        b.minkowski_sum(c)
    )


@settings(max_examples=60, derandomize=True)
@given(unions(), fractions_st)
def test_translate_is_point_sum(a, t):
    assert a.translate(t) == a.minkowski_sum(points_union([t]))
    assert a.translate(t).measure() == a.measure()


@settings(max_examples=60, derandomize=True)
@given(unions(), unions())
def test_measure_inclusion_exclusion(a, b):
    assert a.union(b).measure() + a.intersect(b).measure() == a.measure() + b.measure()


@settings(max_examples=60, derandomize=True)
@given(unions())
def test_reflect_involution(a):
    assert a.reflect().reflect() == a


# ---------------------------------------------------------------------
# the cut loop, on the key ranges of unions with integer ends (grid 1)


def key_union(ranges):
    return normalize(_interval(s, e, 1) for s, e in ranges)


def key_ranges(*parts):
    return list(normalize(parts).ranges)


def check_cut(pieces, starts, ends, a, b):
    """``_cut`` against the oracle difference by the union of its ranges,
    and its pieces left normalized as they stand."""
    ranges = [(s + a, e + b) for s, e in zip(starts, ends)]
    expected = oracle.oracle_difference(key_union(pieces), key_union(ranges))
    pieces = list(pieces)
    _cut(pieces, starts, ends, a, b)
    assert key_union(pieces) == expected
    assert key_union(pieces).ranges == tuple(pieces)


def check_cut_translates(pieces, shifts, part):
    """Phase 1's shape: the interval ``part`` moved by each shift; the
    translates overlap where it is longer than the step between shifts."""
    keys = sorted({3 * t for t in shifts})
    check_cut(pieces, keys, keys, *key_ranges(part)[0])


def check_cut_shifted(pieces, family, d):
    """The shape of phase 2 and of ``difference``: disjoint ranges, all
    moved by ``d``."""
    check_cut(pieces, [s for s, _ in family], [e for _, e in family], 3 * d, 3 * d)


@pytest.mark.parametrize(
    "pieces, shifts, part",
    [
        ((iv(0, 3),), (), iv(0, 0)),  # no translates
        # translates [0, 2], [1, 3], [2, 4]: a piece across their hull,
        # one that touches the hull closed at its start and one open at
        # its end, and one that starts with the first translate
        ((iv(-2, 5),), (0, 1, 2), iv(0, 2)),
        ((iv(-2, 0), Interval(4, 5, False, True)), (0, 1, 2), iv(0, 2)),
        ((iv(0, 1),), (0, 1, 2), Interval(0, 2, True, False)),
        # translates [0, 1], [2, 3], [4, 5]: a piece touching two of them
        # closed, and one that touches the hull closed at its end
        ((iv(1, 2), iv(5, 6)), (0, 2, 4), iv(0, 1)),
    ],
)
def test_cut_translates_cases(pieces, shifts, part):
    check_cut_translates(key_ranges(*pieces), shifts, part)


@pytest.mark.parametrize(
    "pieces, family, d",
    [
        ((iv(0, 3),), (), 0),  # an empty family
        # closed touches at the hull's start and end, open touches there,
        # and a range that starts or ends where a piece does
        ((iv(0, 3), iv(5, 7)), (iv(3, 5),), 0),
        ((Interval(0, 3, True, False), Interval(5, 7, False, True)), (iv(3, 5),), 0),
        ((iv(0, 3), iv(7, 9)), (iv(1, 2), iv(4, 5)), 2),
        ((iv(0, 3), iv(5, 7)), (Interval(0, 1, True, False), iv(2, 3)), 0),
        ((iv(-4, 0), iv(2, 6)), (iv(-1, 1), Interval.open(2, 3)), -1),
    ],
)
def test_cut_disjoint_cases(pieces, family, d):
    check_cut_shifted(key_ranges(*pieces), key_ranges(*family), d)


def int_interval(x, y, lo_closed, hi_closed):
    if x == y:
        return Interval.point(x)
    return Interval(min(x, y), max(x, y), lo_closed, hi_closed)


small_ints = st.integers(-4, 4)
int_intervals = st.builds(int_interval, small_ints, small_ints, st.booleans(), st.booleans())
int_key_ranges = st.lists(int_intervals, max_size=5).map(lambda p: key_ranges(*p))


@settings(max_examples=300, derandomize=True)
@given(int_key_ranges, st.lists(small_ints, max_size=6), int_intervals)
def test_cut_overlapping_translates(pieces, shifts, part):
    check_cut_translates(pieces, shifts, part)


@settings(max_examples=300, derandomize=True)
@given(int_key_ranges, int_key_ranges, small_ints)
def test_cut_disjoint_ranges(pieces, family, d):
    check_cut_shifted(pieces, family, d)
