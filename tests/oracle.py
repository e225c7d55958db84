"""Independent brute-force oracles for the exact set algebra.

The elementary-subdivision oracle never sorts-and-merges flagged
endpoint tuples the way the library does.  It collects every boundary
value an operation could produce, splits the line into boundary points
and open cells between them, decides membership of each piece from
first principles (pointwise predicates, or single-atom coverage for
sums), and reassembles the expected union from the flagged pieces.
"""

from fractions import Fraction
from math import lcm

from cantordiff.analysis import ShiftInclusionResult
from cantordiff.intervals import (
    UNIT,
    Interval,
    IntervalUnion,
    format_rational,
    normalize,
    points_union,
)
from cantordiff.jsonio import decimal_str


def _common_scale(*unions):
    dens = {1}
    for u in unions:
        for p in u.parts:
            dens.add(p.lo.denominator)
            dens.add(p.hi.denominator)
    # doubled so cell midpoints stay integral
    return 2 * lcm(*dens)


def _scaled_parts(union, scale):
    return [
        (
            p.lo.numerator * (scale // p.lo.denominator),
            p.lo_closed,
            p.hi.numerator * (scale // p.hi.denominator),
            p.hi_closed,
        )
        for p in union.parts
    ]


def _member(parts, x):
    for lo, lc, hi, hc in parts:
        if lo < x < hi:
            return True
        if x == lo and lc:
            return True
        if x == hi and hc:
            return True
    return False


def _reassemble(boundaries, point_flag, cell_flag, scale):
    """Build the expected union from per-piece membership.

    Pieces tile the hull: point b0, cell (b0,b1), point b1, ...  A piece
    is kept when its flag is set; contiguous kept pieces fuse into one
    interval whose end-openness falls out of which pieces survive.
    """
    runs = []
    current = None  # [start_value, start_closed, end_value, end_closed]
    def flush():
        nonlocal current
        if current is not None:
            runs.append(tuple(current))
            current = None

    for i, b in enumerate(boundaries):
        if point_flag[i]:
            if current is None:
                current = [b, True, b, True]
            else:
                current[2], current[3] = b, True
        else:
            flush()
        if i + 1 < len(boundaries):
            if cell_flag[i]:
                if current is None:
                    current = [b, False, boundaries[i + 1], False]
                else:
                    current[2], current[3] = boundaries[i + 1], False
            else:
                flush()
    flush()
    return IntervalUnion(
        tuple(
            Interval(Fraction(lo, scale), Fraction(hi, scale), lc, hc)
            for lo, lc, hi, hc in runs
        )
    )


def _pointwise(a, b, predicate):
    scale = _common_scale(a, b)
    pa = _scaled_parts(a, scale)
    pb = _scaled_parts(b, scale)
    boundaries = sorted(
        {v for lo, _, hi, _ in pa for v in (lo, hi)}
        | {v for lo, _, hi, _ in pb for v in (lo, hi)}
    )
    point_flag = [predicate(_member(pa, x), _member(pb, x)) for x in boundaries]
    cell_flag = [
        predicate(_member(pa, m), _member(pb, m))
        for m in (
            (boundaries[i] + boundaries[i + 1]) // 2
            for i in range(len(boundaries) - 1)
        )
    ]
    return _reassemble(boundaries, point_flag, cell_flag, scale)


def oracle_union(a, b):
    return _pointwise(a, b, lambda x, y: x or y)


def oracle_intersect(a, b):
    return _pointwise(a, b, lambda x, y: x and y)


def oracle_difference(a, b):
    return _pointwise(a, b, lambda x, y: x and not y)


def oracle_complement_within(a, frame):
    return _pointwise(IntervalUnion((frame,)), a, lambda x, y: x and not y)


def oracle_minkowski(a, b):
    """Pair sums as atoms, then single-atom coverage per elementary piece.

    Boundaries contain every atom endpoint, so an atom overlapping a
    cell's interior spans the whole cell; coverage by one atom is then a
    complete test, done with a running max-end sweep.
    """
    if a.is_empty or b.is_empty:
        return IntervalUnion(())
    scale = _common_scale(a, b)
    pa = _scaled_parts(a, scale)
    pb = _scaled_parts(b, scale)
    atoms = []
    for alo, alc, ahi, ahc in pa:
        for blo, blc, bhi, bhc in pb:
            atoms.append((alo + blo, alc and blc, ahi + bhi, ahc and bhc))
    boundaries = sorted({v for lo, _, hi, _ in atoms for v in (lo, hi)})
    # keys: (value, eps) with eps -1 just below, 0 at, +1 just above
    spans = sorted(
        ((lo, 0 if lc else 1), (hi, 0 if hc else -1)) for lo, lc, hi, hc in atoms
    )
    pieces = []
    for i, b_ in enumerate(boundaries):
        pieces.append(((b_, 0), (b_, 0)))
        if i + 1 < len(boundaries):
            pieces.append(((b_, 1), (boundaries[i + 1], -1)))
    covered = []
    max_end = None
    j = 0
    for start, end in pieces:
        while j < len(spans) and spans[j][0] <= start:
            if max_end is None or spans[j][1] > max_end:
                max_end = spans[j][1]
            j += 1
        covered.append(max_end is not None and max_end >= end)
    point_flag = covered[0::2]
    cell_flag = covered[1::2]
    return _reassemble(boundaries, point_flag, cell_flag, scale)


# ---------------------------------------------------------------------
# per-part Fraction forms of the affine maps and the measures


def oracle_reflect(a):
    return IntervalUnion(
        tuple(
            Interval(-p.hi, -p.lo, p.hi_closed, p.lo_closed)
            for p in reversed(a.parts)
        )
    )


def oracle_translate(a, t):
    return IntervalUnion(
        tuple(Interval(p.lo + t, p.hi + t, p.lo_closed, p.hi_closed) for p in a.parts)
    )


def oracle_scale(a, k):
    if k > 0:
        return IntervalUnion(
            tuple(
                Interval(p.lo * k, p.hi * k, p.lo_closed, p.hi_closed)
                for p in a.parts
            )
        )
    return IntervalUnion(
        tuple(
            Interval(p.hi * k, p.lo * k, p.hi_closed, p.lo_closed)
            for p in reversed(a.parts)
        )
    )


def oracle_measure(a):
    total = Fraction(0)
    for p in a.parts:
        total += p.hi - p.lo
    return total


def oracle_max_component_length(a):
    return max((p.hi - p.lo for p in a.parts), default=Fraction(0))


# ---------------------------------------------------------------------
# the two brackets as Minkowski sums: references for the endpoint filter
# and the closed form in cantordiff.analysis


def minkowski_inner_difference(stage):
    """Gaps plus negated endpoints: every gap x endpoint pair summed."""
    if not stage.gaps:
        return IntervalUnion(())
    return stage.gap_union().minkowski_sum(points_union(-e for e in stage.endpoints))


def minkowski_outer_difference(stage):
    """([0,1] minus the endpoints) plus the reflected components."""
    punctured = IntervalUnion((UNIT,)).difference(stage.endpoint_union())
    return punctured.minkowski_sum(stage.components.reflect())


def closed_form_outer_difference(stage):
    """The union of (-h, 1 - l) over the components [l, h], one open
    interval decoded and normalized per component."""
    return normalize(Interval.open(-c.hi, 1 - c.lo) for c in stage.components)


# ---------------------------------------------------------------------
# full Minkowski products met with their frame afterwards: references
# for the windowed sums of cantordiff.analysis and cantordiff.constructions


def minkowski_shift_inclusion(c_stages, y_stages):
    """``shift_inclusion_check`` with each ``C_n + Y_n`` summed in full
    and only then met with [0, 1]."""
    unit = IntervalUnion((UNIT,))
    for index, (stage, y) in enumerate(zip(c_stages, y_stages)):
        reached = stage.components.minkowski_sum(y).intersect(unit)
        escaped = reached.difference(stage.components)
        if not escaped.is_empty:
            part = escaped.parts[0]
            if part.lo_closed:
                witness = part.lo
            elif part.hi_closed:
                witness = part.hi
            else:
                witness = part.midpoint
            return ShiftInclusionResult(
                False, index, y_stages[-1], violation_stage=stage.n, witness=witness
            )
    return ShiftInclusionResult(True, len(c_stages), y_stages[-1])


def minkowski_composite_components(a, b):
    """``A | ((A + B + 1/2) & [1/2, 1])`` with the sum built in full."""
    upper = IntervalUnion((Interval.closed(Fraction(1, 2), 1),))
    return a.union(a.minkowski_sum(b.translate(Fraction(1, 2))).intersect(upper))


# ---------------------------------------------------------------------
# quadratic-loop oracle for the inner difference of a stage


def oracle_inner_difference(stage):
    """All gap-minus-endpoint translations, merged naively.

    Translates are open intervals; overlapping ones merge, exact touches
    stay punctured.  Kept deliberately plain: plain Fractions, one sort,
    one linear pass.
    """
    translated = []
    for g in stage.gaps:
        for e in stage.endpoints:
            translated.append((g.interval.lo - e, g.interval.hi - e))
    translated.sort()
    merged = []
    for lo, hi in translated:
        if merged and lo < merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return IntervalUnion(tuple(Interval.open(lo, hi) for lo, hi in merged))


def oracle_covered_measure(stage):
    """Measure of the union of all translates via a max-end sweep,
    without building the merged structure."""
    translated = sorted(
        (g.interval.lo - e, g.interval.hi - e)
        for g in stage.gaps
        for e in stage.endpoints
    )
    total = Fraction(0)
    cur_lo = cur_hi = None
    for lo, hi in translated:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ---------------------------------------------------------------------
# output: the per-cell gap table that cantordiff.jsonio.gap_table_rows
# replaces (the JSON oracle is dump_json(stage_to_obj(stage)))


def oracle_gap_table_rows(stage):
    """One row per gap, each decimal cell in its own 20-digit context."""
    rows = []
    for g in stage.gaps:
        rows.append(
            [
                g.address if g.address is not None else "-",
                format_rational(g.interval.lo),
                format_rational(g.interval.hi),
                str(g.stage_created),
                decimal_str(g.interval.lo),
                decimal_str(g.interval.hi),
            ]
        )
    return rows
