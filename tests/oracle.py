"""Independent brute-force oracles for the exact set algebra.

The elementary-subdivision oracle never sorts-and-merges flagged
endpoint tuples the way the library does.  It collects every boundary
value an operation could produce, splits the line into boundary points
and open cells between them, decides membership of each piece from
first principles (pointwise predicates, or single-atom coverage for
sums), and reassembles the expected union from the flagged pieces.

``fractions_made`` counts the ``Fraction`` values a call makes, for
the tests that keep set operations on the integer keys.

``oracle_minus_translates`` is the one-phase, shift-by-shift filter
that the two phases of ``IntervalUnion.minus_translates`` replaced.

``oracle_stages`` builds a spec's stages with the per-part ``Fraction``
builders that the key builders of ``cantordiff.constructions`` replaced.
"""

import csv
import io
import itertools
from bisect import bisect_left
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm

from cantordiff import constructions
from cantordiff.analysis import ShiftInclusionResult
from cantordiff.constructions import (
    CantorStage,
    CentralSpec,
    CompositeSpec,
    GapRecord,
    PerturbedSpec,
    dyadic_candidates,
    quartic_margin,
)
from cantordiff.errors import AvoidanceExhaustedError, InvalidSpecError
from cantordiff.intervals import (
    UNIT,
    Interval,
    IntervalUnion,
    _encode,
    _from_ranges,
    normalize,
    points_union,
)
from cantordiff.jsonio import format_rational


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
# the stored forms of a stage's endpoints and gap union, which
# cantordiff.constructions.CantorStage reads off its component keys


def oracle_endpoints(stage):
    """The ends of each decoded component in order, a point's once."""
    parts = stage.components.parts
    return tuple(x for p in parts for x in ((p.lo,) if p.is_point else (p.lo, p.hi)))


def oracle_gap_union(stage):
    """The union of the gap records' intervals."""
    return normalize(g.interval for g in stage.gaps)


# ---------------------------------------------------------------------
# the two brackets as Minkowski sums: references for the endpoint filter
# and the closed form in cantordiff.analysis


def minkowski_inner_difference(stage):
    """Gaps plus negated endpoints: every gap x endpoint pair summed."""
    if not stage.gaps:
        return IntervalUnion(())
    negated = points_union(-e for e in oracle_endpoints(stage))
    return oracle_gap_union(stage).minkowski_sum(negated)


def minkowski_outer_difference(stage):
    """([0,1] minus the endpoints) plus the reflected components."""
    punctured = IntervalUnion((UNIT,)).difference(points_union(oracle_endpoints(stage)))
    return punctured.minkowski_sum(stage.components.reflect())


def closed_form_outer_difference(stage):
    """The union of (-h, 1 - l) over the components [l, h], one open
    interval decoded and normalized per component."""
    return normalize(Interval.open(-c.hi, 1 - c.lo) for c in stage.components.parts)


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
                False, index, violation_stage=stage.n, witness=witness
            )
    return ShiftInclusionResult(True, len(c_stages))


def minkowski_composite_components(a, b):
    """``A | ((A + B + 1/2) & [1/2, 1])`` with the sum built in full."""
    upper = IntervalUnion((Interval.closed(Fraction(1, 2), 1),))
    return a.union(a.minkowski_sum(b.translate(Fraction(1, 2))).intersect(upper))


# ---------------------------------------------------------------------
# the one-phase filter that the two phases of minus_translates replaced


def oracle_minus_translates(a, other, shifts):
    """``a.minus_translates(other, shifts)`` one shift at a time: from the
    middle of the sorted shift keys outward, each shift cuts its translate
    of ``other`` out of every piece of ``a`` still left, with a bisection
    over the end keys of ``other``."""
    if a.is_empty or other.is_empty or shifts.is_empty:
        return a
    grid = lcm(a.grid, other.grid, shifts.grid)
    keys = sorted(
        {k for s, e in shifts._on(grid) for k in (s - s % 3, e + e % 3 // 2)}
    )
    starts, ends = map(list, zip(*other._on(grid)))
    count = len(starts)
    pieces = a._on(grid)
    for i in sorted(range(len(keys)), key=lambda i: abs(2 * i + 1 - len(keys))):
        d = keys[i]
        kept = []
        for s, e in pieces:
            j = bisect_left(ends, s - d)
            while j < count and starts[j] + d <= e:
                if starts[j] + d > s:
                    kept.append((s, starts[j] + d - 1))
                s = ends[j] + d + 1
                j += 1
            if s <= e:
                kept.append((s, e))
        pieces = kept
    return _from_ranges(pieces, grid)


# ---------------------------------------------------------------------
# quadratic-loop oracle for the inner difference of a stage


def oracle_inner_difference(stage):
    """All gap-minus-endpoint translations, merged naively.

    Translates are open intervals; overlapping ones merge, exact touches
    stay punctured.  Kept deliberately plain: plain Fractions, one sort,
    one linear pass.
    """
    endpoints = oracle_endpoints(stage)
    translated = []
    for g in stage.gaps:
        for e in endpoints:
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
    endpoints = oracle_endpoints(stage)
    translated = sorted(
        (g.interval.lo - e, g.interval.hi - e) for g in stage.gaps for e in endpoints
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
# output: the per-cell decimals and gap table that cantordiff.jsonio's
# decimal_str and write_stage_files replace (the JSON oracle is
# dump_json(stage_to_obj(stage)))


def oracle_decimal_str(q):
    """``q`` to 20 significant digits in a local decimal context."""
    with localcontext() as ctx:
        ctx.prec = 20
        return str(Decimal(q.numerator) / Decimal(q.denominator))


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
                oracle_decimal_str(g.interval.lo),
                oracle_decimal_str(g.interval.hi),
            ]
        )
    return rows


def oracle_gap_table(stage):
    """The text of ``gaps_NNN.csv``: the header and the rows through
    ``csv.writer``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["address", "lo", "hi", "stage_created", "lo_decimal", "hi_decimal"]
    )
    writer.writerows(oracle_gap_table_rows(stage))
    return buffer.getvalue()


def fractions_made(monkeypatch, call):
    """``call()`` and the constructor arguments of every ``Fraction`` it
    made: through ``__new__``, and on Python 3.12+ through the
    ``_from_coprime_ints`` of arithmetic results."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, *args):
            made.append(args)
            return coprime(cls, *args)

        counted_coprime = classmethod(counted_coprime)
        monkeypatch.setattr(Fraction, "_from_coprime_ints", counted_coprime)
    try:
        result = call()
    finally:
        monkeypatch.undo()
    return result, made


# ---------------------------------------------------------------------
# the Fraction stage builders that cantordiff.constructions replaced
# with cuts on the integer keys: every part is an Interval, every cut a
# pair of Fractions, and each composite gap is dated through a dict
# keyed by its ends.  Each generator yields the spec's stages from 0.

_QUARTER = Fraction(1, 4)


def gap_record(address, interval, stage):
    """The ``GapRecord`` of the open ``interval``, made from its key range."""
    ((s, e),), grid = _encode((interval,))
    return GapRecord(address, s, e, grid, stage)


def _split(n, parts, cuts, gaps):
    """Stage-n parts: the open gap ``cuts[i]`` is removed from part i."""
    comps = []
    for idx, (part, (gl, gr)) in enumerate(zip(parts, cuts)):
        address = format(idx, f"0{n - 1}b") if n > 1 else ""
        gaps.append(gap_record(address, Interval.open(gl, gr), n))
        comps.append(Interval(part.lo, gl, True, True))
        comps.append(Interval(gr, part.hi, True, True))
    return tuple(comps)


def oracle_central_stages(spec):
    parts = (UNIT,)
    gaps = []
    yield CantorStage(0, IntervalUnion(parts), (), "central")
    for n in itertools.count(1):
        ratio = spec.ratio(n)
        cuts = []
        for part in parts:
            length = part.hi - part.lo
            child = (length - ratio * length) / 2
            cuts.append((part.lo + child, part.hi - child))
        parts = _split(n, parts, cuts, gaps)
        yield CantorStage(n, IntervalUnion(parts), tuple(gaps), "central")


def oracle_perturbed_stages(spec):
    parts = (UNIT,)
    gaps = []
    c = spec.c1
    yield CantorStage(0, IntervalUnion(parts), (), "perturbed")
    for n in itertools.count(1):
        if n > 1:
            leftmost_len = parts[0].hi - parts[0].lo
            prev, c = c, spec.shrink * min(c, leftmost_len)
            if not c < prev:
                raise InvalidSpecError(
                    f"gap length fails to shrink at step {n}: {c} >= {prev}"
                )
            if not c < leftmost_len / 2:
                raise InvalidSpecError(
                    f"gap length {c} at step {n} is not below half the leftmost "
                    f"component ({leftmost_len / 2}); pick a smaller c1 or shrink"
                )
        last = len(parts) - 1
        cuts = []
        for idx, part in enumerate(parts):
            mid = (part.lo + part.hi) / 2
            if n == 1:
                cuts.append((mid - c / 2, mid + c / 2))
            elif idx == 0:
                cuts.append((mid, mid + c))
            elif idx == last:
                cuts.append((mid - c, mid))
            else:
                g = min(spec.interior_gap_fraction * c, (part.hi - part.lo) / 2)
                cuts.append((mid - g / 2, mid + g / 2))
        parts = _split(n, parts, cuts, gaps)
        yield CantorStage(n, IntervalUnion(parts), tuple(gaps), "perturbed")


def oracle_composite_stages(a_components, b_components, family):
    """Composite stages from the stage-m unions of A and B on [0, 1/2];
    a gap keeps the first stage its (lo, hi) was seen at."""
    half_to_one = Interval.closed(Fraction(1, 2), 1)
    gap_created = {}
    prev_max = None
    for m in itertools.count():
        a = a_components(m)
        b = b_components(m).translate(Fraction(1, 2))
        components = a.union(a.minkowski_sum(b, within=half_to_one))
        cur_max = components.max_component_length()
        notes = ()
        if prev_max is not None and cur_max >= prev_max:
            notes = (
                f"max component length did not decrease at stage {m} "
                f"({cur_max} >= {prev_max}); the source pair may not "
                f"produce a Cantor set",
            )
        prev_max = cur_max
        gaps = []
        for part in components.complement_within(UNIT).parts:
            created = gap_created.setdefault((part.lo, part.hi), m)
            gaps.append(gap_record(None, part, created))
        ordered = tuple(sorted(gaps, key=lambda g: g.stage_created))
        yield CantorStage(m, components, ordered, family, notes=notes)


def _closed_within(part, from_left):
    if from_left:
        if part.lo_closed:
            return part.lo
        return part.lo + (part.hi - part.lo) * _QUARTER
    if part.hi_closed:
        return part.hi
    return part.hi - (part.hi - part.lo) * _QUARTER


class _ComponentEmptied(Exception):
    def __init__(self, index):
        self.index = index


def _avoiding_cuts(parts, allowed):
    cuts = []
    pieces = allowed.parts
    i = 0
    for index, part in enumerate(parts):
        j = i
        while j < len(pieces) and pieces[j].hi <= part.hi:
            j += 1
        if j == i:
            raise _ComponentEmptied(index)
        first, last = pieces[i], pieces[j - 1]
        i = j
        if not (first.lo == part.lo and first.lo_closed):
            raise _ComponentEmptied(index)
        if not (last.hi == part.hi and last.hi_closed):
            raise _ComponentEmptied(index)
        if first is last:
            length = part.hi - part.lo
            x = part.lo + length * _QUARTER
            y = part.hi - length * _QUARTER
        else:
            x = _closed_within(first, from_left=False)
            y = _closed_within(last, from_left=True)
        if not x < y:
            raise _ComponentEmptied(index)
        cuts.append((x, y))
    return cuts


def oracle_padded_reflection(b, delta):
    """-B with each part widened to a closed interval by ``delta``."""
    return normalize(Interval.closed(-p.hi - delta, -p.lo + delta) for p in b.parts)


def oracle_greedy_a_stages(spec):
    """The greedy A half on [0, 1/2], cut where the admitted points allow;
    yields ``(components, points, deferrals)`` from stage 0 on, each
    deferral a ``(candidate, address, stage)`` triple."""
    b_half = _half(spec.b_source)
    parts = (Interval.closed(0, Fraction(1, 2)),)
    admitted = []
    deferred = []
    events = []
    stream = dyadic_candidates()
    for m in itertools.count():
        if m:
            b = b_half(m)
            b_forbidden = b.union(b.translate(Fraction(1, 2)))
            padded = oracle_padded_reflection(b, quartic_margin(m))
            retries, deferred = deferred, []
            cuts = None
            attempts = 0
            while cuts is None and attempts < 64:
                attempts += 1
                candidate = retries.pop(0) if retries else next(stream, None)
                if candidate is None:
                    break
                if b_forbidden.contains_point(candidate):
                    continue
                shifts = points_union([*admitted, candidate])
                allowed = a.minus_translates(padded, shifts)
                try:
                    cuts = _avoiding_cuts(parts, allowed)
                except _ComponentEmptied as emptied:
                    address = format(emptied.index, f"0{m - 1}b") if m > 1 else ""
                    events.append((candidate, address, m))
                    deferred.append(candidate)
            deferred = retries + deferred
            if cuts is None:
                raise AvoidanceExhaustedError(m, attempts)
            parts = _split(m, parts, cuts, [])
            admitted.append(candidate)
        a = IntervalUnion(parts)
        yield a, tuple(admitted), tuple(events)


def oracle_greedy_points(spec, n):
    """``(points, deferrals)`` of greedy stage n, from the loop that
    filters each candidate together with every point admitted before it;
    the library filters by the candidate alone.  Each deferral is a
    ``(candidate, address, stage)`` triple, the address that of the
    first component of A_{m-1} that the candidate cuts."""
    admitted = []
    deferred = []
    events = []
    stream = dyadic_candidates()
    for m in range(1, n + 1):
        a = constructions.half_scaled_components(constructions._CENTRAL_HALF, m - 1)
        b = constructions.half_scaled_components(spec.b_source, m)
        b_forbidden = b.union(b.translate(Fraction(1, 2)))
        padded = constructions._padded_reflection(b, quartic_margin(m))
        retries, deferred = deferred, []
        whole, attempts = False, 0
        while not whole and attempts < 64:
            attempts += 1
            candidate = retries.pop(0) if retries else next(stream)
            if b_forbidden.contains_point(candidate):
                continue
            allowed = a.minus_translates(padded, points_union([*admitted, candidate]))
            whole = allowed == a
            if not whole:
                grid = lcm(a.grid, allowed.grid)
                kept = set(allowed._on(grid))
                index = next(i for i, r in enumerate(a._on(grid)) if r not in kept)
                address = format(index, f"0{m - 1}b") if m > 1 else ""
                events.append((candidate, address, m))
                deferred.append(candidate)
        deferred = retries + deferred
        if not whole:
            raise AvoidanceExhaustedError(m, attempts)
        admitted.append(candidate)
    return tuple(admitted), tuple(events)


def _unit_stages(spec):
    if isinstance(spec, CentralSpec):
        return oracle_central_stages(spec)
    return oracle_perturbed_stages(spec)


def _item(steps):
    """Item m of the generator ``steps``, kept once built."""
    built = []

    def item(m):
        while len(built) <= m:
            built.append(next(steps))
        return built[m]

    return item


def _half(source):
    unit = _item(_unit_stages(source))
    return lambda m: unit(m).components.scale(Fraction(1, 2))


def oracle_stages(spec):
    """The stages of ``spec`` from 0 on, built by the Fraction builders
    alone; a composite's notes are kept but not raised as warnings."""
    if isinstance(spec, (CentralSpec, PerturbedSpec)):
        return _unit_stages(spec)
    b = _half(spec.b_source)
    if isinstance(spec, CompositeSpec):
        a, family = _half(spec.a_source), "tab"
    else:
        a_step = _item(oracle_greedy_a_stages(spec))
        a, family = (lambda m: a_step(m)[0]), "greedy"
    return oracle_composite_stages(a, b, family)
