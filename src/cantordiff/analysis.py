"""Certified finite-stage analysis of the hybrid difference set.

For a Cantor set C in [0,1] with complement taken inside [0,1], the
object of study is D = {x - y : x outside C, y in C} and its missing
set S = [-1,1] minus D.  Stage data gives two exactly computable
brackets:

* inner:  the stage gaps, the frame minus the components, stay in the
  complement forever, since C lies inside the components by definition,
  and every component endpoint stays in C forever, so the union of all
  gap-minus-endpoint translates is certified inside D, at every depth.
  Both sets are read off the components.
  It is computed as [-1,1] minus the outer missing bracket, which the
  kernel operation ``IntervalUnion.minus_translates`` filters down from
  [-1,1] instead of summing every gap with every endpoint: first the
  longest gaps, each with all its endpoint translates at once, while
  few pieces of [-1,1] are left, then one endpoint at a time over the
  short gaps.  Its shifts are the reflected components, whose part ends
  are exactly the negated endpoints, so they stay on the integer keys.

* outer:  C is always inside the stage components and the complement is
  always inside [0,1] minus the stage endpoints E, so
  ([0,1] minus E) - components is a certified superset of D.  It is
  (-1, 1) in closed form: for a nondegenerate component [l, h],
  ([0,1] minus E) - [l, h] is the open interval (-h, 1 - l), since 0
  and 1 are in E and a finite E cannot cover the window of y values
  behind an interior point.  When the components span [0,1], these
  intervals overlap in turn and cover (-1, 1).  Its measure is 2, so
  the "outer bracket keeps measure above 3/2" checks hold by
  construction.

The gap-dominance certificates extend single translates to whole
intervals: if an interval G inside a stage gap is at least as long as
every component of the stage inside a window [a, b] (with a, b stage
endpoints), then any gap revealed later inside that window sits
strictly inside some current component and is therefore strictly
shorter than G.  That converts the "longer than every gap, seen or
unseen" hypothesis into a finite check on the components and G alone,
which is the soundness argument this module rests on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvariantError, NotCertifiableError
from .intervals import (
    BOX,
    UNIT,
    Interval,
    IntervalUnion,
    _record,
    points_union,
)
from .constructions import (
    DEFAULT_BUDGET,
    CantorStage,
    CentralSpec,
    central_stage,
    max_binary_stage,
    rightmost_branch_gap_end,
)

__all__ = [
    "DiffBracket",
    "DominantGapCertificate",
    "ShiftInclusionResult",
    "inner_difference",
    "outer_difference",
    "difference_bracket",
    "dominant_gap_certificate",
    "shift_inclusion_check",
    "predicted_missing_points",
    "rightmost_gap_chain",
    "zone_measure_rows",
]

_BOX_UNION = IntervalUnion((BOX,))
_OPEN_BOX_UNION = IntervalUnion((Interval.open(-1, 1),))


def inner_difference(stage: CantorStage) -> IntervalUnion:
    """Certified subset of the true difference set.

    Every translate gap - endpoint consists of points g - e with g never
    returning to the set and e never leaving it, so membership holds for
    the limit set, not just this stage.  The gaps are [0,1] minus the
    components and the endpoints are the component ends, so this rests
    on the components alone.  The translates all lie inside
    (-1, 1), so their union is [-1,1] minus what ``minus_translates``
    leaves of [-1,1], which never forms the gap x endpoint product.
    The long gaps go first, each cutting all its translates out of the
    few pieces its hull reaches; once more than the square root of the
    endpoint count are left, the endpoints take turns.  The long gaps'
    translates overlap and take most of [-1,1] while the pieces are
    few, and each endpoint then visits only the pieces inside the hull
    of its translates.
    """
    # The part ends of the reflected components are the negated endpoints.
    gaps, shifts = stage.gap_union(), stage.components.reflect()
    return _BOX_UNION.difference(_BOX_UNION.minus_translates(gaps, shifts))


def outer_difference(stage: CantorStage) -> IntervalUnion:
    """Certified superset of the true difference set, in closed form.

    ([0,1] minus the endpoints) - [l, h] is (-h, 1 - l) for every
    nondegenerate component [l, h]; with the components spanning [0,1]
    the union is (-1, 1), so that constant is returned once the two
    checks pass.  A point component or another hull would break that
    argument, so both are refused.
    """
    components = stage.components
    if components.point_parts():
        raise InvariantError(
            f"stage {stage.n}: the closed-form outer bracket needs "
            "nondegenerate components"
        )
    if components.hull() != UNIT:
        raise InvariantError(
            f"stage {stage.n}: the closed-form outer bracket needs components "
            f"spanning [0,1], got hull {components.hull()}"
        )
    return _OPEN_BOX_UNION


@_record
class DiffBracket:
    """Sandwich inner <= true difference set <= outer at one stage,
    with the induced bracket for the missing set S."""

    n: int
    inner: IntervalUnion
    outer: IntervalUnion
    missing_outer: IntervalUnion  # [-1,1] minus inner, contains S
    missing_inner: IntervalUnion  # [-1,1] minus outer, inside S

    def __post_init__(self) -> None:
        invariants = (
            (self.inner.is_subset(self.outer), "inner bracket inside the outer one"),
            (
                self.missing_inner.is_subset(self.missing_outer),
                "inner missing bracket inside the outer one",
            ),
            (
                all(self.missing_outer.contains_point(x) for x in (-1, 0, 1)),
                "-1, 0 and 1 in the outer missing bracket",
            ),
        )
        for holds, invariant in invariants:
            if not holds:
                raise InvariantError(f"stage {self.n}: expected the {invariant}")


def difference_bracket(stage: CantorStage) -> DiffBracket:
    inner = inner_difference(stage)
    outer = outer_difference(stage)
    return DiffBracket(
        stage.n,
        inner,
        outer,
        _BOX_UNION.difference(inner),
        _BOX_UNION.difference(outer),
    )


# ---------------------------------------------------------------------
# gap-dominance certificates


@_record
class DominantGapCertificate:
    """Evidence that translates of one gap cover an interval of the
    difference set, up to finitely many exceptions.

    The recorded hypotheses make the certificate re-checkable offline:
    ``max_component_in_window`` bounds every unseen future gap in the
    window strictly from above, and ``max_recorded_gap_in_window`` is
    the longest gap already seen there.  Mode ``strict`` means the gap
    strictly dominates everything (empty exception set); ``non-strict``
    allows recorded ties, each contributing the single translate that
    lands the gap exactly onto its twin.
    """

    gap: Interval
    window_lo: Fraction
    window_hi: Fraction
    mode: str  # "strict" | "non-strict"
    certified: Interval
    exceptions: tuple[Fraction, ...]
    gap_length: Fraction
    max_component_in_window: Fraction
    max_recorded_gap_in_window: Fraction


def dominant_gap_certificate(
    stage: CantorStage,
    gap: Interval,
    window_lo: Fraction | int,
    window_hi: Fraction | int,
) -> DominantGapCertificate:
    """Certify (gap.lo - b, gap.hi - a) inside the difference set, where
    [a, b] = [window_lo, window_hi].

    Soundness of the finite check: the gap lies in a stage gap, so in
    the complement forever; a, b are stage endpoints, so the window
    slices whole components, and its gaps seen so far are [a, b] minus
    them.  Any gap revealed after this stage lies strictly inside the
    interior of a current component of the window and is strictly
    shorter than the longest such component.
    Requiring |gap| >= that component length therefore bounds every
    unseen gap strictly below |gap|, and only recorded ties can force
    exceptions.
    """
    a, b = window_lo, window_hi
    endpoint_set = set(stage.endpoints)
    if a not in endpoint_set or b not in endpoint_set:
        raise NotCertifiableError(
            f"window ends {a}, {b} must be stage-{stage.n} endpoints"
        )
    if a > b:
        raise NotCertifiableError("window ends out of order")
    if a <= gap.lo and gap.hi <= b:
        raise NotCertifiableError("window must not contain the gap")
    if gap.is_point or not IntervalUnion((gap,)).is_subset(stage.gap_union()):
        raise NotCertifiableError(
            f"{gap} is not an interval of positive length in a stage-{stage.n} gap"
        )
    gap_length = gap.length
    window = IntervalUnion((Interval.closed(a, b),))
    max_component = stage.components.intersect(window).max_component_length()
    recorded = window.difference(stage.components)
    max_recorded = recorded.max_component_length()
    certified = Interval.open(gap.lo - b, gap.hi - a)
    if gap_length < max_component:
        raise NotCertifiableError(
            f"gap length {gap_length} is below the window's component bound "
            f"{max_component}; retry at a deeper stage"
        )
    if max_recorded > gap_length:
        raise NotCertifiableError(
            f"a recorded gap of length {max_recorded} exceeds the gap's {gap_length}"
        )
    exceptions = tuple(
        sorted(gap.lo - g.lo for g in recorded.parts if g.length == gap_length)
    )
    mode = "non-strict" if exceptions else "strict"
    return DominantGapCertificate(
        gap, a, b, mode, certified, exceptions, gap_length, max_component, max_recorded
    )


# ---------------------------------------------------------------------
# shift-inclusion certificates


@_record
class ShiftInclusionResult:
    """Outcome of the staged check (C_n + Y_n) in [0,1] always lands in C_n.

    When it passes for nested decreasing supersets Y_n of a target Y,
    every y in Y keeps C inside itself under translation at every depth,
    so Y avoids the true difference set entirely.  On failure the first
    violating stage and a witness point are recorded.
    """

    passed: bool
    n_checked: int
    violation_stage: int | None = None
    witness: Fraction | None = None


def _witness_point(diff: IntervalUnion) -> Fraction:
    part = diff.parts[0]
    if part.lo_closed:
        return part.lo
    if part.hi_closed:
        return part.hi
    return part.midpoint


def shift_inclusion_check(
    c_stages: Sequence[CantorStage],
    y_stages: Sequence[IntervalUnion],
) -> ShiftInclusionResult:
    """Check each stage against its Y; every ``C_n + Y_n`` is summed
    within [0, 1], so only the pairs whose sums land there are formed."""
    if len(c_stages) != len(y_stages) or not c_stages:
        raise ValueError("need matching nonempty stage and Y sequences")
    for earlier, later in zip(y_stages, y_stages[1:]):
        if not later.is_subset(earlier):
            raise ValueError("Y stages must be nested decreasing")
    last_index = 0
    for index, (stage, y) in enumerate(zip(c_stages, y_stages)):
        reached = stage.components.minkowski_sum(y, within=UNIT)
        escaped = reached.difference(stage.components)
        if not escaped.is_empty:
            return ShiftInclusionResult(
                False,
                index,
                violation_stage=stage.n,
                witness=_witness_point(escaped),
            )
        last_index = index
    return ShiftInclusionResult(True, last_index + 1)


# ---------------------------------------------------------------------
# predicted missing points for the central family


def predicted_missing_points(spec: CentralSpec, k_max: int) -> IntervalUnion:
    """{0, +-1} together with the first k_max+1 branch-gap right ends,
    negated and not, as degenerate point parts."""
    values = [Fraction(0), Fraction(1), Fraction(-1)]
    for k in range(k_max + 1):
        r = rightmost_branch_gap_end(spec, k)
        values.append(r)
        values.append(-r)
    return points_union(values)


# ---------------------------------------------------------------------
# rightmost-longest gap chain


def _chain_step_indices(
    spec: CentralSpec, depth: int, budget: int
) -> tuple[list[int], int]:
    """Creation steps of the chain gaps, and the stage that certifies them.

    Each next gap is the rightmost longest one to the right of the
    previous chain gap.  Gaps created at step k all share length
    ratio(k) * component(k-1), and restricting to the branch right of
    the previous gap leaves the same length profile shifted; ties go to
    the later step, whose rightmost instance sits further right.  The
    last scan stops at the first stage whose components are no longer
    than the last chain gap, which is the stage the chain needs; no scan
    passes the deepest stage the budget holds.
    """
    max_stage = max_binary_stage(budget)
    steps: list[int] = []
    after = 0
    for _ in range(depth):
        best_k: int | None = None
        best_len = Fraction(0)
        k = after + 1
        while True:
            if k > max_stage:
                raise NotCertifiableError(
                    f"certifying the depth-{depth} chain needs a stage beyond "
                    f"{max_stage}, the deepest the component budget {budget} holds"
                )
            g = spec.gap_length(k)
            if g >= best_len:
                best_len = g
                best_k = k
            # Later gaps cannot beat best_len once components are smaller.
            if spec.component_length(k) <= best_len:
                break
            k += 1
        steps.append(best_k)
        after = best_k
    return steps, k


def rightmost_gap_chain(
    spec: CentralSpec, depth: int, *, budget: int = DEFAULT_BUDGET
) -> tuple[DominantGapCertificate, ...]:
    """The certificates of the chain of rightmost longest gaps, each
    covering the interval between consecutive chain gaps' right ends.

    Link m uses the window [0, gap_m.lo - prev_right] (prev_right = 0
    for the first link), whose certified interval is exactly
    (prev_right, gap_m.hi); the union over links covers everything up to
    the last right end, except finitely many recorded points.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    steps, stage_n = _chain_step_indices(spec, depth, budget)
    stage = central_stage(spec, stage_n, budget=budget)
    links: list[DominantGapCertificate] = []
    prev_right = Fraction(0)
    gaps = stage.rightmost_gaps()
    for k in steps:
        # The rightmost gap created at step k lies on the all-ones branch.
        gap = gaps[k]
        lo, hi = gap.lo, gap.hi
        closed_lo = 1 - spec.component_length(k - 1) * (1 + spec.ratio(k)) / 2
        if (lo, hi) != (closed_lo, 1 - spec.component_length(k)):
            raise InvariantError(
                f"chain link at step {k}: the all-ones gap ({lo}, {hi}) is not "
                "(1 - c_(k-1) (1 + r_k) / 2, 1 - c_k) in closed form"
            )
        links.append(dominant_gap_certificate(stage, gap, Fraction(0), lo - prev_right))
        prev_right = hi
    return tuple(links)


# ---------------------------------------------------------------------
# zone measure monitoring

# In the order of the row keys, which measure-scan's columns follow.
_ZONES = {
    "middle": IntervalUnion((Interval.closed(Fraction(-1, 2), Fraction(1, 2)),)),
    "far_negative": IntervalUnion((Interval.closed(-1, Fraction(-3, 4)),)),
    "near_negative": IntervalUnion((Interval.closed(Fraction(-3, 4), Fraction(-1, 2)),)),
    "near_positive": IntervalUnion((Interval.closed(Fraction(1, 2), Fraction(3, 4)),)),
    "far_positive": IntervalUnion((Interval.closed(Fraction(3, 4), 1),)),
}


def zone_measure_rows(
    brackets: Sequence[DiffBracket],
) -> list[dict[str, int | Fraction]]:
    """Per-stage measures of the missing-set bracket across the fixed
    zones (the middle band and the four outer quarters), with its total
    measure, the outer bracket's, and its point and interval part counts."""
    rows = []
    for bracket in brackets:
        missing = bracket.missing_outer
        points = len(missing.point_parts())
        rows.append(
            {
                "n": bracket.n,
                **{z: missing.intersect(u).measure() for z, u in _ZONES.items()},
                "missing_total": missing.measure(),
                "outer_total": bracket.outer.measure(),
                "missing_point_parts": points,
                "missing_interval_parts": len(missing) - points,
            }
        )
    return rows
