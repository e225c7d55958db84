"""Stage-by-stage generators for the four Cantor-set families.

Stage n of a spec is a deterministic pure function of (spec, n): an
immutable :class:`CantorStage` holding the closed component union and,
for each gap, the stage it first appeared in.  The stage endpoints, the
gaps and the gap union are read off the component keys, never stored
beside them.  Component endpoints are preserved by every refinement step
in every family, so each stage endpoint belongs to the limit set; the
certified analysis in :mod:`cantordiff.analysis` depends on exactly that.

Stages are built on the integer keys of :mod:`cantordiff.intervals`.
Each family's step generator yields only its stage-m component union; a
binary step computes its cuts as whole closed keys on a step grid and
cuts every key range at once.  One assembler (``_assembled``) turns the
unions of every family into stages: it reads the gaps as the key ranges
between consecutive components, and a gap of stage m is new iff it is no
gap of stage m - 1.

A composite stage's sum ``(A_m + B_m + 1/2) & [1/2, 1]`` is built from
the previous stage where the sources allow it.  With both sources
central, a step shrinks every component from ``l`` to ``l'`` and moves
the right child ``d = l - l'``, so a pair sum's four child sums start
``0, dA, dB, dA + dB`` after it, each ``lA' + lB'`` long; they cover it
iff ``min(dA, dB) <= lA' + lB'`` and ``|dA - dB| <= lA' + lB'``, and then
the sum is the previous stage's.  A central source summed with itself
keeps the distinct sums of two left ends, at most 3^m of them, less
those above 1/2: a pair's descendants never start before it, so such a
pair never reaches [1/2, 1] after the shift by 1/2.  Every other step
takes the windowed Minkowski sum.

Every spec has one stage sequence, built one step at a time by its
family's step generator and the assembler, and kept in one bounded cache
keyed by the spec alone.  A component budget limits each request, not
what is cached, and a sequence whose step raises is discarded.
"""

from __future__ import annotations

import functools
import itertools
import threading
import warnings
from fractions import Fraction
from math import lcm
from operator import sub
from typing import Iterable, Iterator, Sequence

from .errors import (
    AvoidanceExhaustedError,
    BudgetExceededError,
    InvalidSpecError,
    InvariantError,
)
from .intervals import (
    UNIT,
    Interval,
    IntervalUnion,
    _from_ranges,
    _merge,
    _Range,
    _record,
    points_union,
)

__all__ = [
    "DEFAULT_BUDGET",
    "max_binary_stage",
    "CantorStage",
    "ConstantRatios",
    "ListRatios",
    "GeometricRatios",
    "RatioRule",
    "CentralSpec",
    "PerturbedSpec",
    "CompositeSpec",
    "GreedySpec",
    "GreedyCertificate",
    "central_stage",
    "rightmost_branch_gap_end",
    "perturbed_stage",
    "composite_stage",
    "greedy_stage",
    "greedy_certificate",
    "stages_through",
    "half_scaled_components",
    "dyadic_candidates",
    "quartic_margin",
]

DEFAULT_BUDGET = 2 ** 14


def max_binary_stage(budget: int) -> int:
    """The deepest stage n whose 2^n components fit in ``budget``: 2^n <=
    budget iff n < budget.bit_length(), and -1 if the budget holds none."""
    return max(budget, 0).bit_length() - 1


@_record
class CantorStage:
    """Finite-stage approximation of a Cantor set on ``frame``, [0, 1]
    for every family.

    ``components`` are the surviving closed parts, and ``born[i]`` is the
    first stage whose gaps hold gap i, counted from the left.  Everything
    else is read off the component keys, so it cannot disagree with the
    components: the endpoints, the gap union and the gaps, the frame minus
    the components.  ``binary`` marks a stage whose step k cut one gap
    inside each component of stage k - 1.
    """

    n: int
    components: IntervalUnion
    born: tuple[int, ...]
    family: str
    binary: bool
    notes: tuple[str, ...] = ()

    frame = UNIT

    @property
    def endpoints(self) -> tuple[Fraction, ...]:
        """The sorted distinct component endpoints."""
        return self.components.endpoints()

    @property
    def gaps(self) -> tuple[Interval, ...]:
        """The open gaps, left to right."""
        return self.gap_union().parts

    def gap_union(self) -> IntervalUnion:
        """The frame minus the components."""
        return self.components.complement_within(self.frame)

    def rightmost_gaps(self) -> dict[int, Interval]:
        """The open gap each step k cut on the all-ones branch, by step: the
        rightmost gap born at k.  Empty unless the stage is binary."""
        if not self.binary:
            return {}
        return dict(sorted(zip(self.born, self.gaps), key=lambda gap: gap[0]))


# ---------------------------------------------------------------------
# ratio rules


@_record
class ConstantRatios:
    """Every step removes the same middle fraction."""

    value: Fraction

    def __post_init__(self) -> None:
        if not 0 < self.value < 1:
            raise InvalidSpecError("ratio out of (0,1)")

    def ratio(self, k: int) -> Fraction:
        return self.value

    def all_at_least(self, bound: Fraction) -> bool:
        return self.value >= bound


@_record
class ListRatios:
    """Explicit leading ratios, then a constant tail."""

    values: tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        for v in (*self.values, self.tail):
            if not 0 < v < 1:
                raise InvalidSpecError("ratio out of (0,1)")

    def ratio(self, k: int) -> Fraction:
        if k <= len(self.values):
            return self.values[k - 1]
        return self.tail

    def all_at_least(self, bound: Fraction) -> bool:
        return all(v >= bound for v in self.values) and self.tail >= bound


@_record
class GeometricRatios:
    """Step k removes the middle base**k fraction; ratios are summable."""

    base: Fraction

    def __post_init__(self) -> None:
        if not 0 < self.base < 1:
            raise InvalidSpecError("ratio out of (0,1)")

    def ratio(self, k: int) -> Fraction:
        return self.base ** k

    def all_at_least(self, bound: Fraction) -> bool:
        return False if bound > 0 else True

    def tail_ratio_sum(self, after: int) -> Fraction:
        # sum_{k > after} base**k
        return self.base ** (after + 1) / (1 - self.base)


RatioRule = ConstantRatios | ListRatios | GeometricRatios


# ---------------------------------------------------------------------
# stage sequences: one per spec, in one bounded cache

_MAX_CACHED_SPECS = 32


class _StageSequence:
    """Stages 0..k of one spec, already built, extended one step at a time
    by the spec's step generator and the assembler under one lock."""

    def __init__(self, spec) -> None:
        self._start = lambda: _assembled(spec._steps(), spec.family, spec.binary)
        self._steps = self._start()
        self._built: list = []
        self._lock = threading.Lock()

    def get(self, n: int, budget: int | None = None):
        """Item n, building the missing steps in order.  With ``budget``,
        the request is refused at the first stage up to n that holds more
        components, before any later stage is built."""
        with self._lock:
            for m in range(n + 1):
                if m == len(self._built):
                    try:
                        self._built.append(next(self._steps))
                    except BaseException:
                        # The step generator is finished once it raises:
                        # discard everything so the next request starts fresh.
                        self._built.clear()
                        self._steps = self._start()
                        raise
                if budget is not None and len(self._built[m].components) > budget:
                    raise BudgetExceededError(len(self._built[m].components), budget)
            return self._built[n]


@functools.lru_cache(maxsize=_MAX_CACHED_SPECS)
def _sequence(spec) -> _StageSequence:
    return _StageSequence(spec)


def _stage(spec, n: int, budget: int):
    """Item n of ``spec``'s sequence for a request allowed ``budget``
    components.  The budget limits the request, never what is cached."""
    if n < 0:
        raise ValueError("stage index must be >= 0")
    # Stage n of every family is built from binary stages of 2^n
    # components (its own or its sources'), and each built stage up to
    # n is counted as well: for a binary family that count cannot
    # exceed what this first check allowed.
    if n > max_binary_stage(budget):
        raise BudgetExceededError(None, budget, log2=n)
    return _sequence(spec).get(n, budget)


def stages_through(
    spec, max_stage: int, *, budget: int = DEFAULT_BUDGET
) -> list[CantorStage]:
    """Stages 0..max_stage of ``spec``.  The deepest stage is requested
    first, so a refused request builds no later stage, and the rest
    come from the cache."""
    spec.stage(max_stage, budget=budget)
    return [spec.stage(n, budget=budget) for n in range(max_stage + 1)]


def _assembled(
    unions: Iterable[IntervalUnion], family: str, binary: bool
) -> Iterator[CantorStage]:
    """The stages of a family from its stage-m component unions, m = 0, 1, ...

    Every family has this one rule for the birth stage of its gaps.  The
    gaps are read off the key ranges between consecutive components, whose
    hull must be [0, 1].  Components only shrink, so gaps only grow: a gap
    of stage m is new iff it is no gap of stage m - 1, and a gap that
    disappears never comes back.  When ``binary``, each step must add one
    new gap inside each component and keep every old gap.  A stage whose
    longest component is no shorter than the previous stage's gets a note.
    """
    grid, old, longest = 1, {}, None  # old: the last stage's gaps, (left, right): born
    for m, union in enumerate(unions):
        common = lcm(grid, union.grid)
        k, grid = common // grid, common
        old = {(k * s, k * e): b for (s, e), b in old.items()}
        keys = list(itertools.chain.from_iterable(union._on(grid)))
        if not keys or keys[0] != 0 or keys[-1] != 3 * grid:
            raise InvariantError(f"{family} stage {m} does not span [0, 1]")
        gaps = list(zip(keys[1:-1:2], keys[2::2]))  # by position
        born = tuple(map(old.get, gaps, itertools.repeat(m)))
        # One new gap in each component: new and old gaps alternate.
        alternate = [True, False] * len(old) + [True]
        if binary and m and list(map(m.__eq__, born)) != alternate:
            raise InvariantError(
                f"{family} stage {m} does not cut each component once, keeping its gaps"
            )
        old = dict(zip(gaps, born))
        notes: tuple[str, ...] = ()
        previous = longest
        longest = Fraction(max(map(sub, keys[1::2], keys[::2])), 3 * grid)
        if previous is not None and longest >= previous:
            message = (
                f"max component length did not decrease at stage {m} "
                f"({longest} >= {previous}); the source pair may not "
                f"produce a Cantor set"
            )
            warnings.warn(message, stacklevel=2)
            notes = (message,)
        yield CantorStage(m, union, born, family, binary, notes)


def _split(
    grid: int, ranges: Sequence[_Range], cuts: Iterable[_Range]
) -> IntervalUnion:
    """The next union of a binary family: the open gap between the closed
    keys ``cuts[i]`` is removed from key range i, all on ``grid``."""
    kept: list[_Range] = []
    for (s, e), (x, y) in zip(ranges, cuts):
        kept += ((s, x), (y, e))
    return _from_ranges(kept, grid)


# ---------------------------------------------------------------------
# central family
#
# Every family spec answers one protocol: family, the family name of its
# stages; binary (True when stage n has exactly 2^n components, so the
# CLI clamps its stage to the budget and the stage writer names each
# gap by the component it was cut from; False when a stage must be
# built to count them); stage(n, budget=...) for its unit-frame stage
# through the family's public function; and _steps(), the generator of
# its stage-m component unions, which ``_assembled`` turns into stages.
# The binary builders (central and perturbed) hold their stage as its
# union, whose key ranges are the parts (see ``cantordiff.intervals``).
# Each step lifts them to a step grid on which every cut is a whole
# closed key, chooses one gap (x, y) per part and cuts them all with
# ``_split``.


@_record
class CentralSpec:
    """Middle-removal Cantor set: step k removes the open middle
    ratio(k) portion of every surviving component."""

    ratios: RatioRule

    family = "central"
    binary = True

    @classmethod
    def constant(cls, value: Fraction) -> "CentralSpec":
        return cls(ConstantRatios(value))

    @classmethod
    def geometric(cls, base: Fraction) -> "CentralSpec":
        return cls(GeometricRatios(base))

    def ratio(self, k: int) -> Fraction:
        return self.ratios.ratio(k)

    def component_length(self, n: int) -> Fraction:
        """Length of every stage-n component."""
        length = Fraction(1)
        for k in range(1, n + 1):
            length *= (1 - self.ratio(k)) / 2
        return length

    def gap_length(self, k: int) -> Fraction:
        """Length of every gap removed at step k (k >= 1)."""
        return self.ratio(k) * self.component_length(k - 1)

    def stage(self, n: int, *, budget: int = DEFAULT_BUDGET) -> CantorStage:
        return central_stage(self, n, budget=budget)

    def _steps(self) -> Iterator[IntervalUnion]:
        union = IntervalUnion((UNIT,))
        yield union
        for n in itertools.count(1):
            # The parts all have one length, so their children have one too.
            s, e = union.ranges[0]
            child = Fraction(e - s, 3 * union.grid) * (1 - self.ratio(n)) / 2
            grid = lcm(union.grid, child.denominator)
            key = 3 * child.numerator * (grid // child.denominator)
            ranges = union._on(grid)
            union = _split(grid, ranges, [(s + key, e - key) for s, e in ranges])
            yield union


def central_stage(
    spec: CentralSpec, n: int, *, budget: int = DEFAULT_BUDGET
) -> CantorStage:
    return _stage(spec, n, budget)


def rightmost_branch_gap_end(spec: CentralSpec, k: int) -> Fraction:
    """Right endpoint of the k-th gap along the all-ones branch.

    These values (with 0 and 1) are exactly the points the difference
    set can never reach; the k-th one equals 1 minus the length of a
    stage-(k+1) component.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return 1 - spec.component_length(k + 1)


# ---------------------------------------------------------------------
# perturbed family


@_record
class PerturbedSpec:
    """Cantor set with gaps pinned to component centers.

    The extreme-branch gaps of each step share one endpoint with the
    component center (left-aligned on the all-zeros branch, right-aligned
    on the all-ones branch); interior gaps are concentric.  Successive
    gap lengths follow c(k+1) = shrink * min(c(k), leftmost component
    length); interior gaps take min(interior_gap_fraction * c, half the
    component).
    """

    c1: Fraction
    shrink: Fraction = Fraction(1, 2)
    interior_gap_fraction: Fraction = Fraction(1)

    family = "perturbed"
    binary = True

    def __post_init__(self) -> None:
        if not 0 < self.c1 < 1:
            raise InvalidSpecError("c1 out of (0,1)")
        if not 0 < self.shrink < 1:
            raise InvalidSpecError("shrink out of (0,1)")
        if not 0 < self.interior_gap_fraction <= 1:
            raise InvalidSpecError("interior_gap_fraction out of (0,1]")

    def stage(self, n: int, *, budget: int = DEFAULT_BUDGET) -> CantorStage:
        return perturbed_stage(self, n, budget=budget)

    def _steps(self) -> Iterator[IntervalUnion]:
        union = IntervalUnion((UNIT,))
        c = self.c1  # length of the aligned gaps cut at the current step
        yield union
        for n in itertools.count(1):
            if n > 1:
                s, e = union.ranges[0]
                leftmost_len = Fraction(e - s, 3 * union.grid)
                c = self.shrink * min(c, leftmost_len)
                if not c < leftmost_len / 2:
                    raise InvalidSpecError(
                        f"gap length {c} at step {n} is not below half the leftmost "
                        f"component ({leftmost_len / 2}); pick a smaller c1 or shrink"
                    )
            # On 4*grid the midpoint and a quarter of every part are whole
            # keys; the step grid holds half an aligned and an interior gap.
            half = c / 2
            interior = self.interior_gap_fraction * half
            grid = lcm(4 * union.grid, half.denominator, interior.denominator)
            half_key = 3 * half.numerator * (grid // half.denominator)
            interior_key = 3 * interior.numerator * (grid // interior.denominator)
            ranges = union._on(grid)
            last = len(ranges) - 1
            cuts = []
            for idx, (s, e) in enumerate(ranges):
                mid = (s + e) // 2
                if n == 1:
                    cuts.append((mid - half_key, mid + half_key))
                elif idx == 0:
                    cuts.append((mid, mid + 2 * half_key))
                elif idx == last:
                    cuts.append((mid - 2 * half_key, mid))
                else:
                    g = min(interior_key, (e - s) // 4)
                    cuts.append((mid - g, mid + g))
            union = _split(grid, ranges, cuts)
            (s, x), (y, e) = union.ranges[0], union.ranges[-1]
            if x - s != e - y:
                left, right = (Fraction(k, 3 * union.grid) for k in (x - s, e - y))
                raise InvariantError(
                    f"perturbed stage {n}: the extreme branches must stay equal "
                    f"in length, got {left} and {right}"
                )
            yield union


def perturbed_stage(
    spec: PerturbedSpec, n: int, *, budget: int = DEFAULT_BUDGET
) -> CantorStage:
    return _stage(spec, n, budget)


# ---------------------------------------------------------------------
# composite family: C = A | ((A + B + 1/2) & [1/2, 1])

HalfSourceSpec = CentralSpec | PerturbedSpec


def half_scaled_components(spec: HalfSourceSpec, n: int) -> IntervalUnion:
    """Stage-n components of a unit-frame source, scaled into [0, 1/2].
    No budget is checked: every caller has already checked one that
    covers the 2^n components of stage n."""
    return _sequence(spec).get(n).components.scale(Fraction(1, 2))


@_record
class CompositeSpec:
    """Sources for A and B, each generated on [0,1] and scaled to [0,1/2]."""

    a_source: HalfSourceSpec
    b_source: HalfSourceSpec

    family = "tab"
    binary = False

    def stage(self, n: int, *, budget: int = DEFAULT_BUDGET) -> CantorStage:
        return composite_stage(self, n, budget=budget)

    def _steps(self) -> Iterator[IntervalUnion]:
        return _composite_steps(self.a_source, self.b_source)


_HALF_TO_ONE = Interval.closed(Fraction(1, 2), 1)
_UPPER_HALF = IntervalUnion((_HALF_TO_ONE,))


def _windowed_sum(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """(a + b + 1/2) & [1/2, 1] by the windowed Minkowski sum."""
    return a.minkowski_sum(b.translate(Fraction(1, 2)), within=_HALF_TO_ONE)


def _grown_offsets(
    offsets: list[int], grid: int, deltas: Sequence[Fraction]
) -> tuple[list[int], int]:
    """The sorted distinct sums of two left ends of a central source with
    itself: ``offsets`` on ``grid`` grown by ``{0, d, 2d}`` for each step's
    shift ``d``, on a grid that holds 1/2 and every ``d``.  An offset above
    1/2 is dropped, since a pair's descendants never start before it."""
    old = grid
    grid = lcm(grid, 2, *(d.denominator for d in deltas))
    offsets = [s * (grid // old) for s in offsets]
    half = grid // 2
    for d in deltas:
        k = d.numerator * (grid // d.denominator)
        grown = {t for s in offsets for t in (s, s + k, s + 2 * k)}
        offsets = sorted(t for t in grown if t <= half)
    return offsets, grid


def _offset_sum(offsets: Sequence[int], grid: int, width: Fraction) -> IntervalUnion:
    """The union of ``[s, s + width]`` over the offsets, moved by 1/2 and
    met with [1/2, 1]; ``grid`` holds 1/2 and ``width``."""
    half = grid // 2
    w = width.numerator * (grid // width.denominator)
    ranges = _merge((3 * (s + half), 3 * min(s + half + w, grid)) for s in offsets)
    return _from_ranges(ranges, grid)


def _composite_steps(
    a_source: HalfSourceSpec, b_source: HalfSourceSpec
) -> Iterator[IntervalUnion]:
    """The composite unions ``A_m | ((A_m + B_m + 1/2) & [1/2, 1])`` for
    m = 0, 1, ..., with A_m and B_m the stage-m components of the sources
    on [0, 1/2].

    With both sources central, a step whose children cover every pair
    (the test in the module docstring) keeps the previous sum, read off
    the previous union: A lies in [0, 1/2] and both sources hold 0, so the
    sum holds 1/2 and is the part of the union in [1/2, 1].  A central
    source summed with itself is the union of ``[s, s + 2l]`` over the
    distinct sums ``s`` of two left ends (``_grown_offsets``).  Every
    other step takes the windowed Minkowski sum of the two stages.
    """
    central = isinstance(a_source, CentralSpec) and isinstance(b_source, CentralSpec)
    same = central and a_source == b_source
    la = lb = Fraction(1, 2)  # the component lengths on [0, 1/2]
    offsets, grid, deltas = [0], 1, []  # deltas: the shifts not yet in offsets
    for m in itertools.count():
        a = half_scaled_components(a_source, m)
        if m and central:
            da, db = la * (1 + a_source.ratio(m)) / 2, lb * (1 + b_source.ratio(m)) / 2
            la, lb = la - da, lb - db
            if same:
                deltas.append(da)
            if min(da, db) <= la + lb and abs(da - db) <= la + lb:
                union = a.union(union.intersect(_UPPER_HALF))
                yield union
                continue
        if same:
            offsets, grid = _grown_offsets(offsets, grid, deltas)
            deltas = []
            union = a.union(_offset_sum(offsets, grid, 2 * la))
        else:
            union = a.union(_windowed_sum(a, half_scaled_components(b_source, m)))
        yield union


def composite_stage(
    spec: CompositeSpec, n: int, *, budget: int = DEFAULT_BUDGET
) -> CantorStage:
    return _stage(spec, n, budget)


# ---------------------------------------------------------------------
# greedy avoidance family


def dyadic_candidates() -> Iterator[Fraction]:
    """Dyadic rationals in [-1, 2], breadth-first by denominator."""
    for t in range(-1, 3):
        yield Fraction(t)
    for level in itertools.count(1):
        q = 2 ** level
        for t in range(-q + 1, 2 * q, 2):
            yield Fraction(t, q)


def quartic_margin(n: int) -> Fraction:
    return Fraction(1, 4 ** n)


_CENTRAL_HALF = CentralSpec.constant(Fraction(1, 2))


@_record
class GreedySpec:
    """The composite of A, the central 1/2 set, and B, each on [0, 1/2]:
    its stages are those of ``tab`` (central 1/2, B) under the family
    name ``"greedy"``.

    :func:`greedy_certificate` alone chooses avoidance points for A: at
    each stage m one point is admitted from :func:`dyadic_candidates`
    (deferred candidates retried first), the first whose avoidance set,
    like every admitted point's, padded by ``quartic_margin(m)``, leaves
    A_{m-1} whole.  The stages never read the points.
    """

    b_source: HalfSourceSpec

    family = "greedy"
    binary = False

    def stage(self, n: int, *, budget: int = DEFAULT_BUDGET) -> CantorStage:
        return greedy_stage(self, n, budget=budget)

    def _steps(self) -> Iterator[IntervalUnion]:
        return _composite_steps(_CENTRAL_HALF, self.b_source)


@_record
class GreedyCertificate:
    """Per-stage avoidance evidence: no admitted point lies in A + B.
    ``points[m - 1]`` is the point admitted at stage m, and ``deferrals``
    counts the candidates that waited on the way."""

    points: tuple[Fraction, ...]
    deferrals: int
    verified: bool


_MAX_STAGE_ATTEMPTS = 64


def _padded_reflection(b: IntervalUnion, delta: Fraction) -> IntervalUnion:
    """-B with each part widened to a closed interval by ``delta``."""
    grid = lcm(b.grid, delta.denominator)
    pad = 3 * delta.numerator * (grid // delta.denominator)
    reflected = b.reflect()._on(grid)
    widened = ((s - s % 3 - pad, e + e % 3 // 2 + pad) for s, e in reflected)
    return _from_ranges(_merge(widened), grid)


def _greedy_points(spec: GreedySpec, n: int) -> tuple[tuple[Fraction, ...], int]:
    """The points admitted at stages 1..n and the number of deferrals on
    the way.

    A candidate is admitted at stage m only when the padded -B, moved by
    it, leaves A_{m-1} whole; one that cuts a component waits.  A point
    admitted at stage m' < m needs no new check: stages are nested and
    the margin shrinks, so its padded translate, which missed A_{m'-1},
    misses A_{m-1} too.
    """
    admitted: list[Fraction] = []
    deferred: list[Fraction] = []
    deferrals = 0
    stream = dyadic_candidates()
    for m in range(1, n + 1):
        a = half_scaled_components(_CENTRAL_HALF, m - 1)
        b = half_scaled_components(spec.b_source, m)
        b_forbidden = b.union(b.translate(Fraction(1, 2)))
        # -B padded by delta: admitted point d avoids d + padded.
        padded = _padded_reflection(b, quartic_margin(m))
        retries, deferred = deferred, []
        whole, attempts = False, 0
        while not whole and attempts < _MAX_STAGE_ATTEMPTS:
            attempts += 1
            candidate = retries.pop(0) if retries else next(stream)
            if b_forbidden.contains_point(candidate):
                # Certified-inside points are skipped outright.
                continue
            allowed = a.minus_translates(padded, points_union([candidate]))
            whole = allowed == a
            if not whole:
                deferrals += 1
                deferred.append(candidate)
        deferred = retries + deferred
        if not whole:
            raise AvoidanceExhaustedError(m, attempts)
        admitted.append(candidate)
    return tuple(admitted), deferrals


def greedy_stage(
    spec: GreedySpec, n: int, *, budget: int = DEFAULT_BUDGET
) -> CantorStage:
    return _stage(spec, n, budget)


def greedy_certificate(
    spec: GreedySpec, n: int, *, budget: int = DEFAULT_BUDGET
) -> GreedyCertificate:
    """Check that no admitted point is reachable as a sum from A_n + B_n:
    p is in A + B iff A meets p - B, so no translate of -B may cut A."""
    a = _stage(_CENTRAL_HALF, n, budget).components.scale(Fraction(1, 2))
    points, deferrals = _greedy_points(spec, n)
    b = half_scaled_components(spec.b_source, n)
    unreached = a.minus_translates(b.reflect(), points_union(points))
    return GreedyCertificate(points, deferrals, unreached == a)
