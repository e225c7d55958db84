"""Stage-by-stage generators for the four Cantor-set families.

Stage n of a spec is a deterministic pure function of (spec, n): an
immutable :class:`CantorStage` holding the closed component union and
the labeled gap records accumulated so far.  The stage endpoints and the
gap union are read off the component keys, never stored beside them.
Component endpoints are preserved by every refinement step in every
family, so each stage endpoint belongs to the limit set; the certified
analysis in :mod:`cantordiff.analysis` depends on exactly that.

Stages are built on the integer keys of :mod:`cantordiff.intervals`: a
binary step computes its cuts as whole closed keys on a step grid and
cuts every key range at once, and a composite step dates its gaps by
looking up the complement's key ranges among the previous stage's.
Each gap record holds its ends as numerators on its canonical grid, made
from the key range of the gap, so no ``Fraction`` is made per gap.

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
family's step generator and kept in one bounded cache keyed by the spec
alone.  A component budget limits each request, not what is cached, and
a sequence whose step raises is discarded.
"""

from __future__ import annotations

import functools
import itertools
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import (
    AvoidanceExhaustedError,
    BudgetExceededError,
    InvalidSpecError,
    InvariantError,
)
from .intervals import (
    EMPTY,
    UNIT,
    Interval,
    IntervalUnion,
    RationalLike,
    _encode,
    _from_ranges,
    _merge,
    _Range,
    as_rational,
    format_rational,
    points_union,
)

__all__ = [
    "DEFAULT_BUDGET",
    "max_binary_stage",
    "NodeAddress",
    "GapRecord",
    "CantorStage",
    "ConstantRatios",
    "ListRatios",
    "GeometricRatios",
    "RatioRule",
    "CentralSpec",
    "PerturbedSpec",
    "CompositeSpec",
    "GreedySpec",
    "AdmittedPoint",
    "DeferralEvent",
    "GreedyCertificate",
    "central_stage",
    "rightmost_branch_gap_end",
    "perturbed_stage",
    "composite_stage",
    "greedy_stage",
    "greedy_certificate",
    "branch_shift",
    "half_scaled_components",
    "dyadic_candidates",
    "quartic_margin",
    "builtin_ternary",
    "builtin_half",
    "builtin_perturbed",
    "builtin_composite_pair",
    "builtin_fat_composite",
]

DEFAULT_BUDGET = 2 ** 14


def max_binary_stage(budget: int) -> int:
    """The deepest stage n whose 2^n components fit in ``budget``: 2^n <=
    budget iff n < budget.bit_length(), and -1 if the budget holds none."""
    return max(budget, 0).bit_length() - 1


NodeAddress = str  # binary string, "" for the root interval


def _check_address(address: str) -> None:
    # strip stops at the first character outside "01" from either side
    if address.strip("01"):
        raise ValueError(f"address must be a binary string, got {address!r}")


@dataclass(frozen=True, slots=True, init=False)
class GapRecord:
    """An open interval removed during construction.

    ``address`` names the component the gap was cut from (None for gaps
    derived from a complement rather than an explicit binary split);
    ``stage_created`` is the 1-based step that removed it.  The gap is
    ``(lo/grid, hi/grid)``, held as its two end numerators on its
    canonical grid (``gcd(grid, lo, hi) == 1``), so the generated ``==``
    and ``hash`` are set equality and no ``Fraction`` is made until
    ``interval`` decodes it.  The builders make records from key ranges
    with ``_gap``; ``GapRecord(address, interval, stage_created)`` takes
    an open ``Interval``.
    """

    address: NodeAddress | None
    lo: int
    hi: int
    grid: int
    stage_created: int

    def __new__(
        cls, address: NodeAddress | None, interval: Interval, stage_created: int
    ) -> "GapRecord":
        ((s, e),), grid = _encode((interval,))
        return _gap(address, s, e, grid, stage_created)

    @property
    def interval(self) -> Interval:
        """The open gap, decoded from the numerators on each access."""
        return Interval(
            Fraction(self.lo, self.grid), Fraction(self.hi, self.grid), False, False
        )


# The slot setters, which a frozen dataclass leaves usable and which cost
# less than object.__setattr__.
_set_address, _set_lo, _set_hi, _set_grid, _set_stage = (
    getattr(GapRecord, name).__set__
    for name in ("address", "lo", "hi", "grid", "stage_created")
)


def _gap(
    address: NodeAddress | None, s: int, e: int, grid: int, stage_created: int
) -> GapRecord:
    """The record of the gap of the key range ``[s, e]`` on ``grid`` (see
    ``cantordiff.intervals``), which must be open at both ends: then
    ``s <= e`` is the ``lo < hi`` that ``Interval`` checks."""
    if address is not None:
        _check_address(address)
    if s % 3 != 1 or e % 3 != 2:
        raise ValueError("gap intervals are open at both ends")
    if s > e:
        raise ValueError(f"gap key range [{s}, {e}] is empty")
    lo, hi = s // 3, (e + 1) // 3
    g = gcd(grid, lo, hi)
    if g > 1:
        lo, hi, grid = lo // g, hi // g, grid // g
    record = object.__new__(GapRecord)
    _set_address(record, address)
    _set_lo(record, lo)
    _set_hi(record, hi)
    _set_grid(record, grid)
    _set_stage(record, stage_created)
    return record


@dataclass(frozen=True, slots=True)
class CantorStage:
    """Finite-stage approximation of a Cantor set on ``frame``, [0, 1]
    for every family.

    ``components`` are the surviving closed parts and ``gaps`` the
    removal records ordered by (stage_created, position), whose
    intervals tile the frame with the components.  The endpoints and
    the gap union are not stored: they are read off the component keys,
    so they cannot disagree with the components.
    """

    n: int
    components: IntervalUnion
    gaps: tuple[GapRecord, ...]
    family: str
    notes: tuple[str, ...] = ()

    frame = UNIT

    @property
    def endpoints(self) -> tuple[Fraction, ...]:
        """The sorted distinct component endpoints."""
        return self.components.endpoints()

    def gap_union(self) -> IntervalUnion:
        """The frame minus the components."""
        return self.components.complement_within(self.frame)


# ---------------------------------------------------------------------
# ratio rules


@dataclass(frozen=True)
class ConstantRatios:
    """Every step removes the same middle fraction."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_rational(self.value))
        if not 0 < self.value < 1:
            raise InvalidSpecError("ratio out of (0,1)")

    def ratio(self, k: int) -> Fraction:
        return self.value

    def all_at_least(self, bound: Fraction) -> bool:
        return self.value >= bound

    def tail_ratio_sum(self, after: int) -> Fraction | None:
        return None  # constant tails are not summable

    def to_obj(self) -> dict[str, Any]:
        return {"rule": "constant", "value": format_rational(self.value)}


@dataclass(frozen=True)
class ListRatios:
    """Explicit leading ratios, then a constant tail."""

    values: tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", tuple(as_rational(v) for v in self.values)
        )
        object.__setattr__(self, "tail", as_rational(self.tail))
        for v in (*self.values, self.tail):
            if not 0 < v < 1:
                raise InvalidSpecError("ratio out of (0,1)")

    def ratio(self, k: int) -> Fraction:
        if k <= len(self.values):
            return self.values[k - 1]
        return self.tail

    def all_at_least(self, bound: Fraction) -> bool:
        return all(v >= bound for v in self.values) and self.tail >= bound

    def tail_ratio_sum(self, after: int) -> Fraction | None:
        return None

    def to_obj(self) -> dict[str, Any]:
        return {
            "rule": "list",
            "values": [format_rational(v) for v in self.values],
            "tail": format_rational(self.tail),
        }


@dataclass(frozen=True)
class GeometricRatios:
    """Step k removes the middle base**k fraction; ratios are summable."""

    base: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", as_rational(self.base))
        if not 0 < self.base < 1:
            raise InvalidSpecError("ratio out of (0,1)")

    def ratio(self, k: int) -> Fraction:
        return self.base ** k

    def all_at_least(self, bound: Fraction) -> bool:
        return False if bound > 0 else True

    def tail_ratio_sum(self, after: int) -> Fraction:
        # sum_{k > after} base**k
        return self.base ** (after + 1) / (1 - self.base)

    def to_obj(self) -> dict[str, Any]:
        return {"rule": "geometric", "base": format_rational(self.base)}


RatioRule = Union[ConstantRatios, ListRatios, GeometricRatios]


# ---------------------------------------------------------------------
# stage sequences: one per spec, in one bounded cache

_MAX_CACHED_SPECS = 32


class _StageSequence:
    """Stages 0..k of one spec, already built, extended one step at a time
    by the spec's step generator under one lock."""

    def __init__(self, spec) -> None:
        self._spec = spec
        self._steps = spec._steps()
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
                        self._steps = self._spec._steps()
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
    # components (its own or its sources'); a count not known in
    # advance is checked on each built stage up to n as well.
    if n > max_binary_stage(budget):
        raise BudgetExceededError(2 ** n, budget)
    return _sequence(spec).get(n, None if spec.binary else budget)


def _half(spec, n: int) -> IntervalUnion:
    """Stage-n components of a unit-frame source, scaled into [0, 1/2]."""
    return _sequence(spec).get(n).components.scale(Fraction(1, 2))


def _address(n: int, i: int) -> NodeAddress:
    """The address of stage-n component i of a binary family."""
    return format(i, f"0{n}b") if n else ""


def _split(
    n: int,
    grid: int,
    ranges: Sequence[_Range],
    cuts: Iterable[tuple[int, int]],
    gaps: list[GapRecord],
) -> IntervalUnion:
    """Stage-n union of a binary family: the open gap between the closed
    keys ``cuts[i]`` is removed from the stage-(n-1) key range i, all on
    ``grid``; ``gaps`` accumulates every step's records."""
    kept: list[_Range] = []
    for idx, ((s, e), (x, y)) in enumerate(zip(ranges, cuts)):
        gaps.append(_gap(_address(n - 1, idx), x + 1, y - 1, grid, n))
        kept += ((s, x), (y, e))
    return _from_ranges(kept, grid)


# ---------------------------------------------------------------------
# central family
#
# Every family spec answers one protocol: binary (True when stage n has
# exactly 2^n components, so a budget is checked before it is built;
# False when a stage must be built to count them), to_obj() for the
# JSON dialect, stage(n, budget=...) for its unit-frame stage through
# the family's public function, and _steps(), the generator of its
# stage sequence.  The binary builders (central and perturbed) hold
# their stage as its union, whose key ranges are the parts (see
# ``cantordiff.intervals``).  Each step lifts them to a step grid on
# which every cut is a whole closed key, chooses one gap (x, y) per part
# and cuts them all with ``_split``, which names each gap record by
# ``_address``.


@dataclass(frozen=True)
class CentralSpec:
    """Middle-removal Cantor set: step k removes the open middle
    ratio(k) portion of every surviving component."""

    ratios: RatioRule

    binary = True

    @classmethod
    def constant(cls, value: RationalLike) -> "CentralSpec":
        return cls(ConstantRatios(as_rational(value)))

    @classmethod
    def from_list(
        cls, values: tuple[RationalLike, ...], tail: RationalLike
    ) -> "CentralSpec":
        return cls(ListRatios(tuple(as_rational(v) for v in values), as_rational(tail)))

    @classmethod
    def geometric(cls, base: RationalLike) -> "CentralSpec":
        return cls(GeometricRatios(as_rational(base)))

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

    def to_obj(self) -> dict[str, Any]:
        return {"family": "central", "ratios": self.ratios.to_obj()}

    def stage(self, n: int, *, budget: int = DEFAULT_BUDGET) -> CantorStage:
        return central_stage(self, n, budget=budget)

    def _steps(self) -> Iterator[CantorStage]:
        union = IntervalUnion((UNIT,))
        gaps: list[GapRecord] = []
        yield CantorStage(0, union, (), "central")
        for n in itertools.count(1):
            # The parts all have one length, so their children have one too.
            s, e = union.ranges[0]
            child = Fraction(e - s, 3 * union.grid) * (1 - self.ratio(n)) / 2
            grid = lcm(union.grid, child.denominator)
            key = 3 * child.numerator * (grid // child.denominator)
            ranges = union._on(grid)
            cuts = [(s + key, e - key) for s, e in ranges]
            union = _split(n, grid, ranges, cuts, gaps)
            yield CantorStage(n, union, tuple(gaps), "central")


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


@dataclass(frozen=True)
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

    binary = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "c1", as_rational(self.c1))
        object.__setattr__(self, "shrink", as_rational(self.shrink))
        object.__setattr__(
            self, "interior_gap_fraction", as_rational(self.interior_gap_fraction)
        )
        if not 0 < self.c1 < 1:
            raise InvalidSpecError("c1 out of (0,1)")
        if not 0 < self.shrink < 1:
            raise InvalidSpecError("shrink out of (0,1)")
        if not 0 < self.interior_gap_fraction <= 1:
            raise InvalidSpecError("interior_gap_fraction out of (0,1]")

    def to_obj(self) -> dict[str, Any]:
        return {
            "family": "perturbed",
            "c1": format_rational(self.c1),
            "shrink": format_rational(self.shrink),
            "interior_gap_fraction": format_rational(self.interior_gap_fraction),
        }

    def stage(self, n: int, *, budget: int = DEFAULT_BUDGET) -> CantorStage:
        return perturbed_stage(self, n, budget=budget)

    def _steps(self) -> Iterator[CantorStage]:
        union = IntervalUnion((UNIT,))
        gaps: list[GapRecord] = []
        c = self.c1  # length of the aligned gaps cut at the current step
        yield CantorStage(0, union, (), "perturbed")
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
            union = _split(n, grid, ranges, cuts, gaps)
            (s, x), (y, e) = union.ranges[0], union.ranges[-1]
            if x - s != e - y:
                left, right = (Fraction(k, 3 * union.grid) for k in (x - s, e - y))
                raise InvariantError(
                    f"perturbed stage {n}: the extreme branches must stay equal "
                    f"in length, got {left} and {right}"
                )
            yield CantorStage(n, union, tuple(gaps), "perturbed")


def perturbed_stage(
    spec: PerturbedSpec, n: int, *, budget: int = DEFAULT_BUDGET
) -> CantorStage:
    return _stage(spec, n, budget)


# ---------------------------------------------------------------------
# composite family: C = A | ((A + B + 1/2) & [1/2, 1])

HalfSourceSpec = Union[CentralSpec, PerturbedSpec]


def half_scaled_components(
    spec: HalfSourceSpec, n: int, *, budget: int = DEFAULT_BUDGET
) -> IntervalUnion:
    """Stage-n components of a unit-frame family, scaled into [0, 1/2]."""
    return spec.stage(n, budget=budget).components.scale(Fraction(1, 2))


@dataclass(frozen=True)
class CompositeSpec:
    """Sources for A and B, each generated on [0,1] and scaled to [0,1/2]."""

    a_source: HalfSourceSpec
    b_source: HalfSourceSpec

    binary = False

    def to_obj(self) -> dict[str, Any]:
        return {
            "family": "tab",
            "a": self.a_source.to_obj(),
            "b": self.b_source.to_obj(),
        }

    def stage(self, n: int, *, budget: int = DEFAULT_BUDGET) -> CantorStage:
        return composite_stage(self, n, budget=budget)

    def _steps(self) -> Iterator[CantorStage]:
        return _composite_steps(
            functools.partial(_half, self.a_source),
            _source_sums(self.a_source, self.b_source),
            "tab",
        )


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


def _source_sums(
    a_source: HalfSourceSpec, b_source: HalfSourceSpec
) -> Iterator[IntervalUnion | None]:
    """``(A_m + B_m + 1/2) & [1/2, 1]`` for m = 0, 1, ..., with A_m and B_m
    the stage-m components of the sources on [0, 1/2]; None for a sum
    that is the previous stage's.

    With both sources central, a step whose children cover every pair
    (the test in the module docstring) yields None.  A central source
    summed with itself is the union of ``[s, s + 2l]`` over the distinct
    sums ``s`` of two left ends (``_grown_offsets``).  Every other step
    takes the windowed Minkowski sum of the two stages.
    """
    central = isinstance(a_source, CentralSpec) and isinstance(b_source, CentralSpec)
    same = central and a_source == b_source
    la = lb = Fraction(1, 2)  # the component lengths on [0, 1/2]
    offsets, grid, deltas = [0], 1, []  # deltas: the shifts not yet in offsets
    for m in itertools.count():
        if m and central:
            da, db = la * (1 + a_source.ratio(m)) / 2, lb * (1 + b_source.ratio(m)) / 2
            la, lb = la - da, lb - db
            if same:
                deltas.append(da)
            if min(da, db) <= la + lb and abs(da - db) <= la + lb:
                yield None
                continue
        if same:
            offsets, grid = _grown_offsets(offsets, grid, deltas)
            deltas = []
            yield _offset_sum(offsets, grid, 2 * la)
        else:
            yield _windowed_sum(_half(a_source, m), _half(b_source, m))


def _composite_steps(
    a_components: Callable[[int], IntervalUnion],
    sums: Iterator[IntervalUnion | None],
    family: str,
) -> Iterator[CantorStage]:
    """Composite stages from the stage-m unions of A on [0, 1/2] and the
    stage-m sums ``(A_m + B_m + 1/2) & [1/2, 1]``, tracking when each
    maximal gap of the complement first appeared.

    A sum given as None is the previous stage's, read off its components:
    A lies in [0, 1/2] and both sources hold 0, so the sum holds 1/2 and
    is the part of the composite in [1/2, 1].

    The sources shrink from stage to stage, so the composite does too
    and a gap only grows: a gap of stage m that is no gap of stage m-1
    was never one before.  The complement's key ranges are looked up
    among the previous stage's, lifted to their common grid; an
    unchanged gap keeps its record, and a new one is made from its keys.
    """
    prev_gaps, prev_records = EMPTY, []  # the records in position order
    prev_max: Fraction | None = None
    for m in itertools.count():
        total = next(sums)
        if total is None:
            total = components.intersect(_UPPER_HALF)
        components = a_components(m).union(total)
        del total  # held by the stage alone, not across steps
        cur_max = components.max_component_length()
        notes: tuple[str, ...] = ()
        if prev_max is not None and cur_max >= prev_max:
            message = (
                f"max component length did not decrease at stage {m} "
                f"({cur_max} >= {prev_max}); the source pair may not "
                f"produce a Cantor set"
            )
            warnings.warn(message, stacklevel=2)
            notes = (message,)
        prev_max = cur_max
        gaps = components.complement_within(UNIT)
        grid = lcm(prev_gaps.grid, gaps.grid)
        old = dict(zip(prev_gaps._on(grid), prev_records))
        records = [
            old.get(r) or _gap(None, *r, grid, m)
            for r in gaps._on(grid)
        ]
        prev_gaps, prev_records = gaps, records
        # Each step lists its gaps by position: a stable sort on the step
        # orders them by (stage_created, position).
        ordered = tuple(sorted(records, key=attrgetter("stage_created")))
        yield CantorStage(m, components, ordered, family, notes=notes)


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


@dataclass(frozen=True)
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

    binary = False

    def to_obj(self) -> dict[str, Any]:
        return {"family": "greedy", "b": self.b_source.to_obj()}

    def stage(self, n: int, *, budget: int = DEFAULT_BUDGET) -> CantorStage:
        return greedy_stage(self, n, budget=budget)

    def _steps(self) -> Iterator[CantorStage]:
        return _composite_steps(
            functools.partial(_half, _CENTRAL_HALF),
            _source_sums(_CENTRAL_HALF, self.b_source),
            "greedy",
        )


class AdmittedPoint(NamedTuple):
    value: Fraction
    stage: int


class DeferralEvent(NamedTuple):
    candidate: Fraction
    address: NodeAddress | None
    stage: int


@dataclass(frozen=True)
class GreedyCertificate:
    """Per-stage avoidance evidence: no admitted point lies in A + B."""

    n: int
    points: tuple[AdmittedPoint, ...]
    deferrals: tuple[DeferralEvent, ...]
    verified: bool


_MAX_STAGE_ATTEMPTS = 64


def _padded_reflection(b: IntervalUnion, delta: Fraction) -> IntervalUnion:
    """-B with each part widened to a closed interval by ``delta``."""
    grid = lcm(b.grid, delta.denominator)
    pad = 3 * delta.numerator * (grid // delta.denominator)
    reflected = b.reflect()._on(grid)
    widened = ((s - s % 3 - pad, e + e % 3 // 2 + pad) for s, e in reflected)
    return _from_ranges(_merge(widened), grid)


def _greedy_points(
    spec: GreedySpec, n: int
) -> tuple[tuple[AdmittedPoint, ...], tuple[DeferralEvent, ...]]:
    """The points admitted at stages 1..n and the deferrals on the way.

    A candidate is admitted at stage m only when the padded -B, moved by
    it, leaves A_{m-1} whole; one that cuts a component waits, recorded
    at that component's address.  A point admitted at stage m' < m needs
    no new check: stages are nested and the margin shrinks, so its padded
    translate, which missed A_{m'-1}, misses A_{m-1} too.
    """
    admitted: list[AdmittedPoint] = []
    deferred: list[Fraction] = []
    events: list[DeferralEvent] = []
    stream = dyadic_candidates()
    for m in range(1, n + 1):
        a = _half(_CENTRAL_HALF, m - 1)
        b = _half(spec.b_source, m)
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
                grid = lcm(a.grid, allowed.grid)
                kept = set(allowed._on(grid))
                index = next(i for i, r in enumerate(a._on(grid)) if r not in kept)
                events.append(DeferralEvent(candidate, _address(m - 1, index), m))
                deferred.append(candidate)
        deferred = retries + deferred
        if not whole:
            raise AvoidanceExhaustedError(m, attempts)
        admitted.append(AdmittedPoint(candidate, m))
    return tuple(admitted), tuple(events)


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
    b = half_scaled_components(spec.b_source, n, budget=budget)
    unreached = a.minus_translates(b.reflect(), points_union(p.value for p in points))
    return GreedyCertificate(n, points, deferrals, unreached == a)


# ---------------------------------------------------------------------
# self-similarity shift


def branch_shift(stage: CantorStage, address: NodeAddress) -> Fraction:
    """Shift carrying the leftmost depth-|address| branch onto the
    addressed branch, verified exactly on the stage components.

    Only central stages are self-similar in this sense; other families
    are rejected.
    """
    if stage.family != "central":
        raise InvalidSpecError(
            f"branch shifts require a central stage, got family {stage.family!r}"
        )
    _check_address(address)
    depth = len(address)
    if depth > stage.n:
        raise ValueError(f"address depth {depth} exceeds stage {stage.n}")
    parts = stage.components.parts
    per_branch = len(parts) >> depth
    index = int(address, 2) if address else 0
    shift = parts[index * per_branch].lo  # leftmost branch starts at 0
    left = IntervalUnion(parts[:per_branch])
    target = IntervalUnion(parts[index * per_branch : (index + 1) * per_branch])
    if left.translate(shift) != target:
        raise InvalidSpecError(
            f"stage is not shift-identical on branch {address!r}"
        )
    return shift


# ---------------------------------------------------------------------
# built-in example specs


def builtin_ternary() -> CentralSpec:
    return CentralSpec.constant(Fraction(1, 3))


def builtin_half() -> CentralSpec:
    return CentralSpec.constant(Fraction(1, 2))


def builtin_perturbed() -> PerturbedSpec:
    return PerturbedSpec(Fraction(1, 5))


def builtin_composite_pair() -> CompositeSpec:
    half = builtin_half()
    return CompositeSpec(half, half)


def builtin_fat_composite(base: RationalLike = Fraction(1, 4)) -> GreedySpec:
    return GreedySpec(CentralSpec.geometric(base))
