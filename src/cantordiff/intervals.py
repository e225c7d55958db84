"""Exact arithmetic on finite unions of rational intervals.

Endpoints are ``fractions.Fraction`` values and every interval carries
per-endpoint openness flags, so punctured neighbourhoods and isolated
points survive set algebra intact.  All operations are pure functions on
immutable values and return normalized unions: parts sorted by left
endpoint, pairwise disjoint, with only open/open adjacencies (genuine
single-point punctures) left unmerged.

Every set operation runs on one integer key per endpoint.  On the grid
of step ``1/scale`` (the least common multiple of the denominators in
play) the point ``x`` has key ``3*x*scale``; an open start adds 1 and an
open end subtracts 1.  A part is then the inclusive key range
``[start, end]``, nonempty iff ``start <= end``, and an open cell
between grid points holds two keys, so nothing is lost.  With
``A = a*scale`` and ``B = b*scale``:

    [a, b]  ->  [3A, 3B]        (a, b)  ->  [3A + 1, 3B - 1]

Two ranges in start order merge iff ``next_start <= prev_end + 1``,
which merges closed touches and keeps open/open punctures apart; a
union is normalized iff its keys strictly increase with at least one
key between consecutive ranges.  Intersection and difference are
two-pointer walks over key ranges, and a Minkowski sum adds keys,
taking one unit back at an end where both summands are open.  A
translate by a grid point ``t`` adds ``3*t*scale`` to every key, which
is how ``minus_translates`` cuts many translates out of a union.
Reflection, translation and scaling share one affine map of the keys
(``_affine``), and the measures count whole grid steps per range.

A Minkowski sum has one path for every size (``_sum_rows``): rows of
translates, each merged, are combined pairwise like a binary counter.
It holds one merged partial union per level, so memory follows the
sizes of those unions rather than the number of pairs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import lcm
from operator import attrgetter
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Rational",
    "RationalLike",
    "Interval",
    "IntervalUnion",
    "normalize",
    "union_of",
    "points_union",
    "EMPTY",
    "UNIT",
    "HALF",
    "BOX",
]

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints and "p/q" strings to Fraction; Fractions pass through."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def format_rational(q: Fraction) -> str:
    """Canonical "p/q" text (q > 0, reduced) of the package's JSON dialect."""
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True, slots=True)
class Interval:
    """A nonempty rational interval with per-endpoint openness.

    ``lo == hi`` is allowed only with both ends closed (a degenerate
    point).  The empty set is not representable here; emptiness lives at
    the union level.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a degenerate interval must be closed at both ends")

    # -- constructors ------------------------------------------------

    @classmethod
    def closed(cls, lo: RationalLike, hi: RationalLike) -> "Interval":
        return cls(as_rational(lo), as_rational(hi), True, True)

    @classmethod
    def open(cls, lo: RationalLike, hi: RationalLike) -> "Interval":
        return cls(as_rational(lo), as_rational(hi), False, False)

    @classmethod
    def point(cls, x: RationalLike) -> "Interval":
        x = as_rational(x)
        return cls(x, x, True, True)

    @classmethod
    def left_open(cls, lo: RationalLike, hi: RationalLike) -> "Interval":
        return cls(as_rational(lo), as_rational(hi), False, True)

    @classmethod
    def right_open(cls, lo: RationalLike, hi: RationalLike) -> "Interval":
        return cls(as_rational(lo), as_rational(hi), True, False)

    # -- derived accessors -------------------------------------------

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: RationalLike) -> bool:
        x = as_rational(x)
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        if self.is_point:
            return f"{{{self.lo}}}"
        return f"{left}{self.lo}, {self.hi}{right}"


# -- integer endpoint keys ---------------------------------------------
#
# A key range is (start, end), both keys on one grid of step 1/scale.

_Range = tuple[int, int]


def _grid(*groups: Sequence[Interval]) -> int:
    """Least common multiple of every endpoint denominator."""
    dens: set[int] = set()
    for parts in groups:
        dens.update(p.lo.denominator for p in parts)
        dens.update(p.hi.denominator for p in parts)
    return lcm(*dens)


def _ranges(parts: Iterable[Interval], scale: int) -> Iterator[_Range]:
    k = 3 * scale
    return (
        (
            p.lo.numerator * (k // p.lo.denominator) + (not p.lo_closed),
            p.hi.numerator * (k // p.hi.denominator) - (not p.hi_closed),
        )
        for p in parts
    )


def _common_ranges(
    a: "IntervalUnion", b: "IntervalUnion"
) -> tuple[int, Iterator[_Range], Iterator[_Range]]:
    scale = _grid(a.parts, b.parts)
    return scale, _ranges(a.parts, scale), _ranges(b.parts, scale)


def _increasing(ranges: Iterable[_Range]) -> bool:
    """Normalized order: at least one key between consecutive ranges."""
    return all(e + 1 < s for (_, e), (s, _) in pairwise(ranges))


def _merge(ranges: Iterable[_Range]) -> list[_Range]:
    """Merge ranges given in start order; open/open punctures stay apart."""
    it = iter(ranges)
    for cs, ce in it:
        break
    else:
        return []
    out: list[_Range] = []
    for s, e in it:
        if s > ce + 1:
            out.append((cs, ce))
            cs, ce = s, e
        elif e > ce:
            ce = e
    out.append((cs, ce))
    return out


def _meet(a: Iterator[_Range], b: Iterator[_Range]) -> list[_Range]:
    """The keys held by both normalized, nonempty ``a`` and ``b``."""
    out: list[_Range] = []
    (sa, ea), (sb, eb) = next(a), next(b)
    try:
        while True:
            s, e = max(sa, sb), min(ea, eb)
            if s <= e:
                out.append((s, e))
            if ea <= eb:
                sa, ea = next(a)
            else:
                sb, eb = next(b)
    except StopIteration:
        return out


def _minus(a: Iterable[_Range], b: Iterator[_Range]) -> list[_Range]:
    """The keys of normalized ``a`` that no range of normalized ``b`` holds."""
    out: list[_Range] = []
    cut = next(b, None)
    for s, e in a:
        while cut is not None and cut[0] <= e:
            bs, be = cut
            if s < bs:
                out.append((s, bs - 1))
            s = max(s, be + 1)
            if be > e:  # the cut reaches into the next range of a
                break
            cut = next(b, None)
        if s <= e:
            out.append((s, e))
    return out


def _row_sums(a: list[_Range], b: list[_Range]) -> Iterator[Iterator[_Range]]:
    """Per range of ``a``, its sums with every range of ``b`` in start order.

    A sum end is attained iff both summand ends are: where the ``a`` end
    is open, the ``b`` end enters with its closed key (``3*x*scale``), so
    the one open unit is counted once.
    """
    starts = ([s for s, _ in b], [s - s % 3 for s, _ in b])
    ends = ([e for _, e in b], [e + e % 3 // 2 for _, e in b])
    for sa, ea in a:
        yield zip(map(sa.__add__, starts[sa % 3]), map(ea.__add__, ends[ea % 3 // 2]))


def _from_ranges(ranges: list[_Range], scale: int) -> "IntervalUnion":
    """The union of normalized key ranges, checked on the keys themselves."""
    if not _increasing(ranges):
        raise ValueError("IntervalUnion parts not normalized")
    parts = []
    for s, e in ranges:
        lo, lo_open = divmod(s, 3)
        hi, hi_closed = divmod(e + 1, 3)
        parts.append(
            Interval(
                Fraction(lo, scale), Fraction(hi, scale), not lo_open, hi_closed == 1
            )
        )
    union = object.__new__(IntervalUnion)
    object.__setattr__(union, "parts", tuple(parts))
    return union


def _sum_rows(a: list[_Range], b: list[_Range]) -> list[_Range]:
    """Merged pairwise sums of normalized ``a`` and ``b``.

    Each row is a translate of ``b``, so it is already in start order
    and is merged on its own.  Merged rows are combined like a binary
    counter: whenever the two newest partial unions cover equal numbers
    of rows, they are concatenated, sorted (Timsort sees two runs) and
    merged; what is left at the end is merged newest first.  A range
    takes part in at most about ``log2(len(a))`` merges, and the stack
    holds one merged partial union per level, never the whole product.
    """
    stack: list[tuple[int, list[_Range]]] = []
    for row in _row_sums(a, b):
        rows, ranges = 1, _merge(row)
        while stack and stack[-1][0] == rows:
            below = stack.pop()[1]
            below += ranges
            below.sort()
            rows, ranges = 2 * rows, _merge(below)
        stack.append((rows, ranges))
    merged: list[_Range] = []
    for _, ranges in reversed(stack):
        merged += ranges
        merged.sort()
        merged = _merge(merged)
    return merged


@dataclass(frozen=True, slots=True)
class IntervalUnion:
    """A normalized finite union of pairwise-disjoint intervals.

    Construct through :func:`normalize` (or the ``union_of`` helper)
    unless the parts are already in normalized order; the constructor
    raises ``ValueError`` on parts that are not.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.parts, tuple):
            object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) > 1 and not _increasing(
            _ranges(self.parts, _grid(self.parts))
        ):
            raise ValueError("IntervalUnion parts not normalized")

    # -- basic queries -----------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return " | ".join(str(p) for p in self.parts)

    def _lengths(self) -> tuple[int, Iterator[int]]:
        """The grid scale and each part's length in steps of ``1/scale``."""
        scale = _grid(self.parts)
        ranges = _ranges(self.parts, scale)
        return scale, ((e + 1) // 3 - (s + 1) // 3 for s, e in ranges)

    def measure(self) -> Fraction:
        """Total length; openness never affects measure."""
        scale, lengths = self._lengths()
        return Fraction(sum(lengths), scale)

    def max_component_length(self) -> Fraction:
        scale, lengths = self._lengths()
        return Fraction(max(lengths, default=0), scale)

    def hull(self) -> Interval | None:
        """Smallest closed interval containing the union, None if empty."""
        if not self.parts:
            return None
        return Interval(self.parts[0].lo, self.parts[-1].hi, True, True)

    def point_parts(self) -> tuple[Fraction, ...]:
        return tuple(p.lo for p in self.parts if p.is_point)

    def interval_parts(self) -> tuple[Interval, ...]:
        return tuple(p for p in self.parts if not p.is_point)

    def contains_point(self, x: RationalLike) -> bool:
        x = as_rational(x)
        i = bisect_right(self.parts, x, key=attrgetter("lo"))
        return i > 0 and self.parts[i - 1].contains(x)

    def __contains__(self, x: RationalLike) -> bool:
        return self.contains_point(x)

    # -- boolean algebra ----------------------------------------------

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return normalize(self.parts + other.parts)

    def __or__(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.union(other)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        if self.is_empty or other.is_empty:
            return EMPTY
        scale, a, b = _common_ranges(self, other)
        return _from_ranges(_meet(a, b), scale)

    def __and__(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.intersect(other)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set difference self minus other (not the algebraic difference)."""
        if self.is_empty or other.is_empty:
            return self
        scale, a, b = _common_ranges(self, other)
        return _from_ranges(_minus(a, b), scale)

    def minus_translates(
        self, other: "IntervalUnion", shifts: Iterable[RationalLike]
    ) -> "IntervalUnion":
        """self minus the union of ``other + t`` over ``t`` in ``shifts``.

        The translates are never united: each distinct shift cuts its
        translate out of the pieces of self still left, with ``bisect``
        over the end keys of ``other``, so the work is the live pieces
        summed over the shifts, plus the cuts.  The shifts go from the
        middle of their sorted list outward, which brings the fine cuts
        of either end last and keeps the piece count low meanwhile.
        """
        shifts = [as_rational(t) for t in shifts]
        if self.is_empty or other.is_empty or not shifts:
            return self
        scale = lcm(_grid(self.parts, other.parts), *{t.denominator for t in shifts})
        k = 3 * scale
        keys = sorted({t.numerator * (k // t.denominator) for t in shifts})
        starts, ends = map(list, zip(*_ranges(other.parts, scale)))
        count = len(starts)
        pieces = list(_ranges(self.parts, scale))
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
        return _from_ranges(pieces, scale)

    def complement_within(self, frame: Interval) -> "IntervalUnion":
        """Frame minus self; parts of self outside the frame are ignored."""
        return IntervalUnion((frame,)).difference(self)

    def is_subset(self, other: "IntervalUnion") -> bool:
        _, a, b = _common_ranges(self, other)
        return not _minus(a, b)

    # -- affine maps ---------------------------------------------------

    def _affine(self, k: Fraction | int, t: Fraction | int) -> "IntervalUnion":
        """{k*x + t : x in self} for k != 0, mapped on the keys.

        On the grid ``lcm(scale * k.denominator, t.denominator)`` a closed
        key ``c`` goes to ``m*c + d``.  Each end moves as its closed key
        and keeps its openness; k < 0 reverses the ranges and swaps ends.
        """
        scale = _grid(self.parts)
        grid = lcm(scale * k.denominator, t.denominator)
        m = k.numerator * (grid // (scale * k.denominator))
        d = 3 * t.numerator * (grid // t.denominator)
        sign = 1 if k > 0 else -1
        ranges = []
        for s, e in _ranges(self.parts, scale):
            so, eo = s % 3, e % 3 // 2  # 1 at an open end
            ranges.append((m * (s - so) + d + sign * so, m * (e + eo) + d - sign * eo))
        if k < 0:
            ranges = [(e, s) for s, e in reversed(ranges)]
        return _from_ranges(ranges, grid)

    def reflect(self) -> "IntervalUnion":
        """The mirror image {-x : x in self}; flags swap ends."""
        return self._affine(-1, 0)

    def __neg__(self) -> "IntervalUnion":
        return self.reflect()

    def translate(self, t: RationalLike) -> "IntervalUnion":
        t = as_rational(t)
        if t == 0:
            return self
        return self._affine(1, t)

    def scale(self, k: RationalLike) -> "IntervalUnion":
        k = as_rational(k)
        if k == 0:
            raise ValueError("scale factor must be nonzero")
        return self._affine(k, 0)

    # -- Minkowski sum --------------------------------------------------

    def minkowski_sum(self, other: "IntervalUnion") -> "IntervalUnion":
        """{x + y : x in self, y in other}.

        A result endpoint is attained (closed) iff both contributing
        endpoints are attained; pairwise interval sums are exact under
        this rule, and they are merged row by row (see ``_sum_rows``).
        """
        if self.is_empty or other.is_empty:
            return EMPTY
        scale, a, b = _common_ranges(self, other)
        a, b = list(a), list(b)
        if len(a) > len(b):  # fewer, longer rows: fewer merge levels
            a, b = b, a
        return _from_ranges(_sum_rows(a, b), scale)

    def __add__(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.minkowski_sum(other)


def normalize(intervals: Iterable[Interval]) -> IntervalUnion:
    """Canonical union of an arbitrary finite collection of intervals.

    Sorts, merges every overlapping or closed-touching pair, and keeps
    open/open adjacencies as punctures.  Idempotent.
    """
    parts = list(intervals)
    if not parts:
        return EMPTY
    scale = _grid(parts)
    return _from_ranges(_merge(sorted(_ranges(parts, scale))), scale)


def union_of(*intervals: Interval) -> IntervalUnion:
    return normalize(intervals)


def points_union(values: Iterable[RationalLike]) -> IntervalUnion:
    """Union of degenerate point parts, one per distinct value."""
    return normalize(Interval.point(v) for v in values)


EMPTY = IntervalUnion(())
UNIT = Interval.closed(0, 1)
HALF = Interval.closed(0, Fraction(1, 2))
BOX = Interval.closed(-1, 1)
