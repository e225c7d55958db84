"""Exact arithmetic on finite unions of rational intervals.

Endpoints are ``fractions.Fraction`` values and every interval carries
per-endpoint openness flags, so punctured neighbourhoods and isolated
points survive set algebra intact.  All operations are pure functions on
immutable values and return normalized unions: parts sorted by left
endpoint, pairwise disjoint, with only open/open adjacencies (genuine
single-point punctures) left unmerged.

A union stores one integer key per endpoint.  On its grid of step
``1/grid`` (the least common multiple of its reduced denominators, so
the generated ``==`` and ``hash`` are set equality) the point ``x`` has
key ``3*x*grid``; an open start adds 1 and an open end subtracts 1.  A
part is then the inclusive key range ``[start, end]``, nonempty iff
``start <= end``, and an open cell between grid points holds two keys,
so nothing is lost.  With ``A = a*grid`` and ``B = b*grid``:

    [a, b]  ->  [3A, 3B]        (a, b)  ->  [3A + 1, 3B - 1]

Two ranges in start order merge iff ``next_start <= prev_end + 1``,
which merges closed touches and keeps open/open punctures apart; a
union is normalized iff its keys strictly increase with at least one
key between consecutive ranges.  Union is a merge, intersection and
difference are two-pointer walks, and a Minkowski sum adds keys, taking
one unit back at an end where both summands are open.  One affine map
of the keys (``_moved``) lifts operands to a common grid, reduces each
result to its own, and reflects, translates and scales.  ``Fraction``
values are made only where parts, points or measures are read.

A Minkowski sum has one path for every size (``_sum_rows``): rows of
translates, each merged, are combined pairwise like a binary counter.
It holds one merged partial union per level, so memory follows the
sizes of those unions rather than the number of pairs.  A sum may be
given a frame interval (``within``): each row then sums only the pairs
whose sums reach the frame, a slice of the other operand found with
two ``bisect`` calls on its start and end keys, and the merged result
is met with the frame.  Trimming is exact, because a point ``x + y``
of the frame lies in the sum of its own pair, which reaches the frame.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "RationalLike",
    "format_rational",
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
# A key range is (start, end), both keys on one grid of step 1/grid.

_Range = tuple[int, int]


def _encode(parts: Sequence[Interval]) -> tuple[list[_Range], int]:
    """The key ranges of ``parts`` on their grid, the least common
    multiple of every endpoint denominator, and that grid."""
    grid = lcm(*{d for p in parts for d in (p.lo.denominator, p.hi.denominator)})
    k = 3 * grid
    ranges = [
        (
            p.lo.numerator * (k // p.lo.denominator) + (not p.lo_closed),
            p.hi.numerator * (k // p.hi.denominator) - (not p.hi_closed),
        )
        for p in parts
    ]
    return ranges, grid


def _interval(s: int, e: int, grid: int) -> Interval:
    """The interval of the key range ``[s, e]`` on ``grid``."""
    return Interval(
        Fraction(s // 3, grid), Fraction((e + 1) // 3, grid), s % 3 == 0, e % 3 == 0
    )


def _moved(ranges: Iterable[_Range], m: int, d: int = 0, q: int = 1) -> list[_Range]:
    """Each end moved as its closed key ``c`` to ``(m*c + d) // q``, exact
    on closed keys; an end keeps its openness, and ``m < 0`` reverses the
    ranges and swaps their ends."""
    sign = 1 if m > 0 else -1
    moved = []
    for s, e in ranges:
        so, eo = s % 3, e % 3 // 2  # 1 at an open end
        moved.append(
            ((m * (s - so) + d) // q + sign * so, (m * (e + eo) + d) // q - sign * eo)
        )
    if m < 0:
        moved = [(e, s) for s, e in reversed(moved)]
    return moved


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


def _meet(a: Iterable[_Range], b: Iterable[_Range]) -> list[_Range]:
    """The keys held by both normalized, nonempty ``a`` and ``b``."""
    a, b = iter(a), iter(b)
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


def _minus(a: Iterable[_Range], b: Iterable[_Range]) -> list[_Range]:
    """The keys of normalized ``a`` that no range of normalized ``b`` holds."""
    b = iter(b)
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


def _row_sums(
    a: Sequence[_Range], b: Sequence[_Range], frame: _Range | None = None
) -> Iterator[Iterator[_Range]]:
    """Per range of ``a``, its sums with the ranges of ``b`` in start order;
    with a ``frame`` key range, only the sums that reach it.

    A sum end is attained iff both summand ends are: where the ``a`` end
    is open, the ``b`` end enters with its closed key (``3*x*grid``), so
    the one open unit is counted once.  Both adjusted key lists of ``b``
    increase, so the sums of one row that reach ``[fs, fe]`` are a slice:
    from the first whose end key is at least ``fs`` to the last whose
    start key is at most ``fe``.  Rows with an empty slice are skipped.
    """
    starts = ([s for s, _ in b], [s - s % 3 for s, _ in b])
    ends = ([e for _, e in b], [e + e % 3 // 2 for _, e in b])
    for sa, ea in a:
        row_starts, row_ends = starts[sa % 3], ends[ea % 3 // 2]
        if frame is not None:
            i = bisect_left(row_ends, frame[0] - ea)
            j = bisect_right(row_starts, frame[1] - sa)
            if i >= j:
                continue
            row_starts, row_ends = row_starts[i:j], row_ends[i:j]
        yield zip(map(sa.__add__, row_starts), map(ea.__add__, row_ends))


def _from_ranges(ranges: Sequence[_Range], grid: int) -> "IntervalUnion":
    """The union of normalized key ranges, checked on the keys and stored
    on its canonical grid: ``grid`` over its greatest common divisor with
    every endpoint's closed key over 3."""
    # Normalized order: at least one key between consecutive ranges.
    if not all(e + 1 < s for (_, e), (s, _) in pairwise(ranges)):
        raise ValueError("IntervalUnion parts not normalized")
    g = grid
    for s, e in ranges:
        g = gcd(g, s // 3, (e + 1) // 3)
        if g == 1:
            break
    if g > 1:
        ranges, grid = _moved(ranges, 1, 0, g), grid // g
    union = object.__new__(IntervalUnion)
    object.__setattr__(union, "grid", grid)
    object.__setattr__(union, "ranges", tuple(ranges))
    return union


def _sum_rows(
    a: Sequence[_Range], b: Sequence[_Range], frame: _Range | None = None
) -> list[_Range]:
    """Merged pairwise sums of normalized ``a`` and ``b`` (those that
    reach ``frame``, if given; see ``_row_sums``).

    Each row is a translate of ``b``, so it is already in start order
    and is merged on its own.  Merged rows are combined like a binary
    counter: whenever the two newest partial unions cover equal numbers
    of rows, they are concatenated, sorted (Timsort sees two runs) and
    merged; what is left at the end is merged newest first.  A range
    takes part in at most about ``log2(len(a))`` merges, and the stack
    holds one merged partial union per level, never the whole product.
    """
    stack: list[tuple[int, list[_Range]]] = []
    for row in _row_sums(a, b, frame):
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


@dataclass(frozen=True, slots=True, init=False)
class IntervalUnion:
    """A normalized finite union of pairwise-disjoint intervals.

    It stores the key ranges of its parts on its canonical grid.
    Construct through :func:`normalize` (or the ``union_of`` helper)
    unless the parts are already in normalized order; the constructor
    raises ``ValueError`` on parts that are not.
    """

    grid: int
    ranges: tuple[_Range, ...]

    def __new__(cls, parts: Iterable[Interval] = ()) -> "IntervalUnion":
        return _from_ranges(*_encode(tuple(parts)))

    def _on(self, grid: int) -> Sequence[_Range]:
        """The key ranges on ``grid``, a multiple of this union's grid."""
        if grid == self.grid:
            return self.ranges
        return _moved(self.ranges, grid // self.grid)

    # -- basic queries -----------------------------------------------

    @property
    def parts(self) -> tuple[Interval, ...]:
        """The intervals, decoded from the keys on each access."""
        return tuple(_interval(s, e, self.grid) for s, e in self.ranges)

    @property
    def is_empty(self) -> bool:
        return not self.ranges

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.ranges)

    def __str__(self) -> str:
        return " | ".join(map(str, self.parts)) or "{}"

    def measure(self) -> Fraction:
        """Total length; openness never affects measure."""
        steps = sum((e + 1) // 3 - (s + 1) // 3 for s, e in self.ranges)
        return Fraction(steps, self.grid)

    def max_component_length(self) -> Fraction:
        steps = max(((e + 1) // 3 - (s + 1) // 3 for s, e in self.ranges), default=0)
        return Fraction(steps, self.grid)

    def hull(self) -> Interval | None:
        """Smallest closed interval containing the union, None if empty."""
        if not self.ranges:
            return None
        s, e = self.ranges[0][0], self.ranges[-1][1]
        return _interval(s - s % 3, e + e % 3 // 2, self.grid)

    def point_parts(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(s // 3, self.grid) for s, e in self.ranges if s == e)

    def endpoints(self) -> tuple[Fraction, ...]:
        """The ends of each part in order, a point part's once."""
        keys = (k for s, e in self.ranges for k in ((s,) if s == e else (s, e + 1)))
        return tuple(Fraction(k // 3, self.grid) for k in keys)

    def contains_point(self, x: RationalLike) -> bool:
        x = as_rational(x)
        g, r = divmod(x.numerator * self.grid, x.denominator)  # x*grid in [g, g + 1)
        key = 3 * g + (r > 0)  # off the grid: the interior key of x's open cell
        i = bisect_right(self.ranges, key, key=itemgetter(0))
        return i > 0 and self.ranges[i - 1][1] >= key

    def __contains__(self, x: RationalLike) -> bool:
        return self.contains_point(x)

    # -- boolean algebra ----------------------------------------------

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        grid = lcm(self.grid, other.grid)
        return _from_ranges(_merge(sorted([*self._on(grid), *other._on(grid)])), grid)

    def __or__(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.union(other)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        if self.is_empty or other.is_empty:
            return EMPTY
        grid = lcm(self.grid, other.grid)
        return _from_ranges(_meet(self._on(grid), other._on(grid)), grid)

    def __and__(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.intersect(other)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set difference self minus other (not the algebraic difference)."""
        if self.is_empty or other.is_empty:
            return self
        grid = lcm(self.grid, other.grid)
        return _from_ranges(_minus(self._on(grid), other._on(grid)), grid)

    def minus_translates(
        self, other: "IntervalUnion", shifts: "IntervalUnion"
    ) -> "IntervalUnion":
        """self minus the union of ``other + t`` over the ends ``t`` of
        the parts of ``shifts`` (the points of a ``points_union``).

        The translates are never united: each distinct shift cuts its
        translate out of the pieces of self still left, with ``bisect``
        over the end keys of ``other``, so the work is the live pieces
        summed over the shifts, plus the cuts.  The shifts go from the
        middle of their sorted list outward, which brings the fine cuts
        of either end last and keeps the piece count low meanwhile.
        """
        if self.is_empty or other.is_empty or shifts.is_empty:
            return self
        grid = lcm(self.grid, other.grid, shifts.grid)
        # Each shift adds its closed key to every key of ``other``.
        keys = sorted(
            {k for s, e in shifts._on(grid) for k in (s - s % 3, e + e % 3 // 2)}
        )
        starts, ends = map(list, zip(*other._on(grid)))
        count = len(starts)
        pieces = self._on(grid)
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

    def complement_within(self, frame: Interval) -> "IntervalUnion":
        """Frame minus self; parts of self outside the frame are ignored."""
        return IntervalUnion((frame,)).difference(self)

    def is_subset(self, other: "IntervalUnion") -> bool:
        grid = lcm(self.grid, other.grid)
        return not _minus(self._on(grid), other._on(grid))

    # -- affine maps ---------------------------------------------------

    def _affine(self, k: Fraction | int, t: Fraction | int) -> "IntervalUnion":
        """{k*x + t : x in self} for k != 0, mapped on the keys.

        On the grid ``lcm(grid * k.denominator, t.denominator)`` a closed
        key ``c`` goes to ``m*c + d`` (see ``_moved``).
        """
        grid = lcm(self.grid * k.denominator, t.denominator)
        m = k.numerator * (grid // (self.grid * k.denominator))
        d = 3 * t.numerator * (grid // t.denominator)
        return _from_ranges(_moved(self.ranges, m, d), grid)

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

    def minkowski_sum(
        self, other: "IntervalUnion", within: Interval | None = None
    ) -> "IntervalUnion":
        """{x + y : x in self, y in other}, met with ``within`` if given.

        A result endpoint is attained (closed) iff both contributing
        endpoints are attained; pairwise interval sums are exact under
        this rule, and they are merged row by row (see ``_sum_rows``).
        With a frame, only the pairs whose sums reach it are summed: a
        point ``x + y`` of the frame lies in the sum of its own pair, so
        the rest add nothing to the result.
        """
        if self.is_empty or other.is_empty:
            return EMPTY
        grid = lcm(self.grid, other.grid)
        frame = None
        if within is not None:
            frame_ranges, frame_grid = _encode((within,))
            grid = lcm(grid, frame_grid)
            (frame,) = _moved(frame_ranges, grid // frame_grid)
        a, b = self._on(grid), other._on(grid)
        if len(a) > len(b):  # fewer, longer rows: fewer merge levels
            a, b = b, a
        merged = _sum_rows(a, b, frame)
        if frame is not None and merged:
            merged = _meet(merged, (frame,))
        return _from_ranges(merged, grid)

    def __add__(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.minkowski_sum(other)


def normalize(intervals: Iterable[Interval]) -> IntervalUnion:
    """Canonical union of an arbitrary finite collection of intervals.

    Sorts, merges every overlapping or closed-touching pair, and keeps
    open/open adjacencies as punctures.  Idempotent.
    """
    ranges, grid = _encode(list(intervals))
    return _from_ranges(_merge(sorted(ranges)), grid)


def union_of(*intervals: Interval) -> IntervalUnion:
    return normalize(intervals)


def points_union(values: Iterable[RationalLike]) -> IntervalUnion:
    """Union of degenerate point parts, one per distinct value."""
    return normalize(Interval.point(v) for v in values)


EMPTY = IntervalUnion(())
UNIT = Interval.closed(0, 1)
HALF = Interval.closed(0, Fraction(1, 2))
BOX = Interval.closed(-1, 1)
