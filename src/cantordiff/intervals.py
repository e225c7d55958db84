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
key between consecutive ranges.  Union is a merge, intersection a
two-pointer walk, and difference a cut (``_cut``, which also cuts the
translates of ``minus_translates``): each piece in the hull of the cut
ranges finds the first range that reaches it with one ``bisect``.  A
Minkowski sum adds keys, taking one unit back at an end where both
summands are open.  One affine map of the keys (``_moved``) lifts
operands to a common grid, reduces each result to its own, and
reflects, translates and scales.  ``Fraction`` values are made only
where parts, points or measures are read.

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
from fractions import Fraction
from itertools import pairwise
from math import gcd, isqrt, lcm
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Iterator, Sequence

__all__ = [
    "Interval",
    "IntervalUnion",
    "normalize",
    "points_union",
    "EMPTY",
    "UNIT",
    "BOX",
]

def _record(cls: type) -> type:
    """``cls`` as a frozen slots record, like ``dataclass(frozen=True,
    slots=True)`` but without its ``exec`` (about 1 ms a class at start-up).
    The fields are the class's own annotations, a field's class attribute
    is its default, ``==`` holds only within one class (specs are cache
    keys), and a class with its own ``__new__`` gets no ``__init__``."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    fields = set(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        given = dict(zip(names, args))
        values = {**defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != fields:
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
        __setstate__(self, [values[name] for name in names])
        post_init(self)

    def __setstate__(self, state: Sequence[Any]) -> None:
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return key(self) == key(other) if same else NotImplemented

    def __repr__(self) -> str:
        values = ", ".join(f"{n}={v!r}" for n, v in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    dropped = ("__dict__", "__weakref__", *defaults)
    ns = {k: v for k, v in cls.__dict__.items() if k not in dropped}
    ns.update(
        __eq__=__eq__, __hash__=lambda self: hash(key(self)), __repr__=__repr__,
        __setattr__=__setattr__, __delattr__=__delattr__, __match_args__=names,
        __setstate__=__setstate__, __qualname__=cls.__qualname__, __slots__=names,
        # copies and pickles are made past __init__ and __new__
        __reduce__=lambda self: (object.__new__, (self.__class__,), key(self)),
    )
    if "__new__" not in cls.__dict__:
        ns["__init__"] = __init__
    return type(cls)(cls.__name__, cls.__bases__, ns)


@_record
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
        if type(self.lo) is not Fraction or type(self.hi) is not Fraction:
            for name in ("lo", "hi"):
                end = getattr(self, name)
                if type(end) is int:
                    object.__setattr__(self, name, Fraction(end))
                elif not isinstance(end, Fraction):
                    raise TypeError(
                        f"interval ends are Fraction or int, not {type(end).__name__}"
                    )
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a degenerate interval must be closed at both ends")

    # -- constructors ------------------------------------------------

    @classmethod
    def closed(cls, lo: Fraction | int, hi: Fraction | int) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def open(cls, lo: Fraction | int, hi: Fraction | int) -> "Interval":
        return cls(lo, hi, False, False)

    @classmethod
    def point(cls, x: Fraction | int) -> "Interval":
        return cls(x, x, True, True)

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


def _cut(
    pieces: list[_Range], starts: Sequence[int], ends: Sequence[int], a: int, b: int
) -> None:
    """Remove every key range ``[starts[j] + a, ends[j] + b]`` from the
    normalized ``pieces``, in place.

    Both key lists increase; the ranges may overlap.  Only the pieces in
    the hull ``[starts[0] + a, ends[-1] + b]`` are visited, a slice found
    with two ``bisect`` calls, and each starts from the first range that
    reaches it, found with one more.
    """
    if not starts:
        return
    lo = bisect_left(pieces, starts[0] + a, key=itemgetter(1))
    hi = bisect_right(pieces, ends[-1] + b, key=itemgetter(0))
    count = len(starts)
    kept = []
    for s, e in pieces[lo:hi]:
        j = bisect_left(ends, s - b)
        while j < count and starts[j] + a <= e:
            if starts[j] + a > s:
                kept.append((s, starts[j] + a - 1))
            s = ends[j] + b + 1
            j += 1
        if s <= e:
            kept.append((s, e))
    pieces[lo:hi] = kept


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


@_record
class IntervalUnion:
    """A normalized finite union of pairwise-disjoint intervals.

    It stores the key ranges of its parts on its canonical grid.
    Construct through :func:`normalize` unless the parts are already in
    normalized order; the constructor raises ``ValueError`` on parts that
    are not.
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

    def __len__(self) -> int:
        return len(self.ranges)

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

    def contains_point(self, x: Fraction | int) -> bool:
        g, r = divmod(x.numerator * self.grid, x.denominator)  # x*grid in [g, g + 1)
        key = 3 * g + (r > 0)  # off the grid: the interior key of x's open cell
        i = bisect_right(self.ranges, key, key=itemgetter(0))
        return i > 0 and self.ranges[i - 1][1] >= key

    # -- boolean algebra ----------------------------------------------

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        grid = lcm(self.grid, other.grid)
        return _from_ranges(_merge(sorted([*self._on(grid), *other._on(grid)])), grid)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        if self.is_empty or other.is_empty:
            return EMPTY
        grid = lcm(self.grid, other.grid)
        return _from_ranges(_meet(self._on(grid), other._on(grid)), grid)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set difference self minus other (not the algebraic difference)."""
        if self.is_empty or other.is_empty:
            return self
        grid = lcm(self.grid, other.grid)
        pieces, cuts = list(self._on(grid)), other._on(grid)
        _cut(pieces, [s for s, _ in cuts], [e for _, e in cuts], 0, 0)
        return _from_ranges(pieces, grid)

    def minus_translates(
        self, other: "IntervalUnion", shifts: "IntervalUnion"
    ) -> "IntervalUnion":
        """self minus the union of ``other + t`` over the ends ``t`` of
        the parts of ``shifts`` (the points of a ``points_union``).

        The translates are never united.  They are cut out of the pieces
        of self still left in two phases, each one ``_cut`` per part or
        per shift, with ``k`` the number of distinct shifts:

        1. While at most ``isqrt(k)`` pieces are left, the parts of
           ``other`` go longest first, each one ``_cut`` of all its
           translates, ``[start + t, end + t]`` over the shift keys, out
           of the pieces that their hull reaches.  The long parts'
           translates overlap, so they take most of self while few
           pieces are left, and each costs only the pieces it reaches.
        2. From then on, one shift at a time from the middle of the
           sorted shifts outward, one ``_cut`` of the translate of all
           of ``other``.  The middle-out order brings the fine cuts of
           either end last.  Parts that phase 1 has cut find nothing
           left to cut.

        Phase 1 pays up to ``k`` translates for every part, phase 2
        every piece in reach for every shift: the first is cheap while
        the pieces are few, the second once they are many.  The switch
        point follows from the inputs alone.  Where self has more than
        ``isqrt(k)`` pieces from the start, as for a single shift, the
        parts are never sorted and phase 2 runs alone.
        """
        if self.is_empty or other.is_empty or shifts.is_empty:
            return self
        grid = lcm(self.grid, other.grid, shifts.grid)
        # Each shift adds its closed key to every key of ``other``.
        keys = sorted(
            {k for s, e in shifts._on(grid) for k in (s - s % 3, e + e % 3 // 2)}
        )
        parts = other._on(grid)
        pieces = list(self._on(grid))
        shift_count = len(keys)
        limit = isqrt(shift_count)
        if len(pieces) <= limit:
            for ps, pe in sorted(parts, key=lambda r: r[0] - r[1]):
                _cut(pieces, keys, keys, ps, pe)
                if len(pieces) > limit:
                    break
            else:
                return _from_ranges(pieces, grid)
        starts, ends = map(list, zip(*parts))
        for i in sorted(range(shift_count), key=lambda i: abs(2 * i + 1 - shift_count)):
            _cut(pieces, starts, ends, keys[i], keys[i])
        return _from_ranges(pieces, grid)

    def complement_within(self, frame: Interval) -> "IntervalUnion":
        """Frame minus self; parts of self outside the frame are ignored."""
        return IntervalUnion((frame,)).difference(self)

    def is_subset(self, other: "IntervalUnion") -> bool:
        return self.difference(other).is_empty

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

    def translate(self, t: Fraction | int) -> "IntervalUnion":
        if t == 0:
            return self
        return self._affine(1, t)

    def scale(self, k: Fraction | int) -> "IntervalUnion":
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


def normalize(intervals: Iterable[Interval]) -> IntervalUnion:
    """Canonical union of an arbitrary finite collection of intervals.

    Sorts, merges every overlapping or closed-touching pair, and keeps
    open/open adjacencies as punctures.  Idempotent.
    """
    ranges, grid = _encode(list(intervals))
    return _from_ranges(_merge(sorted(ranges)), grid)


def points_union(values: Iterable[Fraction | int]) -> IntervalUnion:
    """Union of degenerate point parts, one per distinct value."""
    return normalize(Interval.point(v) for v in values)


EMPTY = IntervalUnion(())
UNIT = Interval.closed(0, 1)
BOX = Interval.closed(-1, 1)
