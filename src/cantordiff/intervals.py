"""Exact arithmetic on finite unions of rational intervals.

Endpoints are ``fractions.Fraction`` values and every interval carries
per-endpoint openness flags, so punctured neighbourhoods and isolated
points survive set algebra intact.  All operations are pure functions on
immutable values and return normalized unions: parts sorted by left
endpoint, pairwise disjoint, with only open/open adjacencies (genuine
single-point punctures) left unmerged.

Internally the heavy operations run on an integer grid.  Every endpoint
is scaled by the least common multiple of the denominators in play and
openness is encoded as an infinitesimal offset ``eps``:

    (x, -1)  just below x      (open right end)
    (x,  0)  exactly x         (closed end)
    (x, +1)  just above x      (open left end)

Two parts merge exactly when the next start is at or before the
successor of the previous end in this encoding, which reproduces the
puncture-preserving adjacency rule with plain integer comparisons.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


# Endpoint keys: (coordinate, eps).  Start keys use eps in {0, +1},
# end keys use eps in {-1, 0}; both live on the same ordered axis.

def _skey(p: Interval) -> tuple[Fraction, int]:
    return (p.lo, 0 if p.lo_closed else 1)


def _ekey(p: Interval) -> tuple[Fraction, int]:
    return (p.hi, 0 if p.hi_closed else -1)


def _span_nonempty(s: tuple[Fraction, int], e: tuple[Fraction, int]) -> bool:
    # A real point x satisfies s <= (x, 0) <= e iff the span is nonempty.
    return s[0] < e[0] or (s[0] == e[0] and s[1] == 0 and e[1] == 0)


def _span_interval(s: tuple[Fraction, int], e: tuple[Fraction, int]) -> Interval:
    return Interval(s[0], e[0], s[1] == 0, e[1] == 0)


# -- scaled-integer engine -------------------------------------------
#
# A scaled term is (lo, lo_eps, hi, hi_eps) with lo/hi integers over a
# shared denominator.  Terms sort lexicographically in sweep order.

_Term = tuple[int, int, int, int]


def _scaled_terms(parts: Sequence[Interval]) -> tuple[int, list[_Term]]:
    dens = {p.lo.denominator for p in parts} | {p.hi.denominator for p in parts}
    scale = lcm(*dens) if dens else 1
    terms = [
        (
            p.lo.numerator * (scale // p.lo.denominator),
            0 if p.lo_closed else 1,
            p.hi.numerator * (scale // p.hi.denominator),
            0 if p.hi_closed else -1,
        )
        for p in parts
    ]
    return scale, terms


def _rescale(terms: list[_Term], factor: int) -> list[_Term]:
    if factor == 1:
        return terms
    return [(lo * factor, sl, hi * factor, sh) for lo, sl, hi, sh in terms]


def _sweep(terms: list[_Term]) -> list[_Term]:
    """Merge a sorted list of scaled terms into normalized form."""
    out: list[_Term] = []
    clo = csl = chi = csh = None
    for lo, sl, hi, sh in terms:
        if clo is None:
            clo, csl, chi, csh = lo, sl, hi, sh
        elif lo < chi or (lo == chi and sl <= csh + 1):
            if hi > chi or (hi == chi and sh > csh):
                chi, csh = hi, sh
        else:
            out.append((clo, csl, chi, csh))
            clo, csl, chi, csh = lo, sl, hi, sh
    if clo is not None:
        out.append((clo, csl, chi, csh))
    return out


def _parts_from_terms(terms: Iterable[_Term], scale: int) -> tuple[Interval, ...]:
    return tuple(
        Interval(Fraction(lo, scale), Fraction(hi, scale), sl == 0, sh == 0)
        for lo, sl, hi, sh in terms
    )


# Pair counts up to this limit go through one dedup set; larger products
# stream per-part runs and merge them in bounded chunks.
_PRODUCT_DEDUP_LIMIT = 3_000_000
_CHUNK_PARTS = 1_500_000


def _big_product(small: list[_Term], big: list[_Term]) -> list[_Term]:
    """Pairwise sums of two term lists, memory-bounded.

    ``big`` is normalized, so each translated copy of it is already
    sorted and can be pre-merged in one linear pass; chunks of surviving
    parts are then sorted and swept, and the chunk outputs merged once.
    """
    partials: list[list[_Term]] = []
    buf: list[_Term] = []
    for al, asl, ah, ash in small:
        clo = csl = chi = csh = None
        for bl, bsl, bh, bsh in big:
            lo = al + bl
            sl = asl | bsl
            hi = ah + bh
            sh = ash | bsh
            if clo is None:
                clo, csl, chi, csh = lo, sl, hi, sh
            elif lo < chi or (lo == chi and sl <= csh + 1):
                if hi > chi or (hi == chi and sh > csh):
                    chi, csh = hi, sh
            else:
                buf.append((clo, csl, chi, csh))
                clo, csl, chi, csh = lo, sl, hi, sh
        buf.append((clo, csl, chi, csh))
        if len(buf) >= _CHUNK_PARTS:
            buf.sort()
            partials.append(_sweep(buf))
            buf = []
    if buf:
        buf.sort()
        partials.append(_sweep(buf))
    if len(partials) == 1:
        return partials[0]
    merged: list[_Term] = []
    for p in partials:
        merged.extend(p)
    merged.sort()
    return _sweep(merged)


def _check_normalized(parts: tuple[Interval, ...]) -> bool:
    for prev, nxt in zip(parts, parts[1:]):
        pe = _ekey(prev)
        ns = _skey(nxt)
        # A genuine gap requires the next start strictly beyond the
        # successor of the previous end.
        if not (ns > (pe[0], pe[1] + 1)):
            return False
    return True


@dataclass(frozen=True, slots=True)
class IntervalUnion:
    """A normalized finite union of pairwise-disjoint intervals.

    Construct through :func:`normalize` (or the ``union_of`` helper)
    unless the parts are already in normalized order; the constructor
    asserts normalization in debug builds.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.parts, tuple):
            object.__setattr__(self, "parts", tuple(self.parts))
        assert _check_normalized(self.parts), "IntervalUnion parts not normalized"

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

    def measure(self) -> Fraction:
        """Total length; openness never affects measure."""
        total = Fraction(0)
        for p in self.parts:
            total += p.hi - p.lo
        return total

    def max_component_length(self) -> Fraction:
        if not self.parts:
            return Fraction(0)
        return max(p.hi - p.lo for p in self.parts)

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
        los = [p.lo for p in self.parts]
        i = bisect_right(los, x)
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
        out: list[Interval] = []
        a_parts, b_parts = self.parts, other.parts
        i = j = 0
        while i < len(a_parts) and j < len(b_parts):
            a, b = a_parts[i], b_parts[j]
            s = max(_skey(a), _skey(b))
            e = min(_ekey(a), _ekey(b))
            if _span_nonempty(s, e):
                out.append(_span_interval(s, e))
            if _ekey(a) <= _ekey(b):
                i += 1
            else:
                j += 1
        return IntervalUnion(tuple(out))

    def __and__(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.intersect(other)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set difference self minus other (not the algebraic difference)."""
        out: list[Interval] = []
        b_parts = other.parts
        nb = len(b_parts)
        j = 0
        for a in self.parts:
            cur = _skey(a)
            aend = _ekey(a)
            while j < nb and _ekey(b_parts[j]) < cur:
                j += 1
            k = j
            while k < nb:
                b = b_parts[k]
                bs = _skey(b)
                if bs > aend:
                    break
                gap_end = (bs[0], bs[1] - 1)
                if _span_nonempty(cur, gap_end):
                    out.append(_span_interval(cur, gap_end))
                be = _ekey(b)
                nxt = (be[0], be[1] + 1)
                if nxt > cur:
                    cur = nxt
                k += 1
            if _span_nonempty(cur, aend):
                out.append(_span_interval(cur, aend))
        return IntervalUnion(tuple(out))

    def complement_within(self, frame: Interval) -> "IntervalUnion":
        """Frame minus self; parts of self outside the frame are ignored."""
        return IntervalUnion((frame,)).difference(self)

    def is_subset(self, other: "IntervalUnion") -> bool:
        b_parts = other.parts
        nb = len(b_parts)
        j = 0
        for a in self.parts:
            sa, ea = _skey(a), _ekey(a)
            while j < nb and _ekey(b_parts[j]) < ea:
                j += 1
            if j == nb:
                return False
            b = b_parts[j]
            if not (_skey(b) <= sa and ea <= _ekey(b)):
                return False
        return True

    # -- affine maps ---------------------------------------------------

    def reflect(self) -> "IntervalUnion":
        """The mirror image {-x : x in self}; flags swap ends."""
        return IntervalUnion(
            tuple(
                Interval(-p.hi, -p.lo, p.hi_closed, p.lo_closed)
                for p in reversed(self.parts)
            )
        )

    def __neg__(self) -> "IntervalUnion":
        return self.reflect()

    def translate(self, t: RationalLike) -> "IntervalUnion":
        t = as_rational(t)
        if t == 0:
            return self
        return IntervalUnion(
            tuple(
                Interval(p.lo + t, p.hi + t, p.lo_closed, p.hi_closed)
                for p in self.parts
            )
        )

    def scale(self, k: RationalLike) -> "IntervalUnion":
        k = as_rational(k)
        if k == 0:
            raise ValueError("scale factor must be nonzero")
        if k > 0:
            return IntervalUnion(
                tuple(
                    Interval(p.lo * k, p.hi * k, p.lo_closed, p.hi_closed)
                    for p in self.parts
                )
            )
        return IntervalUnion(
            tuple(
                Interval(p.hi * k, p.lo * k, p.hi_closed, p.lo_closed)
                for p in reversed(self.parts)
            )
        )

    # -- Minkowski sum --------------------------------------------------

    def minkowski_sum(self, other: "IntervalUnion") -> "IntervalUnion":
        """{x + y : x in self, y in other}.

        A result endpoint is attained (closed) iff both contributing
        endpoints are attained; pairwise interval sums are exact under
        this rule, and the products are then normalized.
        """
        if self.is_empty or other.is_empty:
            return EMPTY
        scale_a, terms_a = _scaled_terms(self.parts)
        scale_b, terms_b = _scaled_terms(other.parts)
        scale = lcm(scale_a, scale_b)
        terms_a = _rescale(terms_a, scale // scale_a)
        terms_b = _rescale(terms_b, scale // scale_b)
        if len(terms_a) > len(terms_b):
            terms_a, terms_b = terms_b, terms_a
        if len(terms_a) * len(terms_b) <= _PRODUCT_DEDUP_LIMIT:
            products = {
                (al + bl, asl | bsl, ah + bh, ash | bsh)
                for al, asl, ah, ash in terms_a
                for bl, bsl, bh, bsh in terms_b
            }
            merged = _sweep(sorted(products))
        else:
            merged = _big_product(terms_a, terms_b)
        return IntervalUnion(_parts_from_terms(merged, scale))

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
    scale, terms = _scaled_terms(parts)
    terms.sort()
    return IntervalUnion(_parts_from_terms(_sweep(terms), scale))


def union_of(*intervals: Interval) -> IntervalUnion:
    return normalize(intervals)


def points_union(values: Iterable[RationalLike]) -> IntervalUnion:
    """Union of degenerate point parts, one per distinct value."""
    return normalize(Interval.point(v) for v in values)


EMPTY = IntervalUnion(())
UNIT = Interval.closed(0, 1)
HALF = Interval.closed(0, Fraction(1, 2))
BOX = Interval.closed(-1, 1)
