"""Closed, orientation-symmetric rotation-number sets.

Values in the representation topology are always of the form
{0} union K with K closed and invariant under x -> -x, so every
constructor here adds 0 and the mirror image automatically.  A set is a
finite union of points and closed arcs; arcs are stored split at 0
(endpoints satisfy 0 <= lo <= hi <= 1), which makes normalization a
plain sweep and keeps equality exact.  Endpoints stay Fractions when
given exactly and floats otherwise; mixed comparisons are exact in
Python, so the two kinds coexist without tolerance fudging.

Because points and arcs are kept sorted, membership is a bisection and
intersection a merge of the two sorted lists.  A set of exact points
alone is a subset of (1/L)Z/Z, with L the lcm of its denominators, and
its algebra runs on the integer residues: a sum of sets is a cyclic
sumset mod L, scaling by k maps r to k*r mod L, the preimage under
multiplication by m is {r + j*L} over L*m, and intersection is a set
intersection.  The residues are computed once per set, and exact points
given to from_points are mirrored and de-duplicated as residues too.

One constructor, _over(den, residues, arc pairs), makes every exact set
over one denominator from normalized integers and builds each endpoint
Fraction once.  The residue algebra above ends there, and so does each
stage of forcing's outer approximations, which snaps, mirrors, merges
and checks nesting on integers over its dyadic grid.

The full circle is one shared instance, returned by full() and by every
normalization that yields [0, 1] with exact endpoints, so its laws are
identity tests: its images and preimages under scaling are itself, its
sum with a set that has arcs or exact points alone is itself (every set
contains 0), and its intersection with a set without arcs is that set.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, Union

from ._kernels import unit_float
from .circledyn import circ_dist, in_arc

Endpoint = Union[Fraction, float]


def _coerce(v) -> Endpoint:
    if type(v) is Fraction and 0 <= v.numerator < v.denominator:
        return v
    if isinstance(v, (Fraction, int)):
        return Fraction(v) % 1
    return unit_float(float(v))  # also turns -0.0 into 0.0


def _fmt(v: Endpoint) -> str:
    """The text of a value: p/q (or p) when exact, the float's repr otherwise."""
    return str(v) if isinstance(v, Fraction) else repr(v)


def _prefer_exact(a: Endpoint, b: Endpoint) -> Endpoint:
    return a if isinstance(a, Fraction) else b


def _covered(arcs, xs) -> Iterator[bool]:
    """For each value of the sorted sequence xs, whether it lies on one of
    the sorted, disjoint closed arcs; 0 counts when an arc ends at 1."""
    wraps = bool(arcs) and arcs[-1][1] == 1
    k = 0
    for x in xs:
        while k < len(arcs) and arcs[k][1] < x:
            k += 1
        yield (k < len(arcs) and arcs[k][0] <= x) or (wraps and x == 0)


def _residues(s: RotSet) -> tuple[int, tuple[int, ...]] | None:
    """(L, rs) with s.points == (r/L for r in rs), when s is exact points alone.

    Computed once per set and kept in its ``__dict__``, outside the
    dataclass fields, so equality, repr, hash and pickles ignore it.
    """
    cache = s.__dict__
    if "_residues" not in cache:
        r = None
        if not s.intervals and all(type(p) is Fraction for p in s.points):
            den = math.lcm(*(p.denominator for p in s.points))
            r = den, tuple(p.numerator * (den // p.denominator) for p in s.points)
        cache["_residues"] = r
    return cache["_residues"]


@dataclass(frozen=True)
class RotSet:
    """{0} plus finitely many points and closed arcs, mirror-symmetric.

    ``intervals`` are closed arcs with 0 <= lo < hi <= 1 after
    normalization; full() is represented by the single arc [0, 1].

    Invariant: ``points`` is sorted and free of repeats, ``intervals`` is
    sorted and pairwise disjoint (not even touching), no point lies on an
    arc, and both are closed under x -> 1 - x.  Membership bisects and
    intersection merges on the strength of this, and the residue algebra
    relies on the symmetry, so build sets through the constructors below,
    never by feeding unsorted or asymmetric tuples to the dataclass.
    """

    points: tuple[Endpoint, ...]
    intervals: tuple[tuple[Endpoint, Endpoint], ...]

    # -- constructors ------------------------------------------------------

    @classmethod
    def build(cls, points: Iterable = (), intervals: Iterable = ()) -> "RotSet":
        """Normalize arbitrary points and ccw closed arcs (lo, hi) into a RotSet.

        Zero and all mirror images are added; arcs given with lo > hi wrap
        through 0 and are split.  An arc with lo == hi mod 1 is a point.
        """
        pts: list[Endpoint] = [Fraction(0)]
        arcs: list[tuple[Endpoint, Endpoint]] = []

        def add_point(v):
            v = _coerce(v)
            pts.append(v)
            pts.append(_coerce(1 - v))

        def add_arc(lo, hi):
            if hi - lo >= 1:  # a full turn or more: the whole circle
                arcs.append((Fraction(0), Fraction(1)))
                return
            lo, hi = _coerce(lo), _coerce(hi)
            if lo == hi:
                add_point(lo)
                return
            for a, b in ((lo, hi), (_coerce(1 - hi), _coerce(1 - lo))):
                if a == b:  # a float arc so short that its mirror rounds to a point
                    pts.append(a)
                elif a < b:
                    arcs.append((a, b))
                else:  # wraps through 0
                    if a < 1:
                        arcs.append((a, type(a)(1) if isinstance(a, Fraction) else 1.0))
                    if 0 < b:
                        arcs.append((type(b)(0) if isinstance(b, Fraction) else 0.0, b))

        for v in points:
            add_point(v)
        for lo, hi in intervals:
            add_arc(lo, hi)
        return cls._normalized(pts, arcs)

    @classmethod
    def _normalized(cls, pts: list, arcs: list) -> "RotSet":
        merged: list[list[Endpoint]] = []
        for lo, hi in sorted(arcs, key=lambda ab: (ab[0], ab[1])):
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        arcs_t = tuple((lo, hi) for lo, hi in merged)
        # float ends compare equal to exact ones, so the types are checked too
        if arcs_t == _FULL.intervals and type(arcs_t[0][0]) is type(arcs_t[0][1]) is Fraction:
            return _FULL

        uniq: list[Endpoint] = []
        pts = sorted(pts)
        for v, covered in zip(pts, _covered(arcs_t, pts)):
            if covered:
                continue
            if uniq and uniq[-1] == v:
                uniq[-1] = _prefer_exact(uniq[-1], v)
            else:
                uniq.append(v)
        return cls(points=tuple(uniq), intervals=arcs_t)

    @classmethod
    def _over(cls, den: int, rs: Iterable[int], arcs: Sequence[tuple[int, int]] = ()) -> "RotSet":
        """{r/den : r in rs} plus the arcs [a/den, b/den] for (a, b) in arcs.

        rs must lie in [0, den) and be closed under r -> -r mod den; arcs must
        be tuples, sorted, pairwise disjoint (not even touching), within
        [0, den] and closed under (a, b) -> (den - b, den - a); no r may lie on
        an arc, and 0 lies in rs or on an arc.  The Fractions are built here,
        once; [0, den] gives the shared full circle, and a set without arcs
        has its residue cache seeded in lowest terms.
        """
        if arcs and arcs[0] == (0, den):
            return _FULL
        rs = sorted(rs)
        s = cls(
            points=tuple(Fraction(r, den) for r in rs),
            intervals=tuple((Fraction(a, den), Fraction(b, den)) for a, b in arcs),
        )
        if not arcs:
            g = math.gcd(den, *rs)
            s.__dict__["_residues"] = den // g, tuple(r // g for r in rs)
        return s

    @classmethod
    def full(cls) -> "RotSet":
        return _FULL

    @classmethod
    def zero_only(cls) -> "RotSet":
        return cls(points=(Fraction(0),), intervals=())

    @classmethod
    def from_points(cls, points: Iterable) -> "RotSet":
        """{0} plus the given points plus their mirror images; exact values are
        mirrored and de-duplicated as integers mod the lcm of their denominators."""
        vals = list(points)
        if not all(type(v) is Fraction or type(v) is int for v in vals):
            return cls.build(points=vals)
        den = math.lcm(*(v.denominator for v in vals))
        rs = {v.numerator * (den // v.denominator) % den for v in vals}
        return cls._over(den, rs | {-r % den for r in rs} | {0})

    @classmethod
    def from_intervals(cls, intervals: Iterable) -> "RotSet":
        """{0} plus the given closed arcs plus their mirror images."""
        return cls.build(intervals=intervals)

    # -- queries -----------------------------------------------------------

    def is_full(self) -> bool:
        return self.intervals == ((Fraction(0), Fraction(1)),) or self.intervals == ((0.0, 1.0),)

    def is_zero_only(self) -> bool:
        return not self.intervals and all(p == 0 for p in self.points)

    def contains(self, x, tol: float = 0.0) -> bool:
        # The exact test comes first: mixing tol into the arithmetic would
        # promote Fraction endpoints to floats and lose endpoint hits.
        x = _coerce(x)
        pts, arcs = self.points, self.intervals
        i = bisect_left(pts, x)
        if i < len(pts) and pts[i] == x:
            return True
        k = bisect_right(arcs, x, key=itemgetter(0)) - 1  # the last arc starting at or before x
        if (k >= 0 and x <= arcs[k][1]) or (x == 0 and bool(arcs) and arcs[-1][1] == 1):
            return True
        return tol > 0 and (any(circ_dist(x, v) <= tol for v in pts) or any(in_arc(float(x), a, tol) for a in arcs))

    def _members(self, xs) -> list[Endpoint]:
        """The values of the sorted sequence xs that lie in self, by one merge walk."""
        pts, i, out = self.points, 0, []
        for x, covered in zip(xs, _covered(self.intervals, xs)):
            while i < len(pts) and pts[i] < x:
                i += 1
            if covered or (i < len(pts) and pts[i] == x):
                out.append(x)
        return out

    # -- algebra -----------------------------------------------------------

    def union(self, other: "RotSet") -> "RotSet":
        return RotSet._normalized(
            list(self.points) + list(other.points),
            list(self.intervals) + list(other.intervals),
        )

    def intersect(self, other: "RotSet") -> "RotSet":
        # The full circle passes only a set without arcs through as it is: on arcs,
        # max and min below keep its exact endpoints in place of float ones.
        if self is _FULL and (other is _FULL or not other.intervals):
            return other
        if other is _FULL and not self.intervals:
            return self
        if (ra := _residues(self)) and (rb := _residues(other)):
            den = math.lcm(ra[0], rb[0])
            theirs = {r * (den // rb[0]) for r in rb[1]}
            u = den // ra[0]
            pts = tuple(p for p, r in zip(self.points, ra[1]) if r * u in theirs)
            return self if len(pts) == len(self.points) else RotSet(points=pts, intervals=())
        pts = other._members(self.points) + self._members(other.points)
        arcs = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            (alo, ahi), (blo, bhi) = a[i], b[j]
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo < hi:
                arcs.append((lo, hi))
            elif lo == hi:
                pts.append(lo)
            # the arc that ends first meets nothing further on the other side
            if ahi <= bhi:
                i += 1
            if bhi <= ahi:
                j += 1
        return RotSet._normalized(pts, arcs)

    def is_subset(self, other: "RotSet") -> bool:
        if len(other._members(self.points)) < len(self.points):
            return False
        arcs, k = other.intervals, 0
        for lo, hi in self.intervals:
            while k < len(arcs) and arcs[k][1] < hi:
                k += 1
            if k == len(arcs) or lo < arcs[k][0]:
                return False
        return True

    def scale_image(self, k: int) -> "RotSet":
        """{k*x : x in self}; symmetric sets make the sign of k irrelevant."""
        k = abs(int(k))
        if k == 0:
            return RotSet.zero_only()
        if self is _FULL:
            return _FULL
        if r := _residues(self):
            den, rs = r
            return RotSet._over(den, {k * x % den for x in rs})
        pts = [k * p for p in self.points]
        arcs = []
        for lo, hi in self.intervals:
            if k * (hi - lo) >= 1:
                return RotSet.full()
            arcs.append((_coerce(k * lo), _coerce(k * lo) + k * (hi - lo)))
        return RotSet.build(points=pts, intervals=arcs)

    def scale_preimage(self, m: int) -> "RotSet":
        """{x : m*x in self}."""
        m = abs(int(m))
        if m == 0:
            raise ValueError("preimage under multiplication by 0")
        if self is _FULL:
            return _FULL
        if r := _residues(self):
            den, rs = r
            return RotSet._over(den * m, [x + j * den for j in range(m) for x in rs])
        pts = []
        arcs = []
        for p in self.points:
            for j in range(m):
                pts.append((p + j) / m)
        for lo, hi in self.intervals:
            for j in range(m):
                arcs.append(((lo + j) / m, (hi + j) / m))
        return RotSet.build(points=pts, intervals=arcs)

    def minkowski(self, other: "RotSet") -> "RotSet":
        """Closure of {x + y}; both inputs symmetric, so this is symmetric too."""
        if self is _FULL or other is _FULL:
            # The sum is the full circle, as the other side contains 0.  Float
            # points alone take the general path: their shifted copies of [0, 1]
            # can round short of a full turn and leave a float endpoint.
            rest = other if self is _FULL else self
            if rest.intervals or _residues(rest):
                return _FULL
        if (ra := _residues(self)) and (rb := _residues(other)):
            den = math.lcm(ra[0], rb[0])
            ys = [y * (den // rb[0]) for y in rb[1]]
            u = den // ra[0]
            return RotSet._over(den, {(x * u + y) % den for x in ra[1] for y in ys})
        pts = [p + q for p in self.points for q in other.points]
        arcs = []
        for lo, hi in self.intervals:
            for q in other.points:
                arcs.append((_coerce(lo + q), _coerce(lo + q) + (hi - lo)))
            for blo, bhi in other.intervals:
                span = (hi - lo) + (bhi - blo)
                if span >= 1:
                    return RotSet.full()
                arcs.append((_coerce(lo + blo), _coerce(lo + blo) + span))
        for p in self.points:
            for blo, bhi in other.intervals:
                arcs.append((_coerce(blo + p), _coerce(blo + p) + (bhi - blo)))
        return RotSet.build(points=pts, intervals=arcs)

    # -- serialization -----------------------------------------------------

    def __getstate__(self) -> dict:
        return {"points": self.points, "intervals": self.intervals}  # without the residue cache

    def to_json(self) -> dict:
        return {
            "points": [_fmt(p) for p in self.points],
            "intervals": [[_fmt(lo), _fmt(hi)] for lo, hi in self.intervals],
        }

    def __str__(self) -> str:
        parts = [_fmt(p) for p in self.points]
        parts += [f"[{_fmt(lo)}, {_fmt(hi)}]" for lo, hi in self.intervals]
        return "{" + ", ".join(parts) + "}"


_FULL = RotSet(points=(), intervals=((Fraction(0), Fraction(1)),))
