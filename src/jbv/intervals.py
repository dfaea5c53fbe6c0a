"""Finite unions of real intervals with exact open/closed endpoint bookkeeping.

Spectra of periodic Jacobi matrices are finite unions of closed bands, while
their band interiors drop a finite set of touch points.  The difference is
exactly a few endpoints, so sets carry explicit endpoint flags instead of
being tracked only up to measure zero.  Intersections and differences run as
one sweep over the sorted endpoints of all operands, which counts how many
operands cover each endpoint and each open segment between endpoints; it
only compares endpoints, so results are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Interval:
    """A nonempty real interval with individually open or closed endpoints."""

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must be real numbers")
        if self.hi < self.lo:
            raise ValueError(f"empty interval: ({self.lo}, {self.hi})")
        if self.lo == self.hi and not (self.closed_lo and self.closed_hi):
            raise ValueError("a degenerate interval must be closed on both sides")

    @staticmethod
    def open(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, False, False)

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x, True, True)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.closed_lo:
            return False
        if x == self.hi and not self.closed_hi:
            return False
        return True

    def as_pair(self) -> tuple[float, float]:
        return (self.lo, self.hi)


def _touches(a: Interval, b: Interval) -> bool:
    # assumes b.lo >= a.lo; True when a and b overlap or meet at a point that
    # belongs to at least one of them
    if b.lo < a.hi:
        return True
    return b.lo == a.hi and (a.closed_hi or b.closed_lo)


def _count_equal(sorted_values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """How many of sorted_values equal each point."""
    return (np.searchsorted(sorted_values, points, "right")
            - np.searchsorted(sorted_values, points, "left"))


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical (sorted, disjoint, non-mergeable) finite union of intervals."""

    intervals: tuple[Interval, ...] = ()

    @staticmethod
    def of(parts: Iterable[Interval]) -> "IntervalUnion":
        items = sorted(parts, key=lambda iv: (iv.lo, not iv.closed_lo, iv.hi))
        merged: list[Interval] = []
        for iv in items:
            if merged and _touches(merged[-1], iv):
                a = merged.pop()
                if iv.hi > a.hi:
                    hi, chi = iv.hi, iv.closed_hi
                elif iv.hi < a.hi:
                    hi, chi = a.hi, a.closed_hi
                else:
                    hi, chi = a.hi, a.closed_hi or iv.closed_hi
                merged.append(Interval(a.lo, hi, a.closed_lo, chi))
            else:
                merged.append(iv)
        return IntervalUnion(tuple(merged))

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion(())

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def measure(self) -> float:
        return sum(iv.width for iv in self.intervals)

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    @staticmethod
    def intersect_all(unions: Sequence["IntervalUnion"]) -> "IntervalUnion":
        """The points every union contains, whatever tuples the unions hold."""
        return _sweep([IntervalUnion.of(u.intervals) for u in unions])

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.intersect_all((self, other))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.of(self.intervals + other.intervals)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return _sweep((IntervalUnion.of(self.intervals),
                       _complement(IntervalUnion.of(other.intervals))))

    def as_pairs(self) -> list[tuple[float, float]]:
        return [iv.as_pair() for iv in self.intervals]


def _complement(u: IntervalUnion) -> IntervalUnion:
    """The rest of the real line of a canonical union, as a canonical union
    with infinite ends."""
    ends = [(-math.inf, False)]
    for iv in u.intervals:
        ends += [(iv.lo, not iv.closed_lo), (iv.hi, not iv.closed_hi)]
    ends.append((math.inf, False))
    return IntervalUnion(tuple(
        Interval(lo, hi, clo, chi)
        for (lo, clo), (hi, chi) in zip(ends[0::2], ends[1::2])
        if lo < hi or (lo == hi and clo and chi)))


def _sweep(unions: Sequence[IntervalUnion]) -> IntervalUnion:
    """The points that every union contains, by one endpoint sweep.

    Each union must be canonical, so it covers a point at most once; a point
    or open segment is in the result when all unions cover it.  The
    endpoints E are sorted once, and searchsorted counts, for each E, the
    intervals that contain it and those that contain the open segment to
    the next endpoint.  Maximal runs of covered points and segments are
    the result's intervals, closed where a run starts or ends on a point.
    """
    if not unions:
        raise ValueError("intersect_all needs at least one union")
    parts = [iv for u in unions for iv in u.intervals]
    if not parts:
        return IntervalUnion.empty()
    lo = np.array([iv.lo for iv in parts])
    hi = np.array([iv.hi for iv in parts])
    closed_lo = np.sort(lo[[iv.closed_lo for iv in parts]])
    closed_hi = np.sort(hi[[iv.closed_hi for iv in parts]])
    lo.sort()
    hi.sort()
    ends = np.sort(np.concatenate((lo, hi)))
    # distinct endpoints; np.unique would import numpy.ma
    ends = ends[np.append(True, ends[1:] != ends[:-1])]
    below = np.searchsorted(hi, ends, "right")   # intervals ending at or before E
    # an interval contains E when it starts before E and ends after it, or
    # has E as a closed end (a point interval [E, E] counts once: it also
    # ends at E without starting before it)
    at_point = (np.searchsorted(lo, ends, "left") - below
                + _count_equal(closed_lo, ends) + _count_equal(closed_hi, ends))
    on_segment = np.searchsorted(lo, ends, "right") - below
    # atoms in order: point E_0, segment (E_0, E_1), point E_1, ...
    covered = np.empty(2 * len(ends) - 1, dtype=bool)
    covered[0::2] = at_point == len(unions)
    covered[1::2] = on_segment[:-1] == len(unions)
    edge = np.diff(np.concatenate(([False], covered, [False])).astype(np.int8))
    values = ends.tolist()
    return IntervalUnion(tuple(
        Interval(values[start // 2], values[stop // 2],
                 start % 2 == 0, stop % 2 == 1)
        for start, stop in zip(np.flatnonzero(edge == 1).tolist(),
                               np.flatnonzero(edge == -1).tolist())))


def interval_union_intersect(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    """Set intersection of two interval unions, endpoint flags respected."""
    return u.intersect(v)
