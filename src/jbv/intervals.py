"""Finite unions of real intervals with exact open/closed endpoint bookkeeping.

Spectra of periodic Jacobi matrices are finite unions of closed bands, while
their band interiors drop a finite set of touch points.  The difference is
exactly a few endpoints, so sets carry explicit endpoint flags instead of
being tracked only up to measure zero.  One sweep over sorted endpoints
forms every union: it counts the intervals that cover each endpoint and each
open segment between endpoints, and keeps what at least n of them cover
(n = 1 merges, n operands intersect).  It only compares endpoints, so
results are exact.
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
        lo, hi = self.lo, self.hi
        if not type(lo) is float is type(hi):   # two Python floats pass at once
            for name, value in (("lo", lo), ("hi", hi)):
                if (not isinstance(value, (int, float, np.integer, np.floating))
                        or isinstance(value, bool)):
                    raise TypeError(f"interval {name} must be a real number, got {value!r}")
        if not type(self.closed_lo) is bool is type(self.closed_hi):
            for name in ("closed_lo", "closed_hi"):
                if not isinstance(getattr(self, name), (bool, np.bool_)):
                    raise TypeError(f"interval {name} must be a bool, "
                                    f"got {getattr(self, name)!r}")
        # +-inf is allowed: complements have infinite ends
        if lo != lo or hi != hi:
            raise ValueError(f"interval {'lo' if lo != lo else 'hi'} must not be NaN")
        if hi < lo:
            raise ValueError(f"empty interval: ({lo}, {hi})")
        if lo == hi and not (self.closed_lo and self.closed_hi):
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
        """The canonical union of any intervals, in any order."""
        parts = tuple(parts)
        for i, iv in enumerate(parts):
            if not isinstance(iv, Interval):
                raise TypeError(f"union part {i} must be an Interval, got {iv!r}")
        return _sweep(parts, 1)

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
        if not unions:
            raise ValueError("intersect_all needs at least one union")
        canonical = [IntervalUnion.of(_operand(u, f"union {i}").intervals)
                     for i, u in enumerate(unions)]
        return _sweep([iv for u in canonical for iv in u.intervals], len(unions))

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.intersect_all((self, _operand(other, "other")))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.of(self.intervals + _operand(other, "other").intervals)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        cut = _complement(IntervalUnion.of(_operand(other, "other").intervals))
        return _sweep(IntervalUnion.of(self.intervals).intervals + cut.intervals, 2)

    def as_pairs(self) -> list[tuple[float, float]]:
        return [iv.as_pair() for iv in self.intervals]


def _operand(u, name: str) -> IntervalUnion:
    if not isinstance(u, IntervalUnion):
        raise TypeError(f"{name} must be an IntervalUnion, got {u!r}")
    return u


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


def _sweep(parts: Iterable[Interval], n: int) -> IntervalUnion:
    """The points that at least n of the intervals cover (`_sweep_arrays`)."""
    lo, hi, closed_lo, closed_hi = np.array(
        [(iv.lo, iv.hi, iv.closed_lo, iv.closed_hi) for iv in parts],
        dtype=float).reshape(-1, 4).T
    return _sweep_arrays(lo, hi, closed_lo == 1.0, closed_hi == 1.0, n)


def _sweep_arrays(lo: np.ndarray, hi: np.ndarray, closed_lo: np.ndarray,
                  closed_hi: np.ndarray, n: int) -> IntervalUnion:
    """The one sweep that forms every union: the points that at least n of
    the intervals (lo, hi), with their closed-end flags, cover.  With n = 1
    that is their union; n canonical unions cover a point at most n times,
    so with n of them it is their intersection.  The endpoints E are sorted
    once, and searchsorted counts, for each E, the intervals that contain it
    and those that contain the open segment to the next endpoint.  Maximal
    runs of covered points and segments are the result's intervals, closed
    where a run starts or ends on a point.
    """
    if not len(lo):
        return IntervalUnion.empty()
    closed_lo, closed_hi = np.sort(lo[closed_lo]), np.sort(hi[closed_hi])
    lo, hi = np.sort(lo), np.sort(hi)
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
    covered[0::2] = at_point >= n
    covered[1::2] = on_segment[:-1] >= n
    edge = np.diff(np.concatenate(([False], covered, [False])).astype(np.int8))
    values = ends.tolist()
    return IntervalUnion(tuple(
        Interval(values[start // 2], values[stop // 2],
                 start % 2 == 0, stop % 2 == 1)
        for start, stop in zip(np.flatnonzero(edge == 1).tolist(),
                               np.flatnonzero(edge == -1).tolist())))


def interval_union_intersect(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    """Set intersection of two interval unions, endpoint flags respected."""
    return _operand(u, "u").intersect(_operand(v, "v"))
