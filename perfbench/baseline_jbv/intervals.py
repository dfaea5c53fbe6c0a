"""Finite unions of real intervals with exact open/closed endpoint bookkeeping.

Spectra of periodic Jacobi matrices are finite unions of closed bands, while
their band interiors drop a finite set of touch points.  The difference is
exactly a few endpoints, so sets carry explicit endpoint flags instead of
being tracked only up to measure zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


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


def _mk(lo: float, hi: float, clo: bool, chi: bool) -> Interval | None:
    """Interval if nonempty, else None."""
    if hi < lo:
        return None
    if lo == hi and not (clo and chi):
        return None
    return Interval(lo, hi, clo, chi)


def _touches(a: Interval, b: Interval) -> bool:
    # assumes b.lo >= a.lo; True when a and b overlap or meet at a point that
    # belongs to at least one of them
    if b.lo < a.hi:
        return True
    return b.lo == a.hi and (a.closed_hi or b.closed_lo)


def _max_lo(a: Interval, b: Interval) -> tuple[float, bool]:
    if a.lo > b.lo:
        return a.lo, a.closed_lo
    if b.lo > a.lo:
        return b.lo, b.closed_lo
    return a.lo, a.closed_lo and b.closed_lo


def _min_hi(a: Interval, b: Interval) -> tuple[float, bool]:
    if a.hi < b.hi:
        return a.hi, a.closed_hi
    if b.hi < a.hi:
        return b.hi, b.closed_hi
    return a.hi, a.closed_hi and b.closed_hi


def _carve(a: Interval, b: Interval) -> list[Interval]:
    """Pieces of `a` not covered by `b`."""
    lo, clo = _max_lo(a, b)
    hi, chi = _min_hi(a, b)
    if _mk(lo, hi, clo, chi) is None:
        return [a]
    left = _mk(a.lo, b.lo, a.closed_lo, not b.closed_lo)
    right = _mk(b.hi, a.hi, not b.closed_hi, a.closed_hi)
    return [p for p in (left, right) if p is not None]


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

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out: list[Interval] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo, clo = _max_lo(a[i], b[j])
            hi, chi = _min_hi(a[i], b[j])
            piece = _mk(lo, hi, clo, chi)
            if piece is not None:
                out.append(piece)
            # canonical operands are disjoint, so whichever ends first cannot
            # meet anything further in the other operand
            if a[i].hi < b[j].hi:
                i += 1
            elif b[j].hi < a[i].hi:
                j += 1
            else:
                i += 1
                j += 1
        return IntervalUnion(tuple(out))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.of(self.intervals + other.intervals)

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        pieces = list(self.intervals)
        for b in other.intervals:
            nxt: list[Interval] = []
            for a in pieces:
                nxt.extend(_carve(a, b))
            pieces = nxt
        return IntervalUnion.of(pieces)

    def as_pairs(self) -> list[tuple[float, float]]:
        return [iv.as_pair() for iv in self.intervals]


def interval_union_intersect(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    """Set intersection of two interval unions, endpoint flags respected."""
    return u.intersect(v)
