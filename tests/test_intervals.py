import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jbv import Interval, IntervalUnion, interval_union_intersect

from oracles import carved_difference, pairwise_intersection


def u(*parts):
    return IntervalUnion.of(parts)


def test_closed_meets_open():
    full = u(Interval(-2.0, 2.0))
    interior = u(Interval.open(-2.0, 2.0))
    assert interval_union_intersect(full, interior) == interior


def test_punctured_meets_closed():
    punctured = u(Interval.open(-2.0, 0.0), Interval.open(0.0, 2.0))
    window = u(Interval(-1.5, 1.5))
    got = interval_union_intersect(punctured, window)
    assert got.as_pairs() == [(-1.5, 0.0), (0.0, 1.5)]
    assert got.intervals[0].closed_lo and not got.intervals[0].closed_hi
    assert not got.intervals[1].closed_lo and got.intervals[1].closed_hi


def test_empty_intersection():
    assert interval_union_intersect(IntervalUnion.empty(), u(Interval(0.0, 1.0))).is_empty


def test_merging_respects_flags():
    # touching intervals merge only when the touch point belongs to one side
    assert u(Interval(0.0, 1.0), Interval(1.0, 2.0)).as_pairs() == [(0.0, 2.0)]
    assert u(Interval.open(0.0, 1.0), Interval(1.0, 2.0)).as_pairs() == [(0.0, 2.0)]
    kept = u(Interval.open(0.0, 1.0), Interval.open(1.0, 2.0))
    assert kept.as_pairs() == [(0.0, 1.0), (1.0, 2.0)]
    assert not kept.contains(1.0)


def test_degenerate_interval_rules():
    assert Interval.point(3.0).contains(3.0)
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0, True, False)


def test_difference_carves_flags():
    base = u(Interval(0.0, 4.0))
    cut = u(Interval(1.0, 2.0), Interval.open(3.0, 4.0))
    got = base.difference(cut)
    assert got.as_pairs() == [(0.0, 1.0), (2.0, 3.0), (4.0, 4.0)]
    assert not got.intervals[0].closed_hi
    assert not got.intervals[1].closed_lo
    assert got.contains(4.0) and not got.contains(3.5)


def _random_union(rng) -> IntervalUnion:
    parts = []
    for _ in range(rng.integers(0, 5)):
        lo = rng.uniform(-5, 5)
        width = rng.uniform(0, 2)
        if width == 0:
            parts.append(Interval.point(lo))
        else:
            parts.append(Interval(lo, lo + width,
                                  bool(rng.integers(2)), bool(rng.integers(2))))
    return IntervalUnion.of(parts)


def test_intersection_algebra_properties():
    rng = np.random.default_rng(5)
    probes = np.linspace(-6, 6, 241)
    for _ in range(200):
        a, b, c = (_random_union(rng) for _ in range(3))
        ab = a.intersect(b)
        assert ab == b.intersect(a)
        assert ab.intersect(c) == a.intersect(b.intersect(c))
        assert a.intersect(a) == a
        for x in probes:
            assert ab.contains(x) == (a.contains(x) and b.contains(x))


def test_difference_and_union_membership():
    rng = np.random.default_rng(6)
    probes = np.linspace(-6, 6, 241)
    for _ in range(120):
        a, b = _random_union(rng), _random_union(rng)
        d = a.difference(b)
        un = a.union(b)
        for x in probes:
            assert d.contains(x) == (a.contains(x) and not b.contains(x))
            assert un.contains(x) == (a.contains(x) or b.contains(x))


# half-integer endpoints: shared endpoints are common, and measures add exactly
ENDPOINT = st.integers(-8, 8).map(lambda k: k / 2)


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(ENDPOINT), draw(ENDPOINT)))
    if lo == hi:
        return Interval.point(lo)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


UNIONS = st.lists(intervals(), max_size=4).map(IntervalUnion.of)


def _endpoints(*sets):
    return {x for s in sets for iv in s.intervals for x in (iv.lo, iv.hi)}


@given(UNIONS, UNIONS, UNIONS)
def test_intersect_and_union_commute_and_associate(a, b, c):
    assert a.intersect(b) == b.intersect(a)
    assert a.union(b) == b.union(a)
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
    assert a.union(b).union(c) == a.union(b.union(c))


@given(UNIONS, UNIONS, UNIONS)
def test_de_morgan_for_difference(a, b, c):
    assert a.difference(b.union(c)) == a.difference(b).intersect(a.difference(c))
    assert a.difference(b.intersect(c)) == a.difference(b).union(a.difference(c))


@given(UNIONS, UNIONS)
def test_measure_is_additive(a, b):
    assert (a.union(b).measure + a.intersect(b).measure
            == a.measure + b.measure)


@given(UNIONS, UNIONS)
def test_contains_agrees_with_each_operation_at_the_endpoints(a, b):
    meet, join, diff = a.intersect(b), a.union(b), a.difference(b)
    for x in _endpoints(a, b, meet, join, diff):
        assert meet.contains(x) == (a.contains(x) and b.contains(x))
        assert join.contains(x) == (a.contains(x) or b.contains(x))
        assert diff.contains(x) == (a.contains(x) and not b.contains(x))


def _canonical(u: IntervalUnion) -> bool:
    return IntervalUnion.of(u.intervals) == u


@given(st.lists(UNIONS, min_size=1, max_size=6))
def test_intersect_all_matches_the_pairwise_merge(unions):
    got = IntervalUnion.intersect_all(unions)
    assert got == pairwise_intersection(unions)
    assert _canonical(got)
    for x in _endpoints(*unions) | {x + 0.25 for x in _endpoints(*unions)}:
        assert got.contains(x) == all(u.contains(x) for u in unions)


@given(st.lists(UNIONS, min_size=1, max_size=6), st.lists(intervals(), max_size=6))
def test_swept_hull_difference_matches_the_carved_difference(unions, hulls):
    # intersection_over_family removes a union of gap hulls from the
    # intersection of q-interiors
    meet = IntervalUnion.intersect_all(unions)
    cut = IntervalUnion.of(hulls)
    got = meet.difference(cut)
    assert got == carved_difference(pairwise_intersection(unions), cut)
    assert _canonical(got)


def test_intersect_all_edge_cases():
    a = u(Interval(0.0, 1.0), Interval.open(2.0, 3.0))
    assert IntervalUnion.intersect_all([a]) == a
    assert IntervalUnion.intersect_all([a, IntervalUnion.empty()]).is_empty
    # touching at a point that only closed ends share
    b = u(Interval(1.0, 2.0))
    assert IntervalUnion.intersect_all([a, b]) == u(Interval.point(1.0))
    assert IntervalUnion.intersect_all([u(Interval.open(0.0, 1.0)), b]).is_empty
    with pytest.raises(ValueError):
        IntervalUnion.intersect_all([])


def test_difference_takes_unions_built_from_overlapping_tuples():
    # the carving this replaced accepted any intervals, canonical or not
    base = IntervalUnion((Interval(0.0, 2.0), Interval(1.0, 3.0)))
    cut = IntervalUnion((Interval.open(0.5, 1.5), Interval(1.0, 2.0)))
    got = base.difference(cut)
    assert got == carved_difference(IntervalUnion.of(base.intervals),
                                    IntervalUnion.of(cut.intervals))
    assert got.as_pairs() == [(0.0, 0.5), (2.0, 3.0)]
