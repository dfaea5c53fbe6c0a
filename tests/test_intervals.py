import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jbv import Interval, IntervalUnion, interval_union_intersect

from oracles import carved_difference, merged_union, pairwise_intersection


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
def intervals(draw, endpoint=ENDPOINT):
    lo, hi = sorted((draw(endpoint), draw(endpoint)))
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
    """Sorted and disjoint, and no two neighbours meet at a point that
    either of them holds."""
    return all(a.hi < b.lo or (a.hi == b.lo and not (a.closed_hi or b.closed_lo))
               for a, b in zip(u.intervals, u.intervals[1:]))


EXTENDED = st.one_of(ENDPOINT, st.sampled_from([-math.inf, math.inf]))


@given(st.lists(intervals(EXTENDED), max_size=8))
@example([Interval(0.0, 2.0), Interval(1.0, 3.0)])
@example([Interval.open(0.0, 1.0), Interval.point(1.0), Interval.open(1.0, 2.0)])
@example([Interval(-math.inf, 0.0, False, True), Interval.open(0.0, math.inf)])
def test_of_matches_the_sorted_merge(parts):
    # the sweep keeps what at least one part covers: overlaps and touch
    # points that either side holds merge, as in a merge of sorted parts
    got = IntervalUnion.of(parts)
    assert got == merged_union(parts)
    assert _canonical(got)
    for x in _endpoints(got) | {x + 0.25 for x in _endpoints(got)}:
        assert got.contains(x) == any(iv.contains(x) for iv in parts)


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


# unions built straight from tuples: unsorted, overlapping, a repeated interval
RAW_UNIONS = st.lists(intervals(), max_size=4).map(
    lambda parts: IntervalUnion(tuple(parts + parts[:1])))


TWICE = IntervalUnion((Interval(0.0, 1.0), Interval(0.0, 1.0)))
OVERLAPPING = IntervalUnion((Interval(0.0, 2.0), Interval(1.0, 3.0)))


@given(st.lists(RAW_UNIONS, min_size=1, max_size=4), RAW_UNIONS, RAW_UNIONS)
@example([TWICE, u(Interval(0.5, 2.0))], TWICE, u(Interval(0.5, 2.0)))
@example([OVERLAPPING, u(Interval(0.0, 3.0))], OVERLAPPING, u(Interval(0.0, 3.0)))
def test_intersections_take_unions_built_from_overlapping_tuples(unions, a, b):
    # the sweep counts how many operands cover a point, so an operand that
    # covered one twice used to count as two: the examples gave [0, 0.5]
    # and [0, 1] u [2, 3]
    def canonical(*sets):
        return [IntervalUnion.of(s.intervals) for s in sets]

    assert IntervalUnion.intersect_all(unions) == pairwise_intersection(canonical(*unions))
    want = pairwise_intersection(canonical(a, b))
    assert a.intersect(b) == interval_union_intersect(a, b) == want


ONE = IntervalUnion((Interval(0.0, 1.0),))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Interval("a", 1), TypeError, "interval lo must be a real number, got 'a'"),
    (lambda: Interval(0.0, None), TypeError, "interval hi must be a real number, got None"),
    (lambda: Interval(True, 2.0), TypeError, "interval lo must be a real number, got True"),
    (lambda: Interval(0.0, math.nan), ValueError, "interval hi must not be NaN"),
    (lambda: Interval(0.0, 1.0, None, 2), TypeError,
     "interval closed_lo must be a bool, got None"),
    (lambda: Interval(0, 1, "no", True), TypeError,
     "interval closed_lo must be a bool, got 'no'"),
    (lambda: Interval(0.0, 1.0, True, 1), TypeError, "interval closed_hi must be a bool, got 1"),
    (lambda: IntervalUnion.of([1, 2]), TypeError, "union part 0 must be an Interval, got 1"),
    (lambda: IntervalUnion.of([Interval(0.0, 1.0), (1.0, 2.0)]), TypeError,
     r"union part 1 must be an Interval, got \(1.0, 2.0\)"),
    (lambda: interval_union_intersect(1, 2), TypeError, "u must be an IntervalUnion, got 1"),
    (lambda: interval_union_intersect(ONE, 2), TypeError, "v must be an IntervalUnion, got 2"),
    (lambda: ONE.intersect("x"), TypeError, "other must be an IntervalUnion, got 'x'"),
    (lambda: ONE.union([]), TypeError, r"other must be an IntervalUnion, got \[\]"),
    (lambda: ONE.difference(None), TypeError, "other must be an IntervalUnion, got None"),
    (lambda: IntervalUnion.intersect_all([ONE, 3]), TypeError,
     "union 1 must be an IntervalUnion, got 3"),
], ids=["lo string", "hi None", "lo bool", "hi nan", "closed_lo None", "closed_lo string",
        "closed_hi int", "of ints", "of tuple",
        "intersect u", "intersect v", "intersect other", "union other",
        "difference other", "intersect_all union"])
def test_bad_inputs_raise_errors_that_name_them(call, error, message):
    # interval_union_intersect(1, 2) and IntervalUnion.of([1, 2]) raised
    # AttributeError, and Interval("a", 1) a TypeError that named no field;
    # Interval(0.0, 1.0, None, 2) contained 1.0 while `of` gave it an open
    # end, and a string flag made `of` raise NumPy's conversion error
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_numpy_bool_flags_are_flags():
    iv = Interval(0.0, 1.0, np.True_, np.False_)
    assert iv.contains(0.0) and not iv.contains(1.0)
    assert IntervalUnion.of([iv]) == IntervalUnion((Interval(0.0, 1.0, True, False),))


def test_infinite_endpoints_are_accepted():
    line = IntervalUnion.of([Interval(-math.inf, 0.0, False, True),
                             Interval.open(0.0, math.inf)])
    assert line == IntervalUnion((Interval.open(-math.inf, math.inf),))
    assert ONE.difference(line).is_empty
