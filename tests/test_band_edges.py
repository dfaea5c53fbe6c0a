"""Band edges of `band_structure`, the gaps of `gap_report` and the sets of
`intersection_over_family` against the roots of D -+ 2 found by mpmath at 60
digits, on the discriminant polynomial rebuilt in mpmath from the same float
coefficients."""

import functools
import json
import math

import numpy as np
import pytest

from jbv import (Interval, IntervalUnion, PeriodicJacobi, band_structure, cli,
                 comb_potential, free_critical_points, gap_report,
                 intersection_over_family)
from jbv.periodic import Gap, _band_edges
from oracles import carved_difference, pairwise_intersection

mpmath = pytest.importorskip("mpmath")

EDGE_TOL = 1e-9
LARGE_Q = ("ROADMAP item 3: the monomial-basis discriminant loses band edges "
           "from q = 20 on")


def _polymul(p, r):
    out = [mpmath.mpf(0)] * (len(p) + len(r) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(r):
            out[i + j] += x * y
    return out


def _polyadd(p, r):
    n = max(len(p), len(r))
    return [x + y for x, y in zip(p + [0] * (n - len(p)), r + [0] * (n - len(r)))]


def _ordinal(x):
    """x's place in the order of the floats, as an integer."""
    n = int(np.float64(x).view(np.int64))
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def _from_ordinal(n):
    return float(np.int64(n if n >= 0 else -n - (1 << 63)).view(np.float64))


@functools.cache   # one block's roots serve the edge, gap and set tests
def mpmath_edges(P, dps=60):
    """The 2q roots of D = 2 and D = -2, ascending, as a tuple (monomial
    coefficients of D from the one-step matrices ((x - b)/a, -1/a; a, 0),
    lowest first), each as the one of its two neighbouring floats where
    |D -+ 2| is smaller.

    D is monotone between consecutive critical points, where |D| >= 2 with
    alternating signs, so each of these q pieces holds one root of D = 2 and
    one of D = -2.  A root is bisected over the floats of its piece; where
    D -+ 2 keeps its sign over a piece, the root is a double root on the
    critical point at the end where |D -+ 2| is smaller (a closed gap)."""
    with mpmath.workdps(dps):
        one, zero = [mpmath.mpf(1)], [mpmath.mpf(0)]
        m11, m12, m21, m22 = one, zero, zero, one
        for a, b in zip(P.a, P.b):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            p = [-b / a, 1 / a]
            m11, m12, m21, m22 = (_polyadd(_polymul(p, m11), [-x / a for x in m21]),
                                  _polyadd(_polymul(p, m12), [-x / a for x in m22]),
                                  [a * x for x in m11], [a * x for x in m12])
        disc = _polyadd(m11, m22)[::-1]   # highest first, as polyval takes it
        slope = [k * c for k, c in zip(range(P.q, 0, -1), disc)]
        crit = mpmath.polyroots(slope, maxsteps=100, extraprec=60) if P.q > 1 else []
        assert all(abs(mpmath.im(r)) < mpmath.mpf(10) ** -30 for r in crit)
        # every edge lies in [lo, hi], q = 1's on its ends: pad them off
        lo, hi = min(P.b) - 2 * max(P.a), max(P.b) + 2 * max(P.a)
        pad = (hi - lo) / 64
        ends = [lo - pad] + sorted(float(mpmath.re(r)) for r in crit) + [hi + pad]
        edges = []
        for target in (2, -2):
            def f(x, coeffs=disc[:-1] + [disc[-1] - target]):
                return mpmath.polyval(coeffs, x)
            for left, right in zip(ends, ends[1:]):
                f_left, f_right = f(left), f(right)
                if f_left * f_right < 0:
                    left, right = _ordinal(left), _ordinal(right)
                    while right - left > 1:
                        mid = (left + right) // 2
                        if (f(_from_ordinal(mid)) < 0) == (f_left < 0):
                            left = mid
                        else:
                            right = mid
                    left, right = _from_ordinal(left), _from_ordinal(right)
                    f_left, f_right = f(left), f(right)
                edges.append(left if abs(f_left) < abs(f_right) else right)
        return tuple(sorted(edges))


def assert_edges_match(P):
    ours = sorted(x for band in band_structure(P).bands for x in band.as_pair())
    assert np.max(np.abs(np.subtract(ours, mpmath_edges(P)))) <= EDGE_TOL


def comb_block(q):
    return PeriodicJacobi.of(q, [1.0] * q, [0.0] * (q - 1) + [0.5])


def random_block(q, seed):
    rng = np.random.default_rng(seed)
    return PeriodicJacobi.of(q, rng.uniform(0.5, 1.5, q).tolist(),
                             rng.uniform(-1.0, 1.0, q).tolist())


@pytest.mark.parametrize("q", [
    1, 2, 3, 4, 8, 12, 16,
    pytest.param(20, marks=pytest.mark.xfail(strict=True, reason=LARGE_Q)),
    pytest.param(24, marks=pytest.mark.xfail(strict=True, reason=LARGE_Q)),
])
def test_comb_block_edges_match_mpmath(q):
    assert_edges_match(comb_block(q))


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_block_edges_match_mpmath(q, seed):
    assert_edges_match(random_block(q, seed))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: random blocks lose band "
                                       "edges silently from q = 16 on")
def test_random_q16_block_edges_match_mpmath():
    # 14 of the random q = 16 blocks of seeds 0..39 come back with edges off
    # by up to 2.8e-3 and no error raised; seed 6 is off by 1.7e-5
    assert_edges_match(random_block(16, 6))


def assert_gaps_match(rep, edges):
    """gap_report's gaps against the pairs of consecutive edges 2j+1, 2j+2."""
    gaps = list(zip(edges[1:-1:2], edges[2::2]))
    assert rep.all_open and len(rep.gap_intervals) == len(gaps)
    got = [x for gap in rep.gap_intervals for x in gap.as_pair()]
    assert np.max(np.abs(np.subtract(got, [x for gap in gaps for x in gap])),
                  initial=0.0) <= EDGE_TOL
    assert np.max(np.abs(np.subtract(rep.centers, [0.5 * (lo + hi) for lo, hi in gaps])),
                  initial=0.0) <= EDGE_TOL
    assert abs(rep.min_width - min((hi - lo for lo, hi in gaps), default=0.0)) <= EDGE_TOL


@pytest.mark.parametrize("q", [2, 3, 4, 8, 16, 20, 24, 32])
def test_comb_gap_report_matches_mpmath(q):
    assert_gaps_match(gap_report(comb_block(q)), mpmath_edges(comb_block(q)))


@pytest.mark.parametrize("q, seed", [(q, seed) for q in (1, 2, 3, 5, 8, 12, 16)
                                     for seed in (0, 1, 2)] + [(16, 6)])
def test_random_gap_report_matches_mpmath(q, seed):
    P = random_block(q, seed)
    assert_gaps_match(gap_report(P), mpmath_edges(P))


def test_gap_check_sees_an_interior_edge_moved_by_1e8():
    # the outer two edges bound no gap
    P = comb_block(8)
    rep, edges = gap_report(P), mpmath_edges(P)
    for k in range(1, 2 * P.q - 1):
        moved = list(edges)
        moved[k] += 1e-8
        with pytest.raises(AssertionError):
            assert_gaps_match(rep, moved)


def test_band_edges_closed_form_at_q1_and_q2():
    # q = 1: b -+ 2a
    assert _band_edges([PeriodicJacobi.of(1, [0.7], [0.2])])[0].tolist() == \
        pytest.approx([-1.2, 1.6], abs=1e-15)
    # q = 2: the eigenvalues of ((b1, c), (c, b2)) for c = a1 -+ a2
    (a1, a2), (b1, b2) = (0.7, 1.3), (0.2, -0.4)
    mean, half = 0.5 * (b1 + b2), 0.5 * (b1 - b2)
    want = sorted(mean + s * math.hypot(half, a1 + t * a2)
                  for s in (-1, 1) for t in (-1, 1))
    assert _band_edges([PeriodicJacobi.of(2, [a1, a2], [b1, b2])])[0].tolist() == \
        pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_free_block_gaps_are_all_closed(q):
    # the free block's bands touch at its critical points 2 cos(j pi / q)
    rep = gap_report(PeriodicJacobi.of(q, [1.0] * q, [0.0] * q))
    assert rep.gap_intervals == () and not rep.all_open and rep.min_width == 0.0
    assert rep.centers == pytest.approx(free_critical_points(q), abs=1e-12)


def test_gap_center_of_edges_near_float_max_is_finite():
    # 0.5 * (lo + hi) overflowed to inf once both ends passed about 9e307
    rep = gap_report(PeriodicJacobi.of(2, [1.0, 1.0], [1.5e308, 1.6e308]))
    (gap,), (center,) = rep.gap_intervals, rep.centers
    assert gap.lo < center < gap.hi


def test_gap_center_is_the_rounded_midpoint_of_normal_ends():
    # halving each end first is exact, so no center pinned elsewhere moves
    rng = np.random.default_rng(5)
    ends = np.ldexp(rng.uniform(-1, 1, (2, 20000)), rng.integers(-1000, 1000, (2, 20000)))
    for lo, hi in zip(*np.sort(ends, axis=0).tolist()):
        assert Gap(lo, hi, False).center == 0.5 * (lo + hi)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the bisection solver's noise "
                                       "floor closes open comb gaps")
@pytest.mark.parametrize("w", [0.6, 0.8, 1.1])
def test_comb_q24_gaps_are_open(w):
    # the eigenvalue gaps are at least 0.027, 0.031 and 0.035 wide, and
    # band_structure reports 5, 15 and 20 of the 23 closed
    assert not any(g.closed for g in band_structure(comb_potential(24, w)).gaps)


def test_stacked_blocks_get_the_edges_they_get_alone():
    group = [random_block(8, seed) for seed in range(5)] + [comb_block(8)]
    stacked = _band_edges(group)
    assert stacked.shape == (6, 16)
    for P, row in zip(group, stacked):
        assert row.tobytes() == _band_edges([P])[0].tobytes()


def test_stacks_of_1000_random_blocks_get_the_edges_they_get_alone():
    # the gap-window check takes its edges from one stack per period q
    rng = np.random.default_rng(23)
    qs = rng.integers(2, 9, 1000)
    blocks = [random_block(int(q), seed) for seed, q in enumerate(qs)]
    for q in set(qs.tolist()):
        group = [P for P in blocks if P.q == q]
        for P, row in zip(group, _band_edges(group)):
            assert row.tobytes() == _band_edges([P])[0].tobytes()


# blocks whose edges leave float range: the corner add overflows at q = 2,
# and eigvalsh returns infinite edges at q = 3 and 4 (at q = 4 these used to
# fail as an invalid interval, a usage error)
HUGE_BLOCKS = [PeriodicJacobi.of(2, [1e308, 1e308], [0.0, 0.0]),
               PeriodicJacobi.of(3, [1e308] * 3, [0.0] * 3),
               PeriodicJacobi.of(4, [1.7e308] * 4, [0.0] * 4)]


@pytest.mark.parametrize("P", HUGE_BLOCKS, ids=["q2", "q3", "q4"])
def test_edges_past_float_range_raise_overflow(P):
    message = f"^the band edges of a q={P.q} block leave float range$"
    for compute in (lambda: _band_edges([P]), lambda: gap_report(P),
                    lambda: intersection_over_family([comb_block(P.q), P], "spectrum"),
                    lambda: intersection_over_family([P], "qinterior")):
        with pytest.raises(OverflowError, match=message):
            compute()


def test_intersect_family_past_float_range_exits_1(tmp_path, capsys):
    p = tmp_path / "family.json"
    p.write_text(json.dumps([comb_block(3).to_dict(), HUGE_BLOCKS[1].to_dict()]))
    assert cli.main(["intersect", "--family", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: the band edges of a q=3 block leave float range\n"


# ---------------------------------------------------------------------------
# intersection_over_family against sets built from the mpmath edges

def oracle_intersection(family, mode, tol=1e-10, edges=None):
    """The set intersection_over_family must return, from each member's
    mpmath edges (or the given ones), intersected pairwise: the spectrum's
    components end at gaps of width tol or more; in "qinterior" mode the open
    bands minus the hulls of consecutive members' gaps, without components of
    width 8 tol or less."""
    edges = edges or [mpmath_edges(P) for P in family]
    if mode == "spectrum":
        spectra = []
        for e in edges:
            parts, lo = [], e[0]
            for glo, ghi in zip(e[1:-1:2], e[2::2]):
                if ghi - glo >= tol:
                    parts.append(Interval(lo, glo))
                    lo = ghi
            spectra.append(IntervalUnion(tuple(parts + [Interval(lo, e[-1])])))
        return pairwise_intersection(spectra)
    interiors = [IntervalUnion(tuple(Interval.open(lo, hi)
                                     for lo, hi in zip(e[0::2], e[1::2]) if hi > lo))
                 for e in edges]
    gaps = [list(zip(e[1:-1:2], e[2::2])) for e in edges]
    hulls = [Interval(min(g0[0], g1[0]), max(g0[1], g1[1]))
             for slots0, slots1 in zip(gaps, gaps[1:] or gaps)
             for g0, g1 in zip(slots0, slots1)]
    meet = carved_difference(pairwise_intersection(interiors), IntervalUnion.of(hulls))
    return IntervalUnion(tuple(iv for iv in meet.intervals if iv.width > 8 * tol))


def assert_sets_match(got, want):
    """The same components with the same closed ends, each end within
    EDGE_TOL."""
    assert [(iv.closed_lo, iv.closed_hi) for iv in got.intervals] == \
        [(iv.closed_lo, iv.closed_hi) for iv in want.intervals]
    assert np.max(np.abs(np.subtract(got.as_pairs(), want.as_pairs())),
                  initial=0.0) <= EDGE_TOL


def shift_family_edges(q, lam, points):
    """The constant-shift family `intersect --q --lambda --points` builds,
    and its oracle edges: a shift by beta moves every edge of the free block
    by beta, as D(x) becomes D(x - beta)."""
    betas = [-lam + 2.0 * lam * i / (points - 1) for i in range(points)]
    free = mpmath_edges(PeriodicJacobi.of(q, [1.0] * q, [0.0] * q))
    return ([PeriodicJacobi.of(q, [1.0] * q, [beta] * q) for beta in betas],
            [tuple(e + beta for e in free) for beta in betas])


@pytest.mark.parametrize("mode", ["spectrum", "qinterior"])
@pytest.mark.parametrize("q", [2, 3, 8])
def test_shift_family_intersection_matches_mpmath(q, mode):
    family, edges = shift_family_edges(q, 0.5, 101)
    assert_sets_match(intersection_over_family(family, mode),
                      oracle_intersection(family, mode, edges=edges))


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_free_shift_family_spectrum_is_one_interval(q):
    # every gap of a free block is closed, so each member's spectrum is one
    # interval, though eigvalsh splits each double edge by rounding
    family, _ = shift_family_edges(q, 0.5, 11)
    got = intersection_over_family(family, "spectrum")
    assert len(got.intervals) == 1
    assert got.as_pairs()[0] == pytest.approx((-1.5, 1.5), abs=1e-14)
    assert mpmath_edges(family[3])[1:-1] == pytest.approx(
        np.repeat(free_critical_points(q), 2) + family[3].b[0], abs=1e-14)


@pytest.mark.parametrize("mode", ["spectrum", "qinterior"])
@pytest.mark.parametrize("q, couplings", [(8, np.linspace(0.1, 1.0, 7)),
                                          (24, [0.3, 0.5, 0.7]), (32, [0.5, 0.6])])
def test_comb_family_intersection_matches_mpmath(q, couplings, mode):
    family = [comb_potential(q, w) for w in couplings]
    assert_sets_match(intersection_over_family(family, mode),
                      oracle_intersection(family, mode))


@pytest.mark.parametrize("mode", ["spectrum", "qinterior"])
@pytest.mark.parametrize("q, seeds", [(16, range(4)), (24, range(2))])
def test_random_family_intersection_matches_mpmath(q, seeds, mode):
    # from q = 16 on the bisection solver loses edges of these blocks
    family = [random_block(q, seed) for seed in seeds]
    assert_sets_match(intersection_over_family(family, mode),
                      oracle_intersection(family, mode))


def test_set_check_sees_an_edge_moved_by_1e8():
    # the second member's edges bound half of the intersection's ends
    family = [comb_potential(8, w) for w in (0.4, 0.5)]
    for mode in ("spectrum", "qinterior"):
        got, bounding = intersection_over_family(family, mode), 0
        for k in range(16):
            edges = [list(mpmath_edges(P)) for P in family]
            edges[1][k] += 1e-8
            moved = oracle_intersection(family, mode, edges=edges)
            if moved != oracle_intersection(family, mode):
                bounding += 1
                with pytest.raises(AssertionError):
                    assert_sets_match(got, moved)
        assert bounding == 8
