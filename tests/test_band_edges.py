"""Band edges of `band_structure` and the gaps of `gap_report` against the
roots of D -+ 2 found by mpmath at 60 digits, on the discriminant polynomial
rebuilt in mpmath from the same float coefficients."""

import functools
import math

import numpy as np
import pytest

from jbv import PeriodicJacobi, band_structure, free_critical_points, gap_report
from jbv.periodic import _band_edges

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


@functools.cache   # one block's roots serve the edge and the gap tests
def mpmath_edges(P, dps=60):
    """The 2q roots of D = 2 and D = -2, ascending, as a tuple (monomial
    coefficients of D from the one-step matrices ((x - b)/a, -1/a; a, 0),
    lowest first)."""
    with mpmath.workdps(dps):
        one, zero = [mpmath.mpf(1)], [mpmath.mpf(0)]
        m11, m12, m21, m22 = one, zero, zero, one
        for a, b in zip(P.a, P.b):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            p = [-b / a, 1 / a]
            m11, m12, m21, m22 = (_polyadd(_polymul(p, m11), [-x / a for x in m21]),
                                  _polyadd(_polymul(p, m12), [-x / a for x in m22]),
                                  [a * x for x in m11], [a * x for x in m12])
        disc = _polyadd(m11, m22)
        edges = []
        for target in (2, -2):
            coeffs = [disc[0] - target] + disc[1:]
            roots = mpmath.polyroots(coeffs[::-1], maxsteps=100, extraprec=60)
            assert all(abs(mpmath.im(r)) < mpmath.mpf(10) ** -30 for r in roots)
            edges += [float(mpmath.re(r)) for r in roots]
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
    assert _band_edges(PeriodicJacobi.of(1, [0.7], [0.2])).tolist() == \
        pytest.approx([-1.2, 1.6], abs=1e-15)
    # q = 2: the eigenvalues of ((b1, c), (c, b2)) for c = a1 -+ a2
    (a1, a2), (b1, b2) = (0.7, 1.3), (0.2, -0.4)
    mean, half = 0.5 * (b1 + b2), 0.5 * (b1 - b2)
    want = sorted(mean + s * math.hypot(half, a1 + t * a2)
                  for s in (-1, 1) for t in (-1, 1))
    assert _band_edges(PeriodicJacobi.of(2, [a1, a2], [b1, b2])).tolist() == \
        pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_free_block_gaps_are_all_closed(q):
    # the free block's bands touch at its critical points 2 cos(j pi / q)
    rep = gap_report(PeriodicJacobi.of(q, [1.0] * q, [0.0] * q))
    assert rep.gap_intervals == () and not rep.all_open and rep.min_width == 0.0
    assert rep.centers == pytest.approx(free_critical_points(q), abs=1e-12)
