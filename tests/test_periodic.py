import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jbv import (Interval, IntervalUnion, PeriodicJacobi, RootIsolationError,
                 band_structure, chebyshev_second_kind, comb_potential,
                 discriminant_polynomial, discriminant_value,
                 free_critical_points, gap_report, intersection_over_family,
                 one_step_matrix, periodic_spec, same_discriminant,
                 spectral_bracket, strip_margins, wronskian_defect)
from jbv.periodic import _band_edges
from oracles import (chebu_sine, comb2_band_edges, interp_discriminant_coeffs,
                     scalar_band_edges)


def free_block(q):
    return PeriodicJacobi.of(q, [1.0] * q, [0.0] * q)


# ---------------------------------------------------------------------------
# discriminant values and polynomials

def test_discriminant_free_q1_is_identity():
    P = free_block(1)
    for z in (0.0, 1.3, -2.7, 0.5 + 0.25j):
        assert discriminant_value(P, z) == pytest.approx(z, abs=1e-14)


def test_discriminant_free_q2_at_zero():
    # hand product of the one-step factors
    m = one_step_matrix(1, 0, 0.0) @ one_step_matrix(1, 0, 0.0)
    assert m.trace() == pytest.approx(-2.0, abs=1e-15)
    assert discriminant_value(free_block(2), 0.0) == pytest.approx(-2.0, abs=1e-15)


def test_discriminant_comb2():
    P = comb_potential(2, 0.5)
    # explicit product gives x^2 - w x - 2
    for x in (1.0, -0.7, 2.3):
        ref = (one_step_matrix(1, 0.5, x) @ one_step_matrix(1, 0.0, x)).trace()
        assert discriminant_value(P, x) == pytest.approx(ref, abs=1e-14)
    assert discriminant_value(P, 1.0) == pytest.approx(-1.5, abs=1e-14)


def test_discriminant_polynomial_closed_forms():
    assert discriminant_polynomial(free_block(2)).coeffs == pytest.approx((-2.0, 0.0, 1.0))
    assert discriminant_polynomial(free_block(1)).coeffs == pytest.approx((0.0, 1.0))
    alpha, beta = 1.7, -0.4
    p = discriminant_polynomial(PeriodicJacobi.of(1, [alpha], [beta]))
    assert p.coeffs == pytest.approx((-beta / alpha, 1.0 / alpha))


def test_discriminant_polynomial_against_interpolation():
    rng = np.random.default_rng(21)
    for _ in range(25):
        q = int(rng.integers(1, 7))
        P = PeriodicJacobi.of(q, 0.5 + 1.5 * rng.random(q), -1 + 2 * rng.random(q))
        ours = np.array(discriminant_polynomial(P).coeffs)
        ref = interp_discriminant_coeffs(P)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(ours - ref)) / scale < 1e-9


def test_leading_coefficient_rule():
    rng = np.random.default_rng(22)
    q = 4
    P = PeriodicJacobi.of(q, 0.5 + rng.random(q), rng.standard_normal(q))
    p = discriminant_polynomial(P)
    assert p.degree == q
    assert p.coeffs[-1] == pytest.approx(1.0 / np.prod(P.a), rel=1e-12)


def test_cyclic_invariance():
    rng = np.random.default_rng(23)
    q = 5
    a = (0.5 + rng.random(q)).tolist()
    b = rng.standard_normal(q).tolist()
    base = np.array(discriminant_polynomial(PeriodicJacobi.of(q, a, b)).coeffs)
    for r in range(1, q):
        rot = discriminant_polynomial(
            PeriodicJacobi.of(q, a[r:] + a[:r], b[r:] + b[:r]))
        assert np.max(np.abs(np.array(rot.coeffs) - base)) < 1e-9


# ---------------------------------------------------------------------------
# band structures

def test_free_q2_band_structure():
    bs = band_structure(free_block(2), tol=1e-10)
    assert bs.bands[0].as_pair() == pytest.approx((-2.0, 0.0), abs=1e-9)
    assert bs.bands[1].as_pair() == pytest.approx((0.0, 2.0), abs=1e-9)
    assert len(bs.gaps) == 1 and bs.gaps[0].closed
    assert bs.gaps[0].center == pytest.approx(0.0, abs=1e-9)
    assert not bs.q_interior.contains(bs.gaps[0].center)
    assert bs.q_interior.contains(1.0) and bs.q_interior.contains(-1.0)


def test_single_band_q1():
    alpha, beta = 0.8, 0.3
    bs = band_structure(PeriodicJacobi.of(1, [alpha], [beta]))
    assert len(bs.bands) == 1
    assert bs.bands[0].as_pair() == pytest.approx(
        (beta - 2 * alpha, beta + 2 * alpha), abs=1e-9)
    assert bs.gaps == ()


def test_comb2_band_structure_quadratic_oracle():
    for w in (0.1, 0.5, 1.0):
        bs = band_structure(comb_potential(2, w), tol=1e-10)
        e = comb2_band_edges(w)
        assert bs.bands[0].as_pair() == pytest.approx((e[0], e[1]), abs=1e-9)
        assert bs.bands[1].as_pair() == pytest.approx((e[2], e[3]), abs=1e-9)
        gap = bs.gaps[0]
        assert not gap.closed
        assert (gap.lo, gap.hi) == pytest.approx((0.0, w), abs=1e-9)


def test_band_values_within_two():
    rng = np.random.default_rng(24)
    for _ in range(20):
        q = int(rng.integers(1, 6))
        P = PeriodicJacobi.of(q, 0.5 + 1.5 * rng.random(q), -1 + 2 * rng.random(q))
        bs = band_structure(P)
        poly = bs.discriminant
        for band in bs.bands:
            for x in np.linspace(band.lo, band.hi, 25):
                assert abs(poly(x)) <= 2.0 + 1e-7
        edges = [e for band in bs.bands for e in band.as_pair()]
        for x in np.linspace(*spectral_bracket(P), 200):
            # interior endpoints are only located to the isolation tolerance,
            # so probe strictly inside
            if bs.q_interior.contains(x) and min(abs(x - e) for e in edges) > 1e-8:
                assert abs(poly(x)) < 2.0


def test_shift_covariance():
    rng = np.random.default_rng(25)
    q = 3
    P = PeriodicJacobi.of(q, 0.5 + rng.random(q), rng.standard_normal(q))
    c = 0.7312
    bs0 = band_structure(P)
    bs1 = band_structure(P.shifted(c))
    for b0, b1 in zip(bs0.bands, bs1.bands):
        assert b1.lo == pytest.approx(b0.lo + c, abs=1e-8)
        assert b1.hi == pytest.approx(b0.hi + c, abs=1e-8)


def test_free_critical_points_formula():
    assert free_critical_points(2) == pytest.approx([0.0], abs=1e-15)
    assert free_critical_points(3) == pytest.approx([-1.0, 1.0], abs=1e-14)
    assert free_critical_points(1) == []


def test_free_critical_points_match_derivative_roots():
    for q in range(2, 9):
        bs = band_structure(free_block(q))
        ref = free_critical_points(q)
        assert len(bs.critical_points) == q - 1
        assert list(bs.critical_points) == pytest.approx(ref, abs=1e-8)


def test_doubled_period_shrinks_interior_not_spectrum():
    bs2 = band_structure(free_block(2))
    bs4 = band_structure(free_block(4))
    assert np.allclose(bs4.spectrum.as_pairs(), bs2.spectrum.as_pairs(), atol=1e-8)
    r2 = math.sqrt(2.0)
    assert bs2.q_interior.contains(r2) and bs2.q_interior.contains(-r2)
    assert not bs4.q_interior.contains(bs4.critical_points[0])
    assert sorted(bs4.critical_points) == pytest.approx([-r2, 0.0, r2], abs=1e-8)


# ---------------------------------------------------------------------------
# chebyshev and comb helpers

def test_chebyshev_examples():
    assert chebyshev_second_kind(0, 123.0) == 1.0
    assert chebyshev_second_kind(2, 2 * math.cos(math.pi / 3)) == pytest.approx(0.0, abs=1e-14)
    assert chebyshev_second_kind(3, 2.0) == pytest.approx(4.0, abs=1e-12)


def test_chebyshev_matches_sine_formula():
    rng = np.random.default_rng(26)
    for _ in range(100):
        n = int(rng.integers(0, 25))
        x = rng.uniform(-1.95, 1.95)
        assert chebyshev_second_kind(n, x) == pytest.approx(
            chebu_sine(n, x), rel=1e-9, abs=1e-9)


def test_comb_block_layout():
    P = comb_potential(2, 0.5)
    assert P.a == (1.0, 1.0) and P.b == (0.0, 0.5)
    assert comb_potential(3, 1.0).b == (0.0, 0.0, 1.0)
    assert comb_potential(4, 0.01).b == (0.0, 0.0, 0.0, 0.01)
    with pytest.raises(ValueError):
        comb_potential(1, 0.5)


def test_gap_report_examples():
    rep = gap_report(comb_potential(2, 0.5))
    assert len(rep.gap_intervals) == 1
    assert rep.gap_intervals[0].as_pair() == pytest.approx((0.0, 0.5), abs=1e-9)
    assert rep.centers == pytest.approx([0.25], abs=1e-9)
    assert rep.min_width == pytest.approx(0.5, abs=1e-9)
    assert rep.all_open

    rep_free = gap_report(free_block(2))
    assert rep_free.gap_intervals == ()
    assert not rep_free.all_open
    assert rep_free.min_width == 0.0

    rep3 = gap_report(comb_potential(3, 0.2), tol=1e-9)
    assert len(rep3.gap_intervals) == 2
    assert rep3.all_open


def test_comb_gaps_open_across_couplings():
    for q in (2, 3, 4, 5):
        for w in (1e-3, 1e-2, 0.1, 0.3, 1.0):
            assert gap_report(comb_potential(q, w)).all_open, (q, w)


# ---------------------------------------------------------------------------
# family intersections

def shift_family(q, lam, points):
    betas = np.linspace(-lam, lam, points)
    return [PeriodicJacobi.of(q, [1.0] * q, [b] * q) for b in betas]


def test_intersection_spectrum_mode():
    fam = shift_family(2, 0.5, 51)
    got = intersection_over_family(fam, "spectrum")
    assert np.allclose(got.as_pairs(), [(-1.5, 1.5)], atol=1e-8)


def test_intersection_qinterior_mode_q2():
    fam = shift_family(2, 0.5, 51)
    got = intersection_over_family(fam, "qinterior")
    assert len(got.intervals) == 2
    assert np.allclose(got.as_pairs(), [(-1.5, -0.5), (0.5, 1.5)], atol=1e-7)
    assert all(not iv.closed_lo and not iv.closed_hi for iv in got.intervals)


def test_intersection_single_member_identity():
    # a member's sets are its eigenvalue bands, closed or open
    from test_band_edges import EDGE_TOL, mpmath_edges
    P = comb_potential(3, 0.4)
    edges = _band_edges([P])[0].tolist()
    bands = list(zip(edges[0::2], edges[1::2]))
    got_spec = intersection_over_family([P], "spectrum")
    assert got_spec == IntervalUnion(tuple(Interval(lo, hi) for lo, hi in bands))
    got_int = intersection_over_family([P], "qinterior")
    assert got_int == IntervalUnion(tuple(Interval.open(lo, hi) for lo, hi in bands))
    assert np.max(np.abs(np.subtract(edges, mpmath_edges(P)))) <= EDGE_TOL


def test_qinterior_drops_components_of_8_tol_or_less():
    # a_2 = 1e-10 leaves two bands of width 2e-10, at +-1
    P = PeriodicJacobi.of(2, [1.0, 1e-10], [0.0, 0.0])
    spectrum = intersection_over_family([P], "spectrum")
    assert np.allclose(spectrum.as_pairs(), [(-1 - 1e-10, -1 + 1e-10),
                                             (1 - 1e-10, 1 + 1e-10)], rtol=0, atol=1e-15)
    assert intersection_over_family([P], "qinterior").is_empty
    kept = intersection_over_family([P], "qinterior", tol=1e-11)
    assert kept.as_pairs() == spectrum.as_pairs()


# a_1 = 1e308 puts the bands at about +-1e308: the gap between them is
# wider than float range
HUGE_GAP = PeriodicJacobi.of(2, [1e308, 1.0], [0.0, 0.5])


def test_a_gap_wider_than_float_range_is_open():
    # np.diff of the edges overflowed with a RuntimeWarning, which the suite
    # makes an error
    edges = _band_edges([HUGE_GAP])[0].tolist()
    assert edges[1] < -1e307 and edges[2] > 1e307
    assert intersection_over_family([HUGE_GAP], "spectrum").as_pairs() == [
        (edges[0], edges[1]), (edges[2], edges[3])]
    assert intersection_over_family([HUGE_GAP, PeriodicJacobi.of(
        2, [1.0, 1.0], [0.1, 0.4])], "spectrum").is_empty


def test_intersection_bad_inputs():
    with pytest.raises(ValueError):
        intersection_over_family([], "spectrum")
    with pytest.raises(ValueError):
        intersection_over_family([free_block(2)], "nonsense")
    with pytest.raises(ValueError, match="^tolerance must lie in"):
        intersection_over_family([free_block(2)], "spectrum", tol=2e-3)
    with pytest.raises(ValueError, match="^qinterior intersection needs a family of "
                                         "equal period$"):
        intersection_over_family([free_block(2), free_block(3)], "qinterior")


@pytest.mark.parametrize("tol", ["1e-10", None, [1e-10], True])
def test_a_tol_that_is_no_number_is_a_type_error_naming_it(tol):
    # these used to fail inside the range check with "'<' not supported"
    for compute in (lambda: band_structure(free_block(2), tol),
                    lambda: gap_report(free_block(2), tol),
                    lambda: intersection_over_family([free_block(2)], "spectrum", tol)):
        with pytest.raises(TypeError, match="^tol must be a real number"):
            compute()


@pytest.mark.parametrize("tol", [0.0, -1e-10, 2e-3, math.nan, math.inf, 10 ** 400])
def test_a_tol_out_of_range_keeps_the_range_message(tol):
    for compute in (lambda: band_structure(free_block(2), tol),
                    lambda: gap_report(free_block(2), tol),
                    lambda: intersection_over_family([free_block(2)], "spectrum", tol)):
        with pytest.raises(ValueError, match=r"^tolerance must lie in \(0, 1e-3\]$"):
            compute()


@pytest.mark.parametrize("mode", [5, None, b"spectrum"])
def test_a_mode_that_is_no_string_is_an_unknown_mode(mode):
    # 5 used to fail with an AttributeError from .lower()
    with pytest.raises(ValueError, match="^mode must be 'spectrum' or 'qinterior', "
                                         f"got {mode!r}$"):
        intersection_over_family([free_block(2)], mode)


def test_same_discriminant_membership():
    from jbv import same_discriminant
    q = 4
    rng = np.random.default_rng(27)
    a = (0.5 + rng.random(q)).tolist()
    b = rng.standard_normal(q).tolist()
    P = PeriodicJacobi.of(q, a, b)
    rotated = PeriodicJacobi.of(q, a[2:] + a[:2], b[2:] + b[:2])
    assert same_discriminant(P, rotated)
    assert not same_discriminant(P, PeriodicJacobi.of(q, a, [x + 0.1 for x in b]))
    assert not same_discriminant(P, comb_potential(3, 0.5))


def test_band_structure_near_degenerate_blocks():
    # nearly constant diagonals put every gap near the closed/open boundary;
    # isolation must still account for exactly 2q edges and classify gaps
    # consistently with their widths
    rng = np.random.default_rng(123)
    for _ in range(150):
        q = int(rng.integers(2, 7))
        eps = 10 ** rng.uniform(-9, -4)
        b0 = rng.uniform(-1, 1)
        b = b0 + eps * rng.standard_normal(q)
        bs = band_structure(PeriodicJacobi.of(q, np.ones(q), b), tol=1e-10)
        assert len(bs.bands) == q
        for g in bs.gaps:
            assert g.closed == (g.width < 1e-10)
            assert min(abs(g.center - c) for c in bs.critical_points) < 1e-3


# ---------------------------------------------------------------------------
# the block format is checked by the periodic spec validator

def _value_error_as_none(build):
    try:
        return build()
    except ValueError:
        return None


ENTRY = st.one_of(st.floats(0.1, 2.0),
                  st.sampled_from([-1.0, 0.0, math.nan, math.inf, -math.inf]))


@st.composite
def block_inputs(draw):
    q = draw(st.one_of(st.integers(-1, 4), st.integers(-1, 4).map(np.int64),
                       st.sampled_from([2.7, 2.0])))
    n = draw(st.one_of(st.just(max(int(q), 0)), st.integers(0, 5)))
    entries = st.lists(ENTRY, min_size=n, max_size=n)
    return q, draw(entries), draw(entries)


@settings(max_examples=200, deadline=None)
@given(block_inputs())
def test_block_and_periodic_spec_accept_the_same_inputs(inputs):
    q, a, b = inputs
    P = _value_error_as_none(lambda: PeriodicJacobi.of(q, a, b))
    spec = _value_error_as_none(lambda: periodic_spec(q, a, b))
    assert (P is None) == (spec is None)
    if P is not None:
        assert P.to_dict() == spec.params
        text = json.dumps(P.to_dict(), allow_nan=False)
        assert PeriodicJacobi.from_dict(json.loads(text)) == P


def test_numpy_integer_period_serialises():
    P = PeriodicJacobi.of(np.int64(2), np.ones(2), np.zeros(2))
    assert type(P.q) is int
    assert json.loads(json.dumps(P.to_dict(), allow_nan=False))["q"] == 2


@pytest.mark.parametrize("q", [2.7, 2.0, "2", None])
def test_block_rejects_a_non_integral_period(q):
    # 2.7 used to be truncated to a q=2 block
    with pytest.raises(ValueError):
        PeriodicJacobi.of(q, [1.0, 1.0], [0.0, 0.5])


# ---------------------------------------------------------------------------
# the array scan against the sample-at-a-time scan, bit for bit

def _exact(compute):
    """repr of a result or of the exception raised: floats print distinctly,
    zero signs included."""
    try:
        return repr(compute())
    except Exception as exc:  # the same failure must come out
        return repr((type(exc), str(exc)))


def _array_band_edges(P):
    bs = band_structure(P)
    return ([b.as_pair() for b in bs.bands],
            [(g.lo, g.hi, g.closed) for g in bs.gaps],
            list(bs.critical_points), bs.discriminant.coeffs)


def _assert_scans_agree(P):
    assert _exact(lambda: _array_band_edges(P)) == _exact(lambda: scalar_band_edges(P))


def _retrying_blocks(seed):
    # about half of these leave the first grid with wrong root counts
    rng = np.random.default_rng(seed)
    return ([PeriodicJacobi.of(16, rng.uniform(0.5, 1.5, 16), rng.uniform(-1, 1, 16))
             for _ in range(6)]
            + [PeriodicJacobi.of(16, 10 ** rng.uniform(-1, 0, 16), rng.uniform(-1, 1, 16))
               for _ in range(6)])


def _failing_random_block():
    # the bisection solver raises RootIsolationError on it
    rng = np.random.default_rng(0)
    return PeriodicJacobi.of(24, rng.uniform(0.5, 1.5, 24).tolist(),
                             rng.uniform(-1, 1, 24).tolist())


def _examples(cases):
    """One hypothesis example per tuple of arguments."""
    def add(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return add


@settings(max_examples=25)
@given(st.integers(1, 32).flatmap(lambda q: st.tuples(
    st.lists(st.floats(0.5, 1.5), min_size=q, max_size=q),
    st.lists(st.floats(-1.0, 1.0), min_size=q, max_size=q))))
@_examples([((list(P.a), list(P.b)),) for P in
            [P for s in range(3) for P in _retrying_blocks(s)] + [_failing_random_block()]])
def test_array_scan_matches_scalar_scan_on_random_blocks(ab):
    a, b = ab
    _assert_scans_agree(PeriodicJacobi.of(len(a), a, b))


@settings(max_examples=25)
@given(st.integers(2, 32), st.floats(0.1, 1.0))
@example(20, 0.5)   # wrong edges, no error (ROADMAP item 3)
@example(24, 0.5)
@example(32, 0.5)   # RootIsolationError
@_examples([(24, 0.1 * k) for k in range(1, 9)])   # noise-floor edges (ROADMAP item 3)
def test_array_scan_matches_scalar_scan_on_comb_blocks(q, w):
    _assert_scans_agree(comb_potential(q, w))


def test_array_scan_matches_scalar_scan_on_verify_random_draws():
    # comb blocks drawn as `verify --random` draws them
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = int(rng.integers(2, 5))
        _assert_scans_agree(comb_potential(q, float(rng.uniform(0.1, 1.0))))


def test_band_scans_leave_numpy_ma_unimported():
    # np.unique and np.union1d import numpy.ma, about a megabyte of peak RSS
    import subprocess
    import sys
    code = (
        "import contextlib, io, sys\n"
        "from jbv import band_structure, cli, comb_potential\n"
        "band_structure(comb_potential(8, 0.5))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--random', '5', '--seed', '1']) == 0\n"
        "    for mode in ('spectrum', 'qinterior'):\n"
        "        assert cli.main(['intersect', '--q', '8', '--lambda', '0.5',\n"
        "                         '--points', '21', '--mode', mode]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("q", [3, 5])
def test_array_scan_matches_scalar_scan_on_badly_scaled_blocks(q):
    # overflowing array passes, and blocks that fail in every way
    rng = np.random.default_rng(q)
    for _ in range(24):
        _assert_scans_agree(PeriodicJacobi.of(
            q, 10 ** rng.uniform(-12, 0, q), rng.uniform(-1, 1, q) * 10 ** rng.uniform(0, 12, q)))


@pytest.mark.parametrize("a, b", [([1e200] * 3, [0.0] * 3), ([1e200] * 3, [1e300] * 3),
                                  ([1e120, 1e200, 1e300], [-0.0, 1.0, -1e-300])])
def test_array_scan_keeps_a_lone_zero_like_the_scalar_scan(a, b):
    # 1/(a_1 a_2 a_3) underflows to zero: numpy would trim it, nothing here
    # does, and both scans must keep the same zero
    _assert_scans_agree(PeriodicJacobi.of(3, a, b))


@pytest.mark.parametrize("a, message", [(1e-200, "discriminant of a q=3 block"),
                                        (2.2e-103, "derivative of a degree-3")])
def test_coefficients_past_float_range_fail_alike_on_both_paths(a, message):
    # finite blocks whose discriminant, or only its derivative (1/a^3 is
    # about 9.4e307), leaves float range
    P = PeriodicJacobi.of(3, [a] * 3, [0.0] * 3)
    with pytest.raises(OverflowError, match=message):
        band_structure(P)
    _assert_scans_agree(P)


def cli_shift_family(q, lam, points):
    """The constant-shift family `intersect --q --lambda --points` builds."""
    betas = [-lam + 2.0 * lam * i / (points - 1) for i in range(points)]
    return [PeriodicJacobi.of(q, [1.0] * q, [beta] * q) for beta in betas]


def test_failing_member_raises_the_first_failure():
    # the bisection solver fails on a random q=24 and the comb q=32 block;
    # the intersection, on eigenvalue edges, returns the mpmath oracle's set
    from test_band_edges import assert_sets_match, oracle_intersection
    family = cli_shift_family(3, 0.5, 5) + [_failing_random_block(),
                                             comb_potential(32, 0.5)]
    for P in family[-2:]:
        with pytest.raises(RootIsolationError):
            band_structure(P)
    assert_sets_match(intersection_over_family(family, "spectrum"),
                      oracle_intersection(family, "spectrum"))


@pytest.mark.parametrize("tol", [1e-4, 1e-3])
@pytest.mark.parametrize("P", [free_block(3), free_block(8), comb_potential(4, 0.5)],
                         ids=["free3", "free8", "comb4"])
def test_coarse_tolerance_keeps_closed_gaps(P, tol):
    # critical points are isolated finer than tol, so a double root at a
    # closed gap stays within the noise floor of +-2
    bs = band_structure(P, tol)
    assert len(bs.bands) == P.q and len(bs.critical_points) == P.q - 1
    assert all(g.closed == (P.b[0] == P.b[-1]) for g in bs.gaps)
    fine = band_structure(P)
    assert np.allclose([x for b in bs.bands for x in b.as_pair()],
                       [x for b in fine.bands for x in b.as_pair()], atol=2 * tol)


@pytest.mark.parametrize("value, error", [(2.5, TypeError), (True, TypeError),
                                          (-1, ValueError)])
@pytest.mark.parametrize("helper, name", [
    (free_critical_points, "period q"),
    (lambda n: chebyshev_second_kind(n, 0.3), "degree n")],
    ids=["free_critical_points", "chebyshev_second_kind"])
def test_free_helpers_take_integers_by_the_rule(helper, name, value, error):
    # chebyshev_second_kind(True, x) used to return p_1(x), and 2.5 failed in
    # range() without naming the argument, as did free_critical_points(2.5)
    with pytest.raises(error, match=f"^{name} must be an integer"):
        helper(value)


@pytest.mark.parametrize("call, error, message", [
    (lambda: comb_potential(2, "0.5"), TypeError, "coupling must be a real number, got '0.5'"),
    (lambda: one_step_matrix("1", 0, 0.3), TypeError,
     "off-diagonal coefficient must be a real number, got '1'"),
    (lambda: chebyshev_second_kind(3, math.nan), ValueError, "argument x must be finite, got nan"),
    (lambda: free_block(2).shifted("1"), TypeError, "shift c must be a real number, got '1'"),
    (lambda: same_discriminant(free_block(2), free_block(2), "x"), TypeError,
     "tol must be a real number, got 'x'"),
    (lambda: same_discriminant(free_block(2), 3), TypeError,
     "p2 must be a PeriodicJacobi, got 3"),
    (lambda: spectral_bracket("P"), TypeError, "P must be a PeriodicJacobi, got 'P'"),
    (lambda: wronskian_defect("u"), TypeError, "u must be a WeylSolution, got 'u'"),
    (lambda: strip_margins(comb_potential(2, 0.5), 0.6, 1.2, y_max="0.05"), TypeError,
     "y_max must be a real number, got '0.05'"),
    (lambda: strip_margins(comb_potential(2, 0.5), 0.6, 1.2, y_max=True), TypeError,
     "y_max must be a real number, got True"),
    (lambda: strip_margins(comb_potential(2, 0.5), 0.6, 1.2, y_max=-0.05), ValueError,
     "need nx >= 2 and ny >= 1 and y_max > 0, got nx=41, ny=8, y_max=-0.05"),
], ids=["comb_potential w", "one_step_matrix a", "chebyshev_second_kind x", "shifted c",
        "same_discriminant tol", "same_discriminant p2", "spectral_bracket P",
        "wronskian_defect u", "strip_margins y_max str", "strip_margins y_max bool",
        "strip_margins y_max<0"])
def test_real_arguments_follow_the_number_rule(call, error, message):
    # the strings failed with TypeErrors that named no argument, or with an
    # AttributeError (spectral_bracket, wronskian_defect, same_discriminant),
    # chebyshev_second_kind(3, nan) returned nan, and strip_margins failed on
    # y_max = "0.05" inside numpy, ran y_max = True as 1.0 and returned
    # contraction_slope = inf for y_max <= 0
    with pytest.raises(error, match=f"^{message}$"):
        call()
