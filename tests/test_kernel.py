"""The blocked transfer kernel against the sequential loops it replaced, its
energy axis against single-energy scans, the schedule search on it against
the prefix replay, and the density solve on it against an mpmath recursion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbv import (ApproximantSpec, GrowthScanner, Matrix2, OutsideBandError,
                 ScaledMatrix2, ac_density, build_schedule, coefficient_arrays,
                 explicit_spec, free_spec, growth_statistic, one_step_matrix,
                 periodic_spec, slow_cosine_spec, staircase_comb_spec,
                 transfer_product)
from jbv.transfer import CHUNK, LANE_CHUNK, SCAN_MIN, log_norm2, transfer_scan
from oracles import replayed_schedule_rows

COSINE = slow_cosine_spec(0.5, 0.4)
STAIRCASE_SCHEDULE = build_schedule(2, 0.5, levels=3)
STAIRCASE = staircase_comb_spec(STAIRCASE_SCHEDULE)
# reassociating the product moves it by rounding only: the deviations
# measured on the cosine, staircase and comb-window specs stay below 5e-11
KERNEL_RTOL = 1e-9


def scanner_product(sc):
    return ScaledMatrix2(Matrix2(sc.t11, sc.t12, sc.t21, sc.t22), sc.log_scale)


def sequential_log_norms(a, b, x):
    """log ||T_{1,n}(x)||^2 for every n, and the final product, from
    GrowthScanner fed one step at a time."""
    sc = GrowthScanner(x)
    out = []
    for ai, bi in zip(a.tolist(), b.tolist()):
        sc.feed(ai, bi)
        out.append(2.0 * scanner_product(sc).op_norm_log())
    return np.array(out), scanner_product(sc)


def matrix2_chain(spec, m, n, z):
    t = ScaledMatrix2.of(Matrix2.identity())
    a, b = coefficient_arrays(spec, m, n + 1)
    for ai, bi in zip(a.tolist(), b.tolist()):
        t = t.left_mul(one_step_matrix(ai, bi, z))
    return t


def assert_same_product(ours, ref):
    scale = math.exp(ours.log_scale - ref.log_scale)
    got = np.array(ours.mantissa.entries()) * scale
    want = np.array(ref.mantissa.entries())
    assert np.max(np.abs(got - want)) <= KERNEL_RTOL * np.max(np.abs(want))


def assert_kernel_matches_scanner(spec, n, x):
    a, b = coefficient_arrays(spec, 1, n + 1)
    scans = list(transfer_scan(a, b, x, prefixes=True))
    ours = np.concatenate([log_norm2(s.prefix_t, s.prefix_e) for s in scans])
    ref, final = sequential_log_norms(a, b, x)
    assert np.all(np.abs(ours - ref) <= KERNEL_RTOL * (1.0 + np.abs(ref)))
    last = scans[-1]
    assert_same_product(
        ScaledMatrix2(Matrix2(*last.t.ravel().tolist()), last.e * math.log(2.0)),
        final)
    return last


@st.composite
def specs_with_length(draw):
    kind = draw(st.sampled_from(["periodic", "explicit", "cosine", "staircase"]))
    if kind == "periodic":
        q = draw(st.integers(1, 4))
        coef = st.lists(st.floats(0.5, 1.5), min_size=q, max_size=q)
        diag = st.lists(st.floats(-1.0, 1.0), min_size=q, max_size=q)
        return periodic_spec(q, draw(coef), draw(diag)), 700
    if kind == "explicit":
        n = draw(st.integers(1, 400))
        coef = st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)
        diag = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
        return explicit_spec(draw(coef), draw(diag)), n
    if kind == "cosine":
        return COSINE, 3000
    return STAIRCASE, STAIRCASE_SCHEDULE.horizon


@settings(max_examples=60, deadline=None)
@given(spec_len=specs_with_length(), x=st.floats(-3.0, 3.0),
       frac=st.floats(0.0, 1.0))
def test_kernel_log_norms_match_growth_scanner(spec_len, x, frac):
    # in band, in gaps and off band, at every length from 1 to the spec's
    spec, horizon = spec_len
    assert_kernel_matches_scanner(spec, max(1, round(frac * horizon)), x)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 17, 26, 99])
def test_kernel_short_and_ragged_lengths(n):
    # lengths below, at and off a multiple of the block length ceil(sqrt(n))
    for x in (0.3, 1.7, 2.6):
        assert_kernel_matches_scanner(STAIRCASE, n, x)
        assert_kernel_matches_scanner(COSINE, n, x)


def test_kernel_off_band_rescale_path():
    # x = 2.6 is off the cosine spectrum: the product passes the rescale
    # limit many times within one call
    scan = assert_kernel_matches_scanner(COSINE, 20000, 2.6)
    assert scan.e > 1000


@settings(max_examples=30, deadline=None)
@given(spec_len=specs_with_length(), x=st.floats(-3.0, 3.0),
       y=st.floats(1e-3, 1.0), frac=st.floats(0.0, 1.0))
def test_transfer_product_matches_matrix2_chain_at_complex_z(spec_len, x, y, frac):
    spec, horizon = spec_len
    n = max(1, round(frac * horizon))
    m = 1 + n // 3
    z = complex(x, y)
    assert_same_product(transfer_product(spec, m, n, z), matrix2_chain(spec, m, n, z))


def test_kernel_across_chunk_boundary():
    n = 2 * CHUNK + 37  # crosses two chunk boundaries
    for x in (1.0, 2.6):
        a, b = coefficient_arrays(COSINE, 1, n + 1)
        ref, final = sequential_log_norms(a, b, x)
        assert_same_product(transfer_product(COSINE, 1, n, x), final)
        gs = growth_statistic(COSINE, x, n)
        ns = np.arange(2, n + 1)
        stat = (np.logaddexp.accumulate(ref)[1:] - np.log(ns)
                - 2.0 * np.log(np.log(ns)))
        assert gs.log_value == pytest.approx(stat[-1], rel=KERNEL_RTOL)
        assert gs.log_running_max == pytest.approx(stat.max(), rel=KERNEL_RTOL)
        assert gs.trace[-2][0] > CHUNK   # checkpoints read from later chunks
        for cp, v in gs.trace:
            assert v == pytest.approx(stat[cp - 2], rel=KERNEL_RTOL, abs=KERNEL_RTOL)


def test_operator_norms_of_nearly_orthogonal_products_match_mpmath():
    # the free spec at x = 1e-9 multiplies near-rotations, so every product
    # is nearly orthogonal: a 1 - r^2 form of the norm loses half the digits
    # there.  The kernel, GrowthScanner's per-step loop and Matrix2.op_norm
    # are each held to 1e-12 in log ||T_{1,n}||^2 and in the statistic.
    mpmath = pytest.importorskip("mpmath")
    x, n = 1e-9, 700
    with mpmath.workdps(50):
        step = mpmath.matrix([[mpmath.mpf(x), -1], [1, 0]])
        t, total, ref, ref_stat = mpmath.eye(2), 0, [], []
        for k in range(1, n + 1):
            t = step * t
            p = t[0, 0] ** 2 + t[0, 1] ** 2
            s = t[1, 0] ** 2 + t[1, 1] ** 2
            r = t[0, 0] * t[1, 0] + t[0, 1] * t[1, 1]
            norm2 = (p + s + mpmath.sqrt((p - s) ** 2 + 4 * r * r)) / 2
            total += norm2
            ref.append(float(mpmath.log(norm2)))
            if k >= 2:
                ref_stat.append(float(mpmath.log(total) - mpmath.log(k)
                                      - 2 * mpmath.log(mpmath.log(k))))
    a, b = coefficient_arrays(free_spec(), 1, n + 1)
    kernel = np.concatenate([log_norm2(s.prefix_t, s.prefix_e)
                             for s in transfer_scan(a, b, x, prefixes=True)])
    assert np.max(np.abs(kernel - ref)) <= 1e-12
    op_norms, _ = sequential_log_norms(a, b, x)
    assert np.max(np.abs(op_norms - ref)) <= 1e-12
    sc = GrowthScanner(x)
    stats = [sc.feed_arrays([1.0], [0.0])[0] for _ in range(n)]
    assert np.max(np.abs(np.array(stats[1:]) - ref_stat)) <= 1e-12


def test_growth_scanner_long_runs_match_single_steps():
    # runs of SCAN_MIN steps or more go through the kernel, shorter ones
    # step by step; mixing them changes neither the scan nor the per-step
    # statistics feed_arrays returns
    a, b = coefficient_arrays(COSINE, 1, 3001)
    for x in (0.3, -1.9, 2.6):
        ref = GrowthScanner(x)
        want = [ref.feed_arrays([ai], [bi])[0]
                for ai, bi in zip(a.tolist(), b.tolist())]
        sc = GrowthScanner(x)
        got = []
        cuts = (0, 1, 1 + SCAN_MIN, 1200, 1205, 3000)
        for lo, hi in zip(cuts, cuts[1:]):
            got += list(sc.feed_arrays(a[lo:hi], b[lo:hi]))
        assert sc.n == ref.n == 3000
        assert got[0] == want[0] == -math.inf
        assert got[1:] == pytest.approx(want[1:], rel=KERNEL_RTOL)
        for attr in ("statistic_log", "running_max_log"):
            assert getattr(sc, attr) == pytest.approx(getattr(ref, attr),
                                                      rel=KERNEL_RTOL)
        assert_same_product(scanner_product(sc), scanner_product(ref))


# ---------------------------------------------------------------------------
# the energy axis: lanes against separate single-energy scans

LANE_RTOL = 1e-12


def single_energy_scans(a, b, z, start, steps):
    """Per-step products (mantissa, exponent) and the final one at one
    energy, from single-energy kernel calls over the pieces a lane call cuts
    (`steps` = LANE_CHUNK // lanes), so that the association is the same."""
    pre_t, pre_e, t, e = [], [], start, 0
    for lo in range(0, len(a), steps):
        *_, scan = transfer_scan(a[lo:lo + steps], b[lo:lo + steps], z, t,
                                 prefixes=True)
        pre_t.append(scan.prefix_t)
        pre_e.append(scan.prefix_e + e)
        t, e = scan.t, e + int(scan.e)
    return np.concatenate(pre_t, axis=2), np.concatenate(pre_e), t, e


def assert_lanes_match_single(a, b, zs, start=None):
    zs = np.asarray(zs)
    lanes = list(transfer_scan(a, b, zs, start, prefixes=True))
    assert len(lanes) == -(-len(a) // (LANE_CHUNK // len(zs)))
    pre_t = np.concatenate([s.prefix_t for s in lanes], axis=2)
    pre_e = np.concatenate([s.prefix_e for s in lanes])
    assert pre_t.shape[2:] == pre_e.shape == (len(a), len(zs))
    for i, z in enumerate(zs.tolist()):
        lane_start = np.eye(2) if start is None else start[..., i]
        t, e, ft, fe = single_energy_scans(a, b, z, lane_start,
                                           LANE_CHUNK // len(zs))
        assert np.array_equal(pre_e[:, i], e)
        assert lanes[-1].e[i] == fe
        scale = np.abs(t).max(axis=(0, 1))
        assert np.all(np.abs(pre_t[..., i] - t).max(axis=(0, 1))
                      <= LANE_RTOL * scale)
        assert np.abs(lanes[-1].t[..., i] - ft).max() <= LANE_RTOL * np.abs(ft).max()


energies = st.lists(st.one_of(
    st.floats(-3.0, 3.0),
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(1e-3, 1.0))),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(spec_len=specs_with_length(), zs=energies, frac=st.floats(0.0, 1.0),
       seeded=st.booleans())
def test_energy_axis_matches_single_energy_scans(spec_len, zs, frac, seeded):
    # real and complex lanes, every length from 1 to the spec's, from the
    # identity or from a start matrix per lane
    spec, horizon = spec_len
    a, b = coefficient_arrays(spec, 1, max(1, round(frac * horizon)) + 1)
    start = (np.random.default_rng(len(a)).normal(size=(2, 2, len(zs)))
             if seeded else None)
    assert_lanes_match_single(a, b, zs, start)


@pytest.mark.parametrize("n", [1, 2, 17, 99])
def test_energy_axis_short_and_ragged_lengths(n):
    a, b = coefficient_arrays(STAIRCASE, 1, n + 1)
    assert_lanes_match_single(a, b, [0.3, 1.7 + 0.1j, 2.6])


def test_energy_axis_across_two_chunk_boundaries():
    a, b = coefficient_arrays(COSINE, 1, 2 * CHUNK + 38)
    assert_lanes_match_single(a, b, [1.0, 2.6])
    assert_lanes_match_single(a, b, [0.4 + 0.05j, -1.2])


def test_energy_axis_off_band_rescale_path():
    # x = 2.6 is off the cosine spectrum: the products pass the rescale limit
    # many times in one call, in one lane and not in the other
    a, b = coefficient_arrays(COSINE, 1, 20001)
    assert_lanes_match_single(a, b, [2.6, 0.3])
    *_, scan = transfer_scan(a, b, np.array([2.6, 0.3]))
    assert scan.e[0] > 1000 > scan.e[1]


# ---------------------------------------------------------------------------
# the empirical schedule search on energy lanes against the prefix replay


@pytest.mark.parametrize("q, levels, margin", [
    (2, 2, 1.0), (2, 5, 1.0), (3, 3, 1.0), (4, 3, 1.0),
    (2, 5, 1.5), (3, 3, 1.5), (4, 3, 1.5)])
def test_schedule_rows_equal_prefix_replay(q, levels, margin):
    sched = build_schedule(q, 0.5, levels, growth_margin=margin)
    assert not sched.truncated
    assert sched.rows == replayed_schedule_rows(sched)


def test_truncated_schedule_rows_equal_prefix_replay():
    sched = build_schedule(2, 0.5, 5, cap=1500)
    assert sched.truncated and sched.horizon == 1500
    assert sched.rows == replayed_schedule_rows(sched)


# ---------------------------------------------------------------------------
# the density solve on the kernel


def mpmath_density(spec, N, x, dps=40):
    """f(x) of the q = 1 approximant by the backward recursion in mpmath,
    on the same float coefficients."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        a, b = (list(map(mpmath.mpf, v.tolist()))
                for v in coefficient_arrays(spec, 1, N + 2))
        x = mpmath.mpf(x)
        delta = x - b[N]      # block N is the single step at index N + 1
        lam = (delta + 1j * mpmath.sqrt(4 - delta ** 2)) / 2
        u1, u2 = lam, mpmath.mpf(1)
        for n in range(N, 0, -1):
            u1, u2 = u2 / a[n - 1], -a[n - 1] * u1 + (x - b[n - 1]) / a[n - 1] * u2
        return abs(mpmath.im(lam) / (mpmath.pi * abs(u2) ** 2))


def test_density_near_float_range_matches_mpmath():
    # at N = 2000 the cosine approximant's |u_0[1]|^2 passes 1e298 at
    # x = -1.8; the scaled backward solve keeps it exact to rounding
    aspec = ApproximantSpec(COSINE, 1, 2000)
    ref = mpmath_density(aspec.base, 2000, -1.8)
    assert float(ref) == pytest.approx(1.1799e-299, rel=1e-4)
    assert ac_density(aspec, -1.8) == pytest.approx(float(ref), rel=1e-8)


def test_branch_signs_are_exact_negatives():
    # at real x the s = -1 solve is the exact conjugate of the s = +1 one
    cases = [(ApproximantSpec(COSINE, 1, 300), np.linspace(-1.9, 1.9, 39)),
             (ApproximantSpec(STAIRCASE, 2, 200), np.linspace(-2.4, 2.4, 25))]
    for aspec, xs in cases:
        checked = 0
        for x in xs.tolist():
            try:
                fp = ac_density(aspec, x, +1)
            except OutsideBandError:
                continue
            assert fp == -ac_density(aspec, x, -1)
            assert ac_density(aspec, x) == abs(fp)
            checked += 1
        assert checked >= 10
