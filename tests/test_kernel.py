"""The pairwise-tree transfer kernel against the sequential loops it
replaced, its energy axis against single-energy scans, the schedule search on
it against the prefix replay, and the density solve on it against an mpmath
recursion."""

import math
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jbv import (ApproximantSpec, GrowthScanner, Matrix2, OutsideBandError,
                 ScaledMatrix2, ac_density, build_schedule, coefficient_arrays,
                 explicit_spec, free_spec, growth_statistic, one_step_matrix,
                 periodic_spec, slow_cosine_spec, staircase_comb_spec,
                 staircase_level_value, transfer_product)
from jbv import constructions, transfer
from jbv.constructions import _Lanes
from jbv.matrix2 import RESCALE_LIMIT
from jbv.transfer import CHUNK, Scan, _log_sums, log_norm2, transfer_scan
from oracles import _threshold_log, frozen_transfer_scan, replayed_schedule_rows

COSINE = slow_cosine_spec(0.5, 0.4)
STAIRCASE_SCHEDULE = build_schedule(2, 0.5, levels=3)
STAIRCASE = staircase_comb_spec(STAIRCASE_SCHEDULE)
# reassociating the product moves it by rounding only: the deviations
# measured on the cosine, staircase and comb-window specs stay below 5e-11
KERNEL_RTOL = 1e-9


def scanner_product(sc):
    """The scanner's product as (t, e) for t * 2**e."""
    return np.array([[sc.t11, sc.t12], [sc.t21, sc.t22]]), sc.e


def scaled_parts(m):
    """A ScaledMatrix2 as (t, e) for t * 2**e: its mantissa is rescaled by
    powers of two, so its log_scale is e ln 2 up to rounding."""
    e = round(m.log_scale / math.log(2.0))
    assert abs(m.log_scale - e * math.log(2.0)) <= 1e-9 * (1.0 + abs(m.log_scale))
    return np.array(m.mantissa.entries()).reshape(2, 2), e


def shifted(t, d):
    """t * 2**d entrywise, exactly, complex t included."""
    return np.ldexp(t.real, d) + 1j * np.ldexp(t.imag, d)


def scanner_steps(a, b, x):
    """GrowthScanner fed one step at a time: log ||T_{1,n}(x)||^2 for every
    n, and the product after every step as mantissas (2, 2, n) and integer
    exponents (n,)."""
    sc, norms, mantissas, exps = GrowthScanner(x), [], [], []
    for ai, bi in zip(a.tolist(), b.tolist()):
        sc.feed(ai, bi)
        t = Matrix2(sc.t11, sc.t12, sc.t21, sc.t22)
        norms.append(2.0 * (math.log(t.op_norm()) + sc.e * math.log(2.0)))
        mantissas.append(t.entries())
        exps.append(sc.e)
    return np.array(norms), np.array(mantissas).T.reshape(2, 2, -1), np.array(exps)


def sequential_log_norms(a, b, x):
    """log ||T_{1,n}(x)||^2 for every n, and the final product as (t, e),
    from GrowthScanner fed one step at a time."""
    norms, t, e = scanner_steps(a, b, x)
    return norms, (t[:, :, -1], int(e[-1]))


def matrix2_chain(spec, m, n, z):
    t = ScaledMatrix2.of(Matrix2.identity())
    a, b = coefficient_arrays(spec, m, n + 1)
    for ai, bi in zip(a.tolist(), b.tolist()):
        t = t.left_mul(one_step_matrix(ai, bi, z))
    return scaled_parts(t)


def assert_same_product(ours, ref):
    """ours = (t, e) equals ref = (ref_t, ref_e) entry by entry within
    KERNEL_RTOL of ref's largest entry, once the exponents are aligned
    exactly."""
    (t, e), (ref_t, ref_e) = ours, ref
    got = shifted(t, int(e) - int(ref_e))
    assert np.max(np.abs(got - ref_t)) <= KERNEL_RTOL * np.max(np.abs(ref_t))


def assert_kernel_matches_scanner(spec, n, x):
    a, b = coefficient_arrays(spec, 1, n + 1)
    scans = list(transfer_scan(a, b, x, prefixes=True))
    ours = np.concatenate([log_norm2(s.prefix_t, s.prefix_e) for s in scans])
    ref, final = sequential_log_norms(a, b, x)
    assert np.all(np.abs(ours - ref) <= KERNEL_RTOL * (1.0 + np.abs(ref)))
    last = scans[-1]
    assert_same_product((last.t, last.e), final)
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
    assert_same_product(scaled_parts(transfer_product(spec, m, n, z)),
                        matrix2_chain(spec, m, n, z))


def test_kernel_across_chunk_boundary():
    n = 2 * CHUNK + 37  # crosses two chunk boundaries
    for x in (1.0, 2.6):
        a, b = coefficient_arrays(COSINE, 1, n + 1)
        ref, final = sequential_log_norms(a, b, x)
        assert_same_product(scaled_parts(transfer_product(COSINE, 1, n, x)), final)
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
    # there.  The kernel, GrowthScanner.feed and Matrix2.op_norm
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
    stats = []
    for _ in range(n):
        sc.feed(1.0, 0.0)
        stats.append(sc.statistic_log if sc.n >= 2 else -math.inf)
    assert np.max(np.abs(np.array(stats[1:]) - ref_stat)) <= 1e-12


def test_growth_scanner_long_runs_match_single_steps():
    # runs of any length go through the kernel; fed one step at a time, the
    # scanner is the sequential reference for the scan and for the per-step
    # statistics feed_arrays returns
    a, b = coefficient_arrays(COSINE, 1, 3001)
    for x in (0.3, -1.9, 2.6):
        ref = GrowthScanner(x)
        want = []
        for ai, bi in zip(a.tolist(), b.tolist()):
            ref.feed(ai, bi)
            want.append(ref.statistic_log if ref.n >= 2 else -math.inf)
        sc = GrowthScanner(x)
        got = []
        cuts = (0, 1, 257, 1200, 1205, 3000)
        for lo, hi in zip(cuts, cuts[1:]):
            got += list(sc.feed_arrays(a[lo:hi], b[lo:hi]))
        assert sc.n == ref.n == 3000
        assert got[0] == want[0] == -math.inf
        assert got[1:] == pytest.approx(want[1:], rel=KERNEL_RTOL)
        for attr in ("statistic_log", "running_max_log"):
            assert getattr(sc, attr) == pytest.approx(getattr(ref, attr),
                                                      rel=KERNEL_RTOL)
        assert_same_product(scanner_product(sc), scanner_product(ref))


def test_growth_scanner_empty_run_changes_nothing():
    sc = GrowthScanner(0.3)
    sc.feed_arrays([1.0] * 3, [0.2, -0.1, 0.4])
    before = (sc.n, sc.log_sum, sc.running_max_log, sc.t11, sc.t12, sc.t21,
              sc.t22, sc.e)
    stats = sc.feed_arrays([], [])
    assert stats.dtype == np.float64 and stats.shape == (0,)
    assert (sc.n, sc.log_sum, sc.running_max_log, sc.t11, sc.t12, sc.t21,
            sc.t22, sc.e) == before


# ---------------------------------------------------------------------------
# the pairwise tree at the lengths where a level carries an odd tail

# lengths around each power of two, where the tree's levels carry odd tails
# (2^k - 1, 2^k + 1) or none (2^k), up to one chunk and one step past it, and
# a run whose second call is one step short of a chunk
TREE_LENGTHS = sorted({1, 2, 3, 5, 2 * CHUNK - 1} | {
    2 ** k + d for k in range(4, 14) for d in (-1, 0, 1)})


def assert_same_products(t, e, ref_t, ref_e):
    """Each kernel product t * 2**e (matrix axes first) equals the reference
    ref_t * 2**ref_e entry by entry within KERNEL_RTOL of the reference's
    largest entry, once the exponents are aligned exactly."""
    ref_t = ref_t[:, :t.shape[1]]
    gap = np.abs(shifted(t, e - ref_e) - ref_t).max(axis=(0, 1))
    assert np.all(gap <= KERNEL_RTOL * np.abs(ref_t).max(axis=(0, 1)))


@pytest.mark.parametrize("x", [0.3, 2.6, 1e200, -1e200, 1e300])
def test_tree_lengths_match_growth_scanner(x):
    # in band, off band, and at energies whose single steps pass the rescale
    # limit, where a product of two unrescaled steps leaves float range
    a, b = coefficient_arrays(COSINE, 1, TREE_LENGTHS[-1] + 1)
    ref, ref_t, ref_e = scanner_steps(a, b, x)
    for n in TREE_LENGTHS:
        scans = list(transfer_scan(a[:n], b[:n], x, prefixes=True))
        ours = np.concatenate([log_norm2(s.prefix_t, s.prefix_e) for s in scans])
        assert np.all(np.isfinite(ours)), n
        assert np.all(np.abs(ours - ref[:n])
                      <= KERNEL_RTOL * (1.0 + np.abs(ref[:n]))), n
        *_, last = transfer_scan(a[:n], b[:n], x)
        for scan in (scans[-1], last):
            assert_same_products(scan.t[:, :, None], np.reshape(scan.e, 1),
                                 ref_t[:, :, n - 1:n], ref_e[n - 1:n])


@pytest.mark.parametrize("x", [1e200, 1e300])
def test_growth_scanner_product_is_exact_in_scale_at_huge_energies(x):
    # feed used to divide by the largest entry and add its log to a float
    # scale, which drifted about n eps: at x = 1e200 its product was 1.6e-6
    # of the largest entry off the kernel's after 16383 steps.  Rescaled by
    # powers of two, the two differ by rounding only
    n_max = 2 * CHUNK - 1
    a, b = coefficient_arrays(COSINE, 1, n_max + 1)
    sc = GrowthScanner(x)
    for n, (ai, bi) in enumerate(zip(a.tolist(), b.tolist()), 1):
        sc.feed(ai, bi)
        if n in (1000, n_max):
            *_, scan = transfer_scan(a[:n], b[:n], x)
            t, _ = scanner_product(sc)
            got = np.ldexp(scan.t, int(scan.e) - sc.e)
            assert np.abs(got - t).max() <= 1e-12 * np.abs(t).max()


def test_huge_energies_on_an_energy_axis_match_growth_scanners():
    # four lanes: calls of CHUNK // 4 steps, the last one of three
    a, b = coefficient_arrays(COSINE, 1, CHUNK // 2 + 4)
    zs = np.array([1e200, -1e200, 1e300, 0.3])
    lanes = list(transfer_scan(a, b, zs, prefixes=True))
    *_, last = transfer_scan(a, b, zs)
    ours = np.concatenate([log_norm2(s.prefix_t, s.prefix_e) for s in lanes])
    for i, x in enumerate(zs.tolist()):
        ref, ref_t, ref_e = scanner_steps(a, b, x)
        assert np.all(np.abs(ours[:, i] - ref) <= KERNEL_RTOL * (1.0 + np.abs(ref)))
        for scan in (lanes[-1], last):
            assert_same_products(scan.t[..., i, None], scan.e[i, None],
                                 ref_t[:, :, -1:], ref_e[-1:])


def assert_rescaled(t):
    """Every matrix (over the two leading axes of t) has its largest entry
    in [1 / RESCALE_LIMIT, RESCALE_LIMIT], as every product the kernel
    returns must: each is a rescaled product or a checked slot 0."""
    top = np.abs(t).max(axis=(0, 1))
    assert np.all((1.0 / RESCALE_LIMIT <= top) & (top <= RESCALE_LIMIT))


def chain_steps(a, b, zs, start, inverse):
    """The products after every step of a Matrix2 chain whose entries run
    over the lanes zs: one_step_matrix, or its adjugate (its inverse) with
    inverse=True, multiplied onto start (2, c, E), each lane whose largest
    entry passes RESCALE_LIMIT divided by the power of two that brings it into
    [0.5, 1).  Returns the mantissas (2, 2, n, E) and the integer exponents
    (n, E)."""
    zero = np.zeros(len(zs))
    t = Matrix2(start[0, 0], start[0, 1] if start.shape[1] == 2 else zero,
                start[1, 0], start[1, 1] if start.shape[1] == 2 else zero)
    e, mantissas, exps = np.zeros(len(zs), np.int64), [], []
    for ai, bi in zip(a.tolist(), b.tolist()):
        step = one_step_matrix(ai, bi, zs)
        t = (step.adjugate() if inverse else step) @ t
        top = np.max(np.abs(t.entries()), axis=0)
        shift = np.where(top > 1e100, np.frexp(top)[1], 0)
        t = t.scaled(np.ldexp(1.0, -shift))
        e = e + shift
        mantissas.append(t.entries())
        exps.append(e)
    mantissas = np.moveaxis(np.array(mantissas), 0, 1).reshape(2, 2, len(a), len(zs))
    return mantissas, np.array(exps)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("start", [None, "matrix", "column"])
@pytest.mark.parametrize("zs", [[0.4 + 0.1j], [0.3, 2.6, -1.2 + 0.05j, 1e200],
                                [0.3, -1.9, 2.6]],
                         ids=["one complex energy", "lanes", "real lanes"])
def test_tree_lengths_match_matrix2_chain(zs, start, inverse):
    # complex energies and lanes, from the identity, a complex matrix or a
    # complex column (the density seeds, also at real energies), forwards and
    # inverse, prefixes on and off
    rng = np.random.default_rng(11)
    n_max = CHUNK + 1
    a, b = rng.uniform(0.5, 1.5, n_max), rng.uniform(-2.0, 2.0, n_max)
    zs = np.array(zs)
    cols = {None: 2, "matrix": 2, "column": 1}[start]
    first = (np.broadcast_to(np.eye(2)[..., None], (2, 2, len(zs))) if start is None
             else rng.normal(size=(2, cols, len(zs))) + 0j)
    ref_t, ref_e = chain_steps(a, b, zs, first, inverse)
    one = len(zs) == 1  # a single energy goes in as a number, not an axis
    z = complex(zs[0]) if one else zs
    kernel_start = (None if start is None else Scan(first[..., 0], 0) if one
                    else Scan(first, np.zeros(len(zs), np.int64)))
    for n in [n for n in TREE_LENGTHS if n <= n_max]:
        scans = list(transfer_scan(a[:n], b[:n], z, kernel_start, prefixes=True,
                                   inverse=inverse))
        *_, last = transfer_scan(a[:n], b[:n], z, kernel_start, inverse=inverse)
        pre_t = np.concatenate([s.prefix_t for s in scans], axis=2)
        pre_e = np.concatenate([s.prefix_e for s in scans])
        if one:
            pre_t, pre_e = pre_t[..., None], pre_e[..., None]
        assert pre_t.shape == (2, cols, n, len(zs))
        assert_rescaled(pre_t)
        assert_same_products(pre_t, pre_e, ref_t[:, :, :n], ref_e[:n])
        for scan in (scans[-1], last):
            assert_rescaled(scan.t)
            assert_same_products(np.reshape(scan.t, (2, cols, 1, len(zs))),
                                 np.reshape(scan.e, (1, len(zs))),
                                 ref_t[:, :, n - 1:n], ref_e[n - 1:n])


# largest entries of a carried mantissa just inside and just outside the
# rescale limits
CARRY_TOPS = {"1e100": RESCALE_LIMIT, "past 1e100": RESCALE_LIMIT * (1 + 2 ** -52),
              "1e-100": 1.0 / RESCALE_LIMIT,
              "below 1e-100": (1.0 / RESCALE_LIMIT) * (1 - 2 ** -52)}


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("top", sorted(CARRY_TOPS))
@pytest.mark.parametrize("z", [0.3, 2.6, 1e200, (0.3, 2.6 + 0.05j)],
                         ids=["0.3", "2.6", "1e200", "complex lanes"])
def test_carries_at_the_rescale_limits_match_matrix2_chains(z, top, inverse):
    # the carry is folded into step 0, whose lineage up the tree is checked
    # at every level while the other slots skip the check where it cannot
    # fire: in band, off band, at an energy whose steps are all rescaled,
    # and on a complex axis, which checks everything
    rng = np.random.default_rng(3)
    n_max = 1100
    a, b = rng.uniform(0.5, 1.5, n_max), rng.uniform(-2.0, 2.0, n_max)
    zs = np.atleast_1d(z)
    start = rng.uniform(0.25, 1.0, (2, 2, len(zs))) * CARRY_TOPS[top]
    start[0, 0] = CARRY_TOPS[top]
    ref_t, ref_e = chain_steps(a, b, zs, start, inverse)
    one = np.ndim(z) == 0
    z, carry = ((z, Scan(start[..., 0], 0)) if one
                else (zs, Scan(start, np.zeros(len(zs), np.int64))))
    for n in (1, 2, 3, 5, 64, 65, 1023, n_max):
        (scan,) = transfer_scan(a[:n], b[:n], z, carry, prefixes=True, inverse=inverse)
        (last,) = transfer_scan(a[:n], b[:n], z, carry, inverse=inverse)
        pre_t, pre_e = scan.prefix_t, scan.prefix_e
        if one:
            pre_t, pre_e = pre_t[..., None], pre_e[..., None]
        assert_rescaled(pre_t)
        assert_rescaled(last.t)
        assert_same_products(pre_t, pre_e, ref_t[:, :, :n], ref_e[:n])
        assert_same_products(np.reshape(last.t, (2, 2, 1, len(zs))),
                             np.reshape(last.e, (1, len(zs))),
                             ref_t[:, :, n - 1:n], ref_e[n - 1:n])


@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_carry_shrinking_below_the_limit_up_the_tree_is_rescaled(level):
    # the carry is 0.99 / RESCALE_LIMIT times the inverse of the first
    # 2**level steps: it is folded into step 0 unscaled, its lineage stays
    # in range up to that level, and there slot 0, the product after step
    # 2**level - 1, comes out just below 1 / RESCALE_LIMIT
    rng = np.random.default_rng(8)
    a, b, x = rng.uniform(0.5, 1.5, 16), rng.uniform(-2.0, 2.0, 16), 0.3
    heads = [np.eye(2)]
    for ai, bi in zip(a.tolist(), b.tolist()):
        heads.append(np.array([[(x - bi) / ai, -1.0 / ai], [ai, 0.0]]) @ heads[-1])
    carry = np.linalg.inv(heads[2 ** level]) * (0.99 / RESCALE_LIMIT)
    for j in range(level):  # slot 0 of the levels below
        assert np.abs(heads[2 ** j] @ carry).max() >= 1.0 / RESCALE_LIMIT
    ref_t, ref_e = chain_steps(a, b, np.array([x]), carry[..., None], False)
    (scan,) = transfer_scan(a, b, x, Scan(carry, 0), prefixes=True)
    assert np.abs(scan.prefix_t[..., 2 ** level - 1]).max() >= 0.5
    assert_rescaled(scan.prefix_t)
    assert_same_products(scan.prefix_t[..., None], scan.prefix_e[..., None], ref_t, ref_e)


def test_growth_scanner_runs_at_a_huge_energy_match_single_steps():
    # at x = 1e200 each log-norm climbs about 920 a step, past what the
    # blocks of the prefix log-sum hold, which then adds term by term
    a, b = coefficient_arrays(COSINE, 1, 301)
    ref, sc = GrowthScanner(1e200), GrowthScanner(1e200)
    want = []
    for ai, bi in zip(a.tolist(), b.tolist()):
        ref.feed(ai, bi)
        want.append(ref.statistic_log if ref.n >= 2 else -math.inf)
    got = np.concatenate([sc.feed_arrays(a[:100], b[:100]), sc.feed_arrays(a[100:], b[100:])])
    assert got[1:] == pytest.approx(want[1:], rel=KERNEL_RTOL)
    assert sc.running_max_log == pytest.approx(ref.running_max_log, rel=KERNEL_RTOL)


# the prefix log-sum against np.logaddexp.accumulate, which adds the terms
# one at a time: a cumsum of up to CHUNK positive terms is within CHUNK eps
# (9.1e-13) of its exact value, relative, so each log-sum is within 1e-12
# of the larger of 1 and itself
LOG_SUM_RTOL = 1e-12


def log_sum_cases():
    rng = np.random.default_rng(5)
    flat = rng.uniform(0.0, 1.0, 5000)
    return {
        "flat": (flat, 3.0),                                   # one block
        "from nothing": (flat, -math.inf),
        "climbing": (np.cumsum(rng.uniform(0.0, 3.0, 5000)), 0.0),  # blocks of 64
        "below the start": (flat, 2000.0),                    # one block
        "jumping": (np.cumsum(rng.uniform(0.0, 40.0, 300)), 1.0),   # term by term
        "lanes": (np.stack([flat, np.cumsum(rng.uniform(0.0, 3.0, 5000)),
                            flat + 700.0], axis=1), np.array([0.0, -math.inf, 5.0])),
        "one row": (np.array([[4.0, -1.0]]), np.array([3.0, 2.0])),
    }


@pytest.mark.parametrize("case", sorted(log_sum_cases()))
def test_log_sums_match_logaddexp_accumulate(case):
    terms, start = log_sum_cases()[case]
    want = np.logaddexp.accumulate(np.concatenate((np.reshape(start, (1,) + terms.shape[1:]),
                                                   terms)))[1:]
    got = _log_sums(terms, start, prefixes=True)
    assert got.shape == terms.shape
    assert np.all(np.abs(got - want) <= LOG_SUM_RTOL * np.maximum(1.0, np.abs(want)))
    total = _log_sums(terms, start, prefixes=False)
    assert np.all(np.abs(total - want[-1]) <= LOG_SUM_RTOL * np.maximum(1.0, np.abs(want[-1])))


# the schedule search decides a step from its lanes' sums before the step is
# fed (`constructions._empirical_step`), which holds while no float log-sum
# falls as terms are added.  Starts of -inf, terms far below the start and
# spreads past 600 included
log_starts = st.one_of(st.just(-math.inf), st.floats(-2000.0, 2000.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 80), width=st.integers(1, 3))
def test_log_sum_totals_never_fall_below_their_start(data, rows, width):
    start = np.array(data.draw(st.lists(log_starts, min_size=width, max_size=width)))
    low = data.draw(st.floats(-4000.0, 2000.0))
    terms = np.array(data.draw(st.lists(
        st.lists(st.floats(low, low + data.draw(st.floats(0.0, 1500.0))),
                 min_size=width, max_size=width), min_size=rows, max_size=rows)))
    total = _log_sums(terms, start, prefixes=False)
    assert np.all(total >= start) and np.all(total >= terms.max(axis=0))


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-4.0, 4.0), start=log_starts,
       steps=st.lists(st.tuples(st.floats(0.2, 5.0), st.floats(-3.0, 3.0)),
                      min_size=1, max_size=400))
def test_growth_scanner_feed_never_lowers_its_log_sum(x, start, steps):
    sc = GrowthScanner(x)
    sc.log_sum = start
    for a, b in steps:
        before = sc.log_sum
        sc.feed(a, b)
        assert sc.log_sum >= before


# ---------------------------------------------------------------------------
# the energy axis: lanes against separate single-energy scans

LANE_RTOL = 1e-12


def single_energy_scans(a, b, z, start, steps):
    """Per-step products (mantissa, exponent) and the final one at one
    energy, from single-energy kernel calls over the pieces a lane call cuts
    (`steps` = CHUNK // lanes), so that the association is the same."""
    pre_t, pre_e, scan = [], [], Scan(start, 0)
    for lo in range(0, len(a), steps):
        *_, scan = transfer_scan(a[lo:lo + steps], b[lo:lo + steps], z, scan,
                                 prefixes=True)
        pre_t.append(scan.prefix_t)
        pre_e.append(scan.prefix_e)
    return np.concatenate(pre_t, axis=2), np.concatenate(pre_e), scan.t, scan.e


def assert_lanes_match_single(a, b, zs, start=None):
    zs = np.asarray(zs)
    lane_starts = None if start is None else Scan(start, np.zeros(len(zs), np.int64))
    lanes = list(transfer_scan(a, b, zs, lane_starts, prefixes=True))
    assert len(lanes) == -(-len(a) // (CHUNK // len(zs)))
    pre_t = np.concatenate([s.prefix_t for s in lanes], axis=2)
    pre_e = np.concatenate([s.prefix_e for s in lanes])
    assert pre_t.shape[2:] == pre_e.shape == (len(a), len(zs))
    for i, z in enumerate(zs.tolist()):
        lane_start = np.eye(2) if start is None else start[..., i]
        t, e, ft, fe = single_energy_scans(a, b, z, lane_start,
                                           CHUNK // len(zs))
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


def test_real_lane_on_a_complex_axis_rounds_as_one_real_energy():
    # numpy's complex division multiplies by 1/a, which rounds the last bit
    # differently from a real division; in a product that grows and then
    # cancels, such bits grow past LANE_RTOL, so the real lane must be exact
    rng = np.random.default_rng(7)
    a, b = rng.uniform(0.5, 1.5, 300), rng.uniform(-2.0, 2.0, 300)
    for inverse in (False, True):
        lanes = list(transfer_scan(a, b, np.array([-2.3, 0.4 + 0.1j, 1.1]),
                                   prefixes=True, inverse=inverse))
        for i, x in ((0, -2.3), (2, 1.1)):
            (scan,) = transfer_scan(a, b, x, prefixes=True, inverse=inverse)
            assert np.array_equal(lanes[-1].prefix_t[..., i], scan.prefix_t)
            assert np.array_equal(lanes[-1].t[..., i], scan.t)


# ---------------------------------------------------------------------------
# a coefficient run per lane against one-lane scans of each run

lane_energies = st.lists(st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([1e200, -1e200, 50.0, 2.6]),   # rescaling fires
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(1e-3, 1.0))),
    min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(zs=lane_energies, n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1),
       start=st.sampled_from([None, "matrix", "column"]), inverse=st.booleans(),
       prefixes=st.booleans())
def test_lane_runs_match_one_lane_scans_bit_for_bit(zs, n, seed, start, inverse,
                                                    prefixes):
    # each lane's run is scanned alone over the pieces the lane call cuts
    # (CHUNK // lanes steps), from the lane's start, and every Scan field of
    # every call must be the lane's, bit for bit
    rng = np.random.default_rng(seed)
    zs, lanes = np.array(zs), len(zs)
    a, b = rng.uniform(0.5, 1.5, (n, lanes)), rng.uniform(-2.0, 2.0, (n, lanes))
    cols = 1 if start == "column" else 2
    first = None if start is None else rng.normal(size=(2, cols, lanes))
    if first is not None and seed % 2:   # a complex start
        first = first + 1j * rng.normal(size=first.shape)
    lane_start = None if first is None else Scan(first, np.zeros(lanes, np.int64))
    scans = list(transfer_scan(a, b, zs, lane_start, prefixes=prefixes, inverse=inverse))
    steps = CHUNK // lanes
    assert len(scans) == -(-n // steps)
    for i, z in enumerate(zs.tolist()):
        one = None if first is None else Scan(first[..., i], 0)
        for k, lo in enumerate(range(0, n, steps)):
            (one,) = transfer_scan(a[lo:lo + steps, i].copy(), b[lo:lo + steps, i].copy(),
                                   z, one, prefixes=prefixes, inverse=inverse)
            lane = scans[k]
            assert np.array_equal(lane.t[..., i], one.t)
            assert lane.e[i] == one.e
            if prefixes:
                assert np.array_equal(lane.prefix_t[..., i], one.prefix_t)
                assert np.array_equal(lane.prefix_e[:, i], one.prefix_e)


# carried mantissas' scales: none, 10^+-99, and a largest entry just below
# 1 / RESCALE_LIMIT, which the fold into step 0 has to rescale
CARRY_SCALES = [1.0, 1e99, 1e-99, (1.0 / RESCALE_LIMIT) * (1 - 2 ** -52)]


@settings(max_examples=150, deadline=None)
@given(lanes=st.sampled_from(["one", "shared", "per lane"]), zs=lane_energies,
       n=st.integers(1, 1500), seed=st.integers(0, 2 ** 32 - 1),
       start=st.sampled_from([None, "matrix", "column"]),
       scale=st.sampled_from(CARRY_SCALES), cosine=st.booleans(),
       tiny_a=st.booleans(), cut=st.sampled_from([1, 3, 64]))
@example(lanes="one", zs=[2.6], n=1500, seed=2, start="matrix", scale=1.0,
         cosine=True, tiny_a=False, cut=1)
@example(lanes="shared", zs=[2.6, 1e200, 0.3 + 0.1j], n=1200, seed=2, start="column",
         scale=1e-99, cosine=True, tiny_a=False, cut=3)
@example(lanes="per lane", zs=[0.3, -1.2], n=1000, seed=4, start="matrix",
         scale=CARRY_SCALES[-1], cosine=False, tiny_a=True, cut=1)
@example(lanes="one", zs=[-0.4], n=777, seed=3, start="matrix", scale=1e99,
         cosine=False, tiny_a=True, cut=64)
def test_kernel_matches_the_frozen_stack_kernel_bit_for_bit(lanes, zs, n, seed, start,
                                                             scale, cosine, tiny_a, cut):
    # the kernel keeps its steps as three arrays and adds exponents only after
    # a rescale; every Scan field of every call must be the one the frozen
    # kernel, with its stack of steps and an exponent add per level, gives for
    # the same cuts: prefixes on and off, forwards and inverse, real and
    # complex lanes, steps past RESCALE_LIMIT (|z| = 1e200, a <= 1e-100) and a
    # first rescale mid-tree (the cosine at x = 2.6, about 300 steps in)
    rng = np.random.default_rng(seed)
    zs = np.array(zs[:1] if lanes == "one" else zs)
    if cosine:
        a, b = coefficient_arrays(COSINE, 1, n + 1)
    else:
        a, b = rng.uniform(0.5, 1.5, n), rng.uniform(-2.0, 2.0, n)
    if tiny_a and np.abs(zs).max() < 1e100:   # past it, (z - b) / a overflows
        a[rng.integers(0, n, 3)] = 10.0 ** -rng.uniform(100.0, 150.0, 3)
    if lanes == "per lane":
        a, b = np.repeat(a[:, None], len(zs), 1), b[:, None] + rng.uniform(-0.1, 0.1, (n, len(zs)))
    z = complex(zs[0]) if lanes == "one" else zs
    shape = () if lanes == "one" else zs.shape
    carry = None
    if start is not None:
        t = rng.normal(size=(2, 2 if start == "matrix" else 1) + shape)
        if seed % 2:   # a complex carry
            t = t + 1j * rng.normal(size=t.shape)
        t *= scale / np.abs(t).max(axis=(0, 1))
        carry = Scan(t, np.asarray(rng.integers(-3000, 3000, shape), np.int64)[()])
    steps = 64 if cut == 64 else -(-n // cut)   # calls of whole, a third, 64 steps
    for prefixes in (False, True):
        for inverse in (False, True):
            with unittest.mock.patch.object(transfer, "CHUNK", steps * len(zs)):
                got = list(transfer_scan(a, b, z, carry, prefixes=prefixes, inverse=inverse))
            want = frozen_transfer_scan(a, b, z, steps, carry, prefixes=prefixes,
                                        inverse=inverse)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                for field in Scan._fields:
                    gv, wv = getattr(g, field), getattr(w, field)
                    assert (gv is None) == (wv is None), field
                    assert np.array_equal(gv, wv), (field, prefixes, inverse)
                    assert np.shape(gv) == np.shape(wv), field


@pytest.mark.parametrize("a_shape, b_shape, zs", [
    ((5, 2), (5, 2), [0.3, 0.4, 0.5]),    # lanes of another count
    ((5, 3), (5,), [0.3, 0.4, 0.5]),      # a per lane, b shared
    ((5,), (4,), [0.3]),                  # runs of two lengths
    ((5, 1), (5, 1), 0.3),                # a lane axis at one energy
    ((), (), 0.3),                        # no run axis
])
def test_coefficient_runs_of_another_shape_are_rejected(a_shape, b_shape, zs):
    with pytest.raises(ValueError, match="coefficient runs need shape"):
        list(transfer_scan(np.ones(a_shape), np.zeros(b_shape), np.asarray(zs)))


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


@pytest.mark.parametrize("cap", [777, 1001, 3000])
def test_capped_schedule_rows_equal_prefix_replay(cap):
    # 777 and 3000 fall among steps that their lanes' lagging sums decide,
    # 1001 just past such steps
    sched = build_schedule(2, 0.5, 5, cap=cap)
    assert sched.truncated and sched.horizon == cap
    assert sched.rows == replayed_schedule_rows(sched)


def lane_kernel_calls(monkeypatch):
    """(coefficients, lanes) of every kernel call the schedule search makes."""
    calls = []
    scan = constructions.transfer_scan

    def counted(a, b, z, *args, **kwargs):
        calls.append((len(b), np.size(z)))
        return scan(a, b, z, *args, **kwargs)

    monkeypatch.setattr(constructions, "transfer_scan", counted)
    return calls


def test_schedule_search_feeds_its_lanes_in_few_kernel_calls(monkeypatch):
    calls = lane_kernel_calls(monkeypatch)
    build_schedule(2, 0.5, 5)
    assert len(calls) <= 40  # one call a step's window made 248


def test_schedule_search_feeds_only_lanes_a_decision_reads(monkeypatch):
    # every window fed onto every remaining lane made 526,723 lane-steps;
    # lanes whose lagging sums already decide their steps make about 209,000
    calls = lane_kernel_calls(monkeypatch)
    build_schedule(2, 0.5, 5)
    assert sum(steps * lanes for steps, lanes in calls) <= 250_000


@settings(max_examples=60, deadline=None)
@given(data=st.data(), xs=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=3),
       b=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=300))
def test_lanes_caught_up_in_pieces_never_fall_below_their_lagging_sums(data, xs, b):
    # `_empirical_step` reads a lane's sum where it lags: sound while no
    # catch-up, in whatever pieces, lowers it.  With count = every lane, all
    # of them are the next step's, so each catch-up takes them all
    cuts = sorted(set(data.draw(st.lists(st.integers(1, len(b)), max_size=6)) + [len(b)]))
    lanes, whole = _Lanes(np.array(xs)), _Lanes(np.array(xs))
    for n0 in cuts:
        lagging = lanes.log_sum.copy()
        lanes.catch_up(b, n0, len(xs), 0.0, 10 ** 6)
        assert np.all(lanes.n == n0) and np.all(lanes.log_sum >= lagging)
    whole.catch_up(b, len(b), len(xs), 0.0, 10 ** 6)
    assert lanes.log_sum == pytest.approx(whole.log_sum, rel=KERNEL_RTOL)


def test_levels_the_cap_never_reaches_make_no_lanes(monkeypatch):
    sizes = []
    init = _Lanes.__init__
    monkeypatch.setattr(_Lanes, "__init__",
                        lambda self, x: init(self, sizes.append(len(x)) or x))
    sched = build_schedule(2, 0.5, 9, cap=25000)
    assert sched.truncated and len(sched.rows) == 7
    assert sizes == [m * len(c) for m, c in zip(sched.m[:7], sched.centers)]
    assert sched.rows == build_schedule(2, 0.5, 7, cap=25000).rows


def counted_catch_ups(monkeypatch):
    """The kernel calls and catch-ups one `_empirical_step` makes."""
    calls, catch_ups, catch_up = lane_kernel_calls(monkeypatch), [], _Lanes.catch_up
    monkeypatch.setattr(_Lanes, "catch_up",
                        lambda self, *args: catch_ups.append(args) or catch_up(self, *args))
    return calls, catch_ups


def test_a_step_whose_lagging_sums_clear_ends_five_indices_on(monkeypatch):
    calls, catch_ups = counted_catch_ups(monkeypatch)
    lanes = _Lanes(np.array([0.1, 0.2, 0.3]))
    lanes.log_sum[:2] = 100.0   # the step's two lanes, still at n = 0
    diag = [0.25] * 10
    assert constructions._empirical_step(2, 0.25, 0.5, lanes, 2, 10, 0.0, 10 ** 6,
                                         diag) == 15
    assert (calls, catch_ups) == ([], [])
    assert lanes.x.tolist() == [0.3] and lanes.n.tolist() == [0]
    assert diag == [0.25] * 10 + [0.25, 0.75, 0.25, 0.75, 0.25]


def test_a_step_that_cannot_end_before_the_cap_makes_no_kernel_call(monkeypatch):
    calls, catch_ups = counted_catch_ups(monkeypatch)
    lanes = _Lanes(np.array([0.1, 0.2]))   # sums of -inf: nothing is decided
    assert constructions._empirical_step(2, 0.25, 0.5, lanes, 2, 10, 0.0, 14,
                                         [0.25] * 10) is None
    assert (calls, catch_ups) == ([], [])


@pytest.mark.parametrize("q, levels", [(2, 3), (3, 2)])
def test_schedule_breakpoints_by_sequential_feed(q, levels):
    # no kernel call: each step's energies are replayed one Python step at a
    # time from n = 1 over the built spec, and each breakpoint must be the
    # first n >= n0 + 5 at which every one of them clears the threshold
    sched = build_schedule(q, 0.5, levels)
    a, b = (v.tolist() for v in coefficient_arrays(staircase_comb_spec(sched), 1,
                                                  sched.horizon + 1))
    steps = 0
    for level, row in enumerate(sched.rows, 1):
        m_l = sched.m[level - 1]
        for k, (n0, end) in enumerate(zip(row, row[1:])):
            v = staircase_level_value(level, k, m_l, sched.lam)
            scanners = [GrowthScanner(z + v) for z in sched.centers[level - 1]]
            cleared = None
            for n in range(1, end + 1):
                for sc in scanners:
                    sc.feed(a[n - 1], b[n - 1])
                if n >= n0 + 5 and all(sc.statistic_log >= _threshold_log(
                        level, sched.margin, n) for sc in scanners):
                    cleared = n
                    break
            assert cleared == end, (level, k)
            steps += 1
    assert steps == sum(sched.m)


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


@pytest.mark.parametrize("prefixes", [False, True])
def test_empty_energy_axis_keeps_zero_width_lanes(prefixes):
    # an empty axis used to fail on CHUNK // 0 and on the maximum of an
    # empty array
    L = CHUNK + 5
    a, b = np.ones(L), np.linspace(-1.0, 1.0, L)
    start = Scan(np.empty((2, 2, 0)), np.zeros(0, np.int64))
    scans = list(transfer_scan(a, b, np.empty(0), start, prefixes=prefixes))
    assert len(scans) == 2  # CHUNK steps a call, as for one lane
    for scan in scans:
        assert scan.t.shape == (2, 2, 0) and scan.e.shape == (0,)
    if prefixes:
        assert [s.prefix_t.shape for s in scans] == [(2, 2, CHUNK, 0), (2, 2, 5, 0)]
        assert [s.prefix_e.shape for s in scans] == [(CHUNK, 0), (5, 0)]


def test_more_lanes_than_lane_chunk_take_one_step_a_call():
    # CHUNK // E is 0 past CHUNK lanes, which used to stop the scan
    a, b = np.linspace(0.6, 1.4, 5), np.linspace(-1.0, 1.0, 5)
    zs = np.linspace(-2.5, 2.5, CHUNK + 1)
    lanes = list(transfer_scan(a, b, zs, prefixes=True))
    assert len(lanes) == len(a)
    pre_t = np.concatenate([s.prefix_t for s in lanes], axis=2)
    for i in (0, 1, CHUNK // 2, CHUNK):
        t, e, ft, fe = single_energy_scans(a, b, zs[i], np.eye(2), 1)
        assert np.array_equal(pre_t[..., i], t) and lanes[-1].e[i] == fe
        assert np.array_equal(lanes[-1].t[..., i], ft)


def test_lanes_catch_up_after_the_last_lane_leaves():
    lanes = _Lanes(np.array([0.1, 0.2]))
    lanes.catch_up([0.5] * 10, 10, 2, 0.0, 10 ** 6)
    assert [sc.n for sc in lanes.take(2)] == [10, 10]
    lanes.catch_up([0.5] * 10 + [0.3] * 7, 17, 2, 0.0, 10 ** 6)
    assert lanes.t.shape == (2, 2, 0)
    assert lanes.e.shape == lanes.n.shape == lanes.log_sum.shape == lanes.x.shape == (0,)
