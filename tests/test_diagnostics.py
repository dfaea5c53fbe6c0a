import math

import numpy as np
import pytest

from jbv import (ApproximantSpec, PreconditionError, ac_density,
                 ac_interval_estimate, band_structure,
                 build_schedule, coefficient_arrays, comb_potential,
                 constant_spec, explicit_spec, free_spec,
                 gap_growth_lower_bound, gap_report, growth_statistic,
                 periodic_spec, slow_cosine_spec, staircase_comb_spec,
                 staircase_level_value, sturm_count, verify_gap_window_growth)
from oracles import free_truncation_eigs


# ---------------------------------------------------------------------------
# growth statistic

def test_growth_statistic_free_rotation():
    # unit-norm products: statistic = 1 / log^2 N
    gs = growth_statistic(free_spec(), 0.0, 100)
    assert gs.value == pytest.approx(1.0 / math.log(100.0) ** 2, rel=1e-12)
    gs2 = growth_statistic(free_spec(), 0.0, 10 ** 4)
    assert gs2.value < gs.value  # decays with N


def test_growth_statistic_hyperbolic_energy_grows():
    g_small = growth_statistic(free_spec(), 2.5, 50)
    g_big = growth_statistic(free_spec(), 2.5, 200)
    assert g_big.log_value > g_small.log_value + 10.0
    assert g_big.running_max >= g_big.value or math.isinf(g_big.running_max)


def test_growth_statistic_matches_naive_where_finite():
    rng = np.random.default_rng(51)
    for _ in range(10):
        q = int(rng.integers(1, 4))
        spec = periodic_spec(q, 0.5 + rng.random(q), -1 + 2 * rng.random(q))
        x = float(rng.uniform(-5, 5))
        N = int(rng.integers(20, 300))
        t = np.eye(2)
        acc = 0.0
        a, b = (arr.tolist() for arr in coefficient_arrays(spec, 1, N + 1))
        with np.errstate(over="ignore"):
            for i in range(N):
                t = np.array([[(x - b[i]) / a[i], -1.0 / a[i]], [a[i], 0.0]]) @ t
                acc += np.linalg.norm(t, 2) ** 2
        ref = acc / (N * math.log(N) ** 2)
        if math.isfinite(ref):
            gs = growth_statistic(spec, x, N)
            assert gs.value == pytest.approx(ref, rel=1e-8)


def test_growth_statistic_trace_shape():
    gs = growth_statistic(free_spec(), 0.3, 1000, trace_points=8)
    assert gs.trace[-1][0] == 1000
    ns = [n for n, _ in gs.trace]
    assert ns == sorted(ns)


# ---------------------------------------------------------------------------
# gap growth bound

def test_gap_bound_values():
    assert gap_growth_lower_bound(0.25, 5) == pytest.approx(0.033203125, abs=0)
    assert gap_growth_lower_bound(1.0, 4) == pytest.approx(math.sqrt(2) / 2, rel=1e-15)
    assert gap_growth_lower_bound(4.9, 1000) == math.inf


def test_gap_bound_monotonicity():
    for l in range(4, 20):
        assert gap_growth_lower_bound(0.3, l + 1) > gap_growth_lower_bound(0.3, l)
    for d1, d2 in ((0.1, 0.2), (0.2, 0.5), (0.5, 1.0)):
        assert gap_growth_lower_bound(d2, 7) > gap_growth_lower_bound(d1, 7)


def test_gap_bound_domain():
    with pytest.raises(ValueError):
        gap_growth_lower_bound(0.3, 3)
    with pytest.raises(ValueError):
        gap_growth_lower_bound(0.0, 5)


# ---------------------------------------------------------------------------
# gap-window verification

def test_gap_window_passes_on_comb():
    spec = comb_potential(2, 0.5).as_spec()
    report = verify_gap_window_growth(spec, 2, 1, 40, 0.25, 0.24)
    assert report.passed
    assert report.l_values[0] == 4 and report.l_values[-1] == 39
    assert all(n >= b for n, b in zip(report.norms, report.bounds))


def test_gap_window_rejects_midband_energy():
    spec = comb_potential(2, 0.5).as_spec()
    with pytest.raises(PreconditionError, match="spectrum-avoidance"):
        verify_gap_window_growth(spec, 2, 1, 40, 1.5, 0.2)


def test_gap_window_rejects_nonperiodic_window():
    spec = slow_cosine_spec(0.5, 0.4)
    with pytest.raises(PreconditionError, match="window-periodicity"):
        verify_gap_window_growth(spec, 2, 1, 40, 0.25, 0.1)


def test_gap_window_rejects_nonunit_offdiagonal():
    spec = periodic_spec(2, [1.0, 1.3], [0.0, 0.5])
    with pytest.raises(PreconditionError, match="schroedinger"):
        verify_gap_window_growth(spec, 2, 1, 40, 0.25, 0.1)


def test_gap_window_on_staircase_construction():
    sched = build_schedule(2, 0.5, levels=1, growth_margin=1.1,
                           cap=10 ** 5, mode="empirical")
    spec = staircase_comb_spec(sched)
    m = sched.rows[0][0] + 1
    k = sched.rows[0][1]
    v = staircase_level_value(1, 0, sched.m[0], sched.lam)
    e = sched.centers[0][0] + v
    report = verify_gap_window_growth(spec, 2, m, k, e, sched.delta[0] / 4.0)
    assert report.passed


def test_gap_window_randomized():
    rng = np.random.default_rng(52)
    for _ in range(10):
        q = int(rng.integers(2, 5))
        w = float(rng.uniform(0.1, 1.0))
        comb = comb_potential(q, w)
        rep = gap_report(comb)
        gap = rep.gap_intervals[int(rng.integers(0, len(rep.gap_intervals)))]
        delta = 0.25 * gap.width
        e = float(rng.uniform(gap.lo + delta, gap.hi - delta))
        m = int(rng.integers(1, 20))
        k = m + int(rng.integers(8, 40))
        assert verify_gap_window_growth(comb.as_spec(), q, m, k, e, delta).passed


_COMB = comb_potential(2, 0.5).as_spec()
ENERGY_ENTRY_POINTS = {
    "verify_gap_window_growth":
        lambda e: verify_gap_window_growth(_COMB, 2, 1, 40, e, 0.12),
    "growth_statistic": lambda e: growth_statistic(_COMB, e, 100),
    "ac_density": lambda e: ac_density(ApproximantSpec(_COMB, 2, 3), e),
    "sturm_count": lambda e: sturm_count(_COMB, 50, e),
}


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(ENERGY_ENTRY_POINTS))
def test_non_finite_energy_is_rejected(entry, energy):
    # NaN used to give a passed report with NaN norms, a NaN statistic, a NaN
    # density and a count of 0
    with pytest.raises(ValueError, match=r"energy \w must be finite"):
        ENERGY_ENTRY_POINTS[entry](energy)


@pytest.mark.parametrize("period", [0, -1])
def test_gap_window_rejects_a_period_below_one(period):
    with pytest.raises(ValueError, match="period must be an integer >= 1"):
        verify_gap_window_growth(_COMB, period, 1, 40, 0.25, 0.12)


INTEGER_ENTRY_POINTS = {
    "growth_statistic N": (lambda v: growth_statistic(_COMB, 0.25, v), "N"),
    "verify_gap_window_growth m":
        (lambda v: verify_gap_window_growth(_COMB, 2, v, 40, 0.25, 0.12), "window start m"),
    "verify_gap_window_growth k":
        (lambda v: verify_gap_window_growth(_COMB, 2, 1, v, 0.25, 0.12), "window end k"),
    "sturm_count size": (lambda v: sturm_count(_COMB, v, 0.25), "truncation size"),
    "ac_interval_estimate horizon": (lambda v: ac_interval_estimate(_COMB, v), "horizon"),
}


@pytest.mark.parametrize("value", [100.5, 40.0, True, "40"])
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_integer_arguments_follow_the_integer_rule(entry, value):
    # N = 100.5 and m = 1.5 used to fail deep in numpy or range() with a
    # TypeError naming no argument; ac_interval_estimate took 100.5 and
    # returned a float window length, sturm_count took True as size 1
    call, name = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call(value)


@pytest.mark.parametrize("entry, value", [("growth_statistic N", 1),
                                          ("verify_gap_window_growth m", 0),
                                          ("sturm_count size", 0),
                                          ("ac_interval_estimate horizon", 15)])
def test_integer_arguments_below_their_least_value(entry, value):
    call, name = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {value + 1}"):
        call(value)


@pytest.mark.parametrize("value", [2.5, 8.0, True])
def test_growth_statistic_takes_trace_points_by_the_integer_rule(value):
    # trace_points = 2.5 used to fail in range() without naming the argument,
    # and True ran as 1
    with pytest.raises(TypeError, match="^trace_points must be an integer"):
        growth_statistic(_COMB, 0.25, 100, trace_points=value)


# ---------------------------------------------------------------------------
# asymptotic interval bracket

def test_interval_exact_for_constant():
    est = ac_interval_estimate(constant_spec(0.8, 0.3), 4000)
    assert (est.lo, est.hi) == (0.3 - 1.6, 0.3 + 1.6)
    assert not est.empty and est.stabilized


def test_interval_empty_when_crossed():
    spec = periodic_spec(2, [1.0, 1.0], [3.0, -3.0])
    est = ac_interval_estimate(spec, 4000)
    assert est.empty
    assert est.lo == pytest.approx(1.0) and est.hi == pytest.approx(-1.0)
    assert est.as_pair() is None


def test_interval_slow_cosine():
    # tail windows must span a full oscillation before the bracket settles
    est = ac_interval_estimate(slow_cosine_spec(0.5, 0.4), 10 ** 6)
    assert est.lo == pytest.approx(-1.5, abs=1e-2)
    assert est.hi == pytest.approx(1.5, abs=1e-2)


# ---------------------------------------------------------------------------
# sturm counting

def test_sturm_size_one():
    spec = constant_spec(1.0, 0.0)
    assert sturm_count(spec, 1, 1.0) == 1
    assert sturm_count(spec, 1, -1.0) == 0


def test_sturm_free_truncation_counts():
    spec = free_spec()
    # even size avoids an exact eigenvalue at 0, where counting is a tie
    assert sturm_count(spec, 100, 0.0) == 50
    n = 101
    eigs = free_truncation_eigs(n)
    assert sturm_count(spec, n, -1e-9) == n // 2
    assert sturm_count(spec, n, +1e-9) == n // 2 + 1
    for x in (-1.5, -0.3, 0.7, 1.9):
        assert sturm_count(spec, n, x) == sum(1 for e in eigs if e < x)


def test_sturm_monotone_and_saturating():
    spec = slow_cosine_spec(0.5, 0.4)
    counts = [sturm_count(spec, 500, x) for x in np.linspace(-3, 3, 31)]
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] == 500


def test_sturm_matches_dense_eigenvalues():
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        a = 0.5 + rng.random(n - 1)
        b = rng.standard_normal(n)
        spec = explicit_spec(np.append(a, 1.0), b)
        mat = np.diag(b) + np.diag(a, 1) + np.diag(a, -1)
        eigs = np.linalg.eigvalsh(mat)
        for x in rng.uniform(-4, 4, size=5):
            assert sturm_count(spec, n, float(x)) == int(np.sum(eigs < x))


def test_gap_eigenvalue_fraction_small():
    # boundary states inside open gaps of the truncated comb stay rare
    P = comb_potential(3, 0.6)
    bs = band_structure(P)
    spec = P.as_spec()
    size = 4000
    inside = 0
    for g in bs.gaps:
        assert not g.closed
        collar = 1e-6
        inside += (sturm_count(spec, size, g.hi - collar)
                   - sturm_count(spec, size, g.lo + collar))
    assert inside / size < 0.02
