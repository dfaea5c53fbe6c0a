import dataclasses
import hashlib
import math

import numpy as np
import pytest

from jbv import (HorizonError, Schedule, build_schedule, bv_energy,
                 coefficient_arrays, eval_coefficients, periodic_spec,
                 slow_cosine_spec, staircase_bv_breakdown, staircase_comb_spec,
                 staircase_level_value)
from jbv.constructions import _analytic_step
from oracles import running_sum_analytic_rows, running_sum_analytic_step


@pytest.fixture(scope="module")
def small_schedule():
    return build_schedule(2, 0.5, levels=2, growth_margin=1.1,
                          cap=10 ** 6, mode="empirical")


@pytest.fixture(scope="module")
def small_spec(small_schedule):
    return staircase_comb_spec(small_schedule)


# ---------------------------------------------------------------------------
# slow cosine sequence

def test_slow_cosine_value():
    spec = slow_cosine_spec(0.5, 0.4)
    a, b = eval_coefficients(spec, 1)
    assert (a, b) == (1.0, 0.5 * math.cos(1.0))


def test_slow_cosine_parameter_ranges():
    for lam, gamma in ((2.5, 0.4), (0.0, 0.4), (0.5, 0.6), (0.5, 0.0)):
        with pytest.raises(ValueError):
            slow_cosine_spec(lam, gamma)
    # read as real numbers first: a string used to fail on '<'
    for lam, gamma in (("0.5", 0.4), (0.5, "0.4"), (True, 0.4), (0.5, None)):
        with pytest.raises(TypeError, match="coupling|exponent"):
            slow_cosine_spec(lam, gamma)


def test_slow_cosine_extrema_at_horizon():
    spec = slow_cosine_spec(0.5, 0.4)
    _, b = coefficient_arrays(spec, 1, 10 ** 6 + 1)
    assert np.max(b) == pytest.approx(0.5, abs=1e-3)
    assert np.min(b) == pytest.approx(-0.5, abs=1e-3)


def test_slow_cosine_variation_tail_decays():
    spec = slow_cosine_spec(0.5, 0.4)
    _, b = coefficient_arrays(spec, 1, 10 ** 6 + 1)
    d2 = np.diff(b) ** 2
    head = float(np.sum(d2[: 10 ** 5]))
    tail = float(np.sum(d2[10 ** 5:]))
    assert math.isfinite(head + tail)
    assert tail < head


# ---------------------------------------------------------------------------
# schedules

def test_schedule_level_one_arithmetic():
    sched = build_schedule(2, 0.5, levels=1, cap=10 ** 5, mode="empirical")
    assert sched.delta[0] == pytest.approx(0.5, abs=1e-8)
    assert sched.m[0] == 8  # max(2, ceil(4 / 0.5))
    assert sched.rows[0][0] == 0
    assert not sched.truncated


def test_staircase_value_formula():
    assert staircase_level_value(1, 0, 8, 0.5) == -0.5
    # endpoint algebra: the sign flips between consecutive levels
    for level in (1, 2, 3):
        end = staircase_level_value(level, 10, 10, 0.7)
        start_next = staircase_level_value(level + 1, 0, 12, 0.7)
        assert end == pytest.approx(start_next)
        assert abs(end) == pytest.approx(0.7)
    # consecutive steps differ by 2 lam / m
    vals = [staircase_level_value(2, k, 16, 0.5) for k in range(17)]
    steps = np.diff(vals)
    assert np.allclose(np.abs(steps), 2 * 0.5 / 16)


@pytest.mark.parametrize("args, error, message", [
    ((1, 0, 0, 0.5), ValueError, "^m_l must be an integer >= 1, got 0$"),
    (("1", 0, 2, 0.5), TypeError, "^level must be an integer, got '1'$"),
    ((1, 0.0, 2, 0.5), TypeError, "^k must be an integer, got 0.0$"),
    ((1, 0, 2.0, 0.5), TypeError, "^m_l must be an integer, got 2.0$"),
    ((1, 0, 2, "0.5"), TypeError, "^lam must be a real number, got '0.5'$"),
    ((1, 0, 2, math.nan), ValueError, "^lam must be finite, got nan$"),
])
def test_staircase_value_checks_its_arguments(args, error, message):
    # (1, 0, 0, 0.5) raised ZeroDivisionError and ("1", 0, 2, 0.5) a bare
    # TypeError from the % operator
    with pytest.raises(error, match=message):
        staircase_level_value(*args)


def test_staircase_value_takes_numpy_numbers_as_python_ones():
    assert (staircase_level_value(np.int64(3), np.int32(5), np.int64(12), np.float64(0.7))
            == staircase_level_value(3, 5, 12, 0.7))


def test_schedule_invariants(small_schedule):
    sched = small_schedule
    sched.validate()
    assert sched.L[0] == 0
    assert list(sched.L) == sorted(set(sched.L))
    assert all(w2 < w1 for w1, w2 in zip(sched.w, sched.w[1:]))
    assert sched.w[0] <= 1.0
    for level, (m_l, d_l) in enumerate(zip(sched.m, sched.delta), start=1):
        assert m_l >= 2 ** level
        assert m_l >= 4.0 / d_l - 1e-6
    for li, row in enumerate(sched.rows):
        assert len(row) == sched.m[li] + 1
        assert all(n2 > n1 for n1, n2 in zip(row, row[1:]))
    assert sched.rows[0][0] == 0
    assert sched.rows[1][0] == sched.rows[0][-1]


@pytest.mark.parametrize("change, message", [
    ({"lam": 2.0}, "coupling must lie in"),
    ({"w": (1.5, 0.25)}, "first comb coupling"),
    ({"w": (0.5, 0.5)}, "decrease strictly"),
    # delta = 10 makes 4/delta small, so 2^1 is the bound m = 1 misses
    ({"delta": (10.0, 0.1), "m": (1, 40)}, r"level 1: m=1 below max\(2\^1"),
    ({"m": (3, 40)}, "level 1: m=3 below max"),
    ({"rows": ((0, 5, 10),)}, "level 1 has 2 windows"),
    # a delta <= 0 or NaN used to pass its level (4/delta is then negative
    # or NaN) or, at 0, raise ZeroDivisionError
    ({"delta": (0.0, 0.1)}, "delta=0.0 is not positive"),
    ({"delta": (-0.25, 0.1)}, "delta=-0.25 is not positive"),
    ({"delta": (0.5, math.nan)}, "level 2: gap width delta=nan"),
])
def test_schedule_validate_names_each_invariant(small_schedule, change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(small_schedule, **change).validate()


def test_schedule_json_round_trip(small_schedule):
    back = Schedule.from_dict(small_schedule.to_dict())
    assert back == small_schedule


def test_analytic_mode_truncates_at_cap():
    sched = build_schedule(2, 0.5, levels=2, cap=10 ** 6, mode="analytic")
    assert sched.truncated
    assert sched.mode == "analytic"
    assert sched.horizon == 10 ** 6
    sched.validate()
    # the crude prefactor forces geometric step growth before the cap bites
    row = sched.rows[0]
    assert len(row) >= 3
    assert row[2] / max(row[1], 1) > 50


# ---------------------------------------------------------------------------
# the assembled sequence

def test_staircase_comb_values(small_schedule, small_spec):
    sched, spec = small_schedule, small_spec
    lam, q, w1 = sched.lam, sched.q, sched.w[0]
    # off-comb sites carry the bare staircase
    a, b = eval_coefficients(spec, 1)
    assert a == 1.0 and b == staircase_level_value(1, 0, sched.m[0], lam)
    # the comb adds w_1 on multiples of q within level 1
    _, b_q = eval_coefficients(spec, q)
    assert b_q == staircase_level_value(1, 0, sched.m[0], lam) + w1
    # global sup bound
    _, ball = coefficient_arrays(spec, 1, sched.horizon + 1)
    assert np.max(np.abs(ball)) <= lam + w1 <= 3.0


def test_staircase_comb_horizon_error(small_spec, small_schedule):
    with pytest.raises(HorizonError):
        eval_coefficients(small_spec, small_schedule.horizon + 1)


def test_staircase_extrema(small_schedule, small_spec):
    sched = small_schedule
    rights, stair = [], []
    for li, row in enumerate(sched.rows):
        for k in range(len(row) - 1):
            stair.append(staircase_level_value(li + 1, k, sched.m[li], sched.lam))
    assert max(stair) == sched.lam
    assert min(stair) == -sched.lam


def test_bv_energy_periodic_vanishes():
    spec = periodic_spec(3, [1.0, 2.0, 0.5], [0.0, 1.0, -1.0])
    assert bv_energy(spec, 3, 500) == (0.0, 0.0)


def test_bv_energy_slow_cosine_finite():
    spec = slow_cosine_spec(0.5, 0.4)
    sa, sb = bv_energy(spec, 1, 10 ** 5)
    assert sa == 0.0
    assert 0.0 < sb < 10.0


def test_staircase_bv_bounds(small_spec):
    bd = staircase_bv_breakdown(small_spec)
    assert bd["comb_sum"] <= bd["comb_bound"] + 1e-12
    assert bd["staircase_sum"] <= bd["staircase_bound"] + 1e-12
    assert bd["comb_sum"] > 0.0 and bd["staircase_sum"] > 0.0


def test_step_q_differences_shrink(small_spec, small_schedule):
    # the step-q diagonal differences at the tail are smaller than at the head
    q = small_schedule.q
    _, b = coefficient_arrays(small_spec, 1, small_schedule.horizon + 1)
    d = np.abs(b[q:] - b[:-q])
    quarter = len(d) // 4
    assert np.max(d[-quarter:]) <= np.max(d[:quarter])


def test_windows_look_like_constant_plus_comb(small_spec, small_schedule):
    # any window of length 3q sits within w_l + 2 lam / m_l of a constant
    # diagonal plus the comb
    sched = small_schedule
    q, lam = sched.q, sched.lam
    for li, row in enumerate(sched.rows):
        w_l, m_l = sched.w[li], sched.m[li]
        n0 = row[len(row) // 2] + 1
        if n0 + 3 * q > sched.horizon:
            continue
        _, b = coefficient_arrays(small_spec, n0, n0 + 3 * q)
        n = np.arange(n0, n0 + 3 * q)
        stair = b - np.where(n % q == 0, w_l, 0.0)
        dist = 0.5 * (np.max(stair) - np.min(stair))
        assert dist <= w_l + 2 * lam / m_l + 1e-12
        assert np.max(np.abs(stair)) <= lam + 1e-12


# sha256 over the concatenated sha256 hex digests of each schedule's
# Schedule.to_json() (none of these sets raises): the values of BENCH_25.json
# and of every change since, none of which was meant to move a breakpoint
PINNED_SCHEDULES = {
    "0ef189529fa4589a982c148f2196716ff945bf9f70b3e2045b3cb05da9103b6d": [
        ((2, .5, 5), {}), ((2, .5, 4), {}), ((3, .5, 3), {}), ((4, .3, 2), {}),
        ((2, 1, 4), {}), ((3, 1.2, 3), {}), ((2, .5, 6), {}),
        ((2, .5, 5), {"growth_margin": 1.5}), ((4, .5, 3), {"growth_margin": 1.5}),
        ((2, .5, 5), {"cap": 777}), ((2, .5, 9), {"cap": 25000})],
    "1aa7a399f19120a4d42fe3a69becc7edc5af0347e4bf6cee7e1b85ad413f3abe": [
        ((2, .5, 5), {"cap": cap})
        for cap in (16, 20, 50, 100, 101, 102, 103, 104, 105, 1001, 3000, 4300, 4319, 4320)],
}


@pytest.mark.parametrize("digest", PINNED_SCHEDULES, ids=["eleven", "caps"])
def test_schedule_json_is_pinned(digest):
    parts = [hashlib.sha256(build_schedule(*args, **kwargs).to_json().encode()).hexdigest()
             for args, kwargs in PINNED_SCHEDULES[digest]]
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == digest


def test_build_schedule_rejects_bad_parameters():
    for kwargs in (dict(q=1, lam=0.5, levels=1), dict(q=2, lam=2.5, levels=1),
                   dict(q=2, lam=0.5, levels=0), dict(q=2, lam=0.5, levels=1,
                                                      mode="nope")):
        with pytest.raises(ValueError):
            build_schedule(**kwargs)
    # True used to run the whole search before Schedule.validate failed, and
    # "0.5" to fail on '<'
    for lam in (True, "0.5", None):
        with pytest.raises(TypeError, match="coupling"):
            build_schedule(2, lam, 1)


def test_schedule_multi_gap_q3():
    from jbv import growth_statistic
    sched = build_schedule(3, 0.6, levels=1, growth_margin=1.1,
                           cap=10 ** 5, mode="empirical")
    sched.validate()
    assert len(sched.centers[0]) == 2
    assert not sched.truncated
    spec = staircase_comb_spec(sched)
    # both gap centers of the level get certified growth
    for z in sched.centers[0]:
        assert growth_statistic(spec, z, sched.horizon).running_max >= 1.0


@pytest.mark.parametrize("change", [{"truncated": "false"}, {"truncated": 1},
                                    {"mode": "nope"}])
def test_schedule_from_dict_checks_truncated_and_mode(small_schedule, change):
    # "truncated": "false" used to load as True, and "mode": "nope" passed
    # validate()
    with pytest.raises(ValueError, match=next(iter(change))):
        Schedule.from_dict({**small_schedule.to_dict(), **change})


# ---------------------------------------------------------------------------
# the analytic step's geometric sum in closed form

@pytest.mark.parametrize("q, lam, levels, margin, cap", [
    (2, 0.5, 1, 1.0, 2000), (3, 0.3, 2, 1.5, 2000), (4, 1.0, 3, 1.0, 10 ** 5),
    (2, 1.5, 2, 1.5, 10 ** 5), (3, 1.0, 3, 1.5, 2000), (4, 0.3, 1, 1.0, 10 ** 5)])
def test_analytic_rows_match_the_running_sum(q, lam, levels, margin, cap):
    sched = build_schedule(q, lam, levels, margin, cap, mode="analytic")
    assert sched.rows == running_sum_analytic_rows(sched)


def test_analytic_step_matches_the_running_sum_on_random_draws():
    rng = np.random.default_rng(15)
    ended = 0
    for _ in range(300):
        args = (int(rng.integers(1, 6)), float(rng.uniform(0.05, 2.0)),
                int(rng.integers(0, 30)), float(rng.uniform(1.0, 2.0)), 2000)
        level, delta, n0, margin, cap = args
        n = _analytic_step(delta, n0, math.log(margin * level), cap)
        assert n == running_sum_analytic_step(*args), args
        ended += n is not None
    assert 50 < ended < 250  # steps that end and steps that reach the cap


STAIRCASE_SPEC = staircase_comb_spec(build_schedule(2, 0.5, levels=1))


FREE = periodic_spec(1, [1.0], [0.0])
INTEGER_CALLS = {
    "bv_energy horizon=10.5": (lambda: bv_energy(FREE, 2, 10.5), "horizon"),
    "bv_energy q=1.5": (lambda: bv_energy(FREE, 1.5, 10), "q"),
    "staircase_bv_breakdown horizon=100.5":
        (lambda: staircase_bv_breakdown(STAIRCASE_SPEC, 100.5), "horizon"),
    "staircase_bv_breakdown horizon=True":
        (lambda: staircase_bv_breakdown(STAIRCASE_SPEC, True), "horizon"),
}


@pytest.mark.parametrize("case", sorted(INTEGER_CALLS))
def test_variation_sums_take_integers_by_the_rule(case):
    # horizon 10.5 used to run as 10, 100.5 as 100 and True as 1; q = 1.5
    # failed in numpy slicing without naming q
    call, name = INTEGER_CALLS[case]
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call()


@pytest.mark.parametrize("horizon", [0, -5])
def test_staircase_bv_breakdown_needs_a_positive_horizon(horizon):
    # such horizons used to give all-zero sums beside a nonzero bound
    with pytest.raises(ValueError, match="^horizon must be an integer >= 1"):
        staircase_bv_breakdown(STAIRCASE_SPEC, horizon)


def test_bv_energy_needs_a_horizon_past_q():
    with pytest.raises(ValueError, match="^horizon must be an integer >= 4"):
        bv_energy(FREE, 3, 3)
