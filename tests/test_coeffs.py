import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jbv import (CoefficientSpec, HorizonError, Schedule, build_schedule,
                 coefficient_arrays, constant_spec, eval_coefficients,
                 eventually_periodic_spec, explicit_spec, free_spec, periodic_spec,
                 staircase_comb_spec, staircase_level_value)
from jbv.coeffs import KINDS

from oracles import staircase_diagonal


def test_constant_rule():
    assert eval_coefficients(constant_spec(1, 0), 7) == (1.0, 0.0)


def test_cosine_power_rule():
    spec = CoefficientSpec("cosine_power", {"lam": 0.5, "gamma": 0.4})
    a, b = eval_coefficients(spec, 1)
    assert a == 1.0
    assert b == pytest.approx(0.5 * math.cos(1.0), abs=0, rel=1e-15)


def test_periodic_indexing():
    spec = periodic_spec(2, [1, 1], [0, 1])
    assert eval_coefficients(spec, 4) == (1.0, 1.0)
    assert eval_coefficients(spec, 3) == (1.0, 0.0)


def test_explicit_and_horizon():
    spec = explicit_spec([1.0, 2.0], [0.5, -0.5])
    assert eval_coefficients(spec, 2) == (2.0, -0.5)
    with pytest.raises(HorizonError):
        eval_coefficients(spec, 3)


def test_eventually_periodic_freeze_rule():
    base = explicit_spec([1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1])
    spec = eventually_periodic_spec(base, 2, 0)
    # N = 0: fully periodic repetition of block 0
    for n in range(1, 20):
        a, b = eval_coefficients(spec, n)
        r = (n - 1) % 2
        assert (a, b) == eval_coefficients(base, r + 1)
    # first (N+1)q entries agree with the base
    spec2 = eventually_periodic_spec(base, 2, 2)
    for n in range(1, 7):
        assert eval_coefficients(spec2, n) == eval_coefficients(base, n)
    # beyond the freeze the block-N values repeat
    assert eval_coefficients(spec2, 9) == eval_coefficients(base, 5)


def test_eventually_periodic_idempotent_on_periodic_base():
    base = periodic_spec(3, [1, 2, 1], [0, -1, 2])
    spec = eventually_periodic_spec(base, 3, 4)
    for n in range(1, 40):
        assert eval_coefficients(spec, n) == eval_coefficients(base, n)


def test_json_round_trip_bit_exact():
    specs = [
        constant_spec(0.75, -0.3),
        periodic_spec(3, [1.0, 0.5, 2.0], [0.1, -0.2, 0.3]),
        eventually_periodic_spec(explicit_spec([1.0, 1.5], [0.0, 1e-17]), 2, 0),
        CoefficientSpec("cosine_power", {"lam": 0.5, "gamma": 0.4}),
    ]
    for spec in specs:
        back = CoefficientSpec.from_json(spec.to_json())
        for n in (1, 2, 5, 17):
            assert eval_coefficients(back, n) == eval_coefficients(spec, n)


STAIRCASE = CoefficientSpec("staircase_comb", {
    "lam": 0.5, "q": 2,
    "schedule": {"rows": [[0, 3, 7], [7, 12]], "w": [0.5, 0.25], "m": [2, 4]}})


def staircase_closed_form(n):
    # window k of level l is (rows[l][k], rows[l][k + 1]]
    sched = STAIRCASE.params["schedule"]
    for level, row in enumerate(sched["rows"], 1):
        for k in range(len(row) - 1):
            if row[k] < n <= row[k + 1]:
                comb = sched["w"][level - 1] if n % 2 == 0 else 0.0
                return staircase_level_value(level, k, sched["m"][level - 1],
                                             0.5) + comb
    raise AssertionError(n)


@pytest.mark.parametrize("args, kwargs", [
    ((2, 0.5, 4), {}), ((3, 1.0, 3), {}),
    ((2, 0.5, 5), {"cap": 777}), ((4, 0.3, 4), {"growth_margin": 1.5, "cap": 1500}),
], ids=["(2,.5,4)", "(3,1,3)", "(2,.5,5) cap 777", "(4,.3,4) margin 1.5 cap 1500"])
def test_staircase_diagonal_is_the_per_index_value(args, kwargs):
    # the lookup flattens the schedule one level at a time on arrays; the
    # float operations are those of staircase_level_value, so every b_n has
    # the same bytes, on complete and on truncated (partial last row) schedules
    schedule = build_schedule(*args, **kwargs)
    assert schedule.truncated == ("cap" in kwargs)
    spec = staircase_comb_spec(schedule)
    want = staircase_diagonal(spec)
    assert len(want) == schedule.horizon
    _, b = coefficient_arrays(spec, 1, schedule.horizon + 1)
    assert b.tobytes() == want.tobytes()
    _, part = coefficient_arrays(spec, 5, schedule.horizon // 2)
    assert part.tobytes() == want[4:schedule.horizon // 2 - 1].tobytes()


def test_arrays_match_scalar():
    # both entry points against closed forms of every kind
    rng = np.random.default_rng(11)
    pa, pb = (0.5 + rng.random(3)).tolist(), rng.standard_normal(3).tolist()
    ea, eb = (0.5 + rng.random(8)).tolist(), rng.standard_normal(8).tolist()
    cases = [
        (constant_spec(1.2, 0.4), 40, lambda n: (1.2, 0.4)),
        (periodic_spec(3, pa, pb), 40, lambda n: (pa[(n - 1) % 3], pb[(n - 1) % 3])),
        (explicit_spec(ea, eb), 8, lambda n: (ea[n - 1], eb[n - 1])),
        # freeze rule: block index clipped at N = 3, base index min(m, N) q + r
        (eventually_periodic_spec(explicit_spec(ea, eb), 2, 3), 40,
         lambda n: (ea[min((n - 1) // 2, 3) * 2 + (n - 1) % 2],
                    eb[min((n - 1) // 2, 3) * 2 + (n - 1) % 2])),
        (STAIRCASE, 12, lambda n: (1.0, staircase_closed_form(n))),
    ]
    for spec, last, closed in cases:
        a, b = coefficient_arrays(spec, 1, last + 1)
        for n in range(1, last + 1):
            pair = eval_coefficients(spec, n)
            assert pair == (a[n - 1], b[n - 1]) == closed(n)
            assert all(type(v) is float for v in pair)


@pytest.mark.parametrize("lam, gamma", [(0.7, 0.3), (0.5, 0.4), (1.9, 0.49)])
def test_cosine_rule_matches_closed_form(lam, gamma):
    # numpy's and libm's pow may round n**gamma apart by an ulp, which cos
    # carries over: 2 ulp of the argument plus 2 ulp at unit scale
    spec = CoefficientSpec("cosine_power", {"lam": lam, "gamma": gamma})
    ns = list(range(1, 200)) + [10 ** 5 + 7, 123456, 299999]
    for n in ns:
        ref = lam * math.cos(n ** gamma)
        tol = 2.0 * lam * (math.ulp(n ** gamma) + math.ulp(1.0))
        a, b = eval_coefficients(spec, n)
        assert a == 1.0 and abs(b - ref) <= tol
        assert coefficient_arrays(spec, n, n + 1)[1][0] == b


def test_horizon_error_from_both_entry_points():
    short = explicit_spec([1.0] * 6, [0.0] * 6)
    for spec, past in ((short, 7), (STAIRCASE, 13),
                       (eventually_periodic_spec(short, 2, 5), 12)):
        with pytest.raises(HorizonError):
            eval_coefficients(spec, past)
        with pytest.raises(HorizonError):
            coefficient_arrays(spec, 1, past + 1)


def test_eventually_periodic_reads_only_the_base_range_it_needs():
    # indices 1..2 need base entries 1..2, not the whole prefix 1..(N+1)q = 12
    base = explicit_spec([1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1])
    a, b = coefficient_arrays(eventually_periodic_spec(base, 2, 5), 1, 3)
    assert a.tolist() == [1.0, 2.0] and b.tolist() == [6.0, 5.0]
    assert eval_coefficients(eventually_periodic_spec(base, 2, 5), 6) == (6.0, 1.0)


def test_total_and_positive_on_random_specs():
    rng = np.random.default_rng(12)
    for _ in range(50):
        q = int(rng.integers(1, 6))
        spec = periodic_spec(q, 0.1 + 2 * rng.random(q), 3 * rng.standard_normal(q))
        for n in rng.integers(1, 10 ** 6, size=20):
            a, b = eval_coefficients(spec, int(n))
            assert a > 0 and math.isfinite(b)


def test_bad_inputs():
    with pytest.raises(ValueError):
        CoefficientSpec("nope", {})
    with pytest.raises(ValueError):
        periodic_spec(2, [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        eval_coefficients(free_spec(), 0)


@pytest.mark.parametrize("q, N", [(2.5, 3), (2, 3.5), (0, 3), (2, -1)])
def test_eventually_periodic_factory_rejects_non_integers(q, N):
    # 2.5 and 3.5 used to be truncated
    with pytest.raises(ValueError):
        eventually_periodic_spec(free_spec(), q, N)


def test_eventually_periodic_factory_converts_numpy_integers():
    spec = eventually_periodic_spec(free_spec(), np.int64(2), np.int32(3))
    assert type(spec.params["q"]) is int and type(spec.params["N"]) is int
    json.dumps(spec.to_dict(), allow_nan=False)


@pytest.mark.parametrize("base", [
    {"kind": "constant", "params": {"a": -1.0, "b": 0.0}},
    {"kind": "constant", "params": {"a": 1.0}},
    {"kind": "nope", "params": {}},
    {"params": {"a": 1.0, "b": 0.0}},
])
def test_eventually_periodic_rejects_an_invalid_dict_base_at_construction(base):
    # used to be accepted and to fail only when first evaluated
    with pytest.raises(ValueError):
        CoefficientSpec("eventually_periodic", {"base": base, "q": 2, "N": 1})


def test_eventually_periodic_parses_a_dict_base_once():
    base = {"kind": "periodic", "params": {"q": 2, "a": [1.0, 2.0], "b": [0.5, -0.5]}}
    spec = CoefficientSpec("eventually_periodic", {"base": base, "q": 2, "N": 1})
    assert spec.params["base"] == CoefficientSpec.from_dict(base)
    assert spec.to_dict()["params"]["base"] == base
    assert CoefficientSpec.from_dict(spec.to_dict()) == spec


FINITE = st.floats(-3.0, 3.0)
POSITIVE = st.floats(0.1, 3.0)


@st.composite
def specs_with_period(draw, kinds=KINDS):
    """A spec of any kind and a q; kinds without a period get one too, and
    every spec is defined on 1..3q."""
    kind, q = draw(st.sampled_from(kinds)), draw(st.integers(1, 4))
    if kind == "constant":
        return constant_spec(draw(POSITIVE), draw(FINITE)), q
    if kind == "periodic":
        return periodic_spec(q, draw(st.lists(POSITIVE, min_size=q, max_size=q)),
                             draw(st.lists(FINITE, min_size=q, max_size=q))), q
    if kind == "eventually_periodic":
        # indices 1..3q lie in blocks 0..2, so the base is read on 1..3q at most
        base, q = draw(specs_with_period(("periodic", "explicit", "cosine_power")))
        return eventually_periodic_spec(base, q, draw(st.integers(0, 3))), q
    if kind == "cosine_power":
        return CoefficientSpec("cosine_power", {
            "lam": draw(FINITE), "gamma": draw(st.floats(0.01, 0.99))}), q
    if kind == "staircase_comb":
        steps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
        ends = np.cumsum([0] + steps).tolist()
        ends[-1] = max(ends[-1], 3 * q)
        cut = draw(st.integers(1, len(ends) - 1))
        rows = [ends[:cut + 1], ends[cut:]] if cut < len(ends) - 1 else [ends]
        return CoefficientSpec("staircase_comb", {
            "lam": draw(FINITE), "q": q + 1, "schedule": {
                "rows": rows, "w": [0.5 ** level for level in range(1, len(rows) + 1)],
                "m": [len(row) - 1 for row in rows]}}), q
    n = draw(st.integers(3 * q, 3 * q + 4))
    return explicit_spec(draw(st.lists(POSITIVE, min_size=n, max_size=n)),
                         draw(st.lists(FINITE, min_size=n, max_size=n))), q


@settings(max_examples=150, deadline=None)
@given(specs_with_period())
def test_spec_json_round_trip_keeps_every_bit(spec_q):
    spec, q = spec_q
    back = CoefficientSpec.from_dict(json.loads(json.dumps(spec.to_dict(),
                                                           allow_nan=False)))
    assert back == spec
    for got, want in zip(coefficient_arrays(back, 1, 3 * q + 1),
                         coefficient_arrays(spec, 1, 3 * q + 1)):
        assert got.tobytes() == want.tobytes()


def test_determinism_across_processes():
    # same rule, same index: identical bits in a fresh interpreter
    import subprocess
    import sys

    spec = CoefficientSpec("cosine_power", {"lam": 0.5, "gamma": 0.4})
    here = [repr(eval_coefficients(spec, n)) for n in (1, 17, 123456)]
    code = (
        "from jbv import CoefficientSpec, eval_coefficients\n"
        f"spec = CoefficientSpec.from_json({spec.to_json(indent=None)!r})\n"
        "print([repr(eval_coefficients(spec, n)) for n in (1, 17, 123456)])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert eval(out.stdout.strip()) == here


SCHEDULE_DOC = {"q": 2, "lam": 0.5, "levels": 1, "w": [0.5], "delta": [0.5],
                "centers": [[0.25]], "m": [8], "rows": [[0, 4, 9]],
                "mode": "empirical", "margin": 1.0, "cap": 1000000, "truncated": True}


@pytest.mark.parametrize("change", [{"q": 2.7}, {"cap": 1000000.5}, {"q": True},
                                    {"rows": [[0, 4.0, 9]]}, {"w": ["0.5"]}])
def test_schedule_from_dict_truncates_nothing(change):
    # q = 2.7 and cap = 1000000.5 used to load as 2 and 1000000
    with pytest.raises(ValueError, match=next(iter(change))):
        Schedule.from_dict({**SCHEDULE_DOC, **change})


def test_schedule_from_dict_keeps_a_valid_document():
    sched = Schedule.from_dict(SCHEDULE_DOC)
    assert sched.to_dict() == SCHEDULE_DOC
    assert type(sched.q) is int and type(sched.lam) is float


@pytest.mark.parametrize("start, stop, error, message", [
    (1.5, 4, TypeError, "^start must be an integer"),
    (True, 4, TypeError, "^start must be an integer"),
    (1, 4.0, TypeError, "^stop must be an integer"),
    (0, 4, ValueError, "^start must be an integer >= 1"),
    (3, 2, ValueError, "^stop must be an integer >= 3"),
])
def test_coefficient_arrays_takes_its_range_by_the_integer_rule(start, stop, error,
                                                                message):
    # coefficient_arrays(spec, 1.5, 4) used to return n = 1..3
    with pytest.raises(error, match=message):
        coefficient_arrays(free_spec(), start, stop)
