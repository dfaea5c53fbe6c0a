import csv
import io
import json
import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import jbv.cli
import jbv.coeffs
from jbv import (CoefficientSpec, Interval, IntervalUnion, PeriodicJacobi, Schedule,
                 comb_potential, eval_coefficients, gap_report,
                 staircase_bv_breakdown)
from jbv.cli import main
from oracles import free_density, per_window_verify_random


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage exit
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# bands

def test_bands_free_q2(capsys):
    code, out, _ = run(capsys, "bands", "--q", "2", "--a", "1,1", "--b", "0,0")
    assert code == 0
    doc = strict_loads(out)
    assert doc["bands"][0] == pytest.approx([-2.0, 0.0], abs=1e-9)
    assert doc["bands"][1] == pytest.approx([0.0, 2.0], abs=1e-9)
    assert doc["gaps"] == []
    assert doc["closed_gaps"] == pytest.approx([0.0], abs=1e-9)
    assert doc["discriminant"] == pytest.approx([-2.0, 0.0, 1.0], abs=1e-12)


def test_bands_comb_gap(capsys):
    code, out, _ = run(capsys, "bands", "--q", "2", "--a", "1,1", "--b", "0,0.5")
    assert code == 0
    doc = strict_loads(out)
    assert doc["gaps"][0] == pytest.approx([0.0, 0.5], abs=1e-9)


def test_bands_rejects_zero_coefficient(capsys):
    code, _, err = run(capsys, "bands", "--q", "2", "--a", "1,0", "--b", "0,0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("members", [0, 8])
def test_discriminant_past_float_range_exits_1(tmp_path, capsys, members):
    # 1/(a_1 a_2) = 1e400: valid input whose discriminant overflows used to
    # exit 2 as a usage error; `intersect` needs no discriminant, and its
    # eigenvalue edges of the block, +-2e-200 and a closed gap at 0, are exact
    from test_band_edges import oracle_intersection
    code, out, err = run(capsys, "bands", "--q", "2", "--a", "1e-200,1e-200",
                         "--b", "0,0")
    assert code == 1 and out == ""
    assert err == ("numerical failure: the discriminant of a q=2 block leaves "
                   "float range\n")
    fam = [{"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.1 * k]} for k in range(members)]
    fam.append({"q": 2, "a": [1e-200, 1e-200], "b": [0.0, 0.0]})
    p = tmp_path / "family.json"
    p.write_text(json.dumps(fam))
    code, out, err = run(capsys, "intersect", "--family", str(p), "--mode", "spectrum")
    assert (code, err) == (0, "")
    got = IntervalUnion(tuple(Interval(*pair) for pair in strict_loads(out)["pairs"]))
    want = oracle_intersection([PeriodicJacobi.from_dict(d) for d in fam], "spectrum")
    assert got == want
    assert want.as_pairs() == [(-2e-200, 2e-200 if members == 0 else 0.0)]


def test_bands_file_input(tmp_path, capsys):
    p = tmp_path / "block.json"
    p.write_text(json.dumps({"q": 1, "a": [1.0], "b": [0.25]}))
    code, out, _ = run(capsys, "bands", "--file", str(p))
    assert code == 0
    doc = strict_loads(out)
    assert doc["bands"][0] == pytest.approx([-1.75, 2.25], abs=1e-9)


# ---------------------------------------------------------------------------
# construct

def test_construct_thm16_round_trip(tmp_path, capsys):
    out = tmp_path / "spec.json"
    code, _, _ = run(capsys, "construct", "thm16", "--lambda", "0.5",
                     "--gamma", "0.4", "--out", str(out))
    assert code == 0
    spec = CoefficientSpec.from_json(out.read_text())
    a, b = eval_coefficients(spec, 7)
    assert a == 1.0 and b == 0.5 * math.cos(7 ** 0.4)


def test_construct_thm16_rejects_bad_lambda(capsys):
    code, _, err = run(capsys, "construct", "thm16", "--lambda", "2.5",
                       "--gamma", "0.4")
    assert code == 2 and "error" in err


def test_construct_thm15(tmp_path, capsys):
    out = tmp_path / "spec.json"
    code, stdout, _ = run(capsys, "construct", "thm15", "--q", "2",
                          "--lambda", "0.5", "--levels", "1",
                          "--cap", "100000", "--mode", "empirical",
                          "--out", str(out))
    assert code == 0
    summary = strict_loads(stdout)
    assert not summary["truncated"]
    sched = Schedule.from_dict(strict_loads(
        (tmp_path / "spec.schedule.json").read_text()))
    sched.validate()
    assert sched.rows[0][0] == 0
    spec = CoefficientSpec.from_json(out.read_text())
    eval_coefficients(spec, sched.horizon)  # inside horizon: fine


def test_construct_thm15_rejects_bad_lambda(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "thm15", "--q", "2",
                       "--lambda", "2.5", "--levels", "1",
                       "--out", str(tmp_path / "s.json"))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("margin", ["nan", "inf"])
def test_construct_thm15_rejects_non_finite_margin(tmp_path, capsys, margin):
    # each used to run every step to the cap before the JSON writer met it
    code, out, err = run(capsys, "construct", "thm15", "--q", "2",
                         "--lambda", "0.5", "--levels", "1", "--cap", "2000",
                         "--margin", margin, "--out", str(tmp_path / "s.json"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "growth margin" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# density

def _write_free_spec(tmp_path):
    p = tmp_path / "free.json"
    p.write_text(json.dumps({"kind": "constant", "params": {"a": 1.0, "b": 0.0}}))
    return p


def test_density_free_grid(tmp_path, capsys):
    p = _write_free_spec(tmp_path)
    code, out, _ = run(capsys, "density", "--spec", str(p), "--q", "1",
                       "--N", "0", "--grid=-1.9:1.9:39")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x", "f", "N", "q", "status"]
    assert len(rows) == 39
    for row in rows:
        assert row[4] == "ok"
        assert float(row[1]) == pytest.approx(free_density(float(row[0])), abs=1e-6)


def test_density_outside_grid_fails(tmp_path, capsys):
    p = _write_free_spec(tmp_path)
    code, out, _ = run(capsys, "density", "--spec", str(p), "--q", "1",
                       "--N", "0", "--grid=3:4:5")
    assert code == 1
    _, rows = read_csv(out)
    assert all(row[4] == "outside" for row in rows)


def test_density_mixed_grid(tmp_path, capsys):
    p = _write_free_spec(tmp_path)
    code, out, _ = run(capsys, "density", "--spec", str(p), "--q", "1",
                       "--N", "0", "--grid=1:3:5")
    assert code == 0
    _, rows = read_csv(out)
    statuses = [row[4] for row in rows]
    assert "ok" in statuses and "outside" in statuses


# ---------------------------------------------------------------------------
# diagnose

def test_diagnose_free(tmp_path, capsys):
    p = _write_free_spec(tmp_path)
    code, out, _ = run(capsys, "diagnose", "--spec", str(p), "--x", "0.0",
                       "--N", "200")
    assert code == 0
    doc = strict_loads(out)
    res = doc["results"][0]
    assert res["x"] == 0.0
    final_n, final_stat = res["statistic"][-1]
    assert final_n == 200
    assert final_stat == pytest.approx(1.0 / math.log(200.0) ** 2, rel=1e-9)


def test_diagnose_warns_outside_crude_bound(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    code, _, _ = run(capsys, "construct", "thm15", "--q", "2", "--lambda", "0.5",
                     "--levels", "1", "--cap", "100000", "--out", str(spec_path))
    assert code == 0
    code, out, err = run(capsys, "diagnose", "--spec", str(spec_path),
                         "--x", "6.0", "--N", "50")
    assert code == 0
    assert "warning" in err
    assert strict_loads(out)["results"][0]["x"] == 6.0


@pytest.mark.parametrize("N", [514, 515, 600])
def test_diagnose_writes_null_only_past_float_range(tmp_path, capsys, N):
    # log statistics in [700, 709.78) were written as null at N = 515: the
    # CLI cut linear values at 700, short of float range
    p = _write_free_spec(tmp_path)
    code, out, _ = run(capsys, "diagnose", "--spec", str(p), "--x", "2.5", "--N", str(N))
    assert code == 0
    res = strict_loads(out)["results"][0]
    for (n, value), (_, log_value) in zip(res["statistic"], res["statistic_log"]):
        past = log_value > math.log(sys.float_info.max)
        assert value == (None if past else math.exp(log_value)), n
    assert (res["statistic"][-1][1] is None) == (N == 600)
    assert res["statistic_log"][-1][1] > 700.0


def test_diagnose_deterministic(tmp_path, capsys):
    p = _write_free_spec(tmp_path)
    _, out1, _ = run(capsys, "diagnose", "--spec", str(p), "--x", "0.7", "--N", "500")
    _, out2, _ = run(capsys, "diagnose", "--spec", str(p), "--x", "0.7", "--N", "500")
    assert out1 == out2


# ---------------------------------------------------------------------------
# verify

def test_verify_explicit_window(tmp_path, capsys):
    p = tmp_path / "comb.json"
    p.write_text(json.dumps({"kind": "periodic",
                             "params": {"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}}))
    code, out, _ = run(capsys, "verify", "--spec", str(p), "--period", "2",
                       "--m", "1", "--k", "30", "--E", "0.25", "--delta", "0.12")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["l", "norm", "bound", "status"]
    assert all(row[3] == "pass" for row in rows)
    assert [int(r[0]) for r in rows] == list(range(4, 30))


def test_verify_explicit_window_on_comb_q24(tmp_path, capsys):
    # the bisection solver raises RootIsolationError on this block
    P = comb_potential(24, 1.25)
    p = tmp_path / "comb24.json"
    p.write_text(json.dumps({"kind": "periodic", "params": P.to_dict()}))
    gap = min(gap_report(P).gap_intervals, key=lambda g: g.width)
    code, out, _ = run(capsys, "verify", "--spec", str(p), "--period", "24",
                       "--m", "1", "--k", "240", "--E", repr(0.5 * (gap.lo + gap.hi)),
                       "--delta", repr(gap.width / 4))
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 236 and all(row[3] == "pass" for row in rows)


def test_verify_random_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--random", "5")
    code2, out2, _ = run(capsys, "verify", "--random", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    _, rows = read_csv(out1)
    assert len(rows) == 5 and all(r[9] == "pass" for r in rows)


# ---------------------------------------------------------------------------
# intersect

def test_intersect_shift_family(capsys):
    code, out, _ = run(capsys, "intersect", "--q", "2", "--lambda", "0.5",
                       "--points", "11", "--mode", "spectrum")
    assert code == 0
    doc = strict_loads(out)
    assert doc["pairs"] == [pytest.approx([-1.5, 1.5], abs=1e-8)]
    code, out, _ = run(capsys, "intersect", "--q", "2", "--lambda", "0.5",
                       "--points", "11", "--mode", "qinterior")
    doc = strict_loads(out)
    assert len(doc["pairs"]) == 2
    assert doc["pairs"][0] == pytest.approx([-1.5, -0.5], abs=1e-7)
    assert doc["pairs"][1] == pytest.approx([0.5, 1.5], abs=1e-7)
    assert not doc["intervals"][0]["closed_lo"]


@pytest.mark.parametrize("points", ["1", "3"])
@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_intersect_rejects_a_non_finite_lambda(capsys, lam, points):
    # one point used to give the family [0.0] whatever the lambda, and more
    # points failed on a NaN diagonal
    code, out, err = run(capsys, "intersect", "--q", "2", f"--lambda={lam}",
                         "--points", points)
    assert code == 2 and out == ""
    assert "not a finite number" in err


def test_intersect_family_file(tmp_path, capsys):
    fam = [{"q": 1, "a": [1.0], "b": [0.0]}, {"q": 1, "a": [1.0], "b": [0.5]}]
    p = tmp_path / "family.json"
    p.write_text(json.dumps(fam))
    code, out, _ = run(capsys, "intersect", "--family", str(p), "--mode", "spectrum")
    assert code == 0
    assert strict_loads(out)["pairs"] == [pytest.approx([-1.5, 2.0], abs=1e-8)]


# ---------------------------------------------------------------------------
# config file precedence

def test_env_config_defaults(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 3}))
    monkeypatch.setenv("JBV_CONFIG", str(cfg))
    code, out, _ = run(capsys, "intersect", "--q", "2", "--lambda", "0.5",
                       "--mode", "spectrum")
    assert code == 0
    assert strict_loads(out)["members"] == 3
    # explicit flag wins over the config file
    code, out, _ = run(capsys, "intersect", "--q", "2", "--lambda", "0.5",
                       "--points", "5", "--mode", "spectrum")
    assert strict_loads(out)["members"] == 5


def test_config_change_between_calls_takes_effect(tmp_path, capsys, monkeypatch):
    # the cached parser holds no defaults: each call reads the config anew
    cfg = tmp_path / "cfg.json"
    members = []
    for points in (3, 4, 3):
        cfg.write_text(json.dumps({"points": points}))
        monkeypatch.setenv("JBV_CONFIG", str(cfg))
        code, out, _ = run(capsys, "intersect", "--q", "2", "--lambda", "0.5")
        assert code == 0
        members.append(strict_loads(out)["members"])
    monkeypatch.delenv("JBV_CONFIG")
    code, out, _ = run(capsys, "intersect", "--q", "2", "--lambda", "0.5")
    members.append(strict_loads(out)["members"])
    assert members == [3, 4, 3, 101]
    # equal values that print differently are different defaults
    for margin in ("0.0", "-0.0", "0.0"):
        cfg.write_text(f'{{"margin": {margin}}}')
        monkeypatch.setenv("JBV_CONFIG", str(cfg))
        code, _, err = run(capsys, "construct", "thm15", "--q", "2", "--lambda", "0.5",
                           "--levels", "1", "--out", str(tmp_path / "st.json"))
        assert (code, err) == (2, f"error: growth margin must be >= 1, got {margin}\n")


def test_broken_config_after_a_good_one_exits_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 3}))
    monkeypatch.setenv("JBV_CONFIG", str(cfg))
    assert run(capsys, "intersect", "--q", "2", "--lambda", "0.5")[0] == 0
    for text in ('{"points": "many"}', "[1, 2]", "{not json"):
        cfg.write_text(text)
        code, out, err = run(capsys, "intersect", "--q", "2", "--lambda", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith("error reading JBV_CONFIG")


@pytest.mark.parametrize("tol", ["1e-4", "1e-3"])
def test_coarse_tol_keeps_closed_gaps(capsys, tol):
    code, out, err = run(capsys, "bands", "--q", "3", "--a", "1,1,1", "--b", "0,0,0",
                         "--tol", tol)
    assert (code, err) == (0, "")
    doc = strict_loads(out)
    assert len(doc["bands"]) == 3 and len(doc["closed_gaps"]) == 2
    code, out, err = run(capsys, "intersect", "--q", "3", "--lambda", "0.5",
                         "--points", "2", "--tol", tol, "--mode", "qinterior")
    assert (code, err) == (0, "")


def test_outputs_round_trip_through_cli(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run(capsys, "construct", "thm16", "--lambda", "0.5", "--gamma", "0.4",
        "--out", str(spec_path))
    code, out, _ = run(capsys, "density", "--spec", str(spec_path), "--q", "1",
                       "--N", "3", "--grid=-1:1:5")
    assert code == 0
    code, out, _ = run(capsys, "diagnose", "--spec", str(spec_path),
                       "--x", "0.2", "--N", "100")
    assert code == 0


def test_construct_thm15_cap_truncation_reported(tmp_path, capsys):
    out = tmp_path / "trunc.json"
    code, stdout, _ = run(capsys, "construct", "thm15", "--q", "2",
                          "--lambda", "0.5", "--levels", "2", "--cap", "2000",
                          "--mode", "analytic", "--out", str(out))
    assert code == 0
    summary = strict_loads(stdout)
    assert summary["truncated"]
    assert summary["horizon"] == 2000
    sched = Schedule.from_dict(strict_loads(
        (tmp_path / "trunc.schedule.json").read_text()))
    sched.validate()
    spec = CoefficientSpec.from_json(out.read_text())
    eval_coefficients(spec, 2000)


def test_diagnose_staircase_running_max(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    code, _, _ = run(capsys, "construct", "thm15", "--q", "2", "--lambda", "0.5",
                     "--levels", "1", "--cap", "100000", "--margin", "1.1",
                     "--out", str(spec_path))
    assert code == 0
    sched = Schedule.from_dict(strict_loads(
        (tmp_path / "spec.schedule.json").read_text()))
    center = sched.centers[0][0]
    code, out, _ = run(capsys, "diagnose", "--spec", str(spec_path),
                       "--x", str(center), "--N", str(sched.rows[0][-1]))
    assert code == 0
    res = strict_loads(out)["results"][0]
    assert res["running_max"] is None or res["running_max"] >= 1.0
    assert res["running_max_log"] >= 0.0


def test_density_json_format(tmp_path, capsys):
    p = _write_free_spec(tmp_path)
    code, out, _ = run(capsys, "density", "--spec", str(p), "--q", "1",
                       "--N", "0", "--grid", "0:1:3", "--format", "json")
    assert code == 0
    doc = strict_loads(out)
    assert doc["rows"][0]["status"] == "ok"
    assert doc["rows"][0]["f"] == pytest.approx(free_density(0.0), abs=1e-9)


def test_verify_json_format(tmp_path, capsys):
    p = tmp_path / "comb.json"
    p.write_text(json.dumps({"kind": "periodic",
                             "params": {"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}}))
    code, out, _ = run(capsys, "verify", "--spec", str(p), "--period", "2",
                       "--m", "1", "--k", "20", "--E", "0.25", "--delta", "0.12",
                       "--format", "json")
    assert code == 0
    doc = strict_loads(out)
    assert doc["passed"] and all(r["status"] == "pass" for r in doc["rows"])


def test_verify_json_writes_norms_past_float_range_as_null(tmp_path, capsys):
    # the strict JSON writer used to refuse the inf norms of a long window
    p = tmp_path / "comb.json"
    p.write_text(json.dumps({"kind": "periodic",
                             "params": {"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}}))
    argv = ["verify", "--spec", str(p), "--period", "2", "--m", "1", "--k", "8000",
            "--E", "0.25", "--delta", "0.12"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = strict_loads(out)
    assert doc["passed"] and all(r["status"] == "pass" for r in doc["rows"])
    code, csv_out, _ = run(capsys, *argv)
    _, rows = read_csv(csv_out)
    assert code == 0 and [r[1] for r in rows].count("inf") > 0
    assert [r["norm"] for r in doc["rows"]] == [
        None if r[1] == "inf" else float(r[1]) for r in rows]


def test_verify_wide_gap_decides_bounds_past_float_range(tmp_path, capsys):
    # the bound (1 + delta^2)^((l-3)/2) used to overflow in Python floats:
    # exit 1, "numerical failure", and no rows
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"kind": "periodic",
                             "params": {"q": 2, "a": [1, 1], "b": [0, 10]}}))
    argv = ["verify", "--spec", str(p), "--period", "2", "--m", "1", "--k", "1000",
            "--E", "5", "--delta", "4.9"]
    code, csv_out, _ = run(capsys, *argv)
    _, rows = read_csv(csv_out)
    assert code == 0 and len(rows) == 996
    assert all(r[3] == "pass" for r in rows)
    assert [int(r[0]) for r in rows if r[2] == "inf"] == list(range(443, 1000))
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    doc = strict_loads(json_out)
    assert code == 0 and doc["passed"] and len(doc["rows"]) == 996
    assert [r["bound"] for r in doc["rows"]] == [
        None if r[2] == "inf" else float(r[2]) for r in rows]


@pytest.mark.parametrize("argv", [
    ["verify", "--period", "3", "--m", "1", "--k", "12", "--E", "0", "--delta", "0.1"],
    ["diagnose", "--x", "0", "--N", "50"]], ids=["verify", "diagnose"])
@pytest.mark.filterwarnings("error")
def test_a_product_that_underflows_to_zero_is_a_numerical_failure(tmp_path, capsys, argv):
    # the steps, scaled by 2**-1023 past b = +-1e308, lose their small
    # entries and the products become zero matrices: verify wrote eight
    # "nan,...,pass" rows and exited 0, diagnose wrote null statistics
    p = tmp_path / "span.json"
    p.write_text(json.dumps({"kind": "periodic",
                             "params": {"q": 3, "a": [1, 1, 1], "b": [1e308, 0, -1e308]}}))
    code, out, err = run(capsys, *argv, "--spec", str(p))
    assert (code, out) == (1, "")
    assert err == ("numerical failure: a transfer product underflowed to zero: "
                   "its steps span past float range\n")


@pytest.mark.parametrize("seed, count", [(seed, 100) for seed in range(20)]
                         + [(20, 1), (21, 7), (22, 300), (23, 301)])
def test_verify_random_csv_matches_one_call_per_window(capsys, seed, count):
    # 100 windows are one kernel call; 300 take a few, cut at CHUNK lane-steps
    code, out, err = run(capsys, "verify", "--random", str(count), "--seed", str(seed))
    assert (code, out, err) == (*per_window_verify_random(count, seed), "")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_random_needs_a_window(capsys, count):
    code, out, err = run(capsys, "verify", "--random", count)
    assert code == 2 and out == ""
    assert "--random" in err


@given(q=st.sampled_from([2, 3, 4]), w=st.floats(0.1, 1.0, exclude_max=True))
def test_every_gap_of_a_random_window_comb_is_open(q, w):
    # verify --random draws a gap index over all q - 1 gaps of its comb before
    # it solves the edges: gap_report's draw only while no gap is closed
    rep = gap_report(comb_potential(q, w))
    assert rep.all_open and rep.min_width > 1e-10


def test_verify_random_closed_gap_fails_before_any_window_is_checked(capsys, monkeypatch):
    def closed(group):   # every block's first gap shut
        edges = band_edges(group)
        edges[:, 2] = edges[:, 1]
        return edges

    def checked(windows):
        raise AssertionError("a window was checked")

    band_edges = jbv.cli._band_edges
    monkeypatch.setattr("jbv.cli._band_edges", closed)
    monkeypatch.setattr("jbv.cli._window_reports", checked)
    code, out, err = run(capsys, "verify", "--random", "5")
    assert (code, out) == (1, "")
    assert err.startswith("numerical failure: comb block with coupling ")
    assert err.endswith(" reported a closed gap\n")


def test_staircase_density_grid_flattens_the_schedule_once(tmp_path, capsys, monkeypatch):
    # the window table was flattened on every coefficient lookup: twice per
    # grid point inside the band (block N, then the backward solve)
    def counted(level, *args):
        levels.append(level)
        return staircase_value(level, *args)

    levels, staircase_value = [], jbv.coeffs._staircase_value
    monkeypatch.setattr("jbv.coeffs._staircase_value", counted)
    p = tmp_path / "st.json"
    p.write_text(json.dumps({"kind": "staircase_comb", "params": {
        "lam": 0.5, "q": 2, "schedule": GOOD_SCHEDULE}}))
    code, out, _ = run(capsys, "density", "--spec", str(p), "--q", "2", "--N", "3",
                       "--grid=-2.4:2.4:25")
    _, rows = read_csv(out)
    assert code == 0 and len(rows) == 25
    assert levels == [1, 2]   # one flattening: a call per level


@pytest.mark.parametrize("argv", [
    # x = -2.5 lies outside the band: f is None, an empty CSV cell
    ["density", "--q", "1", "--N", "0", "--grid=-2.5:1:4"],
    ["verify", "--period", "2", "--m", "1", "--k", "20", "--E", "0.25",
     "--delta", "0.12"],
    ["verify", "--random", "2"],
])
def test_json_rows_equal_csv_rows(tmp_path, capsys, argv):
    # verify --random used to write CSV whatever --format said
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"kind": "constant", "params": {"a": 1.0, "b": 0.0}} if argv[0] == "density"
        else {"kind": "periodic", "params": {"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}}))
    if "--random" not in argv:
        argv = argv + ["--spec", str(spec)]
    code, out, _ = run(capsys, *argv)
    header, rows = read_csv(out)
    json_code, json_out, _ = run(capsys, *argv, "--format", "json")
    doc = strict_loads(json_out)
    assert code == json_code == 0
    assert all(list(row) == header for row in doc["rows"])
    assert [["" if v is None else str(v) for v in row.values()]
            for row in doc["rows"]] == rows


def test_every_json_output_is_strict(tmp_path, capsys):
    spec, comb = tmp_path / "st.json", tmp_path / "comb.json"
    comb.write_text(json.dumps({"kind": "periodic",
                                "params": {"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}}))
    code, summary, _ = run(capsys, "construct", "thm15", "--q", "2",
                           "--lambda", "0.5", "--levels", "2", "--out", str(spec))
    assert code == 0
    outputs = [summary, spec.read_text(),
               (tmp_path / "st.schedule.json").read_text()]
    for argv in (["construct", "thm16", "--lambda", "0.5", "--gamma", "0.4"],
                 ["bands", "--q", "2", "--a", "1,1", "--b", "0,0.5"],
                 ["density", "--spec", str(spec), "--q", "2", "--N", "20",
                  "--grid=-2.4:2.4:9", "--format", "json"],
                 ["diagnose", "--spec", str(spec), "--x", "0.1", "--N", "200"],
                 ["diagnose", "--spec", str(comb), "--x", "0.25", "--x", "600.0",
                  "--N", "300", "--verify-gap", "1,20,0.25,0.12", "--period", "2"],
                 ["verify", "--spec", str(comb), "--period", "2", "--m", "1",
                  "--k", "20", "--E", "0.25", "--delta", "0.12", "--format", "json"],
                 ["intersect", "--q", "3", "--lambda", "0.5", "--points", "5"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        outputs.append(out)
    for text in outputs:
        strict_loads(text)


@pytest.mark.parametrize("params, message", [
    ({"q": 2, "a": [1.0, 1.0], "b": [math.nan, 0.0]}, "finite"),
    ({"q": 2, "a": [1.0, 1.0]}, "missing params entry 'b'"),
    ({"q": 2, "a": [1.0, 1.0], "b": ["0", 0.0]}, "ill-typed"),
])
def test_diagnose_rejects_malformed_periodic_spec(tmp_path, capsys, params, message):
    # a NaN diagonal used to be scanned (exit 0, NaN statistics) and a
    # missing one ended in a KeyError traceback (exit 1)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "periodic", "params": params}))
    code, out, err = run(capsys, "diagnose", "--spec", str(p), "--x", "0.3",
                         "--N", "100")
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("flags", [
    ["diagnose", "--x", "nan", "--N", "50"],
    ["diagnose", "--x", "inf", "--N", "50"],
    ["diagnose", "--x", "0.25", "--N", "50", "--verify-gap", "1,20,nan,0.12",
     "--period", "2"],
    ["verify", "--period", "2", "--m", "1", "--k", "20", "--E", "nan",
     "--delta", "0.12"],
    ["verify", "--period", "2", "--m", "1", "--k", "20", "--E", "0.25",
     "--delta", "nan"],
    ["density", "--q", "2", "--N", "3", "--grid=nan:1:3"],
    ["density", "--q", "2", "--N", "3", "--grid=-1:inf:3"],
])
def test_non_finite_numeric_flags_exit_2(tmp_path, capsys, flags):
    # each used to exit 0 with NaN rows marked ok or pass
    comb = tmp_path / "comb.json"
    comb.write_text(json.dumps({"kind": "periodic", "params": {
        "q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}}))
    code, out, err = run(capsys, flags[0], "--spec", str(comb), *flags[1:])
    assert code == 2 and out == ""
    assert "not a finite number" in err or "finite bounds" in err


@pytest.mark.parametrize("window, message", [
    # used to exit 2 with "not enough values to unpack (expected 4, got 3)"
    ("1,30,0.25", "m,k,E,delta"),
    ("1,30,0.25,0.1,7", "m,k,E,delta"),
    # used to exit 2 with "invalid literal for int() with base 10: '1.5'"
    ("1.5,30,0.25,0.1", "m,k,E,delta with integers m and k"),
    ("1,3e1,0.25,0.1", "m,k,E,delta with integers m and k"),
    ("0,30,0.25,0.1", "--verify-gap m must be an integer >= 1"),
])
def test_verify_gap_names_its_format(tmp_path, capsys, window, message):
    comb = tmp_path / "comb.json"
    comb.write_text(json.dumps({"kind": "periodic", "params": {
        "q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}}))
    code, out, err = run(capsys, "diagnose", "--spec", str(comb), "--x", "0.25",
                         "--N", "50", "--verify-gap", window, "--period", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv, message", [
    (["density", "--spec", "{comb}", "--q", "1", "--N", "5", "--grid=-1:1:0"],
     "grid needs at least one step"),
    (["diagnose", "--spec", "{comb}", "--N", "50"], "at least one --x is required"),
    (["diagnose", "--spec", "{comb}", "--x", "0.25", "--N", "50",
      "--verify-gap", "1,20,0.25,0.12"], "--verify-gap requires --period"),
    (["verify", "--period", "2"], "either --random or --spec with window flags is required"),
    (["verify", "--spec", "{comb}", "--period", "2", "--m", "1", "--k", "20",
      "--E", "0.25"], "explicit verification needs --period, --m, --k, --E and --delta"),
    (["intersect", "--q", "2"], "either --family or --q/--lambda are required"),
    (["construct", "thm15", "--q", "2", "--lambda", "0.5", "--levels", "1",
      "--mode", "analytic", "--cap", "100", "--out", ""], "construct thm15 requires --out"),
    # the library's rule that a family has a member, no CLI copy of it
    (["intersect", "--q", "2", "--lambda", "0.5", "--points", "0"],
     "family must be nonempty"),
    (["intersect", "--q", "2", "--lambda", "0.5", "--points", "-3"],
     "family must be nonempty"),
])
def test_usage_errors_exit_2_with_their_message(tmp_path, capsys, argv, message):
    comb = tmp_path / "comb.json"
    comb.write_text(json.dumps({"kind": "periodic", "params": {
        "q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}}))
    code, out, err = run(capsys, *(arg.format(comb=comb) for arg in argv))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_construct_thm15_without_out_exits_before_the_search(capsys, monkeypatch):
    # the check used to run after build_schedule, a whole search before exit 2
    def search(*args, **kwargs):
        raise AssertionError("build_schedule ran")

    monkeypatch.setattr("jbv.cli.build_schedule", search)
    code, out, err = run(capsys, "construct", "thm15", "--q", "2", "--lambda", "0.5",
                         "--levels", "5", "--out", "")
    assert code == 2 and out == ""
    assert err == "error: construct thm15 requires --out\n"


def test_negative_seed_names_the_flag_or_the_config_key(tmp_path, capsys, monkeypatch):
    # both used to exit 2 with numpy's "expected non-negative integer"
    code, out, err = run(capsys, "verify", "--random", "3", "--seed", "-1")
    assert code == 2 and out == ""
    assert "--seed must be an integer >= 0, got -1" in err
    code, out, _ = run(capsys, "verify", "--random", "2", "--seed", "0")
    assert code == 0 and out.startswith("case,")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    monkeypatch.setenv("JBV_CONFIG", str(cfg))
    code, out, err = run(capsys, "verify", "--random", "3")
    assert code == 2 and out == ""
    assert "seed must be an integer >= 0, got -1" in err


@pytest.mark.parametrize("period", ["0", "-1"])
@pytest.mark.parametrize("flags", [
    ["verify", "--m", "1", "--k", "10", "--E", "0.25", "--delta", "0.1"],
    ["diagnose", "--x", "0.25", "--N", "50", "--verify-gap", "1,10,0.25,0.1"],
])
def test_period_below_one_exits_2(tmp_path, capsys, flags, period):
    # period 0 used to end in an IndexError traceback (exit 1), and -1 in a
    # message about window periodicity
    comb = tmp_path / "comb.json"
    comb.write_text(json.dumps({"kind": "periodic", "params": {
        "q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}}))
    code, out, err = run(capsys, flags[0], "--spec", str(comb), *flags[1:],
                         "--period", period)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "period must be an integer >= 1" in err


@pytest.mark.parametrize("command, doc", [
    ("bands --file", {"q": 2, "a": [1.0, 1.0]}),
    ("intersect --family", {"q": 2}),
    ("intersect --family", [{"q": 2, "a": 1.0, "b": [0.0, 0.0]}]),
    ("intersect --family", [{"q": None, "a": [1.0], "b": [0.0]}]),
    # a non-integral q used to be truncated: 2.7 gave a q=2 band structure
    ("bands --file", {"q": 2.7, "a": [1.0, 1.0], "b": [0.0, 0.5]}),
    ("intersect --family", [{"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]},
                            {"q": 2.7, "a": [1.0, 1.0], "b": [0.0, 0.6]}]),
])
def test_malformed_periodic_block_files_exit_2(tmp_path, capsys, command, doc):
    # a missing key or a wrong type used to end in a traceback
    p = tmp_path / "block.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command.split(), str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:")


GOOD_SCHEDULE = {"rows": [[0, 4, 9], [9, 14]], "w": [0.5, 0.25], "m": [2, 4]}


@pytest.mark.parametrize("change, message", [
    ({"rows": [[0, "x", 5]]}, "list of integers"),
    ({"w": [], "m": []}, "w and an m entry per row"),
    ({"rows": [[0, 10, 5]]}, "increase strictly"),
    ({"rows": [[3, 10]]}, "increase strictly from 0"),
    ({"rows": [[0, 4, 9], [10, 14]]}, "increase strictly from 9"),
    ({"rows": []}, "no realized windows"),
    ({"rows": [[0]]}, "no realized windows"),
    ({"m": [0, 4]}, "positive integers"),
    ({"w": [0.5, "x"]}, "ill-typed"),
])
def test_diagnose_rejects_malformed_staircase_schedule(tmp_path, capsys, change,
                                                       message):
    # the first three used to exit 0, end in an IndexError traceback, and
    # scan with an unsorted breakpoint table
    p = tmp_path / "st.json"
    p.write_text(json.dumps({"kind": "staircase_comb", "params": {
        "lam": 0.5, "q": 2, "schedule": {**GOOD_SCHEDULE, **change}}}))
    code, out, err = run(capsys, "diagnose", "--spec", str(p), "--x", "0.3",
                         "--N", "5")
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_diagnose_accepts_the_well_formed_staircase_schedule(tmp_path, capsys):
    p = tmp_path / "st.json"
    p.write_text(json.dumps({"kind": "staircase_comb", "params": {
        "lam": 0.5, "q": 2, "schedule": GOOD_SCHEDULE}}))
    code, _, _ = run(capsys, "diagnose", "--spec", str(p), "--x", "0.3",
                     "--N", "14")
    assert code == 0


def test_staircase_bv_breakdown_reads_the_spec_params():
    # used to need all twelve schedule keys (KeyError 'q' on this spec).  The
    # diagonal is -0.5 on 1..4, 0 on 5..9 and 0.5 on 10..14, plus w_l at even
    # n: w = 0.5 up to 9 and 0.25 from 10
    spec = CoefficientSpec("staircase_comb", {"lam": 0.5, "q": 2,
                                              "schedule": GOOD_SCHEDULE})
    assert staircase_bv_breakdown(spec) == {
        "comb_sum": 0.25 ** 2, "comb_bound": 2 * 0.25 ** 2,
        "staircase_sum": 2 * 0.5 ** 2, "staircase_bound": 4 * 0.25 * (1 / 2 + 1 / 4)}


BLOCK = {"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}


@pytest.mark.parametrize("config, doc, argv, field", [
    # a numeric string in a block file used to pass through float()
    (None, {**BLOCK, "a": ["1", "1"]}, ["bands", "--file"], "a"),
    # true is no integer and no real, in a spec or in a block
    (None, {"kind": "periodic", "params": {"q": True, "a": [1.0], "b": [0.25]}},
     ["diagnose", "--x", "0.3", "--N", "50", "--spec"], "q"),
    (None, {"kind": "periodic", "params": {**BLOCK, "b": [True, 0.5]}},
     ["diagnose", "--x", "0.3", "--N", "50", "--spec"], "b"),
    (None, {"q": True, "a": [1.0], "b": [0.25]}, ["bands", "--file"], "q"),
    (None, [BLOCK, {**BLOCK, "a": [True, 1.0]}], ["intersect", "--family"], "a"),
    # JBV_CONFIG values used to be truncated by int() or coerced by float()
    ({"points": 5.7}, None, ["intersect", "--q", "2", "--lambda", "0.5"], "points"),
    ({"seed": 3.9}, None, ["verify", "--random", "1"], "seed"),
    ({"cap": 100000.5}, None, ["construct", "thm15", "--q", "2", "--lambda", "0.5",
                               "--levels", "1", "--mode", "analytic", "--out"], "cap"),
    ({"tol": "1e-10"}, None, ["bands", "--q", "2", "--a", "1,1", "--b", "0,0.5"], "tol"),
    ({"mode": "fast"}, None, ["bands", "--q", "2", "--a", "1,1", "--b", "0,0.5"], "mode"),
    # a config that is no JSON object used to end in an AttributeError traceback
    ([1, 2], None, ["bands", "--q", "2", "--a", "1,1", "--b", "0,0.5"], "JBV_CONFIG"),
])
def test_one_number_rule_at_the_boundary(tmp_path, capsys, monkeypatch, config, doc,
                                         argv, field):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv("JBV_CONFIG", str(cfg))
    path = tmp_path / "doc.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    if argv[-1].startswith("--"):
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert field in err and "Traceback" not in err
