"""Tests of the benchmark's own arithmetic, on a tiny pipeline."""

import contextlib
import dataclasses
import json
import math
from pathlib import Path

import pytest

from perfbench import checks, harness, tracing

ROOT = Path(__file__).resolve().parent.parent
COMB2 = {"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}


@pytest.fixture
def cli(tmp_path, monkeypatch):
    import jbv.cli
    monkeypatch.chdir(tmp_path)
    (tmp_path / "comb2.json").write_text(json.dumps(COMB2))
    (tmp_path / "comb2spec.json").write_text(json.dumps(
        {"kind": "periodic", "params": COMB2}))
    return jbv.cli


def tiny_calls():
    c = harness.Call
    return [
        c("thm16", None, ["construct", "thm16", "--lambda", "0.5", "--gamma",
                          "0.4", "--out", "cos.json"], ("cos.json",)),
        c("diagnose", "diagnose", ["diagnose", "--spec", "cos.json", "--x", "0.0",
                                   "--x", "2.6", "--N", "1000", "--out", "d.json"],
          ("d.json",)),
        c("density", "density", ["density", "--spec", "cos.json", "--q", "1",
                                 "--N", "10", "--grid=-2.6:2.6:6", "--out",
                                 "f.csv"], ("f.csv",)),
        c("verify", "verify", ["verify", "--spec", "comb2spec.json", "--period",
                               "2", "--m", "1", "--k", "30", "--E", "0.25",
                               "--delta", "0.12", "--out", "v.csv"], ("v.csv",)),
        c("random", "verify", ["verify", "--random", "3", "--seed", "5",
                               "--out", "r.csv"], ("r.csv",)),
        c("bands", "bands", ["bands", "--file", "comb2.json", "--out", "b.json"],
          ("b.json",)),
        c("intersect", "intersect", ["intersect", "--q", "3", "--lambda", "0.5",
                                     "--points", "5", "--out", "i.json"],
          ("i.json",)),
    ]


def run_tiny(cli, tracer=None):
    with harness.Runner(cli) as runner, \
            tracing.Installed(tracer) if tracer else contextlib.nullcontext():
        outcomes = [runner.run(c, i, tracer) for i, c in enumerate(tiny_calls())]
    harness.settle(outcomes)
    return outcomes


def test_work_counts_behind_each_throughput(cli):
    outcomes = run_tiny(cli)
    assert [o.error for o in outcomes] == [None] * len(outcomes)
    density = harness.read_csv("f.csv")
    ok_rows = sum(r["status"] == "ok" for r in density)
    assert 0 < ok_rows < len(density)       # x = +-2.6 lie outside the band
    random_rows = sum(r["k"] - r["m"] - 3 for r in harness.read_csv("r.csv"))
    totals = harness.stage_totals(outcomes)
    assert {k: v[0] for k, v in totals.items()} == {
        "diagnose": 2 * 1000,               # N x energies
        "density": ok_rows * 10 * 1,        # ok rows x N x q
        "verify": (30 - 1 - 3) + random_rows,  # l = 4 .. k - m per window
        "bands": 1,
        "intersect": 5,
    }
    assert totals["verify"][1] == pytest.approx(
        outcomes[3].seconds + outcomes[4].seconds)
    rates = harness.stage_metrics(outcomes)
    assert rates["diagnose_steps_per_s"] == {
        "value": pytest.approx(2000 / outcomes[1].seconds), "unit": "steps/s"}
    nominal = {"diagnose": 4000, "density": 1, "verify": 1, "bands": 2,
               "intersect": 10}
    assert harness.norm_pipeline_s(outcomes, nominal) == pytest.approx(
        sum(nominal[s] * t / w for s, (w, t) in totals.items()))


def test_nonzero_exit_counts_as_failure(cli):
    calls = [
        harness.Call("overflow", "density",
                     ["density", "--spec", "cos.json", "--q", "1", "--N", "2000",
                      "--grid=-1.9:-1.9:1", "--out", "f.csv"], ("f.csv",),
                     reference=False),
        harness.Call("usage", "bands", ["bands", "--out", "b.json"], ("b.json",),
                     reference=False, known_errors=("ValueError",)),
    ]
    with harness.Runner(cli) as runner:
        runner.run(tiny_calls()[0])
        outcomes = [runner.run(c) for c in calls]
    for o in outcomes:
        checks.check(o, {})
    harness.settle(outcomes)
    overflow, usage = outcomes
    assert (overflow.rc, overflow.error, overflow.failed, overflow.known) == \
        (1, "OverflowError", True, False)
    assert (usage.rc, usage.error, usage.failed, usage.known) == \
        (2, "ValueError", True, True)
    totals = harness.stage_totals(outcomes)
    assert totals["density"] == [0.0, overflow.seconds]   # time counts, work not
    assert harness.stage_metrics(outcomes)["bands_blocks_per_s"]["value"] == 0.0


def test_reference_mismatch_and_tolerance():
    assert checks.compare({"n": 3, "x": 1.0}, {"n": 3, "x": 1.0 + 1e-12}) == []
    assert checks.compare({"n": 3}, {"n": 4})
    assert checks.compare([1.0], [1.0 + 1e-6])
    assert checks.compare({"s": "ok"}, {"s": "outside"})
    call = harness.Call("c", None, [], reference=True)
    o = harness.Outcome(call, [], 0.0, 0, None, output={"x": 2.0})
    checks.check(o, {"c": {"rc": 0, "output": {"x": 1.0}}})
    assert (o.error, o.known) == ("ReferenceMismatch", False)


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    outer = tr.begin_call("cli.bands", 0)               # [0, 10]
    a = tr.begin(tr.name_id("a"))                       # [1, 4]
    g = tr.begin(tr.name_id("g"))                       # [2, 3]
    tr.finish(g, 0.0, False)
    tr.finish(a, 0.0, False)
    b = tr.begin(tr.name_id("b"))                       # [5, 6]
    tr.finish(b, 0.0, False)
    tr.finish(outer, 0.0, False)
    assert list(tracing.self_times(tr.columns())) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.layer_metrics(tr)["cli.bands.self_s"] == 6.0


def test_traced_cli_self_time_matches_span_records(cli):
    tr = tracing.Tracer()
    run_tiny(cli, tr)
    cols = tr.columns()
    dur = cols["end"] - cols["start"]
    metrics = tracing.layer_metrics(tr)
    for cmd in tracing.CLI_COMMANDS:
        nid = tr.names.index(f"cli.{cmd}")
        expected = sum(dur[i] - sum(dur[j] for j in range(len(dur))
                                    if cols["parent"][j] == i)
                       for i in range(len(dur)) if cols["name"][i] == nid)
        assert metrics[f"cli.{cmd}.self_s"] == pytest.approx(expected, abs=1e-12)
        assert metrics[f"cli.{cmd}.self_s"] > 0.0
    assert metrics["transfer.scan.steps"] == 2 * 1000
    assert metrics["density.points"] == 6


def test_every_metric_printed_with_its_unit(cli):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = [run_tiny(cli)]
    tr = tracing.Tracer()
    traced = [(run_tiny(cli, tr), tracing.layer_metrics(tr))]
    e2e = harness.end_to_end(untraced, untraced, [0.5],
                             dict.fromkeys(harness.STAGES, 1),
                             harness.peak_rss_mb())
    layers = tracing.per_layer(untraced, traced)
    for metrics, units, names in (
            (e2e, harness.E2E_UNITS, bench["end_to_end"]),
            (layers, tracing.PER_LAYER, bench["per_layer"])):
        assert list(metrics) == [m["name"] for m in names]
        assert {m["name"]: m["unit"] for m in names} == {k: units[k] for k in metrics}
        assert all(math.isfinite(v) for v in metrics.values())
    assert all(e2e[m["name"]] > 0 for m in bench["end_to_end"])
    stages = harness.stage_metrics(untraced[0])
    assert {k: v["unit"] for k, v in stages.items()} == {
        name: unit for stage, (name, unit) in harness.STAGES.items()
        if stage != "construct"}       # the tiny pipeline has no thm15


def outcome(stage, out, seconds, doc, rc=0):
    argv = [stage, "--out", out]
    call = harness.Call(out, stage, argv, (out,))
    return harness.Outcome(call, argv, seconds, rc,
                           None if rc == 0 else "RootIsolationError",
                           output={out: doc})


def test_time_vs_baseline_weights_stages_by_baseline_share():
    def rounds(bands_s, failed_s, fixed=False):
        out = []
        for _ in range(3):
            rnd = [outcome("bands", "b.json", bands_s, {}),
                   outcome("bands", "c.json", failed_s, {},
                           rc=0 if fixed else 1),
                   outcome("intersect", "i.json", 1.0, {"members": 10})]
            harness.settle(rnd)
            out.append(rnd)
        return out

    baseline = rounds(1.0, 0.5)
    nominal = {"bands": 1, "intersect": 10}
    assert harness.time_vs_baseline(baseline, baseline, nominal) == 1.0
    # baseline shares: bands 1.5 s per resolved block, intersect 1.0 s
    assert harness.time_vs_baseline(rounds(2.0, 1.0), baseline, nominal) == \
        pytest.approx((1.5 * 2.0 + 1.0 * 1.0) / 2.5)
    # a call that only the program completes carries no ratio
    assert harness.time_vs_baseline(rounds(1.0, 9.0, fixed=True), baseline,
                                    nominal) == 1.0


def test_one_slower_call_moves_its_stage():
    def rounds(seconds):
        out = []
        for rnd_seconds in seconds:
            rnd = [outcome("diagnose", f"d{i}.json", t, {"N": 10, "results": [0]})
                   for i, t in enumerate(rnd_seconds)]
            harness.settle(rnd)
            out.append(rnd)
        return out

    baseline = rounds([(1.0, 1.0, 2.0)] * 3)
    nominal = {"diagnose": 40}
    assert harness.stage_ratios(baseline, baseline) == {"diagnose": 1.0}
    # only the call holding a quarter of the baseline's seconds slows down 2x
    slower = rounds([(2.0, 1.0, 2.0)] * 3)
    assert harness.stage_ratios(slower, baseline)["diagnose"] == \
        pytest.approx((2.0 * 1.0 + 1.0 * 1.0 + 1.0 * 2.0) / 4.0)
    assert harness.time_vs_baseline(slower, baseline, nominal) == \
        pytest.approx(1.25)
    # a jump in one round of three is absorbed by the call's median
    jump = rounds([(1.0, 1.0, 2.0), (1.0, 5.0, 2.0), (1.0, 1.0, 2.0)])
    assert harness.stage_ratios(jump, baseline)["diagnose"] == 1.0


def test_known_defects_are_not_counted_as_failed_and_seeded_calls_not_in_ok_ratio():
    def failing(out, reference, known):
        o = outcome("bands", out, 1.0, {}, rc=1)
        o.call = dataclasses.replace(o.call, reference=reference)
        o.known = known
        return o

    outcomes = [outcome("bands", "ok.json", 1.0, {}),
                failing("fixed_known.json", True, True),
                failing("seeded_known.json", False, True),
                failing("seeded_new.json", False, False)]
    assert harness.unexpected_failures(outcomes) == 1
    # of the two calls with fixed inputs, one resolved
    assert harness.ok_ratio(outcomes) == 0.5
