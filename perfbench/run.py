#!/usr/bin/env python3
"""Benchmark of the jbv command line pipelines.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: it imports jbv from ./src.  One process runs
one workload's pipeline of `jbv.cli.main` calls in-process, round after round
until another round would pass --seconds (at least one round), and checks
every call's output.  In a round each call runs twice, interleaved, taking
turns to go first:

  --trace 0  on the program and on the baseline (perfbench/baseline_jbv, the
             jbv sources of the commit that defined this benchmark); the
             metrics are the end-to-end ones;
  --trace 1  on the program untraced and traced; the metrics are the
             per-layer ones.

With --trace 0 one untimed round of the program alone comes first: the peak
RSS is read after it, before the baseline is imported.

The last line of output is {"correct", "attempted", "failed", "metrics"}; the
line before it holds per-stage throughputs, failures with their error
classes, and the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one process with no extra threads: cap BLAS thread pools before numpy loads
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import checks, harness, tracing, workloads  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
REFERENCE = ROOT / "perfbench" / "reference.json"
BASELINE = "perfbench.baseline_jbv"
BASELINE_DIR = ROOT / "perfbench" / "baseline_jbv"
# tree_sha256 of BASELINE_DIR: the copy is a fixed yardstick, never edited
BASELINE_SHA256 = "3df13d3772ffd4ac542ca2c98efa1de6f7233667d62764669fae4be86357d4f9"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 900


def iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    return np.random.default_rng([seed, iteration])


def setup(workload: str, seed: int, package: str = "jbv"):
    """Import `package` afresh, then write the workload's seeded inputs into
    the current directory.  Returns (seconds, its cli module)."""
    t0 = time.perf_counter()
    for name in [n for n in sys.modules
                 if n == package or n.startswith(package + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(package + ".cli")
    workloads.PIPELINES[workload](iteration_rng(seed, 0))
    return time.perf_counter() - t0, cli


def setup_pairs(workload: str, seed: int):
    """SETUP_REPEATS set-ups of the program, each paired with one of the
    baseline, the two taking turns to go first.  Returns the set-up seconds
    of each side in pair order, and both cli modules."""
    seconds = {"jbv": [], BASELINE: []}
    cli = {}
    for i in range(SETUP_REPEATS):
        for package in ("jbv", BASELINE)[::1 if i % 2 else -1]:
            t, cli[package] = setup(workload, seed, package)
            seconds[package].append(t)
    return seconds["jbv"], seconds[BASELINE], cli["jbv"], cli[BASELINE]


def solo_peak_rss_mb(workload: str, seed: int) -> float:
    """Run the program's first round once, alone and untimed, and read the
    process's peak RSS before the baseline is ever imported: the program's
    own peak, plus the interpreter, numpy and this benchmark's modules.  The
    round's outputs are checked when it runs again, paired."""
    cli = importlib.import_module("jbv.cli")
    with harness.Runner(cli) as runner:
        for call in workloads.PIPELINES[workload](iteration_rng(seed, 0)):
            runner.run(call)
    return harness.peak_rss_mb()


def measure(sides, workload: str, seed: int, seconds: float, reference: dict):
    """Rounds until another round would pass the deadline.

    `sides` are (name, runner, traced, directory).  In a round every call runs
    once on each side, the sides taking turns to go first; each side works in
    its own directory on its own copy of the round's inputs.  Returns, per
    side, the rounds as (outcomes, per-layer metrics or None), and the
    tracer of the first traced round.
    """
    results = {name: [] for name, *_ in sides}
    first_trace = None
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        rnd = len(results[sides[0][0]])
        calls, tracers, outcomes = {}, {}, {}
        for name, _, traced, folder in sides:
            os.chdir(folder)
            calls[name] = workloads.PIPELINES[workload](iteration_rng(seed, rnd))
            tracers[name] = tracing.Tracer() if traced else None
            outcomes[name] = []
        for i in range(len(calls[sides[0][0]])):
            for name, runner, _, folder in sides[::1 if (i + rnd) % 2 else -1]:
                os.chdir(folder)
                tr = tracers[name]
                with tracing.Installed(tr) if tr else contextlib.nullcontext():
                    outcomes[name].append(runner.run(calls[name][i], i, tr))
        for name, tr in tracers.items():
            for o in outcomes[name]:
                checks.check(o, reference)
            checks.qinterior_within_spectrum(outcomes[name])
            harness.settle(outcomes[name])
            results[name].append((outcomes[name],
                                  tracing.layer_metrics(tr) if tr else None))
            first_trace = first_trace or tr
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return results, first_trace


def failure_summary(outcomes) -> dict:
    """label -> how often the call failed, how, and whether the seed commit
    had that failure already."""
    failures: dict[str, dict] = {}
    for o in outcomes:
        if o.failed:
            f = failures.setdefault(o.call.label, {"count": 0, "errors": {},
                                                   "known": True})
            f["count"] += 1
            f["errors"][o.error] = f["errors"].get(o.error, 0) + 1
            f["known"] = f["known"] and o.known
            if not o.known:
                f["problems"] = o.problems[:3]
    return failures


def tree_sha256(folder: Path) -> str:
    """sha256 over the names and bytes of the .py files of `folder`."""
    digest = hashlib.sha256()
    for path in sorted(folder.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    threads = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
        with open("/proc/self/status") as fh:
            threads = next((int(line.split()[1]) for line in fh
                            if line.startswith("Threads:")), None)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": commit, "src_sha256": tree_sha256(SRC / "jbv"),
            "blas_threads": BLAS_THREADS, "process_threads": threads}


def run_one(args) -> dict:
    work = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    other = "traced" if args.trace else "baseline"
    for name in ("solo", "setup", "program", other):
        (work / name).mkdir(parents=True)
    home = os.getcwd()
    try:
        os.chdir(work / "solo")
        peak_rss = None if args.trace else solo_peak_rss_mb(args.workload, args.seed)
        with open(REFERENCE) as fh:
            reference = json.load(fh)["workloads"][args.workload]
        os.chdir(work / "setup")
        setup_s, baseline_setup_s, cli, baseline_cli = setup_pairs(
            args.workload, args.seed)
        runner = harness.Runner(cli)
        other_runner = runner if args.trace else harness.Runner(baseline_cli)
        with runner, other_runner:
            results, first_trace = measure(
                [("program", runner, False, work / "program"),
                 (other, other_runner, bool(args.trace), work / other)],
                args.workload, args.seed, args.seconds, reference)
    finally:
        os.chdir(home)
    shutil.rmtree(work, ignore_errors=True)
    program = [outcomes for outcomes, _ in results["program"]]
    if args.trace:
        counted = program + [outcomes for outcomes, _ in results["traced"]]
        metrics = tracing.per_layer(program, results["traced"])
        units = tracing.PER_LAYER
        first_trace.save(str(OUT / f"trace-{args.workload}-{args.seed}.npz"))
    else:
        counted = program
        baseline = [outcomes for outcomes, _ in results["baseline"]]
        nominal = workloads.NOMINAL[args.workload]
        setup_ratios = [p / b for p, b in zip(setup_s, baseline_setup_s)]
        metrics = harness.end_to_end(program, baseline, setup_ratios, nominal,
                                     peak_rss)
        units = harness.E2E_UNITS
    outcomes = [o for rnd in counted for o in rnd]
    failed = sum(o.failed for o in outcomes)
    unexpected = harness.unexpected_failures(outcomes)
    flat = {name: [o for outcomes, _ in rounds for o in outcomes]
            for name, rounds in results.items()}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(program),
        # raw median set-up seconds of both sides on this machine
        "setup_raw_s": {"program": statistics.median(setup_s),
                        "baseline": statistics.median(baseline_setup_s)},
        "stages": {name: harness.stage_metrics(f) for name, f in flat.items()},
        "stage_ratios": harness.stage_ratios(
            program, [outcomes for outcomes, _ in results[other]]),
        "norm_pipeline_s": {name: harness.norm_pipeline_s(
            f, workloads.NOMINAL[args.workload]) for name, f in flat.items()},
        # every failing call, known defects included
        "failed_ratio": {"value": failed / len(outcomes), "failed": failed,
                         "attempted": len(outcomes)},
        "failures": failure_summary(outcomes),
        "environment": environment()}))
    # a known-defect call failing as it did at the seed commit is an expected
    # outcome, confirmed by its check; only other failures count here, so the
    # count does not depend on which random blocks a run happens to draw
    return {"correct": unexpected == 0,
            "attempted": len(outcomes), "failed": unexpected,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own child process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.PIPELINES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr[-2000:]}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.PIPELINES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "jbv" / "__init__.py").is_file():
        sys.stderr.write(f"error: no jbv sources under {SRC}\n")
        return 2
    if tree_sha256(BASELINE_DIR) != BASELINE_SHA256:
        sys.stderr.write(f"error: {BASELINE_DIR} differs from the copy every "
                         "ratio and reference.json were measured against\n")
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
