"""Runs a workload's pipeline of `jbv.cli.main` calls in-process and accounts
for every call: wall time, exit code, error class, parsed output, the
problems its checks found, and the work it completed."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

# stage -> (throughput, unit), as the detail line reports them.  A stage's
# throughput is its completed work over the wall time of all its calls,
# failed calls included; construct is reported as seconds per construction.
STAGES = {
    "diagnose": ("diagnose_steps_per_s", "steps/s"),
    "density": ("density_block_steps_per_s", "steps/s"),
    "verify": ("verify_checks_per_s", "rows/s"),
    "construct": ("construct_s", "s"),
    "bands": ("bands_blocks_per_s", "blocks/s"),
    "intersect": ("intersect_members_per_s", "members/s"),
}


@dataclass
class Call:
    """One `jbv` command line invocation of a workload's pipeline."""

    label: str                  # unique in its workload; keys the reference output
    stage: str | None           # key of STAGES the call counts toward, or None
    argv: list[str] | Callable[[], list[str]]  # a callable reads earlier outputs
    outputs: tuple[str, ...] = ()   # files the call writes, parsed as its output
    stdout: bool = False            # the call also prints a JSON document
    reference: bool = True          # seed-independent: compared with reference.json
    known_errors: tuple[str, ...] = ()  # failures of a known defect (see Outcome)
    invariant: Callable[[dict], list[str]] | None = None


@dataclass
class Outcome:
    """A call's result.  `error` names how it failed, or is None: the class of
    the exception behind a non-zero exit (`exit<rc>` without one), or
    ReferenceMismatch, InvariantViolation or UnreadableOutput.  `known` marks
    a failure the seed commit already had (checks.check decides it)."""

    call: Call
    argv: list[str]
    seconds: float
    rc: int
    error: str | None
    output: dict | None = None  # output name -> parsed document
    problems: list[str] = field(default_factory=list)
    known: bool = False
    work: float | None = None   # set by settle()

    @property
    def failed(self) -> bool:
        return self.error is not None


def settle(outcomes: list[Outcome]) -> None:
    """Fix each checked outcome's work and drop its parsed output, so that a
    long run does not grow in memory with its rounds."""
    for o in outcomes:
        o.work = 0.0 if o.failed else work_done(o.argv, o.output)
        o.output = None


def read_csv(path: str) -> list[dict]:
    """CSV rows as dicts; cells become int, float, None (empty) or str."""
    def cell(text):
        if text == "":
            return None
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text
    with open(path, newline="") as fh:
        return [{k: cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _read(path: str):
    if path.endswith(".csv"):
        return read_csv(path)
    with open(path) as fh:
        return json.load(fh)


def work_done(argv: list[str], output: dict) -> float:
    """Work units a successful call completed, in its stage's unit."""
    doc = output[argv[argv.index("--out") + 1]]
    cmd = argv[0]
    if cmd == "diagnose":
        if "--verify-gap" in argv:
            return doc["verify_gap"]["checked"]
        return doc["N"] * len(doc["results"])
    if cmd == "density":
        return sum(r["N"] * r["q"] for r in doc if r["status"] == "ok")
    if cmd == "verify":
        if "--random" in argv:
            return sum(r["checked"] for r in doc)
        return len(doc)
    if cmd == "intersect":
        return doc["members"]
    return 1.0  # bands: one block resolved; construct: one construction


class Runner:
    """Calls `jbv.cli.main` in-process.

    `main` turns exceptions into exit codes and messages; the runner wraps the
    module's subcommand handlers so that the class of such an exception is
    recorded too.  Use as a context manager: leaving it restores the module.
    """

    def __init__(self, cli) -> None:
        self.cli = cli
        self._error: str | None = None
        self._saved = {n: f for n, f in vars(cli).items() if n.startswith("_cmd_")}
        for name, fn in self._saved.items():
            setattr(cli, name, self._recording(fn))

    def _recording(self, fn):
        def handler(args):
            try:
                return fn(args)
            except Exception as exc:
                self._error = type(exc).__name__
                raise
        return handler

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved.items():
            setattr(self.cli, name, fn)

    def run(self, call: Call, call_id: int = 0, tracer=None) -> Outcome:
        """Run one call; with a tracer, record its span as cli.<subcommand>."""
        try:
            argv = call.argv() if callable(call.argv) else list(call.argv)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # an input the pipeline should have produced is missing
            return Outcome(call, [], 0.0, -1, type(exc).__name__)
        for name in call.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
        self._error = None
        stdout = io.StringIO()
        span = tracer.begin_call(f"cli.{argv[0]}", call_id) if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
        except SystemExit as exc:       # argparse usage error
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:        # escaped main(): itself a defect
            rc, self._error = -1, type(exc).__name__
        seconds = time.perf_counter() - t0
        if span is not None:
            tracer.finish(span, 0.0, rc != 0)
        if rc != 0:
            return Outcome(call, argv, seconds, rc, self._error or f"exit{rc}")
        outcome = Outcome(call, argv, seconds, rc, None)
        try:
            outcome.output = {name: _read(name) for name in call.outputs}
            if call.stdout:
                outcome.output["stdout"] = json.loads(stdout.getvalue())
        except (OSError, ValueError) as exc:
            outcome.error = "UnreadableOutput"
            outcome.problems.append(str(exc))
        return outcome


def stage_totals(outcomes: list[Outcome]) -> dict[str, list[float]]:
    """stage -> [completed work, wall seconds of all its calls]."""
    totals: dict[str, list[float]] = {}
    for o in outcomes:
        if o.call.stage is not None:
            t = totals.setdefault(o.call.stage, [0.0, 0.0])
            t[0] += o.work
            t[1] += o.seconds
    return totals


def stage_metrics(outcomes: list[Outcome]) -> dict[str, dict]:
    """The throughput (or construct_s) of every stage the pipeline has, with
    its unit; the value is None where the stage completed nothing."""
    out = {}
    for stage, (work, seconds) in stage_totals(outcomes).items():
        name, unit = STAGES[stage]
        if stage == "construct":
            value = seconds / work if work else None
        else:
            value = work / seconds if seconds else None
        out[name] = {"value": value, "unit": unit}
    return out


def norm_pipeline_s(outcomes: list[Outcome], nominal: dict[str, float]) -> float:
    """Seconds the pipeline would take if every stage completed its nominal
    work at the throughput measured here: sum of nominal work / throughput.

    Unlike the raw pipeline time it does not grow when a fixed defect turns a
    failing call into completed work.  A stage that completed nothing has no
    throughput and adds nothing; such a run has failed calls already.
    """
    return sum(nominal[stage] * seconds / work
               for stage, (work, seconds) in stage_totals(outcomes).items()
               if work > 0)


def pair_ratio(p: Outcome, b: Outcome) -> float | None:
    """Program over baseline seconds per unit of work for one call run on
    both sides; plain seconds when both failed, None when only one did."""
    if p.failed != b.failed:
        return None
    if p.failed:
        return p.seconds / b.seconds
    return (p.seconds / p.work) / (b.seconds / b.work)


def stage_ratios(program: list[list[Outcome]], baseline: list[list[Outcome]]
                 ) -> dict[str, float]:
    """Per stage, the mean of its calls' ratios weighted by the calls'
    baseline seconds.  A call's ratio is the median of its pair_ratio over
    the rounds.

    Every call ran on both sides back to back, so the machine's speed, which
    drifts by tens of percent between runs and jumps within seconds, is
    nearly the same for both; the median over rounds discards the pairs that
    a jump split.  The weighted mean lets every call move its stage by its
    share of the stage's baseline seconds.
    """
    pairs: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for p_round, b_round in zip(program, baseline):
        for p, b in zip(p_round, b_round):
            r = pair_ratio(p, b)
            if r is not None and p.call.stage is not None:
                key = (p.call.stage, p.call.label)
                pairs.setdefault(key, []).append((r, b.seconds))
    sums: dict[str, list[float]] = {}
    for (stage, _), call_pairs in pairs.items():
        weight = sum(seconds for _, seconds in call_pairs)
        acc = sums.setdefault(stage, [0.0, 0.0])
        acc[0] += weight * statistics.median(r for r, _ in call_pairs)
        acc[1] += weight
    return {stage: num / den for stage, (num, den) in sums.items()}


def time_vs_baseline(program: list[list[Outcome]], baseline: list[list[Outcome]],
                     nominal: dict[str, float]) -> float:
    """norm_pipeline_s of the program over that of the baseline: the stage
    ratios weighted by the stages' shares of the baseline's norm_pipeline_s."""
    base = [o for outcomes in baseline for o in outcomes]
    shares = {stage: nominal[stage] * seconds / work
              for stage, (work, seconds) in stage_totals(base).items() if work}
    ratios = {stage: r for stage, r in stage_ratios(program, baseline).items()
              if stage in shares}
    total = sum(shares[stage] for stage in ratios)
    return sum(shares[stage] / total * r for stage, r in ratios.items())


E2E_UNITS = {"setup_s": "s", "time_vs_baseline": "ratio", "ok_ratio": "ratio",
             "peak_rss_mb": "MB"}


# the baseline's set-up time, median over runs of all three workloads on the
# 2-vCPU machine where the benchmark was built.  setup_s is this times the
# program's over the baseline's set-up time, measured in pairs: a scaled
# ratio, not the set-up seconds of the machine it runs on (the detail line
# has those)
BASELINE_SETUP_S = 0.075


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ok_ratio(outcomes: list[Outcome]) -> float:
    """Share of the calls with fixed inputs (those compared with
    reference.json) that exit 0 and pass their checks.

    Ok rather than failed calls: the share must stay above 0 once the known
    defects are fixed.  Seeded calls are left out because whether a random
    block hits a known defect depends on the draw: at q = 20 about 60 % of
    draws fail, which would move the share by 1/20 per round between runs of
    the same code.
    """
    fixed = [o for o in outcomes if o.call.reference]
    return sum(not o.failed for o in fixed) / len(fixed)


def unexpected_failures(outcomes: list[Outcome]) -> int:
    """Failed calls that are not a known defect of the seed commit."""
    return sum(o.failed and not o.known for o in outcomes)


def end_to_end(program: list[list[Outcome]], baseline: list[list[Outcome]],
               setup_ratios: list[float], nominal: dict[str, float],
               program_peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of a run from its rounds of pipelines on the
    program and, interleaved call by call, on the baseline.
    `program_peak_rss_mb` is read where the baseline has not run."""
    flat = [o for outcomes in program for o in outcomes]
    return {
        # the raw set-up time drifts by 25 % between sets of runs, with the
        # machine's speed; the paired ratio does not
        "setup_s": BASELINE_SETUP_S * statistics.median(setup_ratios),
        "time_vs_baseline": time_vs_baseline(program, baseline, nominal),
        "ok_ratio": ok_ratio(flat),
        "peak_rss_mb": program_peak_rss_mb,
    }
