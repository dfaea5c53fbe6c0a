"""Output checks: comparison with the outputs recorded at the seed commit
(reference.json) and invariants that hold without a reference.

Tolerances.  Integers, strings, booleans, nulls, statuses and schedule rows
must match exactly.  A float `got` matches its reference `ref` when

    |got - ref| <= FLOAT_ABS + FLOAT_REL * |ref|

FLOAT_REL = 1e-8 leaves room for reassociated transfer products (their
rounding is ~1e-13 relative on these inputs) and FLOAT_ABS = 1e-9 for band
edges and gap widths, which bisection resolves to 1e-10 only.
"""

from __future__ import annotations

import math

import numpy as np

FLOAT_REL = 1e-8
FLOAT_ABS = 1e-9
D_SLACK = 1e-7      # |D(mid band)| may exceed 2 by this much
CONTAIN_SLACK = 1e-9


def compare(ref, got, where: str = "") -> list[str]:
    """Differences between a reference document and an output, by path."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [p for k in ref for p in compare(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [p for i, (r, g) in enumerate(zip(ref, got))
                for p in compare(r, g, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(ref, float) or isinstance(got, float)) \
            and isinstance(ref, numbers) and isinstance(got, numbers) \
            and not isinstance(ref, bool) and not isinstance(got, bool):
        if abs(got - ref) <= FLOAT_ABS + FLOAT_REL * abs(ref):
            return []
        return [f"{where}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{where}: {got!r} != {ref!r}"]
    return []


def check(outcome, reference: dict) -> None:
    """Check one call's result; sets its error, problems and `known`.

    A failure is known when the seed commit had it: the error class recorded
    in the reference (reference calls) or one of the call's known_errors.
    """
    call = outcome.call
    accepted = set(call.known_errors)
    ref = reference.get(call.label) if call.reference else None
    if call.reference and ref is None:
        outcome.error = outcome.error or "NoReference"
        outcome.problems.append(f"no reference output recorded for {call.label!r}")
    elif ref is not None and "error" in ref:
        accepted.add(ref["error"])
    if outcome.error is None:
        if ref is not None and "output" in ref:
            outcome.problems += compare(ref["output"], outcome.output, call.label)
            if outcome.problems:
                outcome.error = "ReferenceMismatch"
        if outcome.error is None and call.invariant is not None:
            outcome.problems += call.invariant(outcome.output)
            if outcome.problems:
                outcome.error = "InvariantViolation"
    outcome.known = outcome.error in accepted


def reference_entry(outcome) -> dict:
    """What reference.json records for a call."""
    if outcome.error is not None:
        return {"rc": outcome.rc, "error": outcome.error}
    return {"rc": 0, "output": outcome.output}


# ---------------------------------------------------------------------------
# invariants; each takes the call's parsed output and returns problems

def density_nonnegative(name: str):
    def inv(output):
        return [f"{name}: f={r['f']!r} at x={r['x']!r} on an ok row"
                for r in output[name] if r["status"] == "ok"
                and not (isinstance(r["f"], float) and r["f"] >= 0.0
                         and math.isfinite(r["f"]))]
    return inv


def growth_reaches(name: str, level: int):
    """The staircase construction makes the growth statistic at a level's gap
    center exceed the level: running_max_log >= log(level)."""
    def inv(output):
        got = output[name]["results"][0]["running_max_log"]
        if got >= math.log(level):
            return []
        return [f"{name}: running_max_log {got!r} < log({level})"]
    return inv


def window_certified(name: str):
    """Every row of an explicit window check passes."""
    def inv(output):
        doc = output[name]
        if isinstance(doc, dict):
            doc = doc["verify_gap"]
            ok = doc["passed"] and not doc["violations"] and doc["checked"] > 0
        else:
            ok = bool(doc) and all(r["status"] == "pass" for r in doc)
        return [] if ok else [f"{name}: gap-window growth bound violated"]
    return inv


def random_windows_certified(name: str):
    """verify --random: every window passes and checks l = 4 .. k - m."""
    def inv(output):
        return [f"{name}: case {r['case']} {r['status']}, checked {r['checked']}"
                for r in output[name]
                if r["status"] != "pass" or r["violations"] != 0
                or r["checked"] != r["k"] - r["m"] - 3]
    return inv


def discriminant(a, b, x: float) -> float:
    """Trace of the one-step transfer product over one period at energy x,
    computed here independently of jbv."""
    m = np.eye(2)
    for an, bn in zip(a, b):
        m = np.array([[(x - bn) / an, -1.0 / an], [an, 0.0]]) @ m
    return float(m[0, 0] + m[1, 1])


def bands_consistent(name: str, block: dict):
    """q bands with ordered edges, and |D| <= 2 at each band's midpoint."""
    def inv(output):
        bands = output[name]["bands"]
        if len(bands) != block["q"]:
            return [f"{name}: {len(bands)} bands for q={block['q']}"]
        edges = [e for band in bands for e in band]
        if edges != sorted(edges):
            return [f"{name}: band edges out of order"]
        return [f"{name}: |D({0.5 * (lo + hi)!r})| > 2"
                for lo, hi in bands
                if abs(discriminant(block["a"], block["b"], 0.5 * (lo + hi)))
                > 2.0 + D_SLACK]
    return inv


def qinterior_within_spectrum(outcomes) -> None:
    """Cross-call check: the q-interior intersection of a family lies inside
    its spectrum intersection.  A violation is a problem of the qinterior
    call."""
    done = {}
    for o in outcomes:
        if o.argv and o.argv[0] == "intersect" and o.output is not None:
            done[(o.argv[o.argv.index("--q") + 1],
                  o.argv[o.argv.index("--mode") + 1])] = o
    for (q, mode), o in done.items():
        spec = done.get((q, "spectrum"))
        if mode != "qinterior" or spec is None:
            continue
        spectrum = next(iter(spec.output.values()))["pairs"]
        for lo, hi in next(iter(o.output.values()))["pairs"]:
            if not any(slo - CONTAIN_SLACK <= lo and hi <= shi + CONTAIN_SLACK
                       for slo, shi in spectrum):
                o.error, o.known = o.error or "InvariantViolation", False
                o.problems.append(f"qinterior ({lo}, {hi}) of q={q} is not "
                                  "inside the spectrum intersection")
