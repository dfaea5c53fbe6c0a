"""The three workloads: fixed pipelines of `jbv` command line calls.

Each pipeline function takes a numpy Generator drawn from (workload seed,
iteration), writes the pipeline's input files into the current directory and
returns its calls.  Calls marked `reference=False` depend on the seed and are checked by
invariants only; all others are compared with reference.json.

Known defects at the seed commit stay in the pipelines and count as failed
calls (README.md lists them):
  * cosine_sweep: `density` at N=2000 exits 1 (OverflowError at x=-1.9);
  * staircase_certify: `density` at N=1000 exits 1 (OverflowError);
  * band_family: `bands` on random blocks exits 1 (RootIsolationError) at
    q >= 24 and often at q = 20, where it otherwise often returns wrong bands
    (|D| > 2 at a band's midpoint); the comb block at q=32 exits 1 too.
"""

from __future__ import annotations

import json

from .checks import (bands_consistent, density_nonnegative, growth_reaches,
                     random_windows_certified, window_certified)
from .harness import Call

# Work each stage completes in one pipeline at the seed commit, in the stage's
# unit (harness.STAGES); the weights of norm_pipeline_s.
NOMINAL = {
    "cosine_sweep": {"diagnose": 750_000, "density": 61_250},
    "staircase_certify": {"construct": 1, "diagnose": 21_595,
                          "verify": 3_000, "density": 7_600},
    "band_family": {"bands": 12, "intersect": 404},
}


def _write_json(name: str, doc) -> None:
    with open(name, "w") as fh:
        json.dump(doc, fh)


def _call(label, stage, argv, out, **kw) -> Call:
    """A call writing its output to `out`, which becomes its --out."""
    if callable(argv):
        def args():
            return argv() + ["--out", out]
    else:
        args = list(argv) + ["--out", out]
    return Call(label, stage, args, outputs=(out,) + kw.pop("also", ()), **kw)


COSINE_N = 250_000


def cosine_sweep(rng) -> list[Call]:
    """Theorem 16's slow cosine sequence: growth scans at N = COSINE_N in band, in
    band and off band, then a density convergence ladder in N.  The inputs are
    fixed; the seed changes nothing."""
    calls = [_call("construct thm16", None,
                   ["construct", "thm16", "--lambda", "0.5", "--gamma", "0.4"],
                   "cos.json")]
    for x in ("0.0", "1.0", "2.6"):
        calls.append(_call(f"diagnose x={x}", "diagnose",
                           ["diagnose", "--spec", "cos.json", "--x", x,
                            "--N", str(COSINE_N)], f"diag_{x}.json"))
    for n in (250, 500, 1000, 2000):
        out = f"density_{n}.csv"
        calls.append(_call(f"density N={n}", "density",
                           ["density", "--spec", "cos.json", "--q", "1",
                            "--N", str(n), "--grid=-1.9:1.9:39"], out,
                           invariant=density_nonnegative(out)))
    return calls


STAIR_LAMBDA = 0.5
STAIR_LEVELS = 5
GAP_DELTA = "0.12"      # inside the q=2 comb gaps of width 2^-l at level 1


def _schedule() -> dict:
    with open("st.schedule.json") as fh:
        return json.load(fh)


def _level_diagnose(level: int):
    def argv():
        sched = _schedule()
        return ["diagnose", "--spec", "st.json",
                "--x", repr(sched["centers"][level - 1][0]),
                "--N", str(sched["rows"][-1][-1])]
    return argv


def _level1_window():
    # the first level-1 step (n_{1,0}, n_{1,1}] is periodic with staircase
    # value -lambda, so its gap is the comb gap shifted by -lambda
    sched = _schedule()
    lo, hi = sched["rows"][0][0] + 1, sched["rows"][0][1]
    e = repr(sched["centers"][0][0] - STAIR_LAMBDA)
    return ["diagnose", "--spec", "st.json", "--x", e, "--N", "64",
            "--verify-gap", f"{lo},{hi},{e},{GAP_DELTA}", "--period", "2"]


def staircase_certify(rng) -> list[Call]:
    """Theorem 15's staircase + comb sequence: the empirical schedule search,
    growth at each level's gap center, gap-window certification (one window
    of the construction, the quadratic k=1000 comb window, 100 random
    windows), and densities of two approximants."""
    _write_json("comb.json", {"kind": "periodic",
                              "params": {"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}})
    calls = [_call("construct thm15", "construct",
                   ["construct", "thm15", "--q", "2", "--lambda", str(STAIR_LAMBDA),
                    "--levels", str(STAIR_LEVELS), "--mode", "empirical"],
                   "st.json", also=("st.schedule.json",), stdout=True)]
    for level in range(1, STAIR_LEVELS + 1):
        out = f"diag_level{level}.json"
        calls.append(_call(f"diagnose level {level}", "diagnose",
                           _level_diagnose(level), out,
                           invariant=growth_reaches(out, level)))
    calls.append(_call("verify-gap level 1", "verify", _level1_window,
                       "verify_gap.json",
                       invariant=window_certified("verify_gap.json")))
    calls.append(_call("verify comb k=1000", "verify",
                       ["verify", "--spec", "comb.json", "--period", "2",
                        "--m", "1", "--k", "1000", "--E", "0.25",
                        "--delta", GAP_DELTA], "verify_comb.csv",
                       invariant=window_certified("verify_comb.csv")))
    seed = str(int(rng.integers(2 ** 31)))
    calls.append(_call("verify random", "verify",
                       ["verify", "--random", "100", "--seed", seed],
                       "verify_random.csv", reference=False,
                       invariant=random_windows_certified("verify_random.csv")))
    for n in (200, 1000):
        out = f"density_{n}.csv"
        calls.append(_call(f"density N={n}", "density",
                           ["density", "--spec", "st.json", "--q", "2",
                            "--N", str(n), "--grid=-2.4:2.4:25"], out,
                           invariant=density_nonnegative(out)))
    return calls


BAND_QS = (2, 4, 8, 12, 16, 20, 24, 32)
COMB_W = 0.5
RANDOM_FAILS_FROM_Q = 20
# from q = 20 on, monomial-basis evaluation of the discriminant loses the band
# edges: band_structure raises, or returns bands with |D(mid)| > 2
RANDOM_BLOCK_DEFECTS = ("RootIsolationError", "InvariantViolation")


def band_family(rng) -> list[Call]:
    """Band structures of a fresh random block (a in [0.5, 1.5], b in [-1, 1])
    and of the comb block for each q, then spectrum and q-interior
    intersections over 101-member shift families for q = 3 and 8."""
    calls = []
    for q in BAND_QS:
        random_block = {"q": q, "a": rng.uniform(0.5, 1.5, q).tolist(),
                        "b": rng.uniform(-1.0, 1.0, q).tolist()}
        comb_block = {"q": q, "a": [1.0] * q, "b": [0.0] * (q - 1) + [COMB_W]}
        for kind, block, seeded in (("random", random_block, True),
                                    ("comb", comb_block, False)):
            name = f"{kind}{q}"
            _write_json(f"{name}.json", block)
            calls.append(_call(
                f"bands {kind} q={q}", "bands",
                ["bands", "--file", f"{name}.json"], f"bands_{name}.json",
                reference=not seeded,
                known_errors=(RANDOM_BLOCK_DEFECTS
                              if seeded and q >= RANDOM_FAILS_FROM_Q else ()),
                invariant=bands_consistent(f"bands_{name}.json", block)))
    for q in ("3", "8"):
        for mode in ("spectrum", "qinterior"):
            calls.append(_call(f"intersect q={q} {mode}", "intersect",
                               ["intersect", "--q", q, "--lambda", "0.5",
                                "--points", "101", "--mode", mode],
                               f"intersect_{q}_{mode}.json"))
    return calls


PIPELINES = {"cosine_sweep": cosine_sweep,
             "staircase_certify": staircase_certify,
             "band_family": band_family}
