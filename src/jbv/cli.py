"""Command line interface.

Subcommands: bands, construct (thm15 | thm16), density, diagnose, verify,
intersect.  Structured results are JSON, grids are CSV.  Exit codes: 0 on
success, 1 on numerical failure, 2 on usage errors.

Defaults for the tunable flags (tol, cap, margin, mode, seed, points) may be
supplied by a JSON object in the file named by the JBV_CONFIG environment
variable, checked as spec files are; explicit flags win over it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .coeffs import CoefficientSpec, as_int, as_real
from .constructions import (build_schedule, slow_cosine_spec,
                            staircase_comb_spec)
from .density import ApproximantSpec, ac_density
from .diagnostics import _Window, _window_reports, growth_statistic, verify_gap_window_growth
from .errors import (DegenerateBlockError, HorizonError, OutsideBandError,
                     PoleOfMError, PreconditionError, RootIsolationError)
from .matrix2 import _exp_saturating
# gap_report stays bound here: perfbench/tracing.py wraps this name
from .periodic import PeriodicJacobi, _band_edges, band_structure, comb_potential, \
    gap_report, intersection_over_family  # noqa: F401

_MODES = ("empirical", "analytic")


def _mode(value, name: str) -> str:
    if value not in _MODES:
        raise ValueError(f"{name} must be one of {_MODES}, got {value!r}")
    return value


# each tunable flag's built-in default and the rule a JBV_CONFIG value obeys
_CONFIG = {"tol": (1e-10, as_real), "cap": (10 ** 6, as_int),
           "margin": (1.0, as_real), "mode": ("empirical", _mode),
           "seed": (12345, functools.partial(as_int, least=0)), "points": (101, as_int)}


def _load_config() -> dict:
    """The tunable flags' defaults: JBV_CONFIG's, checked, over the built-in ones."""
    config = {key: default for key, (default, _) in _CONFIG.items()}
    path = os.environ.get("JBV_CONFIG")
    if path:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("the config must be a JSON object")
        config.update((key, rule(doc[key], key))
                      for key, (_, rule) in _CONFIG.items() if key in doc)
    return config


def _json(doc) -> str:
    """Strict JSON: a NaN or infinity raises instead of being written."""
    return json.dumps(doc, indent=2, allow_nan=False)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_table(args, header: list[str], rows: list[list], **fields) -> None:
    """The rows as CSV (csv writes a float by repr, None as empty), or with
    --format json as the "rows" entry after `fields`, each row keyed by the header."""
    if args.format == "json":
        _emit(_json({**fields, "rows": [dict(zip(header, r)) for r in rows]}),
              args.out)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)


def _load_spec(path: str) -> CoefficientSpec:
    with open(path) as fh:
        return CoefficientSpec.from_dict(json.load(fh))


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _finite_float(text: str) -> float:
    """A finite float; NaN and infinities are usage errors (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# ---------------------------------------------------------------------------
# bands

def _cmd_bands(args) -> int:
    if args.file:
        with open(args.file) as fh:
            P = PeriodicJacobi.from_dict(json.load(fh))
    else:
        if args.q is None or args.a is None or args.b is None:
            raise ValueError("either --file or all of --q/--a/--b are required")
        P = PeriodicJacobi.of(args.q, _parse_float_list(args.a),
                              _parse_float_list(args.b))
    bs = band_structure(P, args.tol)
    doc = {
        "q": bs.q,
        "bands": [list(iv.as_pair()) for iv in bs.bands],
        "gaps": [[g.lo, g.hi] for g in bs.gaps if not g.closed],
        "closed_gaps": [g.center for g in bs.gaps if g.closed],
        "q_interior": [list(p) for p in bs.q_interior.as_pairs()],
        "critical_points": list(bs.critical_points),
        "discriminant": list(bs.discriminant.coeffs),
    }
    _emit(_json(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# construct

def _schedule_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return f"{root}.schedule{ext or '.json'}"


def _cmd_construct(args) -> int:
    if args.construction == "thm16":
        spec = slow_cosine_spec(args.lam, args.gamma)
        _emit(_json(spec.to_dict()), args.out)
        return 0
    if not args.out:   # before the search, which it would waste
        raise ValueError("construct thm15 requires --out")
    sched = build_schedule(args.q, args.lam, args.levels,
                           growth_margin=args.margin, cap=args.cap, mode=args.mode)
    spec = staircase_comb_spec(sched)
    _emit(_json(spec.to_dict()), args.out)
    spath = args.schedule_out or _schedule_path(args.out)
    _emit(_json(sched.to_dict()), spath)
    summary = {"spec": args.out, "schedule": spath, "mode": sched.mode,
               "truncated": sched.truncated, "horizon": sched.horizon,
               "levels_realized": len(sched.rows)}
    sys.stdout.write(_json(summary) + "\n")
    return 0


# ---------------------------------------------------------------------------
# density

def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """steps evenly spaced points from lo to hi: none below 1, the midpoint for 1."""
    if steps == 1:
        return [0.5 * (lo + hi)]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _parse_grid(text: str) -> list[float]:
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = _finite_float(lo_s), _finite_float(hi_s), int(steps_s)
    except Exception as exc:
        raise ValueError("grid must look like lo:hi:steps with finite bounds, "
                         f"got {text!r}") from exc
    if steps < 1:
        raise ValueError("grid needs at least one step")
    return _grid(lo, hi, steps)


def _cmd_density(args) -> int:
    spec = _load_spec(args.spec)
    aspec = ApproximantSpec(spec, args.q, args.N)
    rows = []
    ok = 0
    for x in _parse_grid(args.grid):
        try:
            f = ac_density(aspec, x, args.s)
            rows.append([x, f, args.N, args.q, "ok"])
            ok += 1
        except OutsideBandError:
            rows.append([x, None, args.N, args.q, "outside"])
        except (DegenerateBlockError, PoleOfMError, HorizonError) as exc:
            rows.append([x, None, args.N, args.q, f"error:{type(exc).__name__}"])
    _emit_table(args, ["x", "f", "N", "q", "status"], rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# diagnose

def _cmd_diagnose(args) -> int:
    spec = _load_spec(args.spec)
    if not args.x:
        raise ValueError("at least one --x is required")
    results = []
    for x in args.x:
        if spec.kind == "staircase_comb" and abs(x) > 5.0:
            sys.stderr.write(
                f"warning: x={x} lies outside the crude spectral bound [-5, 5] "
                "for this sequence; computing anyway\n")
        gs = growth_statistic(spec, x, args.N)
        results.append({
            "x": x,
            "n": gs.n,
            "statistic": [[n, _linear(v)] for n, v in gs.trace],
            "statistic_log": [[n, _finite(v)] for n, v in gs.trace],
            "running_max": _linear(gs.log_running_max),
            "running_max_log": _finite(gs.log_running_max),
        })
    doc: dict = {"N": args.N, "results": results}
    if args.verify_gap:
        if args.period is None:
            raise ValueError("--verify-gap requires --period")
        report = verify_gap_window_growth(spec, args.period, *_window(args.verify_gap))
        doc["verify_gap"] = {
            "m": report.m, "k": report.k, "E": report.E, "delta": report.delta,
            "checked": len(report.l_values),
            "violations": list(report.violations),
            "passed": report.passed,
        }
    _emit(_json(doc), args.out)
    return 0


def _window(text: str) -> tuple[int, int, float, float]:
    """--verify-gap's m,k,E,delta: integers m and k, finite E and delta."""
    usage = f"--verify-gap takes m,k,E,delta with integers m and k, got {text!r}"
    fields = text.split(",")
    if len(fields) != 4:
        raise ValueError(usage)
    try:
        m, k = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(usage) from None
    return (as_int(m, "--verify-gap m", 1), as_int(k, "--verify-gap k", 1),
            _finite_float(fields[2]), _finite_float(fields[3]))


def _linear(log_value: float) -> float | None:
    """exp(log_value), or None where it leaves float range (JSON has no Infinity)."""
    return _finite(_exp_saturating(log_value))


def _finite(value: float) -> float | None:
    """value, or None where it is not finite (JSON has no Infinity)."""
    return value if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    if args.random is not None:
        return _verify_random(args)
    if not args.spec:
        raise ValueError("either --random or --spec with window flags is required")
    if None in (args.period, args.m, args.k, args.E, args.delta):
        raise ValueError("explicit verification needs --period, --m, --k, "
                         "--E and --delta")
    spec = _load_spec(args.spec)
    report = verify_gap_window_growth(spec, args.period, args.m, args.k,
                                      args.E, args.delta)
    # JSON writes a norm or bound past float range as null, CSV as inf
    keep = float if args.format == "csv" else _finite
    rows = [[l, keep(norm), keep(bound),
             "pass" if l not in report.violations else "fail"]
            for l, norm, bound in zip(report.l_values, report.norms, report.bounds)]
    _emit_table(args, ["l", "norm", "bound", "status"], rows, m=report.m, k=report.k,
                E=report.E, delta=report.delta, passed=report.passed)
    return 0 if report.passed else 1


def _verify_random(args) -> int:
    import numpy as np

    if args.random < 1:
        raise ValueError(f"--random needs at least one window, got {args.random}")
    rng = np.random.default_rng(_CONFIG["seed"][1](args.seed, "--seed"))
    # a case draws q, w, the index of one of the comb's q - 1 gaps, a double u,
    # m and k, in this order: with every gap open, the draws of a gap_report
    # per case, whose rng.uniform(lo, hi) is lo + (hi - lo) u
    cases = []
    for _ in range(args.random):
        q = int(rng.integers(2, 5))
        w, gap, u = float(rng.uniform(0.1, 1.0)), int(rng.integers(0, q - 1)), rng.random()
        m = int(rng.integers(1, 20))
        cases.append((comb_potential(q, w), w, gap, u, m, m + int(rng.integers(8, 40))))
    edges = {}   # the cases' band edges, by case: one eigenvalue solve per period
    for q in {P.q for P, *_ in cases}:
        at = [i for i, (P, *_) in enumerate(cases) if P.q == q]
        edges.update(zip(at, _band_edges([cases[i][0] for i in at]).tolist()))
    draws, windows = [], []
    for case, (P, w, gap, u, m, k) in enumerate(cases):
        row = edges[case]
        if any(b - a < 1e-10 for a, b in zip(row[1:-1:2], row[2::2])):
            raise RuntimeError(f"comb block with coupling {w} reported a closed gap")
        lo, hi = row[2 * gap + 1], row[2 * gap + 2]
        delta = 0.25 * (hi - lo)
        lo, hi = lo + delta, hi - delta
        e = lo + (hi - lo) * u
        draws.append([case, P.q, w, m, k, e, delta])
        # [m, k] of P's sequence, read as a periodic spec reads it; P has the window's bands
        r = (np.arange(m, k + 1) - 1) % P.q
        windows.append(_Window(P.q, m, k, e, delta, np.ones(len(r)), np.asarray(P.b)[r], P))
    reports = _window_reports(windows)
    rows = [draw + [len(r.l_values), len(r.violations), "pass" if r.passed else "fail"]
            for draw, r in zip(draws, reports)]
    _emit_table(args, ["case", "q", "w", "m", "k", "E", "delta", "checked",
                       "violations", "status"], rows)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# intersect

def _cmd_intersect(args) -> int:
    if args.family:
        with open(args.family) as fh:
            docs = json.load(fh)
        if not isinstance(docs, list):
            raise ValueError("--family must hold a JSON list of {q, a, b} blocks")
        family = [PeriodicJacobi.from_dict(d) for d in docs]
    else:
        if args.q is None or args.lam is None:
            raise ValueError("either --family or --q/--lambda are required")
        family = [PeriodicJacobi.of(args.q, [1.0] * args.q, [beta] * args.q)
                  for beta in _grid(-args.lam, args.lam, args.points)]
    result = intersection_over_family(family, args.mode, args.tol)
    doc = {
        "mode": args.mode,
        "members": len(family),
        "pairs": [list(p) for p in result.as_pairs()],
        "intervals": [{"lo": iv.lo, "hi": iv.hi, "closed_lo": iv.closed_lo,
                       "closed_hi": iv.closed_hi} for iv in result.intervals],
    }
    _emit(_json(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: the tunable flags default to None, which `main`
    fills in from the effective config."""
    parser = argparse.ArgumentParser(
        prog="jbv",
        description="Band structures, spectral densities and transfer-matrix "
                    "growth diagnostics for Jacobi matrices with step-q "
                    "bounded-variation coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="band structure of a periodic block")
    p.add_argument("--q", type=int)
    p.add_argument("--a", help="comma separated off-diagonal block")
    p.add_argument("--b", help="comma separated diagonal block")
    p.add_argument("--file", help="JSON file with {q, a, b}")
    p.add_argument("--tol", type=float)
    p.add_argument("--out")

    p = sub.add_parser("construct", help="write counterexample coefficient specs")
    csub = p.add_subparsers(dest="construction", required=True)
    p15 = csub.add_parser("thm15", help="staircase + comb sequence")
    p15.add_argument("--q", type=int, required=True)
    p15.add_argument("--lambda", dest="lam", type=float, required=True)
    p15.add_argument("--levels", type=int, required=True)
    p15.add_argument("--cap", type=int)
    p15.add_argument("--mode", choices=_MODES)
    p15.add_argument("--margin", type=float)
    p15.add_argument("--out", required=True)
    p15.add_argument("--schedule-out")
    p16 = csub.add_parser("thm16", help="slow cosine sequence")
    p16.add_argument("--lambda", dest="lam", type=float, required=True)
    p16.add_argument("--gamma", type=float, required=True)
    p16.add_argument("--out")

    p = sub.add_parser("density", help="a.c. density of an approximant on a grid")
    p.add_argument("--spec", required=True, help="base coefficient spec (JSON)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:steps")
    p.add_argument("--s", type=int, choices=(-1, 1), default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")

    p = sub.add_parser("diagnose", help="transfer-matrix growth statistics")
    p.add_argument("--spec", required=True)
    p.add_argument("--x", type=_finite_float, action="append")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--verify-gap", help="m,k,E,delta window check")
    p.add_argument("--period", type=int, help="period for --verify-gap")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="gap-window growth certification (CSV)")
    p.add_argument("--spec")
    p.add_argument("--period", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--E", type=_finite_float)
    p.add_argument("--delta", type=_finite_float)
    p.add_argument("--random", type=int,
                   help="run this many randomized admissible windows")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")

    p = sub.add_parser("intersect",
                       help="intersection of spectra or q-interiors over a family")
    p.add_argument("--family", help="JSON list of {q, a, b}")
    p.add_argument("--q", type=int)
    p.add_argument("--lambda", dest="lam", type=_finite_float,
                   help="half-width of the constant-shift family")
    p.add_argument("--points", type=int)
    p.add_argument("--mode", choices=("spectrum", "qinterior"), default="spectrum")
    p.add_argument("--tol", type=float)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    try:
        config = _load_config()
    except (OSError, ValueError, TypeError) as exc:
        sys.stderr.write(f"error reading JBV_CONFIG: {exc}\n")
        return 2
    args = _build_parser().parse_args(argv)
    for key, value in config.items():
        if getattr(args, key, value) is None:
            setattr(args, key, value)
    try:
        # looked up on every call: the cached parser holds no handler
        return globals()[f"_cmd_{args.command}"](args)
    except (ValueError, argparse.ArgumentTypeError, PreconditionError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RootIsolationError, ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
