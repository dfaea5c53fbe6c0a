"""Growth statistics, gap-window norm bounds and truncation oracles.

These are the certification tools: exponential transfer-matrix growth at an
energy (statistic above any level) rules out a.c. spectrum there, while a
bounded statistic is evidence, not proof, of its presence.  Checks at finitely
many energies can never certify an almost-everywhere statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import transfer
from .coeffs import CoefficientSpec, as_int, as_real, coefficient_arrays
from .errors import PreconditionError
# band_structure and transfer_product stay bound here: perfbench/tracing.py wraps them
from .periodic import PeriodicJacobi, _band_edges, band_structure  # noqa: F401
from .transfer import GrowthScanner, log_norm2, transfer_product, transfer_scan  # noqa: F401

__all__ = [
    "GrowthStatistic", "growth_statistic", "gap_growth_lower_bound",
    "GapWindowReport", "verify_gap_window_growth", "AcIntervalEstimate",
    "ac_interval_estimate", "sturm_count",
]


@dataclass(frozen=True)
class GrowthStatistic:
    """Prefix-normalized transfer growth at one energy.

    value = (1 / (N log^2 N)) sum_{n<=N} ||T_{1,n}(x)||^2, running_max its
    maximum over prefixes 2 <= n <= N.  Logs are natural; linear fields
    saturate at inf when the log value exceeds float range.
    """

    x: float
    n: int
    value: float
    log_value: float
    running_max: float
    log_running_max: float
    trace: tuple[tuple[int, float], ...]  # sampled (n, log statistic) pairs


def growth_statistic(spec: CoefficientSpec, x: float, N: int,
                     trace_points: int = 32) -> GrowthStatistic:
    """Scan T_{1,n}(x) up to n = N with scaled products; never overflows."""
    N, x = as_int(N, "N", 2), as_real(x, "energy x")
    trace_points = as_int(trace_points, "trace_points", 1)
    checkpoints = sorted(set(
        int(round(N ** (i / max(trace_points - 1, 1)))) for i in range(trace_points)
    ) | {N})
    checkpoints = [c for c in checkpoints if c >= 2]
    scanner = GrowthScanner(x)
    trace: list[tuple[int, float]] = []
    for lo in range(1, N + 1, transfer.CHUNK):   # a kernel call each
        a, b = coefficient_arrays(spec, lo, min(lo + transfer.CHUNK, N + 1))
        stats = scanner.feed_arrays(a, b)
        trace += [(cp, float(stats[cp - lo])) for cp in checkpoints
                  if lo <= cp < lo + len(a)]
    return GrowthStatistic(
        x=x, n=N,
        value=scanner.statistic, log_value=scanner.statistic_log,
        running_max=scanner.running_max, log_running_max=scanner.running_max_log,
        trace=tuple(trace),
    )


def gap_growth_lower_bound(delta: float, l: int) -> float:
    """(1/2) delta^2 (1 + delta^2)^{(l-3)/2}: guaranteed norm growth after l
    steps across a window whose local spectrum misses (E-delta, E+delta);
    inf past float range.  Needs delta > 0 and l >= 4."""
    if not as_real(delta, "gap radius") > 0:
        raise ValueError(f"gap radius must be positive, got {delta}")
    return _gap_bound(float(delta), as_int(l, "window length l", 4))


def _gap_bound(delta: float, l: int) -> float:
    """`gap_growth_lower_bound` with its arguments checked by the caller."""
    try:
        return 0.5 * delta * delta * (1.0 + delta * delta) ** (0.5 * (l - 3))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class GapWindowReport:
    """Comparison of actual window norms against the guaranteed lower bound."""

    m: int
    k: int
    E: float
    delta: float
    l_values: tuple[int, ...]
    norms: tuple[float, ...]
    bounds: tuple[float, ...]
    violations: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_gap_window_growth(spec: CoefficientSpec, q: int, m: int, k: int,
                             E: float, delta: float) -> GapWindowReport:
    """Check the norm lower bound on a window where the sequence is periodic.

    Preconditions (each failure names the offending check): the window [m, k]
    of spec must be a discrete Schroedinger piece (a = 1), it must tile the
    q-periodic comparison block built from its first q entries, and that
    block's spectrum (its bands between consecutive eigenvalue edges, see
    `periodic._band_edges`) must avoid (E - delta, E + delta).  Then for every
    l in {4, ..., k - m} the norm ||T_{m, m+l}(E)|| must reach the bound.
    """
    return _window_reports([(spec, q, m, k, E, delta)])[0]


class _Window(NamedTuple):
    """A window whose own preconditions hold, with its coefficients and its
    comparison block."""

    q: int
    m: int
    k: int
    E: float
    delta: float
    a: np.ndarray
    b: np.ndarray
    block: PeriodicJacobi


def _window(spec: CoefficientSpec, q: int, m: int, k: int, E: float,
            delta: float) -> _Window:
    """One window's own preconditions, up to its comparison block."""
    q, E, delta = as_int(q, "period", 1), as_real(E, "energy E"), as_real(delta, "gap radius")
    m, k = as_int(m, "window start m", 1), as_int(k, "window end k")
    if k - m < 4:
        raise PreconditionError("window-length: need k - m >= 4")
    a, b = coefficient_arrays(spec, m, k + 1)
    if np.max(np.abs(a - 1.0)) > 1e-12:
        raise PreconditionError("schroedinger-window: a is not identically 1")
    if k - m + 1 < q:
        raise PreconditionError("window-length: shorter than one period")
    block_b = b[:q]
    tiled = np.take(block_b, np.arange(k - m + 1) % q)
    if np.max(np.abs(b - tiled)) > 1e-12:
        raise PreconditionError("window-periodicity: window does not tile its "
                                "leading q entries")
    if not delta > 0:
        raise ValueError(f"gap radius must be positive, got {delta}")
    return _Window(q, m, k, E, delta, a, b, PeriodicJacobi.of(q, [1.0] * q, block_b))


def _window_reports(windows: list[tuple]) -> list[GapWindowReport]:
    """`verify_gap_window_growth` on each window (spec, q, m, k, E, delta),
    as if on one after the other: the first window that fails raises its
    error.  The comparison blocks' edges come from one `_band_edges` call per
    period q.  The norms come from prefix `transfer_scan` calls with a lane
    per window, on groups of consecutive windows of at most `transfer.CHUNK`
    padded lane-steps, the kernel's own: a group is one kernel call, so each
    window's products are bit for bit those of a call on it alone.  The runs
    are padded past a window's end with a = 1, b = 0, which no prefix of the
    window reads."""
    runs, failure = [], None
    for window in windows:
        try:
            runs.append(_window(*window))
        except (ArithmeticError, TypeError, ValueError) as exc:
            failure = exc   # raised once the windows before it are checked
            break
    edges = [None] * len(runs)
    for q in {run.q for run in runs}:
        group = [i for i, run in enumerate(runs) if run.q == q]
        for i, row in zip(group, _band_edges([runs[i].block for i in group]).tolist()):
            edges[i] = row
    bounds = []
    for row, run in zip(edges, runs):
        E, delta = run.E, run.delta
        for lo, hi in zip(row[0::2], row[1::2]):   # the q bands
            if lo < E + delta and hi > E - delta:
                raise PreconditionError(f"spectrum-avoidance: band [{lo}, {hi}] meets "
                                        f"({E - delta}, {E + delta})")
        bounds.append([_gap_bound(delta, l) for l in range(4, run.k - run.m + 1)])
    if failure is not None:
        raise failure
    if not runs:
        return []
    reports, lo, longest = [], 0, 0
    for hi, run in enumerate(runs):
        longest = max(longest, len(run.b))
        if longest * (hi + 1 - lo) > transfer.CHUNK and hi > lo:   # hi starts a group
            reports += _group_reports(runs[lo:hi], bounds[lo:hi])
            lo, longest = hi, len(run.b)
    return reports + _group_reports(runs[lo:], bounds[lo:])


def _group_reports(runs: list[_Window], bounds: list[list[float]]) -> list[GapWindowReport]:
    """The reports of windows whose preconditions hold, from one prefix
    scan: entry (l, i) of its log-norms is log ||T_{m, m+l}(E)|| of window i."""
    a = np.ones((max(len(run.b) for run in runs), len(runs)))
    b, z = np.zeros(a.shape), np.array([run.E for run in runs])
    for i, run in enumerate(runs):
        a[:len(run.a), i], b[:len(run.b), i] = run.a, run.b
    log_norms = np.concatenate([
        0.5 * log_norm2(scan.prefix_t, scan.prefix_e)
        for scan in transfer_scan(a, b, z, prefixes=True)]).reshape(len(a), -1)
    with np.errstate(over="ignore"):
        norms = np.exp(log_norms)
    reports = []
    for i, (run, bound) in enumerate(zip(runs, bounds)):
        n, delta = len(run.b), run.delta   # steps l = 0 .. k - m
        # decided in log space, where neither side leaves float range
        log_bounds = (math.log(0.5 * delta * delta) + math.log1p(-1e-12)
                      + 0.5 * (np.arange(4, n) - 3) * math.log1p(delta * delta))
        low = np.flatnonzero(log_norms[4:n, i] < log_bounds) + 4
        reports.append(GapWindowReport(
            run.m, run.k, run.E, delta, tuple(range(4, n)), tuple(norms[4:n, i].tolist()),
            tuple(bound), tuple(low.tolist())))
    return reports


@dataclass(frozen=True)
class AcIntervalEstimate:
    """Windowed estimate of [limsup (b - 2a), liminf (b + 2a)].

    For step-1 bounded-variation coefficients this bracket is the essential
    support of the a.c. spectrum; `empty` means the estimate crossed over and
    no a.c. spectrum is indicated.
    """

    lo: float
    hi: float
    empty: bool
    lower_trace: tuple[float, ...]   # per-window max of b - 2a
    upper_trace: tuple[float, ...]   # per-window min of b + 2a
    stabilized: bool
    window_length: int

    def as_pair(self) -> tuple[float, float] | None:
        return None if self.empty else (self.lo, self.hi)


def ac_interval_estimate(spec: CoefficientSpec, horizon: int) -> AcIntervalEstimate:
    """Estimate the asymptotic bracket over tail windows of length horizon/8.

    The traces let a caller judge convergence; `stabilized` compares the last
    four windows against the final one at threshold 1e-3.
    """
    horizon = as_int(horizon, "horizon", 16)  # eight tail windows of two or more
    wlen = horizon // 8
    lower_trace, upper_trace = [], []
    for i in range(8):
        start = i * wlen + 1
        stop = horizon + 1 if i == 7 else (i + 1) * wlen + 1
        a, b = coefficient_arrays(spec, start, stop)
        lower_trace.append(float(np.max(b - 2.0 * a)))
        upper_trace.append(float(np.min(b + 2.0 * a)))
    lo, hi = lower_trace[-1], upper_trace[-1]
    stabilized = (max(abs(v - lo) for v in lower_trace[-4:]) <= 1e-3 and
                  max(abs(v - hi) for v in upper_trace[-4:]) <= 1e-3)
    return AcIntervalEstimate(lo, hi, empty=lo > hi,
                              lower_trace=tuple(lower_trace),
                              upper_trace=tuple(upper_trace),
                              stabilized=stabilized, window_length=wlen)


def sturm_count(spec, size: int, x: float) -> int:
    """Eigenvalues below x of the leading size-by-size truncation.

    Counts negative pivots of the shifted tridiagonal leading-minor
    recurrence, with the standard tiny-pivot perturbation so the recurrence
    never divides by zero.  Accepts a coefficient spec or an approximant.
    """
    size, x = as_int(size, "truncation size", 1), as_real(x, "energy x")
    cspec = spec.as_spec() if hasattr(spec, "as_spec") else spec
    a, b = coefficient_arrays(cspec, 1, size + 1)
    a = a.tolist()
    b = b.tolist()
    amax = max(a[:-1], default=1.0) if size > 1 else 1.0
    pivmin = 1e-300 * max(1.0, amax * amax)
    count = 0
    for i in range(size):
        d = (b[i] - x) - (a[i - 1] * a[i - 1] / d if i else 0.0)
        if abs(d) <= pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
    return count
