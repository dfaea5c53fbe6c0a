"""Growth statistics, gap-window norm bounds and truncation oracles.

These are the certification tools: exponential transfer-matrix growth at an
energy (statistic above any level) rules out a.c. spectrum there, while a
bounded statistic is evidence, not proof, of its presence.  Checks at finitely
many energies can never certify an almost-everywhere statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSpec, as_int, as_real, coefficient_arrays
from .errors import PreconditionError
# band_structure stays bound here: perfbench/tracing.py wraps this name
from .periodic import PeriodicJacobi, _band_edges, band_structure  # noqa: F401
# transfer_product stays bound here: perfbench/tracing.py wraps this name
from .transfer import (CHUNK, GrowthScanner, log_norm2,  # noqa: F401
                       transfer_product, transfer_scan)

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
    trace_points = as_int(trace_points, "trace_points")
    checkpoints = sorted(set(
        int(round(N ** (i / max(trace_points - 1, 1)))) for i in range(trace_points)
    ) | {N})
    checkpoints = [c for c in checkpoints if c >= 2]
    scanner = GrowthScanner(x)
    trace: list[tuple[int, float]] = []
    for lo in range(1, N + 1, CHUNK):
        a, b = coefficient_arrays(spec, lo, min(lo + CHUNK, N + 1))
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
    inf past float range."""
    if not delta > 0:
        raise ValueError("gap radius must be positive")
    if l < 4:
        raise ValueError("bound is stated for l >= 4")
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
    q, E = as_int(q, "period", 1), as_real(E, "energy E")
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
    comparison = PeriodicJacobi.of(q, [1.0] * q, block_b)
    edges = _band_edges([comparison])[0].tolist()
    for lo, hi in zip(edges[0::2], edges[1::2]):   # the q bands
        if lo < E + delta and hi > E - delta:
            raise PreconditionError(f"spectrum-avoidance: band [{lo}, {hi}] meets "
                                    f"({E - delta}, {E + delta})")
    # one prefix scan over the window: entry l is log ||T_{m, m+l}(E)||
    log_norms = np.concatenate([0.5 * log_norm2(scan.prefix_t, scan.prefix_e)
                                for scan in transfer_scan(a, b, E, prefixes=True)])
    with np.errstate(over="ignore"):
        norms = np.exp(log_norms[4:]).tolist()
    l_values = list(range(4, k - m + 1))
    bounds = [gap_growth_lower_bound(delta, l) for l in l_values]
    # decided in log space, where neither side leaves float range
    log_bounds = (math.log(0.5 * delta * delta) + math.log1p(-1e-12)
                  + 0.5 * (np.arange(4, k - m + 1) - 3) * math.log1p(delta * delta))
    violations = [l for l, low in zip(l_values, log_norms[4:] < log_bounds) if low]
    return GapWindowReport(m, k, E, delta, tuple(l_values), tuple(norms),
                           tuple(bounds), tuple(violations))


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
