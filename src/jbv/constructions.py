"""Generators for the two counterexample coefficient sequences.

Both sequences keep a_n = 1 and have step-q square-summable variation while
their diagonals sweep the whole window [-lam, lam] of constant right limits.

* `slow_cosine_spec`: b_n = lam * cos(n^gamma), gamma in (0, 1/2).  Slowly
  oscillating; carries a.c. spectrum on the full intersection of the right
  limits' spectra.

* `staircase_comb_spec`: b_n = staircase + comb.  A piecewise-constant
  staircase sweeps between -lam and lam in steps of 2 lam / m_l while a
  single-bump q-periodic comb with coupling w_l keeps every spectral gap open.
  Holding each staircase step long enough forces transfer-matrix growth at
  every energy the moving gaps cover, killing the a.c. spectrum there.  The
  step lengths n_{l,k+1} are chosen by a growth search; see `build_schedule`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import (CoefficientSpec, coefficient_arrays, staircase_level_value,
                     staircase_tables)
from .periodic import comb_potential, gap_report
from .transfer import SCAN_MIN, GrowthScanner, log_norm2, transfer_scan

__all__ = [
    "Schedule", "build_schedule", "slow_cosine_spec", "staircase_comb_spec",
    "staircase_level_value", "bv_energy", "staircase_bv_breakdown",
]


def slow_cosine_spec(lam: float, gamma: float) -> CoefficientSpec:
    """a = 1, b_n = lam cos(n^gamma) with lam in (0, 2), gamma in (0, 1/2)."""
    if not (0.0 < lam < 2.0):
        raise ValueError(f"coupling must lie in (0, 2), got {lam}")
    if not (0.0 < gamma < 0.5):
        raise ValueError(f"exponent must lie in (0, 1/2), got {gamma}")
    return CoefficientSpec("cosine_power", {"lam": float(lam), "gamma": float(gamma)})


@dataclass(frozen=True)
class Schedule:
    """Breakpoint tables of the staircase + comb construction.

    Level l (1-based) spans (L_l, L_{l+1}] with comb coupling w_l = 2^{-l},
    minimum gap width delta_l, gap centers z_{l,j}, and m_l staircase steps
    whose breakpoints are rows[l-1] = [n_{l,0}, ..., n_{l,m_l}].  A schedule
    may be truncated by the length cap, in which case the last row is partial.
    """

    q: int
    lam: float
    levels: int
    w: tuple[float, ...]
    delta: tuple[float, ...]
    centers: tuple[tuple[float, ...], ...]
    m: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    mode: str
    margin: float
    cap: int
    truncated: bool

    @property
    def L(self) -> tuple[int, ...]:
        """Level boundaries [L_1, L_2, ...]; L_{l+1} only for completed levels."""
        bounds = [0]
        for li, row in enumerate(self.rows):
            if len(row) == self.m[li] + 1:
                bounds.append(row[-1])
        return tuple(bounds)

    @property
    def horizon(self) -> int:
        return self.rows[-1][-1]

    def validate(self) -> None:
        if self.q < 2:
            raise ValueError("period must be >= 2")
        if not (0.0 < self.lam < 2.0):
            raise ValueError("coupling must lie in (0, 2)")
        if not self.w or self.w[0] > 1.0:
            raise ValueError("first comb coupling must be <= 1")
        if any(nxt >= cur for cur, nxt in zip(self.w, self.w[1:])):
            raise ValueError("comb couplings must decrease strictly")
        for li, (m_l, d_l) in enumerate(zip(self.m, self.delta)):
            level = li + 1
            if m_l < 2 ** level:
                raise ValueError(f"level {level}: m={m_l} below 2^{level}")
            if m_l < 4.0 / d_l - 1e-6:
                raise ValueError(f"level {level}: m={m_l} below 4/delta={4.0 / d_l}")
        prev_end = 0
        for li, row in enumerate(self.rows):
            if row[0] != prev_end:
                raise ValueError(f"level {li + 1} does not start at {prev_end}")
            if any(n1 >= n2 for n1, n2 in zip(row, row[1:])):
                raise ValueError(f"level {li + 1} breakpoints not increasing")
            if not self.truncated and len(row) != self.m[li] + 1:
                raise ValueError(f"level {li + 1} has {len(row) - 1} windows, "
                                 f"expected {self.m[li]}")
            prev_end = row[-1]

    def to_dict(self) -> dict:
        return {
            "q": self.q, "lam": self.lam, "levels": self.levels,
            "w": list(self.w), "delta": list(self.delta),
            "centers": [list(c) for c in self.centers],
            "m": list(self.m), "rows": [list(r) for r in self.rows],
            "mode": self.mode, "margin": self.margin, "cap": self.cap,
            "truncated": self.truncated,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(doc: dict) -> "Schedule":
        return Schedule(
            q=int(doc["q"]), lam=float(doc["lam"]), levels=int(doc["levels"]),
            w=tuple(doc["w"]), delta=tuple(doc["delta"]),
            centers=tuple(tuple(c) for c in doc["centers"]),
            m=tuple(int(x) for x in doc["m"]),
            rows=tuple(tuple(int(x) for x in r) for r in doc["rows"]),
            mode=doc["mode"], margin=float(doc["margin"]), cap=int(doc["cap"]),
            truncated=bool(doc["truncated"]),
        )


def staircase_comb_spec(schedule: Schedule) -> CoefficientSpec:
    """Coefficient rule b_n = staircase(n) + w_l * [q divides n] over the
    realized horizon; indices beyond it raise a horizon error."""
    schedule.validate()
    return CoefficientSpec(
        "staircase_comb",
        {"lam": schedule.lam, "q": schedule.q, "schedule": schedule.to_dict()},
        length_hint=schedule.horizon,
    )


def _threshold_log(level: int, margin: float, n: int) -> float:
    ln_n = math.log(n)
    return math.log(margin * level) + ln_n + 2.0 * math.log(ln_n)


def build_schedule(q: int, lam: float, levels: int, growth_margin: float = 1.0,
                   cap: int = 10 ** 6, mode: str = "empirical") -> Schedule:
    """Choose all breakpoints of the staircase + comb construction.

    Per level l: w_l = 2^{-l}; delta_l and the gap centers come from the comb
    block with coupling w_l; m_l = max(2^l, ceil(4/delta_l)).  Within level l,
    each step end n_{l,k+1} is the smallest index at which a growth functional
    exceeds growth_margin * l * n * log^2 n:

    * "analytic" mode uses the closed-form lower bound
      10^{-2 n_{l,k}} * sum_j (1/4)(delta/4)^4 (1+(delta/4)^2)^{j - n_{l,k} - 4}
      whose 10^{-2n} prefactor makes step lengths blow up geometrically; the
      cap then truncates the schedule, which is reported, not an error.

    * "empirical" mode scans actual transfer products of the sequence built so
      far at the level's shifted gap-center energies, which yields desk-scale
      schedules with the same certified growth.
    """
    if q < 2:
        raise ValueError("period must be >= 2")
    if not (0.0 < lam < 2.0):
        raise ValueError(f"coupling must lie in (0, 2), got {lam}")
    if levels < 1:
        raise ValueError("need at least one level")
    if growth_margin < 1.0:
        raise ValueError("growth margin must be >= 1")
    if cap < 16:
        raise ValueError("cap too small to hold any window")
    if mode not in ("empirical", "analytic"):
        raise ValueError(f"mode must be 'empirical' or 'analytic', got {mode!r}")

    w_list: list[float] = []
    delta_list: list[float] = []
    centers_list: list[tuple[float, ...]] = []
    m_list: list[int] = []
    for level in range(1, levels + 1):
        w_l = 2.0 ** (-level)
        rep = gap_report(comb_potential(q, w_l), tol=1e-10)
        if not rep.all_open or rep.min_width <= 0.0:
            raise RuntimeError(f"comb block with coupling {w_l} reported a closed gap")
        w_list.append(w_l)
        delta_list.append(rep.min_width)
        centers_list.append(rep.centers)
        # delta is a bisected width known to ~1e-10, so back off by a relative
        # hair before ceil: an exactly integral 4/delta must not round up
        m_list.append(max(2 ** level, math.ceil(4.0 / rep.min_width - 1e-6)))

    if mode == "empirical":
        # every search energy is known now: one lane per step and gap center,
        # in the order the search reaches them
        lanes = _Lanes(np.array([
            z + staircase_level_value(level, k, m_l, lam)
            for level, (m_l, centers) in enumerate(zip(m_list, centers_list), 1)
            for k in range(m_l) for z in centers]))
    rows: list[tuple[int, ...]] = []
    truncated = False
    end = 0
    for level in range(1, levels + 1):
        li = level - 1
        row = [end]
        for k in range(m_list[li]):
            if truncated:
                break
            v = staircase_level_value(level, k, m_list[li], lam)
            n0 = row[-1]
            if mode == "empirical":
                n_next = _empirical_step(q, level, v, w_list[li], lanes,
                                         len(centers_list[li]), n0,
                                         growth_margin, cap)
            else:
                n_next = _analytic_step(level, delta_list[li], n0,
                                        growth_margin, cap)
            if n_next is None:
                truncated = True
                n_next = cap
            if n_next > row[-1]:
                row.append(n_next)
        rows.append(tuple(row))
        end = row[-1]
        if truncated:
            break

    sched = Schedule(q=q, lam=lam, levels=levels, w=tuple(w_list),
                     delta=tuple(delta_list), centers=tuple(centers_list),
                     m=tuple(m_list), rows=tuple(rows), mode=mode,
                     margin=growth_margin, cap=cap, truncated=truncated)
    sched.validate()
    return sched


class _Lanes:
    """T_{1,n}(x) = t * 2**e and log sum_{n' <= n} ||T_{1,n'}(x)||^2 at many
    energies x, all at the same n; each coefficient run is multiplied onto
    every lane in one `transfer_scan`, so no energy's prefix is scanned
    twice."""

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        self.t = np.broadcast_to(np.eye(2)[..., None], (2, 2, len(x)))
        self.e = np.zeros(len(x), np.int64)
        self.log_sum = np.full(len(x), -np.inf)
        self.n = 0

    def take(self, count: int) -> list[GrowthScanner]:
        """GrowthScanners resumed from the first `count` lanes, which leave."""
        scanners = []
        for i in range(count):
            sc = GrowthScanner(float(self.x[i]))
            (sc.t11, sc.t12), (sc.t21, sc.t22) = self.t[..., i].tolist()
            sc.n, sc.log_scale = self.n, int(self.e[i]) * math.log(2.0)
            sc.log_sum = float(self.log_sum[i])
            scanners.append(sc)
        self.x, self.t, self.e, self.log_sum = (
            v[..., count:] for v in (self.x, self.t, self.e, self.log_sum))
        return scanners

    def feed(self, b: list[float]) -> None:
        """Multiply the run b_{n+1}, ..., b_{n+len(b)} (with a = 1) onto every
        lane."""
        if len(self.x):
            for scan in transfer_scan(np.ones(len(b)), np.array(b), self.x,
                                      self.t, prefixes=True):
                terms = log_norm2(scan.prefix_t, scan.prefix_e + self.e)
                top = terms.max(axis=0)
                run = top + np.log(np.exp(terms - top).sum(axis=0))
                self.log_sum = np.logaddexp(self.log_sum, run)
            self.t, self.e = scan.t, self.e + scan.e
        self.n += len(b)


def _empirical_step(q: int, level: int, v: float, w_l: float, lanes: _Lanes,
                    count: int, n0: int, growth_margin: float,
                    cap: int) -> int | None:
    """Extend one staircase step until the prefix-sum statistic of the actual
    transfer products clears level * n log^2 n at every shifted gap center.

    The step's `count` energies leave `lanes` as scanners at n0 and read
    ahead in runs; the window found is then multiplied onto the lanes of the
    steps still to come."""
    scanners = lanes.take(count)
    window: list[float] = []
    while n0 + len(window) < cap:
        lo = n0 + len(window) + 1
        # read ahead as far as the window has come, at least the shortest
        # window, and below SCAN_MIN, so that the run takes the per-step
        # loop that `feed` takes
        ahead = min(max(len(window), 5), SCAN_MIN - 1)
        run = [v + (w_l if n % q == 0 else 0.0)
               for n in range(lo, min(lo + ahead, cap + 1))]
        stats = [sc.feed_arrays([1.0] * len(run), run) for sc in scanners]
        for i, n in enumerate(range(lo, lo + len(run))):
            if n < n0 + 5:
                continue
            thr = _threshold_log(level, growth_margin, n)
            if all(s[i] >= thr for s in stats):
                window += run[:i + 1]
                lanes.feed(window)
                return n
        window += run
    return None


def _analytic_step(level: int, delta: float, n0: int,
                   growth_margin: float, cap: int) -> int | None:
    """Smallest n for which the closed-form growth bound clears
    level * n log^2 n."""
    d4 = delta / 4.0
    log_r = math.log1p(d4 * d4)
    log_pref = -2.0 * n0 * math.log(10.0) + math.log(0.25) + 4.0 * math.log(d4)
    log_geo = -math.inf
    n = n0 + 4
    while True:
        n += 1
        if n > cap:
            return None
        term = (n - n0 - 4) * log_r
        if log_geo == -math.inf:
            log_geo = term
        else:
            log_geo = term + math.log1p(math.exp(log_geo - term))
        if log_pref + log_geo >= _threshold_log(level, growth_margin, n):
            return n


def bv_energy(spec: CoefficientSpec, q: int, horizon: int) -> tuple[float, float]:
    """Partial sums sum |a_{n+q} - a_n|^2 and sum |b_{n+q} - b_n|^2 over
    n <= horizon - q."""
    if horizon < q + 1:
        raise ValueError("horizon must be at least q + 1")
    a, b = coefficient_arrays(spec, 1, horizon + 1)
    da = a[q:] - a[:-q]
    db = b[q:] - b[:-q]
    return float(np.dot(da, da)), float(np.dot(db, db))


def staircase_bv_breakdown(spec: CoefficientSpec, horizon: int | None = None) -> dict:
    """Split the staircase + comb diagonal variation into its two parts and
    report each against its closed-form bound over the realized levels.

    comb part:      sum_n |W_{n+q} - W_n|^2   <= q * sum_l |w_{l+1} - w_l|^2
    staircase part: sum_n |s_{n+1} - s_n|^2   <= 4 lam^2 * sum_l 1/m_l
    """
    if spec.kind != "staircase_comb":
        raise ValueError("breakdown applies to staircase_comb specs")
    sched = Schedule.from_dict(spec.params["schedule"])
    q, lam = sched.q, sched.lam
    horizon = sched.horizon if horizon is None else min(horizon, sched.horizon)
    rights, stair, wcomb = staircase_tables(spec.params["schedule"], lam)
    n = np.arange(1, horizon + 1)
    idx = np.searchsorted(rights, n, side="left")
    s_vals = stair[idx]
    w_vals = np.where(n % q == 0, wcomb[idx], 0.0)
    dcomb = w_vals[q:] - w_vals[:-q]
    dstair = s_vals[1:] - s_vals[:-1]
    levels_used = len(sched.rows)
    wl = np.asarray(sched.w[:levels_used])
    dw = np.diff(wl)
    comb_bound = q * float(np.dot(dw, dw)) if len(dw) else 0.0
    stair_bound = 4.0 * lam * lam * sum(1.0 / m for m in sched.m[:levels_used])
    return {
        "comb_sum": float(np.dot(dcomb, dcomb)),
        "comb_bound": comb_bound,
        "staircase_sum": float(np.dot(dstair, dstair)),
        "staircase_bound": stair_bound,
    }
