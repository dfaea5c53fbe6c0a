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

from .coeffs import (CoefficientSpec, as_int, as_real, check_params,
                     coefficient_arrays, params_errors, staircase_comb_parts,
                     staircase_level_value)
from .periodic import comb_potential, gap_report
from .transfer import GrowthScanner, Scan, _log_sums, log_norm2, transfer_scan

__all__ = [
    "Schedule", "build_schedule", "slow_cosine_spec", "staircase_comb_spec",
    "staircase_level_value", "bv_energy", "staircase_bv_breakdown",
]


def slow_cosine_spec(lam: float, gamma: float) -> CoefficientSpec:
    """a = 1, b_n = lam cos(n^gamma) with lam in (0, 2), gamma in (0, 1/2)."""
    if not (0.0 < as_real(lam, "coupling") < 2.0):
        raise ValueError(f"coupling must lie in (0, 2), got {lam}")
    if not (0.0 < as_real(gamma, "exponent") < 0.5):
        raise ValueError(f"exponent must lie in (0, 1/2), got {gamma}")
    return CoefficientSpec("cosine_power", {"lam": lam, "gamma": gamma})


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
        """The spec validator's rules, then the construction's invariants."""
        check_params("staircase_comb", {"lam": self.lam, "q": self.q,
                                        "schedule": self.to_dict()})
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
        for li, row in enumerate(self.rows):
            if not self.truncated and len(row) != self.m[li] + 1:
                raise ValueError(f"level {li + 1} has {len(row) - 1} windows, "
                                 f"expected {self.m[li]}")

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
        with params_errors("schedule"):
            if doc["mode"] not in ("empirical", "analytic"):
                raise ValueError("mode must be 'empirical' or 'analytic', "
                                 f"got {doc['mode']!r}")
            if not isinstance(doc["truncated"], bool):
                raise TypeError(f"truncated must be a bool, got {doc['truncated']!r}")
            return Schedule(
                q=as_int(doc["q"], "q"), lam=as_real(doc["lam"], "lam"),
                levels=as_int(doc["levels"], "levels"),
                w=tuple(as_real(x, "w") for x in doc["w"]),
                delta=tuple(as_real(x, "delta") for x in doc["delta"]),
                centers=tuple(tuple(as_real(x, "centers") for x in c)
                              for c in doc["centers"]),
                m=tuple(as_int(x, "m") for x in doc["m"]),
                rows=tuple(tuple(as_int(x, "rows") for x in r) for r in doc["rows"]),
                mode=doc["mode"], margin=as_real(doc["margin"], "margin"),
                cap=as_int(doc["cap"], "cap"), truncated=doc["truncated"])


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
    each step end n_{l,k+1} is the smallest index n at which a growth quantity
    reaches growth_margin * l * n * log^2 n.  With S_n = sum_{n'<=n} ||T_{1,n'}||^2:

    * "analytic" mode compares a closed-form lower bound on S_n itself,
      10^{-2 n_{l,k}} * sum_j (1/4)(delta/4)^4 (1+(delta/4)^2)^{j - n_{l,k} - 4},
      whose 10^{-2n} prefactor makes step lengths blow up geometrically; the
      cap then truncates the schedule, which is reported, not an error.

    * "empirical" mode compares the statistic S_n / (n log^2 n) of the actual
      transfer products of the sequence built so far at the level's shifted
      gap-center energies, a rule stronger than the analytic one by n log^2 n;
      it yields desk-scale schedules.  A level's energies, one per step and
      gap center, become kernel lanes (`_Lanes`), each at its own index and
      fed from the realized diagonal only when a decision needs its sum.  A
      run of steps whose lanes' sums, where they stand, already clear their
      thresholds ends every 5 indices (`_decided_steps`); only a step that
      stays undecided once its lanes are caught up is searched index by
      index (`_empirical_step`).
    """
    q, levels = as_int(q, "q", 2), as_int(levels, "levels", 1)
    cap = as_int(cap, "cap", 16)
    if not (0.0 < as_real(lam, "coupling") < 2.0):
        raise ValueError(f"coupling must lie in (0, 2), got {lam}")
    if as_real(growth_margin, "growth margin") < 1.0:
        raise ValueError(f"growth margin must be >= 1, got {growth_margin}")
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
        # delta is a difference of eigenvalues, exact only to rounding, so back
        # off by a relative hair before ceil: an exactly integral 4/delta must
        # not round up
        m_list.append(max(2 ** level, math.ceil(4.0 / rep.min_width - 1e-6)))

    rows: list[tuple[int, ...]] = []
    diag: list[float] = []  # the realized b_1, ..., b_end: every lane's coefficients
    truncated = False
    end = 0
    for level in range(1, levels + 1):
        li = level - 1
        m_l, w_l, count = m_list[li], w_list[li], len(centers_list[li])
        if mode == "empirical":
            values = [staircase_level_value(level, k, m_l, lam) for k in range(m_l)]
            log_margin = math.log(growth_margin * level)
            # one lane per step and gap center, in the order the search
            # reaches them, each at n = 0 until a decision reads its sum
            lanes = _Lanes(np.array([z + v for v in values for z in centers_list[li]]))
        row, k = [end], 0
        while k < m_l and not truncated:
            n0 = row[-1]
            if mode == "analytic":
                ends = [_analytic_step(level, delta_list[li], n0, growth_margin, cap)]
            else:
                run = _decided_steps(lanes.log_sum, count, n0, log_margin, cap)
                if not run:
                    lanes.catch_up(diag, n0, count, log_margin, cap)
                    run = _decided_steps(lanes.log_sum, count, n0, log_margin, cap)
                if run:
                    lanes.leave(run * count)
                    ends = list(range(n0 + 5, n0 + 5 * run + 1, 5))
                else:
                    ends = [_empirical_step(q, values[k], w_l, lanes.take(count), n0,
                                            log_margin, cap)]
                if ends[-1] is not None:
                    diag += [values[k + j] + (w_l if n % q == 0 else 0.0)
                             for j, (lo, hi) in enumerate(zip([n0] + ends, ends))
                             for n in range(lo + 1, hi + 1)]
            for n_next in ends:
                if n_next is None:
                    truncated, n_next = True, cap
                if n_next > row[-1]:
                    row.append(n_next)
            k += len(ends)
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
    """T_{1,n}(x) as a mantissa t times 2**e and log sum_{n' <= n}
    ||T_{1,n'}(x)||^2 at the energies x of one level's steps, each lane at
    its own n.  A lane starts at n = 0 and is multiplied forward
    (`catch_up`) only when a decision needs its sum at the search's index;
    a lane whose lagging sum already decides its step is never fed.  A
    step's lanes leave from the front, as scanners when its end is searched
    index by index, bare when it is decided (`_decided_steps`)."""

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        self.n = np.zeros(len(x), np.int64)
        self.t = np.repeat(np.eye(2)[..., None], len(x), axis=2)
        self.e = np.zeros(len(x), np.int64)
        self.log_sum = np.full(len(x), -np.inf)

    def leave(self, count: int) -> None:
        """Drop the first `count` lanes."""
        self.x, self.n, self.e, self.log_sum = (
            v[count:] for v in (self.x, self.n, self.e, self.log_sum))
        self.t = self.t[..., count:]

    def take(self, count: int) -> list[GrowthScanner]:
        """GrowthScanners resumed from the first `count` lanes, which leave."""
        scanners = []
        for i in range(count):
            sc = GrowthScanner(float(self.x[i]))
            (sc.t11, sc.t12), (sc.t21, sc.t22) = self.t[..., i].tolist()
            sc.n, sc.e, sc.log_sum = int(self.n[i]), int(self.e[i]), float(self.log_sum[i])
            scanners.append(sc)
        self.leave(count)
        return scanners

    def catch_up(self, diag: list[float], n0: int, count: int, log_margin: float,
                 cap: int) -> None:
        """Bring up to n0, with diag's b_{n+1}, ..., b_{n0} (a = 1), the first
        `count` lanes and every lane of a later step j whose sum misses the
        threshold of `_clears` at that step's earliest end n0 + 5 (j + 1) <=
        cap: it misses at every later decision too, so its step cannot go
        without it.  numpy's logs only choose lanes here; `_decided_steps`
        decides.  One `transfer_scan` for each lag start n the lanes share."""
        j = np.arange(len(self.x)) // count
        ends = n0 + 5 * (j + 1)
        ln_n = np.log(ends)
        log_ln2 = 2.0 * np.log(ln_n)
        behind = (self.n < n0) & ((j == 0) | (ends <= cap) & (
            self.log_sum - ln_n - log_ln2 < log_margin + ln_n + log_ln2))
        for n in sorted(set(self.n[behind].tolist())):  # np.unique imports numpy.ma
            i = np.flatnonzero(behind & (self.n == n))
            log_sum = self.log_sum[i]
            for scan in transfer_scan(np.ones(n0 - n), np.array(diag[n:n0]), self.x[i],
                                      Scan(self.t[..., i], self.e[i]), prefixes=True):
                log_sum = _log_sums(log_norm2(scan.prefix_t, scan.prefix_e), log_sum,
                                    prefixes=False)
            self.t[..., i], self.e[i], self.log_sum[i] = scan.t, scan.e, log_sum
            self.n[i] = n0


def _clears(log_sums, n: int, log_margin: float) -> bool:
    """Whether every log-sum S at index n has its statistic S - ln n - 2 ln ln n
    (`GrowthScanner.statistic_log`) at or above log_margin + ln n + 2 ln ln n
    (`_threshold_log`): the same float operations on one pair of logs."""
    ln_n = math.log(n)
    log_ln2 = 2.0 * math.log(ln_n)
    thr = log_margin + ln_n + log_ln2
    return all(s - ln_n - log_ln2 >= thr for s in log_sums)


def _decided_steps(log_sum: np.ndarray, count: int, n0: int, log_margin: float,
                   cap: int) -> int:
    """The number r of steps from n0 on, `count` lanes each in `log_sum`,
    that are decided: step j < r ends at n0 + 5 (j + 1) <= cap.

    A lane's sum may lag: it is the sum at the lane's own index, at most n0.
    Step j is decided when its lanes' sums, as they stand, already clear the
    threshold at n = n0 + 5 (j + 1), the first index its search would check
    after the j steps before it.  That is exact: a float log-sum never falls
    as terms are added, in any pieces (`_log_sums` returns ref + log(x) with
    x >= 1 in the total, `GrowthScanner.feed` hi + log1p(.)), and fl(S - c)
    is monotone in S, so the sum at n clears `_clears` wherever a lagging
    one does."""
    sums, run = log_sum.tolist(), 0
    while (count * run < len(sums) and n0 + 5 * (run + 1) <= cap
           and _clears(sums[count * run:count * (run + 1)], n0 + 5 * (run + 1),
                       log_margin)):
        run += 1
    return run


def _empirical_step(q: int, v: float, w_l: float, scanners: list[GrowthScanner],
                    n0: int, log_margin: float, cap: int) -> int | None:
    """Extend one undecided staircase step, of value v, to the first
    n >= n0 + 5 at which the statistic (1/(n log^2 n)) sum_{n'<=n}
    ||T_{1,n'}||^2 of every one of its scanners (taken at n0, one per shifted
    gap center) reaches growth_margin * level * n log^2 n (`_clears`); the
    scanners are fed one index at a time.  None when no n <= cap does."""
    for n in range(n0 + 1, cap + 1):
        b_n = v + (w_l if n % q == 0 else 0.0)
        for sc in scanners:
            sc.feed(1.0, b_n)
        if n >= n0 + 5 and _clears([sc.log_sum for sc in scanners], n, log_margin):
            return n
    return None


def _analytic_step(level: int, delta: float, n0: int,
                   growth_margin: float, cap: int) -> int | None:
    """Smallest n <= cap at which the lower bound on the sum itself (see
    `build_schedule`), with sum_{j=1}^{k} r^j = r (r^k - 1) / (r - 1) taken in
    logs, reaches growth_margin * level * n log^2 n.  numpy evaluates it on
    blocks of indices up to the first that misses by less than 1e-9, far
    more than its logs and math's differ by; from there the math rule
    decides one index at a time."""
    d4 = delta / 4.0
    log_r = math.log1p(d4 * d4)
    log_pref = (-2.0 * n0 * math.log(10.0) + math.log(0.25) + 4.0 * math.log(d4)
                + log_r - math.log(math.expm1(log_r)))

    def bound_log(n, xp):
        k_log_r = (n - n0 - 4) * log_r
        return log_pref + k_log_r + xp.log(-xp.expm1(-k_log_r))

    for lo in range(n0 + 5, cap + 1, 1 << 16):
        n = np.arange(lo, min(lo + (1 << 16), cap + 1))
        ln_n = np.log(n)
        threshold = math.log(growth_margin * level) + ln_n + 2.0 * np.log(ln_n)
        near = np.flatnonzero(bound_log(n, np) - threshold > -1e-9)
        if len(near):
            return next((m for m in range(int(n[near[0]]), cap + 1) if bound_log(m, math)
                         >= _threshold_log(level, growth_margin, m)), None)
    return None


def bv_energy(spec: CoefficientSpec, q: int, horizon: int) -> tuple[float, float]:
    """Partial sums sum |a_{n+q} - a_n|^2 and sum |b_{n+q} - b_n|^2 over
    n <= horizon - q."""
    q = as_int(q, "q", 1)
    horizon = as_int(horizon, "horizon", q + 1)
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
    q, lam, sched = (spec.params[key] for key in ("q", "lam", "schedule"))
    last = sched["rows"][-1][-1]
    horizon = last if horizon is None else min(as_int(horizon, "horizon", 1), last)
    s_vals, w_vals = staircase_comb_parts(spec.params, np.arange(1, horizon + 1))
    dcomb = w_vals[q:] - w_vals[:-q]
    dstair = s_vals[1:] - s_vals[:-1]
    levels_used = len(sched["rows"])
    dw = np.diff(np.asarray(sched["w"][:levels_used]))
    comb_bound = q * float(np.dot(dw, dw)) if len(dw) else 0.0
    stair_bound = 4.0 * lam * lam * sum(1.0 / m for m in sched["m"][:levels_used])
    return {
        "comb_sum": float(np.dot(dcomb, dcomb)),
        "comb_bound": comb_bound,
        "staircase_sum": float(np.dot(dstair, dstair)),
        "staircase_bound": stair_bound,
    }
