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
from .transfer import GrowthScanner

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
        for level, (m_l, d_l) in enumerate(zip(self.m, self.delta), 1):
            if not d_l > 0.0:
                raise ValueError(f"level {level}: gap width delta={d_l} is not positive")
            if m_l < _least_steps(level, d_l):
                raise ValueError(f"level {level}: m={m_l} below max(2^{level}, 4/{d_l})")
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
    if not isinstance(schedule, Schedule):
        raise TypeError(f"schedule must be a Schedule, got {schedule!r}")
    schedule.validate()
    return CoefficientSpec(
        "staircase_comb",
        {"lam": schedule.lam, "q": schedule.q, "schedule": schedule.to_dict()},
        length_hint=schedule.horizon,
    )


def _least_steps(level: int, delta: float) -> float:
    """Level l's least step count max(2^l, 4/delta_l), 4/delta backed off by a hair:
    delta, a difference of eigenvalues, is exact only to rounding."""
    return max(2.0 ** level, 4.0 / delta - 1e-6)


def _growth_logs(n, log_margin: float, xp=math):
    """ln n, 2 ln ln n and the growth threshold log_margin + ln n + 2 ln ln n (math or np)."""
    ln_n = xp.log(n)
    log_ln2 = 2.0 * xp.log(ln_n)
    return ln_n, log_ln2, log_margin + ln_n + log_ln2


def build_schedule(q: int, lam: float, levels: int, growth_margin: float = 1.0,
                   cap: int = 10 ** 6, mode: str = "empirical") -> Schedule:
    """Choose all breakpoints of the staircase + comb construction.

    Per level l: w_l = 2^{-l}; delta_l and the gap centers come from the comb
    block with coupling w_l; m_l = ceil(`_least_steps`).  Within level l, each
    step end n_{l,k+1} is the smallest index n at which a growth quantity
    reaches growth_margin * l * n * log^2 n (`_growth_logs`, in logs, with
    log(growth_margin * l) once per level).  With S_n = sum_{n'<=n} ||T_{1,n'}||^2:

    * "analytic" mode compares a closed-form lower bound on S_n itself,
      10^{-2 n_{l,k}} * sum_j (1/4)(delta/4)^4 (1+(delta/4)^2)^{j - n_{l,k} - 4},
      whose 10^{-2n} prefactor makes step lengths blow up geometrically; the
      cap then truncates the schedule, which is reported, not an error.

    * "empirical" mode compares the statistic S_n / (n log^2 n) of the actual
      transfer products of the sequence built so far at the level's shifted
      gap-center energies, a rule stronger than the analytic one by n log^2 n;
      it yields desk-scale schedules.  A level's energies, one per step and
      gap center, are the lanes of one `GrowthScanner`, each at its own
      index and fed from the realized diagonal only when a decision needs
      its sum (`_catch_up`).  A step whose lanes' sums, where they stand,
      already clear their thresholds ends 5 indices after the last; only a
      step that stays undecided once its lanes are caught up is searched
      index by index (`_empirical_step`).
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
        m_list.append(math.ceil(_least_steps(level, rep.min_width)))

    rows: list[tuple[int, ...]] = []
    diag: list[float] = []  # the realized b_1, ..., b_end: every lane's coefficients
    truncated = False
    end = 0
    for level in range(1, levels + 1):
        li = level - 1
        m_l, w_l, count = m_list[li], w_list[li], len(centers_list[li])
        log_margin = math.log(growth_margin * level)
        if mode == "empirical":
            values = [staircase_level_value(level, k, m_l, lam) for k in range(m_l)]
            # one lane per step and gap center, in the order the search
            # reaches them, each at n = 0 until a decision reads its sum
            lanes = GrowthScanner(np.array([z + v for v in values for z in centers_list[li]]))
        row = [end]
        for k in range(m_l):
            n0 = row[-1]
            if mode == "analytic":
                n_next = _analytic_step(delta_list[li], n0, log_margin, cap)
            else:
                step = slice(k * count, (k + 1) * count)   # the step's lanes
                n_next = _empirical_step(q, values[k], w_l, lanes, step, n0, log_margin, cap, diag)
            if n_next is None:
                truncated = True
                row += [cap] if cap > n0 else []
                break
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


def _catch_up(lanes: GrowthScanner, step: slice, diag: list[float], n0: int,
              log_margin: float, cap: int) -> None:
    """Bring up to n0, with diag's b_{n+1}, ..., b_{n0} (a = 1), the lanes
    `step` of the step that starts at n0 and every lane of a later step j
    whose sum misses the threshold of `_clears` at that step's earliest end
    n0 + 5 (j + 1) <= cap: it misses at every later decision too, so its
    step cannot go without it.  Lanes before `step` are never read again.
    numpy's logs only choose lanes; `_empirical_step` decides.  One kernel
    call for each lag start n the lanes share, on totals only."""
    n, log_sum = lanes.n[step.start:], lanes.log_sum[step.start:]
    j = np.arange(len(n)) // (step.stop - step.start)
    ends = n0 + 5 * (j + 1)
    ln_n, log_ln2, threshold = _growth_logs(ends, log_margin, np)
    behind = (n < n0) & ((j == 0) | (ends <= cap) & (log_sum - ln_n - log_ln2 < threshold))
    for start in sorted(set(n[behind].tolist())):  # np.unique imports numpy.ma
        i = step.start + np.flatnonzero(behind & (n == start))
        lanes._advance(np.ones(n0 - start), np.array(diag[start:n0]), i, prefixes=False)


def _clears(log_sums, n: int, log_margin: float) -> bool:
    """Whether every log-sum S at index n has its statistic S - ln n - 2 ln ln n
    (`GrowthScanner.statistic_log`) at or above the threshold of
    `_growth_logs`: the same float operations on one pair of logs."""
    ln_n, log_ln2, threshold = _growth_logs(n, log_margin)
    return all(s - ln_n - log_ln2 >= threshold for s in log_sums)


def _empirical_step(q: int, v: float, w_l: float, lanes: GrowthScanner, step: slice,
                    n0: int, log_margin: float, cap: int, diag: list[float]) -> int | None:
    """The end of the staircase step of value v that starts at n0: the first
    n >= n0 + 5 at which the statistic (1/(n log^2 n)) sum_{n'<=n}
    ||T_{1,n'}||^2 at each of the step's lanes, `lanes` at the indices
    `step`, reaches growth_margin * level * n log^2 n (`_clears`); None when
    no n <= cap does.  The step's realized b_n are appended to diag.

    The step ends at n0 + 5 when its lanes' sums, as they stand, clear the
    threshold there, then when they do once caught up (`_catch_up`).
    That is exact although a sum may lag, at the lane's own index, at most
    n0: a float log-sum never falls as terms are added, in any pieces
    (`_log_sums` returns ref + log(x) with x >= 1 in the total,
    `GrowthScanner.feed` hi + log1p(.)), and fl(S - c) is monotone in S, so
    the sum at n0 + 5 clears `_clears` wherever a lagging one does.  Else
    the lanes are copied to one-energy scanners, fed one index at a time."""
    if n0 + 5 > cap:
        return None
    if not _clears(lanes.log_sum[step].tolist(), n0 + 5, log_margin):
        _catch_up(lanes, step, diag, n0, log_margin, cap)
    if _clears(lanes.log_sum[step].tolist(), n0 + 5, log_margin):
        diag += [v + (w_l if n % q == 0 else 0.0) for n in range(n0 + 1, n0 + 6)]
        return n0 + 5
    scanners = [lanes._lane(i) for i in range(step.start, step.stop)]
    for n in range(n0 + 1, cap + 1):
        b_n = v + (w_l if n % q == 0 else 0.0)
        diag.append(b_n)
        for sc in scanners:
            sc.feed(1.0, b_n)
        if n >= n0 + 5 and _clears([sc.log_sum for sc in scanners], n, log_margin):
            return n
    return None


def _analytic_step(delta: float, n0: int, log_margin: float, cap: int) -> int | None:
    """Smallest n <= cap at which the lower bound on the sum itself (see
    `build_schedule`), with sum_{j=1}^{k} r^j = r (r^k - 1) / (r - 1) taken in
    logs, reaches the threshold of `_growth_logs`, log_margin being the
    level's log(growth_margin * level).  numpy evaluates it on blocks of
    indices up to the first that misses by less than 1e-9, far more than its
    logs and math's differ by; from there the math rule decides one index at
    a time."""
    d4 = delta / 4.0
    log_r = math.log1p(d4 * d4)
    log_pref = (-2.0 * n0 * math.log(10.0) + math.log(0.25) + 4.0 * math.log(d4)
                + log_r - math.log(math.expm1(log_r)))

    def bound_log(n, xp):
        k_log_r = (n - n0 - 4) * log_r
        return log_pref + k_log_r + xp.log(-xp.expm1(-k_log_r))

    for lo in range(n0 + 5, cap + 1, 1 << 14):   # 128 KiB arrays: reused, not mapped afresh
        n = np.arange(lo, min(lo + (1 << 14), cap + 1))
        threshold = _growth_logs(n, log_margin, np)[2]   # first: half the page faults
        near = np.flatnonzero(bound_log(n, np) - threshold > -1e-9)
        if len(near):
            return next((m for m in range(int(n[near[0]]), cap + 1) if bound_log(m, math)
                         >= _growth_logs(m, log_margin)[2]), None)
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
    if not isinstance(spec, CoefficientSpec):
        raise TypeError(f"spec must be a CoefficientSpec, got {spec!r}")
    if spec.kind != "staircase_comb":
        raise ValueError("breakdown applies to staircase_comb specs")
    q, lam, sched = (spec.params[key] for key in ("q", "lam", "schedule"))
    last = sched["rows"][-1][-1]
    horizon = last if horizon is None else min(as_int(horizon, "horizon", 1), last)
    s_vals, w_vals = staircase_comb_parts(spec, np.arange(1, horizon + 1))
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
