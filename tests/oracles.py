"""Independent oracles for expected values.

Each helper computes its quantity by a route disjoint from the library path it
checks: interpolation instead of polynomial matrix products, dense banded
solves instead of Weyl seeds, plain numpy products instead of scaled scans,
a prefix replayed at every step instead of energy lanes carried forward.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.linalg import solve_banded

from jbv import (GrowthScanner, coefficient_arrays, discriminant_value,
                 spectral_bracket, staircase_level_value)


def interp_discriminant_coeffs(P) -> np.ndarray:
    """Monomial coefficients from trace samples at q+1 Chebyshev nodes."""
    lo, hi = spectral_bracket(P)
    lo, hi = lo - 0.5, hi + 0.5
    q = P.q
    nodes = [0.5 * (lo + hi) + 0.5 * (hi - lo) * math.cos(math.pi * i / q)
             for i in range(q + 1)]
    vand = np.vander(nodes, q + 1, increasing=True)
    vals = [discriminant_value(P, x).real for x in nodes]
    return np.linalg.solve(vand, vals)


def comb2_band_edges(w: float) -> list[float]:
    """Band edges of the period-2 comb block, by the quadratic formula on
    x^2 - w x - 2 = -+2."""
    lo_out = 0.5 * (w - math.sqrt(w * w + 16.0))
    hi_out = 0.5 * (w + math.sqrt(w * w + 16.0))
    return [lo_out, 0.0, w, hi_out]


def free_density(x: float) -> float:
    return math.sqrt(4.0 - x * x) / (2.0 * math.pi)


def free_m(z: complex) -> complex:
    """Weyl function of the free half-line matrix, branch with m ~ -1/z."""
    z = complex(z)
    w = cmath.sqrt(z * z - 4.0)
    if (w.imag > 0.0) != (z.imag > 0.0):
        w = -w
    return 0.5 * (-z + w)


def resolvent_density(aspec, x: float, eps: float = 1e-3, size: int = 10 ** 4) -> float:
    """pi^{-1} Im <e_1, (J_trunc - x - i eps)^{-1} e_1>, extrapolated to eps = 0.

    Richardson on (eps, 2 eps) kills the linear term; band edges leave an
    eps^{3/2} residue, removed by a second exponent-3/2 level over
    (eps, 2 eps, 4 eps).  The median over three base eps values damps the
    oscillatory boundary-reflection error of the finite truncation.
    """
    spec = aspec.as_spec()
    a, b = coefficient_arrays(spec, 1, size + 1)

    def g(e: float) -> float:
        z = x + 1j * e
        ab = np.zeros((3, size), dtype=complex)
        ab[0, 1:] = a[:-1]
        ab[1, :] = b - z
        ab[2, :-1] = a[:-1]
        rhs = np.zeros(size, dtype=complex)
        rhs[0] = 1.0
        sol = solve_banded((1, 1), ab, rhs)
        return sol[0].imag / math.pi

    def richardson(e: float) -> float:
        return 2.0 * g(e) - g(2.0 * e)

    c = 2.0 ** 1.5
    estimates = [(c * richardson(e) - richardson(2.0 * e)) / (c - 1.0)
                 for e in (eps, 1.5 * eps, 2.0 * eps)]
    return sorted(estimates)[1]


def resolvent_m(aspec, z: complex, size: int = 10 ** 4) -> complex:
    """<e_1, (J_trunc - z)^{-1} e_1> by a dense banded solve."""
    spec = aspec.as_spec()
    a, b = coefficient_arrays(spec, 1, size + 1)
    ab = np.zeros((3, size), dtype=complex)
    ab[0, 1:] = a[:-1]
    ab[1, :] = b - z
    ab[2, :-1] = a[:-1]
    rhs = np.zeros(size, dtype=complex)
    rhs[0] = 1.0
    sol = solve_banded((1, 1), ab, rhs)
    return complex(sol[0])


def naive_product(spec, m: int, n: int, x: float) -> np.ndarray:
    """Plain numpy ordered product, no scaling; overflows for long products."""
    a, b = coefficient_arrays(spec, m, n + 1)
    t = np.eye(2)
    for ai, bi in zip(a, b):
        t = np.array([[(x - bi) / ai, -1.0 / ai], [ai, 0.0]]) @ t
    return t


def chebu_sine(n: int, x: float) -> float:
    """sin((n+1)t)/sin(t) with x = 2 cos t, valid for |x| < 2."""
    t = math.acos(0.5 * x)
    return math.sin((n + 1) * t) / math.sin(t)


def free_truncation_eigs(n: int) -> list[float]:
    """Eigenvalues 2 cos(k pi/(n+1)) of the free n-by-n truncation."""
    return sorted(2.0 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))


def _threshold_log(level: int, margin: float, n: int) -> float:
    ln_n = math.log(n)
    return math.log(margin * level) + ln_n + 2.0 * math.log(ln_n)


def replayed_schedule_rows(sched) -> tuple[tuple[int, ...], ...]:
    """Breakpoint rows of an empirical schedule by the sequential search: at
    every step a fresh GrowthScanner per shifted gap center replays the whole
    realized prefix, then takes the step one index at a time.  Quadratic in
    the horizon; w, centers, m, margin and cap are taken from `sched`."""
    q, lam, cap = sched.q, sched.lam, sched.cap
    rows: list[tuple[int, ...]] = []
    b_prefix: list[float] = []  # realized diagonal
    truncated = False
    end = 0
    for level in range(1, sched.levels + 1):
        li = level - 1
        row = [end]
        for k in range(sched.m[li]):
            if truncated:
                break
            v = staircase_level_value(level, k, sched.m[li], lam)
            n0 = row[-1]
            n_next, win_vals = _replayed_step(q, level, v, sched.w[li],
                                              sched.centers[li], n0, b_prefix,
                                              sched.margin, cap)
            b_prefix.extend(win_vals)
            if n_next is None:
                truncated = True
                n_next = cap
                # keep the realized diagonal aligned with the breakpoints
                del b_prefix[cap:]
            if n_next > row[-1]:
                row.append(n_next)
        rows.append(tuple(row))
        end = row[-1]
        if truncated:
            break
    return tuple(rows)


def _replayed_step(q, level, v, w_l, centers, n0, b_prefix, growth_margin, cap):
    scanners = [GrowthScanner(z + v) for z in centers]
    ones = [1.0] * len(b_prefix)
    for sc in scanners:
        sc.feed_arrays(ones, b_prefix)
    win_vals: list[float] = []
    n = n0
    while True:
        n += 1
        if n > cap:
            return None, win_vals
        bn = v + (w_l if n % q == 0 else 0.0)
        win_vals.append(bn)
        for sc in scanners:
            sc.feed(1.0, bn)
        if n < max(n0 + 5, 3):
            continue
        thr = _threshold_log(level, growth_margin, n)
        if all(sc.statistic_log >= thr for sc in scanners):
            return n, win_vals
