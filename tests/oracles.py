"""Independent oracles for expected values.

Each helper computes its quantity by a route disjoint from the library path it
checks: interpolation instead of polynomial matrix products, dense banded
solves instead of Weyl seeds, plain numpy products instead of scaled scans,
a prefix replayed at every step instead of energy lanes carried forward,
one block and one frame at a time instead of a block axis,
every grid sample evaluated and scanned in Python instead of array passes,
interval operands merged pairwise and any intervals merged in sorted order
instead of one endpoint sweep,
the transfer kernel's steps as a stack of matrices instead of three arrays,
a geometric sum carried term by term instead of in closed form,
a staircase diagonal written out index by index instead of looked up among
flattened windows, and `verify --random` checked one window per call instead
of all windows on the lanes of one kernel call.
"""

from __future__ import annotations

import cmath
import csv
import io
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy.linalg import solve_banded

from jbv import (CouplingSeries, GrowthScanner, Interval, IntervalUnion, Matrix2,
                 PolynomialReal, coefficient_arrays, comb_potential,
                 discriminant_value, eigen_branch, gap_report, q_step_block,
                 spectral_bracket, staircase_level_value,
                 verify_gap_window_growth)
from jbv.errors import DegenerateBlockError, NonDiagonalizableFrameError, RootIsolationError
from jbv.matrix2 import RESCALE_LIMIT
from jbv.polynomial import bisect_root
from jbv.transfer import Scan


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


def per_block_coupling_series(spec, q: int, z: complex, m_range: range,
                              s: int) -> CouplingSeries:
    """coupling_series one block at a time: a q_step_block and an eigen_branch
    frame for every block m and m + 1, then W_m and a running float sum."""
    if len(m_range) == 0:
        raise ValueError("m_range must be nonempty")
    try:
        frames = {}
        for m in sorted({n + d for n in m_range for d in (0, 1)}):
            frames[m] = eigen_branch(q_step_block(spec, q, m, z), s)
    except (DegenerateBlockError, NonDiagonalizableFrameError) as exc:
        raise type(exc)(f"at block m={m}: {exc}") from exc
    identity = Matrix2.identity()
    ws, sums, acc = [], [], 0.0
    for m in m_range:
        w = (frames[m].U_inv @ frames[m + 1].U) - identity
        acc += w.op_norm() ** 2
        ws.append(w)
        sums.append(acc)
    return CouplingSeries(m_range[0], tuple(ws), tuple(sums))


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


def running_sum_analytic_step(level, delta, n0, growth_margin, cap):
    """The analytic step with its geometric sum carried term by term: a
    running log-sum of r^j, j = 1, 2, ..., one term per index."""
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


def running_sum_analytic_rows(sched) -> tuple[tuple[int, ...], ...]:
    """Breakpoint rows of an analytic schedule from its delta, m, margin and
    cap, each step by `running_sum_analytic_step`."""
    rows: list[tuple[int, ...]] = []
    end = 0
    for li in range(sched.levels):
        row = [end]
        for _ in range(sched.m[li]):
            n_next = running_sum_analytic_step(li + 1, sched.delta[li], row[-1],
                                               sched.margin, sched.cap)
            if n_next is None:
                if sched.cap > row[-1]:
                    row.append(sched.cap)
                return tuple(rows) + (tuple(row),)
            row.append(n_next)
        rows.append(tuple(row))
        end = row[-1]
    return tuple(rows)


def scalar_band_edges(P, tol: float = 1e-10):
    """Band structure of a periodic block by the sample-at-a-time scan: the
    discriminant from `numpy.polynomial` products, every grid sample evaluated
    and compared in Python loops and sets.  Returns (bands, gaps, critical
    points, discriminant coefficients) as the array scan must reproduce them
    bit for bit, or raises the same RootIsolationError or OverflowError.
    Critical points are bisected to tol here, which is what the library does
    at tol <= 1e-10."""
    m11, m12, m21, m22 = [1.0], [0.0], [0.0], [1.0]
    for a, b in zip(P.a, P.b):
        p, r, s = [-b / a, 1.0 / a], [-1.0 / a], [a]
        m11, m12, m21, m22 = (
            npoly.polyadd(npoly.polymul(p, m11), npoly.polymul(r, m21)),
            npoly.polyadd(npoly.polymul(p, m12), npoly.polymul(r, m22)),
            npoly.polymul(s, m11), npoly.polymul(s, m12))
    tr = npoly.polyadd(m11, m22)
    coeffs = np.zeros(P.q + 1)
    coeffs[:len(tr)] = tr
    if not np.isfinite(coeffs).all():
        raise OverflowError(f"the discriminant of a q={P.q} block leaves float range")
    poly = PolynomialReal(tuple(float(c) for c in coeffs))
    dpoly = poly.derivative()
    lo_b, hi_b = spectral_bracket(P)
    pad = 0.01 * (hi_b - lo_b) + 1e-6
    lo, hi = lo_b - pad, hi_b + pad
    noise = (64.0 * max(P.q, 1) * np.finfo(float).eps
             * poly.abs_bound(max(1.0, abs(lo), abs(hi))))
    edges: list[float] = []
    crit: list[float] = []
    for attempt in range(4):
        pts = 64 * P.q * (4 ** attempt)
        grid = [lo + (hi - lo) * i / pts for i in range(pts + 1)]
        crit = _scalar_sign_change_roots(dpoly, grid, tol) if P.q > 1 else []
        if len(crit) != P.q - 1:
            continue
        samples = sorted(set(grid) | set(crit))
        edges = _scalar_edge_roots(poly, samples, crit, tol, noise)
        if len(edges) == 2 * P.q:
            break
    else:
        raise RootIsolationError(
            f"expected {2 * P.q} band edges and {P.q - 1} critical points, "
            f"found {len(edges)} and {len(crit)} (q={P.q}, bracket=({lo}, {hi}))")
    bands = [(edges[2 * i], edges[2 * i + 1]) for i in range(P.q)]
    for blo, bhi in bands:
        mid = 0.5 * (blo + bhi)
        if abs(poly(mid)) > 2.0 + max(1e-7, 10 * noise):
            raise RootIsolationError(
                f"band pairing failed: |D({mid})| = {abs(poly(mid))} > 2")
    gaps = [(edges[2 * i + 1], edges[2 * i + 2],
             (edges[2 * i + 2] - edges[2 * i + 1]) < tol) for i in range(P.q - 1)]
    return (bands, gaps, [c for c in crit if edges[0] <= c <= edges[-1]],
            poly.coeffs)


def _scalar_sign_change_roots(f, samples, tol):
    vals = [f(s) for s in samples]
    roots: list[float] = []
    for i, v in enumerate(vals):
        if v == 0.0:
            if not roots or abs(roots[-1] - samples[i]) > tol:
                roots.append(samples[i])
            continue
        v1 = vals[i + 1] if i + 1 < len(vals) else 0.0
        if v1 != 0.0 and (v < 0.0) != (v1 < 0.0):
            roots.append(bisect_root(f, samples[i], samples[i + 1], v, v1, tol))
    return roots


def _scalar_edge_roots(poly, samples, crit, tol, noise):
    crit_set = set(crit)
    cluster_tol = max(4.0 * tol, 1e-9 * (samples[-1] - samples[0]))
    edges: list[float] = []
    for target in (2.0, -2.0):
        vals = [poly(s) - target for s in samples]
        consumed: set[int] = set()
        clusters: list[list[int]] = []
        for i in (i for i, v in enumerate(vals) if abs(v) <= noise):
            if clusters and (i == clusters[-1][-1] + 1
                             or samples[i] - samples[clusters[-1][-1]] <= cluster_tol):
                clusters[-1].append(i)
            else:
                clusters.append([i])
        for cluster in clusters:
            crit_members = [samples[i] for i in cluster if samples[i] in crit_set]
            if crit_members:
                for c in crit_members:
                    edges.extend([c, c])
            else:
                edges.append(samples[cluster[0]])
            for i in cluster:
                if i > 0:
                    consumed.add(i - 1)
                consumed.add(i)
        for i in range(len(samples) - 1):
            v0, v1 = vals[i], vals[i + 1]
            if i in consumed or v0 == 0.0 or v1 == 0.0:
                continue
            if (v0 < 0.0) != (v1 < 0.0):
                edges.append(bisect_root(lambda x: poly(x) - target,
                                         samples[i], samples[i + 1], v0, v1, tol))
    edges.sort()
    return edges


# ---------------------------------------------------------------------------
# interval unions, one pair of canonical operands at a time

def merged_union(parts):
    """The canonical union of any intervals: sorted by left end, each merged
    into the last kept interval when the two overlap or meet at a point that
    either of them holds."""
    items = sorted(parts, key=lambda iv: (iv.lo, not iv.closed_lo, iv.hi))
    merged = []
    for iv in items:
        a = merged[-1] if merged else None
        if a is not None and (iv.lo < a.hi or (iv.lo == a.hi and (a.closed_hi or iv.closed_lo))):
            if iv.hi > a.hi:
                hi, chi = iv.hi, iv.closed_hi
            elif iv.hi < a.hi:
                hi, chi = a.hi, a.closed_hi
            else:
                hi, chi = a.hi, a.closed_hi or iv.closed_hi
            merged[-1] = Interval(a.lo, hi, a.closed_lo, chi)
        else:
            merged.append(iv)
    return IntervalUnion(tuple(merged))


def _max_lo(a, b):
    if a.lo > b.lo:
        return a.lo, a.closed_lo
    if b.lo > a.lo:
        return b.lo, b.closed_lo
    return a.lo, a.closed_lo and b.closed_lo


def _min_hi(a, b):
    if a.hi < b.hi:
        return a.hi, a.closed_hi
    if b.hi < a.hi:
        return b.hi, b.closed_hi
    return a.hi, a.closed_hi and b.closed_hi


def _piece(lo, hi, clo, chi):
    if hi < lo or (lo == hi and not (clo and chi)):
        return None
    return Interval(lo, hi, clo, chi)


def _merge_intersect(u, v):
    out = []
    a, b = u.intervals, v.intervals
    i = j = 0
    while i < len(a) and j < len(b):
        lo, clo = _max_lo(a[i], b[j])
        hi, chi = _min_hi(a[i], b[j])
        piece = _piece(lo, hi, clo, chi)
        if piece is not None:
            out.append(piece)
        if a[i].hi < b[j].hi:
            i += 1
        elif b[j].hi < a[i].hi:
            j += 1
        else:
            i += 1
            j += 1
    return IntervalUnion(tuple(out))


def pairwise_intersection(unions):
    """The intersection of a nonempty list of canonical unions by a merge of
    two sorted operands at a time, folded from the left."""
    result = unions[0]
    for u in unions[1:]:
        result = _merge_intersect(result, u)
    return result


def carved_difference(u, v):
    """u minus v, each piece of u carved by each interval of v in turn."""
    pieces = list(u.intervals)
    for b in v.intervals:
        carved = []
        for a in pieces:
            lo, clo = _max_lo(a, b)
            hi, chi = _min_hi(a, b)
            if _piece(lo, hi, clo, chi) is None:
                carved.append(a)
                continue
            carved += [p for p in (_piece(a.lo, b.lo, a.closed_lo, not b.closed_lo),
                                   _piece(b.hi, a.hi, not b.closed_hi, a.closed_hi))
                       if p is not None]
        pieces = carved
    return merged_union(pieces)


def staircase_diagonal(spec):
    """b_1, ..., b_horizon of a staircase_comb spec, one index at a time:
    window k of level l covers (rows[l][k], rows[l][k + 1]], and q | n adds
    the level's comb coupling."""
    p = spec.params
    sched = p["schedule"]
    out = []
    for level, row in enumerate(sched["rows"], 1):
        for k in range(len(row) - 1):
            stair = staircase_level_value(level, k, sched["m"][level - 1], p["lam"])
            for n in range(row[k] + 1, row[k + 1] + 1):
                out.append(stair + (sched["w"][level - 1] if n % p["q"] == 0 else 0.0))
    return np.array(out)


def random_windows(count: int, seed: int) -> list[tuple]:
    """The windows (spec, q, m, k, E, delta) and the w of each that
    `verify --random count --seed seed` draws, in its order of rng calls."""
    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(count):
        q = int(rng.integers(2, 5))
        w = float(rng.uniform(0.1, 1.0))
        comb = comb_potential(q, w)
        rep = gap_report(comb)
        gap = rep.gap_intervals[int(rng.integers(0, len(rep.gap_intervals)))]
        delta = 0.25 * gap.width
        e = float(rng.uniform(gap.lo + delta, gap.hi - delta))
        m = int(rng.integers(1, 20))
        k = m + int(rng.integers(8, 40))
        windows.append(((comb.as_spec(), q, m, k, e, delta), w))
    return windows


def per_window_verify_random(count: int, seed: int) -> tuple[int, str]:
    """`verify --random count --seed seed` with one verify_gap_window_growth
    call per window, as a loop over the cases: its exit code and CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case", "q", "w", "m", "k", "E", "delta", "checked",
                     "violations", "status"])
    all_pass = True
    for case, (window, w) in enumerate(random_windows(count, seed)):
        _, q, m, k, e, delta = window
        report = verify_gap_window_growth(*window)
        all_pass = all_pass and report.passed
        writer.writerow([case, q, repr(w), m, k, repr(e), repr(delta),
                         len(report.l_values), len(report.violations),
                         "pass" if report.passed else "fail"])
    return (0 if all_pass else 1), buf.getvalue()


# ---------------------------------------------------------------------------
# the transfer kernel as it was before it kept its steps as three arrays: a
# (2, 2, L) stack of one-step matrices, its min/max bound scan, and an
# exponent add at every level of the tree.  Frozen here verbatim, so that the
# kernel is checked bit for bit against it on the same cuts

_UNDERFLOW = "a transfer product underflowed to zero: its steps span past float range"


def _rescale(t: np.ndarray, e: np.ndarray) -> float:
    """Divide each matrix (over the two leading axes of t) whose largest
    entry leaves [1 / RESCALE_LIMIT, RESCALE_LIMIT] by the power of two 2**s
    that brings that entry into [0.5, 1), which is exact, and add s to its
    e, in place: so a product of two stays in float range, and a tree of
    products at a huge energy does not shrink to zero.  Returns the largest
    entry of t, or inf when a matrix was rescaled.  A matrix that is zero,
    a product whose entries all underflowed, is a FloatingPointError."""
    a, low = np.abs(t), 1.0 / RESCALE_LIMIT
    top = a.max(initial=0.0)
    # every entry in range is quicker to see than every matrix's largest
    if top <= RESCALE_LIMIT and low <= a.min(initial=np.inf):
        return top
    tops = a.max(axis=(0, 1))
    least = tops.min(initial=low)
    if least == 0.0:
        raise FloatingPointError(_UNDERFLOW)
    if top <= RESCALE_LIMIT and low <= least:
        return top
    shift = np.where((tops < low) | (tops > RESCALE_LIMIT), np.frexp(tops)[1], 0)
    t *= np.ldexp(1.0, -shift)
    e += shift
    return math.inf


def _set_product(t: np.ndarray, e: np.ndarray, x: np.ndarray, xe, y: np.ndarray,
                 ye) -> None:
    """t * 2**e = (x * 2**xe) @ (y * 2**ye) for stacks of matrices with the
    two matrix axes first, written into t and e, which may be x or y."""
    np.add(x[:, :1] * y[:1], x[:, 1:] * y[1:], out=t)
    np.add(xe, ye, out=e)


def _prefix_products(t: np.ndarray, e: np.ndarray, bound: float) -> None:
    """Overwrite the stack of matrices M on axis 2 of t, and their exponents
    e, with the products S_i = M_i ... M_0: each odd slot takes the pair
    M_{2i+1} M_{2i}, the odd slots are scanned in place, and each even slot
    2i > 0 then takes M_{2i} S_{2i-1}.  `bound` bounds the entries past
    slot 0, inf after a shift and on a complex stack: below the limit only
    slot 0, which holds the folded carry, is checked (see the module
    docstring)."""
    n = t.shape[2]
    if n == 1:
        return
    odd_t, odd_e = t[:, :, 1::2], e[1::2]
    _set_product(odd_t, odd_e, odd_t, odd_e, t[:, :, 0:n - 1:2], e[0:n - 1:2])
    bound = 4.0 * bound * bound
    if bound <= RESCALE_LIMIT:
        _rescale(odd_t[:, :, :1], odd_e[:1])
    else:  # a check of them all, which measures them unless it shifts
        top = _rescale(odd_t, odd_e)
        bound = math.inf if bound == math.inf else top
    _prefix_products(odd_t, odd_e, bound)
    even_t, even_e = t[:, :, 2::2], e[2::2]
    _set_product(even_t, even_e, even_t, even_e, t[:, :, 1:n - 1:2], e[1:n - 1:2])
    _rescale(even_t, even_e)


def _reduced(t: np.ndarray, e: np.ndarray):
    """M_{n-1} ... M_0 for the stack on axis 2 of t, as a stack of one:
    pairs level by level, an odd tail carried up a level as it is."""
    while t.shape[2] > 1:
        n = t.shape[2]
        pair_t = np.empty((2, 2, n // 2) + t.shape[3:], t.dtype)
        pair_e = np.empty((n // 2,) + e.shape[1:], e.dtype)
        _set_product(pair_t, pair_e, t[:, :, 1::2], e[1::2], t[:, :, 0:n - 1:2],
                     e[0:n - 1:2])
        _rescale(pair_t, pair_e)
        if n % 2:
            pair_t = np.concatenate((pair_t, t[:, :, -1:]), axis=2)
            pair_e = np.concatenate((pair_e, e[-1:]))
        t, e = pair_t, pair_e
    return t, e


def _scan_chunk(a: np.ndarray, b: np.ndarray, z, carry: Scan,
                prefixes: bool, inverse: bool) -> Scan:
    # every array below ends in the lane axis, of shape () at one energy
    L, lane = len(a), z.shape
    run = (L,) + (lane if a.ndim > 1 else (1,) * len(lane))  # per lane or shared
    flip = slice(None, None, -1 if inverse else 1)
    ct, fold = carry.t[flip], carry.t.shape[1] == 2
    num, den = z - b.reshape(run), a.reshape(run)
    dtype = np.result_type(z, b, ct) if fold else np.result_type(z, b)
    t = np.empty((2, 2, L) + lane, dtype)
    # the steps ((p, -1/a), (a, 0)); in swapped coordinates their inverses
    # are ((p, -a), (1/a, 0)).  p by parts, so that a real lane on a complex
    # axis rounds as a real energy
    if t.dtype.kind == "c":
        t[0, 0] = num.real / den + 1j * (num.imag / den)
    else:
        np.divide(num, den, out=t[0, 0])
    inv = 1.0 / den
    t[0, 1], t[1, 0] = (-den, inv) if inverse else (-inv, den)
    t[1, 1] = 0.0
    # each step rescaled first, so that no product of two leaves float range.
    # A step's largest entry is at least max(|a|, |1/a|) >= 1, so only the
    # upper limit can fire, and no step needs it while no entry does
    e = np.zeros((L,) + lane, np.int64)
    bound = (math.inf if t.dtype.kind == "c"
             else max(t.max(initial=0.0), -t.min(initial=0.0)))
    if not bound <= RESCALE_LIMIT:
        _rescale(t, e)
        bound = math.inf
    # a matrix carry is folded into step 0, a column multiplies the products
    if fold:
        _set_product(t[:, :, :1], e[:1], t[:, :, :1], e[:1], ct[:, :, None], carry.e)
        _rescale(t[:, :, :1], e[:1])
    if prefixes:
        _prefix_products(t, e, bound)
    else:
        t, e = _reduced(t, e)
    if not fold:
        col = np.empty((2, 1) + t.shape[2:], np.result_type(t, ct))
        _set_product(col, e, t, e, ct[:, :, None], carry.e)
        _rescale(col, e)
        t = col
    last = Scan(t[flip, :, -1], e[-1])
    return last._replace(prefix_t=t[flip], prefix_e=e) if prefixes else last


def frozen_transfer_scan(a, b, z, steps: int, start=None, prefixes=False,
                         inverse=False):
    """`transfer_scan` on the frozen kernel, cut into calls of `steps` steps:
    the list of Scans it yields."""
    z = np.asarray(z, complex)
    z = z if np.any(z.imag) else z.real
    if start is None:
        start = Scan(np.multiply.outer(np.eye(2), np.ones(z.shape)),
                     np.zeros(z.shape, np.int64))
    scans = []
    for lo in range(0, len(a), steps):
        start = _scan_chunk(a[lo:lo + steps], b[lo:lo + steps], z, start,
                            prefixes, inverse)
        scans.append(start)
    return scans
