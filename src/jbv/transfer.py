"""q-step transfer blocks, long ordered products and coupling diagnostics.

Block m is the ordered one-step product over indices mq+1 .. (m+1)q (highest
index leftmost).  Long products are kept as mantissa * 2**e so log-norms stay
available far past float overflow.

`transfer_scan` is the kernel behind every long product.  One kernel call
takes at most CHUNK = 32768 steps, with the product carried from call to
call, so memory stays at one chunk.  Over its L steps it is a blocked
parallel prefix (Blelloch 1990): (1) one loop of ceil(sqrt(L)) steps scans
all blocks of that length side by side, each from the identity; (2) a
sequential pass multiplies the block products onto the carried product;
(3) on request, one broadcast multiply of each in-block prefix by its
block's normalised entry product gives the product after every step.  A
product whose largest entry passes RESCALE_LIMIT (1e100) is divided by a
power of two, which is exact.  `GrowthScanner` feeds runs of SCAN_MIN (256)
steps or more through the kernel and shorter runs step by step; fed one
step at a time it is the sequential reference.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coeffs import CoefficientSpec, coefficient_arrays, eval_coefficients
from .errors import DegenerateBlockError, NonDiagonalizableFrameError
from .matrix2 import RESCALE_LIMIT, Matrix2, ScaledMatrix2, one_step_matrix
from .periodic import PeriodicJacobi, discriminant_polynomial

__all__ = [
    "QStepBlock", "Diagonalization", "CouplingSeries", "GrowthScanner", "Scan",
    "q_step_block", "transfer_product", "transfer_scan", "log_norm2",
    "eigen_branch", "coupling_series", "branch_sign_for_interval",
    "weyl_branch_sign",
]

CHUNK = 32768  # steps per kernel call
SCAN_MIN = 256  # GrowthScanner.feed_arrays runs shorter than this go step by step
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class QStepBlock:
    """One q-step transfer matrix with its trace and named entries."""

    m: int
    Phi: Matrix2
    z: complex

    @property
    def Delta(self) -> complex:
        return self.Phi.trace()

    @property
    def A(self) -> complex:
        return self.Phi.e11

    @property
    def B(self) -> complex:
        return self.Phi.e12

    @property
    def C(self) -> complex:
        return self.Phi.e21

    @property
    def D(self) -> complex:
        return self.Phi.e22


def q_step_block(spec: CoefficientSpec, q: int, m: int, z: complex) -> QStepBlock:
    """Transfer block over coefficient indices mq+1 .. (m+1)q."""
    if q < 1 or m < 0:
        raise ValueError("need q >= 1 and m >= 0")
    phi = Matrix2.identity()
    for n in range(m * q + 1, (m + 1) * q + 1):
        a, b = eval_coefficients(spec, n)
        phi = one_step_matrix(a, b, z) @ phi
    return QStepBlock(m, phi, z)


class Scan(NamedTuple):
    """A product t * 2**e: t of shape (2, c) holds a 2x2 matrix (c = 2) or a
    column (c = 1), e is an integer.  prefix_t and prefix_e, of shapes
    (2, c, L) and (L,), hold the product after each of the L steps of the
    kernel call that made it, when asked for."""

    t: np.ndarray
    e: int
    prefix_t: np.ndarray | None = None
    prefix_e: np.ndarray | None = None


def _rescaled(t: np.ndarray, limit: float = RESCALE_LIMIT):
    """t with each matrix (over the first two axes) whose largest entry
    passes `limit` divided by the power of two that brings that entry into
    [0.5, 1), which is exact, and the exponents taken out."""
    top = np.abs(t).max(axis=(0, 1))
    shift = np.where(top > limit, np.frexp(top)[1], 0)
    return t * np.ldexp(1.0, -shift), shift


def log_norm2(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log ||t * 2**e||^2 (operator norm) for t of shape (2, 2) + e.shape,
    by the ratio form of `Matrix2.op_norm`."""
    f = (np.abs(t) ** 2).sum(axis=(0, 1))
    r = 2.0 * np.abs(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]) / f
    disc = np.maximum(1.0 - r * r, 0.0)
    return np.log(0.5 * f * (1.0 + np.sqrt(disc))) + (2.0 * _LN2) * e


def transfer_scan(a: np.ndarray, b: np.ndarray, z, start: np.ndarray | None = None,
                  prefixes: bool = False, inverse: bool = False) -> Iterator[Scan]:
    """Multiply the one-step matrices of (a[i], b[i]) at energy z onto
    `start` in array order (a[0]'s acts first), CHUNK steps per kernel call
    with the product carried from call to call; yields each call's Scan.

    start defaults to the identity; a (2, 1) array carries a column.  With
    inverse=True each step is replaced by its inverse, so reversed arrays
    solve the recursion backwards.  With prefixes=True each Scan also holds
    the product after every step of its call.
    """
    z = complex(z)
    z = z.real if z.imag == 0.0 else z
    carry = Scan(np.eye(2) if start is None else start, 0)
    for lo in range(0, len(a), CHUNK):
        carry = _scan_chunk(a[lo:lo + CHUNK], b[lo:lo + CHUNK], z, carry,
                            prefixes, inverse)
        yield carry


def _scan_chunk(a: np.ndarray, b: np.ndarray, z, carry: Scan, prefixes: bool,
                inverse: bool) -> Scan:
    L = len(a)
    flip = slice(None, None, -1 if inverse else 1)
    ct, ce = carry.t[flip], carry.e
    size = math.isqrt(L - 1) + 1
    blocks, pad = -(-L // size), -L % size
    # in swapped coordinates the inverse of ((p, -1/a), (a, 0)) is
    # ((p, -a), (1/a, 0)); steps past L are the rotation ((0, -1), (1, 0)),
    # which act after the last block's product is read
    p = np.zeros(blocks * size, np.result_type(z, b))
    p[:L] = (z - b) / a
    p = p.reshape(blocks, size)
    qv, r = (-a, 1.0 / a) if inverse else (-1.0 / a, a)
    qv = np.append(qv, np.full(pad, -1.0)).reshape(blocks, size)
    r = np.append(r, np.ones(pad)).reshape(blocks, size)

    # 1. all blocks side by side, each from the identity
    t = np.zeros((2, 2, blocks), p.dtype)
    t[0, 0] = t[1, 1] = 1.0
    e = np.zeros(blocks, np.int64)
    if prefixes:
        inner_t = np.empty(t.shape + (size,), t.dtype)
        inner_e = np.empty((blocks, size), np.int64)
    for j in range(size):
        row1 = p[:, j] * t[0] + qv[:, j] * t[1]
        t[1] = r[:, j] * t[0]
        t[0] = row1
        if np.abs(t).max() > RESCALE_LIMIT:
            t, shift = _rescaled(t)
            e = e + shift
        if prefixes:
            inner_t[..., j], inner_e[:, j] = t, e
        if j == size - 1 - pad:
            last = t[..., -1].copy(), e[-1]
    t[..., -1], e[-1] = last

    # 2. the block products onto the carry, one after another
    blk = t.transpose(2, 0, 1)
    entries = []
    for k in range(blocks):
        entries.append((ct, ce))
        ct, ce = blk[k] @ ct, ce + int(e[k])
        if np.abs(ct).max() > RESCALE_LIMIT:
            ct, shift = _rescaled(ct)
            ce += int(shift)
    if not prefixes:
        return Scan(ct[flip], ce)

    # 3. every in-block prefix times its block's entry product, normalised
    # first so that the products stay in float range
    et, shift = _rescaled(np.stack([c for c, _ in entries], axis=2), 0.0)
    ee = np.array([x for _, x in entries]) + shift
    pt = np.einsum("imks,mck->icks", inner_t, et)
    pt = pt.reshape(pt.shape[:2] + (-1,))[flip, :, :L]
    pe = (inner_e + ee[:, None]).reshape(-1)[:L]
    return Scan(ct[flip], ce, pt, pe)


def transfer_product(spec: CoefficientSpec, m: int, n: int, x: complex) -> ScaledMatrix2:
    """Ordered product A_n * A_{n-1} * ... * A_m at energy x.

    Returned in the scaled representation, so log-norms never overflow.
    """
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    *_, scan = transfer_scan(*coefficient_arrays(spec, m, n + 1), x)
    return ScaledMatrix2(Matrix2(*scan.t.ravel().tolist()), scan.e * _LN2)


class GrowthScanner:
    """Accumulates T_{1,n}(x) together with sum_{n' <= n} ||T_{1,n'}||^2.

    The sum lives in natural-log space; `statistic_log` is the log of
    sum / (n log^2 n) and `running_max_log` its maximum over all prefixes
    n >= 2 seen so far.  One instance is fed coefficients in index order
    starting at n = 1.
    """

    __slots__ = ("x", "n", "t11", "t12", "t21", "t22", "log_scale",
                 "log_sum", "running_max_log")

    def __init__(self, x: float) -> None:
        self.x = float(x)
        self.n = 0
        self.t11, self.t12, self.t21, self.t22 = 1.0, 0.0, 0.0, 1.0
        self.log_scale = 0.0
        self.log_sum = -math.inf
        self.running_max_log = -math.inf

    def feed(self, a: float, b: float) -> None:
        self.feed_arrays([a], [b])

    def feed_arrays(self, avals, bvals):
        """Feed coefficients in index order: runs shorter than SCAN_MIN step
        by step, longer ones through `transfer_scan`.  Returns the log
        statistic after each step (-inf while n < 2), a list for a short
        run and an array for a long one."""
        if len(avals) >= SCAN_MIN:
            return self._feed_scan(np.asarray(avals, np.float64),
                                   np.asarray(bvals, np.float64))
        if isinstance(avals, np.ndarray):
            avals, bvals = avals.tolist(), bvals.tolist()
        x = self.x
        t11, t12, t21, t22 = self.t11, self.t12, self.t21, self.t22
        ls = self.log_scale
        log_sum = self.log_sum
        run_max = self.running_max_log
        n = self.n
        log = math.log
        sqrt = math.sqrt
        stats = []
        stat = -math.inf
        for i in range(len(avals)):
            ai = avals[i]
            p = (x - bvals[i]) / ai
            qv = -1.0 / ai
            r11 = p * t11 + qv * t21
            r12 = p * t12 + qv * t22
            t21 = ai * t11
            t22 = ai * t12
            t11, t12 = r11, r12
            m = max(abs(t11), abs(t12), abs(t21), abs(t22))
            if m > RESCALE_LIMIT:
                inv = 1.0 / m
                t11 *= inv
                t12 *= inv
                t21 *= inv
                t22 *= inv
                ls += log(m)
            n += 1
            # squared operator norm of the current product, in log space;
            # ratio form keeps intermediates finite near the rescale limit
            f = t11 * t11 + t12 * t12 + t21 * t21 + t22 * t22
            d = t11 * t22 - t12 * t21
            r = 2.0 * abs(d) / f
            disc = 1.0 - r * r
            if disc < 0.0:
                disc = 0.0
            term = log(0.5 * f * (1.0 + sqrt(disc))) + 2.0 * ls
            if log_sum == -math.inf:
                log_sum = term
            elif term <= log_sum:
                log_sum += math.log1p(math.exp(term - log_sum))
            else:
                log_sum = term + math.log1p(math.exp(log_sum - term))
            if n >= 2:
                ln_n = log(n)
                stat = log_sum - ln_n - 2.0 * log(ln_n)
                if stat > run_max:
                    run_max = stat
            stats.append(stat)
        self.t11, self.t12, self.t21, self.t22 = t11, t12, t21, t22
        self.log_scale = ls
        self.log_sum = log_sum
        self.running_max_log = run_max
        self.n = n
        return stats

    def _feed_scan(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        start = np.array([[self.t11, self.t12], [self.t21, self.t22]])
        log_scale, stats = self.log_scale, []
        for scan in transfer_scan(a, b, self.x, start, prefixes=True):
            terms = log_norm2(scan.prefix_t, scan.prefix_e) + 2.0 * log_scale
            sums = np.logaddexp.accumulate(np.append(self.log_sum, terms))[1:]
            n = np.arange(self.n + 1, self.n + 1 + len(terms), dtype=np.float64)
            ln_n = np.log(np.maximum(n, 2.0))
            stat = np.where(n >= 2.0, sums - ln_n - 2.0 * np.log(ln_n), -np.inf)
            self.running_max_log = max(self.running_max_log, float(stat.max()))
            self.log_sum = float(sums[-1])
            self.n += len(terms)
            stats.append(stat)
        (self.t11, self.t12), (self.t21, self.t22) = scan.t.tolist()
        self.log_scale = log_scale + scan.e * _LN2
        return np.concatenate(stats)

    @property
    def statistic_log(self) -> float:
        if self.n < 2:
            raise ValueError("statistic defined for n >= 2")
        ln_n = math.log(self.n)
        return self.log_sum - ln_n - 2.0 * math.log(ln_n)

    @property
    def statistic(self) -> float:
        try:
            return math.exp(self.statistic_log)
        except OverflowError:
            return math.inf

    @property
    def running_max(self) -> float:
        try:
            return math.exp(self.running_max_log)
        except OverflowError:
            return math.inf


_PRINCIPAL_EPS = 1e-12


def _eigenvalue_pair(delta: complex, s: int) -> tuple[complex, complex]:
    root = cmath.sqrt(4.0 - delta * delta)  # principal branch, sqrt(1) = 1
    lam = 0.5 * (delta + 1j * s * root)
    lam_inv = 0.5 * (delta - 1j * s * root)
    return lam, lam_inv


@dataclass(frozen=True)
class Diagonalization:
    """Eigen decomposition Phi = U diag(lam, 1/lam) U^{-1} of a block."""

    lam: complex
    lam_inv: complex
    U: Matrix2
    U_inv: Matrix2
    s: int


def eigen_branch(block: QStepBlock, s: int) -> Diagonalization:
    """Diagonalize a nondegenerate block with the branch selected by s.

    The eigenvalue is (Delta + i s sqrt(4 - Delta^2)) / 2 with the principal
    square root; its partner is the algebraic reciprocal.  The eigenvector
    frame uses the block's lower row, which needs C != 0.
    """
    if s not in (1, -1):
        raise ValueError("branch sign must be +1 or -1")
    delta = complex(block.Delta)
    if abs(delta - 2.0) < _PRINCIPAL_EPS or abs(delta + 2.0) < _PRINCIPAL_EPS:
        raise DegenerateBlockError(
            f"block {block.m}: |Delta| = {abs(delta)} is at 2, eigenvalues collapse")
    c = complex(block.C)
    if abs(c) < 1e-14:
        raise NonDiagonalizableFrameError(
            f"block {block.m}: C = {c} vanishes, eigenvector frame singular")
    lam, lam_inv = _eigenvalue_pair(delta, s)
    d = complex(block.D)
    u = Matrix2(lam - d, lam_inv - d, c, c)
    pref = 1.0 / ((lam - lam_inv) * c)
    u_inv = Matrix2(pref * c, pref * (d - lam_inv), -pref * c, pref * (lam - d))
    return Diagonalization(lam, lam_inv, u, u_inv, s)


def branch_sign_for_interval(P: PeriodicJacobi, lo: float, hi: float) -> int:
    """Branch sign from the derivative of the discriminant at the interval
    midpoint: s = sign(-D'(mid))."""
    dpoly = discriminant_polynomial(P).derivative()
    slope = dpoly(0.5 * (lo + hi))
    if slope == 0.0:
        raise ValueError("discriminant derivative vanishes at the midpoint; "
                         "the interval straddles a critical point")
    return 1 if -slope > 0 else -1


def weyl_branch_sign(block: QStepBlock) -> int:
    """The branch sign whose eigenvalue is contracting (|lam| < 1).

    Defined off the real axis; on the real axis both branches are unimodular.
    """
    delta = complex(block.Delta)
    lam_p, _ = _eigenvalue_pair(delta, +1)
    lam_m, _ = _eigenvalue_pair(delta, -1)
    if abs(abs(lam_p) - abs(lam_m)) < 1e-14:
        raise DegenerateBlockError("both eigenvalue branches are unimodular; "
                                   "no contracting branch at this energy")
    return 1 if abs(lam_p) < abs(lam_m) else -1


def strip_margins(P: PeriodicJacobi, lo: float, hi: float, y_max: float = 0.05,
                  nx: int = 41, ny: int = 8) -> dict:
    """Empirical uniform margins over the strip [lo, hi] x [0, y_max].

    The constants these margins estimate are existential (they exist for some
    neighborhood of any closed band-interior interval but are not computable
    in closed form), so this reports observed values over the sampled window:

      trace_margin        min of 2 - |Delta|
      slope_margin        min of -s Re Delta', with s from the midpoint rule
      c_lower / c_upper   min of t Re C and max of |C|, t = sign of Re C
      contraction_slope   min of (1 - |lam|)/y over y > 0, contracting branch
    """
    s = branch_sign_for_interval(P, lo, hi)
    spec = P.as_spec()
    dpoly = discriminant_polynomial(P).derivative()
    mid_block = q_step_block(spec, P.q, 0, complex(0.5 * (lo + hi)))
    t = 1 if mid_block.C.real >= 0 else -1
    trace_margin = math.inf
    slope_margin = math.inf
    c_lower, c_upper = math.inf, 0.0
    contraction = math.inf
    for i in range(nx):
        x = lo + (hi - lo) * i / (nx - 1)
        for j in range(ny + 1):
            y = y_max * j / ny
            blk = q_step_block(spec, P.q, 0, complex(x, y))
            delta = complex(blk.Delta)
            trace_margin = min(trace_margin, 2.0 - abs(delta))
            slope_margin = min(slope_margin, -s * complex(dpoly(complex(x, y))).real)
            c_lower = min(c_lower, t * blk.C.real)
            c_upper = max(c_upper, abs(blk.C))
            if y > 0.0:
                lam, lam_inv = _eigenvalue_pair(delta, s)
                lam_c = lam if abs(lam) <= abs(lam_inv) else lam_inv
                contraction = min(contraction, (1.0 - abs(lam_c)) / y)
    return {"s": s, "t": t, "trace_margin": trace_margin,
            "slope_margin": slope_margin, "c_lower": c_lower,
            "c_upper": c_upper, "contraction_slope": contraction}


@dataclass(frozen=True)
class CouplingSeries:
    """Frame-change defects W_m = U_m^{-1} U_{m+1} - I and their running
    squared-norm sums."""

    m_start: int
    W: tuple[Matrix2, ...]
    partial_l2: tuple[float, ...]

    def block_entries(self, i: int) -> tuple[complex, complex, complex, complex]:
        w = self.W[i]
        return (w.e11, w.e12, w.e21, w.e22)


def coupling_series(spec: CoefficientSpec, q: int, z: complex,
                    m_range: range, s: int) -> CouplingSeries:
    """W_m over m_range, with cumulative sums of ||W_m||^2 (operator norm)."""
    if len(m_range) == 0:
        raise ValueError("m_range must be nonempty")
    try:
        frames = {}
        for m in list(m_range) + [m_range[-1] + 1]:
            if m not in frames:
                frames[m] = eigen_branch(q_step_block(spec, q, m, z), s)
    except (DegenerateBlockError, NonDiagonalizableFrameError) as exc:
        raise type(exc)(f"at block m={m}: {exc}") from exc
    identity = Matrix2.identity()
    ws: list[Matrix2] = []
    sums: list[float] = []
    acc = 0.0
    for m in m_range:
        w = (frames[m].U_inv @ frames[m + 1].U) - identity
        acc += w.op_norm() ** 2
        ws.append(w)
        sums.append(acc)
    return CouplingSeries(m_range[0], tuple(ws), tuple(sums))
