"""q-step transfer blocks, long ordered products and coupling diagnostics.

Block m is the ordered one-step product over indices mq+1 .. (m+1)q (highest
index leftmost).  Long products are kept as mantissa * 2**e so log-norms stay
available far past float overflow.

`transfer_scan` is the kernel behind every long product.  It takes one
energy or an energy axis of E energies (lanes): the coefficient run is
shared, and each lane keeps its own product, exponent and rescaling in a
trailing array axis.  One kernel call takes at most CHUNK = 32768 steps at
one energy, or LANE_CHUNK = 8192 steps times lanes, with the products
carried from call to call, so memory stays at one chunk.  A call's arrays
hold about 32 bytes per step and lane; the smaller lane chunk keeps the
schedule search's peak memory near that of the scans it replaced, at no
measurable cost in speed.  Over its L steps a call is a blocked parallel
prefix (Blelloch 1990): (1) one loop of ceil(sqrt(L)) steps scans all
blocks of that length of all lanes side by side, each from the identity;
(2) a sequential pass multiplies the block products onto the carried
products, all lanes in one matmul; (3) on request, one broadcast multiply
of each in-block prefix by its block's normalised entry product gives the
product after every step.  A product whose largest entry passes
RESCALE_LIMIT (1e100) is divided by a power of two, which is exact.
`GrowthScanner` feeds runs of SCAN_MIN (256) steps or more through the
kernel and shorter runs step by step; fed one step at a time it is the
sequential reference.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# eval_coefficients stays bound here: perfbench/tracing.py wraps this name
from .coeffs import CoefficientSpec, coefficient_arrays, eval_coefficients  # noqa: F401
from .errors import DegenerateBlockError, NonDiagonalizableFrameError
from .matrix2 import RESCALE_LIMIT, Matrix2, ScaledMatrix2, block_product
from .periodic import PeriodicJacobi, discriminant_polynomial

__all__ = [
    "QStepBlock", "Diagonalization", "CouplingSeries", "GrowthScanner", "Scan",
    "q_step_block", "transfer_product", "transfer_scan", "log_norm2",
    "eigen_branch", "coupling_series", "branch_sign_for_interval",
    "weyl_branch_sign",
]

CHUNK = 32768  # steps per kernel call at one energy
LANE_CHUNK = 8192  # steps times lanes per kernel call on an energy axis
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
    a, b = coefficient_arrays(spec, m * q + 1, (m + 1) * q + 1)
    return QStepBlock(m, block_product(a.tolist(), b.tolist(), z), z)


class Scan(NamedTuple):
    """A product t * 2**e: t of shape (2, c) holds a 2x2 matrix (c = 2) or a
    column (c = 1), e is an integer.  prefix_t and prefix_e, of shapes
    (2, c, L) and (L,), hold the product after each of the L steps of the
    kernel call that made it, when asked for.  With an energy axis of E
    lanes every field gains a trailing axis of length E (e has shape (E,))."""

    t: np.ndarray
    e: int | np.ndarray
    prefix_t: np.ndarray | None = None
    prefix_e: np.ndarray | None = None


def _rescaled(t: np.ndarray, limit: float = RESCALE_LIMIT, axis=(0, 1)):
    """t with each matrix (over the two axes `axis`) whose largest entry
    passes `limit` divided by the power of two that brings that entry into
    [0.5, 1), which is exact, and the exponents taken out."""
    top = np.abs(t).max(axis=axis, keepdims=True)
    shift = np.where(top > limit, np.frexp(top)[1], 0)
    return t * np.ldexp(1.0, -shift), shift.squeeze(axis)


def log_norm2(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log ||t * 2**e||^2 (operator norm) for t of shape (2, 2) + e.shape,
    by the formula of `Matrix2.op_norm` with f = p + s factored out of the
    hypot, since numpy's hypot is several times slower than its sqrt."""
    t11, t12, t21, t22 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    p = (t11 * t11.conj() + t12 * t12.conj()).real
    s = (t21 * t21.conj() + t22 * t22.conj()).real
    f = p + s
    d = (p - s) / f
    c = 2.0 * np.abs(t11 * t21.conj() + t12 * t22.conj()) / f
    return np.log(0.5 * f * (1.0 + np.sqrt(d * d + c * c))) + (2.0 * _LN2) * e


def transfer_scan(a: np.ndarray, b: np.ndarray, z, start: np.ndarray | None = None,
                  prefixes: bool = False, inverse: bool = False) -> Iterator[Scan]:
    """Multiply the one-step matrices of (a[i], b[i]) at energy z onto
    `start` in array order (a[0]'s acts first), with the product carried
    from kernel call to kernel call; yields each call's Scan.

    z is one energy or a numpy array of E energies, the lanes: one call
    then multiplies the shared coefficient run onto every lane, each with
    its own product and rescaling, and start (if given) and every field of
    the Scan gain a trailing lane axis.  A call takes at most
    LANE_CHUNK // E steps (CHUNK at one energy).
    start defaults to the identity; a (2, 1) array carries a column.  With
    inverse=True each step is replaced by its inverse, so reversed arrays
    solve the recursion backwards.  With prefixes=True each Scan also holds
    the product after every step of its call.
    """
    if isinstance(z, np.ndarray) and z.ndim:
        if np.iscomplexobj(z) and not np.any(z.imag):
            z = z.real
        if start is None:
            start = np.broadcast_to(np.eye(2)[..., None], (2, 2) + z.shape)
        carry = Scan(start, np.zeros(z.shape, np.int64))
        steps = max(1, LANE_CHUNK // z.size)
    else:
        z = complex(z)
        z = z.real if z.imag == 0.0 else z
        carry, steps = Scan(np.eye(2) if start is None else start, 0), CHUNK
    for lo in range(0, len(a), steps):
        carry = _scan_chunk(a[lo:lo + steps], b[lo:lo + steps], z, carry,
                            prefixes, inverse)
        yield carry


def _matrix_last(t: np.ndarray) -> np.ndarray:
    """View with the two matrix axes moved from the front to the back."""
    return t.transpose(*range(2, t.ndim), 0, 1)


def _matrix_first(t: np.ndarray) -> np.ndarray:
    """View with the two matrix axes moved from the back to the front."""
    return t.transpose(t.ndim - 2, t.ndim - 1, *range(t.ndim - 2))


def _scan_chunk(a: np.ndarray, b: np.ndarray, z, carry: Scan,
                prefixes: bool, inverse: bool) -> Scan:
    # every array below ends in the lane axis, or nothing at one energy
    L, lane = len(a), getattr(z, "shape", ())
    ones = (1,) * len(lane)
    flip = slice(None, None, -1 if inverse else 1)
    ct, ce = carry.t[flip], carry.e
    size = math.isqrt(L - 1) + 1
    blocks, pad = -(-L // size), -L % size
    # in swapped coordinates the inverse of ((p, -1/a), (a, 0)) is
    # ((p, -a), (1/a, 0)); steps past L are the rotation ((0, -1), (1, 0)),
    # which act after the last block's product is read
    p = np.zeros((blocks * size,) + lane, np.result_type(z, b))
    p[:L] = (z - b.reshape((L,) + ones)) / a.reshape((L,) + ones)
    p = p.reshape((blocks, size) + lane)
    qv, r = (-a, 1.0 / a) if inverse else (-1.0 / a, a)
    qv = np.append(qv, np.full(pad, -1.0)).reshape((blocks, size) + ones)
    r = np.append(r, np.ones(pad)).reshape((blocks, size) + ones)

    # 1. all blocks (of all lanes) side by side, each from the identity
    t = np.zeros((2, 2, blocks) + lane, p.dtype)
    t[0, 0] = t[1, 1] = 1.0
    e = np.zeros((blocks,) + lane, np.int64)
    if prefixes:
        inner_t = np.empty((2, 2, blocks, size) + lane, t.dtype)
        inner_e = np.empty((blocks, size) + lane, np.int64)
    for j in range(size):
        row1 = p[:, j] * t[0] + qv[:, j] * t[1]
        t[1] = r[:, j] * t[0]
        t[0] = row1
        if np.abs(t).max() > RESCALE_LIMIT:
            t, shift = _rescaled(t)
            e = e + shift
        if prefixes:
            inner_t[:, :, :, j], inner_e[:, j] = t, e
        if j == size - 1 - pad:
            last = t[:, :, -1].copy(), e[-1].copy()
    t[:, :, -1], e[-1] = last

    # 2. the block products onto the carry, one after another; matrix axes
    # last, so that one matmul multiplies every lane
    blk, ct = _matrix_last(t), _matrix_last(ct)
    entries = []
    for k in range(blocks):
        entries.append((ct, ce))
        ct, ce = blk[k] @ ct, ce + e[k]
        if np.abs(ct).max() > RESCALE_LIMIT:
            ct, shift = _rescaled(ct, axis=(-2, -1))
            ce = ce + shift
    ct = _matrix_first(ct)
    if not prefixes:
        return Scan(ct[flip], ce)

    # 3. every in-block prefix times its block's entry product, normalised
    # first so that the products stay in float range
    et = np.ascontiguousarray(_matrix_first(np.array([c for c, _ in entries])))
    et, shift = _rescaled(et, 0.0)
    ee = np.array([x for _, x in entries]) + shift
    pt = np.einsum("imks...,mck...->icks...", inner_t, et)
    pt = pt.reshape(pt.shape[:2] + (-1,) + lane)[flip, :, :L]
    pe = (inner_e + ee[:, None]).reshape((-1,) + lane)[:L]
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
        hypot = math.hypot
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
            # log of the squared operator norm, by the formula of
            # Matrix2.op_norm
            p = t11 * t11 + t12 * t12
            s = t21 * t21 + t22 * t22
            r = t11 * t21 + t12 * t22
            term = log(0.5 * (p + s + hypot(p - s, 2.0 * r))) + 2.0 * ls
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
        self.log_scale = log_scale + int(scan.e) * _LN2
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
