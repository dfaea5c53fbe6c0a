"""q-step transfer blocks, long ordered products and coupling diagnostics.

Block m is the ordered one-step product over indices mq+1 .. (m+1)q (highest
index leftmost).  Long products are kept in the scaled representation so
log-norms stay available far past float overflow; the per-step accumulator
`GrowthScanner` additionally tracks sum_n ||T_{1,n}(x)||^2 in log space.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .coeffs import CoefficientSpec, coefficient_arrays, eval_coefficients
from .errors import DegenerateBlockError, NonDiagonalizableFrameError
from .matrix2 import RESCALE_LIMIT, Matrix2, ScaledMatrix2, one_step_matrix
from .periodic import PeriodicJacobi, discriminant_polynomial

__all__ = [
    "QStepBlock", "Diagonalization", "CouplingSeries", "GrowthScanner",
    "q_step_block", "transfer_product", "eigen_branch", "coupling_series",
    "branch_sign_for_interval", "weyl_branch_sign", "block_matrix",
]

_LOG_RESCALE = math.log(RESCALE_LIMIT)


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


def block_matrix(P: PeriodicJacobi, z: complex) -> Matrix2:
    """Ordered one-step product over one period block, index 1 rightmost."""
    m = Matrix2.identity()
    for a, b in zip(P.a, P.b):
        m = one_step_matrix(a, b, z) @ m
    return m


def q_step_block(spec: CoefficientSpec, q: int, m: int, z: complex) -> QStepBlock:
    """Transfer block over coefficient indices mq+1 .. (m+1)q."""
    if q < 1 or m < 0:
        raise ValueError("need q >= 1 and m >= 0")
    phi = Matrix2.identity()
    for n in range(m * q + 1, (m + 1) * q + 1):
        a, b = eval_coefficients(spec, n)
        phi = one_step_matrix(a, b, z) @ phi
    return QStepBlock(m, phi, z)


def _product_scan_real(a: list[float], b: list[float], x: float) -> ScaledMatrix2:
    t11, t12, t21, t22 = 1.0, 0.0, 0.0, 1.0
    ls = 0.0
    for i in range(len(a)):
        ai = a[i]
        p = (x - b[i]) / ai
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
            ls += math.log(m)
    return ScaledMatrix2(Matrix2(t11, t12, t21, t22), ls)


def _product_scan_complex(a: list[float], b: list[float], x: complex) -> ScaledMatrix2:
    t = ScaledMatrix2.of(Matrix2.identity())
    for i in range(len(a)):
        t = t.left_mul(one_step_matrix(a[i], b[i], x))
    return t


def transfer_product(spec: CoefficientSpec, m: int, n: int, x: complex) -> ScaledMatrix2:
    """Ordered product A_n * A_{n-1} * ... * A_m at energy x.

    Returned in the scaled representation, so log-norms never overflow.
    """
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    avals, bvals = coefficient_arrays(spec, m, n + 1)
    xc = complex(x)
    if xc.imag == 0.0:
        return _product_scan_real(avals.tolist(), bvals.tolist(), xc.real)
    return _product_scan_complex(avals.tolist(), bvals.tolist(), xc)


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

    def feed_arrays(self, avals, bvals) -> None:
        x = self.x
        t11, t12, t21, t22 = self.t11, self.t12, self.t21, self.t22
        ls = self.log_scale
        log_sum = self.log_sum
        run_max = self.running_max_log
        n = self.n
        log = math.log
        sqrt = math.sqrt
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
        self.t11, self.t12, self.t21, self.t22 = t11, t12, t21, t22
        self.log_scale = ls
        self.log_sum = log_sum
        self.running_max_log = run_max
        self.n = n

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

    def product(self) -> ScaledMatrix2:
        return ScaledMatrix2(Matrix2(self.t11, self.t12, self.t21, self.t22),
                             self.log_scale)


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
