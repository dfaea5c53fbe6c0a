"""2x2 complex matrices and overflow-safe scaled products.

Everything transfer-matrix shaped in this package is carried by `Matrix2`.
Long ordered products grow exponentially by design, so `ScaledMatrix2` keeps a
mantissa, rescaled by exact powers of two, and an accumulated natural-log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import as_complex, as_real

# raw entry magnitude at which a product switches to the scaled representation
RESCALE_LIMIT = 1e100
_LN2 = math.log(2.0)


def _exp_saturating(x: float) -> float:
    """exp(x), or inf where that leaves float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _finite_energy(z) -> None:
    """TypeError unless the energy z is a number or a numpy array of numbers,
    never a bool or a string; ValueError unless it is finite."""
    if isinstance(z, np.ndarray):
        if z.dtype.kind not in "iufc":
            raise TypeError(f"energy z must be a number, got an array of {z.dtype}")
        if not np.isfinite(z).all():
            raise ValueError(f"energy z must be finite, got {z!r}")
    else:
        as_complex(z, "energy z")


@dataclass(frozen=True)
class Matrix2:
    e11: complex
    e12: complex
    e21: complex
    e22: complex

    @staticmethod
    def identity() -> "Matrix2":
        return Matrix2(1.0, 0.0, 0.0, 1.0)

    def __matmul__(self, o: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.e11 * o.e11 + self.e12 * o.e21,
            self.e11 * o.e12 + self.e12 * o.e22,
            self.e21 * o.e11 + self.e22 * o.e21,
            self.e21 * o.e12 + self.e22 * o.e22,
        )

    def __sub__(self, o: "Matrix2") -> "Matrix2":
        return Matrix2(self.e11 - o.e11, self.e12 - o.e12,
                       self.e21 - o.e21, self.e22 - o.e22)

    def scaled(self, c: complex) -> "Matrix2":
        return Matrix2(c * self.e11, c * self.e12, c * self.e21, c * self.e22)

    def trace(self) -> complex:
        return self.e11 + self.e22

    def det(self) -> complex:
        return self.e11 * self.e22 - self.e12 * self.e21

    def adjugate(self) -> "Matrix2":
        """Adjugate; equals the inverse whenever det = 1."""
        return Matrix2(self.e22, -self.e12, -self.e21, self.e11)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.e11, self.e12, self.e21, self.e22)

    def max_abs(self) -> float:
        return max(abs(self.e11), abs(self.e12), abs(self.e21), abs(self.e22))

    def op_norm(self) -> float:
        """Operator 2-norm via the closed-form largest singular value.

        s_max^2 = (p + s + hypot(p - s, 2|r|)) / 2, p and s the squared row
        norms, r the rows' inner product: a sum of nonnegative terms, so a
        nearly orthogonal matrix loses no digits to cancellation; finite for
        entries up to about 1e150; numpy array entries give an array of norms.
        """
        p = abs(self.e11) ** 2 + abs(self.e12) ** 2
        s = abs(self.e21) ** 2 + abs(self.e22) ** 2
        r = self.e11 * self.e21.conjugate() + self.e12 * self.e22.conjugate()
        xp = np if isinstance(p, np.ndarray) else math
        return xp.sqrt(0.5 * (p + s + xp.hypot(p - s, 2.0 * abs(r))))

    def is_real(self, tol: float = 0.0) -> bool:
        return max(abs(complex(e).imag) for e in self.entries()) <= tol


def one_step_matrix(a: float, b: float, z: complex) -> Matrix2:
    """One-step update matrix ((z-b)/a, -1/a; a, 0) of the Jacobi recurrence.

    Unimodular: det = 1 exactly in exact arithmetic.  z is a finite number or
    a numpy array of them.
    """
    a, b = as_real(a, "off-diagonal coefficient"), as_real(b, "diagonal coefficient")
    if not a > 0:
        raise ValueError(f"off-diagonal coefficient must be positive, got {a}")
    _finite_energy(z)
    return Matrix2((z - b) / a, -1.0 / a, a, 0.0)


def block_product(a, b, z) -> tuple[Matrix2, Matrix2]:
    """T = A_q ... A_1 over the pairs (a[i], b[i]) at z, the first pair's step
    rightmost, and dT/dz.  A step ((p, -1/a), (a, 0)) has dp/dz = 1/a, so dT
    becomes A dT + ((t11/a, t12/a), (0, 0)).  Plain entry arithmetic: z, a[i]
    and b[i] may be numbers or numpy arrays; the a[i] must be checked > 0,
    z must be finite (ValueError)."""
    _finite_energy(z)
    t11, t12, t21, t22 = 1.0, 0.0, 0.0, 1.0
    d11 = d12 = d21 = d22 = 0.0
    for ai, bi in zip(a, b):
        p, r = (z - bi) / ai, -1.0 / ai
        d11, d12, d21, d22 = (p * d11 + r * d21 + t11 / ai,
                              p * d12 + r * d22 + t12 / ai, ai * d11, ai * d12)
        t11, t12, t21, t22 = p * t11 + r * t21, p * t12 + r * t22, ai * t11, ai * t12
    return Matrix2(t11, t12, t21, t22), Matrix2(d11, d12, d21, d22)


def _normalized(m: Matrix2, log_scale: float) -> "ScaledMatrix2":
    c = m.max_abs()
    if c > RESCALE_LIMIT:
        s = math.frexp(c)[1]
        m = m.scaled(math.ldexp(1.0, -s))
        log_scale += s * _LN2
    return ScaledMatrix2(m, log_scale)


@dataclass(frozen=True)
class ScaledMatrix2:
    """A matrix stored as mantissa * exp(log_scale).

    For unimodular products the operator norm is at least 1, so only upward
    rescaling is ever needed.
    """

    mantissa: Matrix2
    log_scale: float = 0.0

    @staticmethod
    def of(m: Matrix2) -> "ScaledMatrix2":
        return _normalized(m, 0.0)

    def left_mul(self, a: Matrix2) -> "ScaledMatrix2":
        return _normalized(a @ self.mantissa, self.log_scale)

    def __matmul__(self, o: "ScaledMatrix2") -> "ScaledMatrix2":
        return _normalized(self.mantissa @ o.mantissa,
                           self.log_scale + o.log_scale)

    def op_norm_log(self) -> float:
        return math.log(self.mantissa.op_norm()) + self.log_scale

    def op_norm(self) -> float:
        return _exp_saturating(self.op_norm_log())

    def log_abs_det(self) -> float:
        """log |det|; accurate while the mantissa's singular-value spread stays
        within double precision (cancellation floors it at ~1e-16 of the
        squared norm)."""
        d = abs(self.mantissa.det())
        if d == 0.0:
            return -math.inf
        return math.log(d) + 2.0 * self.log_scale

    def to_matrix2(self) -> Matrix2:
        """Materialize the plain matrix; raises OverflowError if too large."""
        return self.mantissa.scaled(math.exp(self.log_scale))
