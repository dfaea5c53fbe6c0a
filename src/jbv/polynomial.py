"""Dense real polynomials in the monomial basis, plus bisection root helpers.

Degrees stay small here (the period of a Jacobi matrix), so the monomial
basis is adequately conditioned and root isolation works on sign changes
rather than companion matrices.  A sample grid is one ndarray Horner pass, bit
for bit the scalar values; only the bisection runs per root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class PolynomialReal:
    """Real coefficients, ascending degree; coeffs[k] multiplies x**k."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if any(not math.isfinite(c) for c in self.coeffs):
            raise ValueError("polynomial coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "PolynomialReal":
        c = self.coeffs
        return PolynomialReal(tuple(k * c[k] for k in range(1, len(c))) or (0.0,))

    def abs_bound(self, r: float) -> float:
        """sum |c_k| r^k, a bound on |p| over |x| <= r."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * r + abs(c)
        return acc


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                flo: float, fhi: float, tol: float) -> float:
    """Bisect a bracketed sign change down to width tol."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError("bisect_root requires a sign change")
    for _ in range(4096):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def sign_changes(vals: np.ndarray) -> np.ndarray:
    """Mask of the segments (i, i+1) with nonzero end values of opposite signs."""
    neg = vals < 0.0
    return (vals[:-1] != 0.0) & (vals[1:] != 0.0) & (neg[:-1] != neg[1:])


def sign_change_roots(f: Callable[[float], float], samples: Sequence[float],
                      tol: float, vals: np.ndarray | None = None) -> list[float]:
    """Roots isolated from strict sign changes between consecutive samples,
    bisected to width tol; `vals` are f at the samples, if already evaluated.

    A sample value that is exactly zero is reported as a root itself, unless
    it lies within tol of the root before it.
    """
    v = np.array([f(s) for s in samples], dtype=float) if vals is None else vals
    zero = v == 0.0
    roots: list[float] = []
    for i in np.flatnonzero(zero | np.append(sign_changes(v), False)).tolist():
        if not zero[i]:
            roots.append(bisect_root(f, float(samples[i]), float(samples[i + 1]),
                                     float(v[i]), float(v[i + 1]), tol))
        elif not roots or abs(roots[-1] - samples[i]) > tol:
            roots.append(float(samples[i]))
    return roots
