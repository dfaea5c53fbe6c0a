"""Dense real polynomials in the monomial basis, plus bisection root helpers.

Degrees stay small here (the period of a Jacobi matrix), so the monomial
basis is adequately conditioned and root isolation works on sign changes
rather than companion matrices.  `horner` evaluates a polynomial on sample
arrays with the scalar Horner loop's operations, so its values are bit for bit
the scalar ones, and `bisect_roots` bisects many brackets of one polynomial,
each less its own shift, in one array loop with `bisect_root`'s steps and
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
        return horner(self.coeffs, x)

    def derivative(self) -> "PolynomialReal":
        c = self.coeffs
        d = tuple(k * c[k] for k in range(1, len(c))) or (0.0,)
        if not all(map(math.isfinite, d)):
            raise OverflowError(f"the derivative of a degree-{self.degree} "
                                "polynomial leaves float range")
        return PolynomialReal(d)

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
    neg = flo < 0.0   # the sign of f at lo, which every step keeps
    if neg == (fhi < 0.0):
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
        if (fm < 0.0) == neg:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def horner(coeffs, x, shift=None):
    """sum_k coeffs[k] x**k, less `shift` if given, by Horner's rule.
    x and shift may be arrays: each step is then one IEEE operation per
    element, so every value is bit for bit the scalar one."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x
        acc += c   # in place on arrays: no second temporary per step
    return acc if shift is None else acc - shift


def bisect_roots(coeffs, shift: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 flo: np.ndarray, fhi: np.ndarray, tol: float) -> np.ndarray:
    """`bisect_root` on many brackets in one array loop, bit for bit.

    Bracket i holds a sign change of p - shift_i, where `coeffs` (ascending
    degree) is p.  Each bracket takes bisect_root's steps and stops where it
    would; the loop ends when the last bracket stops.
    """
    lo, hi, flo, fhi = (np.array(v, dtype=float) for v in (lo, hi, flo, fhi))
    out = np.where(flo == 0.0, lo, hi)
    done = (flo == 0.0) | (fhi == 0.0)
    neg = flo < 0.0   # the sign at lo, which every step keeps
    if (neg == (fhi < 0.0))[~done].any():
        raise ValueError("bisect_roots requires a sign change in every bracket")
    live = ~done
    for _ in range(4096):
        mid = 0.5 * (lo + hi)
        live &= ~((hi - lo <= tol) | (mid <= lo) | (mid >= hi))
        if not live.any():
            break
        fm = horner(coeffs, mid, shift)
        hit = live & (fm == 0.0)
        if hit.any():
            out[hit] = mid[hit]
            done |= hit
            live &= ~hit
        left = live & ((fm < 0.0) == neg)
        np.copyto(lo, mid, where=left)
        np.copyto(hi, mid, where=live ^ left)
    return np.where(done, out, 0.5 * (lo + hi))


def sign_changes(vals: np.ndarray) -> np.ndarray:
    """Mask of the segments (i, i+1) along the last axis with nonzero end
    values of opposite signs."""
    neg = vals < 0.0
    return ((vals[..., :-1] != 0.0) & (vals[..., 1:] != 0.0)
            & (neg[..., :-1] != neg[..., 1:]))
