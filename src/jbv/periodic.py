"""Discriminants and band structures of periodic Jacobi matrices.

A two-sided q-periodic Jacobi matrix has spectrum {x : D(x) in [-2, 2]} where
D is the trace of its q-step transfer matrix.  That set splits into q closed
bands; the band interiors form the q-interior, which drops a finite set of
touch points where consecutive bands meet (closed gaps).  This module computes
D exactly as a degree-q polynomial, isolates every band edge by bisection and
classifies closed gaps through the critical points of D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .coeffs import (CoefficientSpec, as_int, check_params, params_errors,
                     periodic_spec)
from .errors import RootIsolationError
from .intervals import Interval, IntervalUnion
from .matrix2 import block_product, one_step_matrix
from .polynomial import (PolynomialReal, bisect_root, sign_change_roots,
                         sign_changes)

__all__ = [
    "PeriodicJacobi", "Gap", "BandStructure", "GapReport",
    "one_step_matrix", "discriminant_value", "discriminant_polynomial",
    "band_structure", "free_critical_points", "chebyshev_second_kind",
    "comb_potential", "gap_report", "intersection_over_family",
    "same_discriminant", "spectral_bracket",
]


@dataclass(frozen=True)
class PeriodicJacobi:
    """One period block of a q-periodic Jacobi matrix."""

    q: int
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:  # the one check; keeps the converted numbers
        p = check_params("periodic", {"q": self.q, "a": self.a, "b": self.b})
        for name, value in (("q", p["q"]), ("a", tuple(p["a"])), ("b", tuple(p["b"]))):
            object.__setattr__(self, name, value)

    @staticmethod
    def of(q: int, a, b) -> "PeriodicJacobi":
        return PeriodicJacobi(q, a, b)

    def as_spec(self) -> CoefficientSpec:
        return periodic_spec(self.q, self.a, self.b)

    def shifted(self, c: float) -> "PeriodicJacobi":
        return PeriodicJacobi(self.q, self.a, tuple(x + c for x in self.b))

    def to_dict(self) -> dict:
        return {"q": self.q, "a": list(self.a), "b": list(self.b)}

    @staticmethod
    def from_dict(doc: dict) -> "PeriodicJacobi":
        with params_errors("periodic"):
            return PeriodicJacobi.of(doc["q"], doc["a"], doc["b"])


def discriminant_value(P: PeriodicJacobi, z: complex) -> complex:
    """Trace of the ordered one-step product over one period.

    Factors are applied from index 1 up to index q, index 1 rightmost.
    """
    return block_product(P.a, P.b, z).trace()


def _trim(c: list[float]) -> list[float]:
    """numpy.polynomial's trimseq: drop trailing zeros, keep one entry."""
    while len(c) > 1 and c[-1] == 0.0:
        c = c[:-1]
    return c


def _polymul(c1: list[float], c2: list[float]) -> list[float]:
    """numpy.polynomial's polymul on trimmed float lists, zero signs included:
    an entry sums at most two products, from +0.0 as np.convolve does."""
    out = [0.0] * (len(c1) + len(c2) - 1)
    for i, x in enumerate(c1):
        for j, y in enumerate(c2):
            out[i + j] += x * y
    return _trim(out)


def _polyadd(c1: list[float], c2: list[float]) -> list[float]:
    """numpy.polynomial's polyadd on trimmed float lists: the longer tail stays."""
    c1, c2 = sorted((c1, c2), key=len)
    return _trim([x + y for x, y in zip(c1, c2)] + c2[len(c1):])


def discriminant_polynomial(P: PeriodicJacobi) -> PolynomialReal:
    """The discriminant as a degree-q real polynomial.

    Built by multiplying one-step matrices with polynomial entries, which is
    exact up to rounding; the leading coefficient is 1/(a_1 ... a_q).
    """
    m11, m12, m21, m22 = [1.0], [0.0], [0.0], [1.0]
    for a, b in zip(P.a, P.b):
        p, r, s = [-b / a, 1.0 / a], [-1.0 / a], [a]   # (z - b)/a, -1/a, a
        m11, m12, m21, m22 = (_polyadd(_polymul(p, m11), _polymul(r, m21)),
                              _polyadd(_polymul(p, m12), _polymul(r, m22)),
                              _polymul(s, m11), _polymul(s, m12))
    tr = _polyadd(m11, m22)
    return PolynomialReal(tuple(tr + [0.0] * (P.q + 1 - len(tr))))


def spectral_bracket(P: PeriodicJacobi) -> tuple[float, float]:
    """Crude enclosure of the spectrum: [min b - 2 max a, max b + 2 max a]."""
    amax = max(P.a)
    return (min(P.b) - 2.0 * amax, max(P.b) + 2.0 * amax)


def free_critical_points(q: int) -> list[float]:
    """Interior critical points 2 cos((q-j) pi / q), j = 1..q-1, increasing."""
    if q < 1:
        raise ValueError("period must be >= 1")
    return [2.0 * math.cos((q - j) * math.pi / q) for j in range(1, q)]


def chebyshev_second_kind(n: int, x: float) -> float:
    """p_n(x) by the three-term recurrence p_0 = 1, p_1 = x,
    p_{n+1} = x p_n - p_{n-1}; p_n(2 cos t) = sin((n+1)t)/sin(t)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    p_prev, p_cur = 1.0, x
    if n == 0:
        return p_prev
    for _ in range(n - 1):
        p_prev, p_cur = p_cur, x * p_cur - p_prev
    return p_cur


def comb_potential(q: int, w: float) -> PeriodicJacobi:
    """Discrete Schroedinger period block with a single bump: b = (0,...,0,w)."""
    q = as_int(q, "q", 2)
    if not w > 0:
        raise ValueError("coupling must be positive")
    return PeriodicJacobi.of(q, [1.0] * q, [0.0] * (q - 1) + [w])


@dataclass(frozen=True)
class Gap:
    """Region between two consecutive bands; closed means the bands touch
    (width below the isolation tolerance)."""

    lo: float
    hi: float
    closed: bool

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class BandStructure:
    q: int
    bands: tuple[Interval, ...]
    gaps: tuple[Gap, ...]
    q_interior: IntervalUnion
    critical_points: tuple[float, ...]
    discriminant: PolynomialReal

    @property
    def spectrum(self) -> IntervalUnion:
        return IntervalUnion.of(self.bands)


@dataclass(frozen=True)
class GapReport:
    gap_intervals: tuple[Interval, ...]
    centers: tuple[float, ...]
    min_width: float
    all_open: bool


def _edge_roots(poly: PolynomialReal, samples: np.ndarray, crit: list[float],
                tol: float, noise: float) -> list[float]:
    """All roots of D = +2 and D = -2, with multiplicity.

    Double roots cannot produce sign changes, but they sit exactly at critical
    points of D with |D| = 2 there, so each critical value within the
    evaluation noise floor of +-2 is registered as a double root and its two
    adjacent sample segments are excluded from the sign-change scan.
    """
    is_crit = np.zeros(len(samples), dtype=bool)
    is_crit[np.searchsorted(samples, crit)] = True   # crit are among the samples
    cluster_tol = max(4.0 * tol, 1e-9 * (samples[-1] - samples[0]))
    edges: list[float] = []
    for target in (2.0, -2.0):
        vals = poly(samples) - target
        zeros = np.flatnonzero(np.abs(vals) <= noise)
        skip = np.zeros(len(samples), dtype=bool)   # segment i is (i, i+1)
        if zeros.size:
            # the same root can put several samples below the noise floor (the
            # located critical point plus grid neighbors), so group zero samples
            # that are adjacent in the sample list or closer than the resolution
            first = np.append(True, (np.diff(zeros) != 1)
                              & (np.diff(samples[zeros]) > cluster_tol))
            has_crit = np.logical_or.reduceat(is_crit[zeros], np.flatnonzero(first))
            edges += np.repeat(samples[zeros[is_crit[zeros]]], 2).tolist()
            edges += samples[zeros[first]][~has_crit].tolist()
            skip[zeros] = skip[zeros[zeros > 0] - 1] = True
        # below-noise values were consumed above; exact zeros take no bisection
        for i in np.flatnonzero(sign_changes(vals) & ~skip[:-1]).tolist():
            edges.append(bisect_root(lambda x: poly(x) - target,
                                     float(samples[i]), float(samples[i + 1]),
                                     float(vals[i]), float(vals[i + 1]), tol))
    edges.sort()
    return edges


@np.errstate(over="ignore", invalid="ignore")  # as silent as float Horner
def band_structure(P: PeriodicJacobi, tol: float = 1e-10) -> BandStructure:
    """Bands, gaps and the q-interior of a periodic Jacobi matrix.

    Band edges are the roots of D -+ 2, isolated to width `tol` by bisection
    over a sample grid that includes the critical points of D.  A gap narrower
    than `tol` is reported closed and its touch region is excluded from the
    q-interior.  Each grid is evaluated as one array Horner pass.
    """
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tolerance must lie in (0, 1e-3]")
    poly = discriminant_polynomial(P)
    dpoly = poly.derivative()
    lo_b, hi_b = spectral_bracket(P)
    pad = 0.01 * (hi_b - lo_b) + 1e-6
    lo, hi = lo_b - pad, hi_b + pad
    noise = 64.0 * P.q * np.finfo(float).eps * poly.abs_bound(max(1.0, abs(lo), abs(hi)))
    edges, crit = [], []
    for attempt in range(4):
        pts = 64 * P.q * (4 ** attempt)
        grid = lo + (hi - lo) * np.arange(pts + 1) / pts
        crit = sign_change_roots(dpoly, grid, tol, dpoly(grid)) if P.q > 1 else []
        if len(crit) != P.q - 1:
            continue
        samples = np.sort(np.append(grid, crit))   # np.unique imports numpy.ma
        samples = samples[np.append(True, samples[1:] != samples[:-1])]
        edges = _edge_roots(poly, samples, crit, tol, noise)
        if len(edges) == 2 * P.q:
            break
    else:
        raise RootIsolationError(
            f"expected {2 * P.q} band edges and {P.q - 1} critical points, "
            f"found {len(edges)} and {len(crit)} (q={P.q}, bracket=({lo}, {hi}))")

    bands = tuple(Interval(edges[2 * i], edges[2 * i + 1]) for i in range(P.q))
    for band in bands:
        mid = 0.5 * (band.lo + band.hi)
        if abs(poly(mid)) > 2.0 + max(1e-7, 10 * noise):
            raise RootIsolationError(
                f"band pairing failed: |D({mid})| = {abs(poly(mid))} > 2")
    gaps = tuple(Gap(glo, ghi, closed=(ghi - glo) < tol)
                 for glo, ghi in zip(edges[1:-1:2], edges[2::2]))
    q_interior = IntervalUnion.of(
        Interval.open(band.lo, band.hi) for band in bands if band.width > 0.0)
    return BandStructure(P.q, bands, gaps, q_interior,
                         tuple(c for c in crit if edges[0] <= c <= edges[-1]),
                         poly)


def gap_report(P: PeriodicJacobi, tol: float = 1e-10) -> GapReport:
    """Open-gap geometry of a periodic block: open gaps, their centers, the
    minimum width, and whether all q-1 gaps are open."""
    bs = band_structure(P, tol)
    open_gaps = tuple(Interval.open(g.lo, g.hi) for g in bs.gaps if not g.closed)
    centers = tuple(g.center for g in bs.gaps)
    min_width = (0.0 if any(g.closed for g in bs.gaps)
                 else min((g.width for g in bs.gaps), default=0.0))
    all_open = len(open_gaps) == P.q - 1
    return GapReport(open_gaps, centers, min_width, all_open)


def same_discriminant(p1: PeriodicJacobi, p2: PeriodicJacobi,
                      tol: float = 1e-9) -> bool:
    """Whether two periodic blocks share a discriminant, i.e. lie on the same
    isospectral set.  Membership testing is all that is supported here; the
    geometry of that set is out of scope."""
    if p1.q != p2.q:
        return False
    c1 = discriminant_polynomial(p1).coeffs
    c2 = discriminant_polynomial(p2).coeffs
    scale = max(max(abs(c) for c in c1), 1.0)
    return max(abs(x - y) for x, y in zip(c1, c2)) <= tol * scale


def intersection_over_family(family: list[PeriodicJacobi], mode: str,
                             tol: float = 1e-10) -> IntervalUnion:
    """Intersection of spectra or q-interiors across a family of periodic
    blocks.

    The family is treated as an ordered sample of a continuously swept
    one-parameter family: in "qinterior" mode the excluded region of each gap
    slot is the hull of that slot's gap regions over consecutive members, so a
    touch point moving across the sweep excludes the whole segment it sweeps,
    not just the sampled points.  A single-member family returns that member's
    set exactly.
    """
    if not family:
        raise ValueError("family must be nonempty")
    mode = mode.lower()
    if mode not in ("spectrum", "qinterior"):
        raise ValueError(f"mode must be 'spectrum' or 'qinterior', got {mode!r}")
    structs = [band_structure(P, tol) for P in family]
    if mode == "spectrum":
        return reduce(IntervalUnion.intersect, (bs.spectrum for bs in structs))
    q = structs[0].q
    if any(bs.q != q for bs in structs):
        raise ValueError("qinterior intersection needs a family of equal period")
    result = reduce(IntervalUnion.intersect, (bs.q_interior for bs in structs))
    hulls: list[Interval] = []
    for j in range(q - 1):
        regions = [(bs.gaps[j].lo, bs.gaps[j].hi) for bs in structs]
        # a single member's gap is its own hull
        for (lo0, hi0), (lo1, hi1) in zip(regions, regions[1:] or regions):
            hulls.append(Interval(min(lo0, lo1), max(hi0, hi1)))
    result = result.difference(IntervalUnion.of(hulls))
    # band edges are only resolved to +-tol, so components narrower than that
    # resolution are bisection noise, not set content
    return IntervalUnion.of(iv for iv in result.intervals if iv.width > 8.0 * tol)
