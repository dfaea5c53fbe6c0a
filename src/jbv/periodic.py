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

import numpy as np
import numpy.polynomial.polynomial as npoly

from .coeffs import CoefficientSpec, periodic_spec
from .errors import RootIsolationError
from .intervals import Interval, IntervalUnion
from .matrix2 import block_product, one_step_matrix
from .polynomial import PolynomialReal, bisect_root, sign_change_roots

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

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("period must be >= 1")
        if len(self.a) != self.q or len(self.b) != self.q:
            raise ValueError("coefficient blocks must have length q")
        if any(not (x > 0 and math.isfinite(x)) for x in self.a):
            raise ValueError("all off-diagonal coefficients must be positive")
        if any(not math.isfinite(x) for x in self.b):
            raise ValueError("all diagonal coefficients must be finite")

    @staticmethod
    def of(q: int, a, b) -> "PeriodicJacobi":
        return PeriodicJacobi(int(q), tuple(float(x) for x in a),
                              tuple(float(x) for x in b))

    def as_spec(self) -> CoefficientSpec:
        return periodic_spec(self.q, self.a, self.b)

    def shifted(self, c: float) -> "PeriodicJacobi":
        return PeriodicJacobi(self.q, self.a, tuple(x + c for x in self.b))

    def to_dict(self) -> dict:
        return {"q": self.q, "a": list(self.a), "b": list(self.b)}

    @staticmethod
    def from_dict(doc: dict) -> "PeriodicJacobi":
        try:
            return PeriodicJacobi.of(doc["q"], doc["a"], doc["b"])
        except (KeyError, TypeError) as exc:
            raise ValueError("a periodic block needs an integer 'q' and lists "
                             f"'a' and 'b' of numbers: {exc!r}") from exc


def discriminant_value(P: PeriodicJacobi, z: complex) -> complex:
    """Trace of the ordered one-step product over one period.

    Factors are applied from index 1 up to index q, index 1 rightmost.
    """
    return block_product(P.a, P.b, z).trace()


def discriminant_polynomial(P: PeriodicJacobi) -> PolynomialReal:
    """The discriminant as a degree-q real polynomial.

    Built by multiplying one-step matrices with polynomial entries, which is
    exact up to rounding; the leading coefficient is 1/(a_1 ... a_q).
    """
    m11, m12 = np.array([1.0]), np.array([0.0])
    m21, m22 = np.array([0.0]), np.array([1.0])
    for a, b in zip(P.a, P.b):
        p = np.array([-b / a, 1.0 / a])   # (z - b)/a
        r = np.array([-1.0 / a])
        s = np.array([a])
        n11 = npoly.polyadd(npoly.polymul(p, m11), npoly.polymul(r, m21))
        n12 = npoly.polyadd(npoly.polymul(p, m12), npoly.polymul(r, m22))
        n21, n22 = npoly.polymul(s, m11), npoly.polymul(s, m12)
        m11, m12, m21, m22 = n11, n12, n21, n22
    tr = npoly.polyadd(m11, m22)
    coeffs = np.zeros(P.q + 1)
    coeffs[:len(tr)] = tr
    return PolynomialReal(tuple(float(c) for c in coeffs))


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
    if q < 2:
        raise ValueError("comb potential needs period >= 2")
    if not w > 0:
        raise ValueError("coupling must be positive")
    return PeriodicJacobi.of(q, [1.0] * q, [0.0] * (q - 1) + [float(w)])


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


def _edge_roots(poly: PolynomialReal, samples: list[float],
                crit: list[float], tol: float, noise: float) -> list[float]:
    """All roots of D = +2 and D = -2, with multiplicity.

    Double roots cannot produce sign changes, but they sit exactly at critical
    points of D with |D| = 2 there, so each critical value within the
    evaluation noise floor of +-2 is registered as a double root and its two
    adjacent sample segments are excluded from the sign-change scan.
    """
    crit_set = set(crit)
    cluster_tol = max(4.0 * tol, 1e-9 * (samples[-1] - samples[0]))
    edges: list[float] = []
    for target in (2.0, -2.0):
        vals = [poly(s) - target for s in samples]
        consumed: set[int] = set()          # segment indices to skip
        roots: list[float] = []
        zeros = [i for i, v in enumerate(vals) if abs(v) <= noise]
        # the same root can put several samples below the noise floor (the
        # located critical point plus grid neighbors), so group zero samples
        # that are adjacent in the sample list or closer than the resolution
        clusters: list[list[int]] = []
        for i in zeros:
            if clusters and (i == clusters[-1][-1] + 1
                             or samples[i] - samples[clusters[-1][-1]] <= cluster_tol):
                clusters[-1].append(i)
            else:
                clusters.append([i])
        for cluster in clusters:
            crit_members = [samples[i] for i in cluster if samples[i] in crit_set]
            if crit_members:
                for c in crit_members:
                    roots.extend([c, c])
            else:
                roots.append(samples[cluster[0]])
            for i in cluster:
                if i > 0:
                    consumed.add(i - 1)
                consumed.add(i)
        for i in range(len(samples) - 1):
            if i in consumed:
                continue
            v0, v1 = vals[i], vals[i + 1]
            if v0 == 0.0 or v1 == 0.0:
                continue  # below-noise values were already consumed above
            if (v0 < 0.0) != (v1 < 0.0):
                roots.append(bisect_root(lambda x: poly(x) - target,
                                         samples[i], samples[i + 1], v0, v1, tol))
        edges.extend(roots)
    edges.sort()
    return edges


def band_structure(P: PeriodicJacobi, tol: float = 1e-10) -> BandStructure:
    """Bands, gaps and the q-interior of a periodic Jacobi matrix.

    Band edges are the roots of D -+ 2, isolated to width `tol` by bisection
    over a sample grid that includes the critical points of D.  A gap narrower
    than `tol` is reported closed and its touch region is excluded from the
    q-interior.
    """
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tolerance must lie in (0, 1e-3]")
    poly = discriminant_polynomial(P)
    dpoly = poly.derivative()
    lo_b, hi_b = spectral_bracket(P)
    pad = 0.01 * (hi_b - lo_b) + 1e-6
    lo, hi = lo_b - pad, hi_b + pad
    scale = poly.abs_bound(max(1.0, abs(lo), abs(hi)))
    noise = 64.0 * max(P.q, 1) * np.finfo(float).eps * scale

    edges: list[float] = []
    crit: list[float] = []
    for attempt in range(4):
        pts = 64 * P.q * (4 ** attempt)
        grid = [lo + (hi - lo) * i / pts for i in range(pts + 1)]
        crit = sign_change_roots(dpoly, grid, tol) if P.q > 1 else []
        if len(crit) != P.q - 1:
            continue
        samples = sorted(set(grid) | set(crit))
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
    gaps = []
    for i in range(P.q - 1):
        glo, ghi = edges[2 * i + 1], edges[2 * i + 2]
        gaps.append(Gap(glo, ghi, closed=(ghi - glo) < tol))
    q_interior = IntervalUnion.of(
        Interval.open(band.lo, band.hi) for band in bands if band.width > 0.0)
    return BandStructure(P.q, bands, tuple(gaps), q_interior,
                         tuple(c for c in crit if edges[0] <= c <= edges[-1]),
                         poly)


def gap_report(P: PeriodicJacobi, tol: float = 1e-10) -> GapReport:
    """Open-gap geometry of a periodic block: open gaps, their centers, the
    minimum width, and whether all q-1 gaps are open."""
    bs = band_structure(P, tol)
    open_gaps = tuple(Interval.open(g.lo, g.hi) for g in bs.gaps if not g.closed)
    centers = tuple(g.center for g in bs.gaps)
    if any(g.closed for g in bs.gaps):
        min_width = 0.0
    elif bs.gaps:
        min_width = min(g.width for g in bs.gaps)
    else:
        min_width = 0.0
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
        result = structs[0].spectrum
        for bs in structs[1:]:
            result = result.intersect(bs.spectrum)
        return result
    q = structs[0].q
    if any(bs.q != q for bs in structs):
        raise ValueError("qinterior intersection needs a family of equal period")
    result = structs[0].q_interior
    for bs in structs[1:]:
        result = result.intersect(bs.q_interior)
    hulls: list[Interval] = []
    for j in range(q - 1):
        regions = [(bs.gaps[j].lo, bs.gaps[j].hi) for bs in structs]
        if len(regions) == 1:
            hulls.append(Interval(*regions[0]))
            continue
        for (lo0, hi0), (lo1, hi1) in zip(regions, regions[1:]):
            hulls.append(Interval(min(lo0, lo1), max(hi0, hi1)))
    result = result.difference(IntervalUnion.of(hulls))
    # band edges are only resolved to +-tol, so components narrower than that
    # resolution are bisection noise, not set content
    return IntervalUnion.of(iv for iv in result.intervals if iv.width > 8.0 * tol)
