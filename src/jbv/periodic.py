"""Discriminants and band structures of periodic Jacobi matrices.

A two-sided q-periodic Jacobi matrix has spectrum {x : D(x) in [-2, 2]} where
D is the trace of its q-step transfer matrix.  That set splits into q closed
bands; the band interiors form the q-interior, which drops a finite set of
touch points where consecutive bands meet (closed gaps).  This module computes
D exactly as a degree-q polynomial; `band_structure` isolates every band edge
of one block by bisection over up to four ever finer sample grids, each
evaluated in one array pass, and classifies closed gaps through the critical
points of D.  `gap_report` and `intersection_over_family` bisect nothing: the
2q roots of D = +-2 are the spectra of the periodic and antiperiodic q x q
matrices (`_band_edges`), exact to rounding at every q, and blocks of one
period get theirs from one `eigvalsh` call.  Until the band solver is built on
the same eigenvalues, the two paths agree only to the bisection tolerance, and
only where bisection finds every edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import (CoefficientSpec, as_int, as_real, check_params, params_errors,
                     periodic_spec)
from .errors import RootIsolationError
from .intervals import Interval, IntervalUnion, _sweep_arrays
from .matrix2 import block_product
from .polynomial import (PolynomialReal, bisect_root, bisect_roots, horner,
                         sign_changes)

__all__ = [
    "PeriodicJacobi", "Gap", "BandStructure", "GapReport",
    "discriminant_value", "discriminant_polynomial",
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
        c = as_real(c, "shift c")
        return PeriodicJacobi(self.q, self.a, tuple(x + c for x in self.b))

    def to_dict(self) -> dict:
        return {"q": self.q, "a": list(self.a), "b": list(self.b)}

    @staticmethod
    def from_dict(doc: dict) -> "PeriodicJacobi":
        with params_errors("periodic"):
            return PeriodicJacobi.of(doc["q"], doc["a"], doc["b"])


def discriminant_value(P: PeriodicJacobi, z) -> complex:
    """Trace of the ordered one-step product over one period, by the transfer
    recursion; z may be a number or a numpy array of energies.

    Factors are applied from index 1 up to index q, index 1 rightmost.
    """
    return block_product(P.a, P.b, z)[0].trace()


def _polymul(c1: list, c2: list) -> list:
    """numpy.polynomial's polymul, zero signs included, never trimmed: every
    sum starts from +0.0, as in np.convolve, so no entry is ever -0.0, and an
    entry past the degree is +0.0 and adds nothing to the finite entries it
    meets (a block with an infinite entry is non-finite either way)."""
    out = [0.0] * (len(c1) + len(c2) - 1)
    for i, x in enumerate(c1):
        for j, y in enumerate(c2):
            out[i + j] += x * y
    return out


def _polyadd(c1: list, c2: list) -> list:
    """numpy.polynomial's polyadd, untrimmed, for a c1 at least as long as c2."""
    return [x + y for x, y in zip(c1, c2)] + c1[len(c2):]


def _discriminant_coeffs(a, b) -> list:
    """The q+1 coefficients of the trace of the one-step product, built from
    one-step matrices with polynomial entries."""
    m11, m12, m21, m22 = [1.0], [0.0], [0.0], [1.0]
    for a, b in zip(a, b):
        p, r, s = [-b / a, 1.0 / a], [-1.0 / a], [a]   # (z - b)/a, -1/a, a
        m11, m12, m21, m22 = (_polyadd(_polymul(p, m11), _polymul(r, m21)),
                              _polyadd(_polymul(p, m12), _polymul(r, m22)),
                              _polymul(s, m11), _polymul(s, m12))
    return _polyadd(m11, m22)


def discriminant_polynomial(P: PeriodicJacobi) -> PolynomialReal:
    """The discriminant as a degree-q real polynomial.

    Built by multiplying one-step matrices with polynomial entries, which is
    exact up to rounding; the leading coefficient is 1/(a_1 ... a_q).  Raises
    OverflowError where a coefficient leaves float range.
    """
    row = _discriminant_coeffs(P.a, P.b)
    if not all(map(math.isfinite, row)):
        raise OverflowError(f"the discriminant of a q={P.q} block leaves float range")
    return PolynomialReal(tuple(row))


def spectral_bracket(P: PeriodicJacobi) -> tuple[float, float]:
    """Crude enclosure of the spectrum: [min b - 2 max a, max b + 2 max a]."""
    if not isinstance(P, PeriodicJacobi):
        raise TypeError(f"P must be a PeriodicJacobi, got {P!r}")
    amax = max(P.a)
    return (min(P.b) - 2.0 * amax, max(P.b) + 2.0 * amax)


def free_critical_points(q: int) -> list[float]:
    """Interior critical points 2 cos((q-j) pi / q), j = 1..q-1, increasing."""
    q = as_int(q, "period q", 1)
    return [2.0 * math.cos((q - j) * math.pi / q) for j in range(1, q)]


def chebyshev_second_kind(n: int, x: float) -> float:
    """p_n(x) by the three-term recurrence p_0 = 1, p_1 = x,
    p_{n+1} = x p_n - p_{n-1}; p_n(2 cos t) = sin((n+1)t)/sin(t)."""
    n = as_int(n, "degree n", 0)
    p_prev, p_cur = 1.0, as_real(x, "argument x")
    if n == 0:
        return p_prev
    for _ in range(n - 1):
        p_prev, p_cur = p_cur, x * p_cur - p_prev
    return p_cur


def comb_potential(q: int, w: float) -> PeriodicJacobi:
    """Discrete Schroedinger period block with a single bump: b = (0,...,0,w)."""
    q = as_int(q, "q", 2)
    if not as_real(w, "coupling") > 0:
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
        return 0.5 * self.lo + 0.5 * self.hi   # finite for any two floats


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


# Crossover measured on a 2-vCPU VM, where the array form costs about as much
# as the float form below it: fewer brackets than BISECT_MIN are bisected one
# at a time (crossover 24 to 40 brackets for q = 3 and 8).
BISECT_MIN = 32
_TARGETS = np.array([[2.0], [-2.0]])   # D - 2 and D + 2


def _bisect(coeffs: tuple, shift: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            flo: np.ndarray, fhi: np.ndarray, tol: float) -> np.ndarray:
    """Roots of the polynomial less shift[i] in the brackets, as bisect_root
    finds them (x - 0.0 is x, so a zero shift changes no value)."""
    if len(lo) >= BISECT_MIN:
        return bisect_roots(coeffs, shift, lo, hi, flo, fhi, tol)
    brackets = zip(shift.tolist(), lo.tolist(), hi.tolist(), flo.tolist(), fhi.tolist())
    return np.array([bisect_root(lambda x, t=t: horner(coeffs, x, t), a, b, fa, fb, tol)
                     for t, a, b, fa, fb in brackets])


def _critical_points(dcoeffs: tuple, grid: np.ndarray, tol: float) -> np.ndarray:
    """Roots of D' from strict sign changes along the grid, bisected to width
    tol, in grid order.

    A sample where D' is exactly zero is a root itself, unless it lies within
    tol of the root before it.
    """
    vals = horner(dcoeffs, grid)
    zero = vals == 0.0
    cand = zero.copy()
    cand[:-1] |= sign_changes(vals)   # segment i is (i, i+1)
    at = np.flatnonzero(cand)
    roots, on_zero = grid[at], zero[at]
    b = at[~on_zero]
    roots[~on_zero] = _bisect(dcoeffs, np.zeros(len(b)), grid[b], grid[b + 1], vals[b],
                              vals[b + 1], tol)
    keep = np.ones(len(at), dtype=bool)
    last = None   # the latest root kept
    for k, (root, z) in enumerate(zip(roots.tolist(), on_zero.tolist())):
        if z and last is not None and not abs(last - root) > tol:
            keep[k] = False
        else:
            last = root
    return roots[keep]


def _edge_roots(coeffs: tuple, noise: float, samples: np.ndarray, crit: np.ndarray,
                tol: float) -> np.ndarray:
    """All roots of D = +2 and D = -2, with multiplicity, unsorted.

    `samples` is the grid merged with the critical points `crit`, sorted; a
    critical point that equals a grid point is a sample twice, which changes
    nothing here, as the copies have one value.  Double roots cannot produce
    sign changes, but they sit exactly at critical points of D with |D| = 2
    there, so each critical value within the evaluation noise floor of +-2 is
    registered as a double root, and no segment next to a sample below the
    noise floor is bisected.
    """
    vals = horner(coeffs, samples) - _TARGETS   # one row per target
    near = np.abs(vals) <= noise
    seg = sign_changes(vals)   # segment i of a row is (i, i+1)
    zeros = near.any()
    if zeros:
        seg &= ~(near[:, :-1] | near[:, 1:])
    target, pos = np.nonzero(seg)
    edges = _bisect(coeffs, _TARGETS[target, 0], samples[pos], samples[pos + 1],
                    vals[target, pos], vals[target, pos + 1], tol)
    if not zeros:
        return edges
    cluster_tol = max(4.0 * tol, 1e-9 * (samples[-1] - samples[0]))
    at = np.concatenate([_zero_roots(row, samples, cluster_tol, crit) for row in near])
    return np.concatenate((samples[at], edges))


def _zero_roots(near: np.ndarray, samples: np.ndarray, cluster_tol: float,
                crit: np.ndarray) -> np.ndarray:
    """The samples (indices) that are roots of D = target, a double root
    twice, where `near` marks the samples with D - target below the noise
    floor.

    The same root can put several samples below the noise floor (the located
    critical point plus grid neighbors), so zero samples that are adjacent or
    closer than the resolution form one cluster: a double root at each
    critical point in it, else a root at its first sample.
    """
    zeros = np.flatnonzero(near)
    if not zeros.size:
        return zeros
    values = samples[zeros]
    head = np.append(True, (np.diff(values) > cluster_tol) & (np.diff(zeros) != 1))
    # a critical point that is a sample twice (it equals a grid point) marks
    # only its first copy
    at = np.searchsorted(values, crit).clip(max=len(values) - 1)
    is_crit = np.zeros(len(values), dtype=bool)
    is_crit[at[values[at] == crit]] = True
    has_crit = np.logical_or.reduceat(is_crit, np.flatnonzero(head))
    return np.concatenate((np.repeat(zeros[is_crit], 2), zeros[head][~has_crit]))


def _check_tol(tol) -> float:
    """`tol` as a float in (0, 1e-3]; a `tol` that is no number is a
    TypeError, and any number outside the range, NaN included, fails it."""
    try:
        tol = as_real(tol, "tol")
    except ValueError:   # inf or NaN
        tol = math.nan
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tolerance must lie in (0, 1e-3]")
    return tol


def _assemble(q: int, poly: PolynomialReal, edges: list[float], crit: list[float],
              noise: float, tol: float) -> BandStructure:
    """The band structure from sorted edges and critical points."""
    bands = tuple(Interval(edges[2 * i], edges[2 * i + 1]) for i in range(q))
    for band in bands:
        mid = 0.5 * (band.lo + band.hi)
        if abs(poly(mid)) > 2.0 + max(1e-7, 10 * noise):
            raise RootIsolationError(
                f"band pairing failed: |D({mid})| = {abs(poly(mid))} > 2")
    gaps = tuple(Gap(glo, ghi, closed=(ghi - glo) < tol)
                 for glo, ghi in zip(edges[1:-1:2], edges[2::2]))
    q_interior = IntervalUnion(tuple(   # sorted open bands never merge
        Interval.open(band.lo, band.hi) for band in bands if band.width > 0.0))
    return BandStructure(q, bands, gaps, q_interior,
                         tuple(c for c in crit if edges[0] <= c <= edges[-1]), poly)


@np.errstate(over="ignore", invalid="ignore")  # as silent as float Horner
def band_structure(P: PeriodicJacobi, tol: float = 1e-10) -> BandStructure:
    """Bands, gaps and the q-interior of a periodic Jacobi matrix.

    Band edges are the roots of D -+ 2, isolated to width `tol` by bisection
    over a sample grid that includes the critical points of D; a grid that
    yields the wrong number of roots is replaced by one 4 times finer, up to
    three times.  A gap narrower than `tol` is reported closed and its touch
    region is excluded from the q-interior.  Each grid is evaluated as one
    array Horner pass.
    """
    tol, q = _check_tol(tol), P.q
    poly = discriminant_polynomial(P)
    dcoeffs = poly.derivative().coeffs
    lo_b, hi_b = spectral_bracket(P)
    pad = 0.01 * (hi_b - lo_b) + 1e-6
    lo, hi = lo_b - pad, hi_b + pad
    noise = 64.0 * q * math.ulp(1.0) * poly.abs_bound(max(1.0, abs(lo), abs(hi)))
    edges = []
    for attempt in range(4):
        pts = 64 * q * 4 ** attempt
        grid = lo + (hi - lo) * np.arange(pts + 1) / pts
        # a critical value must resolve to the noise floor
        crit = _critical_points(dcoeffs, grid, min(tol, 1e-10)) if q > 1 else grid[:0]
        if len(crit) == q - 1:
            samples = np.sort(np.concatenate((grid, crit)))
            edges = _edge_roots(poly.coeffs, noise, samples, crit, tol)
            if len(edges) == 2 * q:
                return _assemble(q, poly, sorted(edges.tolist()), crit.tolist(), noise, tol)
    raise RootIsolationError(
        f"expected {2 * q} band edges and {q - 1} critical points, "
        f"found {len(edges)} and {len(crit)} (q={q}, bracket=({lo}, {hi}))")


def _band_edges(group: list[PeriodicJacobi]) -> np.ndarray:
    """The 2q band edges of each block of period q in `group`, ascending, as
    one row per block: the eigenvalues of the periodic (D = 2) and
    antiperiodic (D = -2) q x q matrices, from one `eigvalsh` call on the
    (blocks, 2, q, q) stack of both.

    The corner +-a_q is added to the off-diagonal, not written over it: for
    q = 2 the off-diagonal is a_1 +- a_2, and for q = 1 the corner adds to the
    one entry from both sides, which gives b +- 2 a.  Band j is the pair of
    edges 2j, 2j + 1 and gap j the pair 2j + 1, 2j + 2.  Raises
    OverflowError where an entry or an edge leaves float range.
    """
    q, i = group[0].q, np.arange(group[0].q - 1)
    a, b = np.array([(P.a, P.b) for P in group]).transpose(1, 0, 2)[:, :, None]
    J = np.zeros((len(group), 2, q, q))
    J[..., range(q), range(q)] = b
    J[..., i, i + 1] = J[..., i + 1, i] = a[..., :-1]
    corner = np.stack((a[:, 0, -1], -a[:, 0, -1]), axis=1)
    with np.errstate(over="ignore"):   # q <= 2 only; checked below
        J[..., 0, q - 1] += corner
        J[..., q - 1, 0] += corner
    if np.isfinite(J).all():
        edges = np.sort(np.linalg.eigvalsh(J).reshape(len(group), 2 * q), axis=1)
        if np.isfinite(edges).all():
            return edges
    raise OverflowError(f"the band edges of a q={q} block leave float range")


def gap_report(P: PeriodicJacobi, tol: float = 1e-10) -> GapReport:
    """Open-gap geometry of a periodic block: open gaps, their centers, the
    minimum width, and whether all q-1 gaps are open.

    The gaps lie between consecutive band edges, which are eigenvalues
    (`_band_edges`), exact to rounding; no edge is bisected.  `tol`, in
    (0, 1e-3] as for `band_structure`, only decides which gaps count as
    closed: those narrower than it.
    """
    tol = _check_tol(tol)
    edges = _band_edges([P])[0].tolist()
    gaps = [Gap(lo, hi, closed=(hi - lo) < tol)
            for lo, hi in zip(edges[1:-1:2], edges[2::2])]
    open_gaps = tuple(Interval.open(g.lo, g.hi) for g in gaps if not g.closed)
    centers = tuple(g.center for g in gaps)
    min_width = (0.0 if any(g.closed for g in gaps)
                 else min((g.width for g in gaps), default=0.0))
    all_open = len(open_gaps) == P.q - 1
    return GapReport(open_gaps, centers, min_width, all_open)


def same_discriminant(p1: PeriodicJacobi, p2: PeriodicJacobi,
                      tol: float = 1e-9) -> bool:
    """Whether two periodic blocks share a discriminant, i.e. lie on the same
    isospectral set.  Membership testing is all that is supported here; the
    geometry of that set is out of scope."""
    tol = as_real(tol, "tol")
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

    Band edges are eigenvalues (`_band_edges`), one `eigvalsh` call per
    period, and the sets are intersected in one endpoint sweep; no edge is
    bisected.  A single-member family returns that member's set exactly, up
    to the rounding of its eigenvalues.  `tol`, in (0, 1e-3] as for
    `band_structure`, decides which gaps count as closed (those narrower
    than it: their two bands form one component of the spectrum, as
    `eigvalsh` splits the double root of a closed gap by rounding), and
    which q-interior components are too narrow to keep (8 tol or less).

    The family is treated as an ordered sample of a continuously swept
    one-parameter family: in "qinterior" mode the excluded region of each gap
    slot is the hull of that slot's gap regions over consecutive members, so a
    touch point moving across the sweep excludes the whole segment it sweeps,
    not just the sampled points.
    """
    if not family:
        raise ValueError("family must be nonempty")
    if isinstance(mode, str):
        mode = mode.lower()
    if mode not in ("spectrum", "qinterior"):
        raise ValueError(f"mode must be 'spectrum' or 'qinterior', got {mode!r}")
    tol = _check_tol(tol)
    by_q: dict[int, list[PeriodicJacobi]] = {}
    for P in family:
        by_q.setdefault(P.q, []).append(P)
    if mode == "spectrum":
        los, his = [], []
        for edges in map(_band_edges, by_q.values()):
            # a member's components start and end at its outer edges and open gaps
            ends = np.pad(np.diff(edges)[:, 1::2] >= tol, ((0, 0), (1, 1)),
                          constant_values=True)
            los.append(edges[:, 0::2][ends[:, :-1]])
            his.append(edges[:, 1::2][ends[:, 1:]])
        lo, hi = np.concatenate(los), np.concatenate(his)
        closed = np.ones(len(lo), dtype=bool)
        return _sweep_arrays(lo, hi, closed, closed, len(family))
    if len(by_q) > 1:
        raise ValueError("qinterior intersection needs a family of equal period")
    edges = _band_edges(family)
    lo, hi = edges[:, 0::2].ravel(), edges[:, 1::2].ravel()
    lo, hi = lo[hi > lo], hi[hi > lo]   # the open bands
    glo, ghi = edges[:, 1:-1:2], edges[:, 2::2]
    if len(family) > 1:   # a single member's gap is its own hull
        glo = np.minimum(glo[:-1], glo[1:])
        ghi = np.maximum(ghi[:-1], ghi[1:])
    order = np.argsort(glo, axis=None)
    glo, reach = glo.ravel()[order], np.maximum.accumulate(ghi.ravel()[order])
    # the complement of the hulls: the open stretches no hull reaches
    out_lo, out_hi = np.append(-math.inf, reach), np.append(glo, math.inf)
    out = out_hi > out_lo
    lo, hi = np.concatenate((lo, out_lo[out])), np.concatenate((hi, out_hi[out]))
    closed = np.zeros(len(lo), dtype=bool)
    result = _sweep_arrays(lo, hi, closed, closed, len(family) + 1)
    return IntervalUnion(tuple(iv for iv in result.intervals if iv.width > 8.0 * tol))
