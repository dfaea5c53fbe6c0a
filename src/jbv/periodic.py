"""Discriminants and band structures of periodic Jacobi matrices.

A two-sided q-periodic Jacobi matrix has spectrum {x : D(x) in [-2, 2]} where
D is the trace of its q-step transfer matrix.  That set splits into q closed
bands; the band interiors form the q-interior, which drops a finite set of
touch points where consecutive bands meet (closed gaps).  This module computes
D exactly as a degree-q polynomial; `band_structure` and
`intersection_over_family` isolate every band edge by bisection and classify
closed gaps through the critical points of D.  `gap_report` bisects nothing:
the 2q roots of D = +-2 are the spectra of the periodic and antiperiodic q x q
matrices (`_band_edges`), exact to rounding at every q.  Until the band
solver is built on the same eigenvalues, the two paths agree only to the
bisection tolerance, and only where bisection finds every edge.

A family of blocks is solved at once: blocks of one period are stacked on a
leading member axis through every stage (discriminant products, grid passes,
sign-change and noise-floor scans, bisection), and each member comes out bit
for bit as it does alone.  `band_structure` is the one-member family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import (CoefficientSpec, as_int, check_params, params_errors,
                     periodic_spec)
from .errors import RootIsolationError
from .intervals import Interval, IntervalUnion, _complement, _sweep
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
    meets (a member with an infinite entry is non-finite either way)."""
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
    one-step matrices with polynomial entries.  The entries of a and b are
    floats, or member vectors (one site of every block in a stack), which get
    the same operations in the same order."""
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
    poly = _discriminants([P])[0]
    if isinstance(poly, OverflowError):
        raise poly
    return poly


def spectral_bracket(P: PeriodicJacobi) -> tuple[float, float]:
    """Crude enclosure of the spectrum: [min b - 2 max a, max b + 2 max a]."""
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


# Crossovers measured on a 2-vCPU VM, where the array forms cost about as much
# as the float forms below them: stacks of fewer blocks than STACK_MIN build
# their discriminants one block at a time (crossover 5 to 10 blocks for
# q = 3 to 16), and fewer brackets than BISECT_MIN are bisected one at a time
# (crossover 24 to 40 brackets for q = 3 and 8).
STACK_MIN = 8
BISECT_MIN = 32
# memory bounds: a stack holds at most _CELLS grid samples, or one member (its
# finest grid has 64 q 4^3 + 1 samples), and one array bisection at most
# _BRACKETS brackets
_CELLS = 1 << 17
_BRACKETS = 1 << 12


def _discriminants(group: list[PeriodicJacobi]) -> list:
    """`discriminant_polynomial` of each block of period q, or the error it
    raises; a stack of blocks is built as member vectors."""
    if len(group) < STACK_MIN:
        rows = [_discriminant_coeffs(P.a, P.b) for P in group]
    else:
        a, b = np.array([(P.a, P.b) for P in group]).transpose(1, 2, 0)
        rows = np.array(_discriminant_coeffs(a, b)).T.tolist()
    return [PolynomialReal(tuple(row)) if all(map(math.isfinite, row)) else
            OverflowError(f"the discriminant of a q={P.q} block leaves float range")
            for P, row in zip(group, rows)]


def _bisect(coeffs: np.ndarray, rows: np.ndarray, shift: np.ndarray,
            lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, fhi: np.ndarray,
            tol: float) -> np.ndarray:
    """Roots of coeffs[rows[i]] - shift[i] in the brackets, as bisect_root
    finds them (x - 0.0 is x, so a zero shift changes no value)."""
    if len(lo) >= BISECT_MIN:
        return np.concatenate([
            bisect_roots(coeffs[rows[part]], shift[part], lo[part], hi[part], flo[part],
                         fhi[part], tol)
            for part in (slice(i, i + _BRACKETS) for i in range(0, len(lo), _BRACKETS))])
    polys = coeffs.tolist()
    brackets = zip(rows.tolist(), shift.tolist(), lo.tolist(), hi.tolist(), flo.tolist(),
                   fhi.tolist())
    return np.array([bisect_root(lambda x, c=polys[r], t=t: horner(c, x, t),
                                 a, b, fa, fb, tol) for r, t, a, b, fa, fb in brackets])


def _rows_horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i of coeffs evaluated along row i of x.  A single row runs on float
    coefficients: numpy broadcasts a (1, 1) column slower than a float."""
    if len(coeffs) == 1:
        return horner(coeffs[0].tolist(), x)
    return horner(coeffs.T[:, :, None], x)


def _critical_points(dcoeffs: np.ndarray, grid: np.ndarray,
                     tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots of each row's D' from strict sign changes along its grid row,
    bisected to width tol, as (member row, root) in member and grid order.

    A sample where D' is exactly zero is a root itself, unless it lies within
    tol of the member's root before it.
    """
    width = grid.shape[1]
    vals = _rows_horner(dcoeffs, grid).ravel()
    samples = grid.ravel()
    zero = vals == 0.0
    cand = zero.copy()
    cand[:-1] |= sign_changes(vals)   # segment i is (i, i+1)
    cand[width - 1::width] = zero[width - 1::width]   # no segment joins two members
    at = np.flatnonzero(cand)
    roots, on_zero = samples[at], zero[at]
    b = at[~on_zero]
    if len(b):
        roots[~on_zero] = _bisect(dcoeffs, b // width, np.zeros(len(b)), samples[b],
                                  samples[b + 1], vals[b], vals[b + 1], tol)
    rows = at // width
    if len(b) == len(at):
        return rows, roots
    keep = np.ones(len(at), dtype=bool)
    last = None   # the member's latest root so far
    for k, (row, root, z) in enumerate(zip(rows.tolist(), roots.tolist(),
                                           on_zero.tolist())):
        if z and last is not None and last[0] == row and not abs(last[1] - root) > tol:
            keep[k] = False
        else:
            last = (row, root)
    return rows[keep], roots[keep]


_EPS = np.finfo(float).eps
_TARGETS = np.array([[2.0], [-2.0]])   # D - 2 and D + 2


def _edge_roots(coeffs: np.ndarray, noise: np.ndarray, merged: np.ndarray,
                crit: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """All roots of D = +2 and D = -2, with multiplicity, of every member row,
    as (member row, root) in member order.

    Row i of `merged` is member i's grid merged with its critical points
    `crit[i]`, sorted; a critical point that equals a grid point is a sample
    twice, which changes nothing here, as the copies have one value.  Double
    roots cannot produce sign changes, but they sit exactly at critical
    points of D with |D| = 2 there, so each critical value within the
    evaluation noise floor of +-2 is registered as a double root, and no
    segment next to a sample below the noise floor is bisected.
    """
    width = merged.shape[1]
    samples = merged.ravel()
    # axes: member, target, sample
    vals = _rows_horner(coeffs, merged)[:, None, :] - _TARGETS
    near = np.abs(vals) <= noise[:, None, None]
    vals = vals.ravel()
    seg = sign_changes(vals)   # segment i is (i, i+1)
    seg[width - 1::width] = False   # no segment joins two members or targets
    zeros = near.any()
    if zeros:
        seg &= ~(near.ravel()[:-1] | near.ravel()[1:])
    seg = np.flatnonzero(seg)
    flo, fhi = vals[seg], vals[seg + 1]
    del vals   # a large grid keeps one array of values at a time
    rows, pos = np.divmod(seg, 2 * width)
    target, pos = np.divmod(pos, width)
    pos += rows * width
    edges = _bisect(coeffs, rows, _TARGETS.ravel()[target], samples[pos],
                    samples[pos + 1], flo, fhi, tol)
    if not zeros:
        return rows, edges
    spread = 1e-9 * (merged[:, -1] - merged[:, 0])
    cluster_tol = np.where(spread > 4.0 * tol, spread, 4.0 * tol)
    at = np.concatenate([_zero_roots(near[:, t], samples, cluster_tol, crit)
                         for t in (0, 1)])
    rows = np.concatenate((at // width, rows))
    order = np.argsort(rows, kind="stable")
    return rows[order], np.concatenate((samples[at], edges))[order]


def _zero_roots(near: np.ndarray, samples: np.ndarray, cluster_tol: np.ndarray,
                crit: np.ndarray) -> np.ndarray:
    """The samples (flat indices) that are roots of D = target, a double root
    twice, where `near` marks the samples with D - target below the noise
    floor, one row per member.

    The same root can put several samples below the noise floor (the located
    critical point plus grid neighbors), so zero samples of one member that
    are adjacent or closer than the resolution form one cluster: a double
    root at each critical point in it, else a root at its first sample.
    """
    zeros = np.flatnonzero(near)
    if not zeros.size:
        return zeros
    rows, values = zeros // near.shape[1], samples[zeros]
    head = np.diff(values) > cluster_tol[rows[1:]]
    head &= np.diff(zeros) != 1
    head |= rows[1:] != rows[:-1]
    head = np.append(True, head)
    is_crit = _on_critical_points(values, rows, crit)
    has_crit = np.logical_or.reduceat(is_crit, np.flatnonzero(head))
    return np.concatenate((np.repeat(zeros[is_crit], 2), zeros[head][~has_crit]))


def _on_critical_points(values: np.ndarray, rows: np.ndarray,
                        crit: np.ndarray) -> np.ndarray:
    """Which values are critical points of their member row, where values are
    sorted within each row and rows are grouped.  A critical point that is a
    sample twice (it equals a grid point) marks only its first copy."""
    out = np.zeros(len(values), dtype=bool)
    if not crit.shape[1]:
        return out
    starts = np.flatnonzero(np.append(True, rows[1:] != rows[:-1])).tolist()
    for i, j in zip(starts, starts[1:] + [len(values)]):   # one member's values
        row_crit = crit[rows[i]]
        at = np.searchsorted(values[i:j], row_crit)
        row_crit, at = row_crit[at < j - i], at[at < j - i]
        out[i + at[values[i + at] == row_crit]] = True
    return out


def _check_tol(tol: float) -> None:
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tolerance must lie in (0, 1e-3]")


@np.errstate(over="ignore", invalid="ignore")  # as silent as float Horner
def _band_structures(family: list[PeriodicJacobi], tol: float) -> list[BandStructure]:
    """The band structure of each block of a family, each bit for bit what
    the block gives alone, from one set of array passes per period: every
    stage runs over a leading member axis, and members whose root counts
    come out wrong go on to a finer grid together.

    A family whose members fail raises the first failing member's error.
    """
    _check_tol(tol)
    out: list = [None] * len(family)
    by_q: dict[int, list[int]] = {}
    for k, P in enumerate(family):
        by_q.setdefault(P.q, []).append(k)
    for q, idx in by_q.items():
        for k, result in zip(idx, _period_structures(q, [family[k] for k in idx], tol)):
            out[k] = result
    for result in out:
        if isinstance(result, Exception):
            raise result
    return out


def _period_structures(q: int, group: list[PeriodicJacobi], tol: float) -> list:
    """Band structures of blocks of period q, or the error each one raises."""
    out = _discriminants(group)
    live, dpolys, brackets = [], [], []
    scale = 64.0 * q * _EPS
    for k, (P, poly) in enumerate(zip(group, out)):
        if isinstance(poly, OverflowError):
            continue
        try:
            dpolys.append(poly.derivative())
        except OverflowError as exc:
            out[k] = exc
            continue
        live.append(k)
        lo_b, hi_b = spectral_bracket(P)
        pad = 0.01 * (hi_b - lo_b) + 1e-6
        lo, hi = lo_b - pad, hi_b + pad
        brackets.append((lo, hi, scale * out[k].abs_bound(max(1.0, abs(lo), abs(hi)))))
    if not live:
        return out
    found = _isolate(q, np.array([out[k].coeffs for k in live]),
                     np.array([d.coeffs for d in dpolys]), *np.array(brackets).T, tol)
    for k, (lo, hi, noise), (edges, crit) in zip(live, brackets, found):
        if not isinstance(edges, list):
            out[k] = RootIsolationError(
                f"expected {2 * q} band edges and {q - 1} critical points, "
                f"found {edges or 0} and {crit} (q={q}, bracket=({lo}, {hi}))")
            continue
        try:
            out[k] = _assemble(q, out[k], edges, crit, noise, tol)
        except (ValueError, RootIsolationError) as exc:
            out[k] = exc
    return out


def _isolate(q: int, coeffs: np.ndarray, dcoeffs: np.ndarray, lo: np.ndarray,
             hi: np.ndarray, noise: np.ndarray, tol: float, attempt: int = 0) -> list:
    """Sorted band edges and critical points of each row's discriminant on
    grid number `attempt`; rows that come out with wrong counts retry on the
    next, finer grid, and after the last one hold the counts found instead
    (no edge count where the critical points were already wrong)."""
    pts = 64 * q * (4 ** attempt)
    step = max(1, _CELLS // (pts + q))
    if len(lo) > step:
        return [found for i in range(0, len(lo), step)
                for found in _isolate(q, coeffs[i:i + step], dcoeffs[i:i + step],
                                      lo[i:i + step], hi[i:i + step], noise[i:i + step],
                                      tol, attempt)]
    grid = lo[:, None] + (hi - lo)[:, None] * np.arange(pts + 1) / pts
    if q > 1:   # a critical value must resolve to the noise floor
        crit_rows, crit = _critical_points(dcoeffs, grid, min(tol, 1e-10))
    else:
        crit_rows, crit = np.zeros(0, dtype=int), np.zeros(0)
    n_crit = np.bincount(crit_rows, minlength=len(lo)).tolist()
    if n_crit.count(q - 1) < len(n_crit):
        ok = np.array(n_crit) == q - 1
        crit, grid = crit[ok[crit_rows]], grid[ok]
        coeffs_ok, noise_ok = coeffs[ok], noise[ok]
    else:
        coeffs_ok, noise_ok = coeffs, noise
    crit = crit.reshape(len(grid), q - 1)
    grid = np.concatenate((grid, crit), axis=1)   # the samples
    grid.sort(axis=1)
    edge_rows, edges = _edge_roots(coeffs_ok, noise_ok, grid, crit, tol)
    n_edges = iter(np.bincount(edge_rows, minlength=len(grid)).tolist())
    crit, edges = crit.ravel().tolist(), edges.tolist()
    found: list = []
    c = e = 0   # where the row's critical points and edges start
    for n in n_crit:
        if n != q - 1:
            found.append((None, n))
            continue
        m = next(n_edges)
        found.append((sorted(edges[e:e + m]), crit[c:c + n]) if m == 2 * q else (m, n))
        c, e = c + n, e + m
    retry = [j for j, (got, _) in enumerate(found) if not isinstance(got, list)]
    if retry and attempt < 3:
        sel = np.array(retry)
        for j, (got, n) in zip(retry, _isolate(q, coeffs[sel], dcoeffs[sel], lo[sel],
                                               hi[sel], noise[sel], tol, attempt + 1)):
            found[j] = (found[j][0], n) if got is None else (got, n)
    return found


def _assemble(q: int, poly: PolynomialReal, edges: list[float], crit: list[float],
              noise: float, tol: float) -> BandStructure:
    """A member's band structure from its sorted edges and critical points."""
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


def band_structure(P: PeriodicJacobi, tol: float = 1e-10) -> BandStructure:
    """Bands, gaps and the q-interior of a periodic Jacobi matrix.

    Band edges are the roots of D -+ 2, isolated to width `tol` by bisection
    over a sample grid that includes the critical points of D.  A gap narrower
    than `tol` is reported closed and its touch region is excluded from the
    q-interior.  Each grid is evaluated as one array Horner pass.
    """
    return _band_structures([P], tol)[0]


def _band_edges(P: PeriodicJacobi) -> np.ndarray:
    """The 2q band edges of P, ascending: the eigenvalues of the periodic
    (D = 2) and antiperiodic (D = -2) q x q matrices, from one `eigvalsh`
    call on the stack of both.

    The corner +-a_q is added to the off-diagonal, not written over it: for
    q = 2 the off-diagonal is a_1 +- a_2, and for q = 1 the corner adds to the
    one entry from both sides, which gives b +- 2 a.  Band j is the pair of
    edges 2j, 2j + 1 and gap j the pair 2j + 1, 2j + 2.
    """
    q, i = P.q, np.arange(P.q - 1)
    J = np.zeros((2, q, q))
    J[:, range(q), range(q)] = P.b
    J[:, i, i + 1] = J[:, i + 1, i] = P.a[:-1]
    corner = (P.a[-1], -P.a[-1])
    J[:, 0, q - 1] += corner
    J[:, q - 1, 0] += corner
    return np.sort(np.linalg.eigvalsh(J), axis=None)


def gap_report(P: PeriodicJacobi, tol: float = 1e-10) -> GapReport:
    """Open-gap geometry of a periodic block: open gaps, their centers, the
    minimum width, and whether all q-1 gaps are open.

    The gaps lie between consecutive band edges, which are eigenvalues
    (`_band_edges`), exact to rounding; no edge is bisected.  `tol`, in
    (0, 1e-3] as for `band_structure`, only decides which gaps count as
    closed: those narrower than it.
    """
    _check_tol(tol)
    edges = _band_edges(P).tolist()
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
    structs = _band_structures(family, tol)
    if mode == "spectrum":   # the spectra, like the q-interiors, are canonical
        return _sweep([bs.spectrum for bs in structs])
    q = structs[0].q
    if any(bs.q != q for bs in structs):
        raise ValueError("qinterior intersection needs a family of equal period")
    hulls: list[Interval] = []
    for j in range(q - 1):
        regions = [(bs.gaps[j].lo, bs.gaps[j].hi) for bs in structs]
        # a single member's gap is its own hull
        for (lo0, hi0), (lo1, hi1) in zip(regions, regions[1:] or regions):
            hulls.append(Interval(min(lo0, lo1), max(hi0, hi1)))
    result = _sweep([bs.q_interior for bs in structs]
                    + [_complement(IntervalUnion.of(hulls))])
    # band edges are only resolved to +-tol, so components narrower than that
    # resolution are bisection noise, not set content
    return IntervalUnion(tuple(iv for iv in result.intervals if iv.width > 8.0 * tol))
