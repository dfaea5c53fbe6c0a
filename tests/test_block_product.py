"""The period block T = A_q ... A_1 and its derivative dT/dz from
`matrix2.block_product`, checked against the same recursion in mpmath at 50
digits and against the one-step chain it replaces; and the a.c.-side readers
of D' (`branch_sign_for_interval`, `strip_margins`) on comb blocks whose
monomial discriminant has lost every digit of D'."""

import math

import numpy as np
import pytest

from jbv import (Matrix2, PeriodicJacobi, band_structure, branch_sign_for_interval,
                 comb_potential, discriminant_value, one_step_matrix, periodic_spec,
                 q_step_block, strip_margins)
from jbv.matrix2 import block_product

mpmath = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps


def mp_block(P, z, dps=50):
    """T and dT/dz as two lists of four mpmath entries, by the recursion run
    at `dps` digits on the exact float coefficients."""
    with mpmath.workdps(dps):
        z = mpmath.mpmathify(z)
        t = [mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)]
        d = [mpmath.mpf(0)] * 4
        for a, b in zip(P.a, P.b):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            p, r = (z - b) / a, -1 / a
            d = [p * d[0] + r * d[2] + t[0] / a, p * d[1] + r * d[3] + t[1] / a,
                 a * d[0], a * d[1]]
            t = [p * t[0] + r * t[2], p * t[1] + r * t[3], a * t[0], a * t[1]]
        return t, d


def random_block(rng, q):
    return PeriodicJacobi.of(q, rng.uniform(0.5, 1.5, q).tolist(),
                             rng.uniform(-1.0, 1.0, q).tolist())


def oracle_bands(P):
    """The q bands of P as consecutive pairs of the sorted eigenvalues of the
    periodic (D = 2) and antiperiodic (D = -2) q x q matrices."""
    J = np.diag(P.b) + np.diag(P.a[:-1], 1) + np.diag(P.a[:-1], -1)
    edges = []
    for corner in (P.a[-1], -P.a[-1]):
        Jc = J.copy()
        Jc[0, -1] = Jc[-1, 0] = corner
        edges.extend(np.linalg.eigvalsh(Jc))
    edges.sort()
    return list(zip(edges[0::2], edges[1::2]))


@pytest.mark.parametrize("q", [8, 16, 32, 64, 128])
def test_trace_and_slope_match_mpmath(q):
    # tolerance 64 q eps max(1, largest entry of T for D, of dT for D'); the
    # largest ratio seen on these blocks and energies is 19.5
    rng = np.random.default_rng(q)
    xs = np.linspace(-3.5, 3.5, 29)
    for P in [comb_potential(q, 0.5)] + [random_block(rng, q) for _ in range(3)]:
        T, dT = block_product(P.a, P.b, xs)
        for x, D, Dp in zip(xs.tolist(), T.trace(), dT.trace()):
            t, d = mp_block(P, x)
            for got, ref in ((D, t), (Dp, d)):
                scale = max(1.0, max(abs(float(v)) for v in ref))
                assert abs(got - float(ref[0] + ref[3])) <= 64 * q * EPS * scale


@pytest.mark.parametrize("q", [32, 64])
def test_branch_sign_matches_oracle_on_every_comb_band(q):
    # the monomial D' behind the old rule flips sign on 20 of the 64 comb
    # q=64 bands
    P = comb_potential(q, 0.5)
    for lo, hi in oracle_bands(P):
        _, d = mp_block(P, 0.5 * (lo + hi))
        assert branch_sign_for_interval(P, lo, hi) == (1 if d[0] + d[3] < 0 else -1)


def test_strip_margins_slope_matches_oracle_on_comb_q64():
    P = comb_potential(64, 0.5)
    for lo, hi in oracle_bands(P)[::9]:
        lo, hi, y_max = lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 0.1 * (hi - lo)
        rep = strip_margins(P, lo, hi, y_max=y_max, nx=5, ny=2)
        _, d = mp_block(P, 0.5 * (lo + hi))
        s = 1 if d[0] + d[3] < 0 else -1
        slopes = [-s * float(mpmath.re(d[0] + d[3]))
                  for x in np.linspace(lo, hi, 5).tolist()
                  for y in (0.0, 0.5 * y_max, y_max)
                  for d in [mp_block(P, mpmath.mpc(x, y))[1]]]
        assert rep["s"] == s
        assert rep["slope_margin"] == pytest.approx(min(slopes), rel=1e-9)
        assert rep["slope_margin"] > 0.0


def test_array_of_energies_matches_scalar_calls():
    # real energies bit for bit; numpy's complex loops may fuse multiply-adds,
    # so complex ones agree to a few ulps of the largest entry
    rng = np.random.default_rng(7)
    for q in (1, 2, 5, 16, 64):
        P = random_block(rng, q)
        xs = rng.uniform(-3.0, 3.0, 20)
        zs = xs + 1j * rng.uniform(-0.5, 0.5, 20)
        for energies in (xs, zs):
            pair = block_product(P.a, P.b, energies)
            for i, z in enumerate(energies.tolist()):
                for M, m in zip(pair, block_product(P.a, P.b, z)):
                    got = [type(z)(np.broadcast_to(e, xs.shape)[i]) for e in M.entries()]
                    if energies is xs:
                        assert repr(got) == repr(list(m.entries()))
                    else:
                        top = max(1.0, max(abs(e) for e in m.entries()))
                        err = max(abs(g - e) for g, e in zip(got, m.entries()))
                        assert err <= 8 * q * EPS * top
        assert repr(discriminant_value(P, xs).tolist()) == repr(
            [discriminant_value(P, x) for x in xs.tolist()])


def test_q_step_block_equals_one_step_chain():
    rng = np.random.default_rng(11)
    for q in (1, 2, 3, 8, 16):
        a, b = rng.uniform(0.5, 1.5, q).tolist(), rng.uniform(-1.0, 1.0, q).tolist()
        spec = periodic_spec(q, a, b)
        for z in (0.3, -1.7, complex(0.4, 0.01), complex(-2.2, 0.3)):
            chain = Matrix2.identity()
            for ai, bi in zip(a, b):
                chain = one_step_matrix(ai, bi, z) @ chain
            assert repr(q_step_block(spec, q, 1, z).Phi) == repr(chain)
            assert repr(discriminant_value(PeriodicJacobi.of(q, a, b), z)) == repr(
                chain.trace())


def test_strip_margins_matches_values_on_comb_q2_band():
    # the values of the per-point loop this array pass replaced
    P = comb_potential(2, 0.5)
    band = band_structure(P).bands[1]
    rep = strip_margins(P, band.lo + 0.2 * band.width, band.hi - 0.2 * band.width)
    old = {"trace_margin": 0.2976764410444199, "slope_margin": 1.2062257747937981,
           "c_lower": 0.8531128873968991, "c_upper": 1.9131050493386246,
           "contraction_slope": 1.1007286385088788}
    assert (rep["s"], rep["t"]) == (-1, 1)
    assert all(type(rep[key]) is int for key in ("s", "t"))
    for key, value in old.items():
        assert type(rep[key]) is float
        assert rep[key] == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("grid", [{"nx": 1}, {"ny": 0}])
def test_strip_margins_rejects_a_grid_without_two_columns_or_a_row(grid):
    with pytest.raises(ValueError, match="nx >= 2 and ny >= 1"):
        strip_margins(comb_potential(2, 0.5), 0.6, 1.2, **grid)


def test_strip_margins_without_upper_rows_has_no_contraction_bound():
    rep = strip_margins(comb_potential(2, 0.5), 0.6, 1.2, y_max=0.0)
    assert rep["contraction_slope"] == math.inf
