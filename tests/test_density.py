import math

import numpy as np
import pytest

from jbv import (ApproximantSpec, OutsideBandError, ac_density,
                 approximant_coefficients, eval_coefficients, explicit_spec,
                 free_spec, m_function, periodic_spec, q_step_block,
                 weyl_solution, wronskian_defect)
from oracles import free_density, free_m, resolvent_density, resolvent_m


def free_aspec(N=0):
    return ApproximantSpec(free_spec(), 1, N)


def random_bv_aspec(rng, n_max=51):
    q = int(rng.integers(1, 4))
    N = int(rng.integers(5, n_max))
    n_pref = (N + 1) * q
    ph1, ph2 = rng.uniform(0, 6, 2)
    a = 1.0 + 0.25 * np.sin(np.arange(1, n_pref + 1) ** 0.45 + ph1)
    b = 0.4 * np.cos(np.arange(1, n_pref + 1) ** 0.38 + ph2)
    return ApproximantSpec(explicit_spec(a, b), q, N)


# ---------------------------------------------------------------------------
# approximant coefficients

def test_approximant_rule():
    base = explicit_spec(np.arange(1.0, 13.0), np.arange(0.0, 12.0))
    aspec = ApproximantSpec(base, 3, 2)
    # agreement on the first (N+1)q entries
    for n in range(1, 10):
        assert approximant_coefficients(aspec, n) == eval_coefficients(base, n)
    # q-periodic extension of block N afterwards
    for n in range(10, 30):
        r = (n - 1) % 3
        assert approximant_coefficients(aspec, n) == eval_coefficients(base, 7 + r)


def test_approximant_periodic_base_is_idempotent():
    base = periodic_spec(2, [1.0, 1.4], [0.3, -0.2])
    aspec = ApproximantSpec(base, 2, 5)
    for n in range(1, 40):
        assert approximant_coefficients(aspec, n) == eval_coefficients(base, n)


# ---------------------------------------------------------------------------
# weyl solutions

def test_weyl_seed_n0():
    u = weyl_solution(free_aspec(0), 0.0 + 0.0j, +1)
    assert u.N == 0
    assert u.values[0] == (u.lam - u.D, u.C)
    assert u.values[0] == (1j, 1.0)  # lam = i, D = 0, C = 1


def test_weyl_free_preserves_magnitudes():
    u = weyl_solution(free_aspec(6), 0.0 + 0.0j, +1)
    for u1, u2 in u.values:
        assert abs(u1) == pytest.approx(1.0, abs=1e-12)
        assert abs(u2) == pytest.approx(1.0, abs=1e-12)


def test_weyl_round_trip_reproduces_seed():
    rng = np.random.default_rng(41)
    for _ in range(10):
        aspec = random_bv_aspec(rng, n_max=21)
        spec = aspec.as_spec()
        blk = q_step_block(spec, aspec.q, aspec.N, 0.1 + 0.0j)
        if abs(complex(blk.Delta).real) > 1.8:
            continue
        u = weyl_solution(aspec, 0.1 + 0.0j, +1)
        v1, v2 = u.values[0]
        for m in range(aspec.N):
            phi = q_step_block(spec, aspec.q, m, 0.1 + 0.0j).Phi
            v1, v2 = phi.e11 * v1 + phi.e12 * v2, phi.e21 * v1 + phi.e22 * v2
        seed = u.values[-1]
        scale = max(abs(seed[0]), abs(seed[1]))
        assert abs(v1 - seed[0]) <= 1e-7 * scale
        assert abs(v2 - seed[1]) <= 1e-7 * scale


def test_wronskian_free_case():
    u = weyl_solution(free_aspec(5), 0.0 + 0.0j, +1)
    # C Im lam = 1 here, and Im(u1 conj u2) = 1 at every index
    assert u.C.real * u.lam.imag == pytest.approx(1.0)
    for u1, u2 in u.values:
        assert (u1 * u2.conjugate()).imag == pytest.approx(1.0, abs=1e-12)
    assert wronskian_defect(u) <= 1e-12


def test_wronskian_exactly_periodic():
    base = periodic_spec(2, [1.0, 1.0], [0.0, 0.5])
    u = weyl_solution(ApproximantSpec(base, 2, 30), 1.2 + 0.0j, +1)
    assert wronskian_defect(u) <= 1e-10


def test_wronskian_mild_bv_n200():
    # small variation keeps every block elliptic at x, so u stays bounded and
    # the defect is tiny in absolute terms
    n_pref = 201 * 2
    a = np.ones(n_pref)
    b = 0.1 * np.cos(np.arange(1, n_pref + 1) ** 0.38)
    aspec = ApproximantSpec(explicit_spec(a, b), 2, 200)
    u = weyl_solution(aspec, 1.0 + 0.0j, +1)
    assert wronskian_defect(u) <= 1e-8


def test_wronskian_scaled_contract_wild_bv():
    # backward growth through hyperbolic prefix blocks scales the rounding
    # error; the defect stays at working precision relative to |u|^2
    rng = np.random.default_rng(42)
    aspec = random_bv_aspec(rng, n_max=201)
    spec = aspec.as_spec()
    x = None
    for cand in np.linspace(-1.5, 1.5, 61):
        blk = q_step_block(spec, aspec.q, aspec.N, complex(cand))
        if abs(complex(blk.Delta).real) < 1.5:
            x = float(cand)
            break
    u = weyl_solution(aspec, complex(x), +1)
    scale = max(1.0, max(abs(u1) * abs(u2) for u1, u2 in u.values))
    assert wronskian_defect(u) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# densities

def test_free_density_values():
    aspec = free_aspec(3)
    assert ac_density(aspec, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)
    assert ac_density(aspec, 1.0) == pytest.approx(math.sqrt(3) / (2 * math.pi), abs=1e-12)


def test_free_density_matches_analytic_on_grid():
    aspec = free_aspec(2)
    for x in np.linspace(-1.95, 1.95, 79):
        assert ac_density(aspec, float(x)) == pytest.approx(
            free_density(float(x)), abs=1e-10)


def test_density_independent_of_n_for_periodic():
    base = periodic_spec(2, [1.0, 1.0], [0.0, 0.5])
    x = 1.3  # inside the upper band of the comb block
    vals = [ac_density(ApproximantSpec(base, 2, N), x) for N in (0, 1, 5, 20)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], abs=1e-9)


def test_density_positive_where_defined():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 30:
        aspec = random_bv_aspec(rng, n_max=31)
        x = float(rng.uniform(-1.5, 1.5))
        try:
            f = ac_density(aspec, x)
        except OutsideBandError:
            continue
        assert f > 0.0
        checked += 1


def test_density_outside_band_raises():
    with pytest.raises(OutsideBandError):
        ac_density(free_aspec(0), 2.5)
    with pytest.raises(OutsideBandError):
        ac_density(free_aspec(0), 2.0)  # band edge is degenerate


def test_density_rejects_bad_branch_sign():
    with pytest.raises(ValueError, match="branch sign"):
        ac_density(free_aspec(0), 0.0, s=0)


def test_density_formula_is_real():
    # the formula evaluated without taking real parts has rounding-level
    # imaginary residue at real energies
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 20:
        aspec = random_bv_aspec(rng, n_max=21)
        x = float(rng.uniform(-1.2, 1.2))
        try:
            u = weyl_solution(aspec, complex(x), +1)
        except Exception:
            continue
        value = -(u.C * u.lam.imag) / (math.pi * abs(u.u0[1]) ** 2)
        assert abs(value.imag) <= 1e-10 * (1.0 + abs(value.real))
        checked += 1


def test_density_matches_resolvent_oracle():
    aspec = ApproximantSpec(periodic_spec(2, [1.0, 1.0], [0.0, 0.5]), 2, 3)
    x = 1.3
    f = ac_density(aspec, x)
    assert f == pytest.approx(resolvent_density(aspec, x), rel=1e-3)


# ---------------------------------------------------------------------------
# m-function

def test_m_function_free_large_y():
    aspec = free_aspec(0)
    for y in (10.0, 50.0):
        m = m_function(aspec, 1j * y)
        assert m == pytest.approx(1j / y, rel=2e-2)
        assert m == pytest.approx(free_m(1j * y), rel=1e-12)
        assert m == pytest.approx(resolvent_m(aspec, 1j * y, size=2000), rel=1e-9)


def test_m_function_boundary_converges_to_density():
    aspec = ApproximantSpec(periodic_spec(2, [1.0, 1.0], [0.0, 0.5]), 2, 2)
    x = 1.3
    f = ac_density(aspec, x)
    errs = []
    for eps in (1e-2, 1e-4, 1e-6):
        m = m_function(aspec, x + 1j * eps)
        errs.append(abs(m.imag / math.pi - f))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-5


def test_m_function_is_herglotz():
    rng = np.random.default_rng(45)
    aspec = random_bv_aspec(rng, n_max=21)
    for _ in range(40):
        z = complex(rng.uniform(-2, 2), 10 ** rng.uniform(-3, 0))
        m = m_function(aspec, z)
        assert m.imag > 0.0
        ref = resolvent_m(aspec, z)
        assert m == pytest.approx(ref, rel=1e-5)


def test_m_function_requires_upper_half_plane():
    with pytest.raises(ValueError):
        m_function(free_aspec(0), 1.0 + 0.0j)


def test_weyl_degenerate_block_raises():
    from jbv import DegenerateBlockError
    with pytest.raises(DegenerateBlockError):
        weyl_solution(free_aspec(2), 2.0 + 0.0j, +1)
