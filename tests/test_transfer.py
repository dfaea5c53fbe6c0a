import math
import re

import numpy as np
import pytest

from jbv import (ApproximantSpec, DegenerateBlockError, GrowthScanner, Matrix2,
                 NonDiagonalizableFrameError, PeriodicJacobi, band_structure,
                 branch_sign_for_interval, comb_potential, constant_spec,
                 coupling_series, discriminant_value, eigen_branch,
                 explicit_spec, free_spec, m_function, periodic_spec,
                 q_step_block, slow_cosine_spec, strip_margins,
                 transfer_product, weyl_branch_sign, weyl_solution)
from jbv.matrix2 import block_product, one_step_matrix
from jbv.transfer import transfer_scan
from oracles import naive_product, per_block_coupling_series


def test_block_free_q2_is_minus_identity():
    blk = q_step_block(free_spec(), 2, 3, 0.0)
    assert (blk.Phi - Matrix2(-1.0, 0.0, 0.0, -1.0)).max_abs() < 1e-14
    assert blk.Delta == pytest.approx(-2.0)


def test_block_q1_single_factor():
    alpha, beta = 1.5, 0.25
    spec = constant_spec(alpha, beta)
    for z in (0.7, -1.3):
        blk = q_step_block(spec, 1, 2, z)
        assert blk.A == pytest.approx((z - beta) / alpha)
        assert blk.Delta == pytest.approx((z - beta) / alpha)
        assert blk.C == pytest.approx(alpha)


def test_block_matches_discriminant():
    P = comb_potential(2, 0.5)
    blk = q_step_block(P.as_spec(), 2, 0, 1.0)
    assert blk.Delta == pytest.approx(-1.5, abs=1e-14)
    assert blk.Delta == pytest.approx(discriminant_value(P, 1.0), abs=1e-14)


def test_block_det_and_reality_randomized():
    rng = np.random.default_rng(31)
    for _ in range(300):
        q = int(rng.integers(1, 5))
        spec = periodic_spec(q, 0.5 + 1.5 * rng.random(q), -1 + 2 * rng.random(q))
        x = float(rng.uniform(-4, 4))
        blk = q_step_block(spec, q, int(rng.integers(0, 3)), x)
        assert abs(abs(blk.Phi.det()) - 1.0) <= 1e-10
        assert blk.Phi.is_real(1e-12)


def test_transfer_product_single_factor():
    spec = periodic_spec(2, [1.3, 0.7], [0.2, -0.4])
    t = transfer_product(spec, 3, 3, 0.9).to_matrix2()
    assert t.e11 == pytest.approx((0.9 - 0.2) / 1.3)
    assert t.e21 == pytest.approx(1.3)


def test_transfer_product_free_rotation():
    t = transfer_product(free_spec(), 5, 500, 0.0)
    assert t.op_norm() == pytest.approx(1.0, abs=1e-12)
    assert abs(t.log_abs_det()) < 1e-10


def test_transfer_matches_naive_product():
    spec = slow_cosine_spec(0.5, 0.4)
    for (m, n, x) in ((1, 40, 0.3), (7, 300, 1.1), (2, 120, -2.2)):
        ours = transfer_product(spec, m, n, x).to_matrix2()
        ref = naive_product(spec, m, n, x)
        ours_arr = np.array([[ours.e11, ours.e12], [ours.e21, ours.e22]])
        assert np.max(np.abs(ours_arr - ref)) <= 1e-8 * (1 + np.max(np.abs(ref)))


def test_semigroup_property():
    spec = slow_cosine_spec(0.7, 0.45)
    rng = np.random.default_rng(32)
    for _ in range(20):
        m = int(rng.integers(1, 50))
        k = m + int(rng.integers(0, 100))
        n = k + 1 + int(rng.integers(0, 100))
        x = float(rng.uniform(-3, 3))
        whole = transfer_product(spec, m, n, x)
        left = transfer_product(spec, k + 1, n, x)
        right = transfer_product(spec, m, k, x)
        comp = left @ right
        diff = (comp.to_matrix2() - whole.to_matrix2()).max_abs()
        assert diff <= 1e-8 * (1.0 + whole.op_norm())


def test_long_product_unimodular():
    spec = slow_cosine_spec(0.5, 0.4)
    t = transfer_product(spec, 1, 10 ** 5, 0.7)
    assert abs(t.log_abs_det()) <= 1e-8


def test_complex_energy_product():
    spec = free_spec()
    t = transfer_product(spec, 1, 50, 0.5 + 0.2j).to_matrix2()
    ref = np.eye(2, dtype=complex)
    for _ in range(50):
        ref = np.array([[0.5 + 0.2j, -1.0], [1.0, 0.0]]) @ ref
    ours = np.array([[t.e11, t.e12], [t.e21, t.e22]])
    assert np.max(np.abs(ours - ref)) <= 1e-9 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# eigen decomposition

def test_eigen_branch_at_zero_trace():
    blk = q_step_block(free_spec(), 1, 0, 0.0)
    d = eigen_branch(blk, +1)
    assert d.lam == pytest.approx(1j)
    assert d.lam_inv == pytest.approx(-1j)
    assert d.lam * d.lam_inv == pytest.approx(1.0, abs=1e-12)


def test_eigen_branch_unit_modulus_inside_band():
    rng = np.random.default_rng(33)
    for _ in range(100):
        x = float(rng.uniform(-1.9, 1.9))
        blk = q_step_block(free_spec(), 1, 0, x)
        for s in (1, -1):
            d = eigen_branch(blk, s)
            assert abs(d.lam) == pytest.approx(1.0, abs=1e-12)
            assert d.lam.imag == pytest.approx(s * math.sqrt(4 - x * x) / 2, rel=1e-12)


def test_eigen_reconstruction_randomized():
    rng = np.random.default_rng(34)
    done = 0
    while done < 200:
        q = int(rng.integers(1, 4))
        P = PeriodicJacobi.of(q, 0.5 + 1.5 * rng.random(q), -1 + 2 * rng.random(q))
        bs = band_structure(P)
        mid = 0.5 * (bs.bands[0].lo + bs.bands[0].hi)
        if abs(bs.discriminant(mid)) > 1.9:
            continue
        blk = q_step_block(P.as_spec(), q, 0, complex(mid))
        d = eigen_branch(blk, -1)
        rec = d.U @ Matrix2(d.lam, 0.0, 0.0, d.lam_inv) @ d.U_inv
        assert (rec - blk.Phi).max_abs() <= 1e-9
        assert abs(d.lam * d.lam_inv - 1.0) <= 1e-10
        done += 1


def test_eigen_branch_degenerate_errors():
    blk = q_step_block(free_spec(), 1, 0, 2.0)  # Delta = 2 exactly
    with pytest.raises(DegenerateBlockError):
        eigen_branch(blk, +1)
    # a block with C = 0: build directly
    from jbv.transfer import QStepBlock
    blk0 = QStepBlock(0, Matrix2(0.5, 1.0, 0.0, 2.0), 0.0)
    with pytest.raises(NonDiagonalizableFrameError):
        eigen_branch(blk0, +1)


def test_trace_leaves_real_segment_off_axis():
    rng = np.random.default_rng(35)
    for _ in range(200):
        q = int(rng.integers(1, 5))
        P = PeriodicJacobi.of(q, 0.5 + 1.5 * rng.random(q), -1 + 2 * rng.random(q))
        z = complex(rng.uniform(-4, 4), float(rng.choice([-1, 1])) * 10 ** rng.uniform(-3, 0))
        d = complex(discriminant_value(P, z))
        assert not (abs(d.imag) <= 1e-12 and abs(d.real) <= 2.0)


def test_derivative_nonzero_inside_bands():
    rng = np.random.default_rng(36)
    for _ in range(50):
        q = int(rng.integers(2, 5))
        P = PeriodicJacobi.of(q, 0.5 + rng.random(q), -1 + 2 * rng.random(q))
        bs = band_structure(P)
        dpoly = bs.discriminant.derivative()
        for x in np.linspace(bs.bands[0].lo - 1, bs.bands[-1].hi + 1, 120):
            if abs(bs.discriminant(x)) < 2.0 - 1e-6:
                assert abs(dpoly(x)) > 0.0


def test_contracting_branch_in_upper_strip():
    P = comb_potential(2, 0.5)
    bs = band_structure(P)
    band = bs.bands[1]
    lo, hi = band.lo + 0.2 * band.width, band.hi - 0.2 * band.width
    assert branch_sign_for_interval(P, lo, hi) in (-1, 1)
    spec = P.as_spec()
    ratios = []
    for x in np.linspace(lo, hi, 11):
        for y in (1e-4, 1e-3, 1e-2, 5e-2):
            blk = q_step_block(spec, 2, 0, complex(x, y))
            d = eigen_branch(blk, weyl_branch_sign(blk))
            assert abs(d.lam) <= 1.0 + 1e-12
            ratios.append((1.0 - abs(d.lam)) / y)
    assert min(ratios) > 0.0  # |lam| <= 1 - c y for a fitted c > 0


# ---------------------------------------------------------------------------
# coupling series

def test_coupling_vanishes_for_periodic():
    spec = periodic_spec(2, [1, 1], [0.0, 0.5])
    cs = coupling_series(spec, 2, 0.25 + 0.0j, range(0, 6), +1)
    assert max(w.max_abs() for w in cs.W) <= 1e-14
    assert cs.partial_l2[-1] <= 1e-28
    assert cs.block_entries(0) == (0.0, 0.0, 0.0, 0.0)


def test_coupling_partial_sums_monotone_and_bounded():
    spec = slow_cosine_spec(0.5, 0.4)
    cs = coupling_series(spec, 1, 0.0 + 0.0j, range(0, 10 ** 4), +1)
    sums = cs.partial_l2
    assert all(s2 >= s1 for s1, s2 in zip(sums, sums[1:]))
    # frozen regression baseline for this spec, energy and window
    assert sums[-1] == pytest.approx(0.02649206588241908, rel=1e-9)
    # saturating tail: the second half adds far less than the first half
    first, second = sums[len(sums) // 2], sums[-1] - sums[len(sums) // 2]
    assert second < 0.05 * first


def test_coupling_reports_offending_block():
    spec = free_spec()
    with pytest.raises(DegenerateBlockError, match="m="):
        coupling_series(spec, 1, 2.0 + 0.0j, range(0, 3), +1)


@pytest.mark.parametrize("m_range", [range(10, 20, 2), range(20, 10, -1)])
def test_coupling_on_stepped_and_descending_ranges(m_range):
    # a stepped or descending range used to fail with a bare KeyError
    spec = slow_cosine_spec(0.5, 0.4)
    step1 = coupling_series(spec, 1, 0.3 + 0.0j, range(0, 25), +1)
    cs = coupling_series(spec, 1, 0.3 + 0.0j, m_range, +1)
    assert cs.m_start == m_range[0] and len(cs.W) == len(m_range)
    for w, m in zip(cs.W, m_range):
        assert w == step1.W[m]


def test_coupling_names_degenerate_block_on_a_descending_range():
    with pytest.raises(DegenerateBlockError, match="at block m=2:"):
        coupling_series(free_spec(), 1, 2.0 + 0.0j, range(4, 0, -2), +1)


def _staircase_level2_case():
    from jbv import build_schedule, staircase_comb_spec
    sched = build_schedule(2, 0.5, levels=2, growth_margin=1.1,
                           cap=10 ** 6, mode="empirical")
    n_blocks = sched.horizon // sched.q
    return (staircase_comb_spec(sched), sched.q, complex(1.2),
            range(0, n_blocks - 1), -1)


COUPLING_CASES = {
    "cosine q=1 real": lambda: (slow_cosine_spec(0.5, 0.4), 1, 0.3, range(0, 3000), 1),
    "cosine q=1 at 0": lambda: (slow_cosine_spec(0.5, 0.4), 1, 0.0, range(0, 3000), -1),
    "cosine q=1 off axis": lambda: (slow_cosine_spec(0.5, 0.4), 1, 0.3 + 0.05j,
                                    range(0, 3000), 1),
    "cosine q=3 stepped": lambda: (slow_cosine_spec(0.5, 0.4), 3, 0.3,
                                   range(5, 900, 3), -1),
    "cosine q=3 stepped off axis": lambda: (slow_cosine_spec(0.5, 0.4), 3, 0.3 + 0.05j,
                                            range(5, 900, 3), -1),
    "staircase level 2": _staircase_level2_case,
    "descending": lambda: (slow_cosine_spec(0.5, 0.4), 2, 0.7, range(400, 0, -1), 1),
}


@pytest.mark.parametrize("case", sorted(COUPLING_CASES))
def test_coupling_series_matches_the_per_block_reference(case):
    spec, q, z, m_range, s = COUPLING_CASES[case]()
    cs = coupling_series(spec, q, z, m_range, s)
    ref = per_block_coupling_series(spec, q, z, m_range, s)
    assert cs.m_start == ref.m_start and len(cs.W) == len(ref.W) == len(m_range)
    assert isinstance(cs.W, tuple) and isinstance(cs.partial_l2, tuple)
    assert all(type(w) is Matrix2 for w in cs.W)
    assert all(type(e) is complex for w in cs.W for e in w.entries())
    assert all(type(v) is float for v in cs.partial_l2)
    if complex(z).imag == 0.0:
        # the same operations in the same order: equal to the last bit
        assert [repr(w) for w in cs.W] == [repr(w) for w in ref.W]
    else:
        # numpy's complex multiply and divide may round differently from
        # Python's; bound each entry by the frames' conditioning
        eps = np.finfo(float).eps
        for m, w, w_ref in zip(m_range, cs.W, ref.W):
            u_inv = eigen_branch(q_step_block(spec, q, m, z), s).U_inv
            u = eigen_branch(q_step_block(spec, q, m + 1, z), s).U
            tol = 64 * eps * (1.0 + u_inv.op_norm() * u.op_norm())
            assert max(abs(x - y) for x, y in zip(w.entries(), w_ref.entries())) <= tol
    np.testing.assert_allclose(cs.partial_l2, ref.partial_l2, rtol=1e-13, atol=0.0)


def test_coupling_series_names_the_lowest_failing_block_like_the_reference():
    # block 1 has C = 0 at z = 0 (singular frame only); block 2 is the free
    # block, which both collapses (Delta = -2) and has C = 0
    a = [1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    b = [0.5, 0.3, 0.0, 0.0, 0.0, 0.0, 0.2, 0.4, 0.1, 0.6]
    spec = explicit_spec(a, b)
    for m_range, kind, at in [(range(0, 3), NonDiagonalizableFrameError, "m=1:"),
                              (range(2, 3), DegenerateBlockError, "m=2:"),
                              (range(3, 0, -1), NonDiagonalizableFrameError, "m=1:")]:
        with pytest.raises(kind, match=f"^at block {at}") as new:
            coupling_series(spec, 2, 0.0, m_range, 1)
        with pytest.raises(kind) as ref:
            per_block_coupling_series(spec, 2, 0.0, m_range, 1)
        assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("args, error, message", [
    ((1, 0.3, range(-1, 3), 1), ValueError, "m must be an integer >= 0"),
    ((1, 0.3, range(0, 3), 0), ValueError, "branch sign must be"),
    ((1, 0.3, range(0), 1), ValueError, "m_range must be nonempty"),
    ((0, 0.3, range(0, 3), 1), ValueError, "q must be an integer >= 1"),
    ((1.5, 0.3, range(0, 3), 1), TypeError, "q must be an integer"),
    ((1, math.nan, range(0, 3), 1), ValueError, "energy z must be finite"),
    ((1, math.inf, range(0, 3), 1), ValueError, "energy z must be finite"),
    ((1, complex(0.3, math.nan), range(0, 3), 1), ValueError, "energy z must be finite"),
])
def test_coupling_series_rejects_bad_arguments(args, error, message):
    # a NaN energy used to give a series of NaN, and q = 1.5 a 2-step block
    with pytest.raises(error, match=message):
        coupling_series(slow_cosine_spec(0.5, 0.4), *args)


@pytest.mark.parametrize("q, error", [(1.5, TypeError), (2.0, TypeError),
                                      (True, TypeError), (0, ValueError)])
def test_q_step_block_takes_q_by_the_integer_rule(q, error):
    # q = 1.5 used to return a 2-step block without a word
    with pytest.raises(error, match="q must be an integer"):
        q_step_block(free_spec(), q, 0, 0.3)


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
def test_coupling_sums_converge_on_the_slow_cosine(x):
    # the a.c. mechanism: ||W_m||^2 is summable inside the band.  Each
    # decade of blocks adds less than 0.7 times what the one before added
    # (measured 0.61-0.66), and the whole sum stays small
    sums = coupling_series(slow_cosine_spec(0.5, 0.4), 1, x, range(0, 10 ** 5),
                           1).partial_l2
    at = [sums[10 ** k - 1] for k in (2, 3, 4, 5)]
    steps = [hi - lo for lo, hi in zip(at, at[1:])]
    assert all(0.0 < later < 0.7 * earlier for earlier, later in zip(steps, steps[1:]))
    assert sums[-1] < 0.1


def test_crude_growth_bound_staircase_class():
    # a = 1 and |b| <= 3 give ||one step|| <= 10, so log ||T_{1,n}|| <= n log 10
    from jbv import build_schedule, staircase_comb_spec
    sched = build_schedule(2, 0.5, levels=1, cap=10 ** 5, mode="empirical")
    spec = staircase_comb_spec(sched)
    n = min(sched.horizon, 150)
    for x in np.linspace(-5.0, 5.0, 11):
        t = transfer_product(spec, 1, n, float(x))
        assert t.op_norm_log() <= n * math.log(10.0) + 1e-9


def test_coupling_finite_on_staircase_spec():
    # inside the surviving interior the frame couplings stay square-summable
    from jbv import build_schedule, staircase_comb_spec
    sched = build_schedule(2, 0.5, levels=2, growth_margin=1.1,
                           cap=10 ** 6, mode="empirical")
    spec = staircase_comb_spec(sched)
    n_blocks = sched.horizon // sched.q
    cs = coupling_series(spec, sched.q, complex(1.2), range(0, n_blocks - 1), -1)
    sums = cs.partial_l2
    assert all(s2 >= s1 for s1, s2 in zip(sums, sums[1:]))
    assert sums[-1] < 1.0


def test_strip_margins_positive_inside_band():
    from jbv import strip_margins
    P = comb_potential(2, 0.5)
    bs = band_structure(P)
    band = bs.bands[1]
    rep = strip_margins(P, band.lo + 0.2 * band.width, band.hi - 0.2 * band.width)
    assert rep["trace_margin"] > 0.0
    assert rep["slope_margin"] > 0.0
    assert 0.0 < rep["c_lower"] <= rep["c_upper"]
    assert rep["contraction_slope"] > 0.0
    assert rep["s"] in (-1, 1) and rep["t"] in (-1, 1)


_COMB2 = comb_potential(2, 0.5)
_APPROXIMANT = ApproximantSpec(_COMB2.as_spec(), 2, 3)
NON_FINITE_ENERGY_ENTRY_POINTS = {
    "block_product": lambda z: block_product(_COMB2.a, _COMB2.b, z),
    "block_product on an array": lambda z: block_product(
        _COMB2.a, _COMB2.b, np.array([0.3, z])),
    "transfer_scan": lambda z: list(transfer_scan(np.ones(4), np.zeros(4), z)),
    "transfer_scan on an energy axis": lambda z: list(
        transfer_scan(np.ones(4), np.zeros(4), np.array([0.3, z]))),
    "transfer_product": lambda z: transfer_product(free_spec(), 1, 4, z),
    "q_step_block": lambda z: q_step_block(_COMB2.as_spec(), 2, 0, z),
    "discriminant_value": lambda z: discriminant_value(_COMB2, z),
    "weyl_solution": lambda z: weyl_solution(_APPROXIMANT, z, 1),
    "m_function": lambda z: m_function(_APPROXIMANT, z + 1j),
    "branch_sign_for_interval": lambda z: branch_sign_for_interval(_COMB2, z, 1.0),
    "strip_margins": lambda z: strip_margins(_COMB2, 0.6, z),
    "one_step_matrix": lambda z: one_step_matrix(1.0, 0.0, z),
}


@pytest.mark.parametrize("energy", [math.nan, math.inf, complex(0.3, math.nan)])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENERGY_ENTRY_POINTS))
def test_non_finite_energy_is_rejected_at_the_block_and_the_kernel(entry, energy):
    # a NaN energy used to give a NaN product, trace, block, Weyl solution,
    # margin or step (with RuntimeWarnings in the kernel), and branch sign -1;
    # m_function at inf + 1j raised a RuntimeWarning
    with pytest.raises(ValueError, match="energy z must be finite"):
        NON_FINITE_ENERGY_ENTRY_POINTS[entry](energy)


# the entries above that hand z to the energy check as it is
DIRECT_ENERGY_ENTRY_POINTS = ["block_product", "discriminant_value", "one_step_matrix",
                              "q_step_block", "transfer_product", "transfer_scan"]


@pytest.mark.parametrize("z", ["0.3", "x", True, np.bool_(True), None,
                               np.array(["0.3"]), np.array([True, False])],
                         ids=["'0.3'", "'x'", "True", "np.True_", "None",
                              "str array", "bool array"])
@pytest.mark.parametrize("entry", DIRECT_ENERGY_ENTRY_POINTS)
def test_energy_types_are_rejected_at_the_block_and_the_kernel(entry, z):
    # one_step_matrix(1, 0, True) and transfer_scan(a, b, True) ran at z = 1,
    # and a string failed with Python's bare "must be real number, not str"
    with pytest.raises(TypeError, match="^energy z must be a number, got "):
        NON_FINITE_ENERGY_ENTRY_POINTS[entry](z)


def test_branch_sign_needs_lo_at_most_hi():
    # lo > hi used to return the branch sign at the swapped interval's midpoint
    with pytest.raises(ValueError, match=r"^need lo <= hi, got lo=1.0 > hi=0.5$"):
        branch_sign_for_interval(_COMB2, 1.0, 0.5)
    with pytest.raises(ValueError, match="^need lo <= hi"):
        strip_margins(_COMB2, 1.2, 0.6)


WEYL_ENTRY_POINTS = {
    "weyl_solution": lambda z: weyl_solution(_APPROXIMANT, z, 1),
    "m_function": lambda z: m_function(_APPROXIMANT, z),
}


@pytest.mark.parametrize("z", ["0.3+1j", True, None, [0.3 + 1j]])
@pytest.mark.parametrize("entry", sorted(WEYL_ENTRY_POINTS))
def test_weyl_energies_follow_the_complex_rule(entry, z):
    # m_function(asp, "0.3+1j") converted the string and returned a value
    with pytest.raises(TypeError, match=f"^energy z must be a number, got {re.escape(repr(z))}$"):
        WEYL_ENTRY_POINTS[entry](z)


@pytest.mark.parametrize("entry", sorted(WEYL_ENTRY_POINTS))
def test_weyl_energies_of_every_numeric_type(entry):
    call = WEYL_ENTRY_POINTS[entry]
    assert call(0.25 + 1j) == call(np.complex128(0.25 + 1j)) == call(np.complex64(0.25 + 1j))
    with pytest.raises(ValueError, match="^energy z must be finite, got 1000"):
        call(10 ** 400)
    if entry == "weyl_solution":   # real energies, as ints and numpy reals
        assert call(1) == call(1.0) == call(np.float64(1.0)) == call(np.int64(1))


INTEGER_CALLS = {
    "transfer_product m=1.5": (lambda: transfer_product(free_spec(), 1.5, 4, 0.3), "m"),
    "transfer_product m=True": (lambda: transfer_product(free_spec(), True, 4, 0.3), "m"),
    "transfer_product n=4.0": (lambda: transfer_product(free_spec(), 1, 4.0, 0.3), "n"),
    "strip_margins nx=5.5": (lambda: strip_margins(_COMB2, 0.6, 1.9, nx=5.5), "nx"),
    "strip_margins ny=True": (lambda: strip_margins(_COMB2, 0.6, 1.9, ny=True), "ny"),
}


@pytest.mark.parametrize("case", sorted(INTEGER_CALLS))
def test_transfer_product_and_strip_margins_take_integers_by_the_rule(case):
    # transfer_product(spec, 1.5, 4, x) and (spec, True, 4, x) used to return
    # A_4...A_1; nx = 5.5 spread 6 points over a denominator of 4.5, past hi
    call, name = INTEGER_CALLS[case]
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call()


@pytest.mark.parametrize("m, n", [(0, 4), (3, 2)])
def test_transfer_product_range(m, n):
    with pytest.raises(ValueError, match="must be an integer >="):
        transfer_product(free_spec(), m, n, 0.3)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_growth_scanner_rejects_a_non_finite_energy(x):
    # GrowthScanner(nan) used to feed to a NaN statistic and a running
    # maximum of 0.0
    with pytest.raises(ValueError, match="energy x must be finite"):
        GrowthScanner(x)


@pytest.mark.parametrize("error, step, message", [
    (ValueError, lambda sc: sc.feed(0.0, 0.0),
     "coefficient a must be positive and finite, got 0.0"),
    (ValueError, lambda sc: sc.feed(-1.0, 0.0),
     "coefficient a must be positive and finite, got -1.0"),
    (ValueError, lambda sc: sc.feed(math.inf, 0.0),
     "coefficient a must be positive and finite, got inf"),
    (ValueError, lambda sc: sc.feed(1.0, math.nan), "coefficient b must be finite, got nan"),
    (ValueError, lambda sc: sc.feed_arrays([0.0, 1.0], [0.0, 0.0]),
     "coefficient a must be positive and finite, got 0.0"),
    (ValueError, lambda sc: sc.feed_arrays([1.0, math.nan], [0.0, 0.0]),
     "coefficient a must be positive and finite, got nan"),
    (ValueError, lambda sc: sc.feed_arrays([1.0, 1.0], [0.2, -math.inf]),
     "coefficient b must be finite, got -inf"),
    (ValueError, lambda sc: sc.feed(1e-310, 0.0),
     "coefficient a = 1e-310 makes the step entry -1/a infinite"),
    (ValueError, lambda sc: sc.feed(1e-300, 1e10),
     r"coefficients a = 1e-300, b = 10000000000.0 "
     r"make the step entry \(x - b\)/a infinite at x = 0.3"),
    (ValueError, lambda sc: sc.feed_arrays([1e-310, 1.0], [0.0, 0.0]),
     "coefficient a = 1e-310 makes the step entry -1/a infinite"),
    (ValueError, lambda sc: sc.feed_arrays([1.0, 1e-300], [0.0, 1e10]),
     r"coefficients a = 1e-300, b = 10000000000.0 "
     r"make the step entry \(x - b\)/a infinite at x = 0.3"),
    (FloatingPointError, lambda sc: [sc.feed(1.0, b) for b in (1e308, 0.3, -1e308)],
     "a transfer product underflowed to zero: its steps span past float range"),
], ids=["feed a=0", "feed a<0", "feed a=inf", "feed b=nan", "run a=0", "run a=nan",
        "run b=-inf", "feed 1/a=inf", "feed (x-b)/a=inf", "run 1/a=inf",
        "run (x-b)/a=inf", "feed underflow"])
@pytest.mark.filterwarnings("error")
def test_growth_scanner_rejects_a_bad_coefficient(error, step, message):
    # feed(0, 0) raised ZeroDivisionError, a run with a = 0 or a = 1e-310 a
    # RuntimeWarning, and a NaN b, a = 1e-310 or (a, b) = (1e-300, 1e10) left
    # the log-sum NaN; steps past b = +-1e308 that cancel to a zero product
    # raised "math domain error"
    sc = GrowthScanner(0.3)
    sc.feed(1.0, 0.1)
    before = (sc.n, sc.log_sum, sc.t11, sc.t12, sc.t21, sc.t22, sc.e)
    with pytest.raises(error, match=f"^{message}$"):
        step(sc)
    if error is FloatingPointError:  # the steps before the last were taken
        return
    assert (sc.n, sc.log_sum, sc.t11, sc.t12, sc.t21, sc.t22, sc.e) == before
    sc.feed(1.0, 0.0)
    assert math.isfinite(sc.log_sum)


@pytest.mark.parametrize("a, b", [(1e-300, 0.0), (1e150, 0.0), (1.0, -1e200),
                                  (1e-120, 1.0)])
@pytest.mark.filterwarnings("error")
def test_growth_scanner_step_past_the_rescale_limit_stays_finite(a, b):
    # 140 steps of (1, 0) at x = 5 make a product near 1.9e95; a step whose
    # entries pass 1e100 then made feed's product and log-sum NaN (inf *
    # 0), while the kernel, which rescales each step first, stays finite
    run, steps = GrowthScanner(5.0), GrowthScanner(5.0)
    run.feed_arrays(np.r_[np.ones(140), a, 1.0], np.r_[np.zeros(140), b, 0.0])
    for ai, bi in [(1.0, 0.0)] * 140 + [(a, b), (1.0, 0.0)]:
        steps.feed(ai, bi)
    assert math.isfinite(steps.log_sum) and math.isfinite(steps.running_max_log)
    assert math.isclose(steps.log_sum, run.log_sum, rel_tol=1e-12)
    t_steps, t_run = ([[sc.t11, sc.t12], [sc.t21, sc.t22]] for sc in (steps, run))
    gap = np.ldexp(t_steps, steps.e - run.e) - t_run   # exponents aligned exactly
    assert np.abs(gap).max() <= 1e-12 * np.abs(t_run).max()


@pytest.mark.filterwarnings("error")
def test_growth_scanner_run_checks_each_step_when_its_extremes_do_not_clear():
    # (x - max b)/min a overflows, but no one step's entries do
    run, steps = GrowthScanner(0.0), GrowthScanner(0.0)
    stats = run.feed_arrays([1e-300, 1.0, 1.0], [0.0, 1e10, 0.0])
    for a, b in [(1e-300, 0.0), (1.0, 1e10), (1.0, 0.0)]:
        steps.feed(a, b)
    assert np.isfinite(stats[1:]).all()
    assert math.isclose(run.log_sum, steps.log_sum, rel_tol=1e-12)
