import math

import numpy as np
import pytest

from jbv import GrowthScanner, Matrix2, ScaledMatrix2, one_step_matrix
from jbv.matrix2 import _exp_saturating
from jbv.periodic import _critical_points
from jbv.polynomial import PolynomialReal, bisect_root, bisect_roots, horner


def test_one_step_entries():
    m = one_step_matrix(1, 0, 2)
    assert m.entries() == (2.0, -1.0, 1.0, 0.0)
    m = one_step_matrix(2, 1, 3)
    assert m.entries() == (1.0, -0.5, 2.0, 0.0)
    m = one_step_matrix(1, 0, 1j)
    assert m.entries() == (1j, -1.0, 1.0, 0.0)
    assert m.det() == pytest.approx(1.0, abs=1e-12)


def test_one_step_rejects_nonpositive():
    with pytest.raises(ValueError):
        one_step_matrix(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        one_step_matrix(-1.0, 0.0, 1.0)


def test_op_norm_matches_svd():
    rng = np.random.default_rng(3)
    for _ in range(300):
        e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = Matrix2(*e)
        ref = np.linalg.norm(np.array([[e[0], e[1]], [e[2], e[3]]]), 2)
        assert m.op_norm() == pytest.approx(ref, rel=1e-12)


def test_adjugate_inverts_unimodular():
    m = one_step_matrix(1.7, -0.3, 0.9)
    prod = m @ m.adjugate()
    assert (prod - Matrix2.identity()).max_abs() < 1e-15


def test_scaled_product_tracks_log_norm():
    # hyperbolic one-step matrix: growth rate is the log of the top eigenvalue
    x = 3.0
    lam = 0.5 * (x + math.sqrt(x * x - 4.0))
    t = ScaledMatrix2.of(Matrix2.identity())
    step = one_step_matrix(1.0, 0.0, x)
    n = 2000
    for _ in range(n):
        t = t.left_mul(step)
    assert t.op_norm_log() == pytest.approx(n * math.log(lam), rel=1e-3)
    assert t.op_norm() == math.inf  # far past float range, by design
    with pytest.raises(OverflowError):
        t.to_matrix2()
    # unimodularity is recoverable from the mantissa only while the singular
    # value spread fits in a double; a short product keeps it exact
    short = ScaledMatrix2.of(Matrix2.identity())
    for _ in range(10):
        short = short.left_mul(step)
    assert abs(short.log_abs_det()) < 1e-9


def test_polynomial_horner_and_derivative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        coeffs = rng.standard_normal(rng.integers(1, 9))
        p = PolynomialReal(tuple(coeffs))
        x = rng.uniform(-3, 3)
        assert p(x) == pytest.approx(np.polynomial.polynomial.polyval(x, coeffs),
                                     rel=1e-12, abs=1e-12)
        dp = p.derivative()
        ref = np.polynomial.polynomial.polyval(
            x, np.polynomial.polynomial.polyder(coeffs))
        assert dp(x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def _scan(coeffs, samples, tol):
    """The critical-point scan: roots of the polynomial with these ascending
    coefficients, isolated on these samples."""
    return _critical_points(tuple(coeffs), np.array(samples), tol).tolist()


def test_bisection_helpers():
    f = lambda x: x * x - 2.0
    r = bisect_root(f, 0.0, 2.0, f(0.0), f(2.0), 1e-12)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-11)
    roots = _scan([-2.0, 0.0, 1.0], [-2.0, -1.0, 0.0, 1.0, 2.0], 1e-12)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-math.sqrt(2.0), abs=1e-11)


def test_critical_point_scan_exact_zero_samples():
    # a sample where the polynomial is exactly zero is a root itself, with no
    # bisection on either side of it: x (x - 1)
    assert _scan([0.0, -1.0, 1.0], [-1.0, 0.0, 0.5, 1.0, 2.0], 1e-12) == [0.0, 1.0]
    # zero samples closer than tol are one root: x (x - 5e-13) is exactly zero
    # at both 0 and 5e-13
    assert _scan([0.0, -5e-13, 1.0], [-1.0, 0.0, 5e-13, 1.0], 1e-12) == [0.0]
    # and zero samples farther apart than tol are two
    assert _scan([0.0, -1.5e-12, 1.0], [-1.0, 0.0, 1.5e-12, 1.0], 1e-12) == [0.0, 1.5e-12]


def test_horner_on_arrays_matches_scalar_values():
    rng = np.random.default_rng(11)
    for _ in range(6):
        p = PolynomialReal(tuple(rng.standard_normal(5).tolist()))
        x, shift = rng.uniform(-3, 3, 40), rng.uniform(-1, 1, 40)
        got = horner(p.coeffs, x, shift)
        assert got.tolist() == [p(v) - t for v, t in zip(x.tolist(), shift.tolist())]


def _brackets(rng, n, degree):
    """About n brackets of sign changes of one random polynomial less random
    shifts, of widths that stop them at different steps, some of them with an
    end value that is exactly zero."""
    coeffs = tuple(rng.standard_normal(degree + 1).tolist())
    p = PolynomialReal(coeffs)
    lo, hi = -rng.uniform(0.5, 3, 2 * n), rng.uniform(0.5, 3, 2 * n)
    # a shift between the end values puts a sign change in the bracket
    shift = np.minimum(p(lo), p(hi)) + rng.uniform(0, 1, 2 * n) * np.abs(p(hi) - p(lo))
    flo, fhi = horner(coeffs, lo, shift), horner(coeffs, hi, shift)
    keep = ((flo < 0) != (fhi < 0)).nonzero()[0][:n]
    shift, lo, hi, flo, fhi = (v[keep] for v in (shift, lo, hi, flo, fhi))
    flo[::7], fhi[3::11] = 0.0, 0.0
    return coeffs, shift, lo, hi, flo, fhi


@pytest.mark.parametrize("tol", [1e-10, 1e-3, 1e-300])
def test_bisect_roots_matches_bisect_root_bit_for_bit(tol):
    coeffs, shift, lo, hi, flo, fhi = _brackets(np.random.default_rng(12), 300, 8)
    assert len(lo) == 300
    got = bisect_roots(coeffs, shift, lo, hi, flo, fhi, tol)
    brackets = zip(lo.tolist(), hi.tolist(), flo.tolist(), fhi.tolist())
    for t, args, root in zip(shift.tolist(), brackets, got.tolist()):
        assert root == bisect_root(lambda x: horner(coeffs, x, t), *args, tol)


def test_bisect_roots_requires_sign_changes():
    with pytest.raises(ValueError):
        bisect_roots((1.0, 1.0), np.zeros(1), [0.0], [1.0], [1.0], [2.0], 1e-10)


def test_saturating_exponential_and_its_users():
    assert _exp_saturating(800.0) == math.inf
    assert _exp_saturating(-800.0) == 0.0
    assert _exp_saturating(709.78) == math.exp(709.78) < math.inf
    assert ScaledMatrix2(Matrix2.identity(), 800.0).op_norm() == math.inf
    sc = GrowthScanner(0.3)
    sc.feed(1.0, 0.0)
    sc.feed(1.0, 0.0)
    sc.log_sum = sc.running_max_log = 800.0
    assert sc.statistic == sc.running_max == math.inf
