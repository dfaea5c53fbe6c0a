import math

import numpy as np
import pytest

from jbv import Matrix2, ScaledMatrix2, one_step_matrix
from jbv.polynomial import PolynomialReal, bisect_root, sign_change_roots


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


def test_bisection_helpers():
    f = lambda x: x * x - 2.0
    r = bisect_root(f, 0.0, 2.0, f(0.0), f(2.0), 1e-12)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-11)
    roots = sign_change_roots(f, [-2.0, -1.0, 0.0, 1.0, 2.0], 1e-12)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-math.sqrt(2.0), abs=1e-11)


def test_sign_change_roots_exact_zero_samples():
    # a sample where f is exactly zero is a root itself, with no bisection
    # on either side of it
    f = lambda x: x * (x - 1.0)
    assert sign_change_roots(f, [-1.0, 0.0, 0.5, 1.0, 2.0], 1e-12) == [0.0, 1.0]
    # zero samples closer than tol are one root
    flat = lambda x: 0.0 if abs(x) < 1e-12 else x
    assert sign_change_roots(flat, [-1.0, 0.0, 5e-13, 1.0], 1e-12) == [0.0]
