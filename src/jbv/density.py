"""Eventually-periodic approximants and their explicit a.c. densities.

The approximant J^N keeps the first (N+1)q coefficients of a base sequence and
extends q-periodically with block N afterwards.  Seeding the transfer
recursion at block N with the eigenvector (lam_N - D_N, C_N) and solving
backwards yields a Weyl-type solution u; the spectral density of J^N at a real
energy inside block N's band interior is

    f(x) = - C_N(x) Im lam_N(x) / (pi |u_0[1]|^2)

and the Weyl function in the upper half plane is m(z) = -u_0[0] / u_0[1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import (CoefficientSpec, as_complex, as_real, check_params,
                     coefficient_arrays, eval_coefficients, eventually_periodic_spec)
from .errors import OutsideBandError, PoleOfMError
from .transfer import (Diagonalization, QStepBlock, Scan, eigen_branch,
                       q_step_block, transfer_scan, weyl_branch_sign)

__all__ = [
    "ApproximantSpec", "WeylSolution", "approximant_coefficients",
    "weyl_solution", "wronskian_defect", "ac_density", "m_function",
]


@dataclass(frozen=True)
class ApproximantSpec:
    """Base rule, step q, and the block index N after which it freezes."""

    base: CoefficientSpec
    q: int
    N: int

    def __post_init__(self) -> None:
        check_params("eventually_periodic",
                     {"base": self.base, "q": self.q, "N": self.N})

    def as_spec(self) -> CoefficientSpec:
        return eventually_periodic_spec(self.base, self.q, self.N)


def approximant_coefficients(aspec: ApproximantSpec, n: int) -> tuple[float, float]:
    """(a_n, b_n) of the approximant: block index clipped at N."""
    return eval_coefficients(aspec.as_spec(), n)


@dataclass(frozen=True)
class WeylSolution:
    """Backward-propagated solution of the block recursion u_{m+1} = Phi_m u_m,
    pinned at block N to the contracting eigenvector seed."""

    z: complex
    s: int
    values: tuple[tuple[complex, complex], ...]  # u_0 .. u_N
    lam: complex
    C: complex
    D: complex
    Delta: complex

    @property
    def N(self) -> int:
        return len(self.values) - 1

    @property
    def u0(self) -> tuple[complex, complex]:
        return self.values[0]


def _unscaled(t: np.ndarray, e) -> np.ndarray:
    """t * 2**e entrywise, complex t included."""
    return np.ldexp(t.real, e) + 1j * np.ldexp(t.imag, e)


def _solve(aspec: ApproximantSpec, block_n: QStepBlock, s: int,
           keep_values: bool = False) -> tuple[Diagonalization, tuple, list]:
    """Seed u_N = (lam_N - D_N, C_N) from block N's eigen branch s and solve
    u_m = Phi_m^{-1} u_{m+1} down to u_0: one backward scan over indices
    Nq .. 1, with real blocks where z is real.  Returns the branch, u_0 as
    (mantissa column, power of two) and, with keep_values, the unscaled
    u_N, ..., u_0."""
    diag = eigen_branch(block_n, s)
    seed = np.array([[diag.lam - block_n.D], [block_n.C]])
    q = aspec.q
    a, b = coefficient_arrays(aspec.base, 1, aspec.N * q + 1)
    u0, values, done = (seed[:, 0], 0), [seed[:, 0].tolist()], 0
    for scan in transfer_scan(a[::-1], b[::-1], block_n.z, Scan(seed, 0),
                              prefixes=keep_values, inverse=True):
        u0 = scan.t[:, 0], scan.e
        if keep_values:
            # u_m is reached once index mq + 1 is undone: every q-th step
            at = np.arange((q - 1 - done) % q, len(scan.prefix_e), q)
            values += _unscaled(scan.prefix_t[:, 0, at], scan.prefix_e[at]).T.tolist()
            done += len(scan.prefix_e)
    return diag, u0, values


def weyl_solution(aspec: ApproximantSpec, z: complex, s: int) -> WeylSolution:
    """Seed u_N = (lam_N - D_N, C_N) at block N, then solve backwards.

    Block inverses are exact for unimodular blocks.
    """
    zc = as_complex(z, "energy z")
    block_n = q_step_block(aspec.base, aspec.q, aspec.N, zc)
    diag, _, values = _solve(aspec, block_n, s, keep_values=True)
    return WeylSolution(zc, s, tuple(map(tuple, reversed(values))),
                        diag.lam, block_n.C, block_n.D, block_n.Delta)


def wronskian_defect(u: WeylSolution) -> float:
    """Largest deviation of Im(u_n[0] conj(u_n[1])) from its block-N value
    C_N Im lam_N; at real energies this is conserved along the recursion."""
    if not isinstance(u, WeylSolution):
        raise TypeError(f"u must be a WeylSolution, got {u!r}")
    if u.z.imag != 0.0:
        raise ValueError("the conserved form is checked at real energies only")
    target = u.C.real * u.lam.imag
    worst = 0.0
    for u1, u2 in u.values:
        w = (u1 * u2.conjugate()).imag
        worst = max(worst, abs(w - target))
    return worst


def ac_density(aspec: ApproximantSpec, x: float, s: int | None = None) -> float:
    """Spectral density of the approximant at a real energy in the interior of
    block N's bands.

    With s=None the branch sign is the one that makes the result nonnegative.
    At real x the s = -1 seed and solution are the exact conjugates of the
    s = +1 ones, so f(-1) = -f(+1) bit for bit and one solve decides both.
    """
    x = as_real(x, "energy x")
    block_n = q_step_block(aspec.base, aspec.q, aspec.N, complex(x))
    if abs(block_n.Delta.real) >= 2.0 - 1e-9 or abs(block_n.Delta.imag) > 1e-9:
        raise OutsideBandError(
            f"x={x}: block-N discriminant {block_n.Delta.real:.12g} is not "
            "inside (-2, 2)")
    diag, (u0, e), _ = _solve(aspec, block_n, 1 if s is None else s)
    # math.ldexp, unlike np.ldexp, raises OverflowError past float range
    u = complex(u0[1])
    mod2 = abs(complex(math.ldexp(u.real, int(e)), math.ldexp(u.imag, int(e)))) ** 2
    if mod2 < 1e-24:
        raise PoleOfMError(
            f"second component of u_0 is numerically zero at x={x}; "
            "this flags a bug for energies inside the band interior")
    f = -(block_n.C.real * diag.lam.imag) / (math.pi * mod2)
    return abs(f) if s is None else f


def m_function(aspec: ApproximantSpec, z: complex, s: int | None = None) -> complex:
    """Weyl function m(z) = -u_0[0]/u_0[1] in the open upper half plane.

    With s=None the contracting eigenvalue branch at block N is used, which is
    the square-summable (Weyl) direction.
    """
    zc = as_complex(z, "energy z")
    if zc.imag <= 0.0:
        raise ValueError("the Weyl function is evaluated for Im z > 0")
    block_n = q_step_block(aspec.base, aspec.q, aspec.N, zc)
    if s is None:
        s = weyl_branch_sign(block_n)
    _, (u0, _), _ = _solve(aspec, block_n, s)
    u1, u2 = u0.tolist()
    if u2 == 0:
        raise PoleOfMError(f"u_0[1] = 0 at z={zc}")
    return -u1 / u2
