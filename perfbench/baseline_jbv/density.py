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

from .coeffs import CoefficientSpec, eval_coefficients, eventually_periodic_spec
from .errors import OutsideBandError, PoleOfMError
from .transfer import eigen_branch, q_step_block, weyl_branch_sign

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
        if self.q < 1:
            raise ValueError("period must be >= 1")
        if self.N < 0:
            raise ValueError("freeze block index must be >= 0")

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


def weyl_solution(aspec: ApproximantSpec, z: complex, s: int) -> WeylSolution:
    """Seed u_N = (lam_N - D_N, C_N) at block N, then solve backwards.

    Block inverses use the adjugate, exact for unimodular blocks.
    """
    zc = complex(z)
    spec = aspec.as_spec()
    block_n = q_step_block(spec, aspec.q, aspec.N, zc)
    diag = eigen_branch(block_n, s)
    u1 = diag.lam - block_n.D
    u2 = block_n.C
    values = [(u1, u2)]
    for m in range(aspec.N - 1, -1, -1):
        phi = q_step_block(spec, aspec.q, m, zc).Phi
        inv = phi.adjugate()
        u1, u2 = (inv.e11 * u1 + inv.e12 * u2, inv.e21 * u1 + inv.e22 * u2)
        values.append((u1, u2))
    values.reverse()
    return WeylSolution(zc, s, tuple(values), diag.lam, block_n.C,
                        block_n.D, block_n.Delta)


def wronskian_defect(u: WeylSolution) -> float:
    """Largest deviation of Im(u_n[0] conj(u_n[1])) from its block-N value
    C_N Im lam_N; at real energies this is conserved along the recursion."""
    if u.z.imag != 0.0:
        raise ValueError("the conserved form is checked at real energies only")
    target = u.C.real * u.lam.imag
    worst = 0.0
    for u1, u2 in u.values:
        w = (u1 * u2.conjugate()).imag
        worst = max(worst, abs(w - target))
    return worst


def _density_given_sign(aspec: ApproximantSpec, x: float, s: int
                        ) -> tuple[float, WeylSolution]:
    u = weyl_solution(aspec, complex(x), s)
    mod2 = abs(u.u0[1]) ** 2
    if mod2 < 1e-24:
        raise PoleOfMError(
            f"second component of u_0 is numerically zero at x={x}; "
            "this flags a bug for energies inside the band interior")
    f = -(u.C.real * u.lam.imag) / (math.pi * mod2)
    return f, u


def ac_density(aspec: ApproximantSpec, x: float, s: int | None = None) -> float:
    """Spectral density of the approximant at a real energy in the interior of
    block N's bands.

    With s=None the branch sign is selected by nonnegativity of the result
    (the two branches give values of opposite sign).
    """
    block_n = q_step_block(aspec.as_spec(), aspec.q, aspec.N, complex(x))
    if abs(block_n.Delta.real) >= 2.0 - 1e-9 or abs(block_n.Delta.imag) > 1e-9:
        raise OutsideBandError(
            f"x={x}: block-N discriminant {block_n.Delta.real:.12g} is not "
            "inside (-2, 2)")
    if s is not None:
        f, _ = _density_given_sign(aspec, x, s)
        return f
    f, _ = _density_given_sign(aspec, x, +1)
    if f >= 0.0:
        return f
    f, _ = _density_given_sign(aspec, x, -1)
    return f


def density_sign(aspec: ApproximantSpec, x: float) -> int:
    """The branch sign that makes the density nonnegative at x."""
    f, _ = _density_given_sign(aspec, x, +1)
    return 1 if f >= 0.0 else -1


def m_function(aspec: ApproximantSpec, z: complex, s: int | None = None) -> complex:
    """Weyl function m(z) = -u_0[0]/u_0[1] in the open upper half plane.

    With s=None the contracting eigenvalue branch at block N is used, which is
    the square-summable (Weyl) direction.
    """
    zc = complex(z)
    if zc.imag <= 0.0:
        raise ValueError("the Weyl function is evaluated for Im z > 0")
    if s is None:
        s = weyl_branch_sign(q_step_block(aspec.as_spec(), aspec.q, aspec.N, zc))
    u = weyl_solution(aspec, zc, s)
    if u.u0[1] == 0:
        raise PoleOfMError(f"u_0[1] = 0 at z={zc}")
    return -u.u0[0] / u.u0[1]
