"""Two coupled molecules: pair Hamiltonian and spin-model constants.

Basis order throughout is the product pseudo-spin set
{|dd>, |du>, |ud>, |uu>} (d = down, u = up, first slot = molecule 1).

Pauli convention: the 2x2 Pauli matrices act on the ordered single-molecule
basis (|down>, |up>), i.e. sigma_z|down> = +|down>.  This is the one
orientation under which the coupling-constant formulas below reproduce the
pair Hamiltonian identically; flipping it would negate gamma.

The dipole-dipole operator between two parallel dipoles, separated along a
direction at angle alpha from the field, decomposes over single-molecule
angular operators as

    V/Omega = (1 - 3 cos^2 a) cos cos
            + (1 - 3 sin^2 a) (sin cos phi)(sin cos phi)
            + (sin sin phi)(sin sin phi)
            - 3 sin a cos a [ (sin cos phi) cos + cos (sin cos phi) ],

which :func:`vdd_from_first_principles` evaluates term by term.  Note the
last line: at tilted geometries (alpha not 0 or pi/2) it contributes
single-molecule transition terms of size 3 sin(a)cos(a) * cx * c0/c1 * Omega
that fall outside the two-qubit XYZ form.  On-axis the mapping is exact within
the four product states, a space the interaction leaves at first order unless a = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .moments import DOWN_M, UP_M, MomentSet, _contract, _pseudo_spin, moments
from .rotor import DEFAULT_J_MAX
from .tables import Table

#: Array tilt at which the zz coupling vanishes exactly (3 cos^2 = 1).
MAGIC_ANGLE = math.acos(1.0 / math.sqrt(3.0))

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_ID = np.eye(2)
#: Two-qubit terms of :func:`xyz_matrix`: sx sx, Re(sy sy), sz sz, the field sum and 1.
_XX = np.kron(_SX, _SX)
_YY = np.kron(_SY, _SY).real
_ZZ = np.kron(_SZ, _SZ)
_Z_SUM = np.kron(_SZ, _ID) + np.kron(_ID, _SZ)
_ID4 = np.eye(4)


@dataclass(frozen=True)
class CouplingGeometry:
    """Dipole-dipole scale Omega (units of B) and array tilt alpha (rad)."""

    omega: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.omega) or self.omega < 0:
            raise ValueError(f"omega must be finite and non-negative, got {self.omega}")
        if not 0.0 <= self.alpha <= math.pi / 2:
            raise ValueError(f"alpha must lie in [0, pi/2], got {self.alpha}")

    @property
    def p_alpha(self) -> float:
        return 1.0 - 3.0 * math.cos(self.alpha) ** 2

    @property
    def q_alpha(self) -> float:
        return -3.0 * math.sin(self.alpha) ** 2


@dataclass(frozen=True)
class HeisenbergConstants:
    """Two-qubit model constants, all in units of B."""

    jx: float
    jy: float
    jz: float
    gamma: float
    shift: float


def pair_hamiltonian(mset: MomentSet, geom: CouplingGeometry) -> NDArray[np.float64]:
    """Two-qubit part of the 4x4 pair Hamiltonian: energies plus coupling.

    Exact within the four product states for alpha in {0, pi/2}, a space the
    interaction leaves at first order unless alpha = 0.  At a tilted alpha it
    omits the single-molecule transition terms -3 sin(a)cos(a) Omega
    (kron(T, C) + kron(C, T)), T = cx sigma_x, C = diag(c0, c1), that the
    XYZ-plus-field form cannot hold; :func:`vdd_from_first_principles` keeps them.
    """
    e0, e1 = mset.e0, mset.e1
    p, q, w = geom.p_alpha, geom.q_alpha, geom.omega
    c0, c1, cx = mset.c0, mset.c1, mset.cx
    h = np.diag(
        [
            2 * e0 + w * p * c0 * c0,
            e0 + e1 + w * p * c0 * c1,
            e1 + e0 + w * p * c1 * c0,
            2 * e1 + w * p * c1 * c1,
        ]
    )
    outer = w * q * cx * cx
    inner = -w * p * cx * cx
    h[0, 3] = h[3, 0] = outer
    h[1, 2] = h[2, 1] = inner
    return h


def pseudo_spin_operators(
    x: float, j_max: int = DEFAULT_J_MAX
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.complex128]]:
    """2x2 matrices of cos, sin*cos(phi), sin*sin(phi) in the (down, up) basis.

    Off-block elements vanish by exact m selection rules (cos keeps m;
    the sin operators change it by one), not by approximation.
    """
    ps = _pseudo_spin(x, j_max)
    # <down|ss|up> = i * K_du; Hermiticity gives <up|ss|down> = -i * K_du.
    k_du = _contract("sin_theta_sin_phi", ps.down, DOWN_M, ps.up, UP_M, j_max)
    m_cos = np.array([[ps.c0, 0.0], [0.0, ps.c1]])
    m_sc = np.array([[0.0, ps.cx], [ps.cx, 0.0]])
    m_ss = np.array([[0.0, 1.0j * k_du], [-1.0j * k_du, 0.0]])
    return m_cos, m_sc, m_ss


def vdd_from_first_principles(
    x: float, geom: CouplingGeometry, j_max: int = DEFAULT_J_MAX
) -> NDArray[np.float64]:
    """Dipole-dipole coupling assembled directly from angular operators.

    Evaluates every term of the interaction in the product pseudo-spin basis
    without assuming any target matrix shape; serves as the independent
    check on :func:`pair_hamiltonian`.
    """
    m_cos, m_sc, m_ss = pseudo_spin_operators(x, j_max)
    sa, ca = math.sin(geom.alpha), math.cos(geom.alpha)
    # Projection of a unit dipole on the intermolecular axis.
    m_axis = sa * m_sc + ca * m_cos
    v = (
        np.kron(m_cos, m_cos)
        + np.kron(m_sc, m_sc)
        + np.kron(m_ss, m_ss)
        - 3.0 * np.kron(m_axis, m_axis)
    )
    residue = np.abs(v.imag).max()
    scale = max(1.0, np.abs(v.real).max())
    if residue > 1e-14 * scale:
        raise ArithmeticError(f"imaginary residue {residue} in dipole-dipole matrix")
    return geom.omega * v.real


def heisenberg_constants(mset: MomentSet, geom: CouplingGeometry) -> HeisenbergConstants:
    """Model constants reproducing the pair Hamiltonian (with identity shift)."""
    w, alpha = geom.omega, geom.alpha
    cos2 = 3.0 * math.cos(alpha) ** 2
    c0, c1, cx = mset.c0, mset.c1, mset.cx
    jx = w * (cos2 - 2.0) * cx * cx
    jy = w * cx * cx
    jz = w * (1.0 - cos2) * (c0 - c1) ** 2 / 4.0
    gamma = (2.0 * (mset.e1 - mset.e0) + w * (cos2 - 1.0) * (c0 * c0 - c1 * c1)) / 4.0
    shift = mset.e0 + mset.e1 + w * geom.p_alpha * (c0 + c1) ** 2 / 4.0
    if not all(map(math.isfinite, (jx, jy, jz, gamma, shift))):
        raise ValueError(
            f"omega={w} overflows the model constants: jx={jx}, jy={jy}, jz={jz}, gamma={gamma}, shift={shift}"
        )
    return HeisenbergConstants(jx=jx, jy=jy, jz=jz, gamma=gamma, shift=shift)


def xyz_matrix(constants: HeisenbergConstants) -> NDArray[np.float64]:
    """4x4 matrix of the two-qubit model in the product (down, up) basis."""
    return (
        constants.jx * _XX
        + constants.jy * _YY
        + constants.jz * _ZZ
        - constants.gamma * _Z_SUM
        + constants.shift * _ID4
    )


def coupling_surface(x_grid, alpha_grid, j_max: int = DEFAULT_J_MAX) -> Table:
    """Coupling constants per unit Omega over an (x, alpha) grid, rows x-major.

    Rows (x, alpha, jx_over_omega, jy_over_omega, jz_over_omega,
    gamma2_over_omega), where gamma2 is the part of gamma proportional to
    Omega.  Each factor is computed once per x (the moments and their powers)
    or once per alpha (3 cos^2 alpha), as :func:`heisenberg_constants` computes
    it; only the final + - * / run over the grid, in the same order, so every
    row equals :func:`heisenberg_constants` at Omega = 1 bit for bit.
    """
    xs, alphas = np.asarray(x_grid, dtype=float), np.asarray(alpha_grid, dtype=float)
    if xs.ndim != 1 or alphas.ndim != 1 or not xs.size or not alphas.size:
        raise ValueError(
            f"coupling surface needs a non-empty grid of two 1-D axes, got x {xs.shape} and alpha {alphas.shape}"
        )
    xs, alphas = xs.tolist(), alphas.tolist()
    for a in alphas:
        CouplingGeometry(omega=1.0, alpha=a)  # the one tilt check, with its message
    msets = [moments(x, j_max) for x in xs]
    # Per x, as Python scalars: libm pow and numpy's square can differ by an ulp.
    cx = np.array([[m.cx] for m in msets])
    diff_sq = np.array([[(m.c0 - m.c1) ** 2] for m in msets])
    sq_diff = np.array([[m.c0**2 - m.c1**2] for m in msets])
    cos2 = np.array([3.0 * math.cos(a) ** 2 for a in alphas])
    shape = (len(xs), len(alphas))
    columns = (
        np.broadcast_to(np.array(xs)[:, None], shape),
        np.broadcast_to(np.array(alphas), shape),
        (cos2 - 2.0) * cx * cx,
        np.broadcast_to(cx * cx, shape),
        (1.0 - cos2) * diff_sq / 4.0,
        (cos2 - 1.0) * sq_diff / 4.0,
    )
    return Table(
        schema="coupling_surface.v1",
        columns=(
            "x",
            "alpha",
            "jx_over_omega",
            "jy_over_omega",
            "jz_over_omega",
            "gamma2_over_omega",
        ),
        rows=list(zip(*(c.ravel().tolist() for c in columns))),
    )
