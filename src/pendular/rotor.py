"""Angular operator matrices and the single-molecule pendular eigenproblem.

A rigid linear polar molecule in a static electric field is governed, in
units of the rotational constant B, by H = J**2 - x*cos(theta), where x is
the reduced field strength (dipole moment times field over B).  The field
mixes rotational levels of equal azimuthal quantum number m, so everything
here works inside one truncated spherical-harmonic block
{|J,m> : J = |m| .. j_max}.

All matrix elements use spherical harmonics with the Condon-Shortley phase.
The required recursions are

    cos(theta) Y_J^m     = c(J,m) Y_{J+1}^m + c(J-1,m) Y_{J-1}^m,
    c(J,m)               = sqrt(((J+1)^2 - m^2) / ((2J+1)(2J+3))),

    sin(theta)e^{+i phi} Y_J^m = -sqrt((J+m+1)(J+m+2)/((2J+1)(2J+3))) Y_{J+1}^{m+1}
                                 +sqrt((J-m)(J-m-1)/((2J-1)(2J+1)))   Y_{J-1}^{m+1}.

Every coefficient above is cross-checked against direct spherical quadrature
in the test suite before anything downstream relies on it.

Each block is built as H(x) = J**2 - x*cos(theta) from two cached,
read-only matrices per (m, j_max): the field-free diagonal and the same
cos(theta) matrix that :mod:`pendular.moments` contracts with.  One private
solve, :func:`_stark_eigh`, returns every block's energies and vectors; the
moments kernel and :func:`pendular.moments.stark_map` both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

#: Basis truncation used throughout unless a caller overrides it.  Converges
#: all quantities for reduced fields x <= 12 far beyond plotting precision.
DEFAULT_J_MAX = 30

OPERATOR_KINDS = ("cos_theta", "sin_theta_cos_phi")


class EigensolverError(RuntimeError):
    """Stark-block eigensolver failed; carries the offending (x, m, j_max)."""


@dataclass(frozen=True)
class BasisSpec:
    """Truncated spherical-harmonic basis {|J,m> : J = |m| .. j_max}."""

    m: int
    j_max: int = DEFAULT_J_MAX

    def __post_init__(self) -> None:
        if self.j_max < abs(self.m):
            raise ValueError(
                f"j_max={self.j_max} must be at least |m|={abs(self.m)}"
            )

    @property
    def dim(self) -> int:
        return self.j_max - abs(self.m) + 1

    @property
    def j_values(self) -> NDArray[np.int_]:
        return np.arange(abs(self.m), self.j_max + 1)


def _cos_coupling(j: int, m: int) -> float:
    # <J+1,m|cos(theta)|J,m>
    return math.sqrt(((j + 1) ** 2 - m * m) / ((2 * j + 1) * (2 * j + 3)))


def _raise_to_upper(j: int, m: int) -> float:
    # <J+1,m+1|sin(theta)e^{+i phi}|J,m>
    return -math.sqrt((j + m + 1) * (j + m + 2) / ((2 * j + 1) * (2 * j + 3)))


def _raise_to_lower(j: int, m: int) -> float:
    # <J-1,m+1|sin(theta)e^{+i phi}|J,m>
    return math.sqrt((j - m) * (j - m - 1) / ((2 * j - 1) * (2 * j + 1)))


@lru_cache(maxsize=None)
def _operator(kind: str, m_bra: int, m_ket: int, j_max: int) -> NDArray[np.float64]:
    """Read-only :func:`operator_matrix` between two j_max bases, built once per key."""
    out = operator_matrix(kind, BasisSpec(m=m_bra, j_max=j_max), BasisSpec(m=m_ket, j_max=j_max))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _j_squared(m: int, j_max: int) -> NDArray[np.float64]:
    """Read-only field-free J**2 = diag(J(J+1)) of one m block."""
    js = BasisSpec(m=m, j_max=j_max).j_values
    out = np.diag((js * (js + 1)).astype(np.float64))
    out.setflags(write=False)
    return out


def _stark_eigh(x: float, m: int, j_max: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Ascending energies and eigenvector columns of the m block at field x.

    Solves H = J**2 - x*cos(theta) with ``numpy.linalg.eigh``, which gives
    ``scipy.linalg.eigh_tridiagonal``'s result bit for bit on these blocks.
    The vectors are returned in Fortran order, as LAPACK writes them, so that
    a column is contiguous and its contractions sum in a fixed order.
    """
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"reduced field must be finite and non-negative, got {x}")
    h = _j_squared(m, j_max) - x * _operator("cos_theta", m, m, j_max)
    try:
        energies, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"pendular eigensolve failed at x={x}, m={m}, j_max={j_max} ({exc})") from exc
    return energies, np.asfortranarray(vecs)


def operator_matrix(kind: str, spec_bra: BasisSpec, spec_ket: BasisSpec) -> NDArray[np.float64]:
    """Matrix <J',m'|op|J,m> between two truncated bases.

    ``kind`` selects the operator: "cos_theta" requires m' = m,
    "sin_theta_cos_phi" requires m' = m + 1.  On that block
    sin(theta)sin(phi) is -i times the sin(theta)cos(phi) matrix.
    """
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {OPERATOR_KINDS}")
    mb, mk = spec_bra.m, spec_ket.m
    if kind == "cos_theta":
        if mb != mk:
            raise ValueError(f"cos_theta requires equal m, got bra m={mb}, ket m={mk}")
    elif mb != mk + 1:
        raise ValueError(f"{kind} requires m_bra = m_ket + 1, got bra m={mb}, ket m={mk}")

    out = np.zeros((spec_bra.dim, spec_ket.dim))
    jb_lo, jb_hi = abs(mb), spec_bra.j_max

    def put(j_target: int, col: int, value: float) -> None:
        if jb_lo <= j_target <= jb_hi:
            out[j_target - jb_lo, col] = value

    for col, j in enumerate(int(j) for j in spec_ket.j_values):
        if kind == "cos_theta":
            put(j + 1, col, _cos_coupling(j, mk))
            if j - 1 >= abs(mk):
                put(j - 1, col, _cos_coupling(j - 1, mk))
            continue
        up, down = _raise_to_upper(j, mk), _raise_to_lower(j, mk)
        if j - 1 < abs(mb):
            down = 0.0
        # Only sin(theta)e^{+i phi} links m to m + 1, and sin*cos is half of it.
        put(j + 1, col, 0.5 * up)
        put(j - 1, col, 0.5 * down)
    return out
