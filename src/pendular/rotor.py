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

:func:`operator_matrix` builds each operator between two blocks that share
one j_max as numpy bands of these recursions: cos(theta) one band on both
sides of the diagonal, sin(theta)cos(phi) the J -> J+1 and J -> J-1 bands
from m to m + 1.  Every coefficient is cross-checked against direct
spherical quadrature in the test suite before anything downstream relies on it.

Each block is built as H(x) = J**2 - x*cos(theta) from two cached,
read-only matrices per (m, j_max): the field-free diagonal and the same
cos(theta) matrix that :mod:`pendular.moments` contracts with.  One private
solve, :func:`_stark_eigh`, returns every block's energies and vectors; the
moments kernel and :func:`pendular.moments.stark_map` both read it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

#: Basis size of every first solve; it converges x <= 12 far beyond plotting precision.
#: :mod:`pendular.moments` solves again at LARGEST_J_MAX only where the tail test fails.
DEFAULT_J_MAX = 30

OPERATOR_KINDS = ("cos_theta", "sin_theta_cos_phi")


class EigensolverError(RuntimeError):
    """Stark-block eigensolver failed; carries the offending (x, m, j_max)."""


def _j_values(m: int, j_max: int) -> NDArray[np.int_]:
    """J = |m| .. j_max of one truncated block; ValueError if the block is empty."""
    if j_max < abs(m):
        raise ValueError(f"j_max={j_max} must be at least |m|={abs(m)}")
    return np.arange(abs(m), j_max + 1)


@lru_cache(maxsize=None)
def _operator(kind: str, m_bra: int, m_ket: int, j_max: int) -> NDArray[np.float64]:
    """Read-only :func:`operator_matrix`, built once per key."""
    out = operator_matrix(kind, m_bra, m_ket, j_max)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _j_squared(m: int, j_max: int) -> NDArray[np.float64]:
    """Read-only field-free J**2 = diag(J(J+1)) of one m block."""
    js = _j_values(m, j_max)
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


def operator_matrix(kind: str, m_bra: int, m_ket: int, j_max: int) -> NDArray[np.float64]:
    """Matrix <J',m_bra|op|J,m_ket> between the m_bra and m_ket blocks, both truncated at j_max.

    ``kind`` selects the operator: "cos_theta" requires m_bra = m_ket,
    "sin_theta_cos_phi" requires m_bra = m_ket + 1.  On that block
    sin(theta)sin(phi) is -i times the sin(theta)cos(phi) matrix.
    """
    j_bra, j = _j_values(m_bra, j_max), _j_values(m_ket, j_max)
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {OPERATOR_KINDS}")
    if kind == "cos_theta":
        if m_bra != m_ket:
            raise ValueError(f"cos_theta requires equal m, got bra m={m_bra}, ket m={m_ket}")
    elif m_bra != m_ket + 1:
        raise ValueError(f"{kind} requires m_bra = m_ket + 1, got bra m={m_bra}, ket m={m_ket}")

    m = m_ket
    if kind == "cos_theta":
        # c(J,m) for J = |m| .. j_max - 1, above and below the diagonal.
        lo = j[:-1]
        band = np.sqrt(((lo + 1) ** 2 - m * m) / ((2 * lo + 1) * (2 * lo + 3)))
        return np.diag(band, 1) + np.diag(band, -1)
    # Only sin(theta)e^{+i phi} links m to m + 1, and sin*cos is half of it.
    up = 0.5 * -np.sqrt((j + m + 1) * (j + m + 2) / ((2 * j + 1) * (2 * j + 3)))
    down = 0.5 * np.sqrt((j - m) * (j - m - 1) / ((2 * j - 1) * (2 * j + 1)))
    out, cols = np.zeros((j_bra.size, j.size)), np.arange(j.size)
    for rows, band in ((j + 1 - j_bra[0], up), (j - 1 - j_bra[0], down)):
        keep = (rows >= 0) & (rows < j_bra.size)  # J +- 1 inside the bra block
        out[rows[keep], cols[keep]] = band[keep]
    return out
