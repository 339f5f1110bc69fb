"""Field-dependent ingredients of the two-level pendular encoding.

The pseudo-spin pair is |down> = lowest pendular state of the m = 1 block
and |up> = second pendular state of the m = 0 block (the two levels that
emerge from the field-free J = 1 multiplet).  For each reduced field x this
module extracts their energies e0, e1, the orientation cosines
c0 = <down|cos(theta)|down>, c1 = <up|cos(theta)|up>, and the transition
moment cx = <down|sin(theta)cos(phi)|up>, plus a tabulated scan of the
pendular level energies.  A uniform 0:stop:step grid is solved once per run
and shared by the fits of :mod:`pendular.fits` and the c1 zero crossing.

Sign handling: eigenvector phases are arbitrary, and the raw rule used by
:mod:`pendular.rotor` (largest coefficient positive) would flip the up state
wherever its leading component changes identity (near x ~ 4.5).  Quantities
built from two different states, cx in particular, must instead be smooth in
x, so this module orients the pair as follows.  |down> has its J = 1
component positive: it is the lowest state of a tridiagonal matrix whose
off-diagonal entries -x<J+1|cos|J> are all negative, so all its components
share one sign and the anchor never vanishes.  |up> is then signed so that
cx > 0; at x = 0, where cx is exactly 0, its J = 1 component is positive.
Every coefficient of both states is therefore a continuous function of x on
the whole accepted domain, cx(x) is positive for x > 0, and c0, c1 and the
energies do not depend on the choice.

All of this runs through one private kernel, :func:`_pseudo_spin`: two
block solves through the same solver as :func:`pendular.rotor.solve_pendular`,
and contractions with the operator matrices that :mod:`pendular.rotor`
caches read-only.  It rejects a non-finite or negative x, and a
basis too small for x (:class:`TruncationError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .rotor import (
    DEFAULT_J_MAX,
    BasisSpec,
    _operator,
    _stark_eigh,
    solve_pendular,
)
from .tables import Table

#: m blocks hosting the two pseudo-spin states.
DOWN_M = 1
UP_M = 0

#: Largest last-basis amplitude |c_{j_max}| accepted for either state.
TAIL_TOLERANCE = 1e-8


class TruncationError(ValueError):
    """A pseudo-spin state reaches the edge of the basis: j_max is too small for x."""


@dataclass(frozen=True)
class MomentSet:
    """Energies and dipole matrix elements of the pseudo-spin pair at one x.

    Energies are in units of B; c0, c1, cx are dimensionless and bounded by
    1 in magnitude.
    """

    x: float
    e0: float
    e1: float
    c0: float
    c1: float
    cx: float

    @property
    def delta_e(self) -> float:
        return self.e1 - self.e0


class _PseudoSpin(NamedTuple):
    """Oriented states, energies and moments of the pseudo-spin pair at one x."""

    down: NDArray[np.float64]
    up: NDArray[np.float64]
    e0: float
    e1: float
    c0: np.float64
    c1: np.float64
    cx: np.float64


def _contract(kind: str, bra, m_bra: int, ket, m_ket: int, j_max: int) -> np.float64:
    """<bra|op|ket>, evaluated as bra @ M @ ket.

    The evaluation order is part of the output: an einsum over the same
    vectors changes the last printed digit of c1 near its zero crossing.
    """
    return bra @ _operator(kind, m_bra, m_ket, j_max) @ ket


def _block_state(x: float, m: int, level: int, j_max: int) -> tuple[float, NDArray[np.float64]]:
    """Energy and J = 1-positive vector of one level of the m block.

    Same full-spectrum block solve as :func:`~pendular.rotor.solve_pendular`,
    so energies and vectors are bit-identical to it.
    """
    energies, vecs = _stark_eigh(x, m, j_max)
    vec = vecs[:, level]
    if vec[1 - abs(m)] < 0:  # the J = 1 component
        vec = -vec
    tail = abs(vec[-1])
    if tail > TAIL_TOLERANCE:
        raise TruncationError(
            f"basis too small at x={x}, m={m}, j_max={j_max}: last-basis amplitude "
            f"{tail:.2e} exceeds {TAIL_TOLERANCE:.0e}; raise j_max"
        )
    return float(energies[level]), vec


def _pseudo_spin(x: float, j_max: int) -> _PseudoSpin:
    """The pseudo-spin kernel; see the module docstring for the orientation."""
    e0, down = _block_state(x, DOWN_M, 0, j_max)
    e1, up = _block_state(x, UP_M, 1, j_max)
    cx = _contract("sin_theta_cos_phi", down, DOWN_M, up, UP_M, j_max)
    if cx < 0:
        up, cx = -up, -cx
    c0 = _contract("cos_theta", down, DOWN_M, down, DOWN_M, j_max)
    c1 = _contract("cos_theta", up, UP_M, up, UP_M, j_max)
    return _PseudoSpin(down, up, e0, e1, c0, c1, cx)


def moments(x: float, j_max: int = DEFAULT_J_MAX) -> MomentSet:
    """Pseudo-spin energies and dipole moments at reduced field x."""
    ps = _pseudo_spin(x, j_max)
    return MomentSet(
        x=float(x), e0=ps.e0, e1=ps.e1, c0=float(ps.c0), c1=float(ps.c1), cx=float(ps.cx)
    )


def moment_curves(
    x_grid: NDArray[np.float64] | list[float], j_max: int = DEFAULT_J_MAX
) -> dict[str, NDArray[np.float64]]:
    """e0, e1, delta_e, c0, c1 and cx over an x grid, one :func:`moments` call per point."""
    xs = _validated_grid(x_grid)
    sets = [moments(float(x), j_max) for x in xs]
    return {
        "x": xs,
        "e0": np.array([m.e0 for m in sets]),
        "e1": np.array([m.e1 for m in sets]),
        "delta_e": np.array([m.delta_e for m in sets]),
        "c0": np.array([m.c0 for m in sets]),
        "c1": np.array([m.c1 for m in sets]),
        "cx": np.array([m.cx for m in sets]),
    }


def uniform_grid(start: float, stop: float, step: float) -> NDArray[np.float64]:
    """start, start + step, ... through stop (within half a step), rounded to 12 decimals."""
    if not (np.all(np.isfinite((start, stop, step))) and step > 0 and stop >= start):
        raise ValueError(
            f"uniform grid needs finite start <= stop and step > 0, "
            f"got start={start}, stop={stop}, step={step}"
        )
    points = (stop - start) / step + 1
    return checked_grid(f"{start}:{stop}:{step}", points, lambda: np.round(np.arange(start, stop + step / 2, step), 12))


def checked_grid(label: str, points: float, make) -> NDArray[np.float64]:
    """``make()``, a grid of about ``points`` values; MemoryError naming ``label`` if it cannot be held."""
    try:
        if points > 2**60:  # numpy's cap: the bytes of a float64 array must count in an intp
            raise MemoryError(f"{points:.3g} points")
        return make()
    except MemoryError as exc:
        raise MemoryError(f"grid {label} is too large for memory: {exc}") from None


@lru_cache(maxsize=1)
def _grid_curves(stop: float, step: float, j_max: int) -> dict[str, NDArray[np.float64]]:
    """Read-only moment curves on 0:stop:step, solved once per run for the fits and the c1 crossing."""
    curves = moment_curves(uniform_grid(0.0, stop, step), j_max)
    for values in curves.values():
        values.setflags(write=False)
    return curves


def _validated_grid(x_grid) -> NDArray[np.float64]:
    xs = np.asarray(x_grid, dtype=np.float64)
    if xs.ndim != 1 or not xs.size:
        raise ValueError(f"x grid must be a non-empty 1-D array, got shape {xs.shape}")
    if np.any(xs < 0):
        raise ValueError("x grid must be non-negative")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("x grid must be strictly ascending")
    return xs


def stark_map(
    x_grid,
    m_values: tuple[int, ...] = (0, 1),
    n_states: int = 4,
    j_max: int = DEFAULT_J_MAX,
) -> Table:
    """Pendular level energies: rows (x, m, j_tilde, energy_over_b).

    Lowest ``n_states`` adiabatic levels per m block, ordered by
    (x, m, j_tilde).
    """
    xs = _validated_grid(x_grid)
    if n_states < 1:
        raise ValueError("n_states must be positive")
    rows = []
    for x in xs:
        for m in m_values:
            sol = solve_pendular(float(x), BasisSpec(m=m, j_max=j_max))
            for k in range(min(n_states, sol.spec.dim)):
                rows.append((float(x), m, sol.j_tilde(k), float(sol.energies[k])))
    return Table(
        schema="stark_map.v1",
        columns=("x", "m", "j_tilde", "energy_over_b"),
        rows=rows,
    )


def interpolated_root(xs: NDArray[np.float64], ys: NDArray[np.float64]) -> float:
    """First sign change of sampled data, refined on a cubic spline."""
    sign = np.sign(ys)
    exact = np.where(sign == 0)[0]
    flips = np.where(sign[1:] * sign[:-1] < 0)[0]
    if exact.size and (flips.size == 0 or exact[0] <= flips[0]):
        return float(xs[exact[0]])
    if flips.size == 0:
        raise ValueError("no sign change in sampled data")
    # Imported here so that importing the package does not load scipy.interpolate/optimize.
    from scipy.interpolate import CubicSpline
    from scipy.optimize import brentq

    i = int(flips[0])
    spline = CubicSpline(xs, ys)
    return float(brentq(spline, xs[i], xs[i + 1]))


def c1_zero_crossing(
    j_max: int = DEFAULT_J_MAX,
    x_min: float = 0.01,
    x_max: float = 12.0,
    step: float = 0.01,
) -> float:
    """Location of the interior zero of c1(x) on [x_min, x_max].

    Samples are the points x >= x_min of the cached 0:x_max:step grid, less
    x = 0 where c1 = 0 exactly; an x_min off that grid starts at the next point.
    """
    if not (np.isfinite(x_min) and 0.0 <= x_min <= x_max):
        raise ValueError(f"c1 crossing needs finite 0 <= x_min <= stop, got x_min={x_min}, stop={x_max}")
    curves = _grid_curves(x_max, step, j_max)
    keep = (curves["x"] > 0.0) & (curves["x"] >= np.round(x_min, 12))
    return interpolated_root(curves["x"][keep], curves["c1"][keep])
