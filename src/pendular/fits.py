"""Closed-form approximations of the computed field dependences.

Two functional forms are fitted: a quintic without constant term for the
pseudo-spin gap, and a double sigmoid

    C(x) = A0 + A1 / (1 + exp((x - x1)/k1)) + A2 / (1 + exp(-(x - x2)/k2))

for each of the dipole moment curves c0, c1, cx.  Previously published
parameter sets are bundled as ``REFERENCE_*`` so comparison tables can put
computed data, the reference curves, and a fresh refit side by side; the
computed data come from the moments grid that is solved once per run and
shared with the c1 crossing.  The double sigmoid is over-parameterized, so
fits are judged in function space (curve deviation, R^2), never by
parameter closeness.  The model is linear in A0, A1, A2, so the fit
searches the shape (x1, x2, k1, k2) alone and solves the amplitudes of each
shape exactly (variable projection).  Both sigmoid centres are still
bounded to the sampled window widened by its own width on each side: the
unbounded c1 optimum lies at infinity (x2 -> -inf with a0 -> -inf and
a2 -> +inf), and a centre further out is no longer a step in the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .moments import _grid_curves
from .rotor import DEFAULT_J_MAX
from .tables import Table


class FitError(RuntimeError):
    pass


#: Quintic gap coefficients (a1..a5) from the published reference fit.
REFERENCE_GAP_COEFFS = (0.00794, 0.16531, -0.02838, 0.00206, -5.55762e-5)

#: Published double-sigmoid parameters (a0, a1, a2, x1, x2, k1, k2).
#: The source's x1 entry for cx is ambiguously typeset; the primary reading
#: is -0.4403 and the alternate literal reading is kept for comparison.
REFERENCE_MOMENT_PARAMS = {
    "c0": (-0.24612, -0.56893, 0.95967, -0.09066, -1.25815, 2.17868, 6.7313),
    "c1": (-0.91801, 0.9, 1.36773, 0.09317, 2.52364, 0.80729, 3.38213),
    "cx": (0.21844, -0.53637, 0.02855, -0.4403, 4.28747, 1.18595, 0.94214),
}
REFERENCE_CX_X1_ALT = -4403.0

FIT_QUANTITIES = ("gap", "c0", "c1", "cx")

#: Residual evaluations allowed to one double-sigmoid fit.
_MAX_NFEV = 20000


def gap_polynomial(x, coeffs) -> NDArray[np.float64]:
    """Quintic a1*x + ... + a5*x^5 (no constant term)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for power, a in enumerate(coeffs, start=1):
        out += a * x**power
    return out


def double_sigmoid(x, a0, a1, a2, x1, x2, k1, k2) -> NDArray[np.float64]:
    x = np.asarray(x, dtype=float)
    # Clipped exponents avoid overflow warnings for extreme parameter probes.
    u1 = np.clip((x - x1) / k1, -500.0, 500.0)
    u2 = np.clip(-(x - x2) / k2, -500.0, 500.0)
    return a0 + a1 / (1.0 + np.exp(u1)) + a2 / (1.0 + np.exp(u2))


def _r_squared(data: NDArray[np.float64], model: NDArray[np.float64]) -> float:
    resid = data - model
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((data - data.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class PolyFit:
    coefficients: tuple[float, float, float, float, float]
    r_squared: float

    def predict(self, x) -> NDArray[np.float64]:
        return gap_polynomial(x, self.coefficients)


@dataclass(frozen=True)
class SigmoidFit:
    params: tuple[float, float, float, float, float, float, float]
    r_squared: float
    converged: bool

    def predict(self, x) -> NDArray[np.float64]:
        return double_sigmoid(x, *self.params)


def fit_gap(xs, ys) -> PolyFit:
    """Linear least squares of the gap samples on x..x^5."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("gap samples must be two equal-length 1-D arrays")
    if xs.size < 20:
        raise ValueError(f"need at least 20 gap samples, got {xs.size}")
    design = np.vstack([xs**p for p in range(1, 6)]).T
    coeffs, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
    if rank < 5:
        raise FitError(f"rank-deficient design matrix (rank {rank}); grid is degenerate")
    model = design @ coeffs
    return PolyFit(coefficients=tuple(float(c) for c in coeffs), r_squared=_r_squared(ys, model))


def fit_moment(xs, ys, initial) -> SigmoidFit:
    """Least squares of a double sigmoid through the samples.

    Trust-region search runs over the shape (x1, x2, k1, k2) only; for each
    shape the amplitudes (a0, a1, a2) are the exact linear least-squares
    solution.  ``initial`` is a full 7-tuple (a0, a1, a2, x1, x2, k1, k2),
    of which only the shape entries are used.  Non-convergence is not
    fatal: the best parameters found are returned with ``converged=False``.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("moment samples must be two equal-length 1-D arrays")
    if xs.size < 50:
        raise ValueError(f"need at least 50 moment samples, got {xs.size}")
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (7,):
        raise ValueError(f"initial must hold the 7 double-sigmoid parameters, got shape {initial.shape}")
    # Imported here so that importing the package does not load scipy.optimize.
    from scipy.optimize import least_squares

    def projected(shape):
        x1, x2, k1, k2 = shape
        u1 = np.clip((xs - x1) / k1, -500.0, 500.0)
        u2 = np.clip(-(xs - x2) / k2, -500.0, 500.0)
        basis = np.column_stack((np.ones_like(xs), 1.0 / (1.0 + np.exp(u1)), 1.0 / (1.0 + np.exp(u2))))
        amplitudes = np.linalg.lstsq(basis, ys, rcond=None)[0]
        return amplitudes, basis @ amplitudes - ys

    # Centres stay within one window width of the samples; widths stay positive.
    span = xs.max() - xs.min()
    lower = np.array([xs.min() - span] * 2 + [1e-8, 1e-8])
    upper = np.array([xs.max() + span] * 2 + [np.inf] * 2)
    result = least_squares(
        lambda shape: projected(shape)[1],
        x0=np.clip(initial[3:], lower, upper),
        bounds=(lower, upper),
        method="trf",
        max_nfev=_MAX_NFEV,
    )
    params = tuple(float(p) for p in (*projected(result.x)[0], *result.x))
    model = double_sigmoid(xs, *params)
    return SigmoidFit(params=params, r_squared=_r_squared(ys, model), converged=bool(result.success))


def fit_samples(
    quantity: str, x_max: float = 12.0, step: float = 0.01, j_max: int = DEFAULT_J_MAX
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Computed samples of one fittable quantity on a uniform grid.

    The grid is solved once per run and shared with the c1 crossing, so the
    returned arrays are read-only.
    """
    if quantity not in FIT_QUANTITIES:
        raise ValueError(f"quantity must be one of {FIT_QUANTITIES}, got {quantity!r}")
    curves = _grid_curves(x_max, step, j_max)
    return curves["x"], curves["delta_e" if quantity == "gap" else quantity]


def reference_curve(quantity: str, xs, alternate: bool = False) -> NDArray[np.float64]:
    """Reference-parameter curve; ``alternate`` selects the other cx reading."""
    if quantity == "gap":
        return gap_polynomial(xs, REFERENCE_GAP_COEFFS)
    params = REFERENCE_MOMENT_PARAMS[quantity]
    if alternate:
        if quantity != "cx":
            raise ValueError("only cx has an alternate reference reading")
        params = params[:3] + (REFERENCE_CX_X1_ALT,) + params[4:]
    return double_sigmoid(xs, *params)


def comparison_table(
    quantity: str, x_max: float = 12.0, step: float = 0.01, j_max: int = DEFAULT_J_MAX
) -> tuple[Table, PolyFit | SigmoidFit]:
    """Computed vs reference vs refit curves for one quantity.

    For cx the table carries both readings of the ambiguous reference x1.
    """
    xs, ys = fit_samples(quantity, x_max, step, j_max)
    fit = fit_gap(xs, ys) if quantity == "gap" else fit_moment(xs, ys, REFERENCE_MOMENT_PARAMS[quantity])
    curves = {"x": xs, "computed": ys, "reference": reference_curve(quantity, xs)}
    if quantity == "cx":
        curves["reference_alt"] = reference_curve(quantity, xs, alternate=True)
    curves["refit"] = fit.predict(xs)
    rows = list(map(tuple, np.column_stack(tuple(curves.values())).tolist()))
    return Table(schema=f"fit_comparison_{quantity}.v1", columns=tuple(curves), rows=rows), fit
