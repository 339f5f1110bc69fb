"""Independent numerical oracles used to validate the library.

Everything here deliberately avoids the code paths under test: matrix
elements come from brute-force spherical quadrature, derivatives from
central differences, XX-chain energies from the free-fermion mapping, the
pseudo-spin moments from the public full-spectrum solver, chain ground
states from every magnetization sector, with no pruning, the half-chain
bound from every half sector, the sector diagonal from a loop over the
bonds, the full chain
Hamiltonian from Kronecker products of Pauli matrices, two molecules with
every M from the Y_J^M recursions, and CSV text from
``csv.writer`` one formatted cell at a time.  The Stark tridiagonal comes
from the closed-form cos(theta) recursion coefficient, computed here
element-wise, and is solved by scipy's checked tridiagonal solver.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace
from enum import Enum
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal
from scipy.special import sph_harm_y

from pendular.rotor import BasisSpec, operator_matrix, solve_pendular


def stark_tridiagonal(x: float, m: int, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal J(J+1) and off-diagonal -x*<J+1,m|cos(theta)|J,m> of one m block, units of B.

    The coupling is the closed form sqrt(((J+1)^2 - m^2) / ((2J+1)(2J+3))).
    """
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"reduced field must be finite and non-negative, got {x}")
    js = np.arange(abs(m), j_max + 1)
    diag = (js * (js + 1)).astype(np.float64)
    lower = js[:-1]
    off = -x * np.sqrt(((lower + 1) ** 2 - m * m) / ((2 * lower + 1) * (2 * lower + 3)))
    return diag, off


def build_stark_hamiltonian(x: float, spec: BasisSpec) -> np.ndarray:
    """Stark Hamiltonian J(J+1) - x*cos(theta) in one m block, units of B.

    Returns the full symmetric tridiagonal matrix of :func:`stark_tridiagonal`.
    """
    diag, off = stark_tridiagonal(x, spec.m, spec.j_max)
    h = np.diag(diag)
    if off.size:
        idx = np.arange(off.size)
        h[idx, idx + 1] = off
        h[idx + 1, idx] = off
    return h


def _grids(n_theta: int = 64, n_phi: int = 64):
    u, wu = leggauss(n_theta)  # u = cos(theta); d(cos theta) absorbs sin(theta)
    theta = np.arccos(u)
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    t, p = np.meshgrid(theta, phi, indexing="ij")
    weights = wu[:, None] * (2 * np.pi / n_phi)
    return t, p, weights


def quad_operator_matrix(kind: str, spec_bra: BasisSpec, spec_ket: BasisSpec) -> np.ndarray:
    """Full rectangular <J',m'| op |J,m> by 2-D spherical quadrature (exact for these integrands; complex)."""
    t, p, w = _grids()
    if kind == "cos_theta":
        op = np.cos(t)
    elif kind == "sin_theta_cos_phi":
        op = np.sin(t) * np.cos(p)
    elif kind == "sin_theta_sin_phi":
        op = np.sin(t) * np.sin(p)
    else:
        raise ValueError(kind)
    y_bra = [np.conj(sph_harm_y(int(j), spec_bra.m, t, p)) for j in spec_bra.j_values]
    y_ket = [sph_harm_y(int(j), spec_ket.m, t, p) for j in spec_ket.j_values]
    return np.array([[np.sum(yb * op * yk * w) for yk in y_ket] for yb in y_bra])


def checked_tridiagonal_solve(x: float, m: int, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Energies and eigenvectors of one m block through scipy's ``eigh_tridiagonal``.

    The diagonal and off-diagonal come from :func:`stark_tridiagonal`, and
    scipy's wrapper validates them before it calls LAPACK.
    """
    return eigh_tridiagonal(*stark_tridiagonal(x, m, j_max))


def _j1_positive_state(x: float, m: int, j_tilde: int, j_max: int) -> np.ndarray:
    """Pendular state re-signed so that its J = 1 component is positive."""
    sol = solve_pendular(x, BasisSpec(m=m, j_max=j_max))
    vec = sol.coefficients[:, j_tilde - abs(m)]
    if vec[1 - abs(m)] < 0:  # the J = 1 component
        vec = -vec
    return vec


def public_route_elements(x: float, j_max: int = 30) -> dict[str, float]:
    """e0, e1 and the four pseudo-spin matrix elements from public rotor calls.

    Each state is solved with :func:`solve_pendular` over its full spectrum,
    both states carry the J = 1-positive sign, and each operator matrix is
    rebuilt with :func:`operator_matrix`.  On 0 < x <= 12 this sign already
    makes cx positive.  ``k_du`` is <down|sin(theta)sin(phi)|up> / i.
    """
    spec_d, spec_u = BasisSpec(m=1, j_max=j_max), BasisSpec(m=0, j_max=j_max)
    down = _j1_positive_state(x, 1, 1, j_max)
    up = _j1_positive_state(x, 0, 1, j_max)
    return {
        "e0": float(solve_pendular(x, spec_d).energies[0]),
        "e1": float(solve_pendular(x, spec_u).energies[1]),
        "c0": down @ operator_matrix("cos_theta", spec_d, spec_d) @ down,
        "c1": up @ operator_matrix("cos_theta", spec_u, spec_u) @ up,
        "cx": down @ operator_matrix("sin_theta_cos_phi", spec_d, spec_u) @ up,
        "k_du": down @ operator_matrix("sin_theta_sin_phi", spec_d, spec_u) @ up,
    }


def up_leading_swap(x_min: float = 0.01, x_max: float = 12.0, step: float = 0.01, j_max: int = 30) -> float:
    """Field at which |Y_0^0| overtakes |Y_1^0| in the up state, from public rotor calls."""
    from pendular.moments import interpolated_root

    xs = np.arange(x_min, x_max + step / 2, step)
    ups = [_j1_positive_state(float(x), 0, 1, j_max) for x in xs]
    return interpolated_root(xs, np.array([abs(up[0]) - abs(up[1]) for up in ups]))


def central_difference(f, x: float, h: float = 1e-4) -> float:
    return (f(x + h) - f(x - h)) / (2 * h)


def brute_force_pair_interaction(
    x: float, alpha: float, omega: float, j_max: int = 30, n_theta: int = 48, n_phi: int = 48
) -> np.ndarray:
    """Two-molecule interaction by raw coordinate-space quadrature.

    Evaluates the pendular wavefunctions on an angular mesh and integrates
    the dipole-dipole kernel directly; no recursion coefficients or
    selection rules enter, so this is a fully independent route to the 4x4
    pseudo-spin matrix.
    """
    from pendular.moments import _pseudo_spin

    ps = _pseudo_spin(x, j_max)
    down, up = ps.down, ps.up
    u, wu = leggauss(n_theta)
    theta = np.arccos(u)
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    t = np.repeat(theta, n_phi)
    p = np.tile(phi, n_theta)
    w = np.repeat(wu, n_phi) * (2 * np.pi / n_phi)

    psi_down = sum(down[i] * sph_harm_y(j, 1, t, p) for i, j in enumerate(range(1, j_max + 1)))
    psi_up = sum(up[i] * sph_harm_y(j, 0, t, p) for i, j in enumerate(range(0, j_max + 1)))
    states = {"d": psi_down, "u": psi_up}

    mu_x, mu_y, mu_z = np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)
    axis = mu_x * np.sin(alpha) + mu_z * np.cos(alpha)

    def entry(bra: str, ket: str) -> complex:
        f1 = np.conj(states[bra[0]]) * states[ket[0]] * w
        f2 = np.conj(states[bra[1]]) * states[ket[1]] * w
        dot = sum((c * f1).sum() * (c * f2).sum() for c in (mu_x, mu_y, mu_z))
        return omega * (dot - 3.0 * (axis * f1).sum() * (axis * f2).sum())

    basis = ("dd", "du", "ud", "uu")
    out = np.array([[entry(b, k) for k in basis] for b in basis])
    assert np.abs(out.imag).max() <= 1e-13
    return out.real


def two_molecule_hamiltonian(
    x: float, omega: float, alpha: float, states: list[tuple[int, int]], j_max: int = 30
) -> np.ndarray:
    """Two molecules with every M: Stark energies plus Omega times the dipole-dipole operator, units of B.

    ``states`` lists single-molecule eigenstates as (M, level), level 0 the lowest of the M block;
    rows and columns run over the products, index ``i * len(states) + j`` for molecule 1 in
    ``states[i]`` and molecule 2 in ``states[j]``.  The basis |J, M> (|M| <= J <= j_max) carries
    cos(theta) and s+ = sin(theta) e^{i phi} from the Y_J^M recursions
        cos Y_J^M = a(J+1, M) Y_{J+1}^M + a(J, M) Y_{J-1}^M,  a(J, M) = sqrt((J^2 - M^2) / ((2J-1)(2J+1))),
        s+ Y_J^M = -b(J+1, M+1) Y_{J+1}^{M+1} + b(J, -M) Y_{J-1}^{M+1},
        b(J, M) = sqrt((J+M-1)(J+M) / ((2J-1)(2J+1))),
    and s- = s+^T.  With the array axis n = (sin a, 0, cos a), the interaction
        V/Omega = mu1.mu2 - 3 (mu1.n)(mu2.n),  mu.mu' = cos cos' + (s+ s-' + s- s+')/2,
        mu.n = sin(a) (s+ + s-)/2 + cos(a) cos,
    conserves M1 + M2 exactly when sin(a) = 0.  Nothing is shared with :mod:`pendular.rotor` or :mod:`pendular.pair`.
    """
    m_max = max(abs(m) for m, _ in states)
    basis = [(j, m) for m in range(-m_max, m_max + 1) for j in range(abs(m), j_max + 1)]
    index = {jm: i for i, jm in enumerate(basis)}
    cos, s_plus = np.zeros((len(basis),) * 2), np.zeros((len(basis),) * 2)
    for (j, m), col in index.items():
        # A coefficient whose target lies outside the basis is 0 or dropped by the truncation.
        for op, target, value in (
            (cos, (j + 1, m), math.sqrt(((j + 1) ** 2 - m * m) / ((2 * j + 1) * (2 * j + 3)))),
            (cos, (j - 1, m), math.sqrt((j * j - m * m) / ((2 * j - 1) * (2 * j + 1)))),
            (s_plus, (j + 1, m + 1), -math.sqrt((j + m + 1) * (j + m + 2) / ((2 * j + 1) * (2 * j + 3)))),
            (s_plus, (j - 1, m + 1), math.sqrt((j - m - 1) * (j - m) / ((2 * j - 1) * (2 * j + 1)))),
        ):
            if target in index:
                op[index[target], col] = value
    energies, vectors = [], []
    for m, level in states:
        block = [index[(j, m)] for j in range(abs(m), j_max + 1)]
        e, v = np.linalg.eigh(np.diag([j * (j + 1.0) for j in range(abs(m), j_max + 1)]) - x * cos[np.ix_(block, block)])
        vector = np.zeros(len(basis))
        vector[block] = v[:, level]
        energies.append(e[level])
        vectors.append(vector)
    u = np.array(vectors).T
    c, sp = u.T @ cos @ u, u.T @ s_plus @ u
    sm = sp.T
    axis = math.sin(alpha) * (sp + sm) / 2 + math.cos(alpha) * c
    v = np.kron(c, c) + (np.kron(sp, sm) + np.kron(sm, sp)) / 2 - 3.0 * np.kron(axis, axis)
    one = np.eye(len(states))
    return np.kron(np.diag(energies), one) + np.kron(one, np.diag(energies)) + omega * v


def xx_open_chain_modes(n: int, j: float) -> np.ndarray:
    """Single-particle energies of the open XX chain (flip-flop amplitude 2j)."""
    k = np.arange(1, n + 1)
    return 4.0 * j * np.cos(k * np.pi / (n + 1))


def xx_open_chain_ground_energy(n: int, j: float) -> float:
    modes = xx_open_chain_modes(n, j)
    return float(modes[modes < 0].sum())


def xx_open_chain_gap(n: int, j: float) -> float:
    modes = xx_open_chain_modes(n, j)
    return float(np.abs(modes).min())


def free_fermion_sector_minima(n: int, j: float, boundary: str = "open") -> np.ndarray:
    """Lowest level of each magnetization sector k of the XX chain (jz = 0, no field).

    By Jordan-Wigner the k up spins are free fermions with hopping 2j, and the
    sector's lowest level fills the k lowest modes 4j cos(q) (Lieb, Schultz &
    Mattis, Ann. Phys. 16, 407 (1961)).  Open chain: q = pi m / (n + 1),
    m = 1..n.  Ring: the fermions see a periodic boundary for odd k and an
    antiperiodic one for even k, q = 2 pi m / n or 2 pi (m + 1/2) / n.
    """
    if boundary == "open":
        return np.concatenate([[0.0], np.cumsum(np.sort(xx_open_chain_modes(n, j)))])
    minima = [0.0]
    for k in range(1, n + 1):
        shift = 0.0 if k % 2 else 0.5
        modes = np.sort(4.0 * j * np.cos(2.0 * np.pi * (np.arange(n) + shift) / n))
        minima.append(float(modes[:k].sum()))
    return np.array(minima)


def one_magnon_saturation_gamma(j: float, jz: float) -> float:
    """Field at which a single spin flip above the polarized state costs zero."""
    return 2.0 * (j + jz)


def two_site_spectrum(j: float, jz: float, gamma: float) -> np.ndarray:
    """Analytic eigenvalues of the two-site chain."""
    return np.sort(np.array([jz + 2 * gamma, jz - 2 * gamma, -jz + 2 * j, -jz - 2 * j]))


PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@cache
def pauli_product(n: int, *factors: tuple[int, str]) -> np.ndarray:
    """Kronecker product over sites 0..n-1 of the Pauli matrix of each (site, axis) factor.

    Identity on every other site.  Site 0 is the leftmost factor, and
    sigma_z = +1 ("up") is the first basis state of each site.  Cached, read-only.
    """
    axes = dict(factors)
    out = np.ones((1, 1), dtype=complex)
    for i in range(n):
        out = np.kron(out, PAULI[axes[i]] if i in axes else np.eye(2))
    out.flags.writeable = False
    return out


def pauli_chain_hamiltonian(spec) -> np.ndarray:
    """Full 2^n x 2^n chain Hamiltonian from Kronecker products of Pauli matrices.

    H = sum_bonds [ j (sx sx + sy sy) + jz sz sz ] - gamma * sum_i sz_i, added
    bond by bond in ``spec.bonds`` order; no bit patterns and nothing of
    :mod:`pendular.chain` but the bond list enter.
    """
    n = spec.n
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for a, b in spec.bonds:
        h += spec.j * (pauli_product(n, (a, "x"), (b, "x")) + pauli_product(n, (a, "y"), (b, "y")))
        h += spec.jz * pauli_product(n, (a, "z"), (b, "z"))
    for i in range(n):
        h -= spec.gamma * pauli_product(n, (i, "z"))
    assert not h.imag.any()
    return h.real


def pauli_z(n: int) -> np.ndarray:
    """Diagonal of sigma_z on each site, shape (n, 2^n), in the basis of :func:`pauli_product`."""
    return np.array([np.diag(pauli_product(n, (i, "z"))).real for i in range(n)])


def full_space_ground(spec) -> dict[str, float]:
    """Ground energy, gap and ground-state observables of :func:`pauli_chain_hamiltonian`.

    Diagonalizes the whole Hilbert space at once, with no magnetization
    sectors, and reads every observable from the Pauli z diagonals.  The
    observables are meaningful only for a non-degenerate ground state.
    """
    n = spec.n
    energies, vecs = np.linalg.eigh(pauli_chain_hamiltonian(spec))
    weights = vecs[:, 0] ** 2
    z = pauli_z(n)
    staggered = (z * (-1.0) ** np.arange(n)[:, None]).sum(axis=0) / n
    return {
        "ground_energy": float(energies[0]),
        "gap": float(energies[1] - energies[0]),
        "magnetization_per_site": float(weights @ z.sum(axis=0)) / n,
        "nn_zz_correlation": float(sum(weights @ (z[a] * z[b]) for a, b in spec.bonds)) / len(spec.bonds),
        "staggered_zz_correlation": float(weights @ staggered**2),
        "ground_overlap_polarized": float(weights[z.sum(axis=0) == n].sum()),
    }


def xxz_phase(j: float, jz: float, gamma: float) -> str:
    """Thermodynamic-limit phase of the chain, as a :class:`pendular.chain.Phase` value.

    In Pauli units with Delta = jz / |j| (j != 0):
    - ferromagnetic for |gamma| >= 2 (|j| + jz), the one-magnon saturation
      field; for Delta <= -1 that is every gamma;
    - Neel (antiferromagnetic) for Delta > 1 and |gamma| < gamma_c1, the spin
      gap 2 |j| sinh(phi) sum_m (-1)^m / cosh(m phi), cosh(phi) = Delta
      (des Cloizeaux & Gaudin, J. Math. Phys. 7, 1384 (1966));
    - Luttinger liquid otherwise.
    """
    if abs(gamma) >= 2.0 * (abs(j) + jz):
        return "ferromagnetic"
    if jz / abs(j) > 1.0 and abs(gamma) < xxz_gamma_c1(j, jz):
        return "antiferromagnetic"
    return "luttinger_liquid"


def xxz_gamma_c1(j: float, jz: float) -> float:
    """Lower critical field of the gapped XXZ chain, Delta = jz / |j| > 1 (des Cloizeaux & Gaudin)."""
    phi = np.arccosh(jz / abs(j))
    m = np.arange(-int(50.0 / phi) - 1, int(50.0 / phi) + 2)
    return float(2.0 * abs(j) * np.sinh(phi) * np.sum((-1.0) ** m / np.cosh(m * phi)))


def all_sectors_ground_state(spec, method: str = "auto", scale: float = 1.0):
    """Chain ground state from every magnetization sector, none skipped.

    Solves each sector of the gamma-free chain with ``chain._solve_sector``,
    takes the levels ``scale * lambda_k - gamma * (2k - n)`` and reduces them
    with the library's tie rule: ground levels within 1e-12 of a bound on
    every |level| (the bond count times the largest |two-site level|, plus
    |gamma| n) tie, and the largest magnetization among them wins.  Returns
    the :class:`pendular.chain.ChainResult` and the polarization onset, the
    largest crossing field (E_n - lambda_k) / (2 (n - k)) over all k < n.
    """
    from pendular import chain

    free = replace(spec, gamma=0.0)
    n, gamma = spec.n, spec.gamma
    sectors = [chain._solve_sector(free, k, method) for k in range(n + 1)]
    lowest = [scale * s.lowest - gamma * (2 * s.k - n) for s in sectors]
    seconds = [scale * s.second - gamma * (2 * s.k - n) for s in sectors if s.second is not None]
    spectrum = sorted(lowest + seconds)
    bond_levels = two_site_spectrum(spec.j, spec.jz, 0.0)
    n_bonds = len(spec.bonds)
    bound = scale * max(abs(n_bonds * bond_levels.min()), abs(n_bonds * bond_levels.max())) + abs(gamma) * n
    tol = 1e-12 * bound
    tied = [k for k, e in enumerate(lowest) if e - spectrum[0] <= tol]
    winner = max(tied)
    obs = chain._observables(free, sectors[winner])
    result = chain.ChainResult(
        ground_energy=lowest[winner],
        magnetization_per_site=obs["magnetization"],
        nn_zz_correlation=obs["nn_zz"],
        staggered_zz_correlation=obs["staggered"],
        gap=max(spectrum[1] - spectrum[0], 0.0),
        ground_overlap_polarized=obs["overlap"],
        ground_sector=winner,
        degenerate_partner_magnetization=(2 * min(tied) - n) / n if len(tied) > 1 else None,
    )
    e_top = sectors[n].lowest
    onset = max((e_top - s.lowest) / (2.0 * (n - s.k)) for s in sectors[:n])
    return result, onset


def bond_by_bond_sector_data(spec, s) -> np.ndarray:
    """Values of a sector's entries ``(s.rows, s.cols)`` at gamma = 0, from a loop over the bonds.

    2 j on every flip-flop, and the diagonal summed from zero one bond at a
    time, in bond order, as ``chain._sector_data`` once built it.
    """
    flips = len(s.rows) - s.dim
    data = np.zeros(len(s.rows))
    data[:flips] = 2.0 * spec.j
    diag = data[flips:]
    for zz in s.zz:
        diag += spec.jz * zz
    return data


def all_sector_half_chain_bound(spec) -> np.ndarray:
    """Lower bound on each gamma-free sector level from the chain cut into two open halves.

    The bound of ``chain._SectorSpectra.split`` with every sector of each half
    solved, none mirrored by the spin flip: the least sum of the two halves'
    sector minima at each total magnetization, plus the lowest two-site level
    for each cut bond, and never below the Weyl floor.
    """
    from pendular import chain

    n, j, jz = spec.n, spec.j, spec.jz
    bond_floor = min(jz, -jz - 2.0 * abs(j))
    floor = len(spec.bonds) * bond_floor
    if n < 4:
        return np.full(n + 1, floor)
    minima = {}
    for size in {n // 2, n - n // 2}:
        half = chain.ChainSpec(size, j, jz, 0.0)
        minima[size] = np.array([chain._solve_sector(half, k, "dense").lowest for k in range(size + 1)])
    left, right = minima[n // 2], minima[n - n // 2]
    halves = np.full(n + 1, np.inf)
    for k1, e in enumerate(left):
        halves[k1 : k1 + right.size] = np.minimum(halves[k1 : k1 + right.size], e + right)
    cut_bonds = len(spec.bonds) - (n - 2)
    return np.maximum(halves + cut_bonds * bond_floor, floor)


def _double_sigmoid_trf(xs, ys, initial, lower, upper) -> np.ndarray:
    """All seven double-sigmoid parameters from trust-region least squares.

    The model is written out here with the same exponent clipping as the
    library's double sigmoid.
    """
    from scipy.optimize import least_squares

    xs = np.asarray(xs, dtype=float)

    def residual(p):
        a0, a1, a2, x1, x2, k1, k2 = p
        u1 = np.clip((xs - x1) / k1, -500.0, 500.0)
        u2 = np.clip(-(xs - x2) / k2, -500.0, 500.0)
        return a0 + a1 / (1.0 + np.exp(u1)) + a2 / (1.0 + np.exp(u2)) - ys

    result = least_squares(
        residual,
        x0=np.clip(np.asarray(initial, dtype=float), lower, upper),
        bounds=(lower, upper),
        method="trf",
        max_nfev=20000,
    )
    return result.x


def unbounded_double_sigmoid_fit(xs, ys, initial) -> np.ndarray:
    """The 7-parameter fit as it was before the sigmoid centres were bounded:
    only the two widths are bounded (below, by 1e-8)."""
    return _double_sigmoid_trf(xs, ys, initial, [-np.inf] * 5 + [1e-8, 1e-8], [np.inf] * 7)


def full_double_sigmoid_fit(xs, ys, initial) -> np.ndarray:
    """The bounded 7-parameter fit, amplitudes searched along with the shape.

    Same bounds and clipped start as the library's separable fit: centres in
    [min - span, max + span] of the samples, widths at least 1e-8.
    """
    xs = np.asarray(xs, dtype=float)
    span = xs.max() - xs.min()
    lower = [-np.inf] * 3 + [xs.min() - span] * 2 + [1e-8, 1e-8]
    upper = [np.inf] * 3 + [xs.max() + span] * 2 + [np.inf] * 2
    return _double_sigmoid_trf(xs, ys, initial, lower, upper)


def _csv_reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0.0:  # avoid '-0' artifacts
            return "0"
        return f"{value:.12g}"
    return str(value)


def csv_reference(table) -> str:
    """The table's CSV text, every row through ``csv.writer`` one formatted cell at a time."""
    buf = io.StringIO()
    buf.write(f"# schema={table.schema}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_csv_reference_cell(v) for v in row])
    return buf.getvalue()
