"""Spin-1/2 XXZ chain: exact diagonalization and phase classification.

Hamiltonian (Pauli operators, couplings in units of B):

    H = sum_bonds [ j (sx sx + sy sy) + jz sz sz ] - gamma * sum_i sz_i

Basis states are n-bit integers with bit i = 1 meaning sigma_z = +1 ("up")
on site i.  Total magnetization is conserved, so H is block-diagonal over
popcount sectors; within a sector the gamma term is the constant shift
-gamma*(2k - n).  A sector is solved at most once, at gamma = 0, for its two
lowest levels and ground vector; every gamma, and in a scan every Omega > 0
(which multiplies the gamma-free part), is arithmetic on that solve.  The
ground state and the polarization onset share one search, which solves a
sector only while lower bounds on its levels leave it able to change the
result: Weyl's bound (the bond count times the lowest two-site level, the
same for every sector), then the sector's half-chain bound (the lowest level
of two open half-chains at that magnetization, plus Weyl's bound on the cut
bonds; the field-free halves commute with the global spin flip, so each
pair of half sectors k and size - k is solved once).  Sectors of at most 16
states go to numpy's eigh, which loads no scipy; other small sectors go
straight to LAPACK's dsyevr, larger ones to Lanczos, and every solved
eigenpair is checked by its residual against the sector matrix's norm.  The
xy part acts as a flip-flop of amplitude 2 j on anti-aligned neighbor pairs.

A sector's matrix is its couplings times coupling-free patterns: the (row,
col) entries of the flip-flops and the diagonal, the sz sz value of each bond
and the staggered sz sum of each state.  The patterns depend only on (n, k,
boundary); they are built once per process, cached read-only, and shared by
every coupling, scan point and half-chain bound.  A dense solve scatters the
entries into an array; only Lanczos builds a sparse matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .moments import MomentSet, _validated_grid, moments
from .pair import CouplingGeometry, heisenberg_constants
from .rotor import DEFAULT_J_MAX
from .tables import Table

MAX_SITES = 16
#: Largest sector dimension diagonalized densely under ``method="auto"``;
#: above it Lanczos is faster (crossover measured between 250 and 330 with
#: one BLAS thread).
DENSE_SECTOR_CUTOFF = 300
#: Largest sector dimension solved densely when Lanczos breaks down (a
#: 128 MB matrix); typically a ground level degenerate to working precision.
DENSE_FALLBACK_CUTOFF = 4000
#: Largest accepted eigen-residual ||Hv - lambda v||, relative to the sector
#: matrix's largest absolute row sum (which bounds every |level|).
RESIDUAL_TOL = 1e-8
#: Largest sector dimension solved by ``numpy.linalg.eigh``; larger dense
#: sectors call LAPACK's dsyevr through scipy.  Sector n - 1 of any accepted
#: chain has at most this many states, and in the molecular regime it is the
#: only sector solved besides the one-state sector n.  numpy's full solve costs
#: at most about 15 us more per sector of this size (one BLAS thread), where
#: the first dsyevr call costs the 0.2 s import of scipy.linalg.
NUMPY_EIGH_CUTOFF = MAX_SITES


class Phase(str, Enum):
    FERROMAGNETIC = "ferromagnetic"
    LUTTINGER_LIQUID = "luttinger_liquid"
    ANTIFERROMAGNETIC = "antiferromagnetic"


class SectorConvergenceError(RuntimeError):
    """Eigensolver failed, or left a large residual, in one magnetization sector."""


@dataclass(frozen=True)
class ChainSpec:
    """Nearest-neighbor chain definition: size, boundary, couplings (units of B)."""

    n: int
    j: float
    jz: float
    gamma: float
    boundary: str = "open"

    def __post_init__(self) -> None:
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"site count must be an integer, got {self.n!r}")
        if not 2 <= self.n <= MAX_SITES:
            raise ValueError(f"site count must be in [2, {MAX_SITES}], got {self.n}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
        # Twice a bound on every |level|: finite, so is every level, gap and tie
        # tolerance the sector search forms, and no solver sees an inf or nan.
        bound = 2.0 * (len(self.bonds) * (abs(self.jz) + 2.0 * abs(self.j)) + self.n * abs(self.gamma))
        if not math.isfinite(bound):
            raise ValueError(
                f"couplings must be finite with finite levels, got n={self.n}, "
                f"j={self.j}, jz={self.jz}, gamma={self.gamma}"
            )

    @property
    def bonds(self) -> list[tuple[int, int]]:
        pairs = [(i, i + 1) for i in range(self.n - 1)]
        if self.boundary == "periodic" and self.n > 2:
            pairs.append((self.n - 1, 0))
        return pairs


@dataclass(frozen=True)
class ChainResult:
    """Ground-state observables from exact diagonalization."""

    ground_energy: float
    magnetization_per_site: float
    nn_zz_correlation: float
    staggered_zz_correlation: float
    gap: float
    ground_overlap_polarized: float
    ground_sector: int
    degenerate_partner_magnetization: float | None = None


#: Classification thresholds (finite-size ED, not exact boundaries): |magnetization| per site for
#: the polarized label, then staggered zz correlation and gap for the antiferromagnetic one.
PHASE_THRESHOLDS = {"magnetization": 0.99, "staggered": 0.5, "min_gap": 1e-6}


def molecular_chain(mset: MomentSet, omega: float, n: int, boundary: str = "open") -> ChainSpec:
    """Chain of molecules on an axis along the field: the alpha = 0 pair constants, where jx = jy = j."""
    hc = heisenberg_constants(mset, CouplingGeometry(omega))
    return ChainSpec(n=n, j=hc.jy, jz=hc.jz, gamma=hc.gamma, boundary=boundary)


class _SectorStructure(NamedTuple):
    """The coupling-free part of one sector's matrix; every array is read-only."""

    #: Entries of the matrix: the flip-flops of every bond, then the diagonal.
    rows: NDArray[np.int32]
    cols: NDArray[np.int32]
    #: sz_i sz_j of each bond, shape (bonds, states); the staggered sz sum
    #: of each state.
    zz: NDArray[np.int8]
    staggered: NDArray[np.int8]

    @property
    def dim(self) -> int:
        return len(self.staggered)


@cache
def _sector_structure(n: int, k: int, boundary: str) -> _SectorStructure:
    """Pattern of popcount sector k of an n-site chain."""
    states = np.arange(1 << n, dtype=np.int64)
    states = states[np.bitwise_count(states) == k]
    sz = 2 * ((states[:, None] >> np.arange(n)) & 1) - 1
    bonds = ChainSpec(n, 0.0, 0.0, 0.0, boundary).bonds
    rows, cols = [], []
    for i, jj in bonds:
        src = states[((states >> i) & 1) != ((states >> jj) & 1)]
        rows.append(np.searchsorted(states, src))
        cols.append(np.searchsorted(states, src ^ ((1 << i) | (1 << jj))))
    diagonal = np.arange(len(states))
    structure = _SectorStructure(
        np.concatenate(rows + [diagonal]).astype(np.int32),
        np.concatenate(cols + [diagonal]).astype(np.int32),
        np.array([sz[:, i] * sz[:, jj] for i, jj in bonds], dtype=np.int8),
        (sz * (-1) ** np.arange(n)).sum(axis=1).astype(np.int8),
    )
    for array in structure:
        array.flags.writeable = False
    return structure


def _sector_data(spec: ChainSpec, s: _SectorStructure) -> NDArray[np.float64]:
    """Values of the entries ``(s.rows, s.cols)`` at gamma = 0: j and jz times the cached patterns."""
    flips = len(s.rows) - s.dim
    data = np.empty(len(s.rows))
    data[:flips] = 2.0 * spec.j
    # Summed bond by bond, in bond order (one product jz * (sum of zz) rounds
    # differently); adding 0.0 turns an all -0.0 sum into the +0.0 that a sum
    # started from zero gives.
    data[flips:] = np.add.accumulate(spec.jz * s.zz, axis=0)[-1] + 0.0
    return data


def _dense(s: _SectorStructure, data: NDArray[np.float64]) -> NDArray[np.float64]:
    # Fortran order, which LAPACK reads without a copy.
    h = np.zeros((s.dim,) * 2, order="F")
    h[s.rows, s.cols] = data
    return h


@cache
def _dsyevr_workspace(dim: int) -> tuple[int, int]:
    """LAPACK dsyevr's work and integer work sizes for a dim-state sector, queried as scipy's eigh queries them."""
    from scipy.linalg.lapack import dsyevr_lwork

    work, iwork, info = dsyevr_lwork(dim, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr workspace query failed for dim {dim} (info={info})")
    return int(work), int(iwork)


def _dense_lowest_pair(s: _SectorStructure, data: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
    """The two lowest eigenpairs of a sector matrix, ascending.

    A sector of at most :data:`NUMPY_EIGH_CUTOFF` states goes to
    ``numpy.linalg.eigh``.  A larger one calls LAPACK ``dsyevr`` as
    ``scipy.linalg.eigh(h, subset_by_index=[0, 1])`` does, so results are
    bit-identical, but without that wrapper's checks.  Either raises numpy's
    ``LinAlgError`` when LAPACK fails.
    """
    if s.dim <= NUMPY_EIGH_CUTOFF:
        energies, vecs = np.linalg.eigh(_dense(s, data))
        return energies[:2], vecs[:, :2]
    # Imported here so that importing the package does not load scipy.linalg.
    from scipy.linalg.lapack import dsyevr

    lwork, liwork = _dsyevr_workspace(s.dim)
    energies, vecs, _, _, info = dsyevr(
        _dense(s, data), range="I", il=1, iu=2, lower=1, lwork=lwork, liwork=liwork, overwrite_a=1
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed on a {s.dim}-state sector (info={info})")
    return energies[:2], vecs


class _SectorSolution(NamedTuple):
    k: int
    lowest: float
    second: float | None
    vector: NDArray[np.float64]


def _solve_sector(spec: ChainSpec, k: int, method: str) -> _SectorSolution:
    s = _sector_structure(spec.n, k, spec.boundary)
    dim = s.dim
    data = _sector_data(spec, s)
    if dim == 1:
        return _SectorSolution(k, float(data[0]), None, np.ones(1))
    # Largest absolute row sum; every row stores its diagonal entry.
    norm = float(np.bincount(s.rows, np.abs(data)).max())
    if not math.isfinite(norm):
        raise SectorConvergenceError(f"sector k={k} (dim {dim}) of n={spec.n} chain: matrix norm {norm}")
    # The entries scaled by a power of two to unit norm (entrywise, since the
    # factor itself overflows for a subnormal norm).  ARPACK's convergence
    # test has an absolute floor, and the residual's sum of squares underflows
    # below about 1e-160, so Lanczos and the residual check both run on them.
    exponent = math.frexp(norm)[1]
    unit = np.ldexp(data, -exponent)
    if spec.j == 0.0:
        # No flip-flop term: the sector matrix is diagonal (and may be zero,
        # which Lanczos cannot start from).
        diag = data[len(data) - dim :]
        order = np.argsort(diag, kind="stable")[:2]
        energies = diag[order]
        vecs = np.zeros((dim, 2))
        vecs[order, [0, 1]] = 1.0
    elif method == "dense" or dim < 3 or (method == "auto" and dim <= DENSE_SECTOR_CUTOFF):
        energies, vecs = _dense_lowest_pair(s, data)
    else:
        # Only Lanczos loads scipy.sparse.
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import ArpackError, eigsh

        # A fixed pseudo-random start vector keeps repeated scans
        # byte-identical; unlike a uniform one it overlaps every lattice
        # symmetry sector, so no level is missed.  ARPACK's restarts (after a
        # breakdown, common on rings) draw from it too, not from OS entropy.
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(dim)
        h = csr_matrix((unit, (s.rows, s.cols)), shape=(dim, dim))
        try:
            energies, vecs = eigsh(h, k=2, which="SA", v0=v0, rng=rng)
            energies = np.ldexp(energies, exponent)
        except ArpackError as exc:
            # Single-vector Lanczos cannot resolve a ground level degenerate
            # to working precision (as when j is negligible next to jz).
            if dim > DENSE_FALLBACK_CUTOFF:
                raise SectorConvergenceError(
                    f"sector k={k} (dim {dim}) of n={spec.n} chain: {exc}"
                ) from exc
            energies, vecs = _dense_lowest_pair(s, data)
        order = np.argsort(energies)
        energies, vecs = energies[order], vecs[:, order]
    lowest, vector = float(energies[0]), vecs[:, 0]
    hv = np.bincount(s.rows, unit * vector[s.cols], minlength=dim)
    residual = float(np.linalg.norm(hv - np.ldexp(lowest, -exponent) * vector))
    unit_norm = np.ldexp(norm, -exponent)
    # A subnormal level carries a rounding error far above RESIDUAL_TOL of the
    # norm; up to one unit in its last place is then allowed.
    if not residual <= max(RESIDUAL_TOL * unit_norm, np.ldexp(np.spacing(abs(lowest)), -exponent)):
        raise SectorConvergenceError(
            f"sector k={k} (dim {dim}) of n={spec.n} chain: eigen-residual "
            f"{residual / unit_norm:.3e} of the matrix norm"
        )
    return _SectorSolution(k, lowest, float(energies[1]), vector)


def _observables(spec: ChainSpec, sol: _SectorSolution) -> dict[str, float]:
    s = _sector_structure(spec.n, sol.k, spec.boundary)
    weights = sol.vector**2
    nn = 0.0
    for zz in s.zz:
        nn += float(weights @ zz)
    nn /= len(s.zz)
    return {
        "nn_zz_correlation": nn,
        "staggered_zz_correlation": float(weights @ (s.staggered / spec.n) ** 2),
        # The polarized state is the only state of sector n.
        "ground_overlap_polarized": float(weights[0]) if sol.k == spec.n else 0.0,
        "magnetization_per_site": (2 * sol.k - spec.n) / spec.n,
    }


class _SectorSpectra:
    """Sectors of the gamma-free chain, each solved on first use and then kept.

    Sector k of the chain at field gamma, with the gamma-free part scaled by
    ``scale``, has the levels ``scale * lambda_k - gamma * (2k - n)``, so one
    solve serves every gamma and every positive scale.  A bond term has the
    levels jz, jz and -jz +- 2j, so by Weyl's inequality every lambda_k lies
    in [floor, ceil], the bond count times the lowest and highest of them.
    Observables are computed only for sectors that win, once each.
    """

    def __init__(self, spec: ChainSpec, method: str) -> None:
        if method not in ("auto", "dense", "iterative"):
            raise ValueError(f"method must be 'auto', 'dense' or 'iterative', got {method!r}")
        self.spec = free = replace(spec, gamma=0.0)
        self.bond_floor = min(spec.jz, -spec.jz - 2.0 * abs(spec.j))
        self.floor = len(spec.bonds) * self.bond_floor
        self.ceil = len(spec.bonds) * max(spec.jz, -spec.jz + 2.0 * abs(spec.j))
        # Solved on first use; the closures hold no reference back to self.
        self.sector = sector = cache(partial(_solve_sector, free, method=method))
        self.observables = cache(lambda k: _observables(free, sector(k)))

    @cached_property
    def split(self) -> NDArray[np.float64]:
        """Lower bound on each lambda_k from the chain cut into two open halves.

        Each half conserves its own magnetization, so in sector k the halves
        together lie at or above the least lambda_left(k1) + lambda_right(k - k1);
        each cut bond (one on an open chain, two on a ring) adds at least the
        lowest two-site level.  Never below ``floor``, and equal to it for n < 4.
        Each distinct half size is solved once, densely, by the same
        residual-checked solver as the chain (at even n both halves are one).
        A field-free half commutes with the global spin flip, which maps its
        sector k onto size - k, so only sectors 0 to size // 2 are solved.
        """
        n, j, jz = self.spec.n, self.spec.j, self.spec.jz
        if n < 4:
            return np.full(n + 1, self.floor)
        minima = {}
        for size in {n // 2, n - n // 2}:
            half = ChainSpec(size, j, jz, 0.0)
            low = [_solve_sector(half, k, "dense").lowest for k in range(size // 2 + 1)]
            minima[size] = np.array(low + low[(size - 1) // 2 :: -1])
        left, right = minima[n // 2], minima[n - n // 2]
        halves = np.full(n + 1, np.inf)
        for k1, e in enumerate(left):
            halves[k1 : k1 + right.size] = np.minimum(halves[k1 : k1 + right.size], e + right)
        cut_bonds = len(self.spec.bonds) - (n - 2)
        return np.maximum(halves + cut_bonds * self.bond_floor, self.floor)

    def tie_tolerance(self, gamma: float, scale: float) -> float:
        """Gap below which two sector ground levels tie: 1e-12 of a bound on every |level|."""
        return 1e-12 * (scale * max(abs(self.floor), abs(self.ceil)) + abs(gamma) * self.spec.n)

    def _search(self, order, value, tol: float, rank: int) -> tuple[dict[int, float], list[float]]:
        """Solve the sectors in ``order`` that can hold one of the ``rank`` least values of all levels.

        ``value(k, lam)`` is the caller's value of level lam of sector k, rising with lam; ``order`` is by
        rising ``value(k, floor)``.  A sector whose bound passes the rank-th least value so far plus twice
        the tie tolerance ``tol`` can neither hold nor tie one: the search stops at the first by ``floor``
        and skips one by ``split[k]``.  Returns each solved sector's lowest value, and all values sorted.
        """
        lowest, levels = {}, []
        for k in order:
            limit = levels[rank - 1] + 2.0 * tol if len(levels) >= rank else math.inf
            if value(k, self.floor) > limit:
                break
            if limit < math.inf and value(k, self.split[k]) > limit:
                continue
            s = self.sector(k)
            lowest[k] = value(k, s.lowest)
            levels = sorted(levels + [value(k, e) for e in (s.lowest, s.second) if e is not None])
        return lowest, levels

    def onset_gamma(self) -> float:
        """Smallest gamma at which the fully polarized sector is the global ground."""
        n, e_top = self.spec.n, self.sector(self.spec.n).lowest
        # Sector k < n crosses the polarized one at gamma = (e_top - lambda_k) / (2 (n - k)); the search
        # minimizes minus that field, so the onset, the largest crossing, is minus the least value.
        crossings, _ = self._search(
            range(n - 1, -1, -1), lambda k, e: -(e_top - e) / (2.0 * (n - k)), self.tie_tolerance(0.0, 1.0), 1
        )
        return -min(crossings.values())

    def ground_state(self, gamma: float, scale: float = 1.0) -> ChainResult:
        n, tol = self.spec.n, self.tie_tolerance(gamma, scale)
        order = sorted(range(n + 1), key=lambda k: -gamma * (2 * k - n))
        # The two least levels decide the winner, its ties and the gap.
        lowest, levels = self._search(order, lambda k, e: scale * e - gamma * (2 * k - n), tol, 2)
        tied = [k for k, e in lowest.items() if e - levels[0] <= tol]
        winner = max(tied)
        return ChainResult(
            ground_energy=lowest[winner],
            gap=max(levels[1] - levels[0], 0.0),
            ground_sector=winner,
            degenerate_partner_magnetization=(2 * min(tied) - n) / n if len(tied) > 1 else None,
            **self.observables(winner),
        )


def ground_state(spec: ChainSpec, method: str = "auto") -> ChainResult:
    """Global ground state across magnetization sectors, with observables.

    Only the sectors that can hold the ground level, a tie with it or the
    first excited level are solved (two in a strong field); the result equals
    that of solving every sector.  ``method`` applies to the solved sectors: "auto" (dense
    only up to :data:`DENSE_SECTOR_CUTOFF` states, Lanczos above), "dense",
    or "iterative" (Lanczos from three states up, dense when Lanczos breaks
    down on a sector of at most :data:`DENSE_FALLBACK_CUTOFF` states); any
    other value raises ``ValueError``.  A chain with j = 0 is diagonal and
    needs neither.  Sector ground levels within 1e-12 of a bound on every
    |level| tie and resolve toward positive magnetization; the partner's
    magnetization is reported.  Raises
    :class:`SectorConvergenceError` when a solved sector's eigenpair fails
    its residual check; skipped sectors are never checked.
    """
    return _SectorSpectra(spec, method).ground_state(spec.gamma)


def polarization_onset_gamma(n: int, j: float, jz: float, boundary: str = "open") -> float:
    """Smallest gamma at which the fully polarized state is the global ground.

    Within each sector gamma only shifts energies by -gamma*(2k - n), so the
    crossing field follows exactly from the gamma-free spectra of the
    sectors whose crossing no bound caps below one already found.
    """
    spec = ChainSpec(n=n, j=j, jz=jz, gamma=0.0, boundary=boundary)
    return _SectorSpectra(spec, "auto").onset_gamma()


def classify_phase(result: ChainResult) -> Phase:
    """Deterministic label from ED observables and ``PHASE_THRESHOLDS``."""
    t = PHASE_THRESHOLDS
    if abs(result.magnetization_per_site) >= t["magnetization"]:
        return Phase.FERROMAGNETIC
    if result.staggered_zz_correlation >= t["staggered"] and result.gap >= t["min_gap"]:
        return Phase.ANTIFERROMAGNETIC
    return Phase.LUTTINGER_LIQUID


def phase_diagram(
    x_grid,
    omega_grid,
    n: int = 10,
    boundary: str = "open",
    j_max: int = DEFAULT_J_MAX,
    workers: int = 1,
) -> Table:
    """Phase labels over an (x, Omega/B) grid; rows ordered by (x, omega).

    x must be finite and non-negative and Omega/B finite and positive: the
    chain couplings are then Omega times their unit-Omega values, so each x is
    solved once, at unit Omega, for its whole Omega row.  ``workers`` must be 1;
    it goes once ``perfbench/workloads.py`` stops passing it (ROADMAP item 4).
    """
    if workers != 1:
        raise ValueError(f"workers must be 1 (the scan runs in one process), got {workers}")
    xs, omegas = _validated_grid(x_grid, "x"), _validated_grid(omega_grid, "Omega/B")
    if omegas[0] == 0.0:  # the axis ascends, so only its first point can be 0
        raise ValueError("Omega/B grid must be positive")
    rows = []
    for x in xs.tolist():
        mset = moments(x, j_max)
        spectra = _SectorSpectra(molecular_chain(mset, 1.0, n, boundary), "auto")
        for omega in omegas.tolist():
            spec = molecular_chain(mset, omega, n, boundary)
            result = spectra.ground_state(spec.gamma, scale=omega)
            jz_over_j = spec.jz / spec.j if spec.j != 0 else math.nan
            gamma_over_j = spec.gamma / spec.j if spec.j != 0 else math.nan
            rows.append((x, omega, jz_over_j, gamma_over_j, classify_phase(result)))
    return Table(
        schema="phase_diagram.v1",
        columns=("x", "omega_over_b", "jz_over_j", "gamma_over_j", "phase"),
        rows=rows,
    )
