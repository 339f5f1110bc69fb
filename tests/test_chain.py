import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pendular.chain as chain_module
from pendular.chain import (
    MAX_SITES,
    ChainSpec,
    Phase,
    PhaseThresholds,
    SectorConvergenceError,
    classify_phase,
    ground_state,
    molecular_chain,
    phase_diagram,
    polarization_onset_gamma,
)
from pendular.cli import main
from pendular.moments import moment_curves, moments

from oracles import (
    all_sector_half_chain_bound,
    all_sectors_ground_state,
    bond_by_bond_sector_data,
    free_fermion_sector_minima,
    full_space_ground,
    one_magnon_saturation_gamma,
    pauli_chain_hamiltonian,
    pauli_z,
    two_site_spectrum,
    xx_open_chain_gap,
    xx_open_chain_ground_energy,
    xxz_gamma_c1,
    xxz_phase,
)

#: (jz/j, gamma) with j = 1: ferromagnetic, Luttinger-liquid and
#: antiferromagnetic couplings at zero, moderate and saturating field.  The
#: physical (x, Omega) grids label every point ferromagnetic, so these
#: direct specs are what reach the other two labels.
ORACLE_SPECS = [(jz, gamma) for jz in (-2.0, 0.5, 3.0) for gamma in (0.0, 0.7, 12.0)]
#: Couplings and fields of both signs, with exact zeros drawn often.
COUPLINGS = st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0))
FIELDS = st.one_of(st.just(0.0), st.floats(min_value=-20.0, max_value=20.0))


class TestChainSpec:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ChainSpec(n=1, j=1.0, jz=0.0, gamma=0.0)
        with pytest.raises(ValueError):
            ChainSpec(n=17, j=1.0, jz=0.0, gamma=0.0)

    @pytest.mark.parametrize("n", [4.5, 4.0, "4", None])
    def test_rejects_non_integer_size(self, n):
        with pytest.raises(ValueError, match="integer"):
            ChainSpec(n=n, j=1.0, jz=0.0, gamma=0.0)

    def test_non_integer_size_rejected_at_every_entry_point(self):
        with pytest.raises(ValueError, match="integer"):
            polarization_onset_gamma(4.5, 1.0, 0.5)
        with pytest.raises(ValueError, match="integer"):
            phase_diagram([1.0], [1e-5], n=4.5)

    def test_accepts_numpy_integer_size(self):
        spec = ChainSpec(n=np.int64(4), j=1.0, jz=0.5, gamma=0.1)
        assert ground_state(spec) == ground_state(ChainSpec(n=4, j=1.0, jz=0.5, gamma=0.1))

    def test_rejects_bad_boundary(self):
        with pytest.raises(ValueError):
            ChainSpec(n=4, j=1.0, jz=0.0, gamma=0.0, boundary="twisted")

    @pytest.mark.parametrize(
        "field,value", [("j", math.nan), ("jz", math.inf), ("gamma", math.nan), ("gamma", -math.inf)]
    )
    def test_rejects_non_finite_couplings(self, field, value):
        couplings = {"j": 1.0, "jz": 0.5, "gamma": 0.1, field: value}
        with pytest.raises(ValueError, match="finite"):
            ChainSpec(n=4, **couplings)

    @pytest.mark.parametrize(
        "j,jz,gamma", [(1.0, 0.0, 5e307), (1.0, 0.0, 1e308), (1e308, 0.0, 0.0), (0.0, -6e307, 0.0)]
    )
    def test_rejects_couplings_whose_levels_overflow(self, j, jz, gamma):
        with pytest.raises(ValueError, match=re.escape(f"n=4, j={j}, jz={jz}, gamma={gamma}")):
            ChainSpec(4, j, jz, gamma)

    def test_accepts_the_largest_finite_levels(self):
        result = ground_state(ChainSpec(4, 1.0, 0.0, 1e307))
        assert (result.ground_sector, result.ground_energy) == (4, -4e307)
        # Three bonds at jz = -2.5e307 stay within the bound on the open chain; a fourth, on the ring, does not.
        assert ground_state(ChainSpec(4, 0.0, -2.5e307, 0.0)).ground_energy == -7.5e307
        with pytest.raises(ValueError, match="finite"):
            ChainSpec(4, 0.0, -2.5e307, 0.0, "periodic")

    def test_bonds(self):
        open_spec = ChainSpec(n=4, j=1.0, jz=0.0, gamma=0.0)
        assert open_spec.bonds == [(0, 1), (1, 2), (2, 3)]
        ring = ChainSpec(n=4, j=1.0, jz=0.0, gamma=0.0, boundary="periodic")
        assert ring.bonds == [(0, 1), (1, 2), (2, 3), (3, 0)]
        two_ring = ChainSpec(n=2, j=1.0, jz=0.0, gamma=0.0, boundary="periodic")
        assert two_ring.bonds == [(0, 1)]


class TestHamiltonian:
    @pytest.mark.parametrize("j,jz,gamma", [(1.0, -0.5, 0.3), (0.7, 1.2, 0.0), (0.0, 1.0, 2.0)])
    def test_two_site_spectrum_analytic(self, j, jz, gamma):
        # At n = 2 the lowest and second levels of the three sectors are all four levels.
        spec = ChainSpec(n=2, j=j, jz=jz, gamma=gamma)
        levels = []
        for k in range(3):
            s = chain_module._solve_sector(replace(spec, gamma=0.0), k, "dense")
            levels += [e - gamma * (2 * k - 2) for e in (s.lowest, s.second) if e is not None]
        expected = two_site_spectrum(j, jz, gamma)
        assert np.abs(np.sort(levels) - expected).max() <= 1e-12

    def test_diagonal_when_j_zero(self):
        spec = ChainSpec(n=5, j=0.0, jz=0.8, gamma=0.0)
        for k in range(spec.n + 1):
            s = chain_module._sector_structure(spec.n, k, spec.boundary)
            h = chain_module._dense(s, chain_module._sector_data(spec, s))
            assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_sector_conservation(self):
        # The sectors are closed under H: their levels, shifted by -gamma * (2k - n),
        # are the whole spectrum of the Pauli-product oracle.
        for boundary in ("open", "periodic"):
            spec = ChainSpec(n=6, j=1.0, jz=0.4, gamma=0.1, boundary=boundary)
            levels = []
            for k in range(spec.n + 1):
                s = chain_module._sector_structure(spec.n, k, spec.boundary)
                h = chain_module._dense(s, chain_module._sector_data(spec, s))
                levels.extend(np.linalg.eigvalsh(h) - spec.gamma * (2 * k - spec.n))
            full = np.linalg.eigvalsh(pauli_chain_hamiltonian(spec))
            assert np.abs(np.sort(levels) - full).max() <= 1e-12

    def test_matrix_free_application(self):
        # The residual check applies the sector matrix from its entries; Lanczos
        # and the dense solve see the same matrix.
        spec = ChainSpec(n=7, j=0.6, jz=-0.3, gamma=0.0)
        s = chain_module._sector_structure(spec.n, 3, spec.boundary)
        data = chain_module._sector_data(spec, s)
        v = np.random.default_rng(7).normal(size=s.dim)
        dense = chain_module._dense(s, data) @ v
        sparse = scipy.sparse.csr_matrix((data, (s.rows, s.cols)), shape=(s.dim, s.dim)) @ v
        assert np.allclose(np.bincount(s.rows, data * v[s.cols], minlength=s.dim), dense, atol=1e-12)
        assert np.allclose(sparse, dense, atol=1e-12)


class TestDirectDenseSolve:
    """Sectors of at most 16 states give numpy's eigh bit for bit, larger ones scipy's checked dsyevr result,
    from a diagonal summed as the loop summed it."""

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("j,jz", [(1.0, -0.5), (-0.7, 2.0), (5.8e-6, -2.3e-6), (1e-300, 2e-300)])
    def test_equals_eigh(self, j, jz, boundary):
        solved = {"numpy": 0, "dsyevr": 0}
        for n in range(2, 13):
            spec = ChainSpec(n, j, jz, 0.0, boundary)
            for k in range(1, n):
                s = chain_module._sector_structure(n, k, boundary)
                if s.dim > chain_module.DENSE_SECTOR_CUTOFF:
                    continue
                data = chain_module._sector_data(spec, s)
                energies, vecs = chain_module._dense_lowest_pair(s, data)
                h = chain_module._dense(s, data)
                if s.dim <= MAX_SITES:
                    ref_energies, ref_vecs = np.linalg.eigh(h)
                    ref_energies, ref_vecs = ref_energies[:2], ref_vecs[:, :2]
                    solved["numpy"] += 1
                else:
                    ref_energies, ref_vecs = scipy.linalg.eigh(h, subset_by_index=[0, 1])
                    solved["dsyevr"] += 1
                assert np.array_equal(energies, ref_energies) and np.array_equal(vecs, ref_vecs)
        assert solved == {"numpy": 26, "dsyevr": 31}

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_diagonal_equals_the_bond_by_bond_loop(self, boundary):
        for n in range(2, MAX_SITES + 1):
            for k in range(n + 1):
                s = chain_module._sector_structure(n, k, boundary)
                for jz in (0.0, -0.0, 5e-324, -5e-324, 1.0 / 3.0, -0.7, -3.3e306):
                    spec = ChainSpec(n, 1.0, jz, 0.0, boundary)
                    # Bit for bit, the sign of zero included.
                    assert chain_module._sector_data(spec, s).tobytes() == bond_by_bond_sector_data(spec, s).tobytes()

    def test_non_finite_matrix_never_reaches_lapack(self):
        spec = ChainSpec(n=6, j=1.0, jz=0.5, gamma=0.0)
        object.__setattr__(spec, "jz", math.nan)  # past ChainSpec's own check
        with pytest.raises(SectorConvergenceError, match="matrix norm nan"):
            chain_module._solve_sector(spec, 3, "dense")

    def test_lapack_failure_is_lin_alg_error(self, monkeypatch, capsys):
        # Up to 16 states numpy's eigh raises it; Stark blocks have more rows than that.
        eigh = np.linalg.eigh

        def failing(a, *args, **kwargs):
            if len(a) <= MAX_SITES:
                raise np.linalg.LinAlgError("injected eigh failure")
            return eigh(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", failing)
            with pytest.raises(np.linalg.LinAlgError, match="injected eigh failure"):
                ground_state(ChainSpec(n=6, j=1.0, jz=0.5, gamma=0.0), method="dense")
            # A numeric failure on the command line, not a usage error.
            assert main(["chain-ed", "--n", "4", "--x", "6", "--omega", "1e-4"]) == 1
            assert capsys.readouterr().err == "pendular: error: injected eigh failure\n"
        # Above 16 states the direct dsyevr call reports LAPACK's info.
        dsyevr = scipy.linalg.lapack.dsyevr
        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", lambda *a, **kw: (*dsyevr(*a, **kw)[:-1], 2))
        with pytest.raises(np.linalg.LinAlgError, match=r"20-state sector \(info=2\)"):
            ground_state(ChainSpec(n=6, j=1.0, jz=0.5, gamma=0.0), method="dense")
        # At Omega/B = 10 and x = 0.5 the search reaches the 20-state half-filled sector of n = 6.
        assert main(["chain-ed", "--n", "6", "--x", "0.5", "--omega", "10"]) == 1
        assert "dsyevr failed on a 20-state sector" in capsys.readouterr().err


class TestSectorStructure:
    """Sector matrices are the couplings times coupling-free patterns cached per (n, k, boundary)."""

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("n", [4, 7, 10, 13, 16])
    @pytest.mark.parametrize("j", [1.0, -0.7])
    def test_free_fermion_sector_minima(self, j, n, boundary):
        # jz = 0 is free fermions (Lieb, Schultz & Mattis); n = 16 takes the Lanczos path.
        spec = ChainSpec(n=n, j=j, jz=0.0, gamma=0.0, boundary=boundary)
        lowest = [chain_module._solve_sector(spec, k, "auto").lowest for k in range(n + 1)]
        assert np.abs(np.array(lowest) - free_fermion_sector_minima(n, j, boundary)).max() <= 1e-12

    def test_patterns_are_read_only(self):
        for k in (0, 3, 6):
            structure = chain_module._sector_structure(6, k, "periodic")
            for array in structure:
                assert not array.flags.writeable

    def test_matrices_share_the_pattern_not_the_data(self):
        s = chain_module._sector_structure(8, 4, "open")
        a = chain_module._sector_data(ChainSpec(n=8, j=1.0, jz=0.5, gamma=0.0), s)
        before = a.copy()
        t = chain_module._sector_structure(8, 4, "open")
        b = chain_module._sector_data(ChainSpec(n=8, j=-0.7, jz=2.0, gamma=0.3), t)
        assert not np.shares_memory(a, b)
        # Both are values of the same cached (row, col) entries.
        assert t.rows is s.rows and t.cols is s.cols
        assert a.shape == b.shape == s.rows.shape
        np.testing.assert_array_equal(a, before)

    def test_only_lanczos_builds_a_sparse_matrix(self, monkeypatch):
        built = []
        csr_matrix = scipy.sparse.csr_matrix
        monkeypatch.setattr(scipy.sparse, "csr_matrix", lambda *a, **kw: built.append(a) or csr_matrix(*a, **kw))
        # A dense n = 12 scan and two onsets build none.
        phase_diagram([1.5, 4.5, 7.5, 10.5], [1e-6, 1e-5, 1e-4], n=12)
        for x in (7.5, 10.5):
            spec = molecular_chain(moments(x), 1e-5, 12)
            polarization_onset_gamma(12, spec.j, spec.jz)
        assert len(built) == 0
        # One Lanczos sector solve builds exactly one.
        chain_module._solve_sector(ChainSpec(n=14, j=1.0, jz=0.5, gamma=0.0), 7, "iterative")
        assert len(built) == 1

    def test_one_pattern_build_per_sector_across_a_scan(self):
        chain_module._sector_structure.cache_clear()
        phase_diagram([1.5, 4.5, 7.5, 10.5], [1e-6, 1e-5, 1e-4], n=12)
        info = chain_module._sector_structure.cache_info()
        # Every x solves sectors 12 and 11 of the open chain.
        assert (info.misses, info.currsize) == (2, 2)
        assert info.hits > 0


class TestClosedForms:
    """Exact results from the literature, which a Hamiltonian shared by every solver path cannot fake."""

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15])
    def test_razumov_stroganov_odd_rings(self, n):
        # Delta = -1/2 in Pauli units: E0 = -3n/4 exactly (Stroganov, J. Phys. A 34, L179 (2001)).
        # The ground level is the +-1/2 magnetization doublet; n = 13, 15 take the Lanczos path.
        result = ground_state(ChainSpec(n=n, j=-0.5, jz=0.25, gamma=0.0, boundary="periodic"))
        assert abs(result.ground_energy + 0.75 * n) <= 1e-12 * n
        assert result.ground_sector == (n + 1) // 2
        assert result.degenerate_partner_magnetization == -1.0 / n

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("n", [8, 9, 12])
    def test_lieb_mattis_sector_ordering(self, n, boundary):
        # At j = jz > 0 the chain is SU(2)-symmetric and antiferromagnetic, so the
        # lowest level rises with total spin |2k - n| / 2 (Lieb & Mattis, J. Math. Phys. 3, 749 (1962)).
        spec = ChainSpec(n=n, j=1.0, jz=1.0, gamma=0.0, boundary=boundary)
        lowest = np.array([chain_module._solve_sector(spec, k, "auto").lowest for k in range(n + 1)])
        by_spin = lowest[np.argsort(np.abs(2 * np.arange(n + 1) - n), kind="stable")]
        weyl_floor = len(spec.bonds) * 3.0
        assert np.diff(by_spin).min() >= -1e-12 * weyl_floor

    def test_axial_molecular_chain_is_polarized_at_every_field(self):
        # At alpha = 0 the field gamma = delta_e / 2 + Omega (c0^2 - c1^2) / 2 lies above the
        # one-magnon line 2 (j + jz) = Omega (2 cx^2 - (c0 - c1)^2) at every Omega > 0 when this bracket is negative.
        c = moment_curves(np.linspace(0.05, 12.0, 240))
        bracket = 4 * c["cx"] ** 2 - 2 * (c["c0"] - c["c1"]) ** 2 - (c["c0"] ** 2 - c["c1"] ** 2)
        assert bracket.max() < 0

    #: Width of the band above gamma_c1 in which ring ED still reads Neel: the
    #: finite ring's spin gap approaches gamma_c1 from above.  The ED label
    #: turns at 0.846 / 0.664 above gamma_c1 for Delta = 2 / 3 at n = 12, and at
    #: 0.592 / 0.432 at n = 16.
    NEEL_BAND = {12: 0.9, 16: 0.65}
    #: Delta = jz / j per ring size; n = 16 leaves out the slow Delta <= -1 rings.
    DELTAS = {12: (-1.5, 0.5, 2.0, 3.0), 16: (0.5, 3.0)}

    @pytest.mark.parametrize("n", [12, 16])
    def test_ring_labels_match_the_thermodynamic_phases(self, n):
        # Below gamma_c1 and around the saturation field no band is needed: the
        # points 0.05 on either side of each agree (the ring's one-magnon onset is exact).
        labels = set()
        for delta in self.DELTAS[n]:
            # One sector solve serves every gamma, as in a phase-diagram scan.
            spectra = chain_module._SectorSpectra(ChainSpec(n, 1.0, delta, 0.0, "periodic"), "auto")
            saturation = 2.0 * (1.0 + delta)
            gammas = [0.0, 0.5, 1.5, 2.5, 3.5, 5.0, 7.0, 9.0]
            if saturation > 0:
                gammas += [saturation - 0.05, saturation + 0.05]
            c1 = xxz_gamma_c1(1.0, delta) if delta > 1 else math.inf
            if delta > 1:
                gammas.append(c1 - 0.05)
            for gamma in gammas:
                if 0.0 <= gamma - c1 < self.NEEL_BAND[n]:
                    continue
                label = classify_phase(spectra.ground_state(gamma))
                assert label.value == xxz_phase(1.0, delta, gamma), (delta, gamma)
                labels.add(label)
        assert labels == set(Phase)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("n", [8, 12])
    def test_axial_phase_diagram_is_ferromagnetic(self, n, boundary):
        table = phase_diagram(np.linspace(0.05, 12.0, 60), np.logspace(-6, 1, 15), n=n, boundary=boundary)
        assert set(table.column("phase")) == {Phase.FERROMAGNETIC}


class TestGroundState:
    def test_saturated_limit(self):
        spec = ChainSpec(n=6, j=0.3, jz=-0.2, gamma=50.0)
        res = ground_state(spec)
        assert res.magnetization_per_site == pytest.approx(1.0)
        assert res.ground_energy == pytest.approx((spec.n - 1) * spec.jz - spec.n * spec.gamma, rel=1e-12)
        assert res.ground_overlap_polarized == pytest.approx(1.0, abs=1e-12)

    def test_ferromagnetic_degenerate_pair(self):
        res = ground_state(ChainSpec(n=8, j=1.0, jz=-2.0, gamma=0.0))
        assert res.magnetization_per_site == pytest.approx(1.0)
        assert res.degenerate_partner_magnetization == pytest.approx(-1.0)
        assert res.gap == pytest.approx(0.0, abs=1e-10)

    def test_xx_point_free_fermion_energy(self):
        j = 0.8
        res = ground_state(ChainSpec(n=8, j=j, jz=0.0, gamma=0.0))
        assert res.magnetization_per_site == pytest.approx(0.0, abs=1e-12)
        assert res.ground_energy == pytest.approx(xx_open_chain_ground_energy(8, j), abs=1e-10)
        assert res.gap == pytest.approx(xx_open_chain_gap(8, j), abs=1e-10)

    def test_xx_gap_shrinks_with_size(self):
        gaps = [ground_state(ChainSpec(n=n, j=1.0, jz=0.0, gamma=0.0)).gap for n in (6, 8, 10)]
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_dense_vs_iterative(self, n):
        spec = ChainSpec(n=n, j=1.0, jz=-0.4, gamma=0.12)
        dense = ground_state(spec, method="dense")
        iterative = ground_state(spec, method="iterative")
        assert abs(dense.ground_energy - iterative.ground_energy) <= 1e-10

    @pytest.mark.parametrize("method", ["auto", "iterative"])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("n", [6, 8])
    def test_matches_full_space_diagonalization(self, n, boundary, method):
        labels = set()
        for jz, gamma in ORACLE_SPECS:
            spec = ChainSpec(n=n, j=1.0, jz=jz, gamma=gamma, boundary=boundary)
            oracle = full_space_ground(spec)
            res = ground_state(spec, method=method)
            assert res.ground_energy == pytest.approx(oracle["ground_energy"], abs=1e-10)
            assert res.gap == pytest.approx(oracle["gap"], abs=1e-10)
            if oracle["gap"] > 1e-8:
                for name in (
                    "magnetization_per_site",
                    "nn_zz_correlation",
                    "staggered_zz_correlation",
                    "ground_overlap_polarized",
                ):
                    assert getattr(res, name) == pytest.approx(oracle[name], abs=1e-9), name
                assert res.degenerate_partner_magnetization is None
            else:
                # gamma = 0 ferromagnet: the two polarized states tie and the
                # positive one wins.
                assert (jz, gamma) == (-2.0, 0.0)
                assert res.magnetization_per_site == 1.0
                assert res.degenerate_partner_magnetization == -1.0
            labels.add(classify_phase(res))
        assert labels == set(Phase)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_full_space_oracle_sees_a_flip_flop_mutant(self, monkeypatch, boundary):
        # The oracle shares no code with the sector matrices, so a wrong
        # flip-flop amplitude in them shows against it.
        exact = chain_module._sector_data

        def mutant(spec, s):
            data = exact(spec, s)
            data[: len(s.rows) - s.dim] *= 1 + 1e-3
            return data

        monkeypatch.setattr(chain_module, "_sector_data", mutant)
        spec = ChainSpec(n=6, j=1.0, jz=0.5, gamma=0.0, boundary=boundary)
        oracle = full_space_ground(spec)
        assert abs(ground_state(spec).ground_energy - oracle["ground_energy"]) > 1e-6

    def test_lanczos_reaches_every_lattice_symmetry(self):
        # A translation-invariant start vector is an exact eigenvector of the
        # one-magnon sector of a ring and misses the levels of other momenta.
        spec = ChainSpec(n=12, j=1.0, jz=-0.5, gamma=0.0, boundary="periodic")
        iterative = ground_state(spec, method="iterative")
        dense = ground_state(spec, method="dense")
        assert iterative.ground_energy == pytest.approx(dense.ground_energy, abs=1e-10)
        assert iterative.gap == pytest.approx(dense.gap, abs=1e-10)

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_odd_ring_methods_agree_on_the_level(self, n):
        # The winning sector's lowest level is a +-q momentum doublet.  Its energy, the gap, the sector
        # and nn_zz are the same for every vector of the level; the staggered correlation is not
        # translation-invariant on an odd ring and depends on the vector a solver returns.
        spec = ChainSpec(n=n, j=1.0, jz=1.5, gamma=0.3, boundary="periodic")
        auto, dense, iterative = (ground_state(spec, method=m) for m in ("auto", "dense", "iterative"))
        for other in (dense, iterative):
            assert other.ground_sector == auto.ground_sector == (n + 1) // 2
            assert other.ground_energy == pytest.approx(auto.ground_energy, rel=0, abs=1e-12)
            assert other.gap == pytest.approx(auto.gap, rel=0, abs=1e-12)
            assert other.nn_zz_correlation == pytest.approx(auto.nn_zz_correlation, rel=0, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="observables of a degenerate level depend on the solver's vector (ROADMAP item 9): "
        "dense against iterative read 0.2671 / 0.4043 (n = 5), 0.2641 / 0.2968 (7), 0.2914 / 0.2669 (9)",
    )
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_odd_ring_staggered_correlation_agrees_between_solvers(self, n):
        spec = ChainSpec(n=n, j=1.0, jz=1.5, gamma=0.3, boundary="periodic")
        dense, iterative = (ground_state(spec, method=m) for m in ("dense", "iterative"))
        assert iterative.staggered_zz_correlation == pytest.approx(dense.staggered_zz_correlation, rel=0, abs=1e-12)

    @pytest.mark.parametrize("method", ["auto", "dense", "iterative"])
    def test_zero_couplings_every_method(self, method):
        res = ground_state(ChainSpec(n=12, j=0.0, jz=0.0, gamma=0.3), method=method)
        assert res.ground_energy == pytest.approx(-12 * 0.3, rel=1e-14)
        assert res.magnetization_per_site == 1.0
        assert res.gap == pytest.approx(2 * 0.3, rel=1e-12)
        # With no scale at all, the all-up and all-down ground levels still tie.
        zero = ground_state(ChainSpec(n=12, j=0.0, jz=0.0, gamma=0.0), method=method)
        assert (zero.ground_energy, zero.ground_sector, zero.degenerate_partner_magnetization) == (0.0, 12, -1.0)

    @pytest.mark.parametrize(
        "solver,method,spec,error",
        [
            (solver, method, spec, error)
            for spec, error in [
                (ChainSpec(n=6, j=1.0, jz=0.5, gamma=0.0), 1e-4),
                # Molecular couplings (Omega/B = 1e-5, |H| ~ 1e-5): a residual of
                # about 7e-9 is small in absolute terms but large next to |H|.
                (molecular_chain(moments(10.5), 1e-5, n=12), 1e-3),
                # Couplings so small that the residual's sum of squares underflows.
                (ChainSpec(n=8, j=1e-170, jz=2e-170, gamma=0.0), 1e-3),
                (ChainSpec(n=8, j=1e-300, jz=2e-300, gamma=0.0), 1e-3),
            ]
            for solver, method in [("eigsh", "iterative"), ("eigh", "dense")]
        ]
        # Only the 20-state sector of n = 6 is perturbed, on the direct dsyevr path.
        + [("dsyevr", "dense", ChainSpec(n=6, j=1.0, jz=0.5, gamma=0.0), 1e-4)],
        ids=[
            "eigsh-iterative",
            "eigh-dense",
            "eigsh-iterative-molecular",
            "eigh-dense-molecular",
            "eigsh-iterative-1e-170",
            "eigh-dense-1e-170",
            "eigsh-iterative-1e-300",
            "eigh-dense-1e-300",
            "dsyevr-dense",
        ],
    )
    def test_unconverged_eigenpair_is_rejected(self, monkeypatch, solver, method, spec, error):
        # The dense path is numpy's eigh up to 16 states and LAPACK's dsyevr, called directly, above.
        targets = {
            "eigsh": [(scipy.sparse.linalg, "eigsh")],
            "eigh": [(np.linalg, "eigh"), (scipy.linalg.lapack, "dsyevr")],
            "dsyevr": [(scipy.linalg.lapack, "dsyevr")],
        }[solver]

        def perturbed(exact, *args, **kwargs):
            energies, vecs, *rest = exact(*args, **kwargs)
            vecs = vecs.copy()
            vecs[0] += error
            return energies, vecs, *rest

        for module, name in targets:
            monkeypatch.setattr(module, name, partial(perturbed, getattr(module, name)))
        with pytest.raises(SectorConvergenceError, match=rf"n={spec.n} chain: eigen-residual"):
            ground_state(spec, method=method)

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    @pytest.mark.parametrize("j", [1e-13, 1e-14, 1e-300, 1e-310, 1e-320])
    def test_tiny_couplings_match_full_space(self, j, method):
        # Ties are relative to the couplings' scale, and a correct solve of a
        # subnormal chain passes its residual check.
        spec = ChainSpec(n=8, j=j, jz=2 * j, gamma=0.0)
        energies, vecs = np.linalg.eigh(pauli_chain_hamiltonian(spec))
        ups = ((pauli_z(spec.n).sum(axis=0) + spec.n) // 2).astype(int)
        weights = np.bincount(ups, weights=vecs[:, 0] ** 2)
        res = ground_state(spec, method=method)
        assert res.ground_sector == weights.argmax() == 4
        assert res.ground_energy == pytest.approx(energies[0], rel=1e-12, abs=4 * np.spacing(abs(energies[0])))
        assert res.ground_energy / j == pytest.approx(-18.445, abs=1e-3)

    def test_lanczos_with_negligible_flip_flop(self):
        # Sectors k = 2 and 7 hold a 15-fold level 0 that a j of 1e-133
        # splits far below rounding; single-vector Lanczos breaks down there.
        spec = ChainSpec(n=9, j=7.277636563252931e-134, jz=1.0, gamma=0.0)
        dense = ground_state(spec, method="dense")
        iterative = ground_state(spec, method="iterative")
        assert iterative.ground_energy == pytest.approx(dense.ground_energy, abs=1e-10)
        assert iterative.gap == pytest.approx(dense.gap, abs=1e-10)
        for k in (2, 7):
            levels = chain_module._solve_sector(spec, k, "iterative")
            assert (levels.lowest, levels.second) == pytest.approx((0.0, 0.0), abs=1e-10)

    def test_open_periodic_agree_without_couplings(self):
        a = ground_state(ChainSpec(n=6, j=0.0, jz=0.0, gamma=0.7))
        b = ground_state(ChainSpec(n=6, j=0.0, jz=0.0, gamma=0.7, boundary="periodic"))
        assert a.ground_energy == pytest.approx(b.ground_energy, abs=1e-12)
        assert a.magnetization_per_site == b.magnetization_per_site

    def test_weak_coupling_molecular_chain_is_polarized(self):
        res = ground_state(molecular_chain(moments(6.0), 1e-4, n=10))
        assert res.ground_overlap_polarized >= 0.999

    def test_neel_state_observables(self):
        # Pure Ising antiferromagnet: ground state is a Neel bitstring.
        res = ground_state(ChainSpec(n=6, j=0.0, jz=1.0, gamma=0.0))
        assert res.nn_zz_correlation == pytest.approx(-1.0)
        assert res.staggered_zz_correlation == pytest.approx(1.0)
        assert abs(res.magnetization_per_site) == pytest.approx(0.0, abs=1e-12)


class TestSectorPruning:
    """Sectors that the Weyl bound rules out are skipped without changing any result."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10),
        boundary=st.sampled_from(["open", "periodic"]),
        j=COUPLINGS,
        jz=COUPLINGS,
        gamma=FIELDS,
        scale=st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=1e3)),
        method=st.sampled_from(["auto", "dense", "iterative"]),
    )
    @example(n=9, boundary="open", j=7.277636563252931e-134, jz=1.0, gamma=0.0, scale=1.0, method="iterative")
    @example(n=3, boundary="open", j=2.2250738585e-313, jz=0.0, gamma=0.0, scale=1.0, method="iterative")
    # The half-chain bound rules sectors out of the ground state on each of these.
    @example(n=8, boundary="open", j=1.0, jz=-2.0, gamma=0.3, scale=1.0, method="auto")
    @example(n=9, boundary="open", j=1.0, jz=-2.5, gamma=0.0, scale=1.0, method="dense")
    @example(n=10, boundary="periodic", j=0.5, jz=-1.5, gamma=0.2, scale=1.0, method="iterative")
    @example(n=10, boundary="open", j=1.0, jz=0.5, gamma=0.7, scale=10.0, method="iterative")
    def test_equals_all_sector_solve(self, n, boundary, j, jz, gamma, scale, method):
        spec = ChainSpec(n=n, j=j, jz=jz, gamma=gamma, boundary=boundary)
        expected, onset = all_sectors_ground_state(spec, method)
        assert ground_state(spec, method) == expected
        assert polarization_onset_gamma(n, j, jz, boundary=boundary, method=method) == onset
        # The onset field is a level crossing, so the tie rule decides there.
        at_onset = replace(spec, gamma=onset)
        assert ground_state(at_onset, method) == all_sectors_ground_state(at_onset, method)[0]
        # A scan scales the gamma-free part by Omega.
        spectra = chain_module._SectorSpectra(spec, method)
        assert spectra.ground_state(gamma, scale) == all_sectors_ground_state(spec, method, scale)[0]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=9),
        boundary=st.sampled_from(["open", "periodic"]),
        j=COUPLINGS,
        jz=COUPLINGS,
    )
    def test_floor_bounds_every_sector(self, n, boundary, j, jz):
        spectra = chain_module._SectorSpectra(ChainSpec(n=n, j=j, jz=jz, gamma=0.0, boundary=boundary), "dense")
        # Exact in real arithmetic; a computed level may sit a few ulps
        # beyond, far inside the 1e-12 tie margin that pruning keeps.
        rounding = 1e-14 * max(1.0, abs(spectra.floor), abs(spectra.ceil))
        for k in range(n + 1):
            lowest = spectra.sector(k).lowest
            assert spectra.floor - rounding <= lowest <= spectra.ceil + rounding
            assert spectra.floor - rounding <= spectra.split[k] <= lowest + rounding
        if n < 4:
            assert np.all(spectra.split == spectra.floor)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=12),
        boundary=st.sampled_from(["open", "periodic"]),
        j=COUPLINGS,
        jz=COUPLINGS,
    )
    def test_mirrored_halves_equal_every_half_sector_solved(self, n, boundary, j, jz):
        # The field-free halves are spin-flip symmetric: a mirrored minimum is the
        # partner's solve, which agrees with a direct solve to rounding.
        spectra = chain_module._SectorSpectra(ChainSpec(n=n, j=j, jz=jz, gamma=0.0, boundary=boundary), "dense")
        rounding = 1e-14 * max(1.0, abs(spectra.floor), abs(spectra.ceil))
        assert np.abs(spectra.split - all_sector_half_chain_bound(spectra.spec)).max() <= rounding

    def test_molecular_scan_solves_two_sectors_per_x(self, monkeypatch):
        solve = chain_module._solve_sector
        calls = []

        def counted(spec, k, method):
            calls.append(k)
            return solve(spec, k, method)

        monkeypatch.setattr(chain_module, "_solve_sector", counted)
        xs = [1.5, 4.5, 7.5, 10.5]
        phase_diagram(xs, [1e-6, 1e-5, 1e-4], n=12)
        assert calls == [12, 11] * len(xs)

    @staticmethod
    def _counted_solves(monkeypatch) -> list[tuple[int, int]]:
        """(sites, sector) of every sector solve from here on."""
        solve = chain_module._solve_sector
        calls = []

        def counted(spec, k, method):
            calls.append((spec.n, k))
            return solve(spec, k, method)

        monkeypatch.setattr(chain_module, "_solve_sector", counted)
        return calls

    @classmethod
    def _onset_calls(cls, monkeypatch, x: float, n: int) -> list[tuple[int, int]]:
        """(sites, sector) of every sector solve in one molecular polarization onset."""
        calls = cls._counted_solves(monkeypatch)
        spec = molecular_chain(moments(x), 1e-5, n=n)
        polarization_onset_gamma(n, spec.j, spec.jz)
        return calls

    @pytest.mark.parametrize("x,sectors", [(0.5, [0, 1, 6]), (2.0, [12, 11])])
    def test_strong_coupling_scan_skips_sectors_by_the_half_chain_bound(self, monkeypatch, x, sectors):
        # At Omega/B = 10 the Weyl floor admits sectors 0 to 7 at x = 0.5 (4 to 7 by Lanczos)
        # and 12 to 8 at x = 2; the half-chain bound rules out all but these.
        calls = self._counted_solves(monkeypatch)
        phase_diagram([x], [10.0], n=12)
        assert [k for n, k in calls if n == 12] == sectors
        # Half sectors 4 to 6 mirror 2 to 0.
        assert sorted(k for n, k in calls if n == 6) == [0, 1, 2, 3]
        assert {n for n, _ in calls} == {12, 6}

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 12.0])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_strong_coupling_rows_equal_all_sector_solve(self, boundary, x):
        mset = moments(x)
        unit = molecular_chain(mset, 1.0, 12, boundary)
        spectra = chain_module._SectorSpectra(unit, "auto")
        for omega in (1.0, 3.0, 10.0):
            spec = molecular_chain(mset, omega, 12, boundary)
            expected = all_sectors_ground_state(replace(unit, gamma=spec.gamma), "auto", omega)[0]
            assert spectra.ground_state(spec.gamma, scale=omega) == expected

    @pytest.mark.parametrize("x", [7.5, 10.5])
    def test_molecular_onset_solves_three_sectors(self, monkeypatch, x):
        # The Weyl cap alone admits sectors 12 down to 7; the half-chain
        # bound rules out 9 to 7, which include the two Lanczos sectors.
        # Its two 6-site halves are one chain, solved once per spin-flip pair of sectors.
        calls = self._onset_calls(monkeypatch, x, 12)
        assert [k for n, k in calls if n == 12] == [12, 11, 10]
        assert sorted(k for n, k in calls if n == 6) == [0, 1, 2, 3]
        assert {n for n, _ in calls} == {12, 6}

    @pytest.mark.parametrize("x", [7.5, 10.5])
    def test_odd_onset_solves_each_half_once(self, monkeypatch, x):
        calls = self._onset_calls(monkeypatch, x, 13)
        assert sorted(k for n, k in calls if n == 6) == [0, 1, 2, 3]
        assert sorted(k for n, k in calls if n == 7) == [0, 1, 2, 3]
        assert {n for n, _ in calls} == {13, 7, 6}


class TestChainConstants:
    def test_formulas(self):
        m = moments(5.0)
        omega = 2e-4
        c = molecular_chain(m, omega, n=6, boundary="periodic")
        assert (c.n, c.boundary) == (6, "periodic")
        assert c.j == pytest.approx(omega * m.cx**2, rel=1e-14)
        assert c.jz == pytest.approx(-omega * (m.c0 - m.c1) ** 2 / 2, rel=1e-14)
        assert c.gamma == pytest.approx((m.delta_e + omega * (m.c0**2 - m.c1**2)) / 2, rel=1e-14)

    def test_jz_never_positive(self, dense_curves):
        jz = -((dense_curves["c0"] - dense_curves["c1"]) ** 2) / 2
        assert np.all(jz <= 0)

    def test_critical_ratio_position(self, dense_curves):
        from pendular.moments import interpolated_root

        ratio = np.full_like(dense_curves["x"], np.nan)
        cx = dense_curves["cx"]
        nonzero = cx > 0
        ratio[nonzero] = (
            -((dense_curves["c0"][nonzero] - dense_curves["c1"][nonzero]) ** 2)
            / (2 * cx[nonzero] ** 2)
        )
        root = interpolated_root(dense_curves["x"][1:], ratio[1:] + 1.0)
        assert root == pytest.approx(6.1, abs=0.1)


class TestClassification:
    def test_ferromagnetic_examples(self):
        for gamma in (0.0, 0.5, 3.0):
            spec = ChainSpec(n=8, j=1.0, jz=-2.0, gamma=gamma)
            assert classify_phase(ground_state(spec)) is Phase.FERROMAGNETIC

    def test_xx_point_is_luttinger_liquid(self):
        spec = ChainSpec(n=8, j=1.0, jz=0.0, gamma=0.0)
        res = ground_state(spec)
        assert classify_phase(res) is Phase.LUTTINGER_LIQUID

    def test_threshold_dataclass_defaults(self):
        t = PhaseThresholds()
        assert t.magnetization == 0.99

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"magnetization": math.nan},
            {"staggered": math.inf},
            {"min_gap": math.nan},
            {"magnetization": 0.0},
            {"magnetization": 1.5},
            {"magnetization": -0.5},
            {"min_gap": -1e-6},
        ],
        ids=[
            "magnetization-nan",
            "staggered-inf",
            "min-gap-nan",
            "magnetization-zero",
            "magnetization-above-one",
            "magnetization-negative",
            "min-gap-negative",
        ],
    )
    def test_thresholds_reject_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PhaseThresholds(**kwargs)

    def test_thresholds_accept_boundary_values(self):
        t = PhaseThresholds(magnetization=1.0, staggered=-1.0, min_gap=0.0)
        assert (t.magnetization, t.staggered, t.min_gap) == (1.0, -1.0, 0.0)

    @pytest.mark.parametrize("jz_over_j", [-0.5, 0.0, 0.5])
    def test_saturation_onset_tracks_one_magnon_line(self, jz_over_j):
        j = 1.0
        jz = jz_over_j * j
        oracle = one_magnon_saturation_gamma(j, jz)
        onset = polarization_onset_gamma(n=12, j=j, jz=jz)
        assert onset == pytest.approx(oracle, rel=0.2)

    @pytest.mark.parametrize("j", [1.0, 3.7e-6], ids=["unit-j", "molecular-j"])
    @pytest.mark.parametrize("jz_over_j", [-0.9, -0.5, 0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_ring_onset_is_the_one_magnon_line(self, n, jz_over_j, j):
        # Every ring site has two bonds, so the one-magnon band edge is the onset exactly.
        jz = jz_over_j * j
        onset = polarization_onset_gamma(n=n, j=j, jz=jz, boundary="periodic")
        assert abs(onset - one_magnon_saturation_gamma(j, jz)) <= 1e-12 * abs(j)

    def test_onset_matches_direct_scan(self):
        # Crossing formula agrees with explicitly diagonalizing at gamma
        # slightly below/above the onset.
        j, jz, n = 1.0, 0.0, 8
        onset = polarization_onset_gamma(n=n, j=j, jz=jz)
        below = ground_state(ChainSpec(n=n, j=j, jz=jz, gamma=onset * 0.99))
        above = ground_state(ChainSpec(n=n, j=j, jz=jz, gamma=onset * 1.01))
        assert below.magnetization_per_site < 1.0
        assert above.magnetization_per_site == pytest.approx(1.0)


class TestPhaseDiagram:
    def test_rows_ordered_and_labeled(self):
        table = phase_diagram([2.0, 6.0], [1e-6, 1e-4], n=6)
        assert table.columns == ("x", "omega_over_b", "jz_over_j", "gamma_over_j", "phase")
        keys = [(r[0], r[1]) for r in table.rows]
        assert keys == sorted(keys)
        assert all(r[4] is Phase.FERROMAGNETIC for r in table.rows)

    def test_gamma_over_j_decreases_with_omega(self):
        table = phase_diagram([4.0], [1e-6, 1e-5, 1e-4], n=4)
        ratios = [r[3] for r in table.rows]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            phase_diagram([], [1e-5], n=4)

    @pytest.mark.parametrize(
        "xs,omegas",
        [(1.0, [1e-5]), ([[1.0, 2.0]], [1e-5]), ([1.0], 1e-5), ([1.0], [[1e-5], [1e-4]])],
        ids=["x-0d", "x-2d", "omega-0d", "omega-2d"],
    )
    def test_rejects_a_grid_that_is_not_1d(self, xs, omegas):
        with pytest.raises(ValueError, match=re.escape(f"x {np.shape(xs)} and Omega/B {np.shape(omegas)}")):
            phase_diagram(xs, omegas, n=4)

    @pytest.mark.parametrize("workers", [0, -2, 2])
    def test_rejects_non_positive_workers(self, workers):
        # The scan has one serial route; ``workers`` stays only for callers that pass 1.
        with pytest.raises(ValueError, match=re.escape(f"workers must be 1 (the scan runs in one process), got {workers}")):
            phase_diagram([1.0], [1e-5], n=4, workers=workers)

    @pytest.mark.parametrize(
        "xs,omegas,match",
        [
            ([1.0, math.nan], [1e-5], "x values"),
            ([1.0, math.inf], [1e-5], "x values"),
            ([-0.5, 1.0], [1e-5], "x values"),
            ([1.0], [math.nan], "Omega/B values"),
            ([1.0], [1e-5, math.inf], "Omega/B values"),
            ([1.0], [0.0, 1e-5], "Omega/B values"),
            ([1.0], [-1e-5], "Omega/B values"),
        ],
        ids=["x-nan", "x-inf", "x-negative", "omega-nan", "omega-inf", "omega-zero", "omega-negative"],
    )
    def test_rejects_bad_points(self, xs, omegas, match):
        with pytest.raises(ValueError, match=match):
            phase_diagram(xs, omegas, n=4)

    def test_matches_per_point_route(self):
        xs, omegas = [0.0, 3.0, 9.0], [1e-5, 1e-2, 3.0]
        table = phase_diagram(xs, omegas, n=6, boundary="periodic", workers=1)
        expected = []
        for x in xs:
            mset = moments(x)
            for omega in omegas:
                c = molecular_chain(mset, omega, n=6, boundary="periodic")
                res = ground_state(c)
                ratios = (c.jz / c.j, c.gamma / c.j) if c.j != 0 else (math.nan, math.nan)
                expected.append((x, omega, *ratios, classify_phase(res)))
        np.testing.assert_equal(table.rows, expected)
