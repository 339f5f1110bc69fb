import math

import numpy as np
import pytest

from pendular.cli import main
from pendular.moments import LARGEST_J_MAX, TruncationError, _block_levels, moments, stark_map
from pendular.rotor import (
    OPERATOR_KINDS,
    EigensolverError,
    _operator,
    _stark_eigh,
    operator_matrix,
)

from oracles import (
    build_stark_hamiltonian,
    central_difference,
    checked_tridiagonal_solve,
    quad_operator_matrix,
    scalar_operator_matrix,
)


class TestStarkHamiltonian:
    def test_field_free_is_rigid_rotor(self):
        h = build_stark_hamiltonian(0.0, 0, 2)
        assert np.array_equal(h, np.diag([0.0, 2.0, 6.0]))

    def test_m0_coupling_element(self):
        h = build_stark_hamiltonian(1.0, 0, 1)
        assert h[0, 1] == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-15)

    def test_m1_coupling_element(self):
        h = build_stark_hamiltonian(1.0, 1, 2)
        assert h[0, 1] == pytest.approx(-math.sqrt(3.0 / 15.0), abs=1e-15)

    def test_exactly_symmetric(self):
        h = build_stark_hamiltonian(7.3, 2, 9)
        assert np.array_equal(h, h.T)

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError):
            build_stark_hamiltonian(-0.1, 0, 3)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_non_finite_field(self, x):
        with pytest.raises(ValueError, match="finite and non-negative"):
            build_stark_hamiltonian(x, 0, 3)
        with pytest.raises(ValueError, match="finite and non-negative"):
            _stark_eigh(x, 0, 3)

    def test_rejects_too_small_j_max(self):
        too_small = r"j_max=2 must be at least \|m\|=3"
        with pytest.raises(ValueError, match=too_small):
            operator_matrix("cos_theta", 3, 3, 2)
        with pytest.raises(ValueError, match=too_small):
            _stark_eigh(1.0, 3, 2)
        # The stark-map helper turns the same empty block into a TruncationError, which moves
        # stark_map on to the larger basis.
        with pytest.raises(TruncationError, match=r"m=3, j_max=2: fewer than 1 levels"):
            _block_levels(1.0, 3, 1, 2)
        # Only the bra block (m = 1) is empty at j_max = 0, and the message names it.
        with pytest.raises(ValueError, match=r"j_max=0 must be at least \|m\|=1"):
            operator_matrix("sin_theta_cos_phi", 1, 0, 0)


class TestSolvePendular:
    """One m block of the Stark Hamiltonian: ``_stark_eigh``'s levels and vectors, and ``stark_map``'s rows."""

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_field_free_energies_exact(self, m):
        energies = _stark_eigh(0.0, m, 12)[0]
        js = np.arange(m, 13)
        assert np.allclose(energies, js * (js + 1.0), rtol=1e-12, atol=1e-12)

    def test_field_free_states_are_basis_vectors(self):
        energies, vecs = _stark_eigh(0.0, 1, 6)
        assert energies[0] == pytest.approx(2.0, abs=1e-12)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.allclose(np.abs(vecs[:, 0]), expected, atol=1e-12)

    def test_second_order_shift_m0(self):
        # |1,0> shifts by +x^2/10 through second order.
        assert _stark_eigh(0.1, 0, 30)[0][1] == pytest.approx(2.0 + 0.01 / 10.0, abs=1e-4)

    def test_second_order_shift_m1(self):
        # |1,1> shifts by -x^2/20 through second order.
        assert _stark_eigh(0.1, 1, 30)[0][0] == pytest.approx(2.0 - 0.01 / 20.0, abs=1e-4)

    @pytest.mark.parametrize("x,m", [(0.5, 0), (4.0, 1), (11.0, 2)])
    def test_coefficients_orthonormal(self, x, m):
        vecs = _stark_eigh(x, m, 30)[1]
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(31 - m)).max() <= 1e-12

    def test_energies_ascending(self):
        assert np.all(np.diff(_stark_eigh(8.0, 0, 30)[0]) > 0)

    def test_adiabatic_labels(self):
        # The k-th level of the m block is j_tilde = |m| + k.  At j_max = 8 the m = 2 block holds 7
        # levels, so the stark-map helper rejects 10 of them rather than report fewer.
        table = stark_map([0.0], m_values=(2,), n_states=10)
        assert [row[2] for row in table.rows] == list(range(2, 12))
        assert [row[3] for row in table.rows] == _stark_eigh(0.0, 2, 30)[0][:10].tolist()
        table = stark_map([3.0], m_values=(2,), n_states=7)
        assert [row[2] for row in table.rows] == list(range(2, 9))
        assert [row[3] for row in table.rows] == _stark_eigh(3.0, 2, 30)[0][:7].tolist()
        assert _block_levels(0.0, 2, 7, 8).tolist() == _stark_eigh(0.0, 2, 8)[0].tolist()
        with pytest.raises(TruncationError, match="x=0.0, m=2, j_max=8: fewer than 10 levels"):
            _block_levels(0.0, 2, 10, 8)

    def test_single_state_block(self):
        assert _block_levels(0.0, 5, 1, 5).tolist() == [30.0]
        # Off x = 0 the one state is the basis edge itself, so its level is not converged.
        with pytest.raises(TruncationError, match="x=1.0, m=5, j_max=5: last-basis amplitude"):
            _block_levels(1.0, 5, 1, 5)
        # The same holds for the one-state block of the largest basis, which stark_map cannot leave.
        (row,) = stark_map([0.0], m_values=(LARGEST_J_MAX,), n_states=1).rows
        assert row == (0.0, 60, 60, 3660.0)
        with pytest.raises(TruncationError, match="x=1.0, m=60, j_max=60: last-basis amplitude"):
            stark_map([1.0], m_values=(LARGEST_J_MAX,), n_states=1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", [0.5, 4.0, 12.0])
    def test_plus_minus_m_energies_identical(self, x, m):
        up = _stark_eigh(x, m, 30)[0]
        dn = _stark_eigh(x, -m, 30)[0]
        assert np.allclose(up, dn, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x,m,j_tilde", [(0.5, 0, 1), (3.0, 1, 1), (7.0, 0, 0), (11.0, 1, 2)])
    def test_hellmann_feynman(self, x, m, j_tilde):
        # -dE/dx equals <cos theta> in the same state.
        j_max, k = 30, j_tilde - m
        vec = _stark_eigh(x, m, j_max)[1][:, k]
        cos_mat = operator_matrix("cos_theta", m, m, j_max)
        expectation = vec @ cos_mat @ vec
        slope = central_difference(lambda t: _stark_eigh(t, m, j_max)[0][k], x)
        assert -slope == pytest.approx(expectation, abs=1e-6)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("x", [0.0, 3.0, 6.0, 9.0, 12.0])
    def test_basis_convergence_lowest_states(self, x, m):
        small = _stark_eigh(x, m, 20)[0][:4]
        large = _stark_eigh(x, m, 30)[0][:4]
        assert np.abs(small - large).max() <= 1e-10


#: The validated 0:12:0.01 field grid plus the subnormal, tiny and far-out fields.
EIGH_FIELDS = [*np.round(np.arange(0.0, 12.0 + 0.005, 0.01), 12), 5e-324, 1e-300, 30.0, 100.0, 1000.0]


class TestDirectTridiagonalSolve:
    """The dense eigh solve of each block gives scipy's checked tridiagonal result bit for bit."""

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_equals_eigh_tridiagonal(self, m):
        mismatches = []
        for j_max in (20, 30, 40):
            for x in EIGH_FIELDS:
                energies, vecs = _stark_eigh(float(x), m, j_max)
                ref_energies, ref_vecs = checked_tridiagonal_solve(float(x), m, j_max)
                if not (np.array_equal(energies, ref_energies) and np.array_equal(vecs, ref_vecs)):
                    mismatches.append((j_max, x))
        assert mismatches == []

    def test_vectors_are_fortran_ordered(self):
        # Contractions must read each column contiguously: C-ordered vectors move c1 in its last bits.
        assert _stark_eigh(5.0, 0, 30)[1].flags.f_contiguous

    def test_single_level_block(self):
        energies, vecs = _stark_eigh(1.0, 1, 1)
        ref_energies, ref_vecs = checked_tridiagonal_solve(1.0, 1, 1)
        assert np.array_equal(energies, ref_energies) and np.array_equal(vecs, ref_vecs)
        energies[0] = -1.0  # the caller owns the result, not the cached diagonal
        assert _stark_eigh(1.0, 1, 1)[0][0] == 2.0

    def test_lapack_failure_is_eigensolver_error(self, monkeypatch, capsys):
        def fail(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigensolverError, match=r"x=2\.0, m=0, j_max=5 \(Eigenvalues did not converge\)"):
            _stark_eigh(2.0, 0, 5)
        with pytest.raises(EigensolverError):
            moments(2.0)
        assert main(["couplings", "--x", "2", "--omega", "1e-5"]) == 1
        assert capsys.readouterr().err.startswith("pendular: error: pendular eigensolve failed at x=2.0")


class TestOperatorMatrix:
    def test_cos_theta_requires_equal_m(self):
        with pytest.raises(ValueError):
            operator_matrix("cos_theta", 0, 1, 4)

    def test_sin_operators_require_adjacent_m(self):
        with pytest.raises(ValueError):
            operator_matrix("sin_theta_cos_phi", 0, 2, 4)
        with pytest.raises(ValueError):
            operator_matrix("sin_theta_cos_phi", 1, 1, 4)
        # Only m_bra = m_ket + 1 is built; the other block is the Hermitian conjugate.
        with pytest.raises(ValueError, match="m_bra = m_ket \\+ 1"):
            operator_matrix("sin_theta_cos_phi", 0, 1, 4)

    def test_unknown_kind_rejected(self):
        # sin*sin(phi) is no kind of its own: it is -i times the sin*cos(phi) block.
        assert OPERATOR_KINDS == ("cos_theta", "sin_theta_cos_phi")
        for kind in ("cos_phi", "sin_theta_sin_phi"):
            with pytest.raises(ValueError, match="unknown operator kind"):
                operator_matrix(kind, 1, 0, 4)

    def test_known_elements(self):
        cos01 = operator_matrix("cos_theta", 0, 0, 3)
        assert cos01[1, 0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
        sc = operator_matrix("sin_theta_cos_phi", 1, 0, 3)
        assert sc[0, 0] == pytest.approx(-1.0 / math.sqrt(6.0), abs=1e-15)

    def test_delta_j_zero_vanishes(self):
        # Parity: both operators only couple J to J +- 1.
        for kind, mb, mk in (("cos_theta", 1, 1), ("sin_theta_cos_phi", 2, 1), ("sin_theta_cos_phi", 1, 0)):
            mat = operator_matrix(kind, mb, mk, 6)
            for j in range(max(abs(mb), abs(mk)), 7):
                assert mat[j - abs(mb), j - abs(mk)] == 0.0

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_bit_identical_to_scalar_recursions(self, kind):
        # Every block of m in -8..8 and j_max up to 40 equals the element-by-element math.sqrt
        # recursions byte for byte; the cached read-only copy holds the same bytes.
        dm = 0 if kind == "cos_theta" else 1
        mismatches = []
        for m in range(-8, 9):
            for j_max in range(max(abs(m), abs(m + dm)), 41):
                ref = scalar_operator_matrix(kind, m + dm, m, j_max).tobytes()
                if operator_matrix(kind, m + dm, m, j_max).tobytes() != ref:
                    mismatches.append((m, j_max))
                if j_max in (abs(m), 30) and _operator(kind, m + dm, m, j_max).tobytes() != ref:
                    mismatches.append(("cached", m, j_max))
        assert mismatches == []
        assert not _operator(kind, 1, 1 - dm, 30).flags.writeable

    @pytest.mark.parametrize("m_ket", [-2, -1, 0, 1, 2])
    def test_cos_theta_matches_quadrature(self, m_ket):
        ladder = operator_matrix("cos_theta", m_ket, m_ket, 5)
        quad = quad_operator_matrix("cos_theta", m_ket, m_ket, 5)
        assert np.abs(quad.imag).max() <= 1e-12
        assert np.abs(ladder - quad.real).max() <= 1e-10

    @staticmethod
    def _sin_cos_block(m_bra: int, m_ket: int) -> np.ndarray:
        """The library's sin*cos(phi) block for m_bra = m_ket + 1, else its transpose (the operator is real and Hermitian)."""
        if m_bra == m_ket + 1:
            return operator_matrix("sin_theta_cos_phi", m_bra, m_ket, 5)
        return operator_matrix("sin_theta_cos_phi", m_ket, m_bra, 5).T

    @pytest.mark.parametrize("m_ket", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("dm", [-1, 1])
    def test_sin_cos_phi_matches_quadrature(self, m_ket, dm):
        ladder = self._sin_cos_block(m_ket + dm, m_ket)
        quad = quad_operator_matrix("sin_theta_cos_phi", m_ket + dm, m_ket, 5)
        assert np.abs(quad.imag).max() <= 1e-12
        assert np.abs(ladder - quad.real).max() <= 1e-10

    @pytest.mark.parametrize("m_ket", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("dm", [-1, 1])
    def test_sin_sin_phi_matches_quadrature(self, m_ket, dm):
        # sin*sin(phi) = sin (e^{+i phi} - e^{-i phi}) / 2i is -i sin*cos(phi) from m to m + 1 and
        # +i sin*cos(phi) from m to m - 1; pseudo_spin_operators relies on the first.
        quad = quad_operator_matrix("sin_theta_sin_phi", m_ket + dm, m_ket, 5) / 1j
        assert np.abs(quad.imag).max() <= 1e-12
        assert np.abs(-dm * self._sin_cos_block(m_ket + dm, m_ket) - quad.real).max() <= 1e-12
