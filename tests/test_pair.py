import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pendular.chain import molecular_chain
from pendular.moments import moments
from pendular.pair import (
    MAGIC_ANGLE,
    CouplingGeometry,
    coupling_surface,
    heisenberg_constants,
    pair_hamiltonian,
    pseudo_spin_operators,
    vdd_from_first_principles,
    xyz_matrix,
)

OFF_PATTERN = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]


def single_molecule_part(mset):
    return np.diag([2 * mset.e0, mset.e0 + mset.e1, mset.e1 + mset.e0, 2 * mset.e1])


class TestGeometry:
    def test_p_q_ranges(self):
        for alpha in np.linspace(0, math.pi / 2, 7):
            g = CouplingGeometry(omega=1.0, alpha=float(alpha))
            assert -2.0 <= g.p_alpha <= 1.0
            assert -3.0 <= g.q_alpha <= 0.0

    def test_rejects_negative_omega(self):
        with pytest.raises(ValueError):
            CouplingGeometry(omega=-1e-3, alpha=0.0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf])
    def test_rejects_non_finite_omega(self, omega):
        with pytest.raises(ValueError, match="finite"):
            CouplingGeometry(omega=omega)

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError):
            CouplingGeometry(omega=1.0, alpha=-0.1)
        with pytest.raises(ValueError):
            CouplingGeometry(omega=1.0, alpha=2.0)

    def test_magic_angle_value(self):
        assert 3.0 * math.cos(MAGIC_ANGLE) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert math.degrees(MAGIC_ANGLE) == pytest.approx(54.7356, abs=1e-4)


class TestPairHamiltonian:
    def test_noninteracting_limit(self):
        m = moments(3.0)
        h = pair_hamiltonian(m, CouplingGeometry(omega=0.0, alpha=0.3))
        assert np.allclose(h, single_molecule_part(m), atol=1e-15)

    def test_magic_angle_couplings(self):
        m = moments(5.0)
        g = CouplingGeometry(omega=2e-3, alpha=MAGIC_ANGLE)
        h = pair_hamiltonian(m, g)
        assert h[1, 2] == pytest.approx(0.0, abs=1e-12 * g.omega)
        assert h[0, 3] == pytest.approx(-2.0 * g.omega * m.cx**2, rel=1e-12)

    def test_symmetric(self):
        m = moments(7.0)
        h = pair_hamiltonian(m, CouplingGeometry(omega=0.05, alpha=0.7))
        assert np.array_equal(h, h.T)


class TestFirstPrinciplesOracle:
    @pytest.mark.parametrize("alpha", [0.0, math.pi / 2])
    @pytest.mark.parametrize("x", [0.5, 4.0, 9.0])
    def test_matches_pair_hamiltonian_on_axis(self, x, alpha):
        m = moments(x)
        g = CouplingGeometry(omega=1e-3, alpha=alpha)
        v = vdd_from_first_principles(x, g)
        interaction = pair_hamiltonian(m, g) - single_molecule_part(m)
        assert np.abs(v - interaction).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 2])
    def test_sparsity_pattern_on_axis(self, alpha):
        v = vdd_from_first_principles(4.0, CouplingGeometry(omega=1e-3, alpha=alpha))
        for i, j in OFF_PATTERN:
            assert abs(v[i, j]) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 8, math.pi / 4, MAGIC_ANGLE, math.pi / 2])
    def test_inner_flip_flop_all_angles(self, alpha):
        # The anti-diagonal of the first-principles matrix follows the
        # two-qubit form at every tilt.
        x = 4.0
        m = moments(x)
        g = CouplingGeometry(omega=1e-3, alpha=alpha)
        v = vdd_from_first_principles(x, g)
        assert v[1, 2] == pytest.approx(-g.p_alpha * m.cx**2 * g.omega, abs=1e-15)
        assert v[0, 3] == pytest.approx(g.q_alpha * m.cx**2 * g.omega, abs=1e-15)

    def test_zero_field_interaction_vanishes(self):
        v = vdd_from_first_principles(0.0, CouplingGeometry(omega=0.1, alpha=0.4))
        assert np.abs(v).max() <= 1e-14

    def test_tilted_geometry_grows_transition_terms(self):
        # At interior tilts the exact interaction carries one-molecule
        # transition terms -3 sin(a)cos(a) * cx * c0/c1 * Omega that the
        # two-qubit model cannot represent; they vanish only on-axis.
        x, alpha = 4.0, math.pi / 4
        m = moments(x)
        g = CouplingGeometry(omega=1e-3, alpha=alpha)
        v = vdd_from_first_principles(x, g)
        factor = -3.0 * math.sin(alpha) * math.cos(alpha) * g.omega
        assert v[0, 1] == pytest.approx(factor * m.c0 * m.cx, abs=1e-15)
        assert v[0, 2] == pytest.approx(factor * m.cx * m.c0, abs=1e-15)
        assert v[1, 3] == pytest.approx(factor * m.cx * m.c1, abs=1e-15)
        assert v[2, 3] == pytest.approx(factor * m.c1 * m.cx, abs=1e-15)
        assert abs(v[0, 1]) > 1e-5  # genuinely large, not a rounding artifact

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 4])
    def test_against_coordinate_space_quadrature(self, alpha):
        # Raw 4-D quadrature of the interaction kernel between product
        # pendular wavefunctions, with no operator algebra at all, confirms
        # the first-principles matrix at straight and tilted geometries.
        from oracles import brute_force_pair_interaction

        x, omega = 4.0, 1.0
        brute = brute_force_pair_interaction(x, alpha, omega)
        v = vdd_from_first_principles(x, CouplingGeometry(omega=omega, alpha=alpha))
        assert np.abs(brute - v).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 4, MAGIC_ANGLE, math.pi / 2])
    @pytest.mark.parametrize("x", [0.0, 2.0, 6.0, 12.0])
    def test_bit_identical_to_the_kron_sum(self, x, alpha):
        # The broadcast products are np.kron's own elementwise multiply, so not one bit moves.
        m_cos, m_sc, m_ss = pseudo_spin_operators(x)
        m_axis = math.sin(alpha) * m_sc + math.cos(alpha) * m_cos
        v = np.kron(m_cos, m_cos) + np.kron(m_sc, m_sc) + np.kron(m_ss, m_ss) - 3.0 * np.kron(m_axis, m_axis)
        g = CouplingGeometry(omega=1e-3, alpha=alpha)
        assert np.array_equal(vdd_from_first_principles(x, g), g.omega * v.real)

    def test_pseudo_spin_operators_structure(self):
        m_cos, m_sc, m_ss = pseudo_spin_operators(4.0)
        mset = moments(4.0)
        assert m_cos[0, 0] == pytest.approx(mset.c0, abs=1e-14)
        assert m_cos[1, 1] == pytest.approx(mset.c1, abs=1e-14)
        assert m_cos[0, 1] == 0.0
        assert m_sc[0, 1] == pytest.approx(mset.cx, abs=1e-14)
        # sin*sin(phi) is anti-Hermitian over i with magnitude cx.
        assert m_ss[0, 1] == pytest.approx(-1j * mset.cx, abs=1e-14)
        assert m_ss[1, 0] == pytest.approx(1j * mset.cx, abs=1e-14)

    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 2.0, 6.0, 12.0])
    def test_sin_sin_phi_element_is_minus_cx_with_a_positive_zero(self, x):
        # K_du = 0.0 - cx, as the contraction with the sin*sin(phi) matrix gave it: +0.0 where cx = 0.
        # Negating cx instead writes -0.0 into the real parts, and these bytes show it.
        k_du = 0.0 - moments(x).cx
        expected = np.array([[0.0, 1j * k_du], [-1j * k_du, 0.0]])
        assert pseudo_spin_operators(x)[2].tobytes() == expected.tobytes()


#: Single-molecule states of the two-molecule oracle: down (lowest M = +1), up (second M = 0) and
#: down's degenerate partner, the lowest M = -1 state.
D_PLUS, UP, D_MINUS = 0, 1, 2
ORACLE_STATES = [(1, 0), (0, 1), (-1, 0)]


def product(a, b):
    return a * len(ORACLE_STATES) + b


class TestClosureOfThePseudoSpinSpace:
    """The two-qubit form is exact within the four product states {dd, du, ud, uu}; the interaction
    leaves that space at first order unless alpha = 0.  Checked against an oracle with every M,
    built from the Y_J^M recursions alone."""

    PAIR_BLOCK = [product(D_PLUS, D_PLUS), product(D_PLUS, UP), product(UP, D_PLUS), product(UP, UP)]

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 2])
    @pytest.mark.parametrize("x", [2.0, 6.0, 8.0])
    def test_reproduces_pair_hamiltonian_on_axis(self, x, alpha):
        from oracles import two_molecule_hamiltonian

        g = CouplingGeometry(omega=1.0, alpha=alpha)
        h = two_molecule_hamiltonian(x, g.omega, alpha, ORACLE_STATES)
        pair = pair_hamiltonian(moments(x), g)
        block = h[np.ix_(self.PAIR_BLOCK, self.PAIR_BLOCK)]
        assert block[1, 2] == pytest.approx(pair[1, 2], rel=1e-12)
        assert np.abs(block - pair).max() <= 1e-12

    @pytest.mark.parametrize("x", [2.0, 6.0, 8.0])
    def test_no_leak_along_the_field(self, x):
        # At alpha = 0 the interaction conserves M1 + M2, so |d+ u> (M = +1) never reaches
        # |u d-> (M = -1), its partner at the same energy e0 + e1.
        from oracles import two_molecule_hamiltonian

        h = two_molecule_hamiltonian(x, 1.0, 0.0, ORACLE_STATES)
        assert h[product(UP, D_MINUS), product(D_PLUS, UP)] == 0.0

    @pytest.mark.parametrize("x,leak", [(2.0, 0.0765), (6.0, 0.173), (8.0, 0.183)])
    def test_perpendicular_leak_is_a_documented_limitation(self, x, leak):
        # At alpha = pi/2, |d+ u> couples to |u d-> with amplitude 3 Omega cx^2: three times the
        # model's own flip-flop, and outside the four states the model keeps.
        from oracles import two_molecule_hamiltonian

        h = two_molecule_hamiltonian(x, 1.0, math.pi / 2, ORACLE_STATES)
        coupling = abs(h[product(UP, D_MINUS), product(D_PLUS, UP)])
        assert coupling == pytest.approx(3.0 * moments(x).cx ** 2, rel=1e-12)
        assert coupling == pytest.approx(leak, abs=5e-4)


class TestHeisenbergConstants:
    def test_explicit_formulas(self):
        m = moments(6.0)
        g = CouplingGeometry(omega=0.02, alpha=0.5)
        hc = heisenberg_constants(m, g)
        cos2 = 3 * math.cos(g.alpha) ** 2
        assert hc.jx == pytest.approx(g.omega * (cos2 - 2) * m.cx**2, rel=1e-14)
        assert hc.jy == pytest.approx(g.omega * m.cx**2, rel=1e-14)
        assert hc.jz == pytest.approx(g.omega * (1 - cos2) * (m.c0 - m.c1) ** 2 / 4, rel=1e-14)

    def test_jy_is_alpha_independent(self):
        m = moments(5.0)
        values = {
            heisenberg_constants(m, CouplingGeometry(omega=1e-2, alpha=a)).jy
            for a in (0.0, 0.3, 1.0, math.pi / 2)
        }
        assert len(values) == 1

    def test_alpha_zero_jx_equals_jy(self):
        m = moments(5.0)
        hc = heisenberg_constants(m, CouplingGeometry(omega=1e-2, alpha=0.0))
        assert hc.jx == pytest.approx(hc.jy, rel=1e-14)

    def test_magic_angle_jz_vanishes_jx_flips(self):
        m = moments(5.0)
        g = CouplingGeometry(omega=1e-2, alpha=MAGIC_ANGLE)
        hc = heisenberg_constants(m, g)
        assert abs(hc.jz) <= 1e-12 * g.omega
        assert hc.jx == pytest.approx(-hc.jy, rel=1e-12)

    def test_reconstruction_identity_dense_grid(self):
        # The two-qubit model with identity shift reproduces the pair
        # Hamiltonian entry for entry at every geometry.
        for x in np.linspace(0.0, 12.0, 20):
            m = moments(float(x))
            base = single_molecule_part(m)
            for omega in np.geomspace(1e-6, 1e-1, 5):
                for alpha in np.linspace(0.0, math.pi / 2, 5):
                    g = CouplingGeometry(omega=float(omega), alpha=float(alpha))
                    h_pair = pair_hamiltonian(m, g)
                    h_model = xyz_matrix(heisenberg_constants(m, g))
                    scale = max(1.0, np.abs(h_pair).max())
                    assert np.abs(h_model - h_pair).max() <= 1e-12 * scale

    def test_scaling_linear_in_omega(self):
        m = moments(4.0)
        a, b = (
            heisenberg_constants(m, CouplingGeometry(omega=w, alpha=0.6)) for w in (1e-3, 2e-3)
        )
        assert b.jx == pytest.approx(2 * a.jx, rel=1e-12)
        assert b.jy == pytest.approx(2 * a.jy, rel=1e-12)
        assert b.jz == pytest.approx(2 * a.jz, rel=1e-12)
        # gamma has a field-only part plus an omega-linear part.
        gamma_field = m.delta_e / 2.0
        assert b.gamma - gamma_field == pytest.approx(2 * (a.gamma - gamma_field), rel=1e-10)

    def test_critical_ratio_near_6_1(self):
        m = moments(6.1)
        hc = heisenberg_constants(m, CouplingGeometry(omega=1e-4, alpha=0.0))
        assert hc.jz / hc.jy == pytest.approx(-1.0, abs=0.05)

    def test_alpha_zero_reduces_to_chain_constants(self):
        for x, omega in ((0.0, 1e-5), (3.0, 3e-4), (7.0, 1.0), (11.5, 20.0)):
            m = moments(x)
            hc = heisenberg_constants(m, CouplingGeometry(omega=omega, alpha=0.0))
            spec = molecular_chain(m, omega, n=4)
            assert hc.jx == hc.jy
            assert (spec.j, spec.jz, spec.gamma) == (hc.jy, hc.jz, hc.gamma)

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 2], ids=["parallel", "perpendicular"])
    def test_rejects_constants_that_overflow(self, alpha):
        m = moments(6.0)
        with pytest.raises(ValueError, match="overflows the model constants"):
            heisenberg_constants(m, CouplingGeometry(omega=1e308, alpha=alpha))
        hc = heisenberg_constants(m, CouplingGeometry(omega=1e300, alpha=alpha))
        assert all(map(math.isfinite, (hc.jx, hc.jy, hc.jz, hc.gamma, hc.shift)))


class TestCouplingSurface:
    def test_schema_and_values(self):
        table = coupling_surface([2.0, 6.0], [0.0, math.pi / 4])
        assert table.columns[:2] == ("x", "alpha")
        assert len(table.rows) == 4
        m = moments(2.0)
        row = table.rows[0]  # x=2, alpha=0
        assert row[4] == pytest.approx(-((m.c0 - m.c1) ** 2) / 2.0, rel=1e-12)
        assert row[3] == pytest.approx(m.cx**2, rel=1e-12)

    def test_rejects_an_empty_grid(self):
        for x_grid, alpha_grid, axis in (
            ([1.0], [], "alpha"),
            ([], [0.0], "x"),
            ([], [], "x"),
            (np.array([]), np.radians([0.0, 45.0]), "x"),
        ):
            with pytest.raises(ValueError, match=f"^{axis} grid must be a non-empty 1-D array"):
                coupling_surface(x_grid, alpha_grid)

    @pytest.mark.parametrize(
        "x_grid,alpha_grid",
        [(1.0, [0.0]), ([1.0], 0.5), ([[1.0, 2.0]], [0.0]), ([1.0], [[0.0], [0.5]])],
        ids=["scalar-x", "scalar-alpha", "2d-x", "2d-alpha"],
    )
    def test_rejects_a_grid_that_is_not_1d(self, x_grid, alpha_grid):
        axis = "x" if np.ndim(x_grid) != 1 else "alpha"
        with pytest.raises(ValueError, match=f"^{axis} grid must be a non-empty 1-D array, got shape"):
            coupling_surface(x_grid, alpha_grid)

    @pytest.mark.parametrize(
        "x_grid,alpha_grid,message",
        [
            ([1.0, 1.0], [0.0], "x grid must be strictly ascending"),
            ([2.0, 1.0], [0.0], "x grid must be strictly ascending"),
            ([-1.0, 1.0], [0.0], "x grid must be non-negative"),
            ([1.0], [0.0, 0.0], "alpha grid must be strictly ascending"),
            ([1.0], [0.5, 0.0], "alpha grid must be strictly ascending"),
        ],
        ids=["x-repeated", "x-descending", "x-negative", "alpha-repeated", "alpha-descending"],
    )
    def test_rejects_an_axis_that_is_not_ascending_from_zero(self, x_grid, alpha_grid, message):
        # The check moment_curves and stark_map make: a repeated or descending axis would repeat
        # rows or break the x-major order.
        with pytest.raises(ValueError, match=f"^{message}$"):
            coupling_surface(x_grid, alpha_grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_x(self, bad):
        with pytest.raises(ValueError, match="^x grid must be finite$"):
            coupling_surface([1.0, bad], [0.0])

    @pytest.mark.parametrize("alpha", [-1e-9, math.pi / 2 + 1e-9, math.nan, math.inf])
    def test_rejects_alpha_outside_the_quarter_turn(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, pi/2\]"):
            coupling_surface([1.0, 2.0], [0.0, alpha])

    # libm pow and numpy's square give different (c0 - c1)^2 at x = 0.79 and 4.1 (one ulp), so
    # those two points catch a surface that squares in numpy.
    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(st.floats(0.0, 12.0), max_size=4),
        alphas=st.lists(st.floats(0.0, math.pi / 2), max_size=4),
    )
    def test_equals_heisenberg_constants_per_point(self, xs, alphas):
        xs = sorted({0.0, 0.79, 4.1, *xs})
        alphas = sorted({0.0, MAGIC_ANGLE, math.pi / 2, *alphas})
        table = coupling_surface(xs, alphas)
        expected = []
        for x in xs:
            m = moments(x)
            for alpha in alphas:
                hc = heisenberg_constants(m, CouplingGeometry(1.0, alpha))
                gamma2 = (3.0 * math.cos(alpha) ** 2 - 1.0) * (m.c0**2 - m.c1**2) / 4.0
                expected.append((x, alpha, hc.jx, hc.jy, hc.jz, gamma2))
        assert all(type(v) is float for row in table.rows for v in row)
        assert [tuple(map(repr, row)) for row in table.rows] == [tuple(map(repr, row)) for row in expected]
