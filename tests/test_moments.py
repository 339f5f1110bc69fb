import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import public_route_elements, quad_operator_matrix, up_leading_swap
from pendular.moments import (
    MomentSet,
    TruncationError,
    _pseudo_spin,
    c1_zero_crossing,
    interpolated_root,
    moment_curves,
    moments,
    stark_map,
    uniform_grid,
)
from pendular.pair import pseudo_spin_operators
from pendular.rotor import _j_squared, _operator

#: Every 7th point of the standard 0:12:0.01 grid, both ends included.
STRIDED_GRID = [*np.round(np.arange(0.0, 12.0, 0.07), 12), 12.0]


class TestMoments:
    def test_zero_field_all_moments_vanish(self):
        m = moments(0.0)
        assert m.c0 == pytest.approx(0.0, abs=1e-14)
        assert m.c1 == pytest.approx(0.0, abs=1e-14)
        assert m.cx == pytest.approx(0.0, abs=1e-14)
        assert m.delta_e == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError):
            moments(-1.0)

    @pytest.mark.parametrize("x", [0.02, 0.05, 0.1])
    def test_small_field_gap_is_perturbative(self, x):
        # Second-order shifts give a gap of 3x^2/20.
        assert moments(x).delta_e == pytest.approx(0.15 * x * x, rel=0.02)

    @pytest.mark.parametrize("x", [0.5, 2.0, 7.0, 12.0])
    def test_moment_bounds(self, x):
        m = moments(x)
        assert abs(m.c0) <= 1 and abs(m.c1) <= 1 and abs(m.cx) <= 1
        assert m.delta_e >= 0

    @pytest.mark.parametrize("x", [0.0, 1.0, 4.0, 8.0, 12.0])
    def test_j_max_convergence_all_fields(self, x):
        a = moments(x, j_max=20)
        b = moments(x, j_max=30)
        diffs = [abs(a.e0 - b.e0), abs(a.e1 - b.e1), abs(a.c0 - b.c0), abs(a.c1 - b.c1), abs(a.cx - b.cx)]
        assert max(diffs) <= 1e-10

    def test_delta_e_property(self):
        m = MomentSet(x=1.0, e0=1.5, e1=2.25, c0=0.1, c1=-0.1, cx=0.2)
        assert m.delta_e == pytest.approx(0.75)

    def test_curves_against_point_evaluation(self):
        xs = np.array([0.0, 1.0, 3.5])
        curves = moment_curves(xs)
        for i, x in enumerate(xs):
            m = moments(float(x))
            assert curves["c0"][i] == pytest.approx(m.c0, abs=1e-15)
            assert curves["delta_e"][i] == pytest.approx(m.delta_e, abs=1e-15)


class TestMomentCurveShapes:
    def test_c0_strictly_increasing(self, dense_curves):
        assert np.all(np.diff(dense_curves["c0"]) > 0)

    def test_c0_minus_c1_positive_in_field(self, dense_curves):
        diff = dense_curves["c0"] - dense_curves["c1"]
        assert np.all(diff[1:] > 0)

    def test_cx_positive_in_field(self, dense_curves):
        assert np.all(dense_curves["cx"][1:] > 0)

    def test_delta_e_nonnegative(self, dense_curves):
        assert np.all(dense_curves["delta_e"] >= 0)

    def test_c1_has_single_interior_zero(self, dense_curves):
        c1 = dense_curves["c1"][1:]
        flips = np.sum(np.sign(c1[1:]) != np.sign(c1[:-1]))
        assert flips == 1

    def test_c1_zero_near_4_9(self, dense_curves):
        root = interpolated_root(dense_curves["x"][1:], dense_curves["c1"][1:])
        assert root == pytest.approx(4.9, abs=0.2)

    def test_c1_zero_crossing_helper(self):
        root = c1_zero_crossing(x_min=4.0, x_max=6.0, step=0.01)
        assert root == pytest.approx(4.9, abs=0.2)

    def test_c1_zero_crossing_skips_field_free_zero(self):
        # c1(0) = 0 exactly; a grid starting at x = 0 must still find the interior zero.
        root = c1_zero_crossing(x_min=0.0)
        assert root == c1_zero_crossing()
        assert root == pytest.approx(4.901827850378384, abs=1e-9)

    @pytest.mark.parametrize("x_min, x_max", [(0.0, 12.0), (0.01, 12.0), (4.0, 6.0)])
    def test_c1_zero_crossing_on_the_step_grid(self, x_min, x_max):
        # Every x_min on the 0:x_max:0.01 grid reads the same samples as a grid started at x_min.
        assert c1_zero_crossing(x_min=x_min, x_max=x_max, step=0.01) == 4.901827850378384

    def test_c1_zero_crossing_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="step=0.0"):
            c1_zero_crossing(step=0.0)
        with pytest.raises(ValueError, match="stop=4.0"):
            c1_zero_crossing(x_min=6.0, x_max=4.0)


    def test_gap_maximum_at_right_edge(self, dense_curves):
        gaps = dense_curves["delta_e"]
        assert np.argmax(gaps) == len(gaps) - 1
        assert gaps.max() == pytest.approx(3.7, abs=0.1)

    def test_down_energy_monotone_decreasing(self, dense_curves):
        assert np.all(np.diff(dense_curves["e0"]) < 0)


class TestStarkMap:
    def test_field_free_row_energies(self):
        table = stark_map([0.0, 1.0], m_values=(0,), n_states=4)
        first = [row for row in table.rows if row[0] == 0.0]
        energies = [row[3] for row in first]
        assert energies == pytest.approx([0.0, 2.0, 6.0, 12.0], abs=1e-12)
        assert [row[2] for row in first] == [0, 1, 2, 3]

    def test_row_ordering(self):
        table = stark_map([0.0, 2.0], m_values=(0, 1), n_states=2)
        key = [(row[0], row[1], row[2]) for row in table.rows]
        assert key == sorted(key)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            stark_map([])

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            stark_map([1.0, 0.5])

    @pytest.mark.parametrize("grid", [1.0, [[0.0, 1.0], [2.0, 3.0]]], ids=["0d", "2d"])
    @pytest.mark.parametrize("route", [stark_map, moment_curves])
    def test_rejects_a_grid_that_is_not_1d(self, route, grid):
        with pytest.raises(ValueError, match=re.escape(f"1-D array, got shape {np.shape(grid)}")):
            route(grid)

    def test_rejects_negative_grid(self):
        with pytest.raises(ValueError):
            stark_map([-1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("route", [stark_map, moment_curves])
    def test_rejects_a_non_finite_point(self, route, bad):
        # The axis check names the grid before any solve sees the point.
        with pytest.raises(ValueError, match="^x grid must be finite$"):
            route([1.0, bad])

    @pytest.mark.parametrize("m_values", [(1, 1), (1, 0), (-1, 1, 0)])
    def test_rejects_m_blocks_out_of_order(self, m_values):
        # Duplicate or descending blocks would repeat rows or break the (x, m, j_tilde) order.
        with pytest.raises(ValueError, match="strictly ascending"):
            stark_map([0.0, 1.0], m_values=m_values)


class TestCoefficientMap:
    """Spherical-harmonic content of the oriented pseudo-spin states; index i is J = |m| + i."""

    def test_zero_field_down_state(self):
        down = _pseudo_spin(0.0, 10).down
        assert down[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(down[1:]).max() < 1e-12

    @pytest.mark.parametrize("state", ["down", "up"])
    def test_normalization_per_field(self, state):
        for x in (0.0, 3.0, 9.0):
            total = np.sum(getattr(_pseudo_spin(x, 25), state) ** 2)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_up_leading_component_swap_near_4_5(self):
        crossing = up_leading_swap(x_min=3.5, x_max=5.5, step=0.02)
        assert crossing == pytest.approx(4.5, abs=0.3)

    def test_up_y00_coefficient_negative_at_low_field(self):
        # With the J=1 component oriented positive, the J=0 admixture of the
        # up state enters with a negative sign.
        up = _pseudo_spin(2.0, 30).up
        assert up[1] > 0  # J=1 anchor
        assert up[0] < 0  # J=0 admixture

    def test_down_state_j1_component_dominant_through_12(self):
        # The J=2 admixture grows but never overtakes J=1 on [0, 12]; the
        # sign anchor used for continuity therefore stays safe.
        for x in np.arange(0.0, 12.01, 0.5):
            down = _pseudo_spin(float(x), 30).down
            assert np.argmax(np.abs(down)) == 0

    def test_coefficients_continuous_across_swap(self):
        # No sign jump when the up state's leading component changes.
        xs = np.arange(4.3, 4.8, 0.05)
        b0 = np.array([_pseudo_spin(float(x), 20).up[0] for x in xs])
        assert np.all(np.abs(np.diff(b0)) < 0.05)


class TestPlusMinusMDegeneracy:
    def test_down_partner_moments_match(self):
        # Building |down> in the m=-1 block gives the same energies and c0,
        # and the same transition moment magnitude.  The m = -1 elements come
        # from quadrature, a route independent of the library's recursions.
        from pendular.rotor import _stark_eigh

        x, j_max = 5.0, 20
        m = moments(x, j_max)
        energies, vecs = _stark_eigh(x, -1, j_max)
        down = vecs[:, 0]
        if down[0] < 0:  # the J = 1 component
            down = -down
        cos_m1 = quad_operator_matrix("cos_theta", -1, -1, j_max)
        sin_cos = quad_operator_matrix("sin_theta_cos_phi", -1, 0, j_max)
        assert np.abs(cos_m1.imag).max() <= 1e-12 and np.abs(sin_cos.imag).max() <= 1e-12
        c0_minus = down @ cos_m1.real @ down
        cx_minus = down @ sin_cos.real @ _pseudo_spin(x, j_max).up
        assert energies[0] == pytest.approx(m.e0, abs=1e-12)
        assert c0_minus == pytest.approx(m.c0, abs=1e-12)
        assert abs(cx_minus) == pytest.approx(m.cx, abs=1e-12)


class TestInterpolatedRoot:
    def test_simple_root(self):
        xs = np.linspace(0, 2, 21)
        ys = xs**2 - 1.0
        assert interpolated_root(xs, ys) == pytest.approx(1.0, abs=1e-6)

    def test_no_sign_change_raises(self):
        xs = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            interpolated_root(xs, xs + 1.0)


class TestKernelMatchesPublicRoute:
    """The cached kernel reproduces scipy's tridiagonal solve and the public operator matrices bit for bit."""

    def test_moment_fields_equal(self):
        fields = ("e0", "e1", "c0", "c1", "cx")
        mismatches = []
        for x in STRIDED_GRID:
            m = moments(float(x))
            ref = public_route_elements(float(x))
            mismatches += [(x, f) for f in fields if getattr(m, f) != ref[f]]
        assert mismatches == []

    def test_pseudo_spin_operators_equal(self):
        mismatches = []
        for x in STRIDED_GRID[::3]:
            ref = public_route_elements(float(x))
            c0, c1, cx, k = ref["c0"], ref["c1"], ref["cx"], ref["k_du"]
            expected = (
                np.array([[c0, 0.0], [0.0, c1]]),
                np.array([[0.0, cx], [cx, 0.0]]),
                np.array([[0.0, 1.0j * k], [-1.0j * k, 0.0]]),
            )
            got = pseudo_spin_operators(float(x))
            mismatches += [(x, i) for i in range(3) if not np.array_equal(got[i], expected[i])]
        assert mismatches == []

    @pytest.mark.parametrize(
        "kind, m_bra, m_ket",
        [("cos_theta", 1, 1), ("cos_theta", 0, 0), ("sin_theta_cos_phi", 1, 0)],
    )
    def test_cached_operator_is_read_only_and_shared(self, kind, m_bra, m_ket):
        moments(3.0)
        op = _operator(kind, m_bra, m_ket, 30)
        assert op is _operator(kind, m_bra, m_ket, 30)
        with pytest.raises(ValueError):
            op[0, 0] = 1.0

    @pytest.mark.parametrize("m", [0, 1])
    def test_cached_tridiagonal_constants_are_read_only(self, m):
        # The Stark block J**2 - x*cos(theta) is built from these two cached matrices.
        for arr in (_j_squared(m, 30), _operator("cos_theta", m, m, 30)):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


class TestOrientationBeyondTwelve:
    def test_cx_keeps_its_sign_across_up_anchor_zero(self):
        # The up state's J = 1 component passes through zero near x = 14.55;
        # cx must not flip there.
        a, b = moments(14.5), moments(14.6)
        assert a.cx > 0 and b.cx > 0
        assert abs(a.cx - b.cx) < 1e-3

    def test_up_coefficients_continuous_across_anchor_zero(self):
        xs = np.round(np.arange(14.3, 14.81, 0.05), 12)
        ups = np.array([_pseudo_spin(float(x), 30).up for x in xs])
        for j in (0, 1, 2):
            col = ups[:, j]
            assert np.all(np.abs(np.diff(col)) < 0.02)

    def test_zero_field_keeps_j1_anchor(self):
        ps = _pseudo_spin(0.0, 30)
        assert ps.down[0] == 1.0
        assert ps.up[1] == 1.0
        assert moments(0.0).cx == 0.0


class TestTruncationGuard:
    @pytest.mark.parametrize("x, j_max", [(1.0, 1), (12.0, 10), (0.0, 1)])
    def test_small_basis_rejected(self, x, j_max):
        with pytest.raises(TruncationError) as exc:
            moments(x, j_max=j_max)
        message = str(exc.value)
        assert f"x={x}" in message and "m=" in message and f"j_max={j_max}" in message

    def test_guard_is_a_value_error(self):
        assert issubclass(TruncationError, ValueError)

    @pytest.mark.parametrize("x, j_max", [(12.0, 20), (100.0, 30), (400.0, 30)])
    def test_adequate_basis_accepted(self, x, j_max):
        moments(x, j_max=j_max)

    def test_default_basis_edge(self):
        # Bisection on TruncationError puts the edge of the default j_max = 30 basis at
        # x = 802.2824924715769 (accepted; the next float is rejected); X_MAX stays below it.
        moments(802.28)
        with pytest.raises(TruncationError, match="j_max=30"):
            moments(802.29)
        assert X_MAX < 802.28

    def test_grid_scan_rejected(self):
        with pytest.raises(TruncationError):
            moment_curves([0.0, 6.0, 12.0], j_max=10)

    def test_stark_map_rejects_an_unconverged_level(self):
        # Level 30 of the m = 0 block at x = 12 has a last-basis amplitude near 1 at j_max = 30.
        with pytest.raises(TruncationError, match="x=12.0, m=0, j_max=30"):
            stark_map([12.0], m_values=(0,), n_states=31)


class TestRejectedFields:
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative(self, x):
        with pytest.raises(ValueError, match="finite and non-negative"):
            moments(x)
        with pytest.raises(ValueError):
            _pseudo_spin(x, 30)
        with pytest.raises(ValueError):
            pseudo_spin_operators(x)

    def test_grid_with_nan(self):
        with pytest.raises(ValueError):
            moment_curves([1.0, math.nan])


#: Accepted domain of the property tests: up to just below the tail-test edge of the default
#: basis (x about 802.28).  Below about 1e-7 the gap 3x^2/20 falls under the resolution of
#: energies near 2 and e0 == e1 in floating point.
X_MAX = 802.0
FIELDS = st.floats(min_value=1e-6, max_value=X_MAX, allow_nan=False)


class TestMomentProperties:
    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(min_value=0.0, max_value=X_MAX, allow_nan=False))
    def test_moments_bounded(self, x):
        m = moments(x)
        assert abs(m.c0) <= 1 and abs(m.c1) <= 1 and abs(m.cx) <= 1

    @settings(max_examples=60, deadline=None)
    @given(x=FIELDS)
    def test_levels_ordered(self, x):
        m = moments(x)
        assert m.e0 < m.e1

    @settings(max_examples=60, deadline=None)
    @given(x=FIELDS)
    def test_cx_positive_and_continuous(self, x):
        a, b = moments(x), moments(x + 0.01)
        assert a.cx > 0 and b.cx > 0
        # |dcx/dx| <= 0.11 on (0, X_MAX]; a sign flip would jump by ~2 cx.
        assert abs(b.cx - a.cx) <= 2e-3

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(min_value=0.0, max_value=X_MAX, allow_nan=False))
    def test_basis_converged(self, x):
        a, b = moments(x, j_max=30), moments(x, j_max=60)
        for field in ("e0", "e1", "c0", "c1", "cx"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-10)


class TestUniformGrid:
    def test_points_are_the_decimal_values(self):
        # Rounding removes the drift of np.arange (its point 35 is not 0.35).
        xs = uniform_grid(0.0, 12.0, 0.01)
        assert xs.tolist() == [i / 100 for i in range(1201)]
        assert uniform_grid(2.5, 2.5, 0.1).tolist() == [2.5]

    @pytest.mark.parametrize(
        "start, stop, step",
        [
            (0.0, 1.0, 0.0),
            (0.0, 1.0, -0.1),
            (1.0, 0.0, 0.1),
            (0.0, math.nan, 0.1),
            (0.0, 1.0, math.inf),
            (-math.inf, 1.0, 0.1),
        ],
    )
    def test_rejects_bad_axis(self, start, stop, step):
        with pytest.raises(ValueError) as exc:
            uniform_grid(start, stop, step)
        assert f"start={start}, stop={stop}, step={step}" in str(exc.value)

    @pytest.mark.parametrize(
        "start, stop, step",
        [
            (1.0, 1e300, 1e299),
            (1e308, 1.7e308, 1e307),
            (0.0, 1e297, 1e296),
            (0.0, 1e-12, 1e-13),
            (-1e308, 1e308, 1e308),
        ],
        ids=["overflow-after-first", "overflow-all", "overflow-near-the-limit", "step-below-rounding", "span-overflow"],
    )
    def test_rejects_points_that_round_to_inf_or_repeat(self, start, stop, step):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise here
            with pytest.raises(ValueError, match=re.escape(f"uniform grid {start}:{stop}:{step}: ")):
                uniform_grid(start, stop, step)
