import importlib

import numpy as np
import pytest

from pendular.fits import (
    REFERENCE_GAP_COEFFS,
    REFERENCE_MOMENT_PARAMS,
    FitError,
    comparison_table,
    double_sigmoid,
    fit_gap,
    fit_moment,
    fit_samples,
    gap_polynomial,
    reference_curve,
)
from pendular.moments import c1_zero_crossing, moment_curves

from oracles import full_double_sigmoid_fit, unbounded_double_sigmoid_fit

#: The module itself; the package attribute ``pendular.moments`` is the function.
moments_module = importlib.import_module("pendular.moments")


class TestFitGap:
    def test_recovers_exact_polynomial(self):
        xs = np.linspace(0, 12, 40)
        fit = fit_gap(xs, xs + xs**2)
        assert np.abs(np.array(fit.coefficients) - [1, 1, 0, 0, 0]).max() <= 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_model_vanishes_at_origin(self):
        xs = np.linspace(0, 12, 30)
        fit = fit_gap(xs, 0.1 * xs + 0.02 * xs**3)
        assert fit.predict(0.0) == 0.0

    def test_too_few_samples_rejected(self):
        xs = np.linspace(0, 12, 10)
        with pytest.raises(ValueError):
            fit_gap(xs, xs)

    def test_degenerate_grid_reported(self):
        xs = np.full(25, 3.0)
        with pytest.raises(FitError):
            fit_gap(xs, xs**2)


class TestFitMoment:
    def test_round_trip_exact_model(self):
        params = (-0.2, -0.5, 0.9, 0.3, 2.5, 1.4, 3.0)
        xs = np.linspace(0, 12, 200)
        ys = double_sigmoid(xs, *params)
        fit = fit_moment(xs, ys, initial=np.array(params) * 1.15)
        assert np.abs(fit.predict(xs) - ys).max() <= 1e-8
        assert fit.converged

    def test_widths_stay_positive(self):
        xs = np.linspace(0, 12, 120)
        ys = double_sigmoid(xs, *REFERENCE_MOMENT_PARAMS["c0"])
        fit = fit_moment(xs, ys, initial=REFERENCE_MOMENT_PARAMS["c0"])
        assert fit.params[5] > 0 and fit.params[6] > 0

    def test_too_few_samples_rejected(self):
        xs = np.linspace(0, 12, 30)
        with pytest.raises(ValueError):
            fit_moment(xs, np.tanh(xs), initial=REFERENCE_MOMENT_PARAMS["c0"])

    def test_deterministic(self):
        xs = np.linspace(0, 12, 80)
        ys = np.tanh(xs / 4.0) - 0.2
        a = fit_moment(xs, ys, initial=REFERENCE_MOMENT_PARAMS["c0"])
        b = fit_moment(xs, ys, initial=REFERENCE_MOMENT_PARAMS["c0"])
        assert a.params == b.params and a.r_squared == b.r_squared


class TestAgainstComputedCurves:
    def test_gap_refit_quality(self, dense_curves):
        fit = fit_gap(dense_curves["x"], dense_curves["delta_e"])
        assert fit.r_squared >= 0.9999

    @pytest.mark.parametrize("quantity", ["c0", "c1", "cx"])
    def test_moment_refit_quality(self, quantity, dense_curves):
        fit = fit_moment(
            dense_curves["x"], dense_curves[quantity], initial=REFERENCE_MOMENT_PARAMS[quantity]
        )
        assert fit.converged
        assert fit.r_squared >= 0.9999

    def test_reference_gap_curve_close_to_computed(self, dense_curves):
        ref = gap_polynomial(dense_curves["x"], REFERENCE_GAP_COEFFS)
        assert np.abs(ref - dense_curves["delta_e"]).max() <= 0.05

    def test_gap_refit_reproduces_reference_to_printed_digits(self):
        # On a step-0.1 grid the refit lands on the reference coefficients to
        # all their printed digits; the quintic is not a perfect model, so
        # denser grids shift the optimum at the 1e-4 level.  Strong evidence
        # that the computed curve is the one the reference was fitted on
        # (and that the reference grid step was 0.1).
        from pendular.fits import fit_samples

        xs, ys = fit_samples("gap", x_max=12.0, step=0.1)
        fit = fit_gap(xs, ys)
        assert np.allclose(fit.coefficients, REFERENCE_GAP_COEFFS, atol=1e-5)

    @pytest.mark.parametrize("quantity", ["c0", "c1", "cx"])
    def test_reference_moment_curves_close_to_computed(self, quantity, dense_curves):
        ref = reference_curve(quantity, dense_curves["x"])
        assert np.abs(ref - dense_curves[quantity]).max() <= 0.02

    def test_refit_beats_reference(self, dense_curves):
        # The refit may not be worse than the reference parameters on our own
        # data.  Guaranteed in the least-squares norm because the solver
        # starts from the reference shape with its best amplitudes, which fit
        # no worse than the reference amplitudes; the sup-norm can differ at
        # the 1e-5 level, which no least-squares fit can dominate pointwise.
        for quantity in ("c0", "c1", "cx"):
            data = dense_curves[quantity]
            ref_rms = float(
                np.sqrt(np.mean((reference_curve(quantity, dense_curves["x"]) - data) ** 2))
            )
            fit = fit_moment(dense_curves["x"], data, initial=REFERENCE_MOMENT_PARAMS[quantity])
            fit_rms = float(np.sqrt(np.mean((fit.predict(dense_curves["x"]) - data) ** 2)))
            assert fit_rms <= ref_rms

    def test_alternate_cx_reading_is_clearly_worse(self, dense_curves):
        primary = np.abs(reference_curve("cx", dense_curves["x"]) - dense_curves["cx"]).max()
        alt = np.abs(
            reference_curve("cx", dense_curves["x"], alternate=True) - dense_curves["cx"]
        ).max()
        assert alt > 10 * primary

    def test_alternate_reading_only_for_cx(self):
        with pytest.raises(ValueError):
            reference_curve("c0", np.linspace(0, 12, 5), alternate=True)


class TestBoundedCentres:
    """Sigmoid centres are bounded to the sample window widened by its width on each side."""

    @pytest.mark.parametrize("quantity", ["c0", "cx"])
    def test_interior_optimum_matches_unbounded_fit(self, quantity, dense_curves):
        xs, ys = dense_curves["x"], dense_curves[quantity]
        initial = REFERENCE_MOMENT_PARAMS[quantity]
        fit = fit_moment(xs, ys, initial=initial)
        free = unbounded_double_sigmoid_fit(xs, ys, initial)
        assert np.abs(fit.predict(xs) - double_sigmoid(xs, *free)).max() <= 1e-6

    def test_c1_refit_converges_to_finite_parameters(self, dense_curves):
        xs = dense_curves["x"]
        fit = fit_moment(xs, dense_curves["c1"], initial=REFERENCE_MOMENT_PARAMS["c1"])
        assert fit.converged
        span = xs.max() - xs.min()
        for centre in fit.params[3:5]:
            assert xs.min() - span <= centre <= xs.max() + span
        assert max(abs(p) for p in fit.params) <= 100
        assert fit.r_squared >= 0.99998

    def test_reference_start_outside_short_window_is_clipped(self):
        # The c0 reference x2 = -1.26 lies outside [-1, 2], the window of 0:1.
        table, fit = comparison_table("c0", x_max=1.0, step=0.01)
        assert len(table.rows) == 101
        assert -1.0 <= fit.params[4] <= 2.0


#: Short windows where the separable fit ends above the 7-parameter oracle's cost, library against
#: oracle: c0 0:1 6.7e-11 / 2.3e-15, c0 0:2 2.6e-13 / 2.0e-13, c0 0:3 5.3e-11 / 1.0e-11,
#: cx 0:1 4.1e-13 / 5.7e-14.
SHORT_WINDOW_MISSES = {(1.0, "c0"), (2.0, "c0"), (3.0, "c0"), (1.0, "cx")}
SHORT_WINDOW_FOUND = pytest.mark.xfail(
    strict=True, reason="fit_moment stops early on short flat windows (CHANGES.md FOUND, ROADMAP item 9)"
)


class TestSeparableFit:
    """trf searches the shape (x1, x2, k1, k2); the amplitudes are solved exactly per shape."""

    @pytest.mark.parametrize(
        "x_max, step, quantity",
        [pytest.param(12.0, step, q, id=f"{step}-{q}") for step in (0.01, 0.1) for q in ("c0", "c1", "cx")]
        + [
            pytest.param(
                x_max,
                0.01,
                q,
                id=f"0:{x_max:g}-{q}",
                marks=[SHORT_WINDOW_FOUND] if (x_max, q) in SHORT_WINDOW_MISSES else [],
            )
            for x_max in (1.0, 2.0, 3.0)
            for q in ("c0", "c1", "cx")
        ],
    )
    def test_matches_full_seven_parameter_fit(self, x_max, step, quantity):
        xs, ys = fit_samples(quantity, x_max=x_max, step=step)
        initial = REFERENCE_MOMENT_PARAMS[quantity]
        fit = fit_moment(xs, ys, initial=initial)
        full = full_double_sigmoid_fit(xs, ys, initial)

        def cost(params):
            resid = double_sigmoid(xs, *params) - ys
            return 0.5 * float(resid @ resid)

        assert cost(fit.params) <= cost(full) * (1 + 1e-6)
        if x_max == 12.0:
            # No curve check on the short windows: there the oracle itself stops early (cx on 0:2).
            assert np.abs(fit.predict(xs) - double_sigmoid(xs, *full)).max() <= 1e-6

    def test_c1_fit_makes_few_residual_calls(self, dense_curves, monkeypatch):
        # The 7-parameter fit made about 2650 calls, most of them for
        # finite-difference Jacobians along the a0 ~ -a2 valley.
        import scipy.optimize

        calls = []
        solve = scipy.optimize.least_squares

        def counting(fun, *args, **kwargs):
            def counted(p):
                calls.append(1)
                return fun(p)

            return solve(counted, *args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "least_squares", counting)
        fit = fit_moment(dense_curves["x"], dense_curves["c1"], initial=REFERENCE_MOMENT_PARAMS["c1"])
        assert fit.converged
        assert 0 < len(calls) < 200

    def test_initial_amplitudes_are_not_used(self, dense_curves):
        xs, ys = dense_curves["x"], dense_curves["c1"]
        initial = REFERENCE_MOMENT_PARAMS["c1"]
        scrambled = (40.0, -3.0, 0.0) + initial[3:]
        assert fit_moment(xs, ys, initial=scrambled).params == fit_moment(xs, ys, initial=initial).params

    @pytest.mark.parametrize("initial", [(0.5,) * 6, (0.5,) * 8, ((0.5,) * 7,) * 2])
    def test_initial_of_wrong_length_rejected(self, initial):
        xs = np.linspace(0, 12, 80)
        with pytest.raises(ValueError, match="7 double-sigmoid parameters"):
            fit_moment(xs, np.tanh(xs), initial=initial)


class TestFitSamples:
    def test_grid_solved_once_and_read_only(self):
        xs, c0 = fit_samples("c0", x_max=3.0, step=0.01)
        xs_again, c1 = fit_samples("c1", x_max=3.0, step=0.01)
        assert xs_again is xs
        assert not xs.flags.writeable and not c0.flags.writeable and not c1.flags.writeable

    def test_fits_and_crossing_share_one_grid_solve(self, monkeypatch):
        # The fit tables and the c1 crossing read the same 0:12:0.01 grid: one
        # solve of its 1201 points, where a second route solved 1200 more.
        calls = []
        solve = moments_module.moments

        def counted(*args):
            calls.append(1)
            return solve(*args)

        moments_module._grid_curves.cache_clear()
        monkeypatch.setattr(moments_module, "moments", counted)
        for quantity in ("gap", "c0", "c1", "cx"):
            comparison_table(quantity)
        assert c1_zero_crossing() == 4.901827850378384
        assert len(calls) == 1201
        for x_min in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="x_min="):
                c1_zero_crossing(x_min=x_min)

    def test_equals_fresh_moment_curves(self):
        grid = np.round(np.arange(0.0, 3.0 + 0.01 / 2, 0.01), 12)
        fresh = moment_curves(grid)
        for quantity, key in (("gap", "delta_e"), ("c0", "c0"), ("c1", "c1"), ("cx", "cx")):
            xs, ys = fit_samples(quantity, x_max=3.0, step=0.01)
            assert np.array_equal(xs, fresh["x"]) and np.array_equal(ys, fresh[key])


class TestComparisonTable:
    def test_gap_table_columns(self):
        table, fit = comparison_table("gap", x_max=4.0, step=0.1)
        assert table.columns == ("x", "computed", "reference", "refit")
        assert len(table.rows) == 41
        assert fit.r_squared <= 1.0

    def test_cx_table_carries_both_readings(self):
        table, _ = comparison_table("cx", x_max=6.0, step=0.1)
        assert table.columns == ("x", "computed", "reference", "reference_alt", "refit")

    def test_rows_are_float_tuples_of_the_curves(self):
        table, fit = comparison_table("cx", x_max=6.0, step=0.1)
        xs, ys = fit_samples("cx", x_max=6.0, step=0.1)
        ref, ref_alt = reference_curve("cx", xs), reference_curve("cx", xs, alternate=True)
        expected = [tuple(map(float, row)) for row in zip(xs, ys, ref, ref_alt, fit.predict(xs))]
        assert table.rows == expected
        assert all(type(row) is tuple and type(row[0]) is float for row in table.rows)

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError):
            comparison_table("c2")

    @pytest.mark.parametrize("step", [0.0, -0.01, float("nan")])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError, match="step="):
            comparison_table("gap", step=step)
        with pytest.raises(ValueError, match="step="):
            fit_samples("c0", step=step)
