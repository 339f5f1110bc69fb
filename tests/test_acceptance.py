"""Acceptance suite: one test per numbered criterion.

Each test prints a `criterion NN [PASS|FAIL]` line (visible with
`pytest tests/test_acceptance.py -v -s`) and then asserts, so the suite
fails exactly where a criterion does.
"""

import math

import numpy as np
import pytest

import pendular.chain as chain_module
from pendular.chain import (
    ChainSpec,
    Phase,
    classify_phase,
    ground_state,
    molecular_chain,
    polarization_onset_gamma,
)
from pendular.fits import (
    REFERENCE_GAP_COEFFS,
    REFERENCE_MOMENT_PARAMS,
    fit_gap,
    fit_moment,
    gap_polynomial,
    reference_curve,
)
from pendular.moments import interpolated_root, moments, stark_map
from pendular.pair import (
    MAGIC_ANGLE,
    CouplingGeometry,
    heisenberg_constants,
    pair_hamiltonian,
    vdd_from_first_principles,
    xyz_matrix,
)
from pendular.rotor import DEFAULT_J_MAX
from pendular.units import load_presets, reduced_field

from oracles import one_magnon_saturation_gamma, two_site_spectrum


def report(num: int, description: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


def test_criterion_01_field_free_limit():
    # The lowest 31 levels of the m = 0, 1 and 2 blocks, labelled j_tilde = J at x = 0.
    rows = stark_map([0.0], m_values=(0, 1, 2), n_states=DEFAULT_J_MAX + 1).rows
    js = np.array([row[2] for row in rows], dtype=float)
    energies = np.array([row[3] for row in rows])
    expected = js * (js + 1.0)
    worst_energy = float((np.abs(energies - expected) / np.maximum(1.0, np.abs(expected))).max())
    m0 = moments(0.0)
    worst_moment = max(abs(m0.c0), abs(m0.c1), abs(m0.cx))
    ok = worst_energy <= 1e-9 and worst_moment <= 1e-10
    report(
        1,
        "field-free energies J(J+1) and vanishing moments",
        ok,
        f"energy dev {worst_energy:.2e}, moment dev {worst_moment:.2e}",
    )
    assert ok


def test_criterion_02_perturbative_gap():
    worst = 0.0
    for x in (0.02, 0.05, 0.08, 0.1):
        gap = moments(x).delta_e
        worst = max(worst, abs(gap / (0.15 * x * x) - 1.0))
    ok = worst <= 0.02
    report(2, "small-field gap follows 0.15 x^2 within 2%", ok, f"worst rel dev {worst:.2e}")
    assert ok


def test_criterion_03_gap_range(dense_curves):
    peak = float(dense_curves["delta_e"].max())
    at = float(dense_curves["x"][np.argmax(dense_curves["delta_e"])])
    ok = abs(peak - 3.7) <= 0.1
    report(3, "max gap over [0,12] is 3.7 +- 0.1", ok, f"max {peak:.4f} at x={at:g}")
    assert ok


def test_criterion_04_c1_zero_crossing(dense_curves):
    root = interpolated_root(dense_curves["x"][1:], dense_curves["c1"][1:])
    ok = abs(root - 4.9) <= 0.2
    report(4, "c1 crosses zero at 4.9 +- 0.2", ok, f"crossing at x={root:.3f}")
    assert ok


def test_criterion_05_critical_ratio(dense_curves):
    cx = dense_curves["cx"][1:]
    ratio = -((dense_curves["c0"][1:] - dense_curves["c1"][1:]) ** 2) / (2 * cx**2)
    root = interpolated_root(dense_curves["x"][1:], ratio + 1.0)
    ok = abs(root - 6.1) <= 0.1
    report(5, "jz/j = -1 at x = 6.1 +- 0.1", ok, f"crossing at x={root:.3f}")
    assert ok


def test_criterion_06_exact_mapping_suite():
    # The two-qubit form is exact for arrays along or across the field
    # (alpha = 0, pi/2).  At a tilted alpha the first-principles interaction
    # also carries the single-molecule transition terms
    #     D = -3 sin(a) cos(a) (kron(T, C) + kron(C, T)),  T = cx sigma_x, C = diag(c0, c1),
    # for which the XYZ-plus-field form has no slot.  D is built here from the
    # moments alone, and the check asserts that the two-qubit form drops
    # exactly D and nothing else.
    xs = np.linspace(0.0, 12.0, 20)
    omegas = np.geomspace(1e-6, 1e-1, 20)
    alphas = np.linspace(0.0, math.pi / 2, 5)
    worst_recon = 0.0
    worst_on_axis = 0.0
    worst_on_axis_at = None
    worst_dropped = 0.0
    worst_dropped_at = None
    largest_term = 0.0
    largest_term_at = None
    for x in xs:
        mset = moments(float(x))
        base = np.diag([2 * mset.e0, mset.e0 + mset.e1, mset.e1 + mset.e0, 2 * mset.e1])
        t_op = mset.cx * np.array([[0.0, 1.0], [1.0, 0.0]])
        c_op = np.diag([mset.c0, mset.c1])
        tilt_terms = np.kron(t_op, c_op) + np.kron(c_op, t_op)
        for i, alpha in enumerate(alphas):
            on_axis = i in (0, len(alphas) - 1)
            dropped = -3.0 * math.sin(alpha) * math.cos(alpha) * tilt_terms
            v_first = vdd_from_first_principles(float(x), CouplingGeometry(omega=1.0, alpha=float(alpha)))
            for omega in omegas:
                geom = CouplingGeometry(omega=float(omega), alpha=float(alpha))
                h_pair = pair_hamiltonian(mset, geom)
                scale = max(1.0, float(np.abs(h_pair).max()))
                at = (float(x), float(omega), float(alpha))
                recon_dev = float(np.abs(xyz_matrix(heisenberg_constants(mset, geom)) - h_pair).max())
                worst_recon = max(worst_recon, recon_dev / scale)
                residual = h_pair - base - omega * v_first
                if on_axis:
                    on_axis_dev = float(np.abs(residual).max()) / scale
                    if on_axis_dev >= worst_on_axis:
                        worst_on_axis, worst_on_axis_at = on_axis_dev, at
                dropped_dev = float(np.abs(residual + omega * dropped).max()) / scale
                if dropped_dev >= worst_dropped:
                    worst_dropped, worst_dropped_at = dropped_dev, at
                term = float(omega * np.abs(dropped).max())
                if term > largest_term:
                    largest_term, largest_term_at = term, at
    recon_ok = worst_recon <= 1e-12
    on_axis_ok = worst_on_axis <= 1e-12
    dropped_ok = worst_dropped <= 1e-12
    report(
        6,
        "model reconstruction equals pair Hamiltonian on 2000-point grid",
        recon_ok,
        f"worst dev {worst_recon:.2e}",
    )
    report(
        6,
        "first-principles interaction equals two-qubit form at alpha = 0, pi/2",
        on_axis_ok,
        f"worst dev {worst_on_axis:.2e} at (x, omega, alpha)={worst_on_axis_at}",
    )
    report(
        6,
        "two-qubit form drops exactly the tilt terms -3 sin(a)cos(a)(TC + CT) Omega",
        dropped_ok,
        f"worst dev {worst_dropped:.2e} at (x, omega, alpha)={worst_dropped_at}; "
        f"largest dropped entry {largest_term:.2e} at (x, omega, alpha)={largest_term_at}",
    )
    assert recon_ok
    assert on_axis_ok
    assert dropped_ok


def test_criterion_07_magic_angle():
    worst = 0.0
    omega = 1e-3
    for x in (2.0, 5.0, 9.0):
        hc = heisenberg_constants(moments(x), CouplingGeometry(omega=omega, alpha=MAGIC_ANGLE))
        worst = max(worst, abs(hc.jz))
    ok = worst <= 1e-12 * omega
    report(7, "jz vanishes at the magic angle", ok, f"worst |jz| {worst:.2e} (omega {omega:g})")
    assert ok


def test_criterion_08_fit_reproduction(dense_curves):
    xs = dense_curves["x"]
    gap_fit = fit_gap(xs, dense_curves["delta_e"])
    r2 = {"gap": gap_fit.r_squared}
    for q in ("c0", "c1", "cx"):
        fit = fit_moment(xs, dense_curves[q], initial=REFERENCE_MOMENT_PARAMS[q])
        r2[q] = fit.r_squared
    ref_gap_dev = float(np.abs(gap_polynomial(xs, REFERENCE_GAP_COEFFS) - dense_curves["delta_e"]).max())
    ref_devs = {
        q: float(np.abs(reference_curve(q, xs) - dense_curves[q]).max()) for q in ("c0", "c1", "cx")
    }
    ok = (
        all(v >= 0.9999 for v in r2.values())
        and ref_gap_dev <= 0.05
        and all(v <= 0.02 for v in ref_devs.values())
    )
    detail = (
        "R2 " + ", ".join(f"{k}={v:.6f}" for k, v in r2.items())
        + f"; ref devs gap={ref_gap_dev:.3f}, "
        + ", ".join(f"{k}={v:.4f}" for k, v in ref_devs.items())
    )
    report(8, "refits reach R2 >= 0.9999 and reference curves stay close", ok, detail)
    assert ok


def test_criterion_09_chain_oracle():
    worst_two = 0.0
    for j, jz, gamma in ((1.0, -0.5, 0.3), (0.4, 1.1, 0.0), (0.0, 0.7, 2.0)):
        # At n = 2 the lowest and second levels of the three sectors are all four levels.
        free = ChainSpec(n=2, j=j, jz=jz, gamma=0.0)
        levels = []
        for k in range(3):
            s = chain_module._solve_sector(free, k, "dense")
            levels += [e - gamma * (2 * k - 2) for e in (s.lowest, s.second) if e is not None]
        eigs = np.sort(levels)
        worst_two = max(worst_two, float(np.abs(eigs - two_site_spectrum(j, jz, gamma)).max()))
    worst_big = 0.0
    for n in (8, 10):
        for j, jz, gamma in ((1.0, -0.4, 0.1), (0.6, 0.6, 0.0)):
            spec = ChainSpec(n=n, j=j, jz=jz, gamma=gamma)
            e_dense = ground_state(spec, method="dense").ground_energy
            e_iter = ground_state(spec, method="iterative").ground_energy
            worst_big = max(worst_big, abs(e_dense - e_iter))
    ok = worst_two <= 1e-12 and worst_big <= 1e-10
    report(
        9,
        "two-site spectrum analytic; dense and iterative solvers agree",
        ok,
        f"two-site dev {worst_two:.2e}, dense-vs-iterative {worst_big:.2e}",
    )
    assert ok


def test_criterion_10_weak_coupling_ferromagnet():
    min_ratio = math.inf
    min_overlap = 1.0
    all_fm = True
    for x in range(1, 13):
        mset = moments(float(x))
        for omega in (1e-6, 1e-5, 1e-4):
            spec = molecular_chain(mset, omega, n=10)
            result = ground_state(spec)
            phase = classify_phase(result)
            min_ratio = min(min_ratio, spec.gamma / spec.j)
            min_overlap = min(min_overlap, result.ground_overlap_polarized)
            all_fm = all_fm and (phase is Phase.FERROMAGNETIC)
    ok = min_ratio > 1e4 and all_fm and min_overlap >= 0.999
    report(
        10,
        "weak-coupling region is uniformly ferromagnetic with gamma/j > 1e4",
        ok,
        f"min gamma/j {min_ratio:.3g}, min overlap {min_overlap:.6f}, all FM {all_fm}",
    )
    assert ok


def test_criterion_11_unit_anchor():
    sro = load_presets().get("SrO")
    x = reduced_field(sro, 13.5)
    dev = abs(x / 6.1 - 1.0)
    ok = dev <= 0.02
    report(11, "SrO at 13.5 kV/cm maps to x = 6.1 +- 2%", ok, f"x = {x:.4f} ({dev:.2%} off)")
    assert ok


def test_criterion_12_saturation_line():
    worst = 0.0
    for jz_over_j in (-0.5, 0.0, 0.5):
        j = 1.0
        jz = jz_over_j * j
        oracle = one_magnon_saturation_gamma(j, jz)
        onset = polarization_onset_gamma(n=12, j=j, jz=jz)
        worst = max(worst, abs(onset / oracle - 1.0))
    ok = worst <= 0.2
    report(
        12,
        "polarization onset tracks the one-magnon line within 20% at n=12",
        ok,
        f"worst rel drift {worst:.2%}",
    )
    assert ok
