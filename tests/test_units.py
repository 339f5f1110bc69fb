import math

import pytest
from scipy import constants

from pendular.units import (
    DIPOLE_COUPLING_CM1,
    STARK_RATIO,
    MoleculePreset,
    PresetError,
    find_preset,
    load_presets,
    omega_cm1,
    omega_over_b,
    reduced_field,
)


class TestConversionConstants:
    def test_stark_ratio_from_unit_definitions(self):
        # Independent arithmetic: 1 D = 3.33564e-30 C m, 1 kV/cm = 1e5 V/m,
        # 1 cm^-1 of rotational constant = 1.98645e-23 J.
        independent = 3.33564e-30 * 1e5 / 1.986445857e-23
        assert STARK_RATIO == pytest.approx(independent, rel=1e-5)
        assert STARK_RATIO == pytest.approx(1.6793e-2, rel=1e-4)

    def test_dipole_coupling_from_unit_definitions(self):
        # mu^2/(4 pi eps0 r^3) at 1 D and 1 nm is 1.0000e-22 J.
        independent = 1.0000e-22 / 1.986445857e-23
        assert DIPOLE_COUPLING_CM1 == pytest.approx(independent, rel=1e-4)
        assert DIPOLE_COUPLING_CM1 == pytest.approx(5.034, rel=1e-3)

    def test_literals_equal_scipy_constants(self):
        # The module writes c, h and eps0 as literals; derived from scipy's values the
        # two constants come out bit for bit the same.
        debye, j_per_cm1 = 1e-21 / constants.c, constants.h * constants.c * 100.0
        assert STARK_RATIO == debye * 1e5 / j_per_cm1
        assert DIPOLE_COUPLING_CM1 == debye**2 / (4 * math.pi * constants.epsilon_0 * 1e-27) / j_per_cm1


class TestConversions:
    @pytest.fixture()
    def unit_molecule(self):
        return MoleculePreset(name="unit", mu_debye=1.0, b_cm1=1.0)

    def test_reduced_field_at_unit_values(self, unit_molecule):
        assert reduced_field(unit_molecule, 1.0) == pytest.approx(STARK_RATIO, rel=1e-15)

    def test_zero_field(self, unit_molecule):
        assert reduced_field(unit_molecule, 0.0) == 0.0

    def test_round_trip(self):
        preset = MoleculePreset(name="m", mu_debye=4.2, b_cm1=0.21)
        for eps in (0.1, 1.0, 13.5, 250.0):
            x = reduced_field(preset, eps)
            assert x * preset.b_cm1 / (STARK_RATIO * preset.mu_debye) == pytest.approx(eps, rel=1e-12)

    def test_cubic_law(self, unit_molecule):
        assert omega_over_b(unit_molecule, 2.0) == pytest.approx(
            omega_over_b(unit_molecule, 1.0) / 8.0, rel=1e-12
        )

    def test_rejects_nonpositive_distance(self, unit_molecule):
        for r in (0.0, -1.0, math.nan, math.inf, 1e-110, 1e-105, 1e200):
            with pytest.raises(ValueError, match="separation"):
                omega_cm1(unit_molecule, r)

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_field(self, unit_molecule, eps):
        with pytest.raises(ValueError, match="field strength"):
            reduced_field(unit_molecule, eps)

    def test_invalid_preset_values(self):
        for mu, b in ((-1.0, 0.1), (1.0, 0.0), (math.nan, 0.1), (1.0, math.inf), (math.inf, 0.1)):
            with pytest.raises(PresetError):
                MoleculePreset(name="bad", mu_debye=mu, b_cm1=b)


class TestSrOAnchor:
    def test_reduced_field_at_13_5_kv_cm(self):
        sro = load_presets().get("SrO")
        x = reduced_field(sro, 13.5)
        assert x == pytest.approx(6.1, rel=0.02)

    def test_omega_over_b_at_10_nm_is_order_one(self):
        sro = load_presets().get("SrO")
        assert 0.1 < omega_over_b(sro, 10.0) < 10.0

    def test_optical_lattice_couplings_are_weak(self):
        sro = load_presets().get("SrO")
        assert 1e-6 <= omega_over_b(sro, 1000.0) <= 1e-4
        assert 1e-6 <= omega_over_b(sro, 300.0) <= 1e-4


class TestRegistry:
    def test_default_registry_has_sro(self):
        reg = load_presets()
        sro = reg.get("SrO")
        assert sro.mu_debye > 0 and sro.b_cm1 > 0

    def test_names_sorted(self):
        presets = load_presets()
        assert list(presets) == sorted(presets)
        assert all(preset.name == name for name, preset in presets.items())

    def test_unknown_name_lists_available(self):
        with pytest.raises(PresetError, match="available: .*SrO"):
            find_preset(load_presets(), "XeF")

    def test_duplicate_sections_rejected(self, tmp_path):
        bad = tmp_path / "dup.ini"
        bad.write_text("[SrO]\nmu_debye = 8.9\nb_cm1 = 0.33\n[SrO]\nmu_debye = 1\nb_cm1 = 1\n")
        with pytest.raises(PresetError, match="duplicate"):
            load_presets(bad)

    def test_missing_field_rejected(self, tmp_path):
        bad = tmp_path / "missing.ini"
        bad.write_text("[KCl]\nmu_debye = 10.27\n")
        with pytest.raises(PresetError, match="b_cm1"):
            load_presets(bad)

    def test_non_numeric_field_rejected(self, tmp_path):
        bad = tmp_path / "nan.ini"
        bad.write_text("[KCl]\nmu_debye = big\nb_cm1 = 0.1\n")
        with pytest.raises(PresetError, match="mu_debye"):
            load_presets(bad)

    def test_non_finite_field_rejected(self, tmp_path):
        bad = tmp_path / "inf.ini"
        bad.write_text("[KCl]\nmu_debye = nan\nb_cm1 = inf\n")
        with pytest.raises(PresetError, match="KCl"):
            load_presets(bad)

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "broken.ini"
        bad.write_text("mu_debye = 8.9\n")
        with pytest.raises(PresetError):
            load_presets(bad)

    def test_unreadable_file_rejected(self, tmp_path):
        latin1 = tmp_path / "latin1.ini"
        latin1.write_bytes("[KCl]\n; M\xfcller\nmu_debye = 10.27\nb_cm1 = 0.1286\n".encode("latin-1"))
        for path in (tmp_path / "missing.ini", latin1):
            with pytest.raises(PresetError, match=path.name):
                load_presets(path)

    def test_custom_file_loads(self, tmp_path):
        good = tmp_path / "good.ini"
        good.write_text("[KCl]\nmu_debye = 10.27\nb_cm1 = 0.1286\n")
        reg = load_presets(good)
        assert reg.get("KCl").mu_debye == pytest.approx(10.27)

    def test_iteration_order(self, tmp_path):
        good = tmp_path / "two.ini"
        good.write_text("[B]\nmu_debye=1\nb_cm1=1\n[A]\nmu_debye=2\nb_cm1=2\n")
        names = [p.name for p in load_presets(good).values()]
        assert names == ["A", "B"]
