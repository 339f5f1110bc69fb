"""Laboratory units to reduced variables, plus the molecule presets.

The two conversion constants are derived here, once, from unit definitions
(1 D = 1e-21/c C m; field in kV/cm = 1e5 V/m; rotational constants quoted
as wavenumbers, i.e. energies of h*c*100*B joules per cm^-1; the
dipole-dipole energy is mu^2/(4 pi eps0 r^3) with r in nm; c and h are the
exact SI values and eps0 is CODATA 2022's, all written as literals):

    x      = STARK_RATIO  * mu[D] * eps[kV/cm] / B[cm^-1]
    Omega  = DIPOLE_COUPLING_CM1 * mu[D]^2 / r[nm]^3      (in cm^-1)

Numerically STARK_RATIO ~ 1.6792e-2 and DIPOLE_COUPLING_CM1 ~ 5.0341; both
are pinned by regression tests against an independent re-derivation.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

_C = 299792458.0  # m/s, exact
_H = 6.62607015e-34  # J s, exact
_EPSILON_0 = 8.8541878188e-12  # F/m, CODATA 2022

_DEBYE_C_M = 1e-21 / _C
_J_PER_CM1 = _H * _C * 100.0

#: Reduced field per (debye * kV/cm) per cm^-1 of rotational constant.
STARK_RATIO = _DEBYE_C_M * 1e5 / _J_PER_CM1

#: Dipole-dipole scale in cm^-1 for mu = 1 D at r = 1 nm.
DIPOLE_COUPLING_CM1 = _DEBYE_C_M**2 / (4 * math.pi * _EPSILON_0 * 1e-27) / _J_PER_CM1


class PresetError(ValueError):
    """Malformed, duplicated, or missing molecule preset data."""


@dataclass(frozen=True)
class MoleculePreset:
    """Permanent dipole moment (debye) and rotational constant (cm^-1)."""

    name: str
    mu_debye: float
    b_cm1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu_debye) and self.mu_debye > 0):
            raise PresetError(f"{self.name}: dipole moment must be positive and finite, got {self.mu_debye}")
        if not (math.isfinite(self.b_cm1) and self.b_cm1 > 0):
            raise PresetError(f"{self.name}: rotational constant must be positive and finite, got {self.b_cm1}")


def reduced_field(preset: MoleculePreset, epsilon_kv_cm: float) -> float:
    """x = mu * eps / B for a lab field strength in kV/cm."""
    if not (math.isfinite(epsilon_kv_cm) and epsilon_kv_cm >= 0):
        raise ValueError(f"field strength must be finite and non-negative, got {epsilon_kv_cm}")
    return STARK_RATIO * preset.mu_debye * epsilon_kv_cm / preset.b_cm1


def omega_cm1(preset: MoleculePreset, r_nm: float) -> float:
    """Dipole-dipole scale mu^2/r^3 in cm^-1 at separation r (nm)."""
    try:
        scale = DIPOLE_COUPLING_CM1 * preset.mu_debye**2 / r_nm**3
    except ArithmeticError:  # r^3 overflows, or underflows to zero
        scale = math.nan
    if not 0 < scale < math.inf:
        raise ValueError(f"separation must be positive with a finite nonzero mu^2/r^3, got {r_nm}")
    return scale


def omega_over_b(preset: MoleculePreset, r_nm: float) -> float:
    """Reduced dipole-dipole coupling Omega/B at separation r (nm)."""
    return omega_cm1(preset, r_nm) / preset.b_cm1


def find_preset(presets: dict[str, MoleculePreset], name: str) -> MoleculePreset:
    """The preset called ``name``; a :class:`PresetError` lists the available names."""
    try:
        return presets[name]
    except KeyError:
        raise PresetError(f"unknown molecule {name!r}; available: {', '.join(sorted(presets))}") from None


def load_presets(path: str | Path | None = None) -> dict[str, MoleculePreset]:
    """Load molecule presets from an INI file (one section per molecule), keyed in name order.

    Each section needs ``mu_debye`` and ``b_cm1``.  Duplicate names and
    malformed entries raise :class:`PresetError` with file/line context.
    """
    if path is None:
        ref = resources.files("pendular") / "data" / "presets.ini"
        text, source = ref.read_text(encoding="utf-8"), str(ref)
    else:
        source = str(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise PresetError(f"{source}: cannot read presets file: {exc}") from exc
    parser = configparser.ConfigParser(strict=True)
    try:
        parser.read_string(text, source=source)
    except configparser.DuplicateSectionError as exc:
        raise PresetError(f"{source}: duplicate molecule {exc.section!r} (line {exc.lineno})") from exc
    except configparser.Error as exc:
        raise PresetError(f"{source}: {exc}") from exc
    presets: dict[str, MoleculePreset] = {}
    for name in parser.sections():
        section = parser[name]
        values = {}
        for key in ("mu_debye", "b_cm1"):
            if key not in section:
                raise PresetError(f"{source}: molecule {name!r} is missing field {key!r}")
            try:
                values[key] = float(section[key])
            except ValueError as exc:
                raise PresetError(
                    f"{source}: molecule {name!r} field {key!r} is not a number: {section[key]!r}"
                ) from exc
        presets[name] = MoleculePreset(name=name, **values)
    return {name: presets[name] for name in sorted(presets)}
