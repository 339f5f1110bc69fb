"""Polar molecules in pendular states as tunable spin-1/2 chains.

Single-molecule Stark eigenstates encode a pseudo-spin; dipole-dipole
coupling between molecules realizes Heisenberg XYZ/XXZ/XY models whose
constants, fits, and ground-state phase diagrams this package computes.
"""

__version__ = "0.1.0"

from .chain import (
    ChainResult,
    ChainSpec,
    Phase,
    classify_phase,
    ground_state,
    molecular_chain,
    phase_diagram,
)
from .fits import PolyFit, SigmoidFit, fit_gap, fit_moment
from .moments import MomentSet, moments, stark_map
from .pair import (
    MAGIC_ANGLE,
    CouplingGeometry,
    HeisenbergConstants,
    heisenberg_constants,
    pair_hamiltonian,
    vdd_from_first_principles,
    xyz_matrix,
)
from .rotor import operator_matrix
from .units import MoleculePreset, load_presets, omega_over_b, reduced_field

__all__ = [
    "ChainResult",
    "ChainSpec",
    "CouplingGeometry",
    "HeisenbergConstants",
    "MAGIC_ANGLE",
    "MomentSet",
    "MoleculePreset",
    "Phase",
    "PolyFit",
    "SigmoidFit",
    "classify_phase",
    "fit_gap",
    "fit_moment",
    "ground_state",
    "heisenberg_constants",
    "load_presets",
    "moments",
    "molecular_chain",
    "omega_over_b",
    "operator_matrix",
    "pair_hamiltonian",
    "phase_diagram",
    "reduced_field",
    "stark_map",
    "vdd_from_first_principles",
    "xyz_matrix",
]
