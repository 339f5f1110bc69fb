import pendular


def test_every_exported_name_resolves():
    missing = [name for name in pendular.__all__ if not hasattr(pendular, name)]
    assert missing == []


def test_public_surface_is_pinned():
    # A name leaves or joins the package surface only with this list.
    assert sorted(pendular.__all__) == [
        "ChainResult",
        "ChainSpec",
        "CouplingGeometry",
        "HeisenbergConstants",
        "MAGIC_ANGLE",
        "MoleculePreset",
        "MomentSet",
        "Phase",
        "PolyFit",
        "SigmoidFit",
        "classify_phase",
        "fit_gap",
        "fit_moment",
        "ground_state",
        "heisenberg_constants",
        "load_presets",
        "molecular_chain",
        "moments",
        "omega_over_b",
        "operator_matrix",
        "pair_hamiltonian",
        "phase_diagram",
        "reduced_field",
        "stark_map",
        "vdd_from_first_principles",
        "xyz_matrix",
    ]
