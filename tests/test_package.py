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


def test_basis_size_is_not_a_setting():
    # The tail test decides the basis; only the fixed-basis operator builder takes a j_max.
    import inspect

    from pendular.cli import build_parser

    exported = [(name, getattr(pendular, name)) for name in pendular.__all__]
    takes_j_max = [name for name, obj in exported if callable(obj) and "j_max" in inspect.signature(obj).parameters]
    assert takes_j_max == ["operator_matrix"]
    (subparsers,) = [action.choices for action in build_parser()._actions if isinstance(action.choices, dict)]
    flags = {name: {f for action in sub._actions for f in action.option_strings} for name, sub in subparsers.items()}
    assert len(flags) == 8 and "--x-grid" in flags["moments"]
    assert [name for name, options in flags.items() if "--j-max" in options] == []
