"""Command-line drivers emitting machine-readable scan data.

Every subcommand is a thin wrapper over one library operation: it returns
its table and payload metadata, and raises ValueError on a usage problem.
Only main() writes the payload, to --out (with a JSON run manifest written
next to it) or stdout; `fit` in CSV mode also writes its fit parameters to
stderr.  Only main() maps errors to exit codes: 0 success, 1 numeric, file
or memory failure (an exception in NUMERIC_ERRORS), 2 usage error (any
other ValueError, such as a --j-max too small for the requested field).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .chain import (
    PhaseThresholds,
    SectorConvergenceError,
    classify_phase,
    ground_state,
    molecular_chain,
    phase_diagram,
)
from .fits import FIT_QUANTITIES, FitError, comparison_table
from .moments import checked_grid, moment_curves, moments, stark_map, uniform_grid
from .pair import MAGIC_ANGLE, CouplingGeometry, coupling_surface, heisenberg_constants
from .rotor import DEFAULT_J_MAX, EigensolverError
from .tables import Table, render
from .units import PresetError, find_preset, load_presets, omega_over_b, reduced_field

# PresetError and numpy's LinAlgError are ValueErrors, so main() tests this tuple first.
NUMERIC_ERRORS = (
    PresetError,
    EigensolverError,
    SectorConvergenceError,
    FitError,
    np.linalg.LinAlgError,
    ArithmeticError,
    OSError,
    MemoryError,
)


def parse_grid(text: str) -> np.ndarray:
    """Grid syntax: 'start:stop:step', 'log:start:stop:count', or 'a,b,c'."""
    text = text.strip()
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"log grid needs log:start:stop:count, got {text!r}")
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
        if start <= 0 or stop <= 0 or count < 1:
            raise ValueError(f"log grid needs positive bounds and count, got {text!r}")
        return checked_grid(text, count, lambda: np.geomspace(start, stop, count))
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"linear grid needs start:stop:step, got {text!r}")
        return uniform_grid(*(float(p) for p in parts))
    values = np.array([float(p) for p in text.split(",") if p.strip() != ""])
    if values.size == 0:
        raise ValueError("empty grid")
    return values


def positive_int(text: str) -> int:
    """argparse type for counts and basis cutoffs: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_alpha(text: str) -> float:
    """Tilt angle in degrees, or the keyword 'magic' for 3cos^2 = 1 exactly."""
    if text.strip().lower() == "magic":
        return MAGIC_ANGLE
    return math.radians(float(text))


def parse_alpha_grid(text: str) -> np.ndarray:
    if ":" in text:
        return np.radians(parse_grid(text))
    return np.array([parse_alpha(a) for a in text.split(",") if a.strip()])


def _preset(args):
    """The --molecule preset from --presets, PENDULAR_PRESETS or the packaged file."""
    path = args.presets or os.environ.get("PENDULAR_PRESETS")
    return find_preset(load_presets(path), args.molecule)


def _write_output(args, table: Table, metadata: dict | None) -> None:
    meta = {"code_version": __version__}
    if metadata:
        meta.update(metadata)
    payload = render(table, args.format, metadata=meta)
    if args.out is None:
        sys.stdout.write(payload)
        return
    out = Path(args.out)
    out.write_bytes(payload.encode("utf-8"))
    manifest = {
        "schema_version": "run_manifest.v1",
        "command": args.command,
        "parameters": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
        },
        "code_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [
            {
                "path": str(out),
                "bytes": len(payload.encode("utf-8")),
                "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            }
        ],
    }
    Path(f"{out}.manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def cmd_stark_map(args) -> tuple[Table, dict | None]:
    xs = uniform_grid(0.0, args.x_max, args.x_step)
    m_values = tuple(int(m) for m in args.m.split(","))
    return stark_map(xs, m_values=m_values, n_states=args.n_states, j_max=args.j_max), None


def cmd_moments(args) -> tuple[Table, dict | None]:
    curves = moment_curves(parse_grid(args.x_grid), args.j_max)
    columns = ("x", "e0", "e1", "delta_e", "c0", "c1", "cx")
    rows = list(zip(*(curves[key].tolist() for key in columns)))
    return Table(schema="moments.v1", columns=columns, rows=rows), None


def _resolve_point(args):
    """(x, omega, units-metadata) from either reduced or laboratory flags."""
    if args.molecule is not None:
        if args.x is not None or args.omega is not None:
            raise ValueError("--molecule derives x and omega; give it without --x and --omega")
        if args.epsilon is None or args.r is None:
            raise ValueError("--molecule requires --epsilon and --r")
        preset = _preset(args)
        x = reduced_field(preset, args.epsilon)
        omega = omega_over_b(preset, args.r)
        units = {
            "molecule": preset.name,
            "mu_debye": preset.mu_debye,
            "b_cm1": preset.b_cm1,
            "epsilon_kv_cm": args.epsilon,
            "r_nm": args.r,
        }
        return x, omega, units
    if args.x is None or args.omega is None or args.epsilon is not None or args.r is not None:
        raise ValueError("give either --x and --omega, or --molecule with --epsilon and --r")
    if args.presets is not None:
        raise ValueError("--presets applies only with --molecule")
    return args.x, args.omega, None


def cmd_couplings(args) -> tuple[Table, dict | None]:
    x, omega, units = _resolve_point(args)
    alpha = parse_alpha(args.alpha)
    hc = heisenberg_constants(moments(x, args.j_max), CouplingGeometry(omega=omega, alpha=alpha))
    jz_over_jy = hc.jz / hc.jy if hc.jy != 0 else math.nan
    gamma_over_jy = hc.gamma / hc.jy if hc.jy != 0 else math.nan
    constants = asdict(hc)
    table = Table(
        schema="couplings.v1",
        columns=("x", "omega_over_b", "alpha_rad", *constants, "jz_over_jy", "gamma_over_jy"),
        rows=[(x, omega, alpha, *constants.values(), jz_over_jy, gamma_over_jy)],
    )
    return table, {"units": units} if units else None


def cmd_coupling_grid(args) -> tuple[Table, dict | None]:
    return coupling_surface(parse_grid(args.x_grid), parse_alpha_grid(args.alpha_grid), j_max=args.j_max), None


def cmd_fit(args) -> tuple[Table, dict | None]:
    table, fit = comparison_table(args.quantity, x_max=args.x_max, step=args.x_step, j_max=args.j_max)
    fit_meta = asdict(fit)
    if args.format == "csv":
        sys.stderr.write(json.dumps({"fit": fit_meta}, indent=None) + "\n")
    return table, {"fit": fit_meta}


def cmd_chain_ed(args) -> tuple[Table, dict | None]:
    x, omega, units = _resolve_point(args)
    spec = molecular_chain(moments(x, args.j_max), omega, args.n, args.boundary)
    result = ground_state(spec)
    phase = classify_phase(result)
    table = Table(
        schema="chain_ed.v1",
        columns=(
            "n",
            "boundary",
            "x",
            "omega_over_b",
            "j",
            "jz",
            "gamma",
            "ground_energy",
            "magnetization_per_site",
            "nn_zz_correlation",
            "staggered_zz_correlation",
            "gap",
            "ground_overlap_polarized",
            "phase",
        ),
        rows=[
            (
                args.n,
                args.boundary,
                x,
                omega,
                spec.j,
                spec.jz,
                spec.gamma,
                result.ground_energy,
                result.magnetization_per_site,
                result.nn_zz_correlation,
                result.staggered_zz_correlation,
                result.gap,
                result.ground_overlap_polarized,
                phase,
            )
        ],
    )
    return table, {"units": units} if units else None


def cmd_phase_diagram(args) -> tuple[Table, dict | None]:
    thresholds = PhaseThresholds(magnetization=args.fm_threshold)
    table = phase_diagram(
        parse_grid(args.x_grid),
        parse_grid(args.omega_grid),
        n=args.n,
        boundary=args.boundary,
        thresholds=thresholds,
        j_max=args.j_max,
    )
    return table, {"n": args.n, "boundary": args.boundary, "thresholds": asdict(thresholds)}


def cmd_convert(args) -> tuple[Table, dict | None]:
    if args.epsilon is None and args.r is None:
        raise ValueError("give --epsilon and/or --r to convert")
    preset = _preset(args)
    x = reduced_field(preset, args.epsilon) if args.epsilon is not None else None
    omega = omega_over_b(preset, args.r) if args.r is not None else None
    table = Table(
        schema="convert.v1",
        columns=("molecule", "mu_debye", "b_cm1", "epsilon_kv_cm", "x", "r_nm", "omega_over_b"),
        rows=[(preset.name, preset.mu_debye, preset.b_cm1, args.epsilon, x, args.r, omega)],
    )
    return table, None


def _add_common(sub, presets: bool = False) -> None:
    sub.add_argument("--out", help="output file path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--j-max", type=positive_int, default=DEFAULT_J_MAX, help="basis truncation")
    if presets:
        sub.add_argument("--presets", help="molecule preset file (or PENDULAR_PRESETS env var)")


def _add_point_flags(sub) -> None:
    sub.add_argument("--x", type=float, help="reduced field")
    sub.add_argument("--omega", type=float, help="dipole-dipole coupling over B")
    sub.add_argument("--molecule", help="derive --x/--omega from a preset instead")
    sub.add_argument("--epsilon", type=float, help="field strength in kV/cm (with --molecule)")
    sub.add_argument("--r", type=float, help="separation in nm (with --molecule)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pendular",
        description="Pendular-state molecules as spin-1/2 chains: scans and fits.",
    )
    parser.add_argument("--version", action="version", version=f"pendular {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("stark-map", help="pendular level energies over a field grid")
    p.add_argument("--x-max", type=float, default=12.0)
    p.add_argument("--x-step", type=float, default=0.1)
    p.add_argument("--m", default="0,1", help="comma-separated m blocks")
    p.add_argument("--n-states", type=positive_int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_stark_map)

    p = subs.add_parser("moments", help="pseudo-spin energies and dipole moments on a grid")
    p.add_argument("--x-grid", default="0:12:0.1", help="'start:stop:step', 'log:..', or 'a,b,c'")
    _add_common(p)
    p.set_defaults(func=cmd_moments)

    p = subs.add_parser("couplings", help="two-molecule model constants at one point")
    _add_point_flags(p)
    p.add_argument("--alpha", default="0", help="array tilt in degrees, or 'magic'")
    _add_common(p, presets=True)
    p.set_defaults(func=cmd_couplings)

    p = subs.add_parser("coupling-grid", help="coupling constants per unit Omega on an (x, alpha) grid")
    p.add_argument("--x-grid", default="0:12:0.5")
    p.add_argument("--alpha-grid", default="0:90:7.5", help="degrees; grid syntax or comma list")
    _add_common(p)
    p.set_defaults(func=cmd_coupling_grid)

    p = subs.add_parser("fit", help="refit one curve and compare with reference parameters")
    p.add_argument("--quantity", choices=FIT_QUANTITIES, required=True)
    p.add_argument("--x-max", type=float, default=12.0)
    p.add_argument("--x-step", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("chain-ed", help="exact diagonalization of the molecular chain at one point")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--boundary", choices=("open", "periodic"), default="open")
    _add_point_flags(p)
    _add_common(p, presets=True)
    p.set_defaults(func=cmd_chain_ed)

    p = subs.add_parser("phase-diagram", help="phase labels over an (x, Omega/B) grid")
    p.add_argument("--x-grid", default="1:12:1")
    p.add_argument("--omega-grid", default="log:1e-6:1e-4:5")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--boundary", choices=("open", "periodic"), default="open")
    p.add_argument("--fm-threshold", type=float, default=0.99, help="|magnetization| for the polarized label")
    _add_common(p)
    p.set_defaults(func=cmd_phase_diagram)

    p = subs.add_parser("convert", help="laboratory units to reduced variables")
    p.add_argument("--molecule", required=True)
    p.add_argument("--epsilon", type=float, help="field strength in kV/cm")
    p.add_argument("--r", type=float, help="separation in nm")
    _add_common(p, presets=True)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        table, metadata = args.func(args)
        _write_output(args, table, metadata)
        return 0
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(f"pendular: error: {exc}\n")
        return 1
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
