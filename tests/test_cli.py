import csv
import hashlib
import io
import json
import subprocess
import sys
from typing import NamedTuple

import pytest

from pendular.cli import main

CLI = [sys.executable, "-m", "pendular.cli"]


def run_cli(*args):
    """Run the CLI as a separate ``python -m pendular.cli`` process."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=600)


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture()
def cli(capsys):
    """Run the CLI in-process through ``main(argv)``, with the exit code a process would get."""

    def run(*args):
        capsys.readouterr()  # drop output of earlier calls in the same test
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return Run(code, out, err)

    return run


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def strict_json(text):
    """Parse a payload, refusing the NaN and Infinity tokens that Python's parser accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# schema=")
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return list(reader)


class TestStarkMap:
    def test_default_run_contains_origin_row(self, cli):
        proc = cli("stark-map")
        assert proc.returncode == 0
        rows = parse_csv(proc.stdout)
        origin = [
            r
            for r in rows
            if float(r["x"]) == 0.0 and r["m"] == "0" and r["j_tilde"] == "0"
        ]
        assert len(origin) == 1
        assert float(origin[0]["energy_over_b"]) == 0.0

    def test_gap_between_pseudo_spin_levels_reaches_3_7(self, cli):
        proc = cli("stark-map", "--x-step", "0.5")
        rows = parse_csv(proc.stdout)
        by_key = {(r["x"], r["m"], r["j_tilde"]): float(r["energy_over_b"]) for r in rows}
        gaps = [
            by_key[(x, "0", "1")] - by_key[(x, "1", "1")]
            for x in sorted({r["x"] for r in rows}, key=float)
        ]
        assert max(gaps) == pytest.approx(3.7, abs=0.1)

    def test_zero_step_is_usage_error(self, cli):
        proc = cli("stark-map", "--x-step", "0")
        assert proc.returncode == 2

    def test_unknown_flag_is_usage_error(self):
        proc = run_cli("stark-map", "--frequency", "1")
        assert proc.returncode == 2


class TestMoments:
    def test_grid_syntax_and_determinism(self, cli):
        a = cli("moments", "--x-grid", "0:2:0.5")
        b = cli("moments", "--x-grid", "0:2:0.5")
        assert a.returncode == 0 and a.stdout == b.stdout
        rows = parse_csv(a.stdout)
        assert len(rows) == 5
        assert float(rows[0]["cx"]) == 0.0

    def test_comma_grid(self, cli):
        proc = cli("moments", "--x-grid", "1,2,3")
        assert proc.returncode == 0
        assert len(parse_csv(proc.stdout)) == 3

    def test_bad_grid_usage_error(self, cli):
        proc = cli("moments", "--x-grid", "5:1:0.5")
        assert proc.returncode == 2


class TestCouplings:
    def test_critical_ratio_at_6_1(self, cli):
        proc = cli("couplings", "--x", "6.1", "--omega", "1e-4", "--alpha", "0")
        assert proc.returncode == 0
        row = parse_csv(proc.stdout)[0]
        assert float(row["jz_over_jy"]) == pytest.approx(-1.0, abs=0.05)

    def test_magic_angle_keyword(self, cli):
        proc = cli("couplings", "--x", "5", "--omega", "1e-3", "--alpha", "magic")
        row = parse_csv(proc.stdout)[0]
        assert abs(float(row["jz"])) <= 1e-12 * 1e-3

    def test_molecule_route_adds_units(self, cli):
        proc = cli(
            "couplings",
            "--molecule",
            "SrO",
            "--epsilon",
            "13.5",
            "--r",
            "500",
            "--format",
            "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["metadata"]["units"]["molecule"] == "SrO"
        x = payload["rows"][0][0]
        assert x == pytest.approx(6.1, rel=0.02)

    def test_undefined_ratios_are_json_null(self, cli):
        # At x = 0 the flip-flop constant jy vanishes, so jz/jy and gamma/jy are undefined.
        proc = cli("couplings", "--x", "0", "--omega", "1e-4", "--format", "json")
        assert proc.returncode == 0
        payload = strict_json(proc.stdout)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["jz_over_jy"] is None and row["gamma_over_jy"] is None
        # jz is -0.0 there; JSON writes it as CSV does.
        assert '"jz"' in proc.stdout and "-0.0" not in proc.stdout
        assert parse_csv(cli("couplings", "--x", "0", "--omega", "1e-4").stdout)[0]["jz"] == "0"

    def test_missing_point_flags_usage_error(self, cli):
        proc = cli("couplings", "--x", "2.0")
        assert proc.returncode == 2


class TestFit:
    def test_gap_fit_reports_r_squared(self, cli):
        proc = cli("fit", "--quantity", "gap", "--x-step", "0.1", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["metadata"]["fit"]["r_squared"] >= 0.9999
        assert payload["columns"] == ["x", "computed", "reference", "refit"]

    def test_cx_fit_table_has_both_readings(self, cli):
        proc = cli("fit", "--quantity", "cx", "--x-step", "0.1")
        assert proc.returncode == 0
        rows = parse_csv(proc.stdout)
        assert "reference_alt" in rows[0]
        # fit parameters are reported on stderr in CSV mode
        assert "r_squared" in proc.stderr

    def test_unknown_quantity_usage_error(self, cli):
        proc = cli("fit", "--quantity", "c9")
        assert proc.returncode == 2


class TestChainEd:
    def test_weak_coupling_point(self, cli):
        proc = cli("chain-ed", "--n", "8", "--x", "6", "--omega", "1e-4")
        assert proc.returncode == 0
        row = parse_csv(proc.stdout)[0]
        assert row["phase"] == "ferromagnetic"
        assert float(row["ground_overlap_polarized"]) >= 0.999
        assert float(row["magnetization_per_site"]) == pytest.approx(1.0)


class TestPhaseDiagram:
    def test_weak_coupling_region_all_ferromagnetic(self, cli):
        proc = cli(
            "phase-diagram",
            "--x-grid",
            "2,6,10",
            "--omega-grid",
            "log:1e-6:1e-4:3",
            "--n",
            "6",
        )
        assert proc.returncode == 0
        rows = parse_csv(proc.stdout)
        assert len(rows) == 9
        assert all(r["phase"] == "ferromagnetic" for r in rows)
        assert all(float(r["gamma_over_j"]) > 1e4 for r in rows)

    def test_json_metadata(self, cli):
        proc = cli(
            "phase-diagram",
            "--x-grid",
            "4",
            "--omega-grid",
            "1e-5",
            "--n",
            "4",
            "--format",
            "json",
        )
        payload = json.loads(proc.stdout)
        assert payload["schema_version"] == "phase_diagram.v1"
        assert payload["metadata"]["n"] == 4
        assert payload["metadata"]["thresholds"]["magnetization"] == 0.99

    def test_undefined_ratios_are_json_null(self, cli):
        proc = cli("phase-diagram", "--x-grid", "0,1", "--omega-grid", "1e-4", "--n", "4", "--format", "json")
        assert proc.returncode == 0
        rows = strict_json(proc.stdout)["rows"]
        assert rows[0][2:4] == [None, None]
        assert all(isinstance(v, float) for v in rows[1][2:4])

    def test_warm_cache_payload_equals_cold_process(self, cli):
        # A fresh process builds every sector pattern; in-process reruns reuse them.
        argv = ("phase-diagram", "--x-grid", "1.5,7.5,10.5", "--omega-grid", "log:1e-6:1e-4:3", "--n", "10")
        cold = run_cli(*argv)
        assert cold.returncode == 0
        assert cli(*argv).stdout == cli(*argv).stdout == cold.stdout

    def test_one_process_by_default(self, cli, tmp_path):
        out = tmp_path / "phase.csv"
        proc = cli("phase-diagram", "--x-grid", "4", "--omega-grid", "1e-5", "--n", "4", "--out", str(out))
        assert proc.returncode == 0
        manifest = json.loads((tmp_path / "phase.csv.manifest.json").read_text())
        assert manifest["parameters"]["n"] == 4
        assert "workers" not in manifest["parameters"]


class TestRejectedChainInputs:
    """Bad scan points, lab inputs and thresholds are usage errors (exit 2), caught before any
    solve; so is --workers, which phase-diagram no longer takes (it runs in one process)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["phase-diagram", "--x-grid", "1,nan"],
            ["phase-diagram", "--x-grid", "1,inf"],
            ["phase-diagram", "--x-grid=-1,2"],
            ["phase-diagram", "--omega-grid", "nan"],
            ["phase-diagram", "--omega-grid", "1e-5,inf"],
            ["phase-diagram", "--omega-grid", "0,1e-5"],
            ["phase-diagram", "--omega-grid=-1e-5"],
            ["chain-ed", "--x", "nan", "--omega", "1e-4"],
            ["chain-ed", "--x=-1", "--omega", "1e-4"],
            ["chain-ed", "--x", "6", "--omega", "inf"],
            ["chain-ed", "--x", "6", "--omega", "nan"],
            ["chain-ed", "--x", "6", "--omega=-1e-4"],
            ["chain-ed", "--molecule", "SrO", "--epsilon", "13.5", "--r", "0"],
            ["chain-ed", "--molecule", "SrO", "--epsilon", "13.5", "--r", "inf"],
            ["chain-ed", "--molecule", "SrO", "--epsilon", "13.5", "--r", "1e-110"],
            ["chain-ed", "--molecule", "SrO", "--epsilon", "13.5", "--r", "500", "--omega", "1"],
            ["phase-diagram", "--fm-threshold", "nan"],
            ["phase-diagram", "--workers", "0"],
            ["phase-diagram", "--workers=-2"],
            ["phase-diagram", "--workers", "2"],
            ["chain-ed", "--x", "6", "--omega", "1e-4", "--presets", "/nonexistent/presets.ini"],
        ],
        ids=[
            "phase-diagram-x-nan",
            "phase-diagram-x-inf",
            "phase-diagram-x-negative",
            "phase-diagram-omega-nan",
            "phase-diagram-omega-inf",
            "phase-diagram-omega-zero",
            "phase-diagram-omega-negative",
            "chain-ed-x-nan",
            "chain-ed-x-negative",
            "chain-ed-omega-inf",
            "chain-ed-omega-nan",
            "chain-ed-omega-negative",
            "chain-ed-r-zero",
            "chain-ed-r-inf",
            "chain-ed-r-cube-underflow",
            "chain-ed-molecule-with-omega",
            "phase-diagram-fm-threshold-nan",
            "phase-diagram-workers-zero",
            "phase-diagram-workers-negative",
            "phase-diagram-workers-flag",
            "chain-ed-presets-without-molecule",
        ],
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n", "4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestRejectedMomentInputs:
    """Non-finite fields, couplings and axes, a non-numeric tilt, constants that overflow, bad lab
    fields and separations (including an r whose cube under- or overflows), bad cutoffs, too few fit
    samples, too small a basis and an empty tilt grid are usage errors (exit 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["couplings", "--x", "3", "--omega", "nan"],
            ["couplings", "--x", "3", "--omega", "inf"],
            ["couplings", "--x", "nan", "--omega", "1e-5"],
            ["couplings", "--x", "inf", "--omega", "1e-5"],
            ["moments", "--x-grid", "1,nan"],
            ["coupling-grid", "--x-grid", "inf", "--alpha-grid", "0"],
            ["moments", "--j-max", "0"],
            ["couplings", "--x", "3", "--omega", "1e-5", "--j-max", "0"],
            ["fit", "--quantity", "gap", "--j-max", "-3"],
            ["stark-map", "--n-states", "0"],
            ["couplings", "--x", "1", "--omega", "1e-5", "--j-max", "1"],
            ["moments", "--x-grid", "0,12", "--j-max", "10"],
            ["fit", "--quantity", "gap", "--x-max", "1", "--j-max", "1"],
            ["stark-map", "--x-max", "nan"],
            ["stark-map", "--x-step", "inf"],
            ["fit", "--quantity", "gap", "--x-max", "nan"],
            ["fit", "--quantity", "c0", "--x-step", "5"],
            ["stark-map", "--m", "0,1,2,3,4", "--j-max", "2"],
            ["convert", "--molecule", "SrO", "--epsilon=-5"],
            ["convert", "--molecule", "SrO", "--epsilon", "nan"],
            ["convert", "--molecule", "SrO", "--r", "0"],
            ["convert", "--molecule", "SrO", "--r", "nan"],
            ["convert", "--molecule", "SrO", "--r", "inf"],
            ["couplings", "--molecule", "SrO", "--epsilon", "13.5", "--r", "0"],
            ["couplings", "--molecule", "SrO", "--epsilon", "13.5", "--r", "inf"],
            ["couplings", "--x", "6", "--omega", "1e-4", "--alpha", "foo"],
            ["couplings", "--x", "6", "--omega", "1e308"],
            ["convert", "--molecule", "SrO", "--r", "1e-110"],
            ["convert", "--molecule", "SrO", "--r", "1e200"],
            ["couplings", "--molecule", "SrO", "--epsilon", "13.5"],
            ["couplings", "--molecule", "SrO", "--epsilon", "13.5", "--r", "500", "--x", "6"],
            ["couplings", "--x", "6", "--omega", "1e-4", "--r", "500"],
            ["couplings", "--x", "6", "--omega", "1e-4", "--presets", "/nonexistent/presets.ini"],
            ["stark-map", "--x-max", "-1"],
            ["fit", "--quantity", "gap", "--x-step", "0"],
            ["coupling-grid", "--alpha-grid", ","],
            ["coupling-grid", "--alpha-grid="],
        ],
        ids=[
            "couplings-omega-nan",
            "couplings-omega-inf",
            "couplings-x-nan",
            "couplings-x-inf",
            "moments-x-nan",
            "coupling-grid-x-inf",
            "moments-j-max-zero",
            "couplings-j-max-zero",
            "fit-j-max-negative",
            "stark-map-n-states-zero",
            "couplings-truncated-basis",
            "moments-truncated-basis",
            "fit-truncated-basis",
            "stark-map-x-max-nan",
            "stark-map-x-step-inf",
            "fit-x-max-nan",
            "fit-too-few-samples",
            "stark-map-m-above-j-max",
            "convert-epsilon-negative",
            "convert-epsilon-nan",
            "convert-r-zero",
            "convert-r-nan",
            "convert-r-inf",
            "couplings-r-zero",
            "couplings-r-inf",
            "couplings-alpha-not-a-number",
            "couplings-omega-overflow",
            "convert-r-cube-underflow",
            "convert-r-cube-overflow",
            "couplings-molecule-without-r",
            "couplings-molecule-with-x",
            "couplings-r-without-molecule",
            "couplings-presets-without-molecule",
            "stark-map-x-max-negative",
            "fit-x-step-zero",
            "coupling-grid-alpha-empty",
            "coupling-grid-alpha-blank",
        ],
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1

    def test_truncation_message_names_the_point(self, capsys):
        with pytest.raises(SystemExit):
            main(["couplings", "--x", "1", "--omega", "1e-5", "--j-max", "1"])
        err = capsys.readouterr().err
        assert "x=1.0" in err and "m=1" in err and "j_max=1" in err


class TestOversizedGrid:
    """A grid too large for memory is a numeric failure (exit 1) whose one-line message names the
    grid, not a traceback or a usage error. Every size is at least 1e15 points, so numpy refuses
    the allocation, or the point count is refused first, before any memory is touched."""

    @pytest.mark.parametrize(
        "argv,grid",
        [
            (["moments", "--x-grid", "0:1e15:1"], "0.0:1000000000000000.0:1.0"),
            (["moments", "--x-grid", "log:1:2:1000000000000000"], "log:1:2:1000000000000000"),
            (["stark-map", "--x-step", "1e-15"], "0.0:12.0:1e-15"),
            (["moments", "--x-grid", "0:1e300:1"], "0.0:1e+300:1.0"),
            (["moments", "--x-grid", "log:1:2:10000000000000000000"], "log:1:2:10000000000000000000"),
            (["stark-map", "--x-max", "1", "--x-step", "1e-300"], "0.0:1.0:1e-300"),
            # Past numpy's index range, arange and geomspace return an empty grid or raise IndexError.
            (["moments", "--x-grid", "0:9223372036854775808:1"], "0.0:9.223372036854776e+18:1.0"),
            (["moments", "--x-grid", "log:1:2:9223372036854775808"], "log:1:2:9223372036854775808"),
        ],
        ids=[
            "moments-linear",
            "moments-log",
            "stark-map-step",
            "moments-linear-past-max-size",
            "moments-log-past-max-size",
            "stark-map-step-past-max-size",
            "moments-linear-past-index-range",
            "moments-log-past-index-range",
        ],
    )
    def test_numeric_error(self, cli, argv, grid):
        proc = cli(*argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"pendular: error: grid {grid} is too large for memory: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestConvert:
    def test_sro_anchor(self, cli):
        proc = cli("convert", "--molecule", "SrO", "--epsilon", "13.5", "--r", "500")
        assert proc.returncode == 0
        row = parse_csv(proc.stdout)[0]
        assert float(row["x"]) == pytest.approx(6.1, rel=0.02)
        assert 1e-6 <= float(row["omega_over_b"]) <= 1e-4

    def test_unknown_molecule_numeric_error(self):
        proc = run_cli("convert", "--molecule", "Unobtainium", "--epsilon", "1")
        assert proc.returncode == 1
        assert "available" in proc.stderr

    def test_missing_presets_file_numeric_error(self, tmp_path):
        missing = tmp_path / "missing.ini"
        proc = run_cli("convert", "--molecule", "SrO", "--epsilon", "1", "--presets", str(missing))
        assert proc.returncode == 1
        assert "pendular: error:" in proc.stderr and str(missing) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_out_into_missing_directory_numeric_error(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        proc = run_cli("convert", "--molecule", "SrO", "--epsilon", "13.5", "--r", "500", "--out", str(out))
        assert proc.returncode == 1
        assert "pendular: error:" in proc.stderr and str(out) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_requires_some_quantity(self, cli):
        proc = cli("convert", "--molecule", "SrO")
        assert proc.returncode == 2

    def test_custom_presets_via_env(self, cli, tmp_path, monkeypatch):
        presets = tmp_path / "p.ini"
        presets.write_text("[KCl]\nmu_debye = 10.27\nb_cm1 = 0.1286\n")
        monkeypatch.setenv("PENDULAR_PRESETS", str(presets))
        proc = cli("convert", "--molecule", "KCl", "--epsilon", "1.0")
        assert proc.returncode == 0
        row = parse_csv(proc.stdout)[0]
        assert float(row["mu_debye"]) == pytest.approx(10.27)


class TestManifest:
    def test_output_file_and_manifest(self, cli, tmp_path):
        out = tmp_path / "moments.csv"
        proc = cli("moments", "--x-grid", "0:1:0.5", "--out", str(out))
        assert proc.returncode == 0
        data = out.read_bytes()
        manifest = json.loads((tmp_path / "moments.csv.manifest.json").read_text())
        assert manifest["command"] == "moments"
        entry = manifest["outputs"][0]
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)
        assert manifest["parameters"]["x_grid"] == "0:1:0.5"

    def test_rerun_produces_identical_data(self, cli, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli("moments", "--x-grid", "0:1:0.5", "--out", str(out1))
        cli("moments", "--x-grid", "0:1:0.5", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "pendular" in proc.stdout


def test_entry_point_payload_equals_in_process_run(cli):
    proc = run_cli("moments", "--x-grid", "0:2:0.5")
    assert proc.returncode == 0
    assert proc.stdout == cli("moments", "--x-grid", "0:2:0.5").stdout


def test_import_skips_fit_and_root_finding_modules():
    # Only `fit` and the crossing helpers need them, and they import them on use.
    probe = (
        "import sys, pendular.cli; "
        "print(' '.join(m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""



SOLVER_IMPORT_PROBE = """
import contextlib, io, json, sys
SOLVER_MODULES = ("scipy", "scipy.linalg", "scipy.sparse", "scipy.constants", "concurrent.futures.process")

def loaded():
    return [m for m in SOLVER_MODULES if m in sys.modules]

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

from pendular.cli import main
loads, codes = {"import": loaded()}, {}
for name, argv in [
    ("version", ["--version"]),
    ("convert", ["convert", "--molecule", "SrO", "--epsilon", "13.5", "--r", "500"]),
    ("usage", ["convert", "--molecule", "SrO", "--bogus"]),
    ("couplings", ["couplings", "--x", "6", "--omega", "1e-5"]),
    ("coupling-grid", ["coupling-grid", "--x-grid", "0:2:0.5", "--alpha-grid", "0,90"]),
    ("stark-map", ["stark-map", "--x-max", "2", "--m", "0,1,2"]),
    ("chain-ed", ["chain-ed", "--n", "12", "--x", "6", "--omega", "1e-4"]),
    ("phase-diagram", ["phase-diagram", "--n", "10"]),
]:
    codes[name] = run(argv)
    loads[name] = loaded()
from pendular import ChainSpec, ground_state, moments
moments(1.0)
loads["moments"] = loaded()
# Its ground sector, k = 4, has 70 states.
ground_state(ChainSpec(n=8, j=1.0, jz=0.5, gamma=0.0), method="dense")
loads["dense"] = loaded()
print(json.dumps([codes, loads]))
"""


def test_only_solving_commands_load_scipy():
    # Commands that only solve Stark blocks or chain sectors of at most 16 states (numpy's eigh)
    # load neither scipy nor a process pool: in the molecular regime chain-ed and phase-diagram
    # solve only sectors n and n - 1.  A dense solve of a larger sector loads scipy.linalg and
    # still leaves scipy.sparse to Lanczos.
    proc = subprocess.run([sys.executable, "-c", SOLVER_IMPORT_PROBE], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    codes, loads = json.loads(proc.stdout)
    assert codes == {
        "version": 0,
        "convert": 0,
        "usage": 2,
        "couplings": 0,
        "coupling-grid": 0,
        "stark-map": 0,
        "chain-ed": 0,
        "phase-diagram": 0,
    }
    assert loads == {
        "import": [],
        "version": [],
        "convert": [],
        "usage": [],
        "couplings": [],
        "coupling-grid": [],
        "stark-map": [],
        "chain-ed": [],
        "phase-diagram": [],
        "moments": [],
        "dense": ["scipy", "scipy.linalg"],
    }
