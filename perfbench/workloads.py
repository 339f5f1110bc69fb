"""The three benchmark workloads: seeded inputs, timed job lists and checks.

Each workload is a closed loop: one process runs its fixed job list back to
back.  ``run()`` is the timed part and returns one ``(operation, result)``
pair per checked library call; ``check()`` runs untimed afterwards.

Seed 0 uses the reference grids and is compared with ``references.json``,
generated from the code by ``make_references.py``.  Any other seed jitters
the x and Omega points inside the same ranges, keeps every grid size, and
is checked against invariants.  Every x stays at or below 12.
"""

from __future__ import annotations

import os

#: BLAS threading is pinned before numpy is first imported; CLI children
#: inherit it through the environment.
BLAS_PINNING = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PINNING)

import csv  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

moments = importlib.import_module("pendular.moments")
pair = importlib.import_module("pendular.pair")
fits = importlib.import_module("pendular.fits")
chain = importlib.import_module("pendular.chain")
tables = importlib.import_module("pendular.tables")
units = importlib.import_module("pendular.units")

#: Comparison rules, fixed before any run: (rtol, atol) per kind of value.
#: "refit" curves come out of an iterative fit, so a different but valid
#: solver path may move them; they are compared in function space.
TOLERANCE = {
    "closed_form": (1e-12, 1e-14),
    "physics": (1e-8, 1e-12),
    "refit": (0.0, 1e-3),
}
MIN_R_SQUARED = 0.9999
#: Interior zero of c1(x), from the default-seed reference run; a finer or
#: shifted sampling grid moves the spline root far less than the tolerance.
C1_CROSSING = 4.901827850378385
C1_CROSSING_TOL = 1e-6
PAIR_TOL = 1e-12


def plain(value):
    """JSON-normal form, so live values compare equal to stored ones."""
    return json.loads(json.dumps(value))


def compare(summary: dict, reference: dict) -> list[str]:
    """Problems found comparing one operation's summary with its reference."""
    problems = []
    for key, (kind, value) in summary.items():
        if key not in reference:
            problems.append(f"{key}: no stored reference")
            continue
        expected = reference[key]
        if kind == "exact":
            if plain(value) != expected:
                problems.append(f"{key}: {plain(value)!r} != reference {expected!r}")
            continue
        got = np.asarray(value, dtype=float)
        want = np.asarray(expected, dtype=float)
        if got.shape != want.shape:
            problems.append(f"{key}: shape {got.shape} != reference {want.shape}")
            continue
        rtol, atol = TOLERANCE[kind]
        if not np.allclose(got, want, rtol=rtol, atol=atol):
            problems.append(f"{key}: max deviation {np.max(np.abs(got - want)):.3e} ({kind} tolerance)")
    return problems


def _jitter(rng, base, fraction, lo, hi):
    """Move each grid point by up to ``fraction`` of the grid spacing."""
    base = np.asarray(base, dtype=float)
    if rng is None:
        return base
    spacing = np.min(np.diff(base)) if base.size > 1 else 1.0
    moved = base + fraction * spacing * rng.uniform(-1.0, 1.0, base.size)
    return np.clip(moved, lo, hi)


def _log_jitter(rng, base, decades):
    base = np.asarray(base, dtype=float)
    if rng is None:
        return base
    return base * 10.0 ** (decades * rng.uniform(-1.0, 1.0, base.size))


def _column(table, name, stride=1):
    return [float(v) for v in table.column(name)[::stride]]


def _attempt(ops, name, fn, *args):
    """Run one operation; an exception is that operation's failure."""
    try:
        ops.append((name, fn(*args)))
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        ops.append((name, exc))


class Workload:
    name = ""
    #: Set by the runner during a traced pass.
    tracer = None
    #: Operations whose inputs do not depend on the seed, so every seed
    #: compares them with the stored references.
    seed_free: tuple[str, ...] = ()

    def __init__(self, seed: int, small: bool) -> None:
        self.seed = seed
        self.small = small
        self.rng = None if seed == 0 else np.random.default_rng(seed)
        self.references = {}
        if not small and REFERENCES.is_file():
            self.references = json.loads(REFERENCES.read_text(encoding="utf-8")).get(self.name, {})

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def summary(self, op: str, result) -> dict:
        """Values of one result to compare: key -> (kind, value)."""
        raise NotImplementedError

    def invariants(self, op: str, result, thorough: bool) -> list[str]:
        raise NotImplementedError

    def peak_rss_kib(self, ops) -> int:
        """Peak resident memory behind one pass, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def check(self, ops: list[tuple[str, object]], thorough: bool) -> dict[str, list[str]]:
        """Problems per operation; ``thorough`` adds the costlier cross-checks."""
        found = {}
        for op, result in ops:
            if isinstance(result, Exception):
                found[op] = [f"raised {type(result).__name__}: {result}"]
                continue
            problems = self.invariants(op, result, thorough)
            compared = self.seed == 0 or op.split("[")[0] in self.seed_free
            if compared and not self.small:
                problems += compare(self.summary(op, result), self.references.get(op, {}))
            found[op] = problems
        return found


class Curves(Workload):
    """Fit comparison tables, the c1 crossing, the coupling surface and
    first-principles pair checks: rotor, moments, pair and fits layers.

    The fits and the crossing take a grid spacing, not points, and stay on
    the 0:12:0.01 grid for every seed, so their call counts never change;
    the seed moves the surface and pair points.
    """

    name = "curves"
    seed_free = ("fit", "c1_crossing")

    def __init__(self, seed: int, small: bool) -> None:
        super().__init__(seed, small)
        rng = self.rng
        n_x, n_alpha, n_pair = (24, 6, 4) if small else (240, 60, 60)
        self.step = 0.1 if small else 0.01
        self.crossing_min, self.crossing_max = (4.0, 6.0) if small else (0.01, 12.0)
        self.surface_x = _jitter(rng, np.linspace(0.05, 12.0, n_x), 0.3, 0.05, 12.0)
        self.surface_alpha = _jitter(rng, np.linspace(0.0, math.pi / 2, n_alpha), 0.3, 0.0, math.pi / 2)
        self.pair_x = _jitter(rng, np.linspace(0.2, 12.0, n_pair), 0.3, 0.2, 12.0)
        self.pair_omega = _log_jitter(rng, np.geomspace(1e-4, 1.0, n_pair), 0.2)

    def warm_up(self) -> None:
        mset = moments.moments(1.0)
        pair.vdd_from_first_principles(1.0, pair.CouplingGeometry(omega=1e-3))
        tables.render(pair.coupling_surface([1.0, 2.0], [0.0, 0.5]), "csv")
        fits.fit_gap(np.linspace(0.1, 2.0, 20), np.linspace(0.1, 2.0, 20) * mset.delta_e)

    def _fit(self, quantity):
        table, fit = fits.comparison_table(quantity, x_max=12.0, step=self.step)
        return table, fit, tables.render(table, "csv")

    def _surface(self):
        table = pair.coupling_surface(self.surface_x, self.surface_alpha)
        return table, tables.render(table, "csv")

    def _pair_point(self, x, omega, alpha):
        mset = moments.moments(x)
        geom = pair.CouplingGeometry(omega=omega, alpha=alpha)
        v = pair.vdd_from_first_principles(x, geom)
        h_pair = pair.pair_hamiltonian(mset, geom)
        h_model = pair.xyz_matrix(pair.heisenberg_constants(mset, geom))
        return mset, v, h_pair, h_model

    def run(self):
        ops = []
        for quantity in fits.FIT_QUANTITIES:
            _attempt(ops, f"fit[{quantity}]", self._fit, quantity)
        _attempt(
            ops,
            "c1_crossing",
            lambda: moments.c1_zero_crossing(x_min=self.crossing_min, x_max=self.crossing_max, step=0.01),
        )
        _attempt(ops, "surface", self._surface)
        for i, (x, omega) in enumerate(zip(self.pair_x, self.pair_omega)):
            for axis, alpha in (("parallel", 0.0), ("perpendicular", math.pi / 2)):
                _attempt(ops, f"pair[{i},{axis}]", self._pair_point, float(x), float(omega), alpha)
        return ops

    def summary(self, op, result):
        if op.startswith("fit["):
            table, fit, _ = result
            out = {"columns": ("exact", list(table.columns)), "rows": ("exact", len(table.rows))}
            for name in table.columns[1:]:
                kind = {"computed": "physics", "refit": "refit"}.get(name, "closed_form")
                out[name] = (kind, _column(table, name, stride=25))
            return out
        if op == "c1_crossing":
            return {"x": ("physics", result)}
        if op == "surface":
            table, _ = result
            out = {"columns": ("exact", list(table.columns)), "rows": ("exact", len(table.rows))}
            for name in table.columns[2:]:
                out[name] = ("physics", _column(table, name, stride=100))
            return out
        return {"cx": ("physics", result[0].cx)}

    def invariants(self, op, result, thorough):
        problems = []
        if op.startswith("fit["):
            table, fit, text = result
            quantity = op[4:-1]
            if not text.startswith(f"# schema=fit_comparison_{quantity}.v1\n"):
                problems.append("rendered table has the wrong schema line")
            if len(table.rows) != round(12.0 / self.step) + 1:
                problems.append(f"{len(table.rows)} rows on the x grid")
            if fit.r_squared < MIN_R_SQUARED:
                problems.append(f"R^2 {fit.r_squared:.7f} < {MIN_R_SQUARED}")
            if not getattr(fit, "converged", True):
                problems.append("refit did not converge")
            computed = np.array(table.column("computed"))
            if quantity == "gap" and np.any(computed[1:] <= 0):
                problems.append("e1 <= e0 at x > 0")
            if quantity != "gap" and np.any(np.abs(computed) > 1.0):
                problems.append("|c| > 1")
        elif op == "c1_crossing":
            if not abs(result - C1_CROSSING) <= C1_CROSSING_TOL:
                problems.append(f"c1 crossing {result!r} differs from {C1_CROSSING!r}")
        elif op == "surface":
            table, text = result
            if not text.startswith("# schema=coupling_surface.v1\n"):
                problems.append("rendered table has the wrong schema line")
            if len(table.rows) != self.surface_x.size * self.surface_alpha.size:
                problems.append(f"{len(table.rows)} surface rows")
            jy = np.array(table.column("jy_over_omega"))
            if np.any(jy < 0) or np.any(jy > 1):
                problems.append("cx^2 outside [0, 1]")
        else:
            mset, v, h_pair, h_model = result
            if not mset.e0 < mset.e1:
                problems.append("e0 >= e1")
            if max(abs(mset.c0), abs(mset.c1), abs(mset.cx)) > 1.0:
                problems.append("|c| > 1")
            single = np.diag([2 * mset.e0, mset.e0 + mset.e1, mset.e1 + mset.e0, 2 * mset.e1])
            dev = float(np.abs(v - (h_pair - single)).max())
            if dev > PAIR_TOL:
                problems.append(f"on-axis first-principles coupling deviates by {dev:.2e}")
            scale = max(1.0, float(np.abs(h_pair).max()))
            dev = float(np.abs(h_model - h_pair).max())
            if dev > PAIR_TOL * scale:
                problems.append(f"reconstruction identity deviates by {dev:.2e}")
        return problems


def _chain_couplings(x: float, omega: float):
    """(j, jz, gamma) of the field-parallel chain, from the alpha = 0 pair constants."""
    hc = pair.heisenberg_constants(moments.moments(x), pair.CouplingGeometry(omega=omega, alpha=0.0))
    return hc.jy, hc.jz, hc.gamma


def _iterative_label(n: int, x: float, omega: float, boundary: str = "open") -> str:
    """Phase label from a Lanczos-only re-solve of one scan point."""
    j, jz, gamma = _chain_couplings(x, omega)
    result = chain.ground_state(chain.ChainSpec(n=n, j=j, jz=jz, gamma=gamma, boundary=boundary), method="iterative")
    classify = chain.classify_phase
    if "constants" in inspect.signature(classify).parameters:
        return classify(result, chain.ChainConstants(j, jz, gamma)).value
    return classify(result).value


class PhaseScan(Workload):
    """A serial (x, Omega/B) phase scan plus polarization onsets: chain ED."""

    name = "phase-scan"

    def __init__(self, seed: int, small: bool) -> None:
        super().__init__(seed, small)
        rng = self.rng
        self.n = 8 if small else 12
        base_x = [3.0, 9.0] if small else [1.5, 4.5, 7.5, 10.5]
        base_omega = [1e-6, 1e-4] if small else [1e-6, 1e-5, 1e-4]
        self.xs = _jitter(rng, base_x, 0.15, 1.0, 11.0)
        self.omegas = _log_jitter(rng, base_omega, 0.25)
        mid = len(self.omegas) // 2
        # Onsets where |jz| < j (larger x), so the polarizing field is positive.
        self.onsets = [(float(x), float(self.omegas[mid])) for x in self.xs[-2:]]
        if rng is None:
            self.samples = [(0, 0), (len(self.xs) - 1, len(self.omegas) - 1)]
        else:
            self.samples = [(int(rng.integers(len(self.xs))), int(rng.integers(len(self.omegas)))) for _ in range(2)]

    def warm_up(self) -> None:
        j, jz, gamma = _chain_couplings(float(self.xs[0]), float(self.omegas[0]))
        chain.ground_state(chain.ChainSpec(n=self.n, j=j, jz=jz, gamma=gamma))

    def _scan(self):
        table = chain.phase_diagram(self.xs, self.omegas, n=self.n, boundary="open", workers=1)
        return table, tables.render(table, "csv")

    def _onset(self, x, omega):
        j, jz, gamma = _chain_couplings(x, omega)
        return j, gamma, chain.polarization_onset_gamma(self.n, j, jz, boundary="open")

    def run(self):
        ops = []
        _attempt(ops, "phase_diagram", self._scan)
        for i, (x, omega) in enumerate(self.onsets):
            _attempt(ops, f"onset[{i}]", self._onset, x, omega)
        return ops

    def summary(self, op, result):
        if op == "phase_diagram":
            table, _ = result
            return {
                "columns": ("exact", list(table.columns)),
                "phase": ("exact", [p.value for p in table.column("phase")]),
                "jz_over_j": ("physics", _column(table, "jz_over_j")),
                "gamma_over_j": ("physics", _column(table, "gamma_over_j")),
            }
        j, _, onset = result
        return {"onset_over_j": ("physics", onset / j)}

    def invariants(self, op, result, thorough):
        problems = []
        if op == "phase_diagram":
            table, text = result
            if not text.startswith("# schema=phase_diagram.v1\n"):
                problems.append("rendered table has the wrong schema line")
            if len(table.rows) != self.xs.size * self.omegas.size:
                problems.append(f"{len(table.rows)} scan rows")
            if thorough:
                for i, k in self.samples:
                    row = table.rows[i * self.omegas.size + k]
                    label = _iterative_label(self.n, row[0], row[1])
                    if row[4].value != label:
                        problems.append(f"label {row[4].value} at {row[:2]} but iterative re-solve gives {label}")
        else:
            j, gamma, onset = result
            if not (math.isfinite(onset) and onset >= 0 and j > 0):
                problems.append(f"onset gamma {onset!r} with j {j!r}")
            # Every point on this grid is polarized, so its field exceeds the onset.
            if gamma < onset:
                problems.append(f"gamma {gamma!r} below the polarization onset {onset!r}")
        return problems


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv: list[str]) -> tuple[int, str, str, int]:
    """Run one process to completion: (exit code, stdout, stderr, peak RSS in KiB).

    The process is reaped with ``wait4`` so its own peak memory (including
    children it waited for) is known, not only the largest child so far.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), err[0].decode("utf-8", "replace"), usage.ru_maxrss


def _parse_csv(text: str) -> tuple[str, list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError("payload has no schema line")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return lines[0][len("# schema=") :], rows[0], rows[1:]


class Cli(Workload):
    """Cold ``python -m pendular.cli`` processes, one at a time."""

    name = "cli"
    seed_free = ("coupling-grid", "moments", "phase-diagram")
    #: (operation, span name, expected schema, expected row count or None).
    COMMANDS = (
        ("version", "cli.cold_start", None, None),
        ("convert", "cli.convert", "convert.v1", 1),
        ("couplings", "cli.couplings", "couplings.v1", 1),
        ("coupling-grid", "cli.coupling-grid", "coupling_surface.v1", None),
        ("moments", "cli.moments", "moments.v1", None),
        ("chain-ed", "cli.chain-ed", "chain_ed.v1", 1),
        ("phase-diagram", "cli.phase-diagram", "phase_diagram.v1", None),
    )

    def __init__(self, seed: int, small: bool) -> None:
        super().__init__(seed, small)
        rng = self.rng
        self.epsilon = 13.5 if rng is None else 13.5 + 1.5 * rng.uniform(-1, 1)
        self.r = 500.0 if rng is None else 500.0 + 50.0 * rng.uniform(-1, 1)
        self.x = 6.0 if rng is None else 6.0 + rng.uniform(-1, 1)
        self.omega = float(_log_jitter(rng, [1e-4], 0.25)[0])
        self.n = 8 if small else 12
        point = ["--molecule", "SrO", "--epsilon", repr(self.epsilon), "--r", repr(self.r)]
        self.argv = {
            "version": ["--version"],
            "convert": ["convert", *point],
            "couplings": ["couplings", *point, "--format", "json"],
            "coupling-grid": ["coupling-grid"],
            "moments": ["moments", "--x-grid", "0:12:0.1" if small else "0:12:0.01"],
            "chain-ed": ["chain-ed", "--n", str(self.n), "--x", repr(self.x), "--omega", repr(self.omega)],
            "phase-diagram": ["phase-diagram", "--n", "6", "--x-grid", "1:12:5"] if small else ["phase-diagram", "--n", "10"],
        }
        self.sizes = {"coupling-grid": 25 * 13, "moments": 121 if small else 1201, "phase-diagram": 15 if small else 60}

    def command(self, op: str) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "pendular.cli", *self.argv[op]]
        return [sys.executable, str(HERE / "traced_cli.py"), str(self._span_file), *self.argv[op]]

    @property
    def _span_file(self) -> Path:
        return HERE / "out" / f"cli-spans-{os.getpid()}.json"

    def warm_up(self) -> None:
        code, _, err, _ = run_child(self.command("version"))
        if code != 0:
            raise RuntimeError(f"pendular.cli --version failed: {err}")

    def _invoke(self, op, span):
        if self.tracer is None:
            return run_child(self.command(op))
        self._span_file.parent.mkdir(exist_ok=True)
        with self.tracer.span(span) as parent:
            result = run_child(self.command(op))
        recorded = json.loads(self._span_file.read_text(encoding="utf-8"))
        self._span_file.unlink()
        self.tracer.graft(recorded["spans"], recorded["counters"], parent)
        self.tracer.count("cli.payload_bytes", len(result[1].encode("utf-8")))
        return result

    def peak_rss_kib(self, ops) -> int:
        return max((r[3] for _, r in ops if not isinstance(r, Exception)), default=0)

    def run(self):
        ops = []
        for op, span, _, _ in self.COMMANDS:
            _attempt(ops, op, self._invoke, op, span)
        return ops

    def _payload(self, op, out):
        """(schema, columns, rows as lists) of a CSV or JSON payload."""
        if op == "couplings":
            doc = json.loads(out)
            return doc["schema_version"], doc["columns"], doc["rows"]
        schema, columns, rows = _parse_csv(out)
        return schema, columns, [[_number(v) for v in row] for row in rows]

    def summary(self, op, result):
        if op == "version":
            return {}
        _, columns, rows = self._payload(op, result[1])
        out_summary = {"columns": ("exact", columns)}
        stride = {"moments": 25, "coupling-grid": 5}.get(op, 1)
        for i, name in enumerate(columns):
            values = [row[i] for row in rows[::stride]]
            if all(isinstance(v, float) for v in values):
                out_summary[name] = ("physics", values)
            else:
                out_summary[name] = ("exact", values)
        return out_summary

    def invariants(self, op, result, thorough):
        code, out, err, _ = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[-300:]}"]
        if op == "version":
            expected = f"pendular {importlib.import_module('pendular').__version__}"
            return [] if out.strip() == expected else [f"version output {out.strip()!r}"]
        try:
            schema, columns, rows = self._payload(op, out)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"payload does not parse: {exc}"]
        _, _, want_schema, want_rows = next(c for c in self.COMMANDS if c[0] == op)
        want_rows = want_rows or self.sizes[op]
        problems = []
        if schema != want_schema:
            problems.append(f"schema {schema!r} != {want_schema!r}")
        if len(rows) != want_rows or any(len(row) != len(columns) for row in rows):
            problems.append(f"{len(rows)} rows of widths {sorted({len(r) for r in rows})}")
            return problems
        record = [dict(zip(columns, row)) for row in rows]
        expect = getattr(self, f"_expect_{op.replace('-', '_')}", None)
        if expect is not None:
            problems += expect(record, thorough)
        return problems

    def _close(self, name, got, want):
        rtol, atol = TOLERANCE["physics"]
        return [] if math.isclose(got, want, rel_tol=rtol, abs_tol=atol) else [f"{name} {got!r} != {want!r}"]

    def _expect_convert(self, record, thorough):
        preset = units.load_presets().get("SrO")
        row = record[0]
        return self._close("x", row["x"], units.reduced_field(preset, self.epsilon)) + self._close(
            "omega_over_b", row["omega_over_b"], units.omega_over_b(preset, self.r)
        )

    def _expect_couplings(self, record, thorough):
        row = record[0]
        hc = pair.heisenberg_constants(moments.moments(row["x"]), pair.CouplingGeometry(omega=row["omega_over_b"]))
        problems = []
        for name in ("jx", "jy", "jz", "gamma", "shift"):
            problems += self._close(name, row[name], getattr(hc, name))
        return problems

    def _expect_moments(self, record, thorough):
        problems = []
        for row in record:
            if max(abs(row["c0"]), abs(row["c1"]), abs(row["cx"])) > 1.0:
                problems.append(f"|c| > 1 at x={row['x']}")
            if not (row["e0"] < row["e1"] or (row["x"] == 0.0 and row["e0"] == row["e1"])):
                problems.append(f"e0 >= e1 at x={row['x']}")
        return problems

    def _expect_chain_ed(self, record, thorough):
        row = record[0]
        problems = []
        if abs(row["magnetization_per_site"]) > 1.0:
            problems.append("|magnetization| > 1")
        if thorough:
            label = _iterative_label(self.n, row["x"], row["omega_over_b"])
            if row["phase"] != label:
                problems.append(f"label {row['phase']} but iterative re-solve gives {label}")
        return problems


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


WORKLOADS = {w.name: w for w in (Curves, PhaseScan, Cli)}
