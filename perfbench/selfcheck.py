"""Smoke check of the benchmark itself, at reduced sizes.

Run from the repository root: ``python3 perfbench/selfcheck.py``.  Runs every
workload of ``BENCHMARK.json`` once untraced and once traced with ``--small``,
and checks that each run succeeds and that its result line carries exactly
the declared metric names and units.  Exits 1 on the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')} attempted={result.get('attempted')}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if printed != declared:
        problems.append(f"metrics {sorted(set(printed) ^ set(declared))} or their units differ from BENCHMARK.json")
    if not all(isinstance(m.get("value"), (int, float)) for m in result.get("metrics", {}).values()):
        problems.append("a metric value is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            status = status or int(bool(problems))
    return status


if __name__ == "__main__":
    sys.exit(main())
