"""Regenerate ``references.json``: one pass of every workload at seed 0.

Run from the repository root: ``python3 perfbench/make_references.py``.
Regenerate only when the library's numbers change on purpose.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    references = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(seed=0, small=False)
        ops = workload.run()
        for op, result in ops:
            if isinstance(result, Exception):
                raise RuntimeError(f"{name} {op} raised {result!r}")
        references[name] = {op: {k: workloads.plain(v) for k, (_, v) in workload.summary(op, r).items()} for op, r in ops}
    workloads.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
