"""Record the golden verdicts of every workload.

    python3 perfbench/make_goldens.py

Run from the root of a source checkout at the commit whose results are the
reference; it rewrites perfbench/golden/*.json.  Every operation of a
workload runs once, in a fixed order; the identity suites' golden is 0
failed instances per suite, for every seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def verdicts(wl) -> dict:
    out = {}
    for op in sorted(wl.ops(0), key=lambda op: op.key):
        verdict = op.run()
        if isinstance(verdict, workloads.Outcome):
            verdict = verdict.verdict
        out[op.key] = verdict
        print(f"{wl.name}: {op.key} -> {json.dumps(verdict)[:120]}", flush=True)
    return out


def main() -> None:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        if name == "identity-suites":
            golden = {suite: 0 for suite, _ in workloads.IDENTITY_SUITES}
        else:
            golden = verdicts(workloads.make_workload(name, 0, ROOT, golden={}))
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
