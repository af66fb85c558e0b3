"""Smoke tests for the report scripts under scripts/: each still runs against
the package, so a deletion in src that a script relies on fails here."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_thick_atlas_report_runs_on_a_small_grid():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "thick_atlas_report.py"), "--max-m", "2", "--max-n", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for label in ("G(2,2,2)", "W(2,1,2)", "G(2,1,2)"):
        assert f"  {label} " in proc.stdout, label
    # the fingerprint columns of the dihedral group of order 8
    row = next(line for line in proc.stdout.splitlines() if line.startswith("  G(2,1,2) "))
    assert "center   2  abelianization (2, 2)" in row


def test_saturation_report_lists_its_groups():
    spec = importlib.util.spec_from_file_location("saturation_report", SCRIPTS / "saturation_report.py")
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    assert [G.tag.label for G, _ in report.groups(5)] == ["G(5,1,2)", "G(5,5,2)", "G(5,5,3)"]
