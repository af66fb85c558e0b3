"""Smoke tests for the report scripts under scripts/: each still runs against
the package, so a deletion in src that a script relies on fails here."""

import importlib.util
import json
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


def test_bench_writes_one_workload_and_one_check_and_compares(tmp_path):
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(SCRIPTS / "bench.py"), "--out", str(out), "--workloads", "group-structure"]
    argv += ["--checks", "orders-grid", "--seconds", "0.2", "--runs", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert list(bench["workloads"]) == ["group-structure"] and list(bench["checks"]) == ["orders-grid"]
    assert bench["workloads"]["group-structure"]["failed"] == 0
    tail = bench["workloads"]["group-structure"]["metrics"]["op_tail_ms"]
    assert tail["unit"] == "ms" and tail["q1"] == tail["median"] == tail["q3"] == tail["values"][0] > 0
    check = bench["checks"]["orders-grid"]
    assert (check["results"], check["failed"]) == (42, 0) and check["metrics"]["wall_s"]["median"] > 0
    assert bench["envelope"]["src_lines"] > 0
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench.py"), "--compare", str(out), "--from", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert {row.split()[0] for row in rows} >= {"group-structure.op_tail_ms", "check.orders-grid.wall_s", "src_lines"}
    assert all(row.split()[-1] == "1.000" for row in rows)
