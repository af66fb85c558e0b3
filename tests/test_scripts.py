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


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_pairs_alternates_the_two_trees_and_reports_ratios(tmp_path, capsys):
    bench = _load_bench()
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    calls = []
    # op_tail_ms per (side, seed): new is lower in two of the three pairs
    tails = {("old", 3): 10.0, ("new", 3): 5.0, ("old", 4): 8.0, ("new", 4): 6.0, ("old", 5): 4.0, ("new", 5): 6.0}

    def runner(root, name, seed, seconds):
        side = "old" if root == parent else "new"
        calls.append((side, name, seed, seconds))
        metrics = {"op_tail_ms": {"value": tails[side, seed], "unit": "ms"}, "wall_s": {"value": 1.0, "unit": "s"}}
        return {"attempted": 6, "failed": 0, "metrics": metrics, "envelope": {"seed": seed}}

    out = tmp_path / "pairs.json"
    argv = ["--pairs", str(parent), "--workloads", "identity-suites", "--runs", "3", "--seconds", "0.5"]
    assert bench.main(argv + ["--out", str(out)], runner=runner) == 0
    assert calls == [
        ("old", "identity-suites", 3, 0.5),
        ("new", "identity-suites", 3, 0.5),
        ("new", "identity-suites", 4, 0.5),
        ("old", "identity-suites", 4, 0.5),
        ("old", "identity-suites", 5, 0.5),
        ("new", "identity-suites", 5, 0.5),
    ]
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[1:]}
    # medians 8 and 6; per-pair ratios 0.5, 0.75, 1.5; old quartiles 6 and 9
    assert rows["identity-suites.op_tail_ms"] == ["8", "6", "0.750", "2/3", "3"]
    assert rows["identity-suites.wall_s"] == ["1", "1", "1.000", "0/3", "0"]
    assert rows["identity-suites.failed"] == ["0", "0"]
    saved = json.loads(out.read_text())
    assert saved["pairs"]["identity-suites"]["old"]["metrics"]["op_tail_ms"]["values"] == [10.0, 8.0, 4.0]
    assert saved["pairs"]["identity-suites"]["new"]["metrics"]["op_tail_ms"]["values"] == [5.0, 6.0, 6.0]
    assert saved["pairs"]["identity-suites"]["new"]["attempted"] == 18


def test_bench_pairs_alternates_each_named_check_in_fresh_runs(tmp_path, capsys):
    bench = _load_bench()
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    calls = []
    # wall_s per side, run by run: new is lower in two of the three pairs
    walls = {"old": [2.0, 3.0, 1.0], "new": [1.0, 1.5, 2.0]}

    def check_runner(root, name):
        side = "old" if root == parent else "new"
        calls.append((side, name))
        wall = walls[side][sum(s == side for s, _ in calls) - 1]
        return {"wall_s": wall, "cpu_s": wall / 2, "results": 18, "failed": 1 if side == "old" else 0}

    def runner(root, name, seed, seconds):
        raise AssertionError("no workload was named")

    out = tmp_path / "pairs.json"
    argv = ["--pairs", str(parent), "--workloads", "--checks", "identity-suites", "--runs", "3", "--out", str(out)]
    assert bench.main(argv, runner=runner, check_runner=check_runner) == 0
    side_order = ["old", "new", "new", "old", "old", "new"]
    assert calls == [(side, "identity-suites") for side in side_order]
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[1:]}
    # medians 2 and 1.5; per-pair ratios 0.5, 0.5, 2; old quartiles 1.5 and 2.5
    assert rows["check.identity-suites.wall_s"] == ["2", "1.5", "0.500", "2/3", "1"]
    assert rows["check.identity-suites.cpu_s"] == ["1", "0.75", "0.500", "2/3", "0.5"]
    # failed and attempted are one run's counts, not their sums over the runs
    assert rows["check.identity-suites.failed"] == ["1", "0"]
    saved = json.loads(out.read_text())["pairs"]["check.identity-suites"]
    assert saved["new"]["metrics"]["wall_s"]["values"] == [1.0, 1.5, 2.0]
    assert saved["old"]["attempted"] == 18
    assert not saved["old"]["runs_disagree"] and not saved["new"]["runs_disagree"]
    # runs of one side that fail different numbers of cells mark the row
    calls.clear()
    flaky = iter([0, 2, 2, 0, 0, 0])

    def flaky_runner(root, name):
        return {**check_runner(root, name), "failed": next(flaky)}

    assert bench.main(argv, runner=runner, check_runner=flaky_runner) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[1:]}
    # side order old, new, new, old, old, new: old fails 0, 0, 0 and new 2, 2, 0
    assert rows["check.identity-suites.failed"] == ["0", "2", "runs", "disagree"]
    saved = json.loads(out.read_text())["pairs"]["check.identity-suites"]
    assert (saved["old"]["runs_disagree"], saved["new"]["runs_disagree"]) == (False, True)
    # without --checks, --pairs runs no check
    calls.clear()
    assert bench.main(["--pairs", str(parent), "--workloads"], runner=runner, check_runner=check_runner) == 0
    assert calls == []


def test_bench_out_marks_check_runs_that_disagree(tmp_path):
    # --out keeps one run's results and the largest failed count of a check,
    # and flags runs whose failed counts differ
    bench = _load_bench()
    flaky = iter([2, 0, 0])

    def check_runner(root, name):
        assert root == bench.ROOT
        return {"wall_s": 1.0, "cpu_s": 0.5, "results": 18, "failed": next(flaky)}

    def runner(root, name, seed, seconds):
        raise AssertionError("no workload was named")

    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--workloads", "--checks", "identity-suites", "--runs", "3"]
    assert bench.main(argv, runner=runner, check_runner=check_runner) == 0
    check = json.loads(out.read_text())["checks"]["identity-suites"]
    assert (check["results"], check["failed"], check["runs_disagree"]) == (18, 2, True)
    assert check["metrics"]["wall_s"]["values"] == [1.0, 1.0, 1.0]
