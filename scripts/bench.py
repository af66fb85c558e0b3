#!/usr/bin/env python3
"""Measure the benchmark workloads and the verify-all checks into one JSON file.

    python scripts/bench.py --out BENCH.json [--workloads NAME ...] [--checks NAME ...]
                            [--seconds S] [--runs K]
    python scripts/bench.py --compare OLD.json [--out NEW.json | --from NEW.json]
    python scripts/bench.py --pairs PARENT_DIR [--out PAIRS.json] [--workloads NAME ...]
                            [--checks NAME ...] [--seconds S] [--runs K]

A thin driver over perfbench: each workload runs K times as
`perfbench/run.py --trace 0` at seed 3, and each entry of verify.ALL_CHECKS
runs K times on VerifyConfig(), each time in a fresh interpreter.  Every
metric is kept as its K values with their median and quartiles, beside the
run envelope (Python, host, git revision, src line count); a check also keeps
one run's results and the largest failed count of its runs, with
runs_disagree set where the counts differ.  --compare prints one line per
metric shared with OLD.json: old median, new median and new/old; with --from
it reads the new results from a file instead of measuring.  --pairs runs
each workload K times in PARENT_DIR (another checkout, the old side) and K
times in this tree, alternately, the two runs of pair i at seed 3 + i and the
side that runs first swapping from pair to pair, so that host drift falls on
both sides alike; each verify check named with --checks (none by default
here) alternates the same way, one fresh interpreter per run.  It keeps every
run of both sides and prints, per workload or check and metric, the old and
new medians, the median of the per-pair new/old ratios and the number of
pairs in which the new value was lower, beside the interquartile range of
the old runs, and the failed operations of a workload summed over its runs,
or the failed results of one run of a check, marked where its runs
disagree.  Run from the root of a source checkout; mystica is imported
from src/ of the tree that runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("operator-rank", "group-structure", "identity-suites", "cli-queries")
SEED = 3

# times one verify check on VerifyConfig() in this interpreter
CHECK_CHILD = """
import json, sys, time
from mystica import verify
fn = dict(verify.ALL_CHECKS)[sys.argv[1]]
wall, cpu = time.perf_counter(), time.process_time()
results = fn(verify.VerifyConfig())
print(json.dumps({"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu,
                  "results": len(results), "failed": sum(not r.passed for r in results)}))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the measured results here")
    parser.add_argument("--from", dest="source", type=Path, help="read the results from this file instead")
    parser.add_argument("--compare", type=Path, help="print new/old per metric against this file")
    parser.add_argument("--pairs", type=Path, metavar="PARENT_DIR", help="alternate runs with this checkout")
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument(
        "--checks", nargs="*", default=None, help="verify check names (default: all; with --pairs, none)"
    )
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds per run")
    parser.add_argument("--runs", type=int, default=3, help="runs per workload and per check")
    args = parser.parse_args(argv)
    if args.pairs is not None:
        if args.source is not None or args.compare is not None:
            parser.error("--pairs measures both sides itself; it takes no --from or --compare")
        if not (args.pairs / "perfbench" / "run.py").is_file():
            parser.error(f"--pairs: {args.pairs} is not a source checkout with perfbench/run.py")
    elif args.source is None and args.out is None:
        parser.error("name --out for a measurement, or --from with --compare")
    if args.source is not None and args.compare is None:
        parser.error("--from only makes sense with --compare")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def child_env(root: Path = ROOT) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def summary(values: list[float], unit: str) -> dict:
    """The values with their median and quartiles (all three equal for one value)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "values": values}


def git(*argv: str) -> str:
    try:
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def envelope(args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": git("rev-parse", "HEAD"),
        "src_changed_since_revision": bool(git("status", "--porcelain", "--", "src")),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "mystica").glob("*.py"))),
        "seed": SEED,
        "seconds": args.seconds,
        "runs": args.runs,
    }


def run_once(root: Path, name: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run of a workload in the checkout at root: its
    result line, with its envelope under "envelope"."""
    argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    prefix = "# envelope "
    result = json.loads(lines[-1])
    result["envelope"] = json.loads(next(line for line in lines if line.startswith(prefix))[len(prefix) :])
    return result


def collect(results: list[dict]) -> dict:
    """Runs of one workload: each end-to-end metric over the runs, the failed
    operations summed, the last run's envelope."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for result in results:
        for metric, entry in result["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])
            units[metric] = entry["unit"]
    return {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {metric: summary(v, units[metric]) for metric, v in values.items()},
        "envelope": results[-1]["envelope"],
    }


def collect_check(results: list[dict]) -> dict:
    """Runs of one check, as collect, but with the results and the failed
    results of one run, not their sums, since every run decides the same
    cells; where the runs' failed counts differ, failed is the largest and
    runs_disagree is set."""
    out = collect(results)
    out.update(attempted=results[-1]["attempted"], **failed_of(results))
    return out


def failed_of(runs: list[dict]) -> dict:
    """The largest failed count of the runs of one check, and whether the
    runs' counts differ."""
    failed = {r["failed"] for r in runs}
    return {"failed": max(failed), "runs_disagree": len(failed) > 1}


def run_workload(name: str, args) -> dict:
    """K untraced perfbench runs of one workload at the fixed seed."""
    return collect([run_once(ROOT, name, SEED, args.seconds) for _ in range(args.runs)])


def run_pairs(name: str, args, run) -> dict:
    """K pairs of runs of one workload or check, run(root, name, seed) in
    args.pairs (old) and in this tree (new) at seed SEED + i, the first side
    swapping from pair to pair: side -> the result lines of its runs, each
    as run_once returns it."""
    sides: dict[str, list[dict]] = {"old": [], "new": []}
    for i in range(args.runs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for side in order:
            sides[side].append(run(args.pairs if side == "old" else ROOT, name, SEED + i))
    return sides


def pair_report(pairs: dict) -> list[str]:
    """Per workload or check and metric: old and new medians, the median
    per-pair new/old ratio, the number of pairs in which new was lower and
    the interquartile range of the old runs, the spread that a difference of
    the medians is read against; then the failed count of each side."""
    lines = []
    for name, sides in pairs.items():
        for metric, old in sides["old"]["metrics"].items():
            new = sides["new"]["metrics"][metric]
            ratios = [b / a if a else float("nan") for a, b in zip(old["values"], new["values"])]
            lower = sum(b < a for a, b in zip(old["values"], new["values"]))
            lines.append(
                f"{name + '.' + metric:36s} {old['median']:12.4g} {new['median']:12.4g} "
                f"{statistics.median(ratios):8.3f} {lower:>3d}/{len(ratios)} {old['q3'] - old['q1']:12.4g}"
            )
        mark = "  runs disagree" if any(side.get("runs_disagree") for side in sides.values()) else ""
        lines.append(f"{name + '.failed':36s} {sides['old']['failed']:12d} {sides['new']['failed']:12d}{mark}")
    return lines


def run_check_once(root: Path, name: str) -> dict:
    """One verify check on VerifyConfig() in a fresh interpreter of the
    checkout at root: wall_s, cpu_s and the number of results and of failed
    ones."""
    argv = [sys.executable, "-c", CHECK_CHILD, name]
    proc = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_check_pair(check_runner, root: Path, name: str, seed: int) -> dict:
    """One run of a check as a result line of run_once, for run_pairs: its
    results attempted, the failed ones failed, wall_s and cpu_s its metrics.
    A check draws no seed."""
    run = check_runner(root, name)
    metrics = {key: {"value": run[key], "unit": "s"} for key in ("wall_s", "cpu_s")}
    return {"attempted": run["results"], "failed": run["failed"], "metrics": metrics, "envelope": {}}


def run_check(name: str, args, check_runner=run_check_once) -> dict:
    """K fresh interpreters, each running one verify check on VerifyConfig():
    one run's results, the failed results as failed_of reads them."""
    runs = [check_runner(ROOT, name) for _ in range(args.runs)]
    return {
        "results": runs[-1]["results"],
        **failed_of(runs),
        "metrics": {key: summary([r[key] for r in runs], "s") for key in ("wall_s", "cpu_s")},
    }


def check_names(args) -> list[str]:
    sys.path.insert(0, str(SRC))
    from mystica import verify

    names = [name for name, _ in verify.ALL_CHECKS]
    unknown = sorted(set(args.checks or ()) - set(names))
    if unknown:
        raise SystemExit(f"bench: unknown checks {unknown}; choose from {', '.join(names)}")
    return names if args.checks is None else [name for name in names if name in args.checks]


def measure(args, check_runner=run_check_once) -> dict:
    out = {"envelope": envelope(args), "workloads": {}, "checks": {}}
    for name in args.workloads:
        out["workloads"][name] = run_workload(name, args)
    for name in check_names(args):
        out["checks"][name] = run_check(name, args, check_runner)
    return out


def flat_metrics(bench: dict) -> dict[str, float]:
    """'<workload>.<metric>' and 'check.<name>.<metric>' -> median."""
    out = {}
    for name, entry in bench.get("workloads", {}).items():
        out.update({f"{name}.{m}": s["median"] for m, s in entry["metrics"].items()})
    for name, entry in bench.get("checks", {}).items():
        out.update({f"check.{name}.{m}": s["median"] for m, s in entry["metrics"].items()})
    out["src_lines"] = bench["envelope"]["src_lines"]
    return out


def compare(old: dict, new: dict) -> list[str]:
    """One line per metric in both: name, old median, new median, new/old."""
    before, after = flat_metrics(old), flat_metrics(new)
    lines = []
    for name in sorted(set(before) & set(after)):
        ratio = after[name] / before[name] if before[name] else float("nan")
        lines.append(f"{name:48s} {before[name]:12.4g} {after[name]:12.4g} {ratio:8.3f}")
    return lines


def main(argv=None, runner=run_once, check_runner=run_check_once) -> int:
    args = parse_args(argv)
    if args.pairs is not None:
        pairs = {}
        for name in args.workloads:
            runs = run_pairs(name, args, partial(runner, seconds=args.seconds))
            pairs[name] = {side: collect(results) for side, results in runs.items()}
        if args.checks is not None:
            for name in check_names(args):
                runs = run_pairs(name, args, partial(run_check_pair, check_runner))
                pairs[f"check.{name}"] = {side: collect_check(results) for side, results in runs.items()}
        if args.out is not None:
            out = {"envelope": envelope(args), "parent": str(args.pairs.resolve()), "pairs": pairs}
            args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
        print(f"{'metric':36s} {'old':>12s} {'new':>12s} {'new/old':>8s} lower {'old IQR':>12s}")
        print("\n".join(pair_report(pairs)))
        return 0
    if args.source is not None:
        new = json.loads(args.source.read_text())
    else:
        new = measure(args, check_runner)
        args.out.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    if args.compare is not None:
        print(f"{'metric':48s} {'old':>12s} {'new':>12s} {'new/old':>8s}")
        print("\n".join(compare(json.loads(args.compare.read_text()), new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
