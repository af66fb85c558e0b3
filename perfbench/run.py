"""The mystica benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
With --trace 0 the workload runs untraced in whole rounds until S seconds
have passed and the end-to-end metrics are printed.  With --trace 1 the run
makes the layer micro-benchmarks, one untraced round and one traced round,
prints the per-layer metrics and writes the spans to .bench_out/.  Every operation's verdict is checked against the
goldens in perfbench/golden/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
TAIL_BEYOND = 10  # the tail is the highest percentile with this many operations beyond it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="build the workload's inputs and exit")
    return parser.parse_args(argv)


# -- measurement helpers ------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_op_median_ms(records) -> list[float]:
    """Each operation's median time over the rounds of the run."""
    by_key: dict[str, list[float]] = {}
    for r in records:
        by_key.setdefault(r.key, []).append(r.seconds * 1e3)
    return [statistics.median(v) for v in by_key.values()]


def setup_seconds(workload: str, seed: int, env: dict) -> float:
    """Median spawn-to-exit time of fresh interpreters that import mystica
    and build the workload's inputs."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def timed_round(wl, round_index: int):
    gc.collect()
    start = perf_counter()
    records = wl.run_round(round_index)
    return perf_counter() - start, records


def envelope(args, records) -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "mystica").glob("*.py")))
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    failed = sum(1 for r in records if r.failure)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "src_lines": src_lines,
        "operations": len(records),
        "failed_frac": failed / len(records) if records else 0.0,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run ---------------------------------------------------------


def untraced_run(args, env) -> tuple[list, dict, dict]:
    from workloads import make_workload

    wl = make_workload(args.workload, args.seed, ROOT)
    records, rounds = [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        seconds, batch = timed_round(wl, len(rounds))
        rounds.append(seconds)
        records.extend(batch)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-queries" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # read before the set-up probes run
    op_ms = per_op_median_ms(records)
    tail_ms, tail_pct = tail(op_ms)
    metrics = {
        "wall_s": metric(statistics.median(rounds), "s"),
        "setup_s": metric(setup_seconds(args.workload, args.seed, env), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "op_p50_ms": metric(statistics.median(op_ms), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
    }
    info = {"rounds": len(rounds), "op_tail_percentile": round(tail_pct, 2), "op_samples": len(op_ms)}
    return records, metrics, info


def traced_run(args, env) -> tuple[list, dict, dict]:
    from layers import layer_metrics
    from micro import run_micro
    from tracer import Tracer, merge_summaries
    from workloads import make_workload

    micro = run_micro(env)
    cli = args.workload == "cli-queries"
    wl = make_workload(args.workload, args.seed, ROOT, cli_mode="timed")
    untraced_s, records = timed_round(wl, 0)
    startup_share = 0.0
    if cli:
        shares = [
            (r.extra["spawn_to_exit_s"] - r.extra["main_s"]) / r.extra["spawn_to_exit_s"]
            for r in records
            if r.extra and "main_s" in r.extra
        ]
        startup_share = statistics.median(shares) if shares else 0.0
        wl.mode = "traced"
    if cli:  # each query process traces itself
        traced_s, batch = timed_round(wl, 0)
        children = [r.extra for r in batch if r.extra and "aggregates" in r.extra]
        summary = merge_summaries(children)
        spans = [c["spans"] for c in children]
    else:
        with Tracer() as tracer:
            traced_s, batch = timed_round(wl, 0)
        summary = tracer.summary()
        spans = [tracer.spans]
    records.extend(batch)

    metrics = layer_metrics(summary, micro, startup_share, traced_s - untraced_s)
    out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({**summary, "spans": spans, "untraced_s": untraced_s, "traced_s": traced_s}))
    info = {"untraced_round_s": untraced_s, "traced_round_s": traced_s, "trace_file": str(out.relative_to(ROOT))}
    return records, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mystica" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no mystica sources under {SRC}; run from the root of a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, child_env, make_workload

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}\n")
        return 2
    if args.setup_only:
        import mystica  # noqa: F401  (set-up time includes importing the package)

        make_workload(args.workload, args.seed, ROOT)
        return 0
    env = child_env(ROOT)
    run = traced_run if args.trace else untraced_run
    records, metrics, info = run(args, env)
    for r in records:
        if r.failure:
            sys.stderr.write(f"perfbench: FAILED {r.failure}\n")
    failed = sum(1 for r in records if r.failure)
    print("# envelope " + json.dumps({**envelope(args, records), **info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
