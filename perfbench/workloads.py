"""The four benchmark workloads.

A workload is built from the benchmark seed alone.  It hands out rounds: a
round is a list of operations in seed-shuffled order, and every round of a
workload runs the same operations (the identity suites draw fresh random
instances per round from the seed).  Each operation returns a JSON-native
verdict, which is compared with the golden verdict recorded at the seed
commit in ``golden/<workload>.json``.

Programs are always called through their module attribute
(``mystic.faithfulness_saturation_degree``, not a name imported here), so a
traced round sees every call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

# `mystica <argv>` exactly as the installed console script runs it
CLI_ENTRY = "import sys; from mystica.cli import main; sys.exit(main())"


@dataclass
class Op:
    key: str
    run: Callable[[], object]  # returns the verdict, or an Outcome


@dataclass
class Outcome:
    verdict: object
    extra: dict  # measurements that are not part of the verdict


@dataclass
class OpRecord:
    key: str
    seconds: float
    failure: str | None  # None when the verdict matches the golden
    extra: dict | None = None


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def compare(golden: dict, key: str, verdict) -> str | None:
    """None when the verdict equals the golden one, else a one-line reason."""
    if key not in golden:
        return f"{key}: no golden verdict"
    want = golden[key]
    got = json.loads(json.dumps(verdict))
    if got != want:
        return f"{key}: expected {json.dumps(want)[:300]}, got {json.dumps(got)[:300]}"
    return None


def _shuffled(items, seed: int, round_index: int) -> list:
    items = list(items)
    random.Random(f"{seed}/{round_index}").shuffle(items)
    return items


class Workload:
    name = ""

    def __init__(self, seed: int, golden: dict | None = None):
        self.seed = seed
        self.golden = load_golden(self.name) if golden is None else golden

    def ops(self, round_index: int) -> list[Op]:
        raise NotImplementedError

    def run_round(self, round_index: int) -> list[OpRecord]:
        records = []
        for op in self.ops(round_index):
            gc.collect()  # garbage of earlier operations is not collected on this one's time
            start = perf_counter()
            try:
                verdict = op.run()
            except Exception as exc:  # a crash is a failed operation, not a stop
                records.append(OpRecord(op.key, perf_counter() - start, f"{op.key}: raised {exc!r}"))
                continue
            seconds = perf_counter() - start
            extra = None
            if isinstance(verdict, Outcome):
                verdict, extra = verdict.verdict, verdict.extra
            records.append(OpRecord(op.key, seconds, self.failure(op.key, verdict), extra))
        return records

    def failure(self, key: str, verdict) -> str | None:
        return compare(self.golden, key, verdict)


# -- operator-rank --------------------------------------------------------------


# The criterion-9 groups of rank at most 3 and order at most 32, plus
# W(4,1,3) (order 96), which saturates exactly at its bound for c = 1 and
# c = zeta4.  Groups of order above 64 are settled by the modular certificate
# alone, without the exact fallback.  A round takes about 6 s, so a run
# repeats every cell; the other groups take 1 s (G(2,1,3)) to 2 min (G(4,1,3))
# per cell, and G(1,1,4) 1.7 s at c = 0.
OPERATOR_RANK_MAX_ORDER = 32
OPERATOR_RANK_EXTRA = ("W(4,1,3)",)


def c_values():
    from mystica import cyclo

    return (("0", 0), ("1", 1), ("zeta4", cyclo.cyc_make(4, 1)))


class OperatorRank(Workload):
    """Saturation degree and rank of the element operators, per (group, c)."""

    name = "operator-rank"

    def __init__(self, seed: int, golden: dict | None = None):
        super().__init__(seed, golden)
        from mystica import verify

        groups = verify.independence_groups(verify.VerifyConfig(max_m=4, max_n=3))
        self.cells = [
            (G, tag, c)
            for G in groups
            if G.order <= OPERATOR_RANK_MAX_ORDER or G.tag.label in OPERATOR_RANK_EXTRA
            for tag, c in c_values()
        ]

    @staticmethod
    def key(G, tag: str) -> str:
        return f"{G.tag.label} c={tag}"

    def ops(self, round_index: int) -> list[Op]:
        from mystica import mystic

        def cell(G, c):
            degree, rank = mystic.faithfulness_saturation_degree(G, c, G.n * G.N + 12)
            return [degree, rank]

        return [
            Op(self.key(G, tag), lambda G=G, c=c: cell(G, c))
            for G, tag, c in _shuffled(self.cells, self.seed, round_index)
        ]


# -- group-structure ------------------------------------------------------------


# (result name, check function, max_m, max_n).  Criteria 1, 5 and 6 run on
# their acceptance grids; criteria 7 and 8 stop at m = 3, n = 3, because at
# n = 4 they take 2 s and 3 s (30 s on the m = 4 atlas).  A round takes about
# 2 s, so a run repeats every check several times.
GROUP_STRUCTURE_CHECKS = (
    ("orders-grid", "check_orders", 6, 4),
    ("isomorphism-parity", "check_isomorphism_parity", 4, 4),
    ("thick-enumeration", "check_thick_enumeration", 4, 3),
    ("classification-grid", "check_classification", 3, 3),
    ("singular-list", "check_singular_list", 3, 3),
)


class GroupStructure(Workload):
    """Criteria 1, 5, 6, 7 and 8: every result as (check, params, pass, detail)."""

    name = "group-structure"

    def __init__(self, seed: int, golden: dict | None = None):
        super().__init__(seed, golden)
        self.checks = list(GROUP_STRUCTURE_CHECKS)

    def ops(self, round_index: int) -> list[Op]:
        from mystica import verify

        def check(fn_name, max_m, max_n):
            results = getattr(verify, fn_name)(verify.VerifyConfig(max_m=max_m, max_n=max_n))
            return [[r.check, r.params, r.passed, r.detail] for r in results]

        return [
            Op(name, lambda f=fn_name, m=max_m, n=max_n: check(f, m, n))
            for name, fn_name, max_m, max_n in _shuffled(self.checks, self.seed, round_index)
        ]


# -- identity-suites ------------------------------------------------------------


IDENTITY_INSTANCES = 1000

# (suite name, function in mystica.verify), as in verify.IDENTITY_SUITES
IDENTITY_SUITES = (
    ("cocycle-composition", "suite_cocycle_composition"),
    ("twisted-multiplicativity", "suite_twisted_multiplicativity"),
    ("q-element-identities", "suite_q_element_identities"),
    ("twist-map", "suite_twist_map"),
    ("long-cycle-law", "suite_long_cycle_law"),
    ("odd-level-nonclosure", "suite_odd_level_nonclosure"),
)


class IdentitySuites(Workload):
    """The six randomized suites of criterion 10; the verdict is the number of
    failed instances, which is 0 for every seed."""

    name = "identity-suites"

    def ops(self, round_index: int) -> list[Op]:
        from mystica import verify

        def suite(name, fn_name):
            rng = random.Random(f"{self.seed}/{round_index}/{name}")
            return getattr(verify, fn_name)(rng, IDENTITY_INSTANCES)

        return [
            Op(name, lambda name=name, f=fn_name: suite(name, f))
            for name, fn_name in _shuffled(IDENTITY_SUITES, self.seed, round_index)
        ]


# -- cli-queries ----------------------------------------------------------------


# 14 s on its own, more than all the other queries of the grid together
CLI_EXCLUDED = (("invariants", 6, 1, 3),)

# a query still running after this is killed and counted as failed
QUERY_TIMEOUT_S = 120


def cli_queries() -> list[tuple[str, int, int, int]]:
    out = []
    for m in (2, 4, 6):
        for n in (2, 3):
            for p in (d for d in range(1, m + 1) if m % d == 0):
                for cmd in ("equiv", "invariants", "iso", "mu"):
                    if (cmd, m, p, n) not in CLI_EXCLUDED:
                        out.append((cmd, m, p, n))
    return out


def verdict_failure(verdict: list) -> str | None:
    exit_code, _, stderr = verdict
    if exit_code not in (0, 1, 2):
        return f"unexpected exit code {exit_code}"
    if stderr and "Traceback" in stderr:
        return "printed a traceback"
    return None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliQueries(Workload):
    """A closed loop with one client: each query is a fresh `mystica`
    process, timed from spawn to exit.

    mode "plain" runs the command as the console script does; "timed" runs it
    through cli_child.py, which also reports the in-process time of main();
    "traced" does the same with the layer tracer installed in the child.
    """

    name = "cli-queries"

    def __init__(self, seed: int, root: Path, mode: str = "plain", golden: dict | None = None):
        super().__init__(seed, golden)
        self.root = root
        self.mode = mode
        self.env = child_env(root)
        self.report_dir = root / ".bench_out"
        self.queries = cli_queries()

    @staticmethod
    def key(cmd: str, m: int, p: int, n: int) -> str:
        return f"{cmd} --m {m} --p {p} --n {n}"

    def _argv(self, cmd, m, p, n, report: Path) -> list[str]:
        args = [cmd, "--m", str(m), "--p", str(p), "--n", str(n)]
        if self.mode == "plain":
            return [sys.executable, "-c", CLI_ENTRY, *args]
        child = [sys.executable, str(HERE / "cli_child.py"), "--report", str(report)]
        if self.mode == "traced":
            child.append("--trace")
        return [*child, "--", *args]

    def failure(self, key: str, verdict) -> str | None:
        return verdict_failure(verdict) or super().failure(key, verdict)

    def _query(self, cmd, m, p, n) -> Outcome:
        report = self.report_dir / f"child-{os.getpid()}.json"
        start = perf_counter()
        proc = subprocess.run(
            self._argv(cmd, m, p, n, report), env=self.env, capture_output=True, timeout=QUERY_TIMEOUT_S
        )
        elapsed = perf_counter() - start
        stderr = proc.stderr.decode("utf-8", "replace")
        verdict = [
            proc.returncode,
            hashlib.sha256(proc.stdout).hexdigest(),
            stderr if proc.returncode == 2 or "Traceback" in stderr else "",
        ]
        extra = {"spawn_to_exit_s": elapsed}
        if self.mode != "plain" and report.exists():
            extra.update(json.loads(report.read_text()))
            report.unlink()
        return Outcome(verdict, extra)

    def ops(self, round_index: int) -> list[Op]:
        if self.mode != "plain":
            self.report_dir.mkdir(exist_ok=True)
        return [
            Op(self.key(*q), lambda q=q: self._query(*q))
            for q in _shuffled(self.queries, self.seed, round_index)
        ]


WORKLOADS = ("operator-rank", "group-structure", "identity-suites", "cli-queries")


def make_workload(
    name: str, seed: int, root: Path, cli_mode: str = "plain", golden: dict | None = None
) -> Workload:
    """The named workload, checked against ``golden`` or, by default, the
    recorded golden file."""
    if name == "operator-rank":
        return OperatorRank(seed, golden)
    if name == "group-structure":
        return GroupStructure(seed, golden)
    if name == "identity-suites":
        return IdentitySuites(seed, golden)
    if name == "cli-queries":
        return CliQueries(seed, root, cli_mode, golden)
    raise ValueError(f"unknown workload {name!r}")
