"""Tests of the benchmark's own code: golden checks, tracer hygiene and
repeatable traced counts.

    python3 -m pytest perfbench/tests -q
"""

import copy
import inspect
import json
import sys

import pytest

import layers
import tracer as tracing
import workloads

from mystica import verify

BENCH_JSON = workloads.HERE.parent / "BENCHMARK.json"

SMALL_GROUPS = ("G(1,1,2)", "G(2,2,2)", "W(2,1,2)", "G(1,1,3)", "G(3,3,2)", "G(2,1,2)")


def small_operator_rank(seed: int) -> workloads.OperatorRank:
    wl = workloads.OperatorRank(seed)
    wl.cells = [cell for cell in wl.cells if cell[0].tag.label in SMALL_GROUPS]
    return wl


def small_group_structure(seed: int) -> workloads.GroupStructure:
    wl = workloads.GroupStructure(seed)
    wl.checks = [c for c in wl.checks if c[0] in ("orders-grid", "thick-enumeration")]
    return wl


# -- golden checks -----------------------------------------------------------------


def test_golden_check_accepts_the_recorded_verdicts():
    wl = small_operator_rank(5)
    records = wl.run_round(0)
    assert len(records) == 3 * len(SMALL_GROUPS)
    assert [r.failure for r in records] == [None] * len(records)


def test_golden_check_catches_a_changed_saturation_degree():
    wl = small_operator_rank(5)
    key = "G(2,1,2) c=1"
    wl.golden = copy.deepcopy(wl.golden)
    wl.golden[key][0] += 1
    failures = [r for r in wl.run_round(0) if r.failure]
    assert [r.key for r in failures] == [key]


def test_golden_check_catches_a_flipped_pass_or_changed_detail():
    golden = workloads.load_golden("group-structure")
    good = copy.deepcopy(golden["singular-list"])
    assert workloads.compare(golden, "singular-list", good) is None
    flipped = copy.deepcopy(good)
    flipped[0][2] = not flipped[0][2]
    assert workloads.compare(golden, "singular-list", flipped)
    detail = copy.deepcopy(good)
    detail[-1][3] += " "
    assert workloads.compare(golden, "singular-list", detail)
    assert workloads.compare(golden, "singular-list", good[:-1])


def test_golden_check_catches_identity_suite_failures():
    golden = workloads.load_golden("identity-suites")
    assert set(golden) == {name for name, _ in workloads.IDENTITY_SUITES}
    assert workloads.compare(golden, "twist-map", 0) is None
    assert workloads.compare(golden, "twist-map", 1)


def test_golden_check_catches_cli_exit_code_output_and_tracebacks():
    golden = workloads.load_golden("cli-queries")
    refusal = golden["iso --m 6 --p 1 --n 3"]
    assert refusal[0] == 2 and "capped" in refusal[2]
    key = "equiv --m 2 --p 1 --n 2"
    exit_code, digest, stderr = golden[key]
    assert workloads.compare(golden, key, [exit_code, digest, stderr]) is None
    assert workloads.compare(golden, key, [1, digest, stderr])
    assert workloads.compare(golden, key, [exit_code, "0" * 64, stderr])
    assert workloads.verdict_failure([0, digest, "Traceback (most recent call last):"])
    assert workloads.verdict_failure([-11, digest, ""])
    assert workloads.verdict_failure([exit_code, digest, stderr]) is None


def test_an_operation_that_raises_is_a_failure():
    wl = small_operator_rank(5)
    ops = wl.ops(0)

    def boom():
        raise ZeroDivisionError("boom")

    wl.ops = lambda round_index: [workloads.Op(ops[0].key, boom)] + ops[1:]
    failures = [r for r in wl.run_round(0) if r.failure]
    assert len(failures) == 1 and "ZeroDivisionError" in failures[0].failure


# -- the tracer ---------------------------------------------------------------------


def _snapshot():
    names = [n for n in sys.modules if n == "mystica" or n.startswith("mystica.")]
    state = {}
    for name in names:
        mod = sys.modules[name]
        state[name] = dict(vars(mod))
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == name:
                state[f"{name}:{attr}"] = dict(vars(obj))
    return state


def _assert_same_objects(before, after):
    assert before.keys() == after.keys()
    for where, attrs in before.items():
        assert attrs.keys() == after[where].keys(), where
        for attr, obj in attrs.items():
            assert after[where][attr] is obj, f"{where}.{attr} was not restored"


def _import_every_layer():
    """Installing the tracer imports every layer; do it before a snapshot."""
    for layer in tracing.LAYERS:
        __import__(f"mystica.{layer}")


def test_tracer_restores_every_wrapped_object():
    _import_every_layer()
    before = _snapshot()
    original = verify.faithfulness_saturation_degree
    with tracing.Tracer() as tr:
        assert verify.faithfulness_saturation_degree is not original
        assert sys.modules["mystica.mystic"].faithfulness_saturation_degree is not original
        small_operator_rank(1).run_round(0)
        small_group_structure(1).run_round(0)
    _assert_same_objects(before, _snapshot())
    assert tr.aggregates["mystic.faithfulness_saturation_degree"][0] == 3 * len(SMALL_GROUPS)


def test_tracer_restores_after_an_exception():
    _import_every_layer()
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            raise ZeroDivisionError
    _assert_same_objects(before, _snapshot())


def test_self_time_never_exceeds_total_time():
    with tracing.Tracer() as tr:
        small_operator_rank(1).run_round(0)
    for key, (calls, total, own) in tr.aggregates.items():
        assert own <= total + 1e-9, key
    spans = {s[0]: s for s in tr.spans}
    for span_id, parent, name, start, end, own in tr.spans:
        assert parent == 0 or parent in spans
        assert start <= end


# -- repeatable counts ---------------------------------------------------------------


def _traced_counts(wl) -> dict:
    wl.run_round(0)  # fill the program's caches first, as the benchmark does
    with tracing.Tracer() as tr:
        records = wl.run_round(0)
    assert not [r.failure for r in records if r.failure]
    summary = tr.summary()
    counts = {k: v[0] for k, v in summary["aggregates"].items()}
    counts.update(summary["counters"])
    metrics = layers.layer_metrics(summary, {k: 1.0 for k in layers.MICRO_UNITS}, 0.0, 0.0)
    counts.update({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")})
    return counts


@pytest.mark.parametrize("make", [small_operator_rank, small_group_structure])
def test_traced_counts_repeat_at_one_seed_and_across_seeds(make):
    first = _traced_counts(make(1))
    assert first == _traced_counts(make(1))
    assert first == _traced_counts(make(2))
    assert first["qpoly.operator_matrix_calls" if make is small_operator_rank else "monomial.mul_calls"] > 0


def test_identity_suite_counts_repeat_at_one_seed(monkeypatch):
    monkeypatch.setattr(workloads, "IDENTITY_INSTANCES", 40)
    first = _traced_counts(workloads.IdentitySuites(7))
    assert first == _traced_counts(workloads.IdentitySuites(7))
    assert first["groupalg.q_w_element_calls"] > 0


# -- metric names -----------------------------------------------------------------------


def test_per_layer_metrics_match_the_benchmark_file():
    declared = json.loads(BENCH_JSON.read_text())
    summary = {"aggregates": {}, "counters": {}}
    metrics = layers.layer_metrics(summary, {k: 1.0 for k in layers.MICRO_UNITS}, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    import run

    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
