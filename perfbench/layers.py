"""Per-layer metrics: the micro-benchmark medians plus what a traced round
recorded, under the names listed in BENCHMARK.json."""

from __future__ import annotations

from workloads import GROUP_STRUCTURE_CHECKS, IDENTITY_SUITES

MICRO_UNITS = {
    "cyclo.mul_us": "us",
    "cyclo.add_us": "us",
    "cyclo.inverse_us": "us",
    "monomial.mul_us": "us",
    "groups.make_gmpn_ms": "ms",
    "groups.conjugacy_classes_ms": "ms",
    "groups.enumerate_thick_ms": "ms",
    "classify.isomorphic_ms": "ms",
    "qpoly.element_operators_ms": "ms",
    "qpoly.group_sum_operator_ms": "ms",
    "qpoly.invariant_dimension_ms": "ms",
    "qpoly.phi_w_eval_us": "us",
    "groupalg.q_w_element_us": "us",
    "groupalg.ga_mul_us": "us",
    "groupalg.j_c_us": "us",
    "linalg.modular_certificate_ms": "ms",
    "linalg.sparse_rank_ms": "ms",
    "cli.import_s": "s",
    "cli.bare_python_s": "s",
}


def layer_metrics(summary: dict, micro: dict, startup_share: float, overhead_s: float) -> dict:
    aggregates = summary["aggregates"]
    counters = summary["counters"]

    def calls(key: str) -> int:
        return aggregates.get(key, (0, 0.0, 0.0))[0]

    def total_s(key: str) -> float:
        return aggregates.get(key, (0, 0.0, 0.0))[1]

    def self_s(*keys: str) -> float:
        return sum(aggregates.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def layer_self_s(layer: str) -> float:
        return sum((v[2] for k, v in aggregates.items() if k.split(".", 1)[0] == layer), 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    cyclo_ops = sum(v[0] for k, v in aggregates.items() if k.startswith("cyclo."))
    iso_calls = calls("classify.isomorphic")
    cert_calls = calls("linalg.modular_full_rank_certificate")
    values = {
        "cyclo.ops": (cyclo_ops, "count"),
        "cyclo.self_s": (layer_self_s("cyclo"), "s"),
        "monomial.mul_calls": (calls("monomial.MonomialElement.__mul__"), "count"),
        "monomial.self_s": (layer_self_s("monomial"), "s"),
        "groups.indexed_group_builds": (calls("groups.IndexedGroup.__init__"), "count"),
        "groups.self_s": (layer_self_s("groups"), "s"),
        "classify.iso_calls": (iso_calls, "count"),
        "classify.fingerprint_decided_ratio": (ratio(counters.get("classify.fingerprint_decided", 0), iso_calls), "ratio"),
        "classify.self_s": (layer_self_s("classify"), "s"),
        "qpoly.operator_matrix_calls": (calls("qpoly.operator_matrix"), "count"),
        "qpoly.slice_entries": (counters.get("qpoly.slice_entries", 0), "count"),
        "qpoly.self_s": (layer_self_s("qpoly"), "s"),
        "groupalg.q_w_element_calls": (calls("groupalg.q_w_element"), "count"),
        "groupalg.self_s": (layer_self_s("groupalg"), "s"),
        "mystic.saturation_degrees": (counters.get("mystic.saturation_degrees", 0), "count"),
        "mystic.equiv_slices": (counters.get("mystic.equiv_slices", 0), "count"),
        "mystic.self_s": (layer_self_s("mystic"), "s"),
        "linalg.certificate_calls": (cert_calls, "count"),
        "linalg.certificate_success_ratio": (ratio(counters.get("linalg.certificate_successes", 0), cert_calls), "ratio"),
        "linalg.entries_converted": (counters.get("linalg.entries_converted", 0), "count"),
        "linalg.exact_fallbacks": (counters.get("linalg.exact_fallbacks", 0), "count"),
        "linalg.modular_self_s": (self_s("linalg.modular_full_rank_certificate", "linalg._modq_rank"), "s"),
        "linalg.sparse_rank_self_s": (self_s("linalg.sparse_rank"), "s"),
        "cli.startup_share": (startup_share, "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for name, fn_name, _, _ in GROUP_STRUCTURE_CHECKS:
        values[f"verify.{name}_s"] = (self_s(f"verify.{fn_name}"), "s")
    for name, fn_name in IDENTITY_SUITES:
        values[f"verify.suite.{name}_s"] = (total_s(f"verify.{fn_name}"), "s")
    for name, unit in MICRO_UNITS.items():
        values[name] = (micro[name], unit)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(values.items())}
