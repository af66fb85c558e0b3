"""Layer micro-benchmarks on fixed inputs.

Each benchmark calls one public entry point of a layer on an input that never
changes, once untimed to fill the program's caches, then times repeated
samples and reports the median.  Fast operations are timed in loops sized so
that one sample lasts a few milliseconds and reported per call.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from time import perf_counter

from mystica import classify, cyclo, groupalg, groups, linalg, monomial, qpoly


def _median_ms(fn, samples: int = 3) -> float:
    fn()
    times = []
    for _ in range(samples):
        gc.collect()
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def _median_us(fn, samples: int = 5, sample_s: float = 0.02) -> float:
    fn()
    loops = 1
    while True:
        start = perf_counter()
        for _ in range(loops):
            fn()
        if perf_counter() - start >= sample_s / 4:
            break
        loops *= 2
    loops = max(1, int(loops * sample_s / max(perf_counter() - start, 1e-9)))
    per_call = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(samples):
            start = perf_counter()
            for _ in range(loops):
                fn()
            per_call.append((perf_counter() - start) / loops)
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(per_call) * 1e6


def _spawn_median_s(code: str, env: dict, samples: int = 5) -> float:
    times = []
    for _ in range(samples):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_micro(child_env: dict) -> dict:
    """Every micro-benchmark, keyed by its per-layer metric name."""
    out = {}

    a = cyclo.parse_scalar("1/2 - 3/5*zeta12^1 + 7/3*zeta12^2 + 2*zeta12^3")
    b = cyclo.parse_scalar("-4/7 + 5/2*zeta12^1 - 1/3*zeta12^2 + 3/8*zeta12^3")
    out["cyclo.mul_us"] = _median_us(lambda: a * b)
    out["cyclo.add_us"] = _median_us(lambda: a + b)
    out["cyclo.inverse_us"] = _median_us(a.inverse)

    g = monomial.MonomialElement(4, 12, (1, 3, 0, 2), (1, 5, 7, 11))
    h = monomial.MonomialElement(4, 12, (2, 0, 3, 1), (4, 9, 2, 6))
    out["monomial.mul_us"] = _median_us(lambda: g * h)

    out["groups.make_gmpn_ms"] = _median_ms(lambda: groups.make_gmpn(4, 1, 3))
    g413 = groups.make_gmpn(4, 1, 3)
    out["groups.conjugacy_classes_ms"] = _median_ms(lambda: groups.IndexedGroup(g413).conjugacy_classes())
    out["groups.enumerate_thick_ms"] = _median_ms(lambda: groups.enumerate_thick(4, 3))

    # the largest classification-grid pair that reaches the backtracking search
    g443, w413 = groups.make_gmpn(4, 4, 3), groups.make_w(4, 1, 3)
    out["classify.isomorphic_ms"] = _median_ms(lambda: classify.isomorphic(g443, w413))

    rows = []

    def element_operators():
        rows.clear()
        for elem in g413.elements:
            row = {}
            for d in range(13):
                for (r, col), v in qpoly.operator_matrix(elem, 0, d).entries.items():
                    row[(d, r, col)] = v
            rows.append(row)

    out["qpoly.element_operators_ms"] = _median_ms(element_operators)
    out["linalg.modular_certificate_ms"] = _median_ms(lambda: linalg.modular_full_rank_certificate(rows, g413.order))
    g423 = groups.make_gmpn(4, 2, 3)
    one = cyclo.Cyclotomic.one()
    sum_terms = [(elem, one) for elem in g423.elements]
    out["qpoly.group_sum_operator_ms"] = _median_ms(lambda: qpoly.operator_matrix(sum_terms, 1, 12))
    out["qpoly.invariant_dimension_ms"] = _median_ms(lambda: qpoly.invariant_dimension(g413, 0, 8))
    symmetrizer = qpoly.operator_matrix([(elem, one) for elem in g413.elements], 0, 8).columns()
    out["linalg.sparse_rank_ms"] = _median_ms(lambda: linalg.sparse_rank(symmetrizer))
    zeta4 = cyclo.cyc_make(4, 1)
    out["qpoly.phi_w_eval_us"] = _median_us(lambda: qpoly.phi_w_eval(zeta4, (3, 2, 0, 1), (3, 1, 2, 5)))

    longest = (2, 1, 0)
    out["groupalg.q_w_element_us"] = _median_us(lambda: groupalg.q_w_element(zeta4, longest, 3, 12))
    qa = groupalg.q_w_element(zeta4, longest, 3, 12)
    qb = groupalg.q_w_element(cyclo.cyc_make(3, 1), (1, 0, 2), 3, 12)
    out["groupalg.ga_mul_us"] = _median_us(lambda: groupalg.ga_mul(qa, qb))
    mixed = groupalg.GroupAlgebraElement(
        3,
        12,
        {
            monomial.MonomialElement(3, 12, (1, 2, 0), (3, 0, 6)): 2,
            monomial.MonomialElement(3, 12, (0, 2, 1), (9, 3, 0)): -1,
            monomial.MonomialElement(3, 12, (2, 1, 0), (0, 6, 3)): 1,
        },
    )
    out["groupalg.j_c_us"] = _median_us(lambda: groupalg.j_c(zeta4, mixed))

    out["cli.bare_python_s"] = _spawn_median_s("pass", child_env)
    out["cli.import_s"] = _spawn_median_s("import mystica.cli", child_env)
    return out
