"""Tests for the verification grid runner at small bounds."""

import ast
import inspect
import itertools
import random
from pathlib import Path

import pytest

from mystica import groupalg, groups, verify
from mystica.cyclo import cyc_make
from mystica.groupalg import GroupAlgebraElement
from mystica.groups import enumerate_thick, make_gmpn, make_w, thick_family
from mystica.verify import (
    IDENTITY_SUITES,
    CheckResult,
    VerifyConfig,
    check_classification,
    check_counterpart_equivalence,
    check_identity_suites,
    check_isomorphism_parity,
    check_orders,
    check_singular_list,
    check_thick_enumeration,
    independence_groups,
    predicted_thick_family,
    run_all,
)
from reference import reference_j_c_multiplicative

SMALL = VerifyConfig(max_m=2, max_n=2)


def test_predicted_family_counts():
    assert len(predicted_thick_family(2, 2)) == 3
    assert len(predicted_thick_family(1, 3)) == 1
    assert len(predicted_thick_family(3, 2)) == 2  # no W family for odd m
    assert make_w(2, 1, 2) in predicted_thick_family(2, 2)
    assert make_gmpn(2, 1, 2) in predicted_thick_family(2, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_thick_family_exceeds_the_prediction_by_tau_of_m_over_4(n):
    # criterion 6's corrected statement: the groups outside the predicted
    # family are the T(m,p,p/2,n) with p and m/p both even, tau(m/4) of them;
    # the lattice search finds the same groups with the same names
    for m in range(1, 13):
        family = thick_family(m, n)
        found = enumerate_thick(m, n)
        assert found == family and [T.tag for T in found] == [T.tag for T in family], (m, n)
        predicted = predicted_thick_family(m, n)
        tau = sum(1 for d in range(1, m // 4 + 1) if m % 4 == 0 and (m // 4) % d == 0)
        assert len(set(family)) == len(family)
        assert set(family) >= predicted, (m, n)
        assert len(family) - len(predicted) == tau, (m, n)


def test_criteria_2_7_8_do_not_search_the_normal_subgroup_lattice(monkeypatch):
    checks = (check_counterpart_equivalence, check_classification, check_singular_list)
    expected = [check(SMALL) for check in checks]

    def refused(*args):
        raise AssertionError("enumerate_thick called")

    monkeypatch.setattr(groups, "enumerate_thick", refused)
    monkeypatch.setattr(verify, "enumerate_thick", refused)
    assert [check(SMALL) for check in checks] == expected


def test_only_criterion_6_and_the_thick_command_call_enumerate_thick():
    callers = set()
    for path in Path(groups.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "enumerate_thick":
                        callers.add(f"{path.stem}.{fn.name}")
    assert callers == {"verify.check_thick_enumeration", "cli.cmd_thick"}


def test_independence_groups_on_the_full_grid():
    # criterion 9's cells, G before W so that a group in both families keeps
    # its G tag; perfbench's operator-rank workload reads this list
    labels = [G.tag.label for G in independence_groups(VerifyConfig())]
    assert labels == [
        "G(1,1,2)", "G(1,1,3)",
        "G(2,1,2)", "G(2,2,2)", "W(2,1,2)", "G(2,1,3)", "G(2,2,3)", "W(2,1,3)",
        "G(3,1,2)", "G(3,3,2)", "G(3,1,3)", "G(3,3,3)",
        "G(4,1,2)", "G(4,2,2)", "G(4,4,2)", "W(4,1,2)", "G(4,1,3)", "G(4,2,3)", "G(4,4,3)", "W(4,1,3)",
        "G(1,1,4)",
    ]  # fmt: skip


def test_orders_check_small():
    results = check_orders(SMALL)
    assert results and all(r.passed for r in results)


def test_counterpart_checks_small():
    results = check_counterpart_equivalence(SMALL)
    names = {r.check for r in results}
    assert names == {"counterpart-set", "operator-equivalence", "uniqueness-scan"}
    assert all(r.passed for r in results)


def test_counterpart_set_fails_without_the_det_twist(monkeypatch):
    # every permutation reads as even inside verify, so the product form
    # drops the twist t_1^(det w) and builds {w t} = G itself, which is the
    # det filter W(2,2,2) at p = 1 but not W(2,1,2) at p = 2
    monkeypatch.setattr(verify, "perm_sign", lambda perm: 1)
    results = check_counterpart_equivalence(SMALL)
    cells = {(r.params["m"], r.params["p"], r.params["n"]): r.passed for r in results if r.check == "counterpart-set"}
    assert cells == {(2, 1, 2): True, (2, 2, 2): False}
    assert all(r.passed for r in results if r.check != "counterpart-set")


def test_parity_and_singular_small():
    assert all(r.passed for r in check_isomorphism_parity(SMALL))
    assert all(r.passed for r in check_singular_list(SMALL))


def test_thick_enumeration_green_below_level_four():
    cfg = VerifyConfig(max_m=3, max_n=3)
    assert all(r.passed for r in check_thick_enumeration(cfg))


def test_thick_enumeration_red_at_level_four():
    cfg = VerifyConfig(max_m=4, max_n=2)
    results = check_thick_enumeration(cfg)
    bad = [r for r in results if not r.passed]
    assert [r.params for r in bad] == [{"m": 4, "n": 2}]
    assert "extra" in bad[0].detail


# the number of cases of each suite's domain
SUITE_CASES = {
    "cocycle-composition": 4 * (2 * 2 * 4 + 6 * 6 * 8 + 24 * 24 * 16),  # c, w, w', k in {0,1}^n
    "twisted-multiplicativity": 2 * 4 * 4 + 6 * 8 * 8 + 24 * 16 * 16,  # w, k, k' in {0,1}^n
    "q-element-identities": 3 * (2 * 2 + 6 * 6),  # c, w, w' at n = 2, 3
    "twist-map": 32 * 32 + 32 * 4,  # basis pairs, then basis elements x degrees 0..3
    "long-cycle-law": 1 * 4 + 2 * 8 + 6 * 16 + 2 * 64,  # n-cycles x exponents, (n, N) in 4 cells
    "odd-level-nonclosure": 2 + 2 * 2 + 2 * 2,  # (m, p, n), m in 1, 3, 5 and n in 2, 3
}


def test_identity_suites_zero_failures_small():
    results = check_identity_suites(SMALL)
    assert [r.params["suite"] for r in results] == [name for name, _ in IDENTITY_SUITES]
    assert {r.params["suite"]: r.params["verified_cases"] for r in results} == SUITE_CASES
    assert all(r.passed and r.detail == "0 failures" for r in results)


def test_identity_suite_samplers_find_no_failure():
    # the benchmark's identity-suites workload calls these by name
    for name, _ in IDENTITY_SUITES:
        sampler = getattr(verify, "suite_" + name.replace("-", "_"))
        for seed in range(3):
            assert sampler(random.Random(seed), 50) == 0, (name, seed)


def test_a_broken_identity_turns_exactly_its_suite_red(monkeypatch):
    # flip the sign of phi_w^(c)(k) on one input: c = zeta3, w the 3-cycle
    # (1, 2, 0), k = (1, 0, 0); only cocycle-composition evaluates phi at
    # c = zeta3, and it fails on the cases where an odd number of its three
    # evaluations hit that input
    zeta3, cycle, k0 = cyc_make(3, 1), (1, 2, 0), (1, 0, 0)
    original = verify.phi_w_eval

    def broken(c, perm, k):
        value = original(c, perm, k)
        return -value if (c, perm, k) == (zeta3, cycle, k0) else value

    monkeypatch.setattr(verify, "phi_w_eval", broken)
    want = 0
    for w, wp in itertools.product(itertools.permutations(range(3)), repeat=2):
        for k in itertools.product(range(2), repeat=3):
            ww = tuple(wp[i] for i in w)
            hits = [(ww, k), (wp, verify.perm_apply(w, k)), (w, k)].count((cycle, k0))
            want += hits % 2
    assert want > 0
    results = {r.params["suite"]: r for r in check_identity_suites(SMALL)}
    assert {name for name, r in results.items() if not r.passed} == {"cocycle-composition"}
    assert results["cocycle-composition"].detail == f"{want} failures"
    assert all(r.detail == "0 failures" for name, r in results.items() if name != "cocycle-composition")


def test_twist_map_intertwining_holds_on_its_domain_and_not_under_a_mutated_phi(monkeypatch):
    # _j_c_intertwines on every case of the twist-map domain (c = zeta4, the
    # 32 basis elements of the n = 2, N = 4 group, degrees 0 to 3); then with
    # phi_w^(c) read at 1/c, which differs from it where the c exponent is
    # odd: for the 16 elements over the swap, on degrees 1 and 3, where the
    # two exponents of x^k differ in parity; and with its sign flipped at
    # k = (0, 1) alone, the last monomial of its slice, on every element at
    # degree 1
    predicate, domain = verify._twist_map()[1]
    assert predicate is verify._j_c_intertwines
    cases = list(itertools.product(*domain))
    assert len(cases) == 128
    assert all(predicate(*case) for case in cases)
    original = verify.phi_w_eval
    monkeypatch.setattr(verify, "phi_w_eval", lambda c, perm, k: original(c.inverse(), perm, k))
    assert sum(not predicate(*case) for case in cases) == 16 * 2

    def flipped(c, perm, k):
        return -original(c, perm, k) if k == (0, 1) else original(c, perm, k)

    monkeypatch.setattr(verify, "phi_w_eval", flipped)
    assert sum(not predicate(*case) for case in cases) == 32


def test_twist_map_reads_multiplicativity_off_one_table_of_basis_images(monkeypatch):
    # the multiplicativity predicate reads J_c(ab), J_c(a) and J_c(b) off a
    # table of the 32 basis images, built by 32 j_c calls per _twist_map()
    # call; it agrees with the three-j_c reference on all 1,024 pairs
    calls = []
    original_j_c = verify.j_c

    def counted(c, a):
        calls.append(a)
        return original_j_c(c, a)

    monkeypatch.setattr(verify, "j_c", counted)
    (predicate, domain), (_, intertwining) = verify._twist_map()
    cases = list(itertools.product(*domain))
    assert (len(cases), len(list(itertools.product(*intertwining)))) == (32 * 32, 32 * 4)
    (c,), basis, _ = domain
    image = inspect.getclosurevars(predicate).nonlocals["image"]
    assert len(image) == 32
    assert all(image[g] == original_j_c(c, a) for a in basis for g in a.terms)
    assert [predicate(*case) for case in cases] == [reference_j_c_multiplicative(*case) for case in cases]
    assert all(predicate(*case) for case in cases) and len(calls) == 32


def test_twist_map_table_is_rebuilt_from_q_w_and_fails_where_the_cocycle_law_does(monkeypatch):
    # each _twist_map() call rebuilds its table through q_w_element.  Q_w at
    # 1/c for the swap changes the 16 images over the swap, and J_(1/c) is a
    # twisting map too, so no pair fails.  2 Q_w for the swap breaks the law
    # swap(Q_s) Q_s = 1, so J(a) J(b) = 4 J(ab) where a and b both lie over
    # the swap: exactly those 16 x 16 pairs fail, in the table route and in
    # the three-j_c reference alike
    swap = (1, 0)
    (_, (_, basis, _)), _ = verify._twist_map()
    before = [verify.j_c(cyc_make(4, 1), a) for a in basis]
    original = groupalg.q_w_element

    def at_inverse(c, perm, n, N):
        return original(c.inverse() if tuple(perm) == swap else c, perm, n, N)

    def doubled(c, perm, n, N):
        q = original(c, perm, n, N)
        return GroupAlgebraElement(n, N, {g: 2 * v for g, v in q.items()}) if tuple(perm) == swap else q

    for patch, want in ((at_inverse, 0), (doubled, 16 * 16)):
        monkeypatch.setattr(groupalg, "q_w_element", patch)
        (predicate, domain), _ = verify._twist_map()
        image = inspect.getclosurevars(predicate).nonlocals["image"]
        changed = [a for a, old in zip(basis, before) for g in a.terms if image[g] != old]
        assert [next(iter(a.terms)).perm for a in changed] == [swap] * 16
        failing = [(a, b) for c, a, b in itertools.product(*domain) if not predicate(c, a, b)]
        assert len(failing) == want
        assert all(next(iter(a.terms)).perm == next(iter(b.terms)).perm == swap for a, b in failing)
        assert failing == [(a, b) for c, a, b in itertools.product(*domain) if not reference_j_c_multiplicative(c, a, b)]


def test_check_result_json_form():
    passed = CheckResult("orders-grid", {"m": 2}, True)
    assert passed.to_json() == {"check": "orders-grid", "params": {"m": 2}, "pass": True}
    failed = CheckResult("singular-list", {"n": 3}, False, "witness")
    assert failed.to_json() == {"check": "singular-list", "params": {"n": 3}, "pass": False, "detail": "witness"}


def test_run_all_small_grid_green():
    results = run_all(SMALL)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    payloads = [r.to_json() for r in results]
    assert all(set(p) >= {"check", "params", "pass"} for p in payloads)
