"""Tests for fingerprints, the isomorphism decision, the dichotomy and the
verification checks of criteria 5, 7 and 8 that run on them."""

from collections import Counter
from math import gcd, lcm

import pytest

from mystica.classify import ISO_CAP, Verdict, _MultTable, certified_isomorphic, fingerprint, isomorphic, regular_singular
from mystica.groups import CapExceededError, FiniteMonomialGroup, enumerate_thick, make_gmpn, make_w, mu_group
from mystica.verify import (
    CheckResult,
    VerifyConfig,
    check_classification,
    check_isomorphism_parity,
    check_singular_list,
    thick_atlas,
)


def _predicted_computed(result: CheckResult) -> tuple[bool, bool]:
    """(predicted, computed) read back from a "predicted X, computed Y" detail."""
    predicted, computed = (part.split()[1] == "True" for part in result.detail.split(", "))
    return predicted, computed


def test_fingerprint_examples():
    fp = fingerprint(make_gmpn(2, 2, 2))
    assert fp.order_histogram == ((1, 1), (2, 3))
    fp = fingerprint(mu_group(make_gmpn(2, 2, 2)))
    assert fp.order_histogram == ((1, 1), (2, 1), (4, 2))


def test_element_orders_per_class_match_every_element():
    # the histogram and the search table read each order off a class rep;
    # against element_order on every element of the classification grid
    grid = [T for _, T in thick_atlas(*VerifyConfig().bounds("classification-grid")) if T.order <= ISO_CAP]
    assert len(grid) > 20
    for G in grid:
        orders = [a.element_order() for a in G.elements]
        assert fingerprint(G).order_histogram == tuple(sorted(Counter(orders).items())), G
        assert _MultTable(G).orders == orders, G


def test_fingerprint_equal_for_isomorphic_groups():
    assert fingerprint(make_gmpn(2, 2, 3)) == fingerprint(make_gmpn(1, 1, 4))
    assert fingerprint(make_gmpn(2, 2, 2)) != fingerprint(make_w(2, 1, 2))


def test_isomorphic_examples():
    G = make_gmpn(2, 2, 2)
    assert not isomorphic(G, mu_group(G))
    assert isomorphic(make_gmpn(2, 2, 3), make_gmpn(1, 1, 4))
    assert isomorphic(G, G)


def test_isomorphic_respects_cap():
    with pytest.raises(CapExceededError):
        isomorphic(make_gmpn(4, 1, 3), make_gmpn(4, 1, 3), cap=100)


def test_isomorphic_on_same_order_nonisomorphic_pairs():
    # Klein four vs cyclic four
    assert not isomorphic(make_gmpn(2, 2, 2), make_w(2, 1, 2))
    # dihedral vs quaternion of order 8
    assert not isomorphic(make_gmpn(2, 1, 2), make_w(4, 1, 2))
    # two groups of order 96 that are counterparts of each other (rank 3, odd)
    assert isomorphic(make_gmpn(4, 4, 3), make_w(4, 1, 3))


def test_dihedral_coincidence_across_levels():
    # two monomial realizations of the dihedral group of order 8
    assert isomorphic(make_gmpn(4, 4, 2), make_gmpn(2, 1, 2))
    # and of the symmetric group on three letters, at different ranks
    assert isomorphic(make_gmpn(3, 3, 2), make_gmpn(1, 1, 3))


def test_regular_singular_examples():
    assert regular_singular(make_gmpn(2, 1, 2)).status == "singular"
    assert regular_singular(make_gmpn(1, 1, 5)).status == "regular"
    assert regular_singular(mu_group(make_gmpn(2, 2, 2))).status == "singular"
    assert regular_singular(make_gmpn(2, 1, 3)).status == "regular"
    report = regular_singular(make_gmpn(2, 2, 2))
    assert report.status == "singular"
    # any normal abelian subgroup distinct from the torus part that reaches
    # its order witnesses singularity; in the Klein four-group {1, s_1} does
    assert report.witness is not None
    assert report.witness.order >= report.torus_order
    assert frozenset(report.witness.elements) != frozenset(
        make_gmpn(2, 2, 2).torus_elements()
    )


def test_singular_witnesses_verify_element_by_element():
    # the lattice machinery's witnesses hold up under direct checks, for all
    # six singular groups beyond the expected list
    from mystica.groups import enumerate_thick

    extras = [
        make_gmpn(2, 2, 4),
        make_gmpn(3, 3, 3),
        make_gmpn(4, 2, 2),
        make_gmpn(4, 4, 2),
        make_w(4, 1, 2),
        next(g for g in enumerate_thick(4, 2) if g.tag.kind == "generated"),
    ]
    for G in extras:
        rep = regular_singular(G)
        assert rep.status == "singular", G
        S = rep.witness.element_set()
        torus = frozenset(G.torus_elements())
        assert all(a * b in S for a in S for b in S)
        assert all(a * b == b * a for a in S for b in S)
        assert all(g * x * g.inverse() in S for g in G for x in S)
        assert S != torus and len(S) >= len(torus)


def test_not_iso_grid_matches_parity_everywhere():
    results = check_isomorphism_parity(VerifyConfig(max_m=4, max_n=4))
    assert all(r.passed for r in results)
    cells = {tuple(r.params.values()): _predicted_computed(r) for r in results}
    assert cells[(2, 2, 2)] == (False, False)
    assert cells[(2, 2, 3)] == (True, True)
    assert cells[(4, 2, 2)] == (True, True)  # m/p even: same subgroup
    assert cells[(2, 2, 4)] == (False, False)


def test_classification_grid_structure():
    results = check_classification(VerifyConfig(max_m=2, max_n=4))
    assert results and all(r.check == "classification-grid" for r in results)
    assert all(r.passed for r in results)  # no defects below level 3
    labels = {(r.params["left"], r.params["right"]) for r in results}
    assert ("G(2,2,3)", "G(1,1,4)") in labels
    assert ("W(2,1,3)", "G(1,1,4)") in labels


def test_classification_grid_finds_known_coincidences():
    results = check_classification(VerifyConfig(max_m=4, max_n=4))
    computed_iso = {
        frozenset((r.params["left"], r.params["right"]))
        for r in results
        if _predicted_computed(r)[1]
    }
    assert frozenset(("G(2,2,3)", "W(2,1,3)")) in computed_iso
    assert frozenset(("G(2,2,3)", "G(1,1,4)")) in computed_iso
    assert frozenset(("G(4,4,3)", "W(4,1,3)")) in computed_iso
    # the two coincidences outside the predicted characterization
    mismatch_pairs = {
        frozenset((r.params["left"], r.params["right"])) for r in results if not r.passed
    }
    assert mismatch_pairs == {
        frozenset(("G(2,1,2)", "G(4,4,2)")),
        frozenset(("G(3,3,2)", "G(1,1,3)")),
    }


def test_singular_list_level_two():
    # at level m <= 2 the six known singular groups appear, plus the
    # rank-four group whose Klein-times-center subgroup ties the torus order
    results = check_singular_list(VerifyConfig(max_m=2, max_n=4))
    expected = [r for r in results if r.detail == "expected singular"]
    assert all(r.passed for r in expected)
    found = {r.params["group"] for r in results}
    assert found == {
        "G(1,1,2)",
        "G(1,1,3)",
        "G(1,1,4)",
        "G(2,1,2)",
        "G(2,2,2)",
        "W(2,1,2)",
        "G(2,2,4)",
    }


def test_thick_entries_generate_the_level_roots():
    # every thick subgroup of G(m,1,n) contains the det-1 torus, whose entries
    # have order m, so the entries of T generate exactly mu_m; no thick
    # subgroup occurs at two levels and thick_atlas needs no deduplication
    for m in range(1, 5):
        for n in range(2, 4):
            for T in enumerate_thick(m, n):
                entry_orders = {T.N // gcd(T.N, e) for g in T.elements for e in g.exps}
                assert lcm(*entry_orders) == m, (m, T.tag.label)


def test_thick_atlas_reads_the_group_size_cap(monkeypatch):
    # G(3,1,3) has order 162 and G(2,1,3) order 48: a cap of 100 drops the
    # level-3 rank-3 thick subgroups and keeps the rest of the atlas
    full = [T.tag.label for _, T in thick_atlas(3, 3)]
    monkeypatch.setenv("MYSTICA_CAP", "100")
    narrowed = [T.tag.label for _, T in thick_atlas(3, 3)]
    assert "G(3,1,3)" in full and "G(3,3,3)" in full
    assert narrowed == [label for label in full if label not in ("G(3,1,3)", "G(3,3,3)")]


def _explicit(G):
    """G as an explicit group, with no known generators: its IndexedGroup
    takes the greedy generating set."""
    return FiniteMonomialGroup(G.n, G.N, G.elements)


def _criterion_5_pairs():
    for m in (2, 4):
        for n in (2, 3, 4):
            for p in (p for p in range(1, m + 1) if m % p == 0):
                G = make_gmpn(m, p, n)
                if G.order <= ISO_CAP:
                    yield G, mu_group(G)


def _criterion_7_pairs():
    atlas = [T for _, T in thick_atlas(4, 3) if T.order <= ISO_CAP]
    for i, G in enumerate(atlas):
        for H in atlas[i + 1 :]:
            if G.order == H.order:
                yield G, H


def test_isomorphism_verdicts_do_not_depend_on_the_generators_searched():
    # the search extends the first group's generators: the known ones of a
    # family group, the greedy ones of its explicit copy; the verdict is the
    # same either way, on criterion 5's cells and criterion 7's pairs
    cells, atlas_pairs = list(_criterion_5_pairs()), list(_criterion_7_pairs())
    assert (len(cells), len(atlas_pairs)) == (12, 9)
    pairs = cells + atlas_pairs
    verdicts = set()
    for G, H in pairs:
        family = isomorphic(G, H)
        assert isomorphic(_explicit(G), _explicit(H)) == family, (G, H)
        assert isomorphic(_explicit(G), H) == isomorphic(G, _explicit(H)) == family, (G, H)
        verdicts.add(family)
    assert verdicts == {True, False}


# -- criterion 5 by certificates ---------------------------------------------


def _counterpart_cells():
    """The 12 cells criterion 5 runs, and further even-level cells: m <= 8
    with n <= 3, and m = 2 with n = 4, wherever the order is at most ISO_CAP."""
    cells = {(m, p, n) for m in (2, 4) for n in (2, 3, 4) for p in range(1, m + 1) if m % p == 0}
    cells |= {(m, p, n) for m in (2, 4, 6, 8) for n in (2, 3) for p in range(1, m + 1) if m % p == 0}
    for m, p, n in sorted(cells):
        G = make_gmpn(m, p, n)
        if G.order <= ISO_CAP:
            yield G, mu_group(G)


def test_certified_decision_matches_the_search_on_counterpart_cells():
    # the sign twist decides every isomorphic cell and the order histogram
    # every other one; no cell falls back to the search
    pairs = list(_counterpart_cells())
    assert len(pairs) == 23
    assert {G.tag.params for G, _ in _criterion_5_pairs()} <= {G.tag.params for G, _ in pairs}
    certificates = set()
    for G, mu in pairs:
        verdict = certified_isomorphic(G, mu)
        assert verdict.isomorphic == isomorphic(G, mu), G
        assert verdict.certificate == ("sign twist" if verdict.isomorphic else "order histogram"), G
        certificates.add(verdict.certificate)
    assert certificates == {"sign twist", "order histogram"}


def test_isomorphism_parity_makes_no_search(monkeypatch):
    from mystica import classify, verify

    def refuse(*args, **kwargs):
        raise AssertionError("isomorphic was called")

    monkeypatch.setattr(classify, "isomorphic", refuse)
    monkeypatch.setattr(verify, "isomorphic", refuse)
    results = check_isomorphism_parity(VerifyConfig())
    assert len(results) == 12 and all(r.passed for r in results)


def _moved(G, parity: int, shift: int) -> frozenset:
    """{zeta^shift I * g for the g with perm_sign parity, g otherwise}."""
    from mystica.monomial import central_scalar, perm_sign

    scalar = central_scalar(G.n, G.N, shift)
    return frozenset(scalar * g if perm_sign(g.perm) == parity else g for g in G)


@pytest.mark.parametrize("m, p, n", [(2, 2, 3), (4, 4, 3)])
def test_only_the_odd_half_turn_carries_the_group_onto_its_counterpart(m, p, n):
    # G and mu(G) differ as sets; -I on the odd blocks carries one onto the
    # other, and neither -I on the even blocks nor zeta^(N/4) I on the odd
    # ones does
    G = make_gmpn(m, p, n)
    mu = mu_group(G)
    assert G.element_set() != mu.element_set()
    assert G.sign_twist() == mu and _moved(G, -1, G.N // 2) == mu.element_set()
    assert _moved(G, 1, G.N // 2) != mu.element_set()
    assert _moved(G, -1, G.N // 4) != mu.element_set()


def test_a_pair_neither_certificate_decides_goes_to_the_search(monkeypatch):
    from mystica.groups import FiniteMonomialGroup

    # different ranks: no twist applies and the histograms agree
    assert certified_isomorphic(make_gmpn(2, 2, 3), make_gmpn(1, 1, 4)) == Verdict(True, "search")
    assert certified_isomorphic(make_gmpn(3, 3, 2), make_gmpn(1, 1, 3)) == Verdict(True, "search")
    # equal histograms forced: the non-isomorphic cells fall back to the search
    monkeypatch.setattr(FiniteMonomialGroup, "order_histogram", lambda self: ((1, self.order),))
    for m, p, n in ((2, 2, 2), (2, 2, 4), (4, 4, 2)):
        G = make_gmpn(m, p, n)
        mu = mu_group(G)
        assert certified_isomorphic(G, mu) == Verdict(isomorphic(G, mu), "search") == Verdict(False, "search")
    G = make_gmpn(4, 2, 3)
    assert certified_isomorphic(G, mu_group(G)) == Verdict(True, "sign twist")
