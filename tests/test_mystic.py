"""Tests for the det-twist correspondence, operator equivalence, the group
ring change of basis and faithfulness ranks."""

import pytest

from mystica.cyclo import cyc_make, parse_scalar
from mystica.groupalg import GroupAlgebraElement, e_group, j_c
from mystica.groups import closure_generate, make_gmpn, make_w, mu_group
from mystica.mystic import (
    EquivalenceReport,
    faithfulness_rank,
    faithfulness_saturation_degree,
    group_ring_iso_check,
    mystic_equiv_check,
    unique_equivalent_thick,
)
from mystica.qpoly import default_truncation_degree
from mystica.verify import VerifyConfig, independence_groups


def test_mu_of_smallest_even_group_is_cyclic_four():
    G = make_gmpn(2, 2, 2)
    mu = mu_group(G)
    assert mu == make_w(2, 1, 2)
    assert mu.order == 4


def test_mu_fixed_point_when_quotient_even():
    for m, p, n in [(2, 1, 2), (4, 2, 2), (4, 1, 2), (2, 1, 3)]:
        if (m // p) % 2 == 0:
            G = make_gmpn(m, p, n)
            assert mu_group(G) == G


def test_mu_preserves_order():
    G = make_gmpn(6, 3, 2)
    assert mu_group(G).order == 24 == G.order


def test_mu_rejects_odd_m():
    with pytest.raises(ValueError):
        mu_group(make_gmpn(1, 1, 3))
    with pytest.raises(ValueError):
        mu_group(make_gmpn(3, 1, 2))


def test_equiv_check_on_klein_four():
    G = make_gmpn(2, 2, 2)
    mu = mu_group(G)
    report = mystic_equiv_check(G, 0, mu, 1, 4)
    assert report.verdict
    assert report.per_degree == (True,) * 5
    data = report.to_json()
    assert data["D"] == 4 and data["verdict"] is True


def test_equiv_check_reflexive():
    for G in (make_gmpn(2, 2, 2), make_gmpn(2, 1, 2)):
        assert mystic_equiv_check(G, 0, G, 0, 3).verdict


def test_equiv_check_rejects_different_groups():
    report = mystic_equiv_check(make_gmpn(2, 1, 2), 0, make_gmpn(2, 2, 2), 0, 2)
    assert not report.verdict
    # equal-order groups with different invariants are told apart by degree 2
    W = make_w(2, 1, 2)
    K = make_gmpn(2, 2, 2)
    report = mystic_equiv_check(K, 0, W, 0, 2)
    assert report.per_degree[0]
    assert not report.verdict


def test_j_i_maps_group_sum_to_counterpart_sum():
    for m, p, n in [(2, 2, 2), (2, 1, 2), (4, 4, 2), (2, 2, 3)]:
        G = make_gmpn(m, p, n)
        mu = mu_group(G)
        c = cyc_make(4, 1)
        assert j_c(c, e_group(G)) == e_group(mu)


def test_uniqueness_scan_small():
    G = make_gmpn(2, 2, 2)
    D = default_truncation_degree(2, 2, 2)
    matches = unique_equivalent_thick(G, D)
    assert len(matches) == 1
    assert matches[0] == mu_group(G)


def test_equivalence_symmetric_and_transitive_on_family():
    G = make_gmpn(2, 2, 2)
    mu = mu_group(G)
    D = 6
    assert mystic_equiv_check(G, 0, mu, 1, D).verdict
    assert mystic_equiv_check(mu, 1, G, 0, D).verdict
    # transitivity across a chain: G ~ mu and mu ~ mu gives G ~ mu
    assert mystic_equiv_check(mu, 1, mu, 1, D).verdict


def test_group_ring_iso_check_klein_four():
    report = group_ring_iso_check(make_gmpn(2, 2, 2))
    assert report.passed
    # the twist of the plain swap lands on the two twisted swaps
    from mystica.groupalg import GroupAlgebraElement
    from mystica.monomial import adjacent_swap, torus_gen
    from mystica.cyclo import parse_scalar

    s1 = adjacent_swap(2, 4, 1)
    image = j_c(cyc_make(4, 1), GroupAlgebraElement.from_element(s1))
    tau1 = torus_gen(2, 4, 1, 2)
    tau2 = torus_gen(2, 4, 2, 2)
    assert image.support() == frozenset({s1 * tau1, s1 * tau2})
    assert image.terms[s1 * tau1] == parse_scalar("1/2 + -1/2*zeta4^1")
    assert image.terms[s1 * tau2] == parse_scalar("1/2 + 1/2*zeta4^1")


def test_group_ring_iso_check_trivial_when_counterpart_equal():
    report = group_ring_iso_check(make_gmpn(4, 2, 2))
    assert report.passed


def test_group_ring_iso_check_depth_two():
    report = group_ring_iso_check(make_gmpn(4, 4, 2))
    assert report.passed
    assert report.order == 8
    report = group_ring_iso_check(make_gmpn(4, 1, 2))
    assert report.passed
    assert report.order == 32


def test_faithfulness_rank_examples():
    G = make_gmpn(2, 2, 2)
    assert faithfulness_rank(G, 1, 2) == 4
    trivial = closure_generate((4, 2), [])
    trivial = trivial.retag(trivial.tag)
    assert faithfulness_rank(trivial, 1, 0) == 1
    assert faithfulness_rank(make_gmpn(2, 1, 2), 1, 0) == 1


def test_faithfulness_rank_monotone_and_saturating():
    G = make_gmpn(2, 1, 2)
    ranks = [faithfulness_rank(G, 0, d) for d in range(5)]
    assert ranks == sorted(ranks)
    d, rank = faithfulness_saturation_degree(G, 0, G.n * G.N)
    assert rank == G.order
    assert d is not None and d <= G.n * G.N


def test_faithfulness_deficit_at_level_four_confirmed_exactly():
    # the operators of G(4,1,2) satisfy one linear relation on degrees <= 8
    # and become independent at degree 10; by exact cyclotomic elimination
    G = make_gmpn(4, 1, 2)
    assert faithfulness_rank(G, 0, 8) == 31
    assert faithfulness_rank(G, 0, 10) == 32


def test_saturation_unknown_without_certificate():
    # no degree up to 2 saturates W(4,1,3), order 96: the rank there is
    # reported exactly
    G = make_w(4, 1, 3)
    assert faithfulness_saturation_degree(G, 0, 2) == (None, 28) == (None, faithfulness_rank(G, 0, 2))


# -- the saturation search against its slow reference -------------------------

C_VALUES = (0, 1, cyc_make(4, 1), parse_scalar("1/2+1/2*zeta4"))


def _reference_saturation(G, c, max_degree):
    """The element-level exact scan: the first degree bound at which
    faithfulness_rank reaches the group order, else the rank at max_degree."""
    for d in range(max_degree + 1):
        if faithfulness_rank(G, c, d) == G.order:
            return d, G.order
    return None, faithfulness_rank(G, c, max_degree)


SMALL_INDEPENDENCE_GROUPS = [G for G in independence_groups(VerifyConfig()) if G.order <= 32]


@pytest.mark.parametrize("G", SMALL_INDEPENDENCE_GROUPS, ids=lambda G: G.tag.label)
def test_saturation_search_matches_reference(G):
    for c in C_VALUES:
        for max_degree in (1, G.n * G.N + 2):
            expected = _reference_saturation(G, c, max_degree)
            assert faithfulness_saturation_degree(G, c, max_degree) == expected, (c, max_degree)


def test_saturation_search_above_exact_order_matches_reference():
    # order 96: the degree found on the class sums is exactly the one at
    # which the element operators become independent
    G = make_w(4, 1, 3)
    for c in (0, cyc_make(4, 1)):
        d, rank = faithfulness_saturation_degree(G, c, G.n * G.N)
        assert rank == G.order and d is not None, c
        assert faithfulness_rank(G, c, d - 1) < G.order == faithfulness_rank(G, c, d), c
