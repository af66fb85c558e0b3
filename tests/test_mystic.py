"""Tests for the det-twist correspondence, operator equivalence, the group
ring change of basis and faithfulness ranks."""

from fractions import Fraction

import pytest

from mystica.cyclo import Cyclotomic, cyc_make, in_gaussian_half_ring, parse_scalar
from mystica.groupalg import GroupAlgebraElement, e_group, j_c, q_w_element
from mystica.groups import closure_generate, make_gmpn, make_w, mu_group
from mystica.monomial import MonomialElement, torus_gen
from mystica.mystic import (
    EquivalenceReport,
    GroupRingIsoReport,
    _class_digits,
    _packed_centre,
    faithfulness_rank,
    faithfulness_saturation_degree,
    group_ring_iso_check,
    mystic_equiv_check,
    unique_equivalent_thick,
)
from mystica.linalg import _insert_pivot
from mystica.qpoly import _c_key, _field_order, class_sum_terms, default_truncation_degree, operator_matrix
from mystica.verify import SATURATION_SLACK, VerifyConfig, _even_m_cells, independence_groups


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
    assert frozenset(image.terms) == frozenset({s1 * tau1, s1 * tau2})
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


# -- the group-ring check against its element-by-element reference -----------

GROUP_RING_CELLS = list(_even_m_cells(VerifyConfig(), "group-ring-change-of-basis"))


def _reference_group_ring_iso_check(G):
    """The element-by-element check: J_c of every element of G and of mu(G),
    and the two twists composed on every basis element."""
    mu = mu_group(G)
    c = Cyclotomic.root(G.N, G.N // 4)

    def twist(c, source, target):
        images = {g: j_c(c, GroupAlgebraElement.from_element(g)) for g in source.elements}
        support = all(frozenset(img.terms) <= target.element_set() for img in images.values())
        ring = all(in_gaussian_half_ring(v) for img in images.values() for v in img.terms.values())
        return images, support, ring

    def composes(images, back):
        # following each g -> images[g] by h -> back[h] gives g back
        for g, img in images.items():
            acc = GroupAlgebraElement(g.n, g.N)
            for h, coeff in img.items():
                acc = acc + GroupAlgebraElement(g.n, g.N, {k: v * coeff for k, v in back[h].items()})
            if acc != GroupAlgebraElement.from_element(g):
                return False
        return True

    images, support, ring = twist(c, G, mu)
    inverse_images, inv_support, inv_ring = twist(c.inverse(), mu, G)
    invertible = (
        len(G) == len(mu)
        and support
        and inv_support
        and composes(images, inverse_images)
        and composes(inverse_images, images)
    )
    return GroupRingIsoReport(G.tag.label, mu.tag.label, G.order, support, ring, inv_support, inv_ring, invertible)


def test_group_ring_iso_check_matches_reference_on_grid():
    assert len(GROUP_RING_CELLS) == 18
    for m, p, n in GROUP_RING_CELLS:
        G = make_gmpn(m, p, n)
        report = group_ring_iso_check(G)
        assert report == _reference_group_ring_iso_check(G), (m, p, n)
        assert report.passed, (m, p, n)


_BREAKS = {
    "plus-one": lambda q, n, N: q + GroupAlgebraElement.one(n, N),
    "third": lambda q, n, N: q * GroupAlgebraElement(n, N, {MonomialElement.identity(n, N): Fraction(1, 3)}),
    "zeta-term": lambda q, n, N: q + GroupAlgebraElement.from_element(torus_gen(n, N, 1, 1)),
}

# break -> {cell: the report fields that fail there}; Q + 1 also breaks the
# supports where mu(G) differs from G, so only its invertibility cells are pinned
_BROKEN_FIELDS = {
    "plus-one": {
        (2, 1, 2): {"change_of_basis_invertible"},
        (4, 2, 3): {"change_of_basis_invertible"},
    },
    "third": dict.fromkeys(
        [(2, 1, 2), (4, 2, 3), (2, 2, 3)],
        {"coefficients_in_ring", "inverse_coefficients_in_ring", "change_of_basis_invertible"},
    ),
    "zeta-term": dict.fromkeys(
        [(2, 1, 2), (4, 2, 3), (2, 2, 3)],
        {"support_contained", "inverse_support_contained", "change_of_basis_invertible"},
    ),
}


@pytest.mark.parametrize("name", sorted(_BREAKS))
def test_group_ring_iso_check_fails_with_reference_on_a_broken_q_w(monkeypatch, name):
    # break Q_w^(c) of the transposition (1 2) for every c, in the name j_c
    # reads and in the name the per-permutation check reads
    def broken(c, perm, n, N):
        q = q_w_element(c, perm, n, N)
        return _BREAKS[name](q, n, N) if tuple(perm) == (1, 0) + tuple(range(2, n)) else q

    monkeypatch.setattr("mystica.groupalg.q_w_element", broken)
    monkeypatch.setattr("mystica.mystic.q_w_element", broken)
    for m, p, n in [(2, 1, 2), (4, 2, 3), (2, 2, 3)]:
        G = make_gmpn(m, p, n)
        report = group_ring_iso_check(G)
        assert report == _reference_group_ring_iso_check(G), (m, p, n)
        assert not report.passed, (m, p, n)
        if (m, p, n) in _BROKEN_FIELDS[name]:
            failed = {field for field in GroupRingIsoReport._fields[3:] if not getattr(report, field)}
            assert failed == _BROKEN_FIELDS[name][m, p, n], (m, p, n)


def test_faithfulness_rank_examples():
    G = make_gmpn(2, 2, 2)
    assert faithfulness_rank(G, 1, 2) == 4
    trivial = closure_generate((4, 2), [])
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


def _small_search_groups():
    """The criterion-9 cells of order at most 32, built afresh on each call,
    so that the entries one test fills are freed with its groups."""
    return [G for G in independence_groups(VerifyConfig()) if G.order <= 32]


_SMALL_SEARCH_IDS = [G.tag.label for G in _small_search_groups()]


@pytest.mark.parametrize("index", range(len(_SMALL_SEARCH_IDS)), ids=_SMALL_SEARCH_IDS)
def test_saturation_search_matches_reference(index):
    G = _small_search_groups()[index]
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


def _all_columns_class_sum_search(G, c, max_degree):
    """The class-sum search on every slice column, eliminated over the field:
    each position (degree, row, column) of the class-sum operators gives a
    column of class values, and the distinct ones join one reduced-echelon
    pivot set of Cyclotomic rows."""
    classes = class_sum_terms(G)
    pivots: dict = {}
    for d in range(max_degree + 1):
        columns: dict = {}
        for i, class_sum in enumerate(classes):
            for position, v in operator_matrix(class_sum, c, d).entries.items():
                columns.setdefault(position, {})[i] = v
        distinct = {tuple((i, v.order, v.nums, v.den) for i, v in col.items()): col for col in columns.values()}
        for column in distinct.values():
            if _insert_pivot(column, pivots) and len(pivots) == len(classes):
                return d, G.order
    return None, faithfulness_rank(G, c, max_degree)


def _orbit_search_groups():
    """Every criterion-9 cell, W(3,1,3) (permutation image A_3) and a torus
    group (trivial image), built afresh on each call, so that the class-sum
    entries one test fills are freed with its group."""
    return independence_groups(VerifyConfig()) + [
        make_w(3, 1, 3),
        closure_generate((4, 2), [torus_gen(2, 4, 1, 1), torus_gen(2, 4, 2, 2)]),
    ]


_ORBIT_SEARCH_IDS = [G.tag.label for G in _orbit_search_groups()]


@pytest.mark.parametrize("index", range(len(_ORBIT_SEARCH_IDS)), ids=_ORBIT_SEARCH_IDS)
def test_orbit_column_search_matches_the_all_columns_search(index):
    # the same degree as verify's criterion 9 searches to; every cell
    # saturates there, so the rank is the group order
    G = _orbit_search_groups()[index]
    max_degree = G.n * G.N + SATURATION_SLACK
    for c in C_VALUES:
        expected = _all_columns_class_sum_search(G, c, max_degree)
        assert expected[0] is not None
        assert faithfulness_saturation_degree(G, c, max_degree) == expected, c


# c values whose twist rows have denominators (5/3, 7/2 - 3 zeta4), an order
# other than N's (2 + zeta3) or a large numerator (-3), which set D and the
# digit width of the packed centre
STRESS_C_VALUES = (-3, Fraction(5, 3), parse_scalar("2+zeta3"), parse_scalar("7/2+-3*zeta4"))


@pytest.mark.parametrize("index", range(len(_SMALL_SEARCH_IDS)), ids=_SMALL_SEARCH_IDS)
def test_packed_search_matches_the_all_columns_search_at_stress_c(index):
    G = _small_search_groups()[index]
    max_degree = G.n * G.N + SATURATION_SLACK
    for c in STRESS_C_VALUES:
        assert faithfulness_saturation_degree(G, c, max_degree) == _all_columns_class_sum_search(G, c, max_degree), c


@pytest.mark.parametrize("make", [lambda: make_gmpn(4, 1, 2), lambda: make_w(4, 1, 3)], ids=["G(4,1,2)", "W(4,1,3)"])
def test_packed_centre_digits_are_the_class_values(make):
    # the centre is linear in the class sums: the digits read off each entry
    # of the packed operator are D times the power-basis coordinates of every
    # class sum's entry there, on every column
    G = make()
    for c in C_VALUES:
        c_key = _c_key(c)
        centre, k, width, D = _packed_centre(G, c_key)
        classes = class_sum_terms(G)
        assert k == len(classes)
        L = _field_order(c_key, G.N)
        for d in range(7):
            packed = operator_matrix(centre, c, d).entries
            per_class = [operator_matrix(C, c, d).entries for C in classes]
            positions = set(packed).union(*per_class)
            for position in positions:
                expected = []
                for entries in per_class:
                    v = entries.get(position, Cyclotomic.zero(L)).lift(L)
                    assert all(x * D % v.den == 0 for x in v.nums)
                    expected.append([x * D // v.den for x in v.nums])
                phi = len(expected[0])
                row = _class_digits(packed[position], k, width, D) if position in packed else [0] * (k * phi)
                assert [row[i * phi : (i + 1) * phi] for i in range(k)] == expected, (c, d, position)


def test_a_packed_entry_outside_the_digit_range_raises():
    G = make_gmpn(4, 1, 2)
    _, k, width, D = _packed_centre(G, _c_key(Fraction(5, 3)))
    assert D % 7
    with pytest.raises(ValueError):
        _class_digits(parse_scalar("1/7"), k, width, D)  # a denominator that does not divide D
    with pytest.raises(ValueError):
        _class_digits(Cyclotomic.rational(1 << (k * width)), k, width, D)
