"""Tests for group construction, closure and structural predicates."""

import itertools
import random
from collections import Counter
from math import factorial, gcd, lcm, prod

import pytest

from mystica.groups import (
    CapExceededError,
    FiniteMonomialGroup,
    GroupTag,
    IndexedGroup,
    ambient_order,
    closure_generate,
    enumerate_thick,
    is_thick,
    make_gmpn,
    make_w,
    structure_probes,
    torus_part,
)
from mystica.monomial import MonomialElement, adjacent_swap, perm_sign, torus_gen


def test_closure_of_empty_set_is_trivial():
    G = closure_generate((4, 2), [])
    assert G.order == 1


def test_closure_of_adjacent_swaps_is_symmetric_group():
    N = ambient_order(1)
    gens = [adjacent_swap(3, N, 1), adjacent_swap(3, N, 2)]
    G = closure_generate((N, 3), gens)
    assert G.order == 6
    assert all(all(e == 0 for e in a.exps) for a in G)


def test_closure_of_twisted_swap_is_cyclic_of_order_four():
    sigma = adjacent_swap(2, 4, 1) * torus_gen(2, 4, 1, 2)
    G = closure_generate((4, 2), [sigma])
    assert G.order == 4
    powers = {sigma, sigma * sigma, sigma * sigma * sigma, MonomialElement.identity(2, 4)}
    assert G.element_set() == frozenset(powers)


def test_closure_cap():
    with pytest.raises(CapExceededError):
        closure_generate((4, 3), [adjacent_swap(3, 4, 1), adjacent_swap(3, 4, 2), torus_gen(3, 4, 1, 1)], cap=10)


def test_gmpn_klein_four():
    G = make_gmpn(2, 2, 2)
    tau12 = torus_gen(2, 4, 1, 2) * torus_gen(2, 4, 2, 2)
    s1 = adjacent_swap(2, 4, 1)
    assert G.element_set() == frozenset({MonomialElement.identity(2, 4), s1, tau12, s1 * tau12})
    assert G.order == 4


def test_gmpn_symmetric_group_and_order_formula():
    assert make_gmpn(1, 1, 3).order == 6
    assert make_gmpn(6, 3, 2).order == 24
    with pytest.raises(ValueError):
        make_gmpn(6, 4, 2)


def test_w_order_four_cyclic():
    W = make_w(2, 1, 2)
    s1 = adjacent_swap(2, 4, 1)
    tau1 = torus_gen(2, 4, 1, 2)
    tau2 = torus_gen(2, 4, 2, 2)
    expected = {MonomialElement.identity(2, 4), tau1 * tau2, s1 * tau1, s1 * tau2}
    assert W.element_set() == frozenset(expected)


def test_w_with_full_det_subgroup_is_gm1n():
    for m, n in [(2, 2), (2, 3), (4, 2)]:
        assert make_w(m, m, n) == make_gmpn(m, 1, n)


def test_w_order_formula():
    assert make_w(2, 1, 3).order == 2**2 * 1 * 6
    with pytest.raises(ValueError):
        make_w(4, 3, 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_order_formula_on_grid(m):
    for n in (2, 3):
        for p in range(1, m + 1):
            if m % p == 0:
                assert make_gmpn(m, p, n).order == m**n * factorial(n) // p


def test_w_equals_g_when_quotient_even():
    # same element sets whenever m/p is even
    for m, p, n in [(2, 1, 2), (4, 2, 2), (4, 1, 2), (2, 1, 3), (6, 3, 2)]:
        if (m // p) % 2 == 0:
            assert make_w(m, m // p, n) == make_gmpn(m, p, n)
    assert make_w(2, 2, 2) == make_gmpn(2, 1, 2)
    assert make_w(4, 2, 2) == make_gmpn(4, 2, 2)


def test_is_thick_examples():
    assert is_thick(make_gmpn(2, 2, 2), 2)
    # S_n inside G(2,1,n) is not normal
    sym = make_gmpn(1, 1, 2).lift(4)
    assert not is_thick(sym, 2)
    trivial = closure_generate((4, 2), [])
    assert not is_thick(trivial, 2)
    with pytest.raises(ValueError):
        is_thick(make_gmpn(4, 1, 2), 2)


def test_enumerate_thick_rank_two():
    found = enumerate_thick(2, 2)
    assert len(found) == 3
    expected = {make_gmpn(2, 1, 2), make_gmpn(2, 2, 2), make_w(2, 1, 2)}
    assert set(found) == expected
    labels = {g.tag.label for g in found}
    assert labels == {"G(2,1,2)", "G(2,2,2)", "W(2,1,2)"}


def test_enumerate_thick_trivial_torus():
    found = enumerate_thick(1, 3)
    assert len(found) == 1
    assert found[0] == make_gmpn(1, 1, 3)


def test_enumerate_thick_rank_three():
    found = enumerate_thick(2, 3)
    expected = {make_gmpn(2, 1, 3), make_gmpn(2, 2, 3), make_w(2, 1, 3)}
    assert set(found) == expected


def test_every_enumerated_thick_subgroup_is_thick():
    for m, n in [(2, 2), (3, 2), (2, 3)]:
        for G in enumerate_thick(m, n):
            assert is_thick(G, m)


@pytest.mark.parametrize("n", [2, 3])
def test_level_four_extra_thick_subgroup_verified_directly(n):
    # at level four the enumeration finds one subgroup outside the standard
    # families: {tw : det t in i^(sgn w) C'} with C' = {1,-1}; verify its
    # thickness element by element, independently of the lattice machinery
    found = enumerate_thick(4, n)
    extras = [G for G in found if G.tag.kind == "generated"]
    assert len(extras) == 1
    M = extras[0]
    amb = make_gmpn(4, 1, n)
    S = M.element_set()
    assert all(a * b in S for a in S for b in S)  # closed
    assert all(g * x * g.inverse() in S for g in amb for x in S)  # normal
    assert len({a.perm for a in S}) == factorial(n)  # full projection
    # det t lands in {1,-1} on even permutations and in {i,-i} on odd ones
    for a in S:
        dt = sum(a.exps) % 4
        if perm_sign(a.perm) == 1:
            assert dt in (0, 2)
        else:
            assert dt in (1, 3)
    # and it is none of the standard groups
    for p in (1, 2, 4):
        assert M != make_gmpn(4, p, n)
        assert M != make_w(4, p, n)


def test_torus_part_examples():
    T = torus_part(make_gmpn(2, 2, 2))
    assert T.order == 2
    assert T.cprime_order == 1
    assert T.form_matches and T.generation_matches

    T = torus_part(make_gmpn(2, 1, 2))
    assert T.order == 4
    assert T.cprime_order == 2
    assert T.form_matches and T.generation_matches

    T = torus_part(make_w(2, 1, 2))
    assert T.order == 2
    assert T.cprime_order == 1
    assert {t.exps for t in T.elements} == {(0, 0), (2, 2)}
    assert T.form_matches and T.generation_matches


def test_torus_part_generation_on_thick_grid():
    for m, n in [(2, 2), (2, 3), (4, 2), (3, 2)]:
        for G in enumerate_thick(m, n):
            T = torus_part(G)
            assert T.form_matches, G
            assert T.generation_matches, G


def _abelianization_reference_groups():
    def diag(n, N, exps):
        return MonomialElement(n, N, tuple(range(n)), exps)

    groups = [G for m in range(1, 5) for n in range(1, 4) for G in enumerate_thick(m, n)]
    groups.append(closure_generate((12, 2), [diag(2, 12, (1, 0)), diag(2, 12, (0, 4))]))  # Z3 x Z12
    groups.append(closure_generate((2, 3), [diag(3, 2, e) for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]))  # Z2^3
    groups.append(closure_generate((8, 2), [adjacent_swap(2, 8, 1) * torus_gen(2, 8, 1, 1), diag(2, 8, (2, 6))]))
    groups.append(closure_generate((6, 3), [adjacent_swap(3, 6, 1), adjacent_swap(3, 6, 2) * torus_gen(3, 6, 1, 2)]))
    return groups


def test_abelianization_counts_kth_powers_in_the_derived_subgroup():
    # in G/D = Z_d1 + ... + Z_dr the cosets x with x^k = 1 number
    # prod gcd(k, d_i); these counts over the k dividing |G/D| determine the
    # abelian group, and here they are taken from MonomialElement powers
    for G in _abelianization_reference_groups():
        probes = structure_probes(G)
        D = probes.derived.element_set()
        factors = probes.abelianization
        assert all(d > 1 for d in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:])), G
        index = G.order // len(D)
        assert prod(factors) == index, G
        for k in range(1, index + 1):
            if index % k == 0:
                assert sum(1 for g in G if g**k in D) == len(D) * prod(gcd(k, d) for d in factors), (G, k)


def test_structure_probes_klein_four():
    probes = structure_probes(make_gmpn(2, 2, 2))
    assert probes.order_histogram == ((1, 1), (2, 3))
    assert probes.center_order == 4
    assert probes.derived_order == 1
    assert probes.abelianization == (2, 2)


def test_structure_probes_cyclic_four():
    probes = structure_probes(make_w(2, 1, 2))
    assert probes.order_histogram == ((1, 1), (2, 1), (4, 2))
    assert probes.abelianization == (4,)


def test_structure_probes_symmetric_three():
    probes = structure_probes(make_gmpn(1, 1, 3))
    assert probes.class_sizes == (1, 2, 3)
    assert probes.center_order == 1
    assert probes.derived_order == 3
    assert probes.abelianization == (2,)


def test_normal_subgroups_of_dihedral():
    # G(2,1,2) is dihedral of order 8: 1, center, three order-4 subgroups, itself
    ig = IndexedGroup(make_gmpn(2, 1, 2))
    normals = ig.normal_subgroup_class_sets()
    orders = sorted(len(ig.materialize(s)) for s in normals)
    assert orders == [1, 2, 4, 4, 4, 8]


def test_group_json_forms():
    assert make_gmpn(2, 2, 2).to_json() == {"kind": "G", "m": 2, "p": 2, "n": 2}
    assert make_w(2, 1, 2).to_json() == {"kind": "W", "m": 2, "cprime": 1, "n": 2}
    trivial = closure_generate((4, 2), [])
    data = trivial.to_json()
    assert data["kind"] == "explicit"
    assert data["elements"] == [MonomialElement.identity(2, 4).to_json()]


def test_group_tag_is_a_value():
    assert GroupTag("G", (2, 2, 2)) == make_gmpn(2, 2, 2).tag
    assert GroupTag("G", (2, 2, 2)) != GroupTag("W", (2, 2, 2))
    assert GroupTag("generated") == GroupTag("generated", ())
    labels = {GroupTag("G", (2, 2, 2)): "G", GroupTag("W", (2, 2, 2)): "W"}
    assert labels[make_w(2, 2, 2).tag] == "W" and len(labels) == 2
    assert [GroupTag("W", (4, 2, 3)).label, GroupTag("generated").label] == ["W(4,2,3)", "generated"]


# -- the indexed core against element-level references ---------------------------


def _reference_family(n, N, m, keep):
    """The reference element tuple of a family: every (perm, exponent vector)
    the filter keeps, built through the public constructor, then deduplicated
    and sorted."""
    step = N // m
    elems = [
        MonomialElement(n, N, perm, tuple(step * x for x in f))
        for perm in itertools.permutations(range(n))
        for f in itertools.product(range(m), repeat=n)
        if keep(perm, f)
    ]
    return tuple(sorted(set(elems), key=lambda a: a.sort_key()))


def _w_filter(m, d):
    L = lcm(m, 2)

    def keep(perm, f):
        sign_term = 0 if perm_sign(perm) == 1 else L // 2
        return (sum(f) * (L // m) + sign_term) % L % (L // d) == 0

    return keep


@pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (3, 2), (4, 3), (6, 2), (3, 3)])
def test_family_elements_match_sorted_set_construction(m, n):
    for N in (ambient_order(m), 3 * ambient_order(m)):
        for p in (p for p in range(1, m + 1) if m % p == 0):
            G = make_gmpn(m, p, n, N=N)
            assert G.elements == _reference_family(n, N, m, lambda perm, f: sum(f) % p == 0)
            W = make_w(m, p, n, N=N)
            assert W.elements == _reference_family(n, N, m, _w_filter(m, p))


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", [2, 3])
def test_make_w_is_the_det_power_kernel(m, n):
    # the definition W(m,d,n) = {g in G(m,1,n) : det(g)^d = 1}, read off the
    # determinant itself rather than the residue formula make_w shares with
    # _w_filter
    ambient = make_gmpn(m, 1, n)
    for d in (d for d in range(1, m + 1) if m % d == 0):
        kernel = frozenset(g for g in ambient if g.det() ** d == 1)
        assert make_w(m, d, n).element_set() == kernel, (m, d, n)


def _indexed_pairs(G, pairs):
    ig = G.indexed()
    for i, j in pairs:
        a, b = ig.elems[i], ig.elems[j]
        assert ig.elems[ig.left(i)[j]] == a * b
        assert ig.elems[ig.right(j)[i]] == a * b
        assert ig.elems[ig.mul(i, j)] == a * b
        assert ig.elems[ig.inv[i]] == a.inverse()


def test_indexed_products_and_inverses_match_element_law():
    G = make_gmpn(2, 1, 3)
    _indexed_pairs(G, itertools.product(range(G.order), repeat=2))
    rng = random.Random(7)
    for G in (make_gmpn(4, 2, 3), make_w(4, 1, 3), make_gmpn(2, 2, 3).lift(12)):
        _indexed_pairs(G, [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(400)])


def _reference_normal_subgroups(G):
    """Conjugacy classes, normal subgroups and their abelian flags from
    element products only: classes under conjugation by every element, and
    normal subgroups as the subgroups generated by unions of the normal
    closures of single classes."""
    elems = G.elements
    classes = {frozenset(g * x * g.inverse() for g in elems) for x in elems}
    principals = {closure_generate((G.N, G.n), cls).element_set() for cls in classes}
    known = {frozenset([G.identity()])} | principals
    frontier = list(known)
    while frontier:
        nxt = []
        for a in frontier:
            for p in principals:
                joined = closure_generate((G.N, G.n), a | p).element_set()
                if joined not in known:
                    known.add(joined)
                    nxt.append(joined)
        frontier = nxt
    abelian = {S: all(a * b == b * a for a in S for b in S) for S in known}
    return classes, abelian


@pytest.mark.parametrize(
    "G", [make_gmpn(2, 1, 3), make_gmpn(3, 1, 2), make_w(4, 1, 2), make_gmpn(4, 4, 2), make_gmpn(1, 1, 4)],
    ids=lambda G: G.tag.label,
)
def test_class_lattice_matches_element_level_reference(G):
    classes, abelian = _reference_normal_subgroups(G)
    ig = G.indexed()
    assert {frozenset(ig.elems[i] for i in cls) for cls in ig.conjugacy_classes()} == classes
    found = {}
    for class_set in ig.normal_subgroup_class_sets():
        elements = frozenset(ig.elems[i] for i in ig.materialize(class_set))
        found[elements] = ig.is_abelian_class_set(class_set)
    assert found == abelian
    # each class-product mask against the products themselves
    table = ig.class_mult()
    for i, cls in enumerate(ig.conjugacy_classes()):
        rep = ig.elems[min(cls)]
        for j, other in enumerate(ig.conjugacy_classes()):
            met = {ig.class_of(ig.index[rep * ig.elems[x]]) for x in other}
            assert table[i][j] == sum(1 << c for c in met)


def test_one_indexed_view_per_group(monkeypatch):
    from mystica import classify

    builds = []
    original = IndexedGroup.__init__

    def counting(self, G):
        builds.append(G)
        original(self, G)

    monkeypatch.setattr(IndexedGroup, "__init__", counting)
    G = make_gmpn(2, 2, 3)
    classify.fingerprint(G)
    classify.regular_singular(G)
    structure_probes(G)
    classify.isomorphic(G, make_gmpn(1, 1, 4))  # the same fingerprint, so it builds both tables
    assert G.indexed() is G.indexed()
    assert builds.count(G) == 1


@pytest.mark.parametrize(
    "G", [make_gmpn(2, 1, 3), make_w(4, 1, 2), make_gmpn(3, 3, 3), make_w(2, 1, 3)], ids=lambda G: G.tag.label
)
def test_structure_probes_match_element_level_reference(G):
    # the centre as the singleton classes and [G,G] as the normal closure of
    # the generators' commutators, against all pairs of elements
    elems = G.elements
    probes = structure_probes(G)
    assert probes.center.element_set() == frozenset(z for z in elems if all(z * g == g * z for g in elems))
    commutators = {a * b * a.inverse() * b.inverse() for a in elems for b in elems}
    assert probes.derived.element_set() == closure_generate((G.N, G.n), commutators).element_set()
    assert probes.order_histogram == tuple(sorted(Counter(g.element_order() for g in elems).items()))
