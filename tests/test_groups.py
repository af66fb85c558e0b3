"""Tests for group construction, closure and structural predicates."""

import itertools
import random
from collections import Counter
from math import factorial, gcd, lcm, prod

import pytest
from reference import reference_thick

from mystica.groups import (
    CapExceededError,
    FiniteMonomialGroup,
    GroupTag,
    IndexedGroup,
    ambient_order,
    closure_generate,
    enumerate_thick,
    group_size_cap,
    is_thick,
    make_gmpn,
    make_thick,
    make_w,
    thick_family,
    torus_part,
)
from mystica.classify import fingerprint, regular_singular
from mystica.monomial import MonomialElement, adjacent_swap, central_scalar, perm_sign, torus_gen


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


def test_closure_cap(monkeypatch):
    monkeypatch.setenv("MYSTICA_CAP", "10")
    with pytest.raises(CapExceededError):
        closure_generate((4, 3), [adjacent_swap(3, 4, 1), adjacent_swap(3, 4, 2), torus_gen(3, 4, 1, 1)])


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


def _family_tag(G: FiniteMonomialGroup, m: int) -> GroupTag:
    """The slow name of a subgroup of G(m,1,n): the first G(m,p,n), then the
    first W(m,d,n), with its element set."""
    n = G.n
    for p in range(1, m + 1):
        if m % p == 0 and G == make_gmpn(m, p, n):
            return GroupTag("G", (m, p, n))
    for d in range(1, m + 1):
        if m % d == 0 and G == make_w(m, d, n):
            return GroupTag("W", (m, d, n))
    return GroupTag("generated")


# the (m, n) cells of criteria 2, 6, 7 and 8, and rank one
THICK_GRID_CELLS = [(m, n) for m in range(1, 7) for n in range(1, 4)] + [(m, 4) for m in range(1, 5)]


@pytest.mark.parametrize("m, n", THICK_GRID_CELLS + [(5, 4), (6, 4)])
def test_thick_family_is_the_lattice_search(m, n):
    # the closed form against the search of the normal-subgroup lattice of
    # G(m,1,n)/A: the same groups in the same order, each named as the
    # family it equals
    family = thick_family(m, n)
    found = enumerate_thick(m, n)
    assert family == found
    assert [T.tag for T in family] == [T.tag for T in found] == [_family_tag(T, m) for T in family]


@pytest.mark.parametrize("m, n", THICK_GRID_CELLS)
def test_enumerate_thick_is_the_ambient_lattice_search(m, n):
    # the quotient search against the search of the whole lattice of
    # G(m,1,n): the same groups in the same order with the same names
    found, reference = enumerate_thick(m, n), reference_thick(m, n)
    assert found == reference
    assert [T.tag for T in found] == [T.tag for T in reference]
    # ledger step 1 on that lattice: every normal subgroup that meets all
    # permutations holds A = {t : det t = 1}, the torus of G(m,m,n)
    det_one = set(make_gmpn(m, m, n).blocks()[0][1])
    assert len(det_one) == m ** (n - 1)
    for T in reference:
        perm, rows = T.blocks()[0]
        assert perm == tuple(range(n)) and det_one <= set(rows), T


def test_enumerate_thick_indexes_only_the_quotient(monkeypatch):
    # one IndexedGroup per call, of order m * n! = |mu_m x S_n|, never the
    # ambient's m^n * n!
    orders = []
    init = IndexedGroup.__init__

    def recording(self, G):
        orders.append(G.order)
        init(self, G)

    monkeypatch.setattr(IndexedGroup, "__init__", recording)
    for m, n in ((1, 3), (4, 1), (4, 3), (3, 3), (2, 4), (6, 4), (12, 3)):
        orders.clear()
        enumerate_thick(m, n)
        assert orders == [m * factorial(n)], (m, n)


def test_make_thick_at_rank_one_and_with_a_bad_twist():
    # S_1 has no odd permutation: the twist changes nothing at n = 1
    for m, p in [(4, 2), (4, 4), (6, 2)]:
        T = make_thick(m, p, p // 2, 1)
        assert T == make_gmpn(m, p, 1) and T.tag == GroupTag("G", (m, p, 1))
    assert make_thick(4, 2, 1, 2).tag == GroupTag("generated")
    assert make_thick(6, 2, 1, 2) == make_w(6, 3, 2)
    with pytest.raises(ValueError, match="multiple of p"):
        make_thick(4, 4, 1, 2)  # zeta_4 on the odd coset squares outside mu_1


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
        commutators = {a * b * a.inverse() * b.inverse() for a in G for b in G}
        D = closure_generate((G.N, G.n), commutators).element_set()
        factors = fingerprint(G).abelianization
        assert all(d > 1 for d in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:])), G
        index = G.order // len(D)
        assert prod(factors) == index, G
        for k in range(1, index + 1):
            if index % k == 0:
                assert sum(1 for g in G if g**k in D) == len(D) * prod(gcd(k, d) for d in factors), (G, k)


def test_structure_probes_klein_four():
    fp = fingerprint(make_gmpn(2, 2, 2))
    assert fp.order_histogram == ((1, 1), (2, 3))
    assert fp.center_order == 4
    assert fp.derived_order == 1
    assert fp.abelianization == (2, 2)


def test_structure_probes_cyclic_four():
    fp = fingerprint(make_w(2, 1, 2))
    assert fp.order_histogram == ((1, 1), (2, 1), (4, 2))
    assert fp.abelianization == (4,)


def test_structure_probes_symmetric_three():
    fp = fingerprint(make_gmpn(1, 1, 3))
    assert fp.class_sizes == (1, 2, 3)
    assert fp.center_order == 1
    assert fp.derived_order == 3
    assert fp.abelianization == (2,)


def test_normal_subgroups_of_dihedral():
    # G(2,1,2) is dihedral of order 8: 1, center, three order-4 subgroups, itself
    ig = IndexedGroup(make_gmpn(2, 1, 2))
    assert [len(S) for S in ig.normal_subgroups()] == [1, 2, 4, 4, 4, 8]


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


def _thick_filter(p, j):
    def keep(perm, f):
        return sum(f) % p == (0 if perm_sign(perm) == 1 else j)

    return keep


@pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (3, 2), (4, 3), (6, 2), (3, 3)])
def test_family_elements_match_sorted_set_construction(m, n):
    # each lazy element tuple, also of a lifted family group, against the
    # eager reference built at the lifted ambient
    for N in (ambient_order(m), 3 * ambient_order(m)):
        for p in (p for p in range(1, m + 1) if m % p == 0):
            families = [
                (make_gmpn(m, p, n, N=N), lambda perm, f: sum(f) % p == 0),
                (make_w(m, p, n, N=N), _w_filter(m, p)),
            ]
            if p % 2 == 0:
                families.append((make_thick(m, p, p // 2, n, N=N), _thick_filter(p, p // 2)))
            for G, keep in families:
                assert G.elements == _reference_family(n, N, m, keep), G
                lifted = G.lift(2 * N)
                assert lifted.order == G.order and lifted.tag == G.tag, G
                assert lifted.elements == _reference_family(n, 2 * N, m, keep), G


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
    # groups whose blocks are not a family's: one closed under generators,
    # a normal subgroup taken from the index view, and W at odd level, whose
    # odd permutations have empty blocks
    a = MonomialElement(3, 4, (1, 2, 0), (1, 0, 3))
    b = MonomialElement(3, 4, (0, 2, 1), (2, 2, 0))
    ig = G.indexed()
    normal = next(S for S in ig.normal_subgroups() if 1 < len(S) < G.order and len({ig.elems[i].perm for i in S}) > 1)
    rng = random.Random(7)
    groups = (make_gmpn(4, 2, 3), make_w(4, 1, 3), make_gmpn(2, 2, 3).lift(12))
    groups += (closure_generate((4, 3), [a, b]), ig.subgroup_from_indices(normal), make_w(3, 1, 3))
    for H in groups:
        _indexed_pairs(H, [(rng.randrange(H.order), rng.randrange(H.order)) for _ in range(400)])
        # every inverse, read block by block, among them those of W(3,1,3)
        # around its empty odd blocks and of the closure's run blocks
        assert [H.elements[j] for j in H.indexed().inv] == [x.inverse() for x in H.elements], H
        assert H.torus_elements() == tuple(x for x in H.elements if x.is_torus()), H
    assert sum(not rows for _, rows in groups[-1].blocks()) == 3  # the odd permutations of S_3


def test_the_lattice_hashes_no_element(monkeypatch):
    # elements are found by block and row, never by hash
    def refuse(self):
        raise AssertionError("a MonomialElement was hashed")

    monkeypatch.setattr(MonomialElement, "__hash__", refuse)
    G = make_gmpn(4, 1, 3)
    assert len(G.indexed().normal_subgroups()) > 1
    assert regular_singular(G).status == "regular"


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
    "G",
    [
        make_gmpn(2, 1, 3),
        make_gmpn(3, 1, 2),
        make_w(4, 1, 2),
        make_gmpn(4, 4, 2),
        make_gmpn(1, 1, 4),
        make_thick(4, 2, 1, 2),
        make_gmpn(3, 3, 3),
    ],
    ids=lambda G: G.tag.label,
)
def test_class_lattice_matches_element_level_reference(G):
    classes, abelian = _reference_normal_subgroups(G)
    ig = G.indexed()
    assert {frozenset(ig.elems[i] for i in cls) for cls in ig.conjugacy_classes()} == classes
    normals = ig.normal_subgroups()
    order_then_classes = [(len(S), sorted({ig.class_of(i) for i in S})) for S in normals]
    assert order_then_classes == sorted(order_then_classes)
    found = {frozenset(ig.elems[i] for i in S): ig.is_abelian(S) for S in normals}
    assert len(found) == len(normals)
    assert found == abelian
    # each class-product mask against the products themselves
    table = ig.class_mult()
    for i, cls in enumerate(ig.conjugacy_classes()):
        rep = ig.elems[min(cls)]
        for j, other in enumerate(ig.conjugacy_classes()):
            met = {ig.class_of(ig.index_of(rep * ig.elems[x])) for x in other}
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
    fp = fingerprint(G)
    assert fp.center_order == sum(1 for z in elems if all(z * g == g * z for g in elems))
    commutators = {a * b * a.inverse() * b.inverse() for a in elems for b in elems}
    derived = closure_generate((G.N, G.n), commutators).element_set()
    assert fp.derived_order == len(derived)
    ig = G.indexed()
    gens = ig.generators()
    found = ig.normal_closure({ig.mul(ig.mul(a, b), ig.mul(ig.inv[a], ig.inv[b])) for a in gens for b in gens})
    assert frozenset(ig.elems[i] for i in found) == derived
    assert fp.order_histogram == tuple(sorted(Counter(g.element_order() for g in elems).items()))


def test_element_hash_is_the_tuple_hash_however_the_element_is_made():
    # elements hash on first use; the value is hash((n, N, perm, exps)) and an
    # element built by the public constructor hashes as its computed twin
    a = MonomialElement(3, 4, (1, 2, 0), (1, 0, 3))
    b = MonomialElement(3, 4, (0, 2, 1), (2, 2, 0))
    made = [a, b, a * b, b * a, a.inverse(), a**3, a**-2, a.lift(8)]
    for G in (make_gmpn(4, 2, 2), make_w(4, 1, 2), make_thick(4, 2, 1, 2), closure_generate((4, 3), [a, b])):
        made.extend(G.elements)
    for x in made:
        assert hash(x) == hash((x.n, x.N, x.perm, x.exps))
        twin = MonomialElement(x.n, x.N, x.perm, x.exps)
        assert twin == x and hash(twin) == hash(x)
    assert a != b and a != a.lift(8)


def _assert_lazy_set_is_eager_set(build, label):
    # each of element_set(), in, == and hash runs first on a fresh group, so
    # each builds the set itself
    eager = frozenset(build().elements)
    assert len(eager) == build().order, label
    assert build().element_set() == eager, label
    G = build()
    outside = [a for a in make_gmpn(4, 1, G.n, N=G.N).elements if a not in eager]
    assert all(a in G for a in eager) and not any(a in G for a in outside), label
    G = build()
    assert G == build() and G == FiniteMonomialGroup(G.n, G.N, eager), label
    assert (build() == make_gmpn(4, 1, G.n, N=G.N)) == (not outside), label
    assert hash(build()) == hash(FiniteMonomialGroup(G.n, G.N, eager)), label


@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_element_set_is_built_lazily_as_the_eager_frozenset(n):
    for m in (1, 2, 3, 4):
        for k in (k for k in range(1, m + 1) if m % k == 0):
            _assert_lazy_set_is_eager_set(lambda: make_gmpn(m, k, n), f"G({m},{k},{n})")
            _assert_lazy_set_is_eager_set(lambda: make_w(m, k, n), f"W({m},{k},{n})")


def test_generated_and_indexed_subgroup_element_sets_are_built_lazily_as_the_eager_frozenset():
    gens = [adjacent_swap(3, 4, 1) * torus_gen(3, 4, 2, 1), torus_gen(3, 4, 3, 2)]
    _assert_lazy_set_is_eager_set(lambda: closure_generate((4, 3), gens), "closure")
    normals = make_gmpn(2, 1, 3).indexed().normal_subgroups()
    for i, indices in enumerate(normals):
        _assert_lazy_set_is_eager_set(
            lambda: make_gmpn(2, 1, 3).indexed().subgroup_from_indices(indices), f"normal subgroup {i}"
        )


def test_building_a_group_and_reading_its_order_hashes_no_element(monkeypatch):
    calls = []
    original = MonomialElement.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(MonomialElement, "__hash__", counting)
    G = make_gmpn(6, 1, 4)
    assert G.order == 6**4 * factorial(4)
    assert calls == []
    G.element_set()
    assert len(calls) == G.order


def _count_trusted(monkeypatch):
    """The calls that build group elements from rows: a list that grows by
    one per element groups._trusted makes."""
    from mystica import groups

    calls = []
    original = groups._trusted

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(groups, "_trusted", counting)
    return calls


def test_family_groups_build_no_element_until_one_is_read(monkeypatch):
    calls = _count_trusted(monkeypatch)
    for m in range(1, 7):
        for n in range(1, 5):
            divisors = [k for k in range(1, m + 1) if m % k == 0]
            groups = thick_family(m, n) + [make_gmpn(m, k, n) for k in divisors] + [make_w(m, k, n) for k in divisors]
            for G in groups + [G.lift(3 * G.N) for G in groups]:
                assert G.order == len(G) > 0
                assert G.tag.label and repr(G)
                if G.tag.kind in ("G", "W"):
                    G.to_json()
    assert calls == []
    G = make_gmpn(4, 2, 3)
    assert len(G.elements) == G.order and len(calls) == G.order
    G.elements
    assert len(calls) == G.order  # built once and kept


def test_orders_grid_and_over_cap_parity_cells_build_no_element(monkeypatch):
    from mystica import verify
    from mystica.classify import ISO_CAP

    calls = _count_trusted(monkeypatch)
    assert all(r.passed for r in verify.check_orders(verify.VerifyConfig()))
    assert calls == []
    built = []
    original = verify.make_gmpn

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verify, "make_gmpn", recording)
    verify.check_isomorphism_parity(verify.VerifyConfig())
    over_cap = [G for G in built if G.order > ISO_CAP]
    assert [G.tag.label for G in over_cap] == ["G(4,1,4)", "G(4,2,4)", "G(4,4,4)"]
    for G in over_cap:
        # reading the elements now builds every one of them: none was built before
        before = len(calls)
        G.elements
        assert len(calls) - before == G.order, G


# every thick_family group of the criterion 6-8 grids within the group-size
# cap, and levels 5 and 6 up to rank 3; at the odd levels also W(m,1,n) and
# W(m,m,n), which keep even permutations only
HINT_GRID = [(m, n) for m in range(1, 5) for n in range(1, 5)] + [(m, n) for m in (5, 6) for n in range(1, 4)]


@pytest.mark.parametrize("m, n", HINT_GRID)
def test_known_generators_generate_and_keep_the_greedy_structure(m, n):
    # the known generating set alone generates the group, and the classes and
    # the normal subgroups are those of the hint-free copy, whose generators
    # come from the greedy scan
    odd_level_w = [make_w(m, d, n) for d in (1, m)] if m in (3, 5) else []
    for G in thick_family(m, n) + odd_level_w:
        if G.order > group_size_cap():
            continue
        hint = G.known_generators
        assert len(hint) <= 4 and all(g in G for g in hint), G
        assert closure_generate((G.N, G.n), hint).element_set() == G.element_set(), G
        copy = FiniteMonomialGroup(G.n, G.N, G.elements)
        assert copy.known_generators == ()
        ig, reference = G.indexed(), copy.indexed()
        assert ig.generators()[: len(hint)] == [ig.index_of(g) for g in hint]
        assert ig.conjugacy_classes() == reference.conjugacy_classes(), G
        assert ig.normal_subgroups() == reference.normal_subgroups(), G


def test_known_generators_of_the_wreath_product_and_of_odd_level_w():
    G = make_gmpn(4, 1, 4)
    assert [g.to_text() for g in G.known_generators] == [
        "t1^1 t2^0 t3^0 t4^0 * ()",
        "t1^0 t2^0 t3^0 t4^0 * (1 2)",
        "t1^0 t2^0 t3^0 t4^0 * (1 2 3 4)",
    ]
    assert len(G.indexed().generators()) == 3
    assert G.lift(8).known_generators == tuple(g.lift(8) for g in G.known_generators)
    # W at odd level keeps even permutations only: t_1 t_2^-1 (t_1^3 is the
    # identity) and generators of A_4, (1 2 3) and the even cycle (2 3 4)
    W = make_w(3, 1, 4)
    assert [g.to_text() for g in W.known_generators] == [
        "t1^4 t2^8 t3^0 t4^0 * ()",
        "t1^0 t2^0 t3^0 t4^0 * (1 2 3)",
        "t1^0 t2^0 t3^0 t4^0 * (2 3 4)",
    ]
    assert len(W.indexed().generators()) == 3
    assert closure_generate((W.N, 4), W.known_generators) == W
    assert [g.to_text() for g in make_w(5, 5, 3).known_generators] == [
        "t1^4 t2^0 t3^0 * ()",
        "t1^0 t2^0 t3^0 * (1 2 3)",
    ]
    assert [g.to_text() for g in make_gmpn(6, 2, 1).known_generators] == ["t1^4 * ()"]
    assert make_gmpn(3, 3, 1).known_generators == ()  # the trivial group


def test_a_known_set_that_generates_too_little_is_completed_greedily():
    G = make_gmpn(4, 1, 3)
    for keep in range(len(G._generators)):
        partial = FiniteMonomialGroup._from_blocks(G.n, G.N, G._blocks, G.tag, G._generators[:keep])
        ig = partial.indexed()
        gens = ig.generators()
        assert gens[:keep] == [ig.index_of(g) for g in partial.known_generators]
        assert closure_generate((G.N, G.n), [ig.elems[i] for i in gens]) == G
        assert ig.conjugacy_classes() == G.indexed().conjugacy_classes()


def test_a_second_orders_grid_round_builds_no_torus_rows():
    # the torus row sets of the whole orders grid stay cached between rounds
    from mystica.groups import _torus_rows
    from mystica.verify import VerifyConfig, check_orders

    check_orders(VerifyConfig())
    misses = _torus_rows.cache_info().misses
    check_orders(VerifyConfig())
    assert _torus_rows.cache_info().misses == misses


# -- equality and hashing by blocks -----------------------------------------


def _equality_pool():
    """Groups built every way a group is made: the thick atlas to level 4 and
    rank 4, W(3,1,3) with its empty odd blocks, lifts from N = 4 to N = 8
    beside their twins built at N = 8, closures and index subgroups."""
    from mystica.verify import thick_atlas

    pool = [T for _, T in thick_atlas(4, 4)]
    pool += [make_w(3, 1, 3), make_w(3, 3, 3), make_gmpn(3, 3, 3)]
    for m, n in itertools.product((1, 2, 4), (2, 3)):
        for p in (p for p in range(1, m + 1) if m % p == 0):
            for j in {0, p // 2}:
                pool += [make_thick(m, p, j, n).lift(8), make_thick(m, p, j, n, N=8)]
    pool += [make_gmpn(8, 8, 2), make_w(8, 1, 2)]
    for G in (make_gmpn(4, 2, 3), make_w(4, 1, 3), make_w(3, 1, 3), make_gmpn(2, 2, 2)):
        pool.append(closure_generate((G.N, G.n), G.known_generators))
    pool.append(closure_generate((4, 3), [adjacent_swap(3, 4, 1) * torus_gen(3, 4, 2, 1)]))
    for G in (make_gmpn(2, 1, 3), make_gmpn(4, 1, 2)):
        ig = G.indexed()
        pool += [ig.subgroup_from_indices(indices) for indices in ig.normal_subgroups()]
    return pool


def test_block_equality_is_element_set_equality():
    pool = _equality_pool()
    assert len(pool) > 80
    equal_pairs = 0
    for G in pool:
        for H in pool:
            same = G.element_set() == H.element_set()
            assert (G == H) == same, (G, H)
            if same:
                assert hash(G) == hash(H), (G, H)
                equal_pairs += G is not H
    # lifts against their twins, closures and index subgroups against families
    assert equal_pairs > 40


def test_independence_groups_are_deduplicated_as_by_element_sets():
    from mystica.verify import VerifyConfig, independence_groups

    raw = []
    for m in range(1, 5):
        for n in range(2, 4):
            divisors = [k for k in range(1, m + 1) if m % k == 0]
            raw += [make_gmpn(m, p, n) for p in divisors]
            raw += [make_w(m, d, n) for d in divisors] if m % 2 == 0 else []
    raw.append(make_gmpn(1, 1, 4))
    reference, seen = [], set()
    for G in raw:
        if G.element_set() not in seen:
            seen.add(G.element_set())
            reference.append(G)
    got = independence_groups(VerifyConfig())
    assert [(G.tag, G.n, G.N) for G in got] == [(G.tag, G.n, G.N) for G in reference]


def test_equality_hashing_and_the_certificates_build_no_element(monkeypatch):
    calls = _count_trusted(monkeypatch)
    groups = []
    for m in range(1, 7):
        for n in range(1, 5):
            divisors = [k for k in range(1, m + 1) if m % k == 0]
            groups += thick_family(m, n) + [make_w(m, k, n) for k in divisors]
    groups += [G.lift(2 * G.N) for G in groups[:40]]
    hashes = {hash(G) for G in groups}
    assert len(hashes) > 1
    assert sum(G == H for G in groups for H in groups) >= len(groups)
    small = [G for G in groups if G.order <= 5000]
    assert all(G.sign_twist().order_histogram() == G.order_histogram() for G in small)
    assert calls == []


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (2, 4), (3, 3), (4, 2), (4, 3), (6, 2)])
def test_sign_twist_and_order_histogram_match_the_element_law(m, n):
    # phi(g) = (-I)^[w odd] g by MonomialElement products, and the orders by
    # element_order, on every thick subgroup and on W at odd level
    groups = thick_family(m, n) + ([make_w(m, 1, n)] if m % 2 else [])
    for G in groups:
        minus = central_scalar(n, G.N, G.N // 2)
        def phi_of(g):
            return minus * g if perm_sign(g.perm) == -1 else g

        phi = G.sign_twist()
        assert phi.order == G.order and phi.element_set() == frozenset(map(phi_of, G)), G
        assert phi.known_generators == tuple(map(phi_of, G.known_generators)), G
        assert G.order_histogram() == tuple(sorted(Counter(g.element_order() for g in G).items())), G
    with pytest.raises(ValueError):
        closure_generate((3, 2), [adjacent_swap(2, 3, 1)]).sign_twist()


def test_enumerate_thick_hashes_no_element(monkeypatch):
    # thick_family members are named by their ambient index sets
    def refuse(self):
        raise AssertionError("a MonomialElement was hashed")

    monkeypatch.setattr(MonomialElement, "__hash__", refuse)
    for m, n in ((2, 3), (4, 2), (4, 3), (3, 3)):
        found = enumerate_thick(m, n)
        assert [T.tag for T in found] == [T.tag for T in thick_family(m, n)]
