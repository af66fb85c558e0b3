"""Acceptance suite: the ten desk-scale verification criteria.

One test per criterion, each printing a single PASS/FAIL line (plus the
failing cells, if any), the verdicts `mystica verify-all` reports on the
same grids: each check runs on the default VerifyConfig(), whose grids
verify.GRIDS declares.  Every comparison is exact; there are no numeric tolerances
anywhere.

Each test asserts the verdict of every cell.  On criteria 1-5 and 10 every
cell passes.  On criteria 6-9 computation refutes the stated expectation on
a closed, named list of cells: verify-all reports those cells as FAIL, and
the test asserts that exactly they fail, each with its exact detail, and
proves each refutation itself from a closed form or hand-written
generators, never from the check's own output.  A new failing cell, a
refuted cell that passes, or a changed detail fails the test.  The findings
and their proofs are recorded in docs/decisions.md.

Each test also compares its results, the details of passing cells
included, with its slice of tests/golden/verify_all.json, the output of
`mystica verify-all --format json` on the default grids.  A change to that
file is a change of behaviour and is reviewed as such.
"""

import itertools
import json
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

from mystica.cyclo import Cyclotomic, cyc_make
from mystica.groupalg import GroupAlgebraElement, j_c
from mystica.groups import (
    FiniteMonomialGroup,
    ambient_order,
    closure_generate,
    enumerate_thick,
    make_gmpn,
    make_w,
)
from mystica.monomial import MonomialElement, adjacent_swap, perm_sign, torus_gen
from mystica.linalg import SparseMatrix
from mystica.qpoly import invariant_degrees, operator_matrix, slice_monomials
from mystica.verify import (
    VerifyConfig,
    check_counterpart_equivalence,
    check_group_ring,
    check_identity_suites,
    check_invariant_dimensions,
    check_isomorphism_parity,
    check_operator_independence,
    check_orders,
    check_singular_list,
    check_thick_enumeration,
    check_classification,
    predicted_thick_family,
)


GOLDEN = json.loads((Path(__file__).parent / "golden" / "verify_all.json").read_text())

# the check names a criterion reports under, where they differ from its own
_GOLDEN_CHECKS = {
    "counterpart-grid": ("counterpart-set", "operator-equivalence", "uniqueness-scan"),
    "invariant-dimensions": ("generators-commute", "dimension-series"),
}


def _cell_order(cell):
    params, detail = cell
    return repr(sorted(params.items())), detail


def _json_order(entry):
    return entry["check"], json.dumps(entry["params"], sort_keys=True)


def _criterion(name: str, results, refuted=()) -> None:
    """Assert the verdict of every cell: each cell passes except the refuted
    ones, given as (params, detail) pairs, each of which must fail with
    exactly that detail; and every result equals the golden verify-all
    entry of its cell."""
    bad = [r for r in results if not r.passed]
    status = "PASS" if not bad else "FAIL"
    note = f", {len(refuted)} refuted as recorded in docs/decisions.md" if refuted else ""
    print(f"[{status}] {name}: {len(results) - len(bad)}/{len(results)} cells{note}")
    for r in bad:
        print(f"    failing cell {r.params}: {r.detail}")
    got = sorted(((r.params, r.detail) for r in bad), key=_cell_order)
    want = sorted(refuted, key=_cell_order)
    assert got == want, f"{name}: failing cells {got}, refuted cells {want}"
    checks = _GOLDEN_CHECKS.get(name, (name,))
    golden = sorted((e for e in GOLDEN if e["check"] in checks), key=_json_order)
    computed = sorted((json.loads(json.dumps(r.to_json())) for r in results), key=_json_order)
    assert computed == golden, f"{name}: results differ from tests/golden/verify_all.json"


def test_criterion_01_orders():
    """Order formula m^n n!/p over the full grid, in under a minute."""
    start = time.time()
    results = check_orders(VerifyConfig())
    elapsed = time.time() - start
    assert elapsed < 60, f"orders grid took {elapsed:.1f}s"
    _criterion("orders-grid", results)


def test_criterion_02_counterpart_equivalence():
    """The det-twisted counterpart: set identity with the det filter, exact
    operator equivalence on every slice, and uniqueness among all thick
    subgroups."""
    results = check_counterpart_equivalence(VerifyConfig())
    _criterion("counterpart-grid", results)


def test_criterion_03_invariant_dimensions():
    """Fundamental invariants commute under the sign twist and both fixed
    spaces match the free-algebra series in every degree."""
    results = check_invariant_dimensions(VerifyConfig())
    _criterion("invariant-dimensions", results)


def test_criterion_04_group_ring_change_of_basis():
    """The i-twist carries each integral group ring into its counterpart's
    with dyadic Gaussian coefficients and an invertible coefficient matrix."""
    results = check_group_ring(VerifyConfig())
    _criterion("group-ring-change-of-basis", results)


def test_criterion_05_isomorphism_parity():
    """A group and its counterpart are non-isomorphic exactly when the rank
    is even and m/p is odd; the scalar-involution power obstruction agrees."""
    results = check_isomorphism_parity(VerifyConfig())
    _criterion("isomorphism-parity", results)


def _det_parity_subgroup(m: int, n: int, keep) -> FiniteMonomialGroup:
    """The elements t*w of G(m,1,n) with keep(s, odd), where det t = zeta_m^s
    and odd is 1 for an odd permutation w: a det-and-parity filter, like
    make_w, with no subgroup search."""
    N = ambient_order(m)
    step = N // m
    return FiniteMonomialGroup(
        n,
        N,
        (
            MonomialElement(n, N, perm, tuple(step * x for x in f))
            for perm in itertools.permutations(range(n))
            for f in itertools.product(range(m), repeat=n)
            if keep(sum(f) % m, int(perm_sign(perm) == -1))
        ),
    )


def _thick_closed_form(m: int, n: int) -> set[FiniteMonomialGroup]:
    """The thick subgroups of G(m,1,n) in closed form: {tw : det t in
    lam^[w odd] mu_(m/p)} for p | m, with lam = 1, or lam = zeta_m^(p/2) when
    p is even (docs/decisions.md, criterion 6)."""
    family = set()
    for p in range(1, m + 1):
        if m % p == 0:
            for lam in (0, p // 2) if p % 2 == 0 else (0,):
                family.add(_det_parity_subgroup(m, n, lambda s, odd: (s - lam * odd) % p == 0))
    return family


def _fifth_thick(n: int) -> FiniteMonomialGroup:
    """The thick subgroup of G(4,1,n) outside both standard families: the
    kernel of (det t)^2 sgn w."""
    return _det_parity_subgroup(4, n, lambda s, odd: (2 * s + 2 * odd) % 4 == 0)


def _assert_thick_subgroups_contain_det_one_torus(m: int, n: int) -> None:
    """A thick subgroup is normal and holds some t*(12).  Its commutator with
    diag(zeta_m, 1, ...) is diag(zeta_m^-1, zeta_m, 1, ...) whatever t is, and
    the conjugates of that element generate A = {t : det t = 1}; so every
    thick subgroup contains A, and G(m,1,n)/A is mu_m x S_n."""
    N = ambient_order(m)
    g = torus_gen(n, N, 1, N // m)
    commutator = torus_gen(n, N, 1, -N // m) * torus_gen(n, N, 2, N // m)
    G = make_gmpn(m, 1, n)
    for t in G.torus_elements():
        h = t * adjacent_swap(n, N, 1)
        assert h * g * h.inverse() * g.inverse() == commutator
    conjugates = [w * commutator * w.inverse() for w in G if not any(w.exps)]
    A = {t for t in G.torus_elements() if sum(t.exps) % N == 0}
    assert closure_generate((N, n), conjugates).element_set() == A


def test_criterion_06_thick_enumeration():
    """Direct normal-subgroup enumeration of thick subgroups against the two
    standard families.

    Refuted at level 4, one extra thick subgroup per rank: the kernel of
    (det t)^2 sgn w, i.e. {tw : det t in i^[w odd] {1,-1}}, labelled
    "generated".  The test derives every thick subgroup in closed form (every
    one contains the det-1 torus A, and G(m,1,n)/A is mu_m x S_n), checks that
    the enumeration finds exactly those, and that each verdict is whether
    they are the two standard families.  See docs/decisions.md.
    """
    results = check_thick_enumeration(VerifyConfig())
    _criterion(
        "thick-enumeration",
        results,
        refuted=[
            ({"m": 4, "n": 2}, "found 5, predicted 4, extra ['generated']"),
            ({"m": 4, "n": 3}, "found 5, predicted 4, extra ['generated']"),
        ],
    )
    for r in results:
        m, n = r.params["m"], r.params["n"]
        _assert_thick_subgroups_contain_det_one_torus(m, n)
        family = _thick_closed_form(m, n)
        assert family == set(enumerate_thick(m, n)), r.params
        assert r.passed == (family == predicted_thick_family(m, n)), r.params
    for n in (2, 3):
        assert _thick_closed_form(4, n) - predicted_thick_family(4, n) == {_fifth_thick(n)}


def _diag(N: int, *exps: int) -> MonomialElement:
    return MonomialElement(len(exps), N, tuple(range(len(exps))), exps)


def _perm(N: int, *images: int) -> MonomialElement:
    return MonomialElement(len(images), N, images, (0,) * len(images))


def _assert_isomorphism(G: FiniteMonomialGroup, H: FiniteMonomialGroup, images) -> None:
    """Extend the generator images (g, h) along the Cayley graph of G,
    checking phi(x*g) = phi(x)*h on every edge, so phi is a homomorphism on
    the subgroup the g generate; it must reach all of G and be a bijection
    onto H."""
    phi = {G.identity(): H.identity()}
    frontier = [G.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g, h in images:
                y, hy = x * g, phi[x] * h
                if y not in phi:
                    phi[y] = hy
                    nxt.append(y)
                assert phi[y] == hy, f"{G.tag.label} -> {H.tag.label} is not multiplicative at {y!r}"
        frontier = nxt
    assert set(phi) == G.element_set()
    assert set(phi.values()) == H.element_set() and H.order == G.order


def test_criterion_07_classification_grid():
    """Pairwise isomorphism of thick subgroups against the stated
    characterization.

    Refuted on two pairs the characterization predicts non-isomorphic:
    G(2,1,2) and G(4,4,2) are both dihedral of order eight (same rank, n
    even), and G(3,3,2) and G(1,1,3) are both the symmetric group on three
    letters (cross-rank).  The test builds both isomorphisms from explicit
    Coxeter generator images and checks them along the Cayley graph,
    without the isomorphism search.  See docs/decisions.md.
    """
    results = check_classification(VerifyConfig())
    _criterion(
        "classification-grid",
        results,
        refuted=[
            ({"left": "G(2,1,2)", "right": "G(4,4,2)", "n": 2}, "predicted False, computed True"),
            ({"left": "G(3,3,2)", "right": "G(1,1,3)", "n": 2, "n2": 3}, "predicted False, computed True"),
        ],
    )
    s = adjacent_swap(2, 4, 1)
    # (12) -> (12), diag(-1,1) -> (12) diag(i,-i)
    _assert_isomorphism(
        make_gmpn(2, 1, 2),
        make_gmpn(4, 4, 2),
        [(s, s), (_diag(4, 2, 0), s * _diag(4, 1, 3))],
    )
    # (12) -> (12), (12) diag(zeta_3, zeta_3^-1) -> (23)
    s12 = adjacent_swap(2, 12, 1)
    _assert_isomorphism(
        make_gmpn(3, 3, 2),
        make_gmpn(1, 1, 3),
        [(s12, adjacent_swap(3, 4, 1)), (s12 * _diag(12, 4, 8), adjacent_swap(3, 4, 2))],
    )


def test_criterion_08_singular_list():
    """The computed singular list against the six stated groups.

    The six stated groups are singular.  Refuted: six further thick
    subgroups on the grid are singular by the definition (a normal abelian
    subgroup distinct from the torus part reaches its order).  The test
    closes a hand-written witness for each and checks it element by element:
    abelian, normal, not the torus part, at least as large.  See
    docs/decisions.md.
    """
    results = check_singular_list(VerifyConfig())
    s = adjacent_swap(2, 4, 1)
    witnesses = [
        # group, its label, generators of the witness, witness order
        (make_gmpn(4, 4, 2), "G(4,4,2)", [_diag(4, 2, 2), s], 4),  # {+-1, +-(12)}
        (make_w(4, 1, 2), "W(4,1,2)", [s * _diag(4, 0, 2)], 4),  # <(12) diag(1,-1)>
        (make_gmpn(4, 2, 2), "G(4,2,2)", [_diag(4, 1, 1), s], 8),  # <iI, (12)>
        (_fifth_thick(2), "generated", [_diag(4, 1, 1), s * _diag(4, 0, 1)], 8),  # <iI, (12) diag(1,i)>
        (make_gmpn(3, 3, 3), "G(3,3,3)", [_diag(12, 4, 4, 4), _perm(12, 1, 2, 0)], 9),  # <zeta_3 I, (123)>
        (
            make_gmpn(2, 2, 4),
            "G(2,2,4)",
            [_diag(4, 2, 2, 2, 2), _perm(4, 1, 0, 3, 2), _perm(4, 2, 3, 0, 1)],
            8,
        ),  # +-{1, (12)(34), (13)(24), (14)(23)}
    ]
    _criterion(
        "singular-list",
        results,
        refuted=[
            ({"group": label}, f"singular beyond the expected list (witness order {order})")
            for _, label, _, order in witnesses
        ],
    )
    for G, label, gens, order in witnesses:
        S = closure_generate((G.N, G.n), gens).element_set()
        torus = frozenset(G.torus_elements())
        assert S <= G.element_set(), label
        assert all(a * b == b * a for a in S for b in S), label
        assert all(g * x * g.inverse() in S for g in G for x in S), label
        assert S != torus and len(S) == order >= len(torus), label


# c, and its inverse, for each c of the operator-independence grid
_C_VALUES = {"0": (0, None), "1": (1, 1), "zeta4": (cyc_make(4, 1), cyc_make(4, 3))}


def _jacobian_relation(G: FiniteMonomialGroup, l: int, cinv) -> GroupAlgebraElement:
    """b with rho_c(b) = rho_0(a), for a = sum of chi(g)^-1 g over G and the
    Jacobian character chi(tw) = sgn w det(t)^(l-1), l = m/p.

    rho_0(a) is |G| times the projection onto the chi-semi-invariants, which
    are J_chi S^G (Stanley 1977), so it vanishes below deg J_chi.  For c != 0,
    b = J_(1/c)(a) gives rho_c(b) = rho_0(J_c(b)) = rho_0(a), the identity
    the twist-map suite checks, and test_groupalg's parity-box test proves
    for every n <= 4 and every degree."""
    a = GroupAlgebraElement(
        G.n,
        G.N,
        {g: Cyclotomic.root(G.N, -(l - 1) * sum(g.exps)) * perm_sign(g.perm) for g in G},
    )
    return a if cinv is None else j_c(cinv, a)


def _combination_operator(b: GroupAlgebraElement, c, degree: int) -> SparseMatrix:
    """rho_c(b) on the degree slice for b over Q(zeta_L), from operators of
    rational combinations: b = sum_j zeta_L^j b_j, b_j the terms of b's j-th
    power-basis coordinate, so rho_c(b) = sum_j zeta_L^j rho_c(b_j)."""
    L = lcm(*(v.order for v in b.terms.values()))
    coordinates: dict = {}
    for g, v in b.terms.items():
        v = v.lift(L)
        for j, x in enumerate(v.nums):
            if x:
                coordinates.setdefault(j, []).append((g, Fraction(x, v.den)))
    dim = len(slice_monomials(b.n, degree))
    total = SparseMatrix(dim, dim)
    for j, terms in coordinates.items():
        for (row, col), v in operator_matrix(terms, c, degree).entries.items():
            total.add(row, col, Cyclotomic.root(L, j) * v)
    return total


def test_criterion_09_operator_independence():
    """Linear independence of the group-element operators at some degree
    within the stated bound n*N.

    Refuted on three groups at every c: independence always holds, but not
    by the bound, for G(4,1,2) (saturates at 10 > 8), G(4,2,3) (15 > 12) and
    G(4,1,3) (21 > 12).  The saturation degree is R = sum of (d_i - 1), the
    degree of the Jacobian.  The test proves the deficit below R: a nonzero
    element b of the group algebra, built in closed form from the Jacobian
    character, has zero operator on every degree below R and a nonzero one
    at R.  The prover's saturation search finds R itself, exactly at every
    order: it decides independence on the conjugacy-class sums, which span
    the centre of the group algebra.  See docs/decisions.md.
    """
    results = check_operator_independence(VerifyConfig())
    cells = [((4, 1, 2), 8, 10), ((4, 2, 3), 12, 15), ((4, 1, 3), 12, 21)]
    _criterion(
        "operator-independence",
        results,
        refuted=[
            ({"group": f"G({m},{p},{n})", "c": tag}, f"not independent by the bound {bound}, saturates at degree {R}")
            for (m, p, n), bound, R in cells
            for tag in _C_VALUES
        ],
    )
    for (m, p, n), bound, R in cells:
        G = make_gmpn(m, p, n)
        assert bound == n * G.N
        assert R == sum(d - 1 for d in invariant_degrees(m, p, n))
        for tag, (c, cinv) in _C_VALUES.items():
            b = _jacobian_relation(G, m // p, cinv)
            assert b.terms and frozenset(b.terms) <= G.element_set(), (G, tag)
            for d in range(R):
                assert not _combination_operator(b, c, d).entries, (G, tag, d)
            assert _combination_operator(b, c, R).entries, (G, tag)


def test_criterion_10_identity_suites():
    """Identity suites checked exhaustively, on every case of each finite
    domain, exact equality throughout, within the stated time budget."""
    start = time.time()
    results = check_identity_suites(VerifyConfig())
    elapsed = time.time() - start
    cases = {r.params["suite"]: r.params["verified_cases"] for r in results}
    assert cases == {
        "cocycle-composition": 38_080,
        "twisted-multiplicativity": 6_560,
        "q-element-identities": 120,
        "twist-map": 1_152,
        "long-cycle-law": 244,
        "odd-level-nonclosure": 10,
    }
    assert elapsed < 600, f"identity suites took {elapsed:.1f}s"
    _criterion("identity-suites", results)
