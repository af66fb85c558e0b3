"""The det-twist correspondence between the reflection families, decided at
the level of group-algebra operators.

Two faithful actions are considered equivalent when the operators of the two
full group sums coincide; the artifact decides this on all degree slices up
to a truncation degree D, which every report records.  The correspondence mu
maps the torus-filtered family to the det-filtered family; the group-ring
check verifies that the coefficient-twisting map carries one integral group
ring onto the other inside Z[i, 1/2].  Since J_c(t*w) = t*w*Q_w^(c) with
Q_w^(c) in the commutative torus algebra, it decides this once per
permutation w from the n! elements Q_w^(c), not once per group element.

The operators of the group elements on the slices of degree at most d become
linearly independent once d is large enough; the smallest such d is found
exactly on the conjugacy-class sums, with the element-level rank kept as
the slow reference.  Conjugation fixes a class sum, so its entries at the
positions of one orbit of G's permutation image are those at one position,
times factors shared by every class sum: the search reads each class sum at
one slice column per orbit and takes the rank in integers.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclo import Cyclotomic, in_gaussian_half_ring
from .groupalg import GroupAlgebraElement, q_w_element
from .groups import FiniteMonomialGroup, common_ambient, mu_group, thick_family
from .linalg import _insert_field_column, sparse_rank
from .qpoly import _c_key, _field_order, _orbit_columns, class_sum_terms, group_sum_terms, operator_matrix


class EquivalenceReport(NamedTuple):
    left: str
    right: str
    degree: int
    per_degree: tuple[bool, ...]
    verdict: bool

    def to_json(self) -> dict:
        return {
            "g": self.left,
            "mu_g": self.right,
            "D": self.degree,
            "per_degree": list(self.per_degree),
            "verdict": self.verdict,
        }


def mystic_equiv_check(
    G: FiniteMonomialGroup,
    act_left,
    H: FiniteMonomialGroup,
    act_right,
    degree: int,
) -> EquivalenceReport:
    """Compare the operators of the two group sums on every slice 0..degree."""
    Gl, Hl = common_ambient(G, H)
    left, right = group_sum_terms(Gl), group_sum_terms(Hl)
    flags = [
        operator_matrix(left, act_left, d) == operator_matrix(right, act_right, d)
        for d in range(degree + 1)
    ]
    return EquivalenceReport(
        left=G.tag.label,
        right=H.tag.label,
        degree=degree,
        per_degree=tuple(flags),
        verdict=all(flags),
    )


def unique_equivalent_thick(G: FiniteMonomialGroup, degree: int, thick=None) -> list[FiniteMonomialGroup]:
    """All thick subgroups of G(m,1,n) whose twisted action is equivalent to
    the untwisted action of G; exactly one match is expected, the counterpart.
    thick defaults to thick_family(m, n); a caller scanning several G of one
    ambient passes that list, so that it is built once and the group sums of
    its members keep their entries across the scans."""
    if G.tag.kind != "G":
        raise ValueError("the uniqueness scan starts from a G(m,p,n) group")
    m, _, n = G.tag.params
    left_terms = group_sum_terms(G)
    left_cache: dict = {}

    def left(d: int):
        if d not in left_cache:
            left_cache[d] = operator_matrix(left_terms, 0, d)
        return left_cache[d]

    matches = []
    for T in thick_family(m, n) if thick is None else thick:
        right = group_sum_terms(T.lift(G.N))
        if all(left(d) == operator_matrix(right, 1, d) for d in range(degree + 1)):
            matches.append(T)
    return matches


class GroupRingIsoReport(NamedTuple):
    group: str
    counterpart: str
    order: int
    support_contained: bool
    coefficients_in_ring: bool
    inverse_support_contained: bool
    inverse_coefficients_in_ring: bool
    change_of_basis_invertible: bool

    @property
    def passed(self) -> bool:
        return (
            self.support_contained
            and self.coefficients_in_ring
            and self.inverse_support_contained
            and self.inverse_coefficients_in_ring
            and self.change_of_basis_invertible
        )


def group_ring_iso_check(G: FiniteMonomialGroup) -> GroupRingIsoReport:
    """Verify that the i-twist carries the integral group ring of G onto that
    of the counterpart group inside Z[i, 1/2].

    J_c(t*w) = t*w*Q_w^(c) with Q_w^(c) in the torus algebra, so each field
    is read per permutation w: the support of J_c(g) is g times that of
    Q_w^(c), its coefficients are those of Q_w^(c), and, the torus algebra
    being commutative, J_{1/c}(J_c(t*w)) = t*w*Q_w^(c)*Q_w^(1/c).  The twists
    are inverse change-of-basis matrices exactly when Q_w^(c)*Q_w^(1/c) = 1
    for every w: criterion 10's q-element identity, at the cell's N (4 or 12).
    """
    mu = mu_group(G)
    if G.N % 4 != 0:
        raise ValueError("ambient torus order must contain i")
    c = Cyclotomic.root(G.N, G.N // 4)

    factors, support_ok, ring_ok = _twist_factors(c, G, mu)
    inverse_factors, inv_support_ok, inv_ring_ok = _twist_factors(c.inverse(), mu, G)
    # with both supports contained, G and mu have the same permutations
    one = GroupAlgebraElement.one(G.n, G.N)
    invertible = (
        len(G) == len(mu)
        and support_ok
        and inv_support_ok
        and all(q * inverse_factors[w] == one for w, q in factors.items())
    )

    return GroupRingIsoReport(
        group=G.tag.label,
        counterpart=mu.tag.label,
        order=G.order,
        support_contained=support_ok,
        coefficients_in_ring=ring_ok,
        inverse_support_contained=inv_support_ok,
        inverse_coefficients_in_ring=inv_ring_ok,
        change_of_basis_invertible=invertible,
    )


def _twist_factors(c, source: FiniteMonomialGroup, target: FiniteMonomialGroup):
    """(w -> Q_w^(c) for each permutation w of source, whether g*s lies in
    target for every g of source and s in the support of Q_w(g)^(c), whether
    every coefficient of those Q_w^(c) lies in Z[i, 1/2])."""
    factors = {w: q_w_element(c, w, source.n, source.N) for w in {g.perm for g in source.elements}}
    targets = target.element_set()
    support_ok = all(g * s in targets for g in source.elements for s in factors[g.perm].terms)
    ring_ok = all(in_gaussian_half_ring(v) for q in factors.values() for v in q.terms.values())
    return factors, support_ok, ring_ok


def faithfulness_rank(G: FiniteMonomialGroup, c, degree: int) -> int:
    """Rank of the family of operators of the group elements on the slices of
    degree at most the bound, viewed as one long vector each, keyed (degree,
    row, column); equals the group order exactly when the operators are
    linearly independent."""
    rows = [dict() for _ in G.elements]
    for d in range(degree + 1):
        for row, g in zip(rows, G.elements):
            for (r, col), v in operator_matrix(g, c, d).entries.items():
                row[(d, r, col)] = v
    return sparse_rank(rows)


def faithfulness_saturation_degree(G: FiniteMonomialGroup, c, max_degree: int):
    """(d, G.order) for the smallest degree bound d at which the operators of
    the group elements on the slices of degree at most d are linearly
    independent; (None, faithfulness_rank(G, c, max_degree)) if no bound up
    to max_degree is one.

    The action is a representation of G, so the kernel of the operator map
    on the group algebra CG is a two-sided ideal, a sum of Wedderburn blocks;
    it is zero exactly when no nonzero central element maps to zero.  The
    element operators are therefore independent exactly when the k
    conjugacy-class sums, which span the centre, have independent operators
    (Serre, Linear Representations of Finite Groups, 2.5 and 6.3).  Each
    position (degree, row, column) of the slice matrices gives a column of k
    class values.  The operator of g = t*w sends x^k to mu_g(k) x^(w(k)), and
    conjugating by it fixes every class sum C, so
    rho(C)[w(r), w(k)] = mu_g(r) mu_g(k)^-1 rho(C)[r, k] with one factor for
    every C: the class-value columns at the positions of one orbit are
    proportional.  So each class sum is placed at one slice column per orbit
    of G's permutation image, and the rank of the distinct class-value
    columns is found exactly by the integer kernel of linalg, all degrees
    joining one echelon set; the search stops when the rank reaches k.
    """
    classes = class_sum_terms(G)
    perms = tuple(perm for perm, rows in G.blocks() if rows)
    field_order = _field_order(_c_key(c), G.N)
    pivots: dict = {}
    rank = 0
    for d in range(max_degree + 1):
        orbit_columns = _orbit_columns(perms, d)
        columns: dict = {}  # (row, col) -> {class: entry}
        for i, class_sum in enumerate(classes):
            for position, v in operator_matrix(class_sum, c, d, orbit_columns).entries.items():
                columns.setdefault(position, {})[i] = v
        distinct = {tuple((i, v.order, v.nums, v.den) for i, v in col.items()): col for col in columns.values()}
        for column in sorted(distinct.values(), key=len):
            if _insert_field_column(column, len(classes), field_order, pivots):
                rank += 1
                if rank == len(classes):
                    return d, G.order
    return None, faithfulness_rank(G, c, max_degree)
