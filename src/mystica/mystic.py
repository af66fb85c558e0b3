"""The det-twist correspondence between the reflection families, decided at
the level of group-algebra operators.

Two faithful actions are considered equivalent when the operators of the two
full group sums coincide; the artifact decides this on all degree slices up
to a truncation degree D, which every report records.  The correspondence mu
maps the torus-filtered family to the det-filtered family; the group-ring
check verifies that the coefficient-twisting map carries one integral group
ring onto the other inside Z[i, 1/2].

The operators of the group elements on the slices of degree at most d become
linearly independent once d is large enough; the smallest such d is found
exactly on the conjugacy-class sums, with the element-level rank kept as
the slow reference.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclo import Cyclotomic, in_gaussian_half_ring
from .groupalg import GroupAlgebraElement, j_c
from .groups import FiniteMonomialGroup, common_ambient, enumerate_thick, mu_group
from .linalg import _insert_pivot, sparse_rank
from .qpoly import class_sum_terms, group_sum_terms, operator_matrix


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
    A caller scanning several G of one ambient passes enumerate_thick(m, n)
    as thick, so that it is enumerated once and the group sums of its
    members keep their entries across the scans."""
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
    for T in enumerate_thick(m, n) if thick is None else thick:
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

    The coefficient matrix of the twist (rows indexed by G, columns by the
    counterpart) and the coefficient matrix of the inverse twist are both
    computed; invertibility over the fraction field is certified by checking
    that the two matrix products are the identity, row by row.
    """
    mu = mu_group(G)
    if G.N % 4 != 0:
        raise ValueError("ambient torus order must contain i")
    c = Cyclotomic.root(G.N, G.N // 4)
    cinv = c.inverse()

    images, support_ok, ring_ok = _twist_images(c, G, mu)
    inverse_images, inv_support_ok, inv_ring_ok = _twist_images(cinv, mu, G)
    invertible = (
        len(G) == len(mu)
        and support_ok
        and inv_support_ok
        and _composes_to_identity(images, inverse_images)
        and _composes_to_identity(inverse_images, images)
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


def _twist_images(c, source: FiniteMonomialGroup, target: FiniteMonomialGroup):
    """(g -> j_c(g) for g in source, whether every image is supported in
    target, whether every image coefficient lies in Z[i, 1/2])."""
    images = {g: j_c(c, GroupAlgebraElement.from_element(g)) for g in source.elements}
    support_ok = all(img.support() <= target.element_set() for img in images.values())
    ring_ok = all(in_gaussian_half_ring(v) for img in images.values() for v in img.terms.values())
    return images, support_ok, ring_ok


def _composes_to_identity(images: dict, back: dict) -> bool:
    """Whether following each g -> images[g] by h -> back[h] gives g back."""
    for g, img in images.items():
        acc = GroupAlgebraElement.zero(g.n, g.N)
        for h, coeff in img.items():
            acc = acc + back[h].scale(coeff)
        if acc != GroupAlgebraElement.from_element(g):
            return False
    return True


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
    (Serre, Linear Representations of Finite Groups, 2.5 and 6.3).  Their
    rank is found exactly: each position (degree, row, column) of the slice
    matrices gives a column of k class values, the distinct columns of each
    degree join one reduced-echelon pivot set, and the search stops when the
    pivots reach k.
    """
    classes = class_sum_terms(G)
    pivots: dict = {}
    for d in range(max_degree + 1):
        columns: dict = {}  # (row, col) -> {class: entry}
        for i, class_sum in enumerate(classes):
            for position, v in operator_matrix(class_sum, c, d).entries.items():
                columns.setdefault(position, {})[i] = v
        distinct = {tuple((i, v.order, v.nums, v.den) for i, v in col.items()): col for col in columns.values()}
        for column in distinct.values():
            if _insert_pivot(column, pivots) and len(pivots) == len(classes):
                return d, G.order
    return None, faithfulness_rank(G, c, max_degree)
