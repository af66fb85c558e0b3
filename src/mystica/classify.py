"""Abstract-isomorphism testing and the regular/singular dichotomy.

Isomorphism is decided in two stages: a fingerprint of cheap isomorphism
invariants filters obvious non-pairs, then a complete backtracking search
maps a generating set onto candidate images with order, class-size and
injectivity pruning.  Everything is exact and deterministic; the search is
sound and complete for the desk-scale orders it is run at.

`certified_isomorphic` decides a pair by a certificate checkable in O(|G|)
first, read off the blocks: the sign twist phi(G) = H proves G and H
isomorphic, different order histograms prove them not; only a pair that
neither decides goes to the search.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .groups import CapExceededError, FiniteMonomialGroup, IndexedGroup, common_ambient, group_size_cap

ISO_CAP = 500


class Fingerprint(NamedTuple):
    """Cheap isomorphism invariants; equal fingerprints are necessary but not
    sufficient for isomorphism."""

    order: int
    order_histogram: tuple[tuple[int, int], ...]
    center_order: int
    abelianization: tuple[int, ...]
    class_sizes: tuple[int, ...]
    derived_order: int
    class_power_data: tuple[tuple[int, int, int, int], ...]


def fingerprint(G: FiniteMonomialGroup) -> Fingerprint:
    cap = group_size_cap()
    if G.order > cap:
        raise CapExceededError(f"group of order {G.order} exceeds cap {cap}")
    ig = G.indexed()
    classes = ig.conjugacy_classes()
    # [G,G] is the normal closure of the commutators of a generating set
    gens = ig.generators()
    commutators = {ig.mul(ig.mul(a, b), ig.mul(ig.inv[a], ig.inv[b])) for a in gens for b in gens}
    derived = ig.normal_closure(commutators)
    orders = _class_orders(ig)
    histogram: Counter = Counter()
    power_data = []
    for c, cls in enumerate(classes):
        rep = min(cls)
        square_cls = ig.class_of(ig.mul(rep, rep))
        histogram[orders[c]] += len(cls)
        power_data.append((len(cls), orders[c], len(classes[square_cls]), orders[square_cls]))
    return Fingerprint(
        order=G.order,
        order_histogram=tuple(sorted(histogram.items())),
        center_order=sum(1 for cls in classes if len(cls) == 1),
        abelianization=_abelian_quotient_invariants(ig, derived),
        class_sizes=tuple(sorted(len(cls) for cls in classes)),
        derived_order=len(derived),
        class_power_data=tuple(sorted(power_data)),
    )


def _abelian_quotient_invariants(ig: IndexedGroup, derived: frozenset[int]) -> tuple[int, ...]:
    """Invariant factors of G/[G,G] (an ascending divisor chain).  A cyclic
    subgroup of largest order in a finite abelian group is a direct summand
    (Rotman, An Introduction to the Theory of Groups, ch. 6), so the next
    factor is the largest coset order modulo the part K split off so far."""
    # cosets of the derived subgroup
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for i in range(len(ig.elems)):
        if i in coset_of:
            continue
        cid = len(reps)
        reps.append(i)
        for d in derived:
            coset_of[ig.mul(i, d)] = cid

    def powers(a: int, K: set[int]) -> list[int]:
        """The cosets a^0, a^1, ..., a^(k-1), for a^k the first power in K."""
        out, x = [coset_of[ig.id_index]], reps[a]
        while coset_of[x] not in K:
            out.append(coset_of[x])
            x = ig.mul(x, reps[a])
        return out

    K = {coset_of[ig.id_index]}
    factors = []
    while len(K) < len(reps):
        cyclic = max((powers(a, K) for a in range(len(reps))), key=len)
        factors.append(len(cyclic))
        K = {coset_of[ig.mul(reps[k], reps[b])] for k in K for b in cyclic}
    return tuple(sorted(factors))


def _class_orders(ig: IndexedGroup) -> list[int]:
    """The element order of each conjugacy class, read off its rep: the
    order is a class function."""
    return [ig.elems[min(cls)].element_order() for cls in ig.conjugacy_classes()]


class _MultTable:
    """Dense multiplication table for the backtracking search, which runs
    at orders up to ISO_CAP only."""

    def __init__(self, G: FiniteMonomialGroup):
        ig = G.indexed()
        self.ig = ig
        size = len(ig.elems)
        self.size = size
        self.table = [ig.left(i) for i in range(size)]
        self.id_index = ig.id_index
        classes, orders = ig.conjugacy_classes(), _class_orders(ig)
        class_ids = [ig.class_of(i) for i in range(size)]
        self.orders = [orders[c] for c in class_ids]
        self.class_size = [len(classes[c]) for c in class_ids]

    def signature(self, i: int) -> tuple[int, int]:
        return (self.orders[i], self.class_size[i])


def _closure_extend(A: _MultTable, B: _MultTable, pairs):
    """Grow the partial map along the Cayley graph of the chosen generators;
    None on any conflict.  The returned map is a homomorphism from the
    subgroup generated by the left generators."""
    phi = {A.id_index: B.id_index}
    frontier = [A.id_index]
    while frontier:
        nxt = []
        for x in frontier:
            px = phi[x]
            for a, b in pairs:
                y = A.table[x][a]
                py = B.table[px][b]
                cur = phi.get(y)
                if cur is None:
                    phi[y] = py
                    nxt.append(y)
                elif cur != py:
                    return None
        frontier = nxt
    return phi


def isomorphic(G: FiniteMonomialGroup, H: FiniteMonomialGroup, cap: int = ISO_CAP) -> bool:
    """Complete isomorphism decision for groups of order up to the cap."""
    if G.order != H.order:
        return False
    if G.order > cap or H.order > cap:
        raise CapExceededError(f"isomorphism search capped at order {cap}")
    if G.n == H.n:
        a, b = common_ambient(G, H)
        if a == b:
            return True
    if fingerprint(G) != fingerprint(H):
        return False
    A = _MultTable(G)
    B = _MultTable(H)
    gens = A.ig.generators()
    gen_sigs = [A.signature(g) for g in gens]
    b_classes = B.ig.conjugacy_classes()

    def candidates(level: int):
        sig = gen_sigs[level]
        if level == 0:
            # one representative per class is enough up to inner automorphisms
            return [min(cls) for cls in b_classes if B.signature(min(cls)) == sig]
        return [i for i in range(B.size) if B.signature(i) == sig]

    def search(level: int, pairs):
        if level == len(gens):
            phi = _closure_extend(A, B, pairs)
            if phi is None or len(phi) != A.size:
                return False
            return len(set(phi.values())) == A.size
        for image in candidates(level):
            new_pairs = pairs + [(gens[level], image)]
            phi = _closure_extend(A, B, new_pairs)
            if phi is None:
                continue
            if len(set(phi.values())) != len(phi):
                continue  # kernel already visible, cannot extend to a bijection
            if search(level + 1, new_pairs):
                return True
        return False

    return search(0, [])


class Verdict(NamedTuple):
    isomorphic: bool
    certificate: str  # "sign twist", "order histogram" or "search"


def certified_isomorphic(G: FiniteMonomialGroup, H: FiniteMonomialGroup) -> Verdict:
    """Whether G and H are isomorphic, with the certificate that decided it:
    phi(G) = H as sets for the sign twist phi (FiniteMonomialGroup.sign_twist,
    an injective homomorphism) proves yes, different order histograms prove
    no, and any other pair is decided by `isomorphic`, capped at ISO_CAP."""
    if G.n == H.n and G.order == H.order:
        a, b = common_ambient(G, H)
        if a.N % 2 == 0 and a.sign_twist() == b:
            return Verdict(True, "sign twist")
    if G.order_histogram() != H.order_histogram():
        return Verdict(False, "order histogram")
    return Verdict(isomorphic(G, H), "search")


# -- regular / singular -------------------------------------------------


class RegularityReport(NamedTuple):
    group: str
    status: str  # "regular" or "singular"
    torus_order: int
    witness: FiniteMonomialGroup | None


def regular_singular(G: FiniteMonomialGroup) -> RegularityReport:
    """Enumerate the normal subgroups of the group, keep the abelian ones and
    compare their orders against the torus part; singular means some normal
    abelian subgroup other than the torus reaches the torus order."""
    ig = G.indexed()
    torus_indices = frozenset(ig.index_of(t) for t in G.torus_elements())
    torus_order = len(torus_indices)
    witness = None
    for indices in ig.normal_subgroups():
        if len(indices) < torus_order or indices == torus_indices:
            continue
        if ig.is_abelian(indices):
            witness = ig.subgroup_from_indices(indices)
            break
    status = "singular" if witness is not None else "regular"
    return RegularityReport(G.tag.label, status, torus_order, witness)
