"""Finite subgroups of mu_N^n : S_n.

Groups are stored extensionally, as the full sorted element set, which makes
set equality, membership and normality tests exact and trivial.  The torus
order of the ambient field is always lcm(m, 4) so that fourth roots of unity
coexist with the m-th roots used by the group itself.

The conjugacy-class machinery at the bottom of the module enumerates normal
subgroups as join-closed unions of conjugacy classes.  That lattice is the
single audited algorithm behind thick-subgroup enumeration and the
normal-abelian-subgroup scans used by the classification code.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import NamedTuple

from .monomial import MonomialElement, _trusted, perm_sign

DEFAULT_CAP = 50_000


def group_size_cap() -> int:
    """Size cap for group construction, overridable via MYSTICA_CAP."""
    value = os.environ.get("MYSTICA_CAP")
    if not value:
        return DEFAULT_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MYSTICA_CAP must be a positive integer, got {value!r}")
    return cap


class CapExceededError(RuntimeError):
    pass


class GroupTag(NamedTuple):
    """Provenance of a constructed group, used for labels and JSON."""

    kind: str  # "G", "W", "generated", "explicit"
    params: tuple = ()

    @property
    def label(self) -> str:
        if self.kind == "G":
            m, p, n = self.params
            return f"G({m},{p},{n})"
        if self.kind == "W":
            m, d, n = self.params
            return f"W({m},{d},{n})"
        return self.kind


class FiniteMonomialGroup:
    """A finite set of monomial elements closed under the group law."""

    def __init__(self, n: int, N: int, elements, tag: GroupTag | None = None):
        elems = sorted(set(elements), key=lambda a: a.sort_key())
        for a in elems:
            if (a.n, a.N) != (n, N):
                raise ValueError("element outside the stated ambient")
        self._fill(n, N, tuple(elems), tag)

    @classmethod
    def _sorted(cls, n: int, N: int, elements: tuple, tag: GroupTag | None = None) -> "FiniteMonomialGroup":
        """The group of the given distinct elements of the stated ambient,
        already in sort_key order; nothing is checked."""
        group = object.__new__(cls)
        group._fill(n, N, elements, tag)
        return group

    def _fill(self, n: int, N: int, elements: tuple, tag: GroupTag | None) -> None:
        self.n = n
        self.N = N
        self.elements = elements
        self._eset = frozenset(elements)
        self.tag = tag or GroupTag("explicit")
        self._memo: dict = {}

    def memo(self, key: str, build):
        """build(), computed on first use and kept with the group under key."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def indexed(self) -> "IndexedGroup":
        """The group's one IndexedGroup, shared by every caller."""
        return self.memo("indexed", lambda: IndexedGroup(self))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, a) -> bool:
        return a in self._eset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMonomialGroup)
            and (self.n, self.N) == (other.n, other.N)
            and self._eset == other._eset
        )

    def __hash__(self) -> int:
        return hash((self.n, self.N, self._eset))

    def __repr__(self) -> str:
        return f"<{self.tag.label} order {self.order} in mu_{self.N}^{self.n}:S_{self.n}>"

    def identity(self) -> MonomialElement:
        return MonomialElement.identity(self.n, self.N)

    def element_set(self) -> frozenset:
        return self._eset

    def torus_elements(self) -> tuple[MonomialElement, ...]:
        return tuple(a for a in self.elements if a.is_torus())

    def lift(self, N: int) -> "FiniteMonomialGroup":
        if N == self.N:
            return self
        # scaling the exponents keeps the sort order
        return FiniteMonomialGroup._sorted(self.n, N, tuple(a.lift(N) for a in self.elements), self.tag)

    def retag(self, tag: GroupTag) -> "FiniteMonomialGroup":
        return FiniteMonomialGroup._sorted(self.n, self.N, self.elements, tag)

    def to_json(self) -> dict:
        if self.tag.kind == "G":
            m, p, n = self.tag.params
            return {"kind": "G", "m": m, "p": p, "n": n}
        if self.tag.kind == "W":
            m, d, n = self.tag.params
            return {"kind": "W", "m": m, "cprime": d, "n": n}
        return {"kind": "explicit", "elements": [a.to_json() for a in self.elements]}


def common_ambient(a: FiniteMonomialGroup, b: FiniteMonomialGroup):
    if a.n != b.n:
        raise ValueError("groups live in different ranks")
    N = lcm(a.N, b.N)
    return a.lift(N), b.lift(N)


def ambient_order(m: int) -> int:
    """Torus order used for all work at level m: lcm(m, 4)."""
    return lcm(m, 4)


@lru_cache(maxsize=32)
def _torus_rows(m: int, n: int, N: int, residues: frozenset) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors (N/m) f, f in {0..m-1}^n with sum(f) mod m in
    residues, in lexicographic order."""
    step = N // m
    return tuple(
        tuple([step * x for x in f]) for f in itertools.product(range(m), repeat=n) if sum(f) % m in residues
    )


def _family(n: int, N: int, tag: GroupTag, torus_of) -> FiniteMonomialGroup:
    """The group of the elements t*w, w in S_n and t in torus_of(w), emitted
    in sort order: permutations in lexicographic order, then exponents."""
    elems = tuple(
        _trusted(n, N, perm, exps) for perm in itertools.permutations(range(n)) for exps in torus_of(perm)
    )
    return FiniteMonomialGroup._sorted(n, N, elems, tag)


def make_gmpn(m: int, p: int, n: int, *, N: int | None = None) -> FiniteMonomialGroup:
    """The imprimitive reflection group: pairs t*w with det t in the index-p
    subgroup of the m-th roots of unity.  Order m^n n!/p."""
    if m < 1 or n < 1 or p < 1 or m % p != 0:
        raise ValueError(f"p={p} must divide m={m} and both must be positive")
    N = N or ambient_order(m)
    if N % m != 0:
        raise ValueError(f"ambient order {N} does not contain the {m}-th roots")
    torus = _torus_rows(m, n, N, frozenset(range(0, m, p)))
    group = _family(n, N, GroupTag("G", (m, p, n)), lambda perm: torus)
    assert group.order == m**n * factorial(n) // p
    return group


def make_w(m: int, d: int, n: int, *, N: int | None = None) -> FiniteMonomialGroup:
    """The det-twisted family: pairs t*w with det(t*w) in the order-d subgroup
    of the m-th roots of unity.  Order m^(n-1) d n!."""
    if m < 1 or n < 1 or d < 1 or m % d != 0:
        raise ValueError(f"d={d} must divide m={m} and both must be positive")
    N = N or ambient_order(m)
    if N % m != 0:
        raise ValueError(f"ambient order {N} does not contain the {m}-th roots")
    L = lcm(m, 2)  # det(t*w) lives in the L-th roots of unity

    def torus(sign_term: int):
        # det(t*w) = zeta_L^(sum(f) L/m + sign_term) must lie in the order-d subgroup
        residues = frozenset(r for r in range(m) if (r * (L // m) + sign_term) % L % (L // d) == 0)
        return _torus_rows(m, n, N, residues)

    even, odd = torus(0), torus(L // 2)
    group = _family(n, N, GroupTag("W", (m, d, n)), lambda perm: even if perm_sign(perm) == 1 else odd)
    if m % 2 == 0:
        expected = m ** (n - 1) * d * factorial(n)
    else:
        # odd permutations need det t in -C', which misses the m-th roots
        expected = m ** (n - 1) * d * factorial(n) // (1 if n == 1 else 2)
    assert group.order == expected
    return group


def mu_group(G: FiniteMonomialGroup) -> FiniteMonomialGroup:
    """The counterpart group {w t_1^(det w) t : w in S_n, t in T} of a
    torus-filtered group with even m; equals the det-filtered group with the
    same torus."""
    if G.tag.kind != "G":
        raise ValueError("mu is defined on groups built as G(m,p,n)")
    m, p, n = G.tag.params
    if m % 2 != 0:
        raise ValueError(
            "no counterpart group exists for odd m: the invariants are not closed "
            "under the sign-twisted product, so no group acting by twisted "
            "automorphisms has them as its invariants"
        )
    N = G.N
    torus = G.torus_elements()
    perms = sorted({g.perm for g in G.elements})
    elems = []
    for w in perms:
        w_elem = MonomialElement(n, N, w, (0,) * n)
        det_exps = [0] * n
        if perm_sign(w) == -1:
            det_exps[0] = N // 2
        twist = MonomialElement(n, N, tuple(range(n)), tuple(det_exps))
        for t in torus:
            elems.append(w_elem * twist * t)
    out = FiniteMonomialGroup(n, N, elems, GroupTag("W", (m, m // p, n)))
    expected = make_w(m, m // p, n, N=N)
    if out != expected:
        raise AssertionError("counterpart construction disagrees with the det filter")
    assert out.order == G.order
    return out


def closure_generate(
    ambient: tuple[int, int],
    gens,
    cap: int | None = None,
) -> FiniteMonomialGroup:
    """Smallest subgroup of mu_N^n : S_n containing the generators."""
    N, n = ambient
    cap = cap or group_size_cap()
    gens = list(gens)
    for g in gens:
        if (g.n, g.N) != (n, N):
            raise ValueError("generator outside the stated ambient")
    e = MonomialElement.identity(n, N)
    seen = {e}
    frontier = [e]
    gens_full = gens + [g.inverse() for g in gens]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens_full:
                b = a * g
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > cap:
                        raise CapExceededError(f"closure exceeded cap {cap}")
        frontier = nxt
    return FiniteMonomialGroup(n, N, seen, GroupTag("generated"))


def is_thick(G: FiniteMonomialGroup, ambient_m: int) -> bool:
    """Whether G is a thick subgroup of G(ambient_m, 1, n): normal with full
    projection to the symmetric group."""
    amb = make_gmpn(ambient_m, 1, G.n)
    Gl, ambl = common_ambient(G, amb)
    if not Gl._eset <= ambl._eset:
        raise ValueError(f"group is not contained in G({ambient_m},1,{G.n})")
    perms = {a.perm for a in Gl.elements}
    if len(perms) != factorial(G.n):
        return False
    # normality under a generating set of the ambient is enough
    from .monomial import adjacent_swap, torus_gen

    Nl = ambl.N
    gens = [adjacent_swap(G.n, Nl, i) for i in range(1, G.n)]
    gens.append(torus_gen(G.n, Nl, 1, Nl // ambient_m))
    for g in gens:
        ginv = g.inverse()
        for x in Gl.elements:
            if g * x * ginv not in Gl:
                return False
    return True


class TorusSubgroup(NamedTuple):
    """The intersection of a group with the diagonal torus."""

    elements: tuple[MonomialElement, ...]
    m_detected: int  # order of the smallest root subgroup containing all entries
    cprime_order: int  # order of the determinant image of the torus part
    form_matches: bool  # T equals {t : det t in C'} inside mu_m^n
    generation_matches: bool  # T is generated by t_1^(eps') and t_i^(eps) t_j^(eps^-1)

    @property
    def order(self) -> int:
        return len(self.elements)


def torus_part(G: FiniteMonomialGroup) -> TorusSubgroup:
    n, N = G.n, G.N
    torus = G.torus_elements()
    # smallest m with all entries inside the m-th roots
    m = 1
    for a in G.elements:
        for e in a.exps:
            if e:
                m = lcm(m, N // gcd(e, N))
    det_exps = {sum(t.exps) % N for t in torus}
    cprime = len(det_exps)
    # det values of torus elements live in mu_m; the image is a subgroup
    step = N // m
    tset = {t.exps for t in torus}
    # does T match {t in mu_m^n : det t in C'}?
    dstep = m // cprime  # C' = exponents divisible by m/cprime (as m-th roots)
    expected = set()
    for f in itertools.product(range(m), repeat=n):
        if (sum(f) % m) % dstep == 0:
            expected.add(tuple(step * x for x in f))
    form_matches = tset == expected
    # generation statement: t_1^(eps') for eps' in C', and t_i^(eps) t_j^(eps^-1)
    gens = []
    for j in range(cprime):
        exps = [0] * n
        exps[0] = (j * dstep * step) % N
        gens.append(MonomialElement(n, N, tuple(range(n)), tuple(exps)))
    for i in range(n):
        for j in range(n):
            if i != j:
                exps = [0] * n
                exps[i] = step % N
                exps[j] = (-step) % N
                gens.append(MonomialElement(n, N, tuple(range(n)), tuple(exps)))
    generated = closure_generate((N, n), gens)
    generation_matches = generated.element_set() == frozenset(torus)
    return TorusSubgroup(torus, m, cprime, form_matches, generation_matches)


# ---------------------------------------------------------------------------
# Conjugacy classes, the class-join lattice and structure probes
# ---------------------------------------------------------------------------


class IndexedGroup:
    """Index-based view of a group for combinatorial computations.

    Elements are numbered in the group's sort order.  Products enter through
    one right-multiplication array per generator, filled from
    MonomialElement products; the left multiplications, conjugations and
    class products follow from those arrays by associativity along a
    breadth-first spanning tree of the Cayley graph, as index lookups (Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, ch. 3-4).  No
    dense Cayley table is kept.  Class sets of the lattice are bit masks
    internally.
    """

    def __init__(self, G: FiniteMonomialGroup):
        self.group = G
        self.elems = G.elements
        self.index = {a: i for i, a in enumerate(self.elems)}
        self.id_index = self.index[G.identity()]
        self.inv = [self.index[a.inverse()] for a in self.elems]
        self._right: dict[int, list[int]] = {}
        self._gens: list[int] | None = None
        self._tree: list[tuple[int, int, list[int]]] = []
        self._classes: list[frozenset[int]] | None = None
        self._class_of: list[int] | None = None
        self._class_mult: list[list[int]] | None = None
        self._commuting: list[int] | None = None

    def mul(self, i: int, j: int) -> int:
        return self.index[self.elems[i] * self.elems[j]]

    def right(self, g: int) -> list[int]:
        """x -> x * g on indices, from MonomialElement products; kept per g."""
        if g not in self._right:
            index, h = self.index, self.elems[g]
            self._right[g] = [index[a * h] for a in self.elems]
        return self._right[g]

    def left(self, r: int) -> list[int]:
        """x -> r * x on indices, without products: where the spanning tree
        has x = y * g, r * x = (r * y) * g."""
        self.generators()
        out = [r] * len(self.elems)  # r * identity = r; the tree fills the rest
        for x, y, times_g in self._tree:
            out[x] = times_g[out[y]]
        return out

    # -- generators ------------------------------------------------------

    def generators(self) -> list[int]:
        """A small generating set found greedily: the first element not yet
        generated joins the set, in index order."""
        if self._gens is not None:
            return self._gens
        gens: list[int] = []
        covered = {self.id_index}
        for i in range(len(self.elems)):
            if i in covered:
                continue
            gens.append(i)
            self._tree = self._spanning_tree(gens)
            covered = {self.id_index}.union(x for x, _, _ in self._tree)
            if len(covered) == len(self.elems):
                break
        self._gens = gens
        return gens

    def _spanning_tree(self, gens: list[int]) -> list[tuple[int, int, list[int]]]:
        """(x, y, right(g)) with x = y * g for every element x other than the
        identity of the subgroup the gens generate, in breadth-first order."""
        arrays = [self.right(g) for g in gens]
        seen = {self.id_index}
        tree = []
        frontier = [self.id_index]
        while frontier:
            nxt = []
            for y in frontier:
                for times_g in arrays:
                    x = times_g[y]
                    if x not in seen:
                        seen.add(x)
                        tree.append((x, y, times_g))
                        nxt.append(x)
            frontier = nxt
        return tree

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_classes(self) -> list[frozenset[int]]:
        """The classes, numbered by their smallest element, as orbits under
        conjugation by the generators."""
        if self._classes is not None:
            return self._classes
        size = len(self.elems)
        conjugations = []
        for g in self.generators():
            times_g_inv = [0] * size
            for x, y in enumerate(self.right(g)):
                times_g_inv[y] = x
            conjugations.append([times_g_inv[y] for y in self.left(g)])  # x -> g x g^-1
        class_of = [-1] * size
        classes: list[frozenset[int]] = []
        for start in range(size):
            if class_of[start] >= 0:
                continue
            cid = len(classes)
            class_of[start] = cid
            orbit = [start]
            for x in orbit:  # the orbit grows while it is walked
                for conj in conjugations:
                    y = conj[x]
                    if class_of[y] < 0:
                        class_of[y] = cid
                        orbit.append(y)
            classes.append(frozenset(orbit))
        self._classes = classes
        self._class_of = class_of
        return classes

    def class_of(self, i: int) -> int:
        self.conjugacy_classes()
        return self._class_of[i]

    def class_mult(self) -> list[list[int]]:
        """class_mult[i][j]: the bit mask of the classes met by (rep of class
        i) * class j, the rep being the smallest element of class i."""
        if self._class_mult is not None:
            return self._class_mult
        classes = self.conjugacy_classes()
        class_of = self._class_of
        table = []
        for cls in classes:
            times_rep = self.left(min(cls))
            table.append([_mask({class_of[times_rep[x]] for x in other}) for other in classes])
        self._class_mult = table
        return table

    # -- the class-join lattice of normal subgroups -------------------------

    def _join(self, mask: int, c: int) -> int:
        """The classes of A<C>, for the normal subgroup A with class mask
        `mask` and the class C numbered c: A C^k grows by one factor C at a
        time, and only the classes found last need multiplying again."""
        if mask >> c & 1:
            return mask
        table = self.class_mult()
        frontier = mask
        while frontier:
            grown = 0
            for a in _bits(frontier):
                grown |= table[a][c]
            frontier = grown & ~mask
            mask |= frontier
        return mask

    def normal_closure(self, class_set) -> frozenset[int]:
        """The classes of the smallest normal subgroup containing the given
        classes."""
        mask = 1 << self.class_of(self.id_index)
        for c in class_set:
            mask = self._join(mask, c)
        return frozenset(_bits(mask))

    def normal_subgroup_class_sets(self) -> list[frozenset[int]]:
        """All normal subgroups, each as a frozenset of class indices: the
        joins of the normal closures of single classes."""
        classes = self.conjugacy_classes()
        trivial = 1 << self._class_of[self.id_index]
        principals: dict[int, int] = {}  # normal closure of a class -> that class
        for c in range(len(classes)):
            principals.setdefault(self._join(trivial, c), c)
        known = {trivial} | set(principals)
        frontier = list(known)
        while frontier:
            nxt = []
            for a in frontier:
                for c in principals.values():
                    joined = self._join(a, c)
                    if joined not in known:
                        known.add(joined)
                        nxt.append(joined)
            frontier = nxt
        sets = [frozenset(_bits(mask)) for mask in known]
        return sorted(sets, key=lambda s: (sum(len(classes[c]) for c in s), sorted(s)))

    def materialize(self, class_set: frozenset[int]) -> set[int]:
        classes = self.conjugacy_classes()
        out: set[int] = set()
        for c in class_set:
            out |= classes[c]
        return out

    def subgroup_from_indices(self, indices, tag: GroupTag | None = None) -> FiniteMonomialGroup:
        G = self.group
        return FiniteMonomialGroup._sorted(G.n, G.N, tuple(self.elems[i] for i in sorted(indices)), tag)

    def is_abelian_class_set(self, class_set) -> bool:
        """Whether the union of the classes is abelian.  It is exactly when the
        rep of each of its classes commutes with all of it: conjugating by g
        carries that pair to (g rep g^-1, the same union)."""
        if self._commuting is None:
            self._commuting = self._commuting_classes()
        mask = _mask(class_set)
        return all(self._commuting[c] & mask == mask for c in class_set)

    def _commuting_classes(self) -> list[int]:
        """Per class i, the bit mask of the classes whose every element
        commutes with the rep of class i; x * rep is found as the inverse of
        rep^-1 * x^-1."""
        inv = self.inv
        classes = self.conjugacy_classes()
        out = []
        for cls in classes:
            rep = min(cls)
            times_rep, times_rep_inv = self.left(rep), self.left(inv[rep])
            out.append(
                _mask(
                    c
                    for c, other in enumerate(classes)
                    if all(times_rep[x] == inv[times_rep_inv[inv[x]]] for x in other)
                )
            )
        return out


def _mask(class_ids) -> int:
    return sum(1 << c for c in class_ids)


def _bits(mask: int):
    """The positions of the set bits of the mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_thick(m: int, n: int, cap: int | None = None) -> list[FiniteMonomialGroup]:
    """All thick subgroups of G(m,1,n), found by brute-force enumeration of
    normal subgroups as joins of conjugacy-class closures."""
    cap = cap or group_size_cap()
    if m**n * factorial(n) > cap:
        raise CapExceededError(f"ambient order {m ** n * factorial(n)} exceeds cap {cap}")
    amb = make_gmpn(m, 1, n)
    ig = amb.indexed()
    out = []
    for class_set in ig.normal_subgroup_class_sets():
        indices = ig.materialize(class_set)
        perms = {ig.elems[i].perm for i in indices}
        if len(perms) != factorial(n):
            continue
        group = ig.subgroup_from_indices(indices)
        out.append(group.retag(identify_tag(group, m)))
    out.sort(key=lambda g: (g.order, [a.sort_key() for a in g.elements]))
    return out


def identify_tag(G: FiniteMonomialGroup, m: int) -> GroupTag:
    """Match a subgroup of G(m,1,n) against the standard families."""
    n = G.n
    for p in range(1, m + 1):
        if m % p == 0 and G.order == m**n * factorial(n) // p:
            if G == make_gmpn(m, p, n).lift(G.N):
                return GroupTag("G", (m, p, n))
    for d in range(1, m + 1):
        if m % d == 0 and G.order == m ** (n - 1) * d * factorial(n):
            if G == make_w(m, d, n).lift(G.N):
                return GroupTag("W", (m, d, n))
    return GroupTag("generated")


class StructureProbes(NamedTuple):
    """Exact structural invariants computed by enumeration."""

    order: int
    center_order: int
    derived_order: int
    abelianization: tuple[int, ...]  # invariant factors, ascending divisor chain
    class_sizes: tuple[int, ...]
    order_histogram: tuple[tuple[int, int], ...]  # (element order, count)
    center: FiniteMonomialGroup
    derived: FiniteMonomialGroup


def structure_probes(G: FiniteMonomialGroup) -> StructureProbes:
    cap = group_size_cap()
    if G.order > cap:
        raise CapExceededError(f"group of order {G.order} exceeds cap {cap}")
    ig = G.indexed()
    classes = ig.conjugacy_classes()
    center = [i for cls in classes if len(cls) == 1 for i in cls]
    # [G,G] is the normal closure of the commutators of a generating set
    gens = ig.generators()
    commutators = {ig.mul(ig.mul(a, b), ig.mul(ig.inv[a], ig.inv[b])) for a in gens for b in gens}
    derived = ig.materialize(ig.normal_closure({ig.class_of(x) for x in commutators}))
    ab_invariants = _abelian_quotient_invariants(ig, derived)
    class_sizes = tuple(sorted(len(c) for c in classes))
    hist = Counter(a.element_order() for a in G.elements)
    return StructureProbes(
        order=G.order,
        center_order=len(center),
        derived_order=len(derived),
        abelianization=ab_invariants,
        class_sizes=class_sizes,
        order_histogram=tuple(sorted(hist.items())),
        center=ig.subgroup_from_indices(center),
        derived=ig.subgroup_from_indices(derived),
    )


def _abelian_quotient_invariants(ig: IndexedGroup, derived: set[int]) -> tuple[int, ...]:
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
